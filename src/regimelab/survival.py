"""Cox proportional-hazard estimation for recovery durations with right-censoring.

Single scalar covariate, Breslow tie handling, Newton-Raphson on the partial
log-likelihood with step-halving.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .econometrics import t_and_p


@dataclass(frozen=True)
class CoxFit:
    gamma: float
    se: float
    z: float
    p: float
    hr_per_10pp: float
    n_events: int
    n_censored: int
    loglik: float
    iterations: int

    def row(self) -> dict:
        """The cox table's row: every field but the fit diagnostics loglik and iterations."""
        row = asdict(self)
        del row["loglik"], row["iterations"]
        return row


def _prepare(durations, events, covariate):
    durations = np.asarray(durations, dtype=float)
    events = np.asarray(events, dtype=int)
    x = np.asarray(covariate, dtype=float)
    if not (durations.size == events.size == x.size):
        raise ValueError("durations, events, covariate must have equal length")
    # a censored subject may have duration 0: it is never at risk at an event time
    if np.any(durations < 0) or np.any(durations[events == 1] == 0):
        raise ValueError("durations must be positive (0 allowed for censored subjects)")
    if not np.all((events == 0) | (events == 1)):
        raise ValueError("events must be 0/1 flags")
    if events.sum() < 2:
        raise ValueError("need at least 2 events")
    ev_x = x[events == 1]
    if np.ptp(ev_x) == 0.0:
        raise ValueError("zero-variance covariate among event subjects")
    order = np.argsort(durations, kind="stable")
    return durations[order], events[order], x[order]


def _event_groups(dur, ev, x) -> list[tuple[int, int, float]]:
    # (first index, event count, event-covariate sum) per duration-tie group with an event
    groups = []
    for g in np.flatnonzero(np.concatenate(([True], np.diff(dur) > 0))):
        members = slice(g, g + np.searchsorted(dur[g:], dur[g], side="right"))
        d = int(ev[members].sum())
        if d:
            groups.append((g, d, float(x[members][ev[members] == 1].sum())))
    return groups


def _loglik_score_info(gamma: float, x, groups):
    # suffix sums over the ascending sort give risk-set sums at each tie group
    w = np.exp(gamma * x)
    s0 = np.cumsum(w[::-1])[::-1]
    s1 = np.cumsum((w * x)[::-1])[::-1]
    s2 = np.cumsum((w * x * x)[::-1])[::-1]
    ll = score = info = 0.0
    for g, d, sx in groups:
        mean = s1[g] / s0[g]
        ll += gamma * sx - d * math.log(s0[g])
        score += sx - d * mean
        info += d * (s2[g] / s0[g] - mean * mean)
    return ll, score, info


def _limit_scores(x, groups):
    # score at gamma -> +inf / -inf: risk-set mean tends to max / min of x
    sufmax = np.maximum.accumulate(x[::-1])[::-1]
    sufmin = np.minimum.accumulate(x[::-1])[::-1]
    up = lo = 0.0
    for g, d, sx in groups:
        up += sx - d * sufmax[g]
        lo += sx - d * sufmin[g]
    return up, lo


def cox_fit(durations, events, covariate) -> CoxFit:
    """Fit hazard(t | x) = h0(t) exp(gamma x) by Breslow partial likelihood.

    Newton-Raphson from gamma=0 with step-halving, for at most 100 steps and
    until a step is below 1e-8 or the score below 1e-10; standard error from
    the inverse observed information. Monotone likelihoods (perfect separation)
    are detected exactly from the limiting scores and raised as errors.
    """
    dur, ev, x_raw = _prepare(durations, events, covariate)
    # centering leaves the partial likelihood identically unchanged but keeps exp() tame
    x = x_raw - x_raw.mean()
    groups = _event_groups(dur, ev, x)

    score_up, score_lo = _limit_scores(x, groups)
    if not (score_up < 0.0 < score_lo):
        raise ValueError("non-finite MLE: monotone partial likelihood (perfect separation)")

    gamma = 0.0
    ll, score, info = _loglik_score_info(gamma, x, groups)
    for iterations in range(1, 101):
        if info <= 0:
            raise ValueError("non-finite MLE: information is not positive")
        step = score / info
        new_gamma = gamma + step
        new_ll, new_score, new_info = _loglik_score_info(new_gamma, x, groups)
        halvings = 0
        while new_ll < ll - 1e-12 and halvings < 40:
            step /= 2.0
            new_gamma = gamma + step
            new_ll, new_score, new_info = _loglik_score_info(new_gamma, x, groups)
            halvings += 1
        delta = abs(new_gamma - gamma)
        gamma, ll, score, info = new_gamma, new_ll, new_score, new_info
        if delta < 1e-8 or abs(score) < 1e-10:
            break

    se = 1.0 / math.sqrt(info)
    z, p = t_and_p(float(gamma), se)
    return CoxFit(
        gamma=float(gamma),
        se=float(se),
        z=z,
        p=p,
        hr_per_10pp=math.exp(0.10 * gamma),
        n_events=int(ev.sum()),
        n_censored=int((1 - ev).sum()),
        loglik=float(ll),
        iterations=iterations,
    )
