"""regimelab's C kernels, built on first use and called through ctypes.

Each entry point has one caller in the package, and each output a reader.
Each parametric null's log-price path is one C loop, the running sum of its
steps; each step is the twin of its oracle in tests/oracles.py (a scalar
loop, or gbm's numpy formula), the same IEEE operations in the same order,
and the sum adds as np.cumsum adds, so the path is the same bit for bit
(-ffp-contract=off keeps the compiler from fusing a multiply and an add into
one FMA). The drawdown-recovery episode scan and each null path's median
duration ratio run in C for speed: they compare floats and do the same
divisions, sum and halving as the numpy scan in tests/oracles.py and
np.median, so they equal them exactly. The scan's tie rules live in `scan`
below. The stationary block bootstrap's walk and running sum run in C too,
from numpy's draws, and equal the numpy walk and np.cumsum exactly.
"""

from __future__ import annotations

import os
from contextlib import suppress
from functools import lru_cache

import numpy as np

KERNEL_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* The null models' log-price paths write their steps' running sum s to out[0..n); s starts at
   -0.0, as -0.0 + x is x for every x (0.0 + -0.0 is 0.0), so out equals np.cumsum of the steps */
void gbm_path(const double *z, double *out, long n, double d, double a) {
    double s = -0.0;
    for (long t = 0; t < n; t++) out[t] = s += d + a * z[t];
}

void asym_vol_path(const double *z, double *out, long n, double dt, double mu, double sigma_base,
                   double gamma, double lo, double hi) {
    double sqdt = sqrt(dt), sigma = sigma_base, s = -0.0;
    for (long t = 0; t < n; t++) {
        double step = (mu - 0.5 * sigma * sigma) * dt + sigma * sqdt * z[t];
        out[t] = s += step;
        /* volatility for the next step, from this step's log return */
        sigma = sigma_base * exp(gamma * step);
        if (sigma < lo) sigma = lo;
        else if (sigma > hi) sigma = hi;
    }
}

/* heston_steps_reference as a loop, with z2 = rho * z1 + c * w; returns the count of steps with
   v <= eps_v. v starts at v0 >= 0, is clipped to +0.0 and never sums to -0.0: it is its own vplus */
long heston_path(const double *z1, const double *w, double *out, long n, double dt, double mu,
                 double vbar, double kappa, double xi, double v0, double eps_v, double rho, double c) {
    double sqdt = sqrt(dt), v = v0, s = -0.0;
    long degenerate = 0;
    for (long t = 0; t < n; t++) {
        double z2 = rho * z1[t] + c * w[t];
        if (v <= eps_v) degenerate++;
        out[t] = s += (mu - 0.5 * v) * dt + sqrt(v) * sqdt * z1[t];
        v = v + kappa * (vbar - v) * dt + xi * sqrt(v * dt) * z2
            + (0.25 * xi * xi) * (dt * z2 * z2 - dt);
        if (v < 0.0) v = 0.0;
    }
    return degenerate;
}

/* markov_steps_reference as a loop: step t of the chain (state 0 = bull, 1 = bear) leaves bull
   when u[t] >= p11 and bear when u[t] >= p22, then takes the log return of its new state. */
void markov_path(const double *z, const double *u, double *out, long n, double dt, double mu1,
                 double s1, double p11, double mu2, double s2, double p22, long state) {
    double sqdt = sqrt(dt), s = -0.0;
    double d[2] = {(mu1 - 0.5 * s1 * s1) * dt, (mu2 - 0.5 * s2 * s2) * dt};
    double a[2] = {s1 * sqdt, s2 * sqdt};
    state = state != 0;  /* as in the reference, every state but 0 is bear; d and a hold two */
    for (long t = 0; t < n; t++) {
        if (u[t] >= (state ? p22 : p11)) state = !state;
        out[t] = s += d[state] + a[state] * z[t];
    }
}

/* The completed drawdown-recovery episodes of c[0..n), which holds no NaN.
   A high is an index at the running maximum, compared with >=, so a tie
   moves the peak to the later index. Two highs with an index between them
   bound an episode; its trough is the first index at the interior minimum
   (updated on <), and it counts when 1 - trough/peak >= delta. The last
   segment, which no high closes, is dropped. Each counted episode writes
   its fields to the arrays that are not NULL; returns the count. Episodes
   do not overlap and each spans at least two steps, so the count is at
   most n / 2. cp and ct hold c[p] and c[t]: the output arrays might alias c,
   so the compiler would otherwise load both again after every store. */
static long scan(const double *c, long n, double delta, int64_t *peaks, int64_t *troughs,
                 int64_t *recs, double *depth, double *tau) {
    if (n < 2) return 0;  /* and c[0] may not exist */
    long k = 0, p = 0, t = 0;
    double cp = c[0], ct = c[0];
    for (long i = 1; i < n; i++) {
        double ci = c[i];
        if (ci >= cp) {
            if (i - p > 1) {
                double d = 1.0 - ct / cp;
                if (d >= delta) {
                    if (peaks) {
                        peaks[k] = p;
                        troughs[k] = t;
                        recs[k] = i;
                        depth[k] = d;
                    }
                    if (tau) tau[k] = (double)(i - t) / (double)(t - p);
                    k++;
                }
            }
            p = i;
            cp = ci;
        } else if (i == p + 1 || ci < ct) {
            t = i;
            ct = ci;
        }
    }
    return k;
}

long episode_scan(const double *c, long n, double delta, int64_t *peaks, int64_t *troughs,
                  int64_t *recs, double *depth) {
    return scan(c, n, delta, peaks, troughs, recs, depth, NULL);
}

static int ascending(const void *a, const void *b) {
    double x = *(const double *)a, y = *(const double *)b;
    return (x > y) - (x < y);
}

/* The median of the completed episodes' duration ratios (recovery - trough)
   / (trough - peak), as np.median takes it: the middle value, or the two
   middle values' sum halved; NaN when no episode completed. tau is work
   space for n / 2 values. */
double median_tau(const double *c, long n, double delta, double *tau) {
    long k = scan(c, n, delta, NULL, NULL, NULL, NULL, tau);
    if (k == 0) return NAN;
    qsort(tau, k, sizeof *tau, ascending);
    return k % 2 ? tau[k / 2] : (tau[k / 2 - 1] + tau[k / 2]) / 2.0;
}

/* The stationary bootstrap's walk of `length` positions over a ring of n,
   as the running sum of x at its indices, added in order as np.cumsum
   adds. Position 0 takes starts[0]; position t > 0 takes the next start
   when u[t - 1] < p, and otherwise the previous index + 1, wrapping to 0
   at n. starts holds one value more than u holds values below p. */
void block_cumsum(const double *u, const int64_t *starts, long n, long length, double p,
                  const double *x, double *sum) {
    int64_t j = starts[0];
    double s = x[j];
    sum[0] = s;
    for (long t = 1; t < length; t++) {
        if (u[t - 1] < p) j = *++starts;
        else if (++j == n) j = 0;
        sum[t] = s += x[j];
    }
}
"""
CC = "cc"
CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")


@lru_cache(maxsize=1)
def load():
    """The compiled kernels. The first call for this source, these flags and
    this compiler builds them into $XDG_CACHE_HOME/regimelab (by default
    ~/.cache/regimelab); when that cannot be written, into a private temporary
    directory, removed once the library is loaded. The file is named by the
    CRC-32 and Adler-32 of the source, the flags and the first line of
    `cc --version`: 64 bits from zlib, where hashlib would load OpenSSL's
    libcrypto, several MB, into every command for a file name."""
    import ctypes
    import shutil
    import subprocess
    import tempfile
    import zlib

    try:
        version = subprocess.run([CC, "--version"], capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError) as exc:
        raise OSError(f"regimelab's kernels need a C compiler, and `{CC} --version` failed: {exc}") from None
    material = "\0".join((KERNEL_SOURCE, *CFLAGS, version.partition("\n")[0])).encode()
    key = f"{zlib.crc32(material):08x}{zlib.adler32(material):08x}"
    cache = os.path.join(os.path.expanduser(os.environ.get("XDG_CACHE_HOME") or "~/.cache"), "regimelab")
    path = os.path.join(cache, f"kernels-{key}.so")
    private = None
    if not os.path.exists(path):
        try:
            os.makedirs(cache, exist_ok=True)
            fd, tmp = tempfile.mkstemp(".tmp", ".kernels-", cache)
        except OSError:
            private = tempfile.mkdtemp(prefix="regimelab-")
            path = os.path.join(private, "kernels.so")
            fd, tmp = tempfile.mkstemp(".tmp", ".kernels-", private)
        os.close(fd)
        try:
            # the source goes in on stdin, so the build leaves no .c file behind
            done = subprocess.run([CC, *CFLAGS, "-x", "c", "-", "-o", tmp, "-lm"],
                                  input=KERNEL_SOURCE, capture_output=True, text=True)
            if done.returncode:
                reason = (done.stderr.strip().splitlines() or [f"exit status {done.returncode}"])[0]
                raise OSError(f"`{CC}` could not compile regimelab's kernels: {reason}")
            os.replace(tmp, path)  # whole or not at all, also when another process builds it too
        finally:
            with suppress(FileNotFoundError):
                os.remove(tmp)
    try:
        lib = ctypes.CDLL(path)
    finally:
        if private:
            shutil.rmtree(private)
    # checked on every call
    f64 = np.ctypeslib.ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS")
    i64 = np.ctypeslib.ndpointer(np.int64, ndim=1, flags="C_CONTIGUOUS")
    lib.gbm_path.argtypes = [f64, f64, ctypes.c_long, ctypes.c_double, ctypes.c_double]
    lib.asym_vol_path.argtypes = [f64, f64, ctypes.c_long] + [ctypes.c_double] * 6
    lib.heston_path.argtypes = [f64, f64, f64, ctypes.c_long] + [ctypes.c_double] * 9
    lib.markov_path.argtypes = [f64, f64, f64, ctypes.c_long] + [ctypes.c_double] * 7 + [ctypes.c_long]
    lib.gbm_path.restype = lib.asym_vol_path.restype = lib.markov_path.restype = lib.block_cumsum.restype = None
    lib.heston_path.restype = lib.episode_scan.restype = ctypes.c_long
    lib.episode_scan.argtypes = [f64, ctypes.c_long, ctypes.c_double, i64, i64, i64, f64]
    lib.median_tau.argtypes = [f64, ctypes.c_long, ctypes.c_double, f64]
    lib.median_tau.restype = ctypes.c_double
    lib.block_cumsum.argtypes = [f64, i64, ctypes.c_long, ctypes.c_long, ctypes.c_double, f64, f64]
    return lib
