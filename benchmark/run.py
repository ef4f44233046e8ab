"""regimelab benchmark: time the CLI end to end, or replay it traced, per layer.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports and runs the checkout's
`src/regimelab` and the oracles in `tests/oracles.py`, and refuses to run
without them.

--trace 0 runs the workload's CLI command as a fresh process again and again
for about S seconds (closed loop, one run at a time). Before each run it
times a fresh `regimelab --version`. It reports medians of wall time, CPU
time and peak RSS of the command (from os.wait4 on that child) and of the
`--version` time, as `setup_s`.

--trace 1 runs the command once untraced, then replays it in this process
for about S seconds through the library's public functions with one span
per call (see replay.py), and reports the per-layer medians.

Every run's tables are checked: exit code, table set and headers, and a
digest that must equal the one stored in reference.json for the workload and
seed (or, for a seed with no stored digest, the digest of the invocation's
first run). The first run's tables are also checked against the oracles, and
a traced replay must write the same bytes as the CLI and reproduce
run_null_study's rows exactly. A run that fails any check counts as failed.

The last line of standard output is the result JSON; the line before it is
unscored context: environment, input SHA-256s, per-run samples.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH_DIR / "reference.json"

CHILD_TIMEOUT_S = 120.0
MIN_RUNS = 3  # per invocation, even when one run outlasts --seconds
MIN_SETUP_SAMPLES = 5


def _require_checkout() -> None:
    missing = [p for p in (SRC / "regimelab" / "cli.py", ROOT / "tests" / "oracles.py") if not p.is_file()]
    if missing:
        sys.exit(f"benchmark: not a regimelab checkout, missing {', '.join(map(str, missing))}")
    sys.path[:0] = [str(SRC), str(ROOT / "tests"), str(BENCH_DIR)]


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int


def child_env() -> dict[str, str]:
    """The parent's environment, isolated: the checkout's src only, no data-dir default."""
    env = {k: v for k, v in os.environ.items() if k != "REGIMELAB_DATA_DIR"}
    env["PYTHONPATH"] = str(SRC)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_child(args: list[str], env: dict[str, str], log: Path | None) -> Child:
    """Run `python -m regimelab.cli <args>`; rusage from os.wait4 on that child alone."""
    with open(log if log else os.devnull, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "regimelab.cli", *args],
                                cwd=ROOT, env=env, stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode)


class Invocation:
    """One benchmark invocation: inputs, reference digest, and the checks on each run."""

    def __init__(self, workload, seed: int, reference: str | None = None, fault=None) -> None:
        import checks
        import oracles
        from workloads import generate_inputs

        self.workload, self.seed, self.fault = workload, seed, fault
        self.dir = WORK / f"{workload.name}-{seed}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            self.inputs = generate_inputs(workload, seed, self.dir / "data")
            self.triples = (
                oracles.brute_force_episodes(self.inputs.closes, checks.DELTA, allow_censored=True)
                if self.inputs.closes is not None else None
            )
        except BaseException:
            shutil.rmtree(self.dir, ignore_errors=True)
            raise
        self.reference = self.digest = reference
        self.oracles_checked = False
        self.env = child_env()
        self.attempted = self.failed = 0

    def argv(self, out: Path) -> list[str]:
        return [*self.workload.argv, "--data-dir", str(self.inputs.data_dir),
                "--out", str(out), "--seed", str(self.seed)]

    def verify(self, out: Path, label: str) -> bool:
        """Check one run's tables; print what is wrong and count the run."""
        import checks
        import oracles

        self.attempted += 1
        if self.fault:
            self.fault(self.attempted, out)
        problems = checks.table_problems(out, self.workload.tables)
        if not problems:
            digest = checks.table_digest(out, self.workload.tables)
            if self.digest is None:
                self.digest = digest
            elif digest != self.digest:
                problems.append(f"table digest {digest} != reference {self.digest}")
        if not problems and not self.oracles_checked:
            self.oracles_checked = True
            if "headline" in self.workload.tables:
                problems += checks.headline_problems(oracles, out)
            if "episodes" in self.workload.tables:
                problems += checks.episode_problems(
                    oracles, out, self.inputs.dates, self.inputs.closes, self.triples)
        for p in problems:
            print(f"{label}: {p}", file=sys.stderr)
        self.failed += bool(problems)
        return not problems

    def cli_run(self, k: int) -> Child | None:
        """One untraced CLI run; its measurements, or None if it failed."""
        out = self.dir / f"out{k}"
        log = self.dir / f"log{k}.txt"
        child = run_child(self.argv(out), self.env, log)
        ok = child.exit_code == 0
        if not ok:
            self.attempted += 1
            self.failed += 1
            tail = log.read_text(errors="replace")[-2000:]
            print(f"run {k}: exit code {child.exit_code}\n{tail}", file=sys.stderr)
        else:
            ok = self.verify(out, f"run {k}")
        shutil.rmtree(out, ignore_errors=True)
        return child if ok else None

    def context(self) -> dict:
        import numpy

        return {
            "workload": self.workload.name,
            "seed": self.seed,
            "argv": list(self.workload.argv),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "numba": importlib.util.find_spec("numba") is not None,
            "src_lines": sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py")),
            "inputs_sha256": self.inputs.sha256,
            "input_episodes": None if self.triples is None else len(self.triples),
            "input_censored": None if self.triples is None else sum(r is None for _, _, r in self.triples),
            "reference_digest": "stored" if self.reference else "none stored; runs compared to the first",
            "table_digest": self.digest,
        }


def setup_probe(env: dict[str, str]) -> float:
    child = run_child(["--version"], env, None)
    if child.exit_code != 0:
        raise RuntimeError(f"regimelab --version exited with {child.exit_code}")
    return child.wall_s


def _median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0  # no successful run: the result is not correct


def measure(inv: Invocation, seconds: float) -> tuple[dict, dict]:
    """Closed loop of fresh CLI processes for about `seconds`."""
    setup_probe(inv.env)  # warm-up: byte-compile, fill the page cache
    samples: dict[str, list[float]] = {"wall_s": [], "cpu_s": [], "peak_rss_mb": [], "setup_s": []}
    t0 = time.perf_counter()
    k = 0
    while True:
        samples["setup_s"].append(setup_probe(inv.env))
        child = inv.cli_run(k)
        k += 1
        if child:
            for name in ("wall_s", "cpu_s", "peak_rss_mb"):
                samples[name].append(getattr(child, name))
        elapsed = time.perf_counter() - t0
        if k >= MIN_RUNS and elapsed * (k + 1) / k > seconds:
            break
    while len(samples["setup_s"]) < MIN_SETUP_SAMPLES:
        samples["setup_s"].append(setup_probe(inv.env))
    units = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
    metrics = {n: {"value": _median(v), "unit": units[n]} for n, v in samples.items()}
    return metrics, samples


def _replay(inv: Invocation, k: int, spans: list[dict]) -> dict[str, float] | None:
    """One traced replay; its per-layer metrics, or None if it failed its checks."""
    import replay

    out = inv.dir / f"replay{k}"
    run_id = f"{inv.workload.name}-{inv.seed}-replay{k}"
    try:
        rp = replay.replay(inv.argv(out), run_id)
    except Exception:
        traceback.print_exc()
        inv.attempted += 1
        inv.failed += 1
        return None
    spans += rp.tracer.records()
    ok = inv.verify(out, run_id)
    shutil.rmtree(out, ignore_errors=True)
    if ok and k == 0:
        problems = replay.null_fidelity_problems(rp)
        for p in problems:
            print(f"{run_id}: {p}", file=sys.stderr)
        inv.failed += bool(problems)
        ok = not problems
    return replay.layer_metrics(rp.tracer) if ok else None


def trace(inv: Invocation, seconds: float) -> tuple[dict, dict]:
    """Alternate untraced CLI runs and traced replays for about `seconds`.

    Each round times `--version`, the CLI, and a replay back to back, so the
    tracing overhead (replay cli.main.s minus the CLI's wall time after
    start-up) compares runs made under the same machine load.
    """
    import replay

    setup_probe(inv.env)
    per_replay: list[dict[str, float]] = []
    overhead: list[float] = []
    spans: list[dict] = []
    t0 = time.perf_counter()
    k = 0
    while True:
        setup = setup_probe(inv.env)
        child = inv.cli_run(k)
        m = _replay(inv, k, spans)
        k += 1
        if m:
            per_replay.append(m)
            if child:
                overhead.append(m["cli.main.s"] - (child.wall_s - setup))
        elapsed = time.perf_counter() - t0
        if k >= MIN_RUNS and elapsed * (k + 1) / k > seconds:
            break

    trace_dir = WORK / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    with open(trace_dir / f"{inv.workload.name}-{inv.seed}.jsonl", "w") as fh:
        fh.writelines(json.dumps(s) + "\n" for s in spans)
    values = {name: _median([m[name] for m in per_replay]) for name in replay.PER_LAYER
              if name != replay.OVERHEAD_METRIC}
    values[replay.OVERHEAD_METRIC] = _median(overhead)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in replay.PER_LAYER.items()}
    samples = {"replays": len(per_replay), "cli.main.s": [m["cli.main.s"] for m in per_replay],
               "trace.overhead_s": overhead}
    return metrics, samples


def workload_key(workload) -> dict:
    """What reference.json stores to say which workload definition its digests are for."""
    return json.loads(json.dumps(asdict(workload)))


def stored_digest(workload, seed: int) -> str | None:
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    entry = refs.get(workload.name)
    if entry is None or entry["workload"] != workload_key(workload):
        return None
    return entry["digests"].get(str(seed))


def run(workload, seed: int, seconds: float, traced: bool, fault=None) -> tuple[dict, dict]:
    """Measure one workload; returns (result, context). `fault(n, out_dir)` may damage run n."""
    inv = Invocation(workload, seed, stored_digest(workload, seed), fault)
    try:
        metrics, samples = (trace if traced else measure)(inv, seconds)
    finally:
        shutil.rmtree(inv.dir, ignore_errors=True)
    result = {
        "correct": inv.failed == 0 and inv.attempted > 0,
        "attempted": inv.attempted,
        "failed": inv.failed,
        "metrics": metrics,
    }
    return result, {**inv.context(), "samples": samples}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _require_checkout()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    result, context = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
