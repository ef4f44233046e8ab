"""Smoke test of the benchmark itself, at a tiny scale (about a minute):

    python3 benchmark/smoke.py

For every workload in BENCHMARK.json it runs both modes and checks that the
result names exactly the metrics BENCHMARK.json declares for that mode, with
their units, and that the runs pass their checks. Then it forces failures (a
damaged table, a missing table, a damaged replay table, a command that exits
non-zero) and checks that each is counted as failed, not dropped.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import replace

import run

SEED = 1
SECONDS = 1.0


def main() -> int:
    run._require_checkout()
    from workloads import TINY

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    failures: list[str] = []

    def check(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    check(sorted(w["name"] for w in spec["workloads"]) == sorted(TINY), "workloads match BENCHMARK.json")
    for name, workload in TINY.items():
        for traced, key in ((False, "end_to_end"), (True, "per_layer")):
            result, _ = run.run(workload, SEED, SECONDS, traced)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            label = f"{name} --trace {int(traced)}"
            check(got == want, f"{label}: every {key} metric, with its unit")
            check(all(math.isfinite(m["value"]) for m in result["metrics"].values()),
                  f"{label}: finite values")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= run.MIN_RUNS,
                  f"{label}: correct, {result['attempted']} attempted, {result['failed']} failed")

    def damage(stem: str, n_bad: int, delete: bool = False):
        def fault(n: int, out) -> None:
            if n == n_bad:
                path = out / f"{stem}.csv"
                if delete:
                    path.unlink()
                else:
                    path.write_text(path.read_text().replace("1", "2"))
        return fault

    nulls = TINY["short_horizon_nulls"]
    for label, workload, traced, fault in (
        ("damaged table on run 2", nulls, False, damage("nulls", 2)),
        ("missing table on run 1", TINY["datafree_runall"], False, damage("headline", 1, delete=True)),
        ("damaged replay table", nulls, True, damage("nulls", 2)),
    ):
        result, _ = run.run(workload, SEED, SECONDS, traced, fault=fault)
        check(not result["correct"] and result["failed"] == 1 and result["attempted"] >= run.MIN_RUNS,
              f"forced failure, {label}: {result['failed']} of {result['attempted']} failed")

    bad = replace(nulls, argv=tuple(a.replace("heston", "no_such_model") for a in nulls.argv))
    result, _ = run.run(bad, SEED, SECONDS, False)
    check(not result["correct"] and result["failed"] == result["attempted"] >= run.MIN_RUNS,
          f"forced failure, non-zero exit: {result['failed']} of {result['attempted']} failed")

    print(f"{len(failures)} smoke check(s) failed" if failures else "smoke test passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
