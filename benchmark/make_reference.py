"""Record the reference table digests that benchmark runs are checked against.

    python3 benchmark/make_reference.py FIRST_SEED LAST_SEED

Runs each workload's command once per seed, checks its tables against the
oracles, and writes their digests to reference.json. Rerun it, at a commit
whose tables are known to be right, whenever a workload's definition in
workloads.py changes; until then, digests stored for the old definition are
ignored.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    first, last = map(int, sys.argv[1:3])
    run._require_checkout()
    from workloads import WORKLOADS

    refs = {}
    for name, workload in WORKLOADS.items():
        digests = {}
        for seed in range(first, last + 1):
            inv = run.Invocation(workload, seed)
            try:
                ok = inv.cli_run(0) is not None
            finally:
                shutil.rmtree(inv.dir, ignore_errors=True)
            if not ok:
                print(f"{name} seed {seed}: run failed its checks; no reference written", file=sys.stderr)
                return 1
            digests[str(seed)] = inv.digest
            print(name, seed, inv.digest, flush=True)
        refs[name] = {"workload": run.workload_key(workload), "digests": digests}
    run.REFERENCE.write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
