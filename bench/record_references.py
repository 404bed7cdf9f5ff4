"""Record the reference outputs that run.py checks solves against.

    python3 bench/record_references.py

Covers seeds ``s`` to ``s + SEEDS_AFTER`` for ``s`` the workload's default
seed and ``workloads.HOLDOUT_SEED``, at full size.  A run whose instances
all lie in these ranges checks every solve against its reference.
Re-record only when a change is meant to alter results.
"""

import json
import subprocess
import sys
from pathlib import Path

from run import BENCH, ROOT, SRC, cap_blas_threads

SEEDS_AFTER = 5


def main() -> int:
    cap_blas_threads()
    sys.path.insert(0, str(SRC))
    import workloads

    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                            capture_output=True, text=True, timeout=30).stdout.strip()
    record = {"commit": commit}
    for wl in workloads.WORKLOADS.values():
        seeds = [first + i for first in (wl.default_seed, workloads.HOLDOUT_SEED)
                 for i in range(SEEDS_AFTER + 1)]
        record[wl.name] = {}
        for seed in seeds:
            inst = wl.setup(seed, workloads.FULL)
            out = wl.solve(inst)
            _, failures = wl.check(inst, out, None)
            if failures:
                print(f"{wl.name} seed {seed} fails its checks: {failures[:3]}",
                      file=sys.stderr)
                return 1
            record[wl.name][str(seed)] = wl.summary(out)
            print(f"{wl.name} seed {seed} recorded", flush=True)
    (BENCH / "references.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
