"""Record each workload's CSV sha256 at seeds 0..N-1 into golden.json.

    python3 perfbench/record_golden.py [N]   (default N = 10)

Run it on the commit whose CSV bytes later commits should reproduce; the
traced benchmark then reports ``harness.csv_identical`` = 1 when every run
at a recorded seed wrote exactly these bytes.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
from workloads import WORKLOADS


def main(argv: list[str]) -> int:
    n_seeds = int(argv[0]) if argv else 10
    golden = {}
    for name, workload in WORKLOADS.items():
        golden[name] = {}
        for seed in range(n_seeds):
            work_dir = run.RUNS_DIR / "golden" / name / f"seed{seed}"
            shutil.rmtree(work_dir, ignore_errors=True)
            sample = run.run_child(workload, seed, False, work_dir, 600.0)
            if sample["errors"]:
                print(f"{name} seed {seed}: {sample['errors']}",
                      file=sys.stderr)
                return 1
            golden[name][str(seed)] = sample["csv_sha256"]
            print(name, seed, sample["csv_sha256"], flush=True)
    run.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True)
                               + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
