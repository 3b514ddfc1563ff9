"""eegnn benchmark: one workload, one process, BLAS pinned to one thread.

    python3 bench/run.py --workload cli-eegnn20 --seed 0 --seconds 55 --trace 0

Run it from the root of a checkout that holds `src/eegnn`, alone on the
machine. With `--trace 0` it reports the end-to-end metrics; with
`--trace 1` it wraps each module's public functions and reports the
per-layer metrics. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the line before it is a report with
sample counts, the environment and any failed check. A failed check makes
`correct` false and the exit code 1. See bench/README.md.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="eegnn benchmark, one workload per run")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "eegnn" / "__init__.py").is_file():
        print(f"error: no eegnn sources under {SRC}", file=sys.stderr)
        return 2
    # pinned before numpy is first imported in this process
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import runner  # imports numpy and eegnn
    return runner.run(args)


if __name__ == "__main__":
    sys.exit(main())
