"""Run one dcg-forge benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cat_mixed --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the package is imported from its ``src/``
directory.  The last line of standard output is the result, a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is the run record (environment, op counts by mode, failures), which is
also written under ``perfbench/out/``.  With ``--trace 0`` the metrics are
the end-to-end ones, with ``--trace 1`` the per-layer ones.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
# One BLAS thread never exceeds nproc, on any machine.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
PROBE_TIMEOUT_S = 120


def _parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh process to its first timed op."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--setup-probe"],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    # CLOCK_MONOTONIC is system-wide, so the child's reading compares
    return float(proc.stdout.split()[-1]) - start


def main(argv=None) -> int:
    if not (REPO_ROOT / "src" / "dcgforge" / "__init__.py").is_file():
        print(f"perfbench: no src/dcgforge under {REPO_ROOT}; run it from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(REPO_ROOT / "src"))
    import harness
    import workloads

    args = _parse_args(argv, workloads.WORKLOADS)
    if args.setup_probe:
        harness.prepare(args.workload, args.seed)
        print(repr(time.monotonic()))
        return 0
    result, record = harness.run(
        args.workload, args.seed, args.seconds, bool(args.trace),
        lambda: _probe_setup(args.workload, args.seed), BLAS_THREADS)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
