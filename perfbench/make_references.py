"""Record the current dense route's outputs as the benchmark's references.

    python3 perfbench/make_references.py

Writes ``perfbench/references.json``: for every op of every shipped seed,
the values ``workloads.reference_values`` names (losses, errors per gate,
wire-text digests).  ``cat_mixed`` inputs do not depend on the seed, so its
references are stored once, under ``"*"``.  Run it only when the program's
outputs are meant to change, and say so where the change is described.
"""
from __future__ import annotations

import json
import multiprocessing
import os
import sys

from run import BLAS_THREAD_VARS, BLAS_THREADS, REPO_ROOT

SEEDS = tuple(range(16))
JOBS = 2


def _record(task: tuple[str, int]) -> tuple[str, str, dict]:
    import workloads
    workload, seed = task
    values = {}
    for op in workloads.make_pool(workload, seed):
        out = workloads.run_op(workload, op)
        values[op.key] = workloads.reference_values(workload, out)
    return workload, "*" if workload == "cat_mixed" else str(seed), values


def main() -> int:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(REPO_ROOT / "src"))
    import workloads
    tasks = [("cat_mixed", 0)] + [(w, seed) for w in workloads.WORKLOADS
                                  if w != "cat_mixed" for seed in SEEDS]
    table = {w: {} for w in workloads.WORKLOADS}
    with multiprocessing.get_context("spawn").Pool(JOBS) as pool:
        for workload, key, values in pool.imap_unordered(_record, tasks):
            table[workload][key] = values
            print(f"{workload} {key}: {len(values)} ops", flush=True)
    lines = []
    for workload in workloads.WORKLOADS:
        seeds = sorted(table[workload].items(),
                       key=lambda kv: (kv[0] != "*", kv[0].zfill(8)))
        body = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}"
                          for k, v in seeds)
        lines.append(f"{json.dumps(workload)}: {{\n{body}\n}}")
    workloads.REFERENCES_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
