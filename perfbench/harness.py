"""The closed measurement loop, the metrics it yields, and the run record.

One client drives the package in one process: each op starts when the
previous one has returned.  Output checks and the reference computation run
between ops, outside the timed region, so ``ops_per_s`` is ops per second of
time spent inside ops.
"""
from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable
from time import perf_counter

import numpy as np
import scipy

import spans
import workloads

REPO_ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = Path(__file__).resolve().parent / "out"

# setup_s is the median over this many fresh processes
SETUP_PROBES = 3

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "dcg_op_s_p50": "s",
    "primitive_op_s_p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_rate": "ratio",
}


def _random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return a + a.conj().T


def _evolve(h: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(h)
    u = (v * np.exp(-1j * w)) @ v.conj().T
    return u @ u


class Reference:
    """A fixed computation of the benchmark's own, timed between chunks.

    A shared host runs 20-50% faster or slower for minutes at a time as
    other tenants load it, which moves every timing of a run alike.  The
    reference does the kinds of work the ops do (small ``eigh`` and products,
    a Python loop, an ``eigh`` and products at dimension 256) and calls no
    code of the package, so its time follows the machine's speed while the
    chunk before it ran and nothing else.
    """

    # About the reference's median seconds on the baseline machine (see
    # README).  Every reported timing is relative to it: changing it
    # rescales them all.
    NOMINAL_S = 0.08

    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = _random_hermitian(24, rng)
        self._big = _random_hermitian(256, rng)
        self._work()  # lets BLAS finish its lazy set-up

    def _work(self) -> None:
        for _ in range(120):
            _evolve(self._small)
        acc, table = 0, {}
        for i in range(200_000):
            table[i & 255] = acc
            acc = (acc * 31 + i) % 1_000_003
        _evolve(self._big)

    def measure(self) -> float:
        start = perf_counter()
        self._work()
        return perf_counter() - start


@dataclass(frozen=True)
class Sample:
    mode: str
    seconds: float
    failure: str | None


@dataclass
class Prepared:
    workload: str
    pool: list
    checker: workloads.Checker
    chunk: int


def prepare(workload: str, seed: int) -> Prepared:
    """Everything before the first timed op: inputs, references, warm-up.

    The warm-up op lets numpy, scipy and BLAS finish their lazy set-up; a
    failure there shows again, and is counted, in the timed loop.
    """
    pool = workloads.make_pool(workload, seed)
    checker = workloads.Checker(workload,
                                workloads.load_references(workload, seed))
    try:
        workloads.run_op(workload, pool[0])
    except Exception:
        pass
    return Prepared(workload, pool, checker,
                    workloads.chunk_size(workload, pool))


def closed_loop(prep: Prepared, *, seconds: float | None = None,
                count: int | None = None,
                tracer: spans.Tracer | None = None,
                after_chunk: Callable[[], None] | None = None
                ) -> list[Sample]:
    """Run ops from the start of the pool, cycling through it.

    Stops after ``count`` ops, or else at the first whole number of chunks
    (which hold as many ops of each mode) once the ops have taken
    ``seconds`` in total.  ``after_chunk`` runs after every chunk, outside
    the timed region.
    """
    samples: list[Sample] = []
    busy = 0.0
    while True:
        if count is not None:
            if len(samples) >= count:
                break
        elif busy >= seconds and len(samples) % prep.chunk == 0:
            break
        op = prep.pool[len(samples) % len(prep.pool)]
        failure = out = None
        start = perf_counter()
        try:
            if tracer is None:
                out = workloads.run_op(prep.workload, op)
            else:
                with tracer.op(op.mode):
                    out = workloads.run_op(prep.workload, op)
        except Exception as exc:
            failure = f"{op.key}: raised {type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
        busy += elapsed
        if failure is None:
            try:
                reason = prep.checker(op, out)
            except Exception as exc:
                reason = f"check raised {type(exc).__name__}: {exc}"
            if reason is not None:
                failure = f"{op.key}: {reason}"
        samples.append(Sample(op.mode, elapsed, failure))
        if after_chunk is not None and len(samples) % prep.chunk == 0:
            after_chunk()
    return samples


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def chunk_op_seconds(samples: list[Sample], chunk: int) -> dict:
    """Per mode, the mean seconds of that mode's ops in each chunk.

    Chunks all hold the same work.  Within a mode, ``epg_scan`` and
    ``compile_wire`` ops differ up to tenfold in size, so a median over
    single ops would fall in a gap between size clusters and jump; a chunk's
    mean covers a fixed mix.
    """
    chunks = [samples[i:i + chunk] for i in range(0, len(samples), chunk)]
    return {mode: [statistics.fmean(s.seconds for s in c if s.mode == mode)
                   for c in chunks]
            for mode in workloads.MODES}


def at_nominal(seconds: float, reference_s: float) -> float:
    """Seconds taken while the reference took ``reference_s``, scaled to a
    machine that runs the reference in ``Reference.NOMINAL_S``."""
    return seconds * Reference.NOMINAL_S / reference_s


def at_reference_speed(samples: list[Sample], chunk: int,
                       reference_s: list[float]) -> list[Sample]:
    """The samples with each op's seconds at nominal speed, by the reference
    time measured right after the op's chunk."""
    return [replace(s, seconds=at_nominal(s.seconds, reference_s[i // chunk]))
            for i, s in enumerate(samples)]


def op_timings(samples: list[Sample], chunk: int) -> dict[str, float]:
    """The op timings of a run.

    ``ops_per_s`` is every op of the run over the seconds they took.  A
    shared machine switches between slower and faster stretches lasting
    tens of seconds; the whole-run rate weighs them by their length, where a
    median over chunks would jump to whichever stretch held more chunks.
    The per-mode timings are medians over the chunks' mean op seconds.
    """
    per_chunk = chunk_op_seconds(samples, chunk)
    return {
        "ops_per_s": len(samples) / sum(s.seconds for s in samples),
        "dcg_op_s_p50": statistics.median(per_chunk["dcg"]),
        "primitive_op_s_p50": statistics.median(per_chunk["primitive"]),
    }


def end_to_end(samples: list[Sample], chunk: int, setup_s: float,
               reference_s: list[float]) -> dict:
    """The end-to-end metrics of one untraced run.

    The op timings are taken at nominal speed; ``setup_s`` comes from
    other processes and is already at nominal speed.
    """
    failed = sum(1 for s in samples if s.failure)
    values = {
        **op_timings(at_reference_speed(samples, chunk, reference_s), chunk),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "ok_rate": 1 - failed / len(samples),
    }
    return {name: (values[name], unit)
            for name, unit in END_TO_END_UNITS.items()}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


def _git_commit() -> str | None:
    """The checkout's commit, or None outside a git work tree."""
    if not (REPO_ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(REPO_ROOT), "rev-parse",
                               "HEAD"], capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def _source_digest() -> str:
    """sha256 over the package sources, which names the code measured even
    where there is no git metadata."""
    digest = hashlib.sha256()
    for path in sorted((REPO_ROOT / "src" / "dcgforge").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(workload: str, seed: int, blas_threads: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas": _blas(),
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


def _op_counts(samples: list[Sample]) -> dict[str, int]:
    return {mode: sum(1 for s in samples if s.mode == mode)
            for mode in workloads.MODES}


def run(workload: str, seed: int, seconds: float, trace: bool,
        probe_setup: Callable[[], float],
        blas_threads: int) -> tuple[dict, dict]:
    """Measure one workload.  Returns the result line and the full record.

    ``probe_setup`` sets the workload up in a fresh process and returns the
    seconds that took; the reference is measured before and after each
    probe, as after each chunk.

    The traced run first runs untraced for half the time, then repeats the
    same ops traced; the ratio of the two gives the tracing overhead.
    """
    reference = Reference()
    setup_raw, setup_s = [], []
    for _ in range(SETUP_PROBES):
        before = reference.measure()
        setup_raw.append(probe_setup())
        setup_s.append(at_nominal(setup_raw[-1],
                                  (before + reference.measure()) / 2))
    OUT_DIR.mkdir(exist_ok=True)
    prep = prepare(workload, seed)
    record = {"environment": environment(workload, seed, blas_threads),
              "references_shipped": prep.checker.references is not None,
              "setup_samples_s": setup_s, "setup_raw_s": setup_raw}
    if not trace:
        reference_s: list[float] = []
        samples = closed_loop(
            prep, seconds=seconds,
            after_chunk=lambda: reference_s.append(reference.measure()))
        metrics = end_to_end(samples, prep.chunk, statistics.median(setup_s),
                             reference_s)
        record.update(raw_timings=op_timings(samples, prep.chunk),
                      reference_s=reference_s,
                      chunk_op_s=chunk_op_seconds(samples, prep.chunk))
    else:
        plain = closed_loop(prep, seconds=seconds / 2)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = closed_loop(prep, count=len(plain), tracer=tracer)
        finally:
            tracer.uninstall()
        samples = plain + traced
        metrics = spans.layer_metrics(tracer)
        metrics["trace.overhead_frac"] = (
            1 - sum(s.seconds for s in plain)
            / sum(s.seconds for s in traced), "ratio")
        spans_path = OUT_DIR / f"{workload}-seed{seed}-spans.jsonl"
        tracer.write(spans_path)
        record["spans_file"] = str(spans_path.relative_to(REPO_ROOT))
    failures = [s.failure for s in samples if s.failure]
    result = {
        "correct": not failures,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record.update(op_counts=_op_counts(samples),
                  chunks=len(samples) // prep.chunk, failures=failures[:20])
    with open(OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json",
              "w") as fh:
        json.dump({**record, "result": result}, fh, indent=1)
    return result, record
