"""Tests of the benchmark itself: seeded inputs, metric names, output checks
and span accounting.

    python3 -m pytest perfbench/tests -q
"""
import copy
import hashlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
REPO_ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(REPO_ROOT / "src")]

import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from dcgforge import bench, dynamics  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def fingerprint(workload, pool):
    """Digest of every input value a pool hands the program."""
    digest = hashlib.sha256()
    for op in pool:
        digest.update(f"{op.key}|{op.mode}".encode())
        if workload in ("cat_mixed", "cat_pure"):
            cfg, a_value, epsilon = op.inputs
            digest.update(cfg.canonical_text().encode())
            digest.update(bench.bath_density(cfg).tobytes())
            digest.update(repr((a_value, epsilon)).encode())
        elif workload == "epg_scan":
            model, gate, n_system, tau = op.inputs
            digest.update(model.hamiltonian().tobytes())
            digest.update(repr((gate, n_system, tau)).encode())
        else:
            digest.update(repr(op.inputs).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_generates_identical_inputs(workload):
    first = fingerprint(workload, workloads.make_pool(workload, 5))
    assert fingerprint(workload, workloads.make_pool(workload, 5)) == first
    assert fingerprint(workload, workloads.make_pool(workload, 6)) != first


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_pool_has_both_modes_in_turn(workload):
    pool = workloads.make_pool(workload, 0)
    assert [op.mode for op in pool] == ["primitive", "dcg"] * (len(pool) // 2)
    assert len({op.key for op in pool}) == len(pool)


def test_metric_names_and_units():
    declared = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert e2e == harness.END_TO_END_UNITS
    printed = {f"{name}.{mode}": unit for name, unit in spans.UNITS.items()
               for mode in workloads.MODES}
    printed["trace.overhead_frac"] = "ratio"
    assert layer == printed
    for name, unit in {**e2e, **layer}.items():
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit
    declared_workloads = [w["name"] for w in declared["workloads"]]
    names = declared_workloads + list(e2e) + list(layer)
    assert len(names) == len(set(names))
    assert set(declared_workloads) <= set(workloads.WORKLOADS)


def run_with_references(workload, references, count):
    pool = workloads.make_pool(workload, 0)
    prep = harness.Prepared(workload, pool,
                            workloads.Checker(workload, references), 2)
    return [s.failure is not None
            for s in harness.closed_loop(prep, count=count)]


@pytest.mark.parametrize("workload,field,count", [
    ("epg_scan", "epg_exact", 4),
    ("compile_wire", "wire_sha256", 4),
    ("cat_mixed", "loss", 2),
])
def test_perturbed_reference_counts_as_failed_op(workload, field, count):
    references = workloads.load_references(workload, 0)
    assert run_with_references(workload, references, count) == [False] * count
    pool = workloads.make_pool(workload, 0)
    wrong = copy.deepcopy(references)
    entry = wrong[pool[1].key]
    if field == "wire_sha256":
        entry[field] = "0" * 64
    else:
        entry[field] *= 1 + 1e-4
    expected = [False] * count
    expected[1] = True
    assert run_with_references(workload, wrong, count) == expected


def test_timings_are_scaled_to_the_reference_speed():
    prep = harness.Prepared("compile_wire",
                            workloads.make_pool("compile_wire", 0),
                            workloads.Checker("compile_wire", None), 2)
    chunks_done = []
    samples = harness.closed_loop(
        prep, count=6, after_chunk=lambda: chunks_done.append(True))
    assert len(chunks_done) == 3
    # a machine running at half the reference speed in the second chunk
    nominal = harness.Reference.NOMINAL_S
    metrics = harness.end_to_end(samples, 2, 0.25,
                                 [nominal, 2 * nominal, nominal])
    seconds = [s.seconds for s in samples]
    seconds[2:4] = [t / 2 for t in seconds[2:4]]
    assert metrics["ops_per_s"] == (pytest.approx(6 / sum(seconds)), "1/s")
    assert metrics["dcg_op_s_p50"] == (
        pytest.approx(sorted(seconds[1::2])[1]), "s")
    assert metrics["primitive_op_s_p50"] == (
        pytest.approx(sorted(seconds[0::2])[1]), "s")
    assert metrics["setup_s"] == (0.25, "s")


def test_layer_self_times_sum_to_op_span():
    prep = harness.Prepared("epg_scan", workloads.make_pool("epg_scan", 0),
                            workloads.Checker("epg_scan", None), 2)
    original = dynamics.propagate
    tracer = spans.Tracer()
    tracer.install()
    try:
        samples = harness.closed_loop(prep, count=6, tracer=tracer)
    finally:
        tracer.uninstall()
    assert dynamics.propagate is original
    assert not any(s.failure for s in samples)
    assert len(tracer.roots) == 6
    for k in range(6):
        op_spans = tracer.op_spans(k)
        root = op_spans[0]
        assert root[0] == spans.ROOT and root[1] == -1
        assert len(op_spans) > 10
        selfs = spans.self_times(op_spans)
        assert min(selfs) >= -1e-9
        assert sum(selfs) == pytest.approx(root[3] - root[2], abs=1e-9)
        metrics = spans.op_metrics(op_spans, tracer.counts[k])
        layer_self = sum(metrics[f"{layer}.self_s"] for layer in (
            "compiler", "graphs", "pulses", "operators", "dynamics", "bench",
            "op"))
        assert layer_self == pytest.approx(root[3] - root[2], abs=1e-9)
        assert metrics["dynamics.joint_dim"] == 2 ** (2 + 2)
        assert metrics["dynamics.windows"] >= metrics[
            "dynamics.distinct_windows"] > 0


def test_exits_without_result_when_the_program_is_absent(tmp_path):
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload",
         "compile_wire", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
