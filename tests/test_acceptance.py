"""Acceptance gate: the eight headline properties of the package.

Each criterion is one test that prints a PASS/FAIL line with its runtime
(visible with ``pytest -s``; the test outcome itself mirrors the verdict).
Tolerances and runtime budgets are pinned here and should not be loosened
without a recorded reason.
"""
import io
import time

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from dcgforge.bench import BenchConfig, log_range, run_point, sweep
from dcgforge.compiler import (Gate, compile_circuit, compile_dcg,
                               compile_noop, decompose_gate)
from dcgforge.dynamics import (epg, first_order_phase, propagate,
                               random_error_model)
from dcgforge.graphs import (cayley_graph, dd_group_z2z2, decoupling_residual,
                             modify_graph_for_gate)
from dcgforge.operators import (expm_unitary, mod_bath, pauli_bath_components,
                                pauli_string_matrix, pauli_string_weight,
                                spectral_norm)
from dcgforge.pulses import (matched_gate_sequence, matched_identity_sequence,
                             x_on, zz_on)


def _report(num, desc, ok, dt, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"[{status}] criterion {num}: {desc} ({dt:.1f}s){suffix}")
    assert ok, f"criterion {num} failed: {detail}"


def _random_bath_op(rng, d_b=2):
    b = rng.normal(size=(d_b, d_b)) + 1j * rng.normal(size=(d_b, d_b))
    b = 0.5 * (b + b.conj().T)
    return b / spectral_norm(b)


def test_criterion_1_decoupling_condition():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    rep = dd_group_z2z2(3)
    worst_single = 0.0
    for qubit in range(3):
        for axis in "xyz":
            string = "".join(axis if k == qubit else "i" for k in range(3))
            err = np.kron(pauli_string_matrix(string), _random_bath_op(rng))
            worst_single = max(worst_single, decoupling_residual(rep, err))
    worst_pair = 0.0
    for _ in range(20):
        i, j = rng.choice(3, size=2, replace=False)
        a, b = rng.choice(list("xyz"), size=2, replace=False)
        string = "".join(a if k == i else b if k == j else "i"
                         for k in range(3))
        err = np.kron(pauli_string_matrix(string), _random_bath_op(rng))
        worst_pair = max(worst_pair, decoupling_residual(rep, err))
    least_homog = np.inf
    for axis in "xyz":
        string = axis + axis + "i"
        err = np.kron(pauli_string_matrix(string), _random_bath_op(rng))
        least_homog = min(least_homog, decoupling_residual(rep, err))
    dt = time.perf_counter() - t0
    ok = worst_single <= 1e-12 and worst_pair <= 1e-12 \
        and least_homog >= 1.0 and dt < 1.0
    _report(1, "group sums decouple single-qubit and mixed two-qubit errors",
            ok, dt, f"single {worst_single:.1e}, pair {worst_pair:.1e}, "
            f"homogeneous {least_homog:.2f}")


def test_criterion_2_structural_constants():
    t0 = time.perf_counter()
    graph = cayley_graph(dd_group_z2z2(1))
    modified = modify_graph_for_gate(graph)
    counts = {
        "cycle edges": len(graph.edges),
        "modified vertices": len(modified.vertices),
        "modified edges": len(modified.edges),
        "noop slots": compile_noop(2, 1.0).slot_count,
        "dcg slots": compile_dcg(Gate("zz", (0, 1), 0.4), 2, 1.0).slot_count,
        "hadamard primitives": len(decompose_gate(Gate("hadamard", (0,)))),
        "cnot primitives": len(decompose_gate(Gate("cnot", (0, 1)))),
    }
    circuit = [Gate("hadamard", (0,)), Gate("cnot", (0, 1)),
               Gate("cnot", (0, 2))]
    counts["cat primitives"] = compile_circuit(
        circuit, "primitive", 3, 1.0).slot_count
    counts["cat dcg slots"] = compile_circuit(
        circuit, "dcg", 3, 1.0).slot_count
    expected = {"cycle edges": 8, "modified vertices": 5,
                "modified edges": 12, "noop slots": 8, "dcg slots": 16,
                "hadamard primitives": 2, "cnot primitives": 6,
                "cat primitives": 14, "cat dcg slots": 224}
    dt = time.perf_counter() - t0
    mismatches = {k: (counts[k], expected[k])
                  for k in expected if counts[k] != expected[k]}
    ok = not mismatches and dt < 1.0
    _report(2, "structural constants 8/16, 5/12, 2/6, 14 -> 224", ok, dt,
            str(mismatches) if mismatches else "all counts match")


def test_criterion_3_equal_error_pair():
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    worst_gap = 0.0
    worst_support = 0.0
    for k in range(50):
        theta = rng.uniform(0.1, 1.4)
        if k < 25:
            em = random_error_model(1, 1, rng)
            gate = matched_gate_sequence(theta, 1.0, x_on(0), 1)
            idle = matched_identity_sequence(theta, 1.0, x_on(0), 1)
            n_sys = 1
        else:
            em = random_error_model(2, 1, rng)
            gate = matched_gate_sequence(theta, 1.0, zz_on(0, 1), 2)
            idle = matched_identity_sequence(theta, 1.0, zz_on(0, 1), 2)
            n_sys = 2
        phi_gate = first_order_phase(gate, em)
        phi_idle = first_order_phase(idle, em)
        worst_gap = max(worst_gap, spectral_norm(phi_gate - phi_idle))
        comps = pauli_bath_components(mod_bath(phi_gate, n_sys), n_sys)
        for string, comp in comps.items():
            w = pauli_string_weight(string)
            mixed_pair = w == 2 and len({c for c in string if c != "i"}) == 2
            if not (w == 1 or mixed_pair or w == 0):
                worst_support = max(worst_support, spectral_norm(comp))
    dt = time.perf_counter() - t0
    ok = worst_gap <= 1e-10 and worst_support <= 1e-10 and dt < 10.0
    _report(3, "stretched gate and echo share one first-order error phase",
            ok, dt, f"pair gap {worst_gap:.1e}, "
            f"uncorrectable leakage {worst_support:.1e}")


def test_criterion_4_first_order_cancellation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(3):
        em = random_error_model(2, 1, rng)
        phi = first_order_phase(compile_noop(2, 1.0), em)
        worst = max(worst, spectral_norm(mod_bath(phi, 2)))
    for kind, qubits in (("x", (0,)), ("y", (1,)), ("zz", (0, 1))):
        for _ in range(20):
            theta = rng.uniform(0.05, np.pi - 0.05)
            em = random_error_model(2, 1, rng)
            seq = compile_dcg(Gate(kind, qubits, theta), 2, 1.0)
            phi = first_order_phase(seq, em)
            worst = max(worst, spectral_norm(mod_bath(phi, 2)))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-10 and dt < 60.0
    _report(4, "corrected idle and X/Y/ZZ gates cancel first-order "
            "decoherence", ok, dt, f"worst residual {worst:.1e}")


def test_criterion_5_quadratic_epg_scaling():
    t0 = time.perf_counter()
    rng = np.random.default_rng(105)
    em = random_error_model(2, 2, rng, coupling=0.05, bath=0.05)
    taus = [2.0 ** -k for k in range(4, 11)]
    gate = Gate("zz", (0, 1), 0.6)
    dcg_epg = [epg(compile_dcg(gate, 2, tau), em) for tau in taus]
    prim_epg = [epg(compile_circuit([gate], "primitive", 2, tau), em)
                for tau in taus]
    log_tau = np.log10(taus)
    dcg_slope = np.polyfit(log_tau, np.log10(dcg_epg), 1)[0]
    prim_slope = np.polyfit(log_tau, np.log10(prim_epg), 1)[0]
    dt = time.perf_counter() - t0
    ok = 1.8 <= dcg_slope <= 2.2 and 0.9 <= prim_slope <= 1.1 and dt < 120.0
    _report(5, "corrected EPG scales as the slot duration squared", ok, dt,
            f"dcg slope {dcg_slope:.3f}, primitive slope {prim_slope:.3f}")


def test_criterion_6_benchmark_cone_of_improvement():
    t0 = time.perf_counter()
    cfg = BenchConfig()
    records = sweep(cfg, io.StringIO())
    dt = time.perf_counter() - t0
    prim = {r.a_value: r.fidelity_loss for r in records
            if r.mode == "primitive"}
    dcg = {r.a_value: r.fidelity_loss for r in records if r.mode == "dcg"}
    improved = all(dcg[a] < prim[a] for a in prim
                   if np.log10(a) <= -2.2 + 1e-9)
    smallest = sorted(prim)[:6]
    slope = np.polyfit(np.log10([prim[a] for a in smallest]),
                       np.log10([dcg[a] for a in smallest]), 1)[0]
    ok = len(records) == 26 and improved and slope >= 1.5 and dt < 1800.0
    _report(6, "13-point sweep shows the corrected-vs-primitive cone", ok,
            dt, f"improvement below 10^-2.2: {improved}, "
            f"loss-vs-loss slope {slope:.2f}")


def test_criterion_7_systematic_error_plateau():
    t0 = time.perf_counter()
    cfg = BenchConfig()
    smallest = sorted(log_range(-1.0, -5.8, -0.4))[:3]
    with_eps = [run_point(cfg, a, 1e-3, "dcg").fidelity_loss
                for a in smallest]
    without = [run_point(cfg, a, 0.0, "dcg").fidelity_loss
               for a in smallest]
    rel_var = (max(with_eps) - min(with_eps)) / max(with_eps)
    drop = max(without) / min(without)
    dt = time.perf_counter() - t0
    ok = rel_var < 0.2 and drop >= 10.0
    _report(7, "amplitude miscalibration floors the corrected loss", ok, dt,
            f"plateau variation {rel_var:.2%}, zero-epsilon drop {drop:.0f}x")


def _ode_unitary(seq, em, rtol=1e-11):
    dim = 2 ** seq.n_system * em.bath_dim
    h_err = em.hamiltonian()
    eye_b = np.eye(em.bath_dim)
    n_sys = seq.n_system

    def rhs(t, y):
        h_ctrl = sum((seg.profile_value(t) * seg.generator.matrix(n_sys)
                      for seg in seq.segments
                      if seg.t_start <= t <= seg.t_end),
                     np.zeros((2 ** n_sys, 2 ** n_sys), dtype=complex))
        h = np.kron(h_ctrl, eye_b) + h_err
        return (-1j * h @ y.reshape(dim, dim)).ravel()

    u = np.eye(dim, dtype=complex)
    for w0, w1, _ in seq.windows():
        sol = scipy.integrate.solve_ivp(rhs, (w0, w1), u.ravel(),
                                        rtol=rtol, atol=rtol, method="DOP853")
        u = sol.y[:, -1].reshape(dim, dim)
    return u


def test_criterion_8_propagation_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(108)
    worst_prop = 0.0
    for k in range(10):
        em = random_error_model(2, 1, rng, coupling=0.2, bath=0.2)
        theta = rng.uniform(0.2, 1.2)
        tau = float(rng.choice([0.25, 0.5, 1.0]))
        if k % 3 == 0:
            seq = compile_noop(2, tau)
        elif k % 3 == 1:
            seq = compile_dcg(Gate("zz", (0, 1), theta), 2, tau)
        else:
            seq = compile_dcg(Gate("x", (0,), theta), 2, tau)
        gap = np.max(np.abs(propagate(seq, em) - _ode_unitary(seq, em)))
        worst_prop = max(worst_prop, gap)
    worst_expm = 0.0
    for _ in range(10):
        h = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        h = 0.5 * (h + h.conj().T)
        t = rng.uniform(0.1, 2.0)
        worst_expm = max(worst_expm, spectral_norm(
            expm_unitary(h, t) - scipy.linalg.expm(-1j * t * h)))
    dt = time.perf_counter() - t0
    ok = worst_prop <= 1e-8 and worst_expm <= 1e-10 and dt < 60.0
    _report(8, "exact propagation matches an adaptive ODE integrator", ok,
            dt, f"propagation gap {worst_prop:.1e}, expm gap {worst_expm:.1e}")
