"""Cat-state benchmark: model assembly, scoring, and the sweep CSV."""
import io

import numpy as np
import pytest

from dcgforge.bench import (BenchConfig, BenchmarkRecord, build_bath_hamiltonian,
                            cat_circuit, cat_state, bath_density, csv_header,
                            fidelity_loss, log_range, output_state,
                            parse_config, run_point, sweep)
from dcgforge.compiler import circuit_unitary
from dcgforge.operators import PAULIS, kron_all, spectral_norm
from dcgforge.pulses import TRIANGULAR


def joint_pauli(axis, pos, n_total):
    ops = [np.eye(2, dtype=complex)] * n_total
    ops[pos] = PAULIS[axis]
    return kron_all(ops)


def hamiltonian_oracle(cfg, a_value):
    """Direct kron-loop assembly of the full error Hamiltonian."""
    n = cfg.n_system + cfg.n_bath
    dim = 2 ** n
    h = np.zeros((dim, dim), dtype=complex)
    for a in range(cfg.n_bath):
        for b in range(a + 1, cfg.n_bath):
            for axis in "xyz":
                h += cfg.gamma * joint_pauli(axis, cfg.n_system + a, n) \
                    @ joint_pauli(axis, cfg.n_system + b, n)
    for i in range(cfg.n_system):
        for a in range(cfg.n_bath):
            for axis in "xyz":
                h += a_value * joint_pauli(axis, i, n) \
                    @ joint_pauli(axis, cfg.n_system + a, n)
    return h


def test_log_range():
    grid = log_range(-1.0, -5.8, -0.4)
    assert len(grid) == 13
    assert grid[0] == pytest.approx(0.1)
    assert grid[-1] == pytest.approx(10 ** -5.8)
    with pytest.raises(ValueError):
        log_range(-1.0, -2.0, 0.3)
    with pytest.raises(ValueError):
        log_range(-1.0, -2.0, 0.0)


def test_bath_hamiltonian_matches_oracle():
    cfg = BenchConfig(n_bath=2, a_values=(1e-2,))
    em = build_bath_hamiltonian(cfg, 1e-2)
    assert len(em.couplings) == cfg.n_system * cfg.n_bath * 3
    gap = spectral_norm(em.hamiltonian() - hamiltonian_oracle(cfg, 1e-2))
    assert gap <= 1e-12


def test_bath_hamiltonian_default_counts():
    cfg = BenchConfig()
    em = build_bath_hamiltonian(cfg, 1e-3)
    assert (cfg.n_system, cfg.n_bath) == (3, 5)
    assert len(em.couplings) == 45
    assert em.h_bath.shape == (32, 32)


def test_bath_term_commutes_with_couplings():
    # isotropic pair couplings commute with the total-spin coupling sum,
    # so the bath strength cannot move the benchmark fidelity
    cfg = BenchConfig(n_bath=2)
    em = build_bath_hamiltonian(cfg, 0.37)
    n = cfg.n_system + cfg.n_bath
    bath_part = np.kron(np.eye(2 ** cfg.n_system), em.h_bath)
    coupling_part = em.hamiltonian() - bath_part
    comm = bath_part @ coupling_part - coupling_part @ bath_part
    assert spectral_norm(comm) <= 1e-10


def test_gamma_has_no_fidelity_effect():
    base = BenchConfig(n_bath=2, a_values=(1e-2,), gamma=0.0)
    strong = BenchConfig(n_bath=2, a_values=(1e-2,), gamma=5.0)
    for mode in ("primitive", "dcg"):
        l0 = run_point(base, 1e-2, 0.0, mode).fidelity_loss
        l5 = run_point(strong, 1e-2, 0.0, mode).fidelity_loss
        assert l0 == pytest.approx(l5, rel=1e-9, abs=1e-12), mode


def test_cat_circuit_prepares_cat_state():
    for n in (2, 3):
        circ = cat_circuit(n)
        assert len(circ) == n
        u = circuit_unitary(circ, n)
        psi0 = np.zeros(2 ** n)
        psi0[0] = 1.0
        out = u @ psi0
        target = cat_state(n)
        overlap = abs(target.conj() @ out)
        assert overlap == pytest.approx(1.0, abs=1e-12)


def test_fidelity_loss_reference_values():
    assert fidelity_loss(np.eye(8, dtype=complex) / 8) == pytest.approx(
        1 - 1 / np.sqrt(8), abs=1e-12)
    psi = cat_state(3)
    assert fidelity_loss(np.outer(psi, psi.conj())) <= 1e-12
    flipped = np.zeros(8)
    flipped[1] = 1.0
    assert fidelity_loss(np.outer(flipped, flipped)) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        fidelity_loss(2.0 * np.eye(8, dtype=complex) / 8)


def test_run_point_against_density_route():
    cfg = BenchConfig(n_bath=2, a_values=(1e-3,))
    for mode in ("primitive", "dcg"):
        rec = run_point(cfg, 1e-3, 0.0, mode)
        rho = output_state(cfg, 1e-3, 0.0, mode)
        ref = fidelity_loss(rho, cfg.n_system)
        assert rec.fidelity_loss == pytest.approx(ref, rel=1e-6, abs=1e-12)
        assert abs(np.trace(rho) - 1.0) <= 1e-9
        assert 0.0 <= rec.fidelity_loss <= 1.0
    prim = run_point(cfg, 1e-3, 0.0, "primitive")
    dcg = run_point(cfg, 1e-3, 0.0, "dcg")
    assert dcg.fidelity_loss < prim.fidelity_loss
    assert (prim.slot_count, dcg.slot_count) == (14, 224)


def test_primitive_loss_monotone_in_coupling():
    cfg = BenchConfig(n_bath=2)
    losses = [run_point(cfg, a, 0.0, "primitive").fidelity_loss
              for a in (1e-2, 1e-3, 1e-4)]
    assert losses[0] > losses[1] > losses[2]


def test_bath_state_variants():
    mixed = BenchConfig(n_bath=2, bath_state="maximally_mixed")
    averaged = BenchConfig(n_bath=2, bath_state="basis_average")
    assert np.array_equal(bath_density(mixed), bath_density(averaged))
    assert averaged == mixed and averaged.digest() == mixed.digest()
    assert np.trace(bath_density(mixed)) == pytest.approx(1.0)
    pure1 = BenchConfig(n_bath=2, bath_state="pure_sample", seed=1)
    pure2 = BenchConfig(n_bath=2, bath_state="pure_sample", seed=2)
    rho1 = bath_density(pure1)
    assert np.trace(rho1) == pytest.approx(1.0)
    assert np.allclose(rho1 @ rho1, rho1)  # pure projector
    assert not np.allclose(rho1, bath_density(pure2))
    assert np.array_equal(rho1, bath_density(pure1))
    l1 = run_point(pure1, 1e-2, 0.0, "primitive").fidelity_loss
    l1_again = run_point(pure1, 1e-2, 0.0, "primitive").fidelity_loss
    assert l1 == l1_again
    with pytest.raises(ValueError):
        BenchConfig(bath_state="thermal")


def test_parse_config_full_coverage():
    text = """
# sweep setup
n_system = 3
n_bath = 2
gamma = 0.5
a_log10 = -1:-2:-0.5
epsilon_values = 0,1e-3
tau = 1.0
shape = triangular
modes = dcg,primitive
bath_state = pure_sample
seed = 9
"""
    cfg = parse_config(text)
    assert cfg.n_bath == 2 and cfg.gamma == 0.5 and cfg.seed == 9
    assert cfg.a_values == pytest.approx((0.1, 10 ** -1.5, 0.01))
    assert cfg.epsilon_values == (0.0, 1e-3)
    assert cfg.shape is TRIANGULAR
    assert cfg.modes == ("dcg", "primitive")
    assert cfg.bath_state == "pure_sample"
    direct = parse_config("a_values = 0.1,0.01\n")
    assert direct.a_values == (0.1, 0.01)


def test_parse_config_errors():
    with pytest.raises(ValueError):
        parse_config("flux_capacitor = 1\n")
    with pytest.raises(ValueError):
        parse_config("just a line\n")
    with pytest.raises(ValueError):
        parse_config("a_log10 = -1:-2\n")
    with pytest.raises(ValueError):
        parse_config("shape = square\n")
    with pytest.raises(ValueError):
        parse_config("modes = dcg,fancy\n")
    for text in ("gamma = nan\n", "tau = nan\n", "n_system = 0\n",
                 "a_values = nan\n", "epsilon_values = nan\n"):
        with pytest.raises(ValueError):
            parse_config(text)


def _strip_wall_time(text):
    lines = []
    for line in text.splitlines():
        if line.startswith("#") or line.startswith("epsilon"):
            lines.append(line)
        else:
            lines.append(",".join(line.split(",")[:-1]))
    return "\n".join(lines)


def test_sweep_csv_order_and_determinism():
    cfg = BenchConfig(n_bath=2, a_values=(1e-2, 1e-3),
                      epsilon_values=(1e-3, 0.0), modes=("primitive", "dcg"))
    buf1, buf2 = io.StringIO(), io.StringIO()
    recs = sweep(cfg, buf1)
    sweep(cfg, buf2)
    assert len(recs) == 8
    assert _strip_wall_time(buf1.getvalue()) == _strip_wall_time(buf2.getvalue())
    lines = buf1.getvalue().splitlines()
    assert lines[0].startswith("#")
    assert f"config_hash={cfg.digest()}" in lines[1]
    assert "Pauli" in lines[2]
    assert lines[3] == "epsilon,mode,A,fidelity_loss,slot_count,wall_time_s"
    rows = [line.split(",") for line in lines[4:]]
    keys = [(float(r[0]), r[1], -float(r[2])) for r in rows]
    assert keys == sorted(keys)
    # records mirror the CSV rows
    assert [float(r[3]) for r in rows] == [rec.fidelity_loss for rec in recs]
    assert all(r[4] in ("14", "224") for r in rows)


def test_sweep_without_stream_returns_records():
    cfg = BenchConfig(n_bath=2, a_values=(1e-2,), modes=("primitive",))
    recs = sweep(cfg)
    assert len(recs) == 1
    assert isinstance(recs[0], BenchmarkRecord)
    assert recs[0].wall_time_s > 0


def test_csv_header_mentions_conventions():
    header = csv_header(BenchConfig())
    assert "Pauli" in header
    assert "config_hash=" in header
    assert header.rstrip().endswith(
        "epsilon,mode,A,fidelity_loss,slot_count,wall_time_s")
