"""Cat-state benchmark: model assembly, scoring, and the sweep CSV."""
import io

import numpy as np
import pytest

from dcgforge.bench import (BenchConfig, BenchmarkRecord, build_bath_hamiltonian,
                            cat_circuit, cat_state, bath_density, csv_header,
                            fidelity_loss, log_range, output_state,
                            parse_config, run_point, sector_models,
                            spin_matrices, spin_multiplicity, sweep)
from dcgforge.compiler import circuit_unitary, compile_circuit
from dcgforge.dynamics import propagate
from dcgforge.operators import PAULIS, kron_all, spectral_norm
from dcgforge.pulses import RECTANGULAR, TRIANGULAR


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


def dense_mixed_loss(cfg, a_value, epsilon, mode):
    """Maximally mixed loss from the dense joint unitary, through the
    amplitudes the 2**n_bath columns starting in |0...0> leak out of the
    cat state; unlike 1 - sqrt(overlap) it resolves losses near 1e-17."""
    seq = compile_circuit(cat_circuit(cfg.n_system), mode, cfg.n_system,
                          cfg.tau, cfg.shape, epsilon)
    u = propagate(seq, build_bath_hamiltonian(cfg, a_value))
    psi = cat_state(cfg.n_system)
    d_s, d_b = psi.size, 2 ** cfg.n_bath
    # each column minus its component along the cat state
    cols = u[:, :d_b].reshape(d_s, d_b, d_b)
    overlap = np.tensordot(psi.conj(), cols, axes=(0, 0))
    leak = cols - psi[:, None, None] * overlap[None]
    infid = float(np.linalg.norm(leak) ** 2) / d_b
    return float(-np.expm1(0.5 * np.log1p(-infid)))


# (n_bath, n_system, mode, shape, epsilon, gamma, couplings); the smallest
# dcg couplings reach the ~1e-17 loss floor
SECTOR_CASES = [
    (0, 2, "dcg", RECTANGULAR, 1e-3, 1.0, (1e-1,)),
    (1, 2, "primitive", RECTANGULAR, 0.0, 1.0, (1e-1, 1e-3, 1e-6)),
    (1, 3, "dcg", RECTANGULAR, 1e-3, 0.0, (1e-1, 1e-4, 10 ** -5.8)),
    (2, 2, "dcg", RECTANGULAR, 0.0, 2.5, (1e-1, 1e-3, 10 ** -5.8)),
    (2, 3, "primitive", RECTANGULAR, 1e-3, 1.0, (1e-1, 1e-3, 1e-6)),
    (3, 2, "primitive", RECTANGULAR, 0.0, 0.0, (1e-1, 1e-4)),
    (3, 3, "dcg", RECTANGULAR, 0.0, 1.0, (1e-1, 1e-3, 10 ** -5.8)),
    (3, 3, "dcg", RECTANGULAR, 1e-3, 2.5, (1e-2, 10 ** -5.8)),
    (1, 2, "dcg", TRIANGULAR, 0.0, 1.0, (1e-1, 10 ** -5.8)),
    (2, 2, "primitive", TRIANGULAR, 1e-3, 2.5, (1e-2,)),
    (2, 2, "dcg", TRIANGULAR, 1e-3, 0.0, (1e-3,)),
    (5, 3, "dcg", RECTANGULAR, 0.0, 1.0, (10 ** -5.8,)),
    (5, 3, "primitive", RECTANGULAR, 1e-3, 2.5, (1e-1,)),
]


@pytest.mark.parametrize("case", SECTOR_CASES)
def test_sector_route_matches_dense_route(case):
    n_bath, n_system, mode, shape, epsilon, gamma, a_values = case
    cfg = BenchConfig(n_system=n_system, n_bath=n_bath, gamma=gamma,
                      a_values=a_values, epsilon_values=(epsilon,),
                      shape=shape)
    for a_value in a_values:
        loss = run_point(cfg, a_value, epsilon, mode).fidelity_loss
        ref = dense_mixed_loss(cfg, a_value, epsilon, mode)
        assert abs(loss - ref) <= 1e-20 + 1e-6 * ref, (a_value, loss, ref)
        # the density-matrix oracle, where its 1 - sqrt(overlap) resolves
        rho = output_state(cfg, a_value, epsilon, mode)
        assert ref == pytest.approx(fidelity_loss(rho, n_system),
                                    rel=1e-6, abs=1e-12)


def test_spin_multiplicities_count_every_state():
    for n in range(21):
        counts = [(spin_multiplicity(n, two_j), two_j + 1)
                  for two_j in range(n, -1, -2)]
        assert sum(m * d for m, d in counts) == 2 ** n
        assert all(m >= 1 for m, _ in counts)


def test_spin_matrices_algebra():
    for two_j in range(7):
        sx, sy, sz = spin_matrices(two_j)
        j = two_j / 2
        assert np.allclose(sx @ sy - sy @ sx, 1j * sz, atol=1e-12)
        casimir = sx @ sx + sy @ sy + sz @ sz
        assert np.allclose(casimir, j * (j + 1) * np.eye(two_j + 1),
                           atol=1e-12)
    # spin 1/2 is half the Pauli vector
    for axis, s in zip("xyz", spin_matrices(1)):
        assert np.array_equal(2 * s, PAULIS[axis])


def test_sector_models_sizes():
    cfg = BenchConfig()
    models = sector_models(cfg, 1e-3)
    assert [(m, em.bath_dim) for m, em in models] == [(1, 6), (4, 4), (5, 2)]
    assert all(len(em.couplings) == 9 for _, em in models)
    assert max(em.dim for _, em in models) == 48


def test_sector_route_reaches_large_baths():
    cfg = BenchConfig(n_bath=12, a_values=(1e-3,))
    for mode, slots in (("primitive", 14), ("dcg", 224)):
        rec = run_point(cfg, 1e-3, 0.0, mode)
        assert 0.0 <= rec.fidelity_loss <= 1.0
        assert rec.slot_count == slots


def test_dense_dimension_guard():
    with pytest.raises(ValueError):
        BenchConfig(n_bath=30, bath_state="pure_sample")
    with pytest.raises(ValueError):
        BenchConfig(n_system=8, n_bath=4)  # largest sector 256 * 5
    assert BenchConfig(n_bath=30).n_bath == 30  # largest sector 8 * 31
    with pytest.raises(ValueError):
        build_bath_hamiltonian(BenchConfig(n_bath=30), 1e-3)


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
                 "a_values = nan\n", "epsilon_values = nan\n",
                 "n_bath = -1\n", "n_bath = -1\nbath_state = pure_sample\n"):
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
