"""Propagation and error-phase extraction against independent oracles."""
import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from dcgforge.compiler import (Gate, compile_dcg, compile_dcg_spec,
                               compile_noop, decompose_gate)
from dcgforge.dynamics import (ErrorModel, combine_first_order, epg,
                               error_phase, first_order_phase, propagate,
                               random_error_model)
from dcgforge.operators import (expm_unitary, mod_bath,
                                pauli_bath_components, pauli_string_matrix,
                                pauli_string_weight, spectral_norm)
from dcgforge.pulses import (PulseSequence, RECTANGULAR, TRIANGULAR,
                             concatenate, intended_unitary,
                             matched_gate_sequence, matched_identity_sequence,
                             primitive_gate, x_on, y_on, zz_on)


def control_hamiltonian(seq, t, n_system, realized=True):
    """Direct sum over segments at time t, used by the ODE oracle."""
    dim = 2 ** n_system
    h = np.zeros((dim, dim), dtype=complex)
    for seg in seq.segments:
        if seg.t_start <= t <= seg.t_end:
            h += seg.profile_value(t, realized=realized) * \
                seg.generator.matrix(n_system)
    return h


def solve_ivp_unitary(seq, em, rtol=1e-11):
    """Adaptive integration of dU/dt = -i H(t) U on the joint space."""
    dim = 2 ** seq.n_system * em.bath_dim
    h_err = em.hamiltonian()
    eye_b = np.eye(em.bath_dim)

    def rhs(t, y):
        u = y.reshape(dim, dim)
        h = np.kron(control_hamiltonian(seq, t, seq.n_system), eye_b) + h_err
        return (-1j * h @ u).ravel()

    # integrate window by window so shape kinks never straddle a step
    u = np.eye(dim, dtype=complex)
    for t0, t1, _ in seq.windows():
        sol = scipy.integrate.solve_ivp(
            rhs, (t0, t1), u.ravel(), rtol=rtol, atol=rtol, method="DOP853")
        u = sol.y[:, -1].reshape(dim, dim)
    return u


def quadrature_phase(seq, em, steps=4000):
    """Midpoint toggling-frame integral with brute-force Trotter frames."""
    dim_s = 2 ** seq.n_system
    eye_b = np.eye(em.bath_dim)
    h_err = em.hamiltonian()
    dt = seq.total_duration / steps
    u_ctrl = np.eye(dim_s, dtype=complex)
    phi = np.zeros_like(h_err)
    for k in range(steps):
        t_mid = (k + 0.5) * dt
        frame = np.kron(u_ctrl, eye_b)
        phi += dt * frame.conj().T @ h_err @ frame
        h_mid = control_hamiltonian(seq, t_mid, seq.n_system, realized=False)
        u_ctrl = scipy.linalg.expm(-1j * dt * h_mid) @ u_ctrl
    return 0.5 * (phi + phi.conj().T)


def test_error_model_hamiltonian_assembly():
    rng = np.random.default_rng(40)
    b1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b1 = 0.5 * (b1 + b1.conj().T)
    hb = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    hb = 0.5 * (hb + hb.conj().T)
    em = ErrorModel(2, 2, hb, (("xi", b1), ("iz", 2.0 * b1)))
    expected = (np.kron(np.eye(4), hb)
                + np.kron(pauli_string_matrix("xi"), b1)
                + np.kron(pauli_string_matrix("iz"), 2.0 * b1))
    assert spectral_norm(em.hamiltonian() - expected) <= 1e-12
    assert em.dim == 8
    assert em.norm_bound >= spectral_norm(em.hamiltonian()) - 1e-12
    scaled = em.scaled(0.5)
    assert spectral_norm(scaled.hamiltonian() - 0.5 * expected) <= 1e-12


def test_error_model_validation():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        ErrorModel(1, 2, bad, ())
    herm = np.eye(2, dtype=complex)
    with pytest.raises(ValueError):
        ErrorModel(2, 2, herm, (("xx", herm),))
    ErrorModel(2, 2, herm, (("xx", herm),), allow_general=True)
    with pytest.raises(ValueError):
        ErrorModel(2, 2, herm, (("x", herm),))
    with pytest.raises(ValueError):
        ErrorModel(1, 2, np.eye(4, dtype=complex), ())


def test_error_model_bath_dimension():
    # a bath of any dimension, such as one spin-1 sector
    em = ErrorModel(1, 3, np.eye(3, dtype=complex), (("z", np.eye(3)),))
    assert em.dim == 6 and em.hamiltonian().shape == (6, 6)
    with pytest.raises(ValueError):
        ErrorModel(1, 0)


def test_random_error_model_norms():
    rng = np.random.default_rng(41)
    em = random_error_model(2, 1, rng, coupling=0.3, bath=0.7)
    assert len(em.couplings) == 6
    for string, b in em.couplings:
        assert pauli_string_weight(string) == 1
        assert spectral_norm(b) == pytest.approx(0.3, rel=1e-12)
    assert spectral_norm(em.h_bath) == pytest.approx(0.7, rel=1e-12)
    assert em.norm_bound == pytest.approx(0.7 + 6 * 0.3, rel=1e-12)


def test_propagate_matches_solve_ivp():
    rng = np.random.default_rng(42)
    for k in range(4):
        em = random_error_model(2, 1, rng, coupling=0.2, bath=0.2)
        if k == 0:
            seq = compile_noop(2, 0.5)
        elif k == 1:
            seq = compile_dcg(Gate("zz", (0, 1), 0.6), 2, 0.5)
        elif k == 2:
            seq = matched_gate_sequence(0.8, 0.5, x_on(0), 2, TRIANGULAR,
                                        epsilon=1e-2)
        else:
            seq = PulseSequence(
                (primitive_gate(y_on(1), 0.4, 1.0, 2),), 2, 1.0)
        # shaped windows are midpoint-discretized, so buy accuracy with
        # substeps; rectangular windows are exact at any substep count
        substeps = 2048 if k == 2 else 64
        u = propagate(seq, em, substeps=substeps)
        gap = np.max(np.abs(u - solve_ivp_unitary(seq, em)))
        assert gap <= 1e-8, (k, gap)


def test_propagate_rectangular_independent_of_substeps():
    rng = np.random.default_rng(43)
    em = random_error_model(2, 1, rng)
    seq = compile_dcg(Gate("x", (0,), 0.9), 2, 1.0)
    u64 = propagate(seq, em, substeps=64)
    u8 = propagate(seq, em, substeps=8)
    assert spectral_norm(u64 - u8) <= 1e-13


def test_substeps_must_be_positive():
    em = random_error_model(1, 1, np.random.default_rng(55))
    for shape in (RECTANGULAR, TRIANGULAR):
        seq = matched_identity_sequence(0.7, 1.0, x_on(0), 1, shape)
        for walk in (propagate, first_order_phase):
            with pytest.raises(ValueError):
                walk(seq, em, substeps=0)


def test_propagate_triangular_converges_in_substeps():
    rng = np.random.default_rng(44)
    em = random_error_model(1, 1, rng, coupling=0.3, bath=0.3)
    seq = matched_identity_sequence(0.7, 1.0, x_on(0), 1, TRIANGULAR)
    ref = solve_ivp_unitary(seq, em)
    gap64 = spectral_norm(propagate(seq, em, substeps=64) - ref)
    gap256 = spectral_norm(propagate(seq, em, substeps=256) - ref)
    assert gap256 <= gap64 / 8


def test_first_order_phase_matches_quadrature():
    rng = np.random.default_rng(45)
    for shape in (RECTANGULAR, TRIANGULAR):
        em = random_error_model(1, 1, rng, coupling=0.5, bath=0.5)
        seq = matched_identity_sequence(0.9, 1.0, x_on(0), 1, shape)
        phi = first_order_phase(seq, em, substeps=1024)
        ref = quadrature_phase(seq, em)
        assert spectral_norm(phi - ref) <= 2e-6, shape.name


def test_first_order_phase_uses_intended_control():
    rng = np.random.default_rng(46)
    em = random_error_model(1, 1, rng)
    seq = matched_gate_sequence(0.6, 1.0, x_on(0), 1)
    assert spectral_norm(first_order_phase(seq, em)
                         - first_order_phase(seq.with_epsilon(0.05), em)) \
        <= 1e-13


def test_matched_pair_equal_phases():
    rng = np.random.default_rng(47)
    for _ in range(10):
        em = random_error_model(1, 1, rng)
        theta = rng.uniform(0.1, 1.4)
        tau = rng.choice([0.5, 1.0, 2.0])
        gen = matched_gate_sequence(theta, tau, x_on(0), 1)
        idle = matched_identity_sequence(theta, tau, x_on(0), 1)
        gap = spectral_norm(first_order_phase(gen, em)
                            - first_order_phase(idle, em))
        assert gap <= 1e-10


def test_matched_pair_phase_support():
    # the zz stretched gate leaks only single-qubit and mixed-axis
    # two-qubit strings, the correctable set
    rng = np.random.default_rng(48)
    em = random_error_model(2, 1, rng)
    seq = matched_gate_sequence(0.7, 1.0, zz_on(0, 1), 2)
    phi = mod_bath(first_order_phase(seq, em), 2)
    comps = pauli_bath_components(phi, 2)
    for string, comp in comps.items():
        weight = pauli_string_weight(string)
        homogeneous = weight == 2 and len(
            {c for c in string if c != "i"}) == 1
        if weight >= 3 or homogeneous or weight == 0:
            assert spectral_norm(comp) <= 1e-10, string


def test_first_order_cancellation_all_gates():
    rng = np.random.default_rng(49)
    em = random_error_model(2, 1, rng)
    residual = spectral_norm(
        mod_bath(first_order_phase(compile_noop(2, 1.0), em), 2))
    assert residual <= 1e-10
    for gate in (Gate("x", (0,), 0.0), Gate("y", (1,), 0.0),
                 Gate("zz", (0, 1), 0.0)):
        for _ in range(5):
            theta = rng.uniform(0.05, np.pi - 0.05)
            seq = compile_dcg(
                Gate(gate.kind, gate.qubits, theta), 2, 1.0)
            residual = spectral_norm(mod_bath(first_order_phase(seq, em), 2))
            assert residual <= 1e-10, (gate.kind, theta, residual)
    # the CNOT slot driving two qubits at once, with qubit 1 idle
    em3 = random_error_model(3, 1, rng)
    seq = compile_dcg_spec(decompose_gate(Gate("cnot", (0, 2)))[3], 3, 1.0)
    residual = spectral_norm(mod_bath(first_order_phase(seq, em3), 3))
    assert residual <= 1e-10, ("cnot slot", residual)


def test_uncorrected_gate_does_not_cancel():
    rng = np.random.default_rng(50)
    em = random_error_model(2, 1, rng)
    seq = PulseSequence((primitive_gate(zz_on(0, 1), 0.7, 1.0, 2),), 2, 1.0)
    assert spectral_norm(mod_bath(first_order_phase(seq, em), 2)) >= 0.1


def test_quadratic_residual_scaling():
    rng = np.random.default_rng(51)
    em = random_error_model(2, 1, rng)
    seq = compile_dcg(Gate("zz", (0, 1), 0.6), 2, 1.0)
    lams = np.array([1e-2, 1e-3, 1e-4])
    gaps = []
    for lam in lams:
        report = error_phase(seq, em.scaled(lam))
        gaps.append(spectral_norm(report.phi_exact - report.phi_first_order))
    slope = np.polyfit(np.log10(lams), np.log10(gaps), 1)[0]
    assert 1.85 <= slope <= 2.15, slope


def test_combine_first_order_matches_concatenation():
    rng = np.random.default_rng(52)
    em = random_error_model(2, 1, rng)
    parts = [matched_gate_sequence(0.5, 1.0, x_on(0), 2),
             matched_identity_sequence(0.3, 1.0, y_on(1), 2),
             matched_gate_sequence(0.9, 1.0, zz_on(0, 1), 2)]
    eye_b = np.eye(2)
    combined = combine_first_order(
        [(np.kron(intended_unitary(s), eye_b), first_order_phase(s, em))
         for s in parts])
    direct = first_order_phase(concatenate(parts, 2, 1.0), em)
    assert spectral_norm(combined - direct) <= 1e-10


def test_error_phase_reconstruction():
    rng = np.random.default_rng(53)
    em = random_error_model(2, 1, rng, coupling=0.05, bath=0.05)
    seq = compile_dcg(Gate("y", (0,), 0.8), 2, 1.0)
    report = error_phase(seq, em)
    residual = np.kron(intended_unitary(seq).conj().T,
                       np.eye(2)) @ propagate(seq, em)
    assert spectral_norm(expm_unitary(report.phi_exact) - residual) <= 1e-12
    assert report.epg_exact == pytest.approx(
        spectral_norm(report.phi_exact_modB), rel=1e-12)
    assert report.epg_first == pytest.approx(
        spectral_norm(report.phi_first_modB), rel=1e-12)
    assert epg(seq, em) == pytest.approx(report.epg_exact, rel=1e-12)


def test_epsilon_raises_corrected_epg():
    rng = np.random.default_rng(54)
    em = random_error_model(2, 1, rng, coupling=1e-4, bath=1e-4)
    seq = compile_dcg(Gate("zz", (0, 1), 0.6), 2, 1.0)
    base = epg(seq, em)
    eps3 = epg(seq.with_epsilon(1e-3), em)
    eps2 = epg(seq.with_epsilon(1e-2), em)
    assert base < eps3 < eps2
