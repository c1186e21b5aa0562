"""Exact joint propagation and error-phase extraction.

The error Hamiltonian is ``H_e = I_S (x) H_B + sum_k P_k (x) B_k`` with the
system factors Pauli strings.  Propagation multiplies window exponentials of
``H_ctrl(t) (x) I_B + H_e`` using the realized control (amplitude errors
included); rectangular windows are piecewise constant and therefore exact.

The first-order error phase is the toggling-frame integral of H_e along the
intended control.  For a window with constant control Hamiltonian ``H_c``
(eigenvalues ``lam``) the integral has the closed form

    I[a,i,b,j] = g(lam_a - lam_b) * H_e_tilde[a,i,b,j],
    g(x) = Delta * exp(i*x*Delta/2) * sinc(x*Delta/2)

in the eigenbasis of ``H_c``, so rectangular sequences incur no quadrature
error at all.  Other shapes are discretized into midpoint-constant pieces.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .operators import (HermitianEvolution, hermitian_log, is_hermitian,
                        mod_bath, pauli_string_matrix, pauli_string_weight,
                        spectral_norm)
from .pulses import PulseSequence, intended_unitary

# Largest joint dimension the dense routes accept; one complex matrix of
# this size takes 16 MB, and a propagation holds a few dozen of them.
MAX_DENSE_DIM = 2 ** 10


def check_dense_dim(n_qubits: int, levels: int = 1) -> None:
    """Reject a joint space of ``levels * 2**n_qubits`` dimensions above
    MAX_DENSE_DIM, before anything is allocated; the dimension itself is
    never formed, so an absurd size fails as fast as a small one."""
    if (n_qubits >= MAX_DENSE_DIM.bit_length()
            or levels << n_qubits > MAX_DENSE_DIM):
        raise ValueError(
            f"joint dimension {levels} * 2**{n_qubits} exceeds the dense "
            f"limit {MAX_DENSE_DIM}")


@dataclass(frozen=True)
class ErrorModel:
    """Static error Hamiltonian on system (x) bath.

    ``bath_dim`` is the dimension of the bath space: ``2**n`` for a register
    of ``n`` bath qubits, ``2J+1`` for one total-spin sector of a spin bath.
    ``h_bath`` and the bath operators are ``bath_dim``-square.
    ``couplings`` holds (system Pauli string, bath operator) pairs; strings
    must be single-qubit unless ``allow_general`` is set (used by decoupling
    counterexamples in tests).  ``norm_bound`` is ||H_B|| + sum ||B_k||, an
    upper bound on ||H_e||.
    """

    n_system: int
    bath_dim: int
    h_bath: np.ndarray | None = None
    couplings: tuple[tuple[str, np.ndarray], ...] = ()
    allow_general: bool = False
    norm_bound: float = field(init=False, default=0.0)

    def __post_init__(self):
        if self.bath_dim < 1:
            raise ValueError("bath dimension must be >= 1")
        d_b = self.bath_dim
        bound = 0.0
        if self.h_bath is not None:
            if self.h_bath.shape != (d_b, d_b):
                raise ValueError("bath Hamiltonian has wrong dimension")
            if not is_hermitian(self.h_bath):
                raise ValueError("bath Hamiltonian must be Hermitian")
            bound += spectral_norm(self.h_bath)
        for string, b_op in self.couplings:
            if len(string) != self.n_system:
                raise ValueError(f"Pauli string {string!r} has wrong length")
            if pauli_string_weight(string) != 1 and not self.allow_general:
                raise ValueError(
                    f"coupling {string!r} is not single-qubit; pass "
                    "allow_general=True for non-linear-decoherence models")
            if b_op.shape != (d_b, d_b):
                raise ValueError("bath coupling operator has wrong dimension")
            if not is_hermitian(b_op):
                raise ValueError("bath coupling operators must be Hermitian")
            bound += spectral_norm(b_op)
        object.__setattr__(self, "norm_bound", bound)

    @property
    def dim(self) -> int:
        return 2 ** self.n_system * self.bath_dim

    def hamiltonian(self) -> np.ndarray:
        d_s, d_b = 2 ** self.n_system, self.bath_dim
        h = np.zeros((d_s * d_b, d_s * d_b), dtype=complex)
        if self.h_bath is not None:
            h += np.kron(np.eye(d_s), self.h_bath)
        for string, b_op in self.couplings:
            h += np.kron(pauli_string_matrix(string), b_op)
        return h

    def scaled(self, factor: float) -> "ErrorModel":
        """Uniformly rescale the whole error Hamiltonian."""
        scaled_bath = None if self.h_bath is None else factor * self.h_bath
        scaled_cpl = tuple((s, factor * b) for s, b in self.couplings)
        return replace(self, h_bath=scaled_bath, couplings=scaled_cpl)


def _window_controls(segs, n_system, times, realized):
    """Control Hamiltonian of one window at each absolute time in ``times``."""
    dim = 2 ** n_system
    for t in times:
        h = np.zeros((dim, dim), dtype=complex)
        for s in segs:
            if s.generator.kind != "noop":
                h = h + (s.profile_value(t, realized)
                         * s.generator.matrix(n_system))
        yield h


def _walk_windows(seq, substeps, realized):
    """Yield ``(key, dt, controls)`` per window of ``seq`` in time order.

    A rectangular window is one exact piece; other shapes are ``substeps``
    midpoint-sampled pieces.  ``controls`` yields each piece's control
    Hamiltonian only when iterated.  Windows with equal ``key`` have equal
    control and duration, hence equal propagators.
    """
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    for t0, t1, segs in seq.windows():
        key = tuple(
            (s.generator.kind, s.generator.qubits, s.amplitude,
             s.shape.name, s.time_reversed, s.epsilon, s.duration)
            for s in segs)
        rectangular = all(s.shape.name == "rectangular" for s in segs)
        n_pieces = 1 if rectangular else substeps
        dt = (t1 - t0) / n_pieces
        times = [t0 + k * dt + dt / 2 for k in range(n_pieces)]
        yield key, dt, _window_controls(segs, seq.n_system, times, realized)


def propagate(seq: PulseSequence, em: ErrorModel,
              substeps: int = 64) -> np.ndarray:
    """Joint unitary under realized control plus the error Hamiltonian.

    Piecewise-constant (rectangular) windows are integrated exactly with a
    single exponential each; other shapes use midpoint sampling with
    ``substeps`` pieces per window.  Repeated windows share exponentials.
    """
    h_err = em.hamiltonian()
    eye_b = np.eye(em.bath_dim)
    u = np.eye(em.dim, dtype=complex)
    cache: dict = {}
    for key, dt, controls in _walk_windows(seq, substeps, realized=True):
        if key not in cache:
            u_window = np.eye(em.dim, dtype=complex)
            for h_c in controls:
                h_joint = np.kron(h_c, eye_b) + h_err
                u_window = HermitianEvolution(h_joint).unitary(dt) @ u_window
            cache[key] = u_window
        u = cache[key] @ u
    return u


def _toggling_integral(h_tilde, eigvals, delta):
    """Closed-form integral of the toggled error operator over one piece."""
    gap = eigvals[:, None] - eigvals[None, :]
    x = gap * delta / 2.0
    g = delta * np.exp(1j * x) * np.sinc(x / np.pi)
    return h_tilde * g[:, None, :, None]


def first_order_phase(seq: PulseSequence, em: ErrorModel,
                      substeps: int = 64) -> np.ndarray:
    """Toggling-frame integral of H_e along the intended control.

    Systematic amplitude errors are excluded here: this is the leading
    decoherence phase of the sequence as designed.  Rectangular windows are
    evaluated in closed form in the eigenbasis of the window Hamiltonian.
    """
    h_err = em.hamiltonian()
    d_s, d_b = 2 ** seq.n_system, em.bath_dim
    eye_b = np.eye(d_b)
    frame = np.eye(em.dim, dtype=complex)
    phi = np.zeros((em.dim, em.dim), dtype=complex)
    h_err_t = h_err.reshape(d_s, d_b, d_s, d_b)
    for _, dt, controls in _walk_windows(seq, substeps, realized=False):
        for h_c in controls:
            evo = HermitianEvolution(h_c)
            v = evo.eigenvectors
            # error operator in the window eigenbasis, system indices only
            tmp = np.tensordot(v.conj().T, h_err_t, axes=(1, 0))
            h_tilde = np.tensordot(tmp, v, axes=(2, 0))
            h_tilde = np.moveaxis(h_tilde, 3, 2)
            integ = _toggling_integral(h_tilde, evo.eigenvalues, dt)
            # back to the register basis
            out = np.tensordot(v, integ, axes=(1, 0))
            out = np.tensordot(out, v.conj(), axes=(2, 1))
            out = np.moveaxis(out, 3, 2)
            piece = out.reshape(em.dim, em.dim)
            phi += frame.conj().T @ piece @ frame
            frame = np.kron(evo.unitary(dt), eye_b) @ frame
    return 0.5 * (phi + phi.conj().T)


def combine_first_order(parts) -> np.ndarray:
    """Frame-rotated sum of per-block phases.

    ``parts`` is a list of (U_ctrl_j, Phi_j); the frame entering block j is
    the ordered product of the earlier intended unitaries.
    """
    if not parts:
        raise ValueError("need at least one block")
    dim = parts[0][1].shape[0]
    frame = np.eye(dim, dtype=complex)
    total = np.zeros((dim, dim), dtype=complex)
    for u_ctrl, phi in parts:
        if phi.shape != (dim, dim) or u_ctrl.shape != (dim, dim):
            raise ValueError("block dimension mismatch")
        total += frame.conj().T @ phi @ frame
        frame = u_ctrl @ frame
    return total


@dataclass(frozen=True)
class ErrorPhaseReport:
    """Exact and first-order error phases of one sequence and model."""

    phi_exact: np.ndarray
    phi_first_order: np.ndarray
    phi_exact_modB: np.ndarray
    phi_first_modB: np.ndarray
    epg_exact: float
    epg_first: float


def error_phase(seq: PulseSequence, em: ErrorModel,
                substeps: int = 64) -> ErrorPhaseReport:
    """Full error-phase report: U = U_intended * exp(-i * phi_exact).

    The exact phase is the Hermitian logarithm of the intended-frame
    residual propagator; it is only defined in the small-phase regime and
    the logarithm's branch guard raises otherwise.
    """
    u_actual = propagate(seq, em, substeps)
    u_ctrl = np.kron(intended_unitary(seq), np.eye(em.bath_dim))
    residual = u_ctrl.conj().T @ u_actual
    # center the spectrum before taking the log: a scalar phase (projective
    # representation artifacts, pure-bath trace) would otherwise push the
    # eigenphases toward the branch cut; it is restored as a multiple of I
    trace = np.trace(residual)
    if abs(trace) > 1e-12 * residual.shape[0]:
        mean_phase = float(np.angle(trace))
    else:
        mean_phase = 0.0
    centered = residual * np.exp(-1j * mean_phase)
    phi_exact = hermitian_log(centered) - mean_phase * np.eye(
        residual.shape[0])
    phi_first = first_order_phase(seq, em, substeps)
    exact_modb = mod_bath(phi_exact, seq.n_system)
    first_modb = mod_bath(phi_first, seq.n_system)
    return ErrorPhaseReport(
        phi_exact=phi_exact,
        phi_first_order=phi_first,
        phi_exact_modB=exact_modb,
        phi_first_modB=first_modb,
        epg_exact=spectral_norm(exact_modb),
        epg_first=spectral_norm(first_modb),
    )


def epg(seq: PulseSequence, em: ErrorModel, substeps: int = 64) -> float:
    """Error per gate: spectral norm of the exact mod-bath phase."""
    return error_phase(seq, em, substeps).epg_exact


def random_error_model(n_system: int, n_bath: int, rng: np.random.Generator,
                       coupling: float = 1.0, bath: float = 1.0) -> ErrorModel:
    """Seeded bounded model: random bath Hamiltonian, random single-qubit
    couplings on every system qubit and axis, each normalized to the given
    spectral norm."""
    d_b = 2 ** n_bath

    def herm(scale):
        m = rng.normal(size=(d_b, d_b)) + 1j * rng.normal(size=(d_b, d_b))
        m = 0.5 * (m + m.conj().T)
        if scale == 0.0:
            return np.zeros_like(m)
        return scale * m / spectral_norm(m)

    couplings = []
    for i in range(n_system):
        for axis in "xyz":
            string = "".join(
                axis if k == i else "i" for k in range(n_system))
            couplings.append((string, herm(coupling)))
    return ErrorModel(n_system, d_b, herm(bath), tuple(couplings))
