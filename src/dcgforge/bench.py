"""Cat-state benchmark: 3 system qubits against a Heisenberg spin bath.

The error Hamiltonian couples every bath spin to every other spin,

    H_e = Gamma * sum_{a<b} s_vec(a) . s_vec(b)
        + A * sum_{i,a} sigma_vec(i) . s_vec(a),

with bath spins taken as Pauli vectors (an overall rescaling of Gamma and A
versus spin-1/2 operators, absorbed into the sweep range).  The benchmark
compiles the standard cat-state circuit (Hadamard plus two CNOTs) in
primitive or corrected mode, propagates |000><000| times the bath state
exactly, traces out the bath, and reports 1 - sqrt(<cat|rho_out|cat>).

Times are in units of the slot duration tau = 1.
"""
from __future__ import annotations

import hashlib
import io
import time
from dataclasses import dataclass, field

import numpy as np

from .compiler import Gate, compile_circuit
from .dynamics import ErrorModel, propagate
from .operators import embed_pauli, partial_trace_bath
from .pulses import PulseShape, RECTANGULAR, SHAPES

DEFAULT_A_LOG10 = (-1.0, -5.8, -0.4)


def log_range(start: float, stop: float, step: float) -> tuple[float, ...]:
    """Inclusive exponent grid, e.g. -1:-5.8:-0.4 gives 13 points."""
    if step == 0:
        raise ValueError("zero step in range")
    n = int(round((stop - start) / step))
    if n < 0 or abs(start + n * step - stop) > 1e-9:
        raise ValueError(f"range {start}:{stop}:{step} does not close")
    return tuple(10.0 ** (start + k * step) for k in range(n + 1))


@dataclass(frozen=True)
class BenchConfig:
    """Sweep definition; defaults reproduce the 13-point coupling scan."""

    n_system: int = 3
    n_bath: int = 5
    gamma: float = 1.0
    a_values: tuple[float, ...] = field(
        default_factory=lambda: log_range(*DEFAULT_A_LOG10))
    epsilon_values: tuple[float, ...] = (0.0,)
    tau: float = 1.0
    shape: PulseShape = RECTANGULAR
    modes: tuple[str, ...] = ("primitive", "dcg")
    bath_state: str = "maximally_mixed"
    seed: int = 0

    def __post_init__(self):
        if self.n_system < 1:
            raise ValueError("n_system must be >= 1")
        values = (self.gamma, self.tau, *self.a_values, *self.epsilon_values)
        if not all(np.isfinite(v) for v in values):
            raise ValueError("gamma, tau, couplings and epsilons must be "
                             "finite")
        if self.gamma < 0 or any(a < 0 for a in self.a_values):
            raise ValueError("gamma and coupling strengths must be >= 0")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        for mode in self.modes:
            if mode not in ("primitive", "dcg"):
                raise ValueError(f"unknown mode {mode!r}")
        if self.bath_state == "basis_average":
            # averaging the basis states is the same mixture as I/d
            object.__setattr__(self, "bath_state", "maximally_mixed")
        if self.bath_state not in ("maximally_mixed", "pure_sample"):
            raise ValueError(f"unknown bath state {self.bath_state!r}")

    def canonical_text(self) -> str:
        items = [
            f"n_system={self.n_system}", f"n_bath={self.n_bath}",
            f"gamma={self.gamma!r}",
            "a_values=" + ",".join(repr(a) for a in self.a_values),
            "epsilon_values=" + ",".join(repr(e) for e in self.epsilon_values),
            f"tau={self.tau!r}", f"shape={self.shape.name}",
            "modes=" + ",".join(self.modes),
            f"bath_state={self.bath_state}", f"seed={self.seed}",
        ]
        return "\n".join(items) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:12]


def parse_config(text: str) -> BenchConfig:
    """Flat key=value config; '#' comments; a_log10 uses start:stop:step."""
    kwargs: dict = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"expected key=value, got {line!r}")
        key, value = (tok.strip() for tok in line.split("=", 1))
        if key in ("n_system", "n_bath", "seed"):
            kwargs[key] = int(value)
        elif key in ("gamma", "tau"):
            kwargs[key] = float(value)
        elif key == "a_values":
            kwargs["a_values"] = tuple(float(v) for v in value.split(","))
        elif key == "a_log10":
            parts = [float(v) for v in value.split(":")]
            if len(parts) != 3:
                raise ValueError("a_log10 needs start:stop:step")
            kwargs["a_values"] = log_range(*parts)
        elif key == "epsilon_values":
            kwargs["epsilon_values"] = tuple(
                float(v) for v in value.split(","))
        elif key == "modes":
            kwargs["modes"] = tuple(m.strip() for m in value.split(","))
        elif key == "shape":
            if value not in SHAPES:
                raise ValueError(f"unknown shape {value!r}")
            kwargs["shape"] = SHAPES[value]
        elif key == "bath_state":
            kwargs["bath_state"] = value
        else:
            raise ValueError(f"unknown config key {key!r}")
    return BenchConfig(**kwargs)


def build_bath_hamiltonian(cfg: BenchConfig, a_value: float) -> ErrorModel:
    """Heisenberg bath plus isotropic system-bath couplings.

    The bath Hamiltonian has one term per bath pair and axis; the coupling
    list has one entry per (system qubit, bath spin, axis), 45 for the
    default sizes.
    """
    d_b = 2 ** cfg.n_bath
    h_bath = np.zeros((d_b, d_b), dtype=complex)
    for a in range(cfg.n_bath):
        for b in range(a + 1, cfg.n_bath):
            for axis in "xyz":
                h_bath += cfg.gamma * (
                    embed_pauli(axis, a, cfg.n_bath)
                    @ embed_pauli(axis, b, cfg.n_bath))
    couplings = []
    for i in range(cfg.n_system):
        for a in range(cfg.n_bath):
            for axis in "xyz":
                string = "".join(
                    axis if k == i else "i" for k in range(cfg.n_system))
                couplings.append(
                    (string, a_value * embed_pauli(axis, a, cfg.n_bath)))
    return ErrorModel(cfg.n_system, cfg.n_bath, h_bath, tuple(couplings))


def cat_circuit(n_system: int = 3) -> list[Gate]:
    """Hadamard then a CNOT fan-out: |00...0> -> (|00...0>+|11...1>)/sqrt(2)."""
    gates = [Gate("hadamard", (0,))]
    for q in range(1, n_system):
        gates.append(Gate("cnot", (0, q)))
    return gates


def cat_state(n_system: int = 3) -> np.ndarray:
    psi = np.zeros(2 ** n_system, dtype=complex)
    psi[0] = psi[-1] = 1 / np.sqrt(2)
    return psi


def _bath_pure_vector(cfg: BenchConfig) -> np.ndarray:
    rng = np.random.default_rng(cfg.seed)
    d_b = 2 ** cfg.n_bath
    chi = rng.normal(size=d_b) + 1j * rng.normal(size=d_b)
    return chi / np.linalg.norm(chi)


def bath_density(cfg: BenchConfig) -> np.ndarray:
    """Initial bath density matrix per the configured preparation."""
    d_b = 2 ** cfg.n_bath
    if cfg.bath_state == "maximally_mixed":
        return np.eye(d_b, dtype=complex) / d_b
    chi = _bath_pure_vector(cfg)
    return np.outer(chi, chi.conj())


def fidelity_loss(rho_out: np.ndarray, n_system: int = 3) -> float:
    """1 - sqrt(<cat|rho_out|cat>), the pure-target Uhlmann loss."""
    trace = float(np.real(np.trace(rho_out)))
    if abs(trace - 1.0) > 1e-6:
        raise ValueError(f"output state trace {trace} deviates from 1")
    psi = cat_state(n_system)
    overlap = float(np.real(psi.conj() @ rho_out @ psi))
    overlap = min(max(overlap, 0.0), 1.0)
    return 1.0 - np.sqrt(overlap)


def _cat_complement(n_system: int) -> np.ndarray:
    """Orthonormal basis of the subspace orthogonal to the cat state."""
    psi = cat_state(n_system)
    proj = np.eye(psi.size, dtype=complex) - np.outer(psi, psi.conj())
    vals, vecs = np.linalg.eigh(proj)
    return vecs[:, vals > 0.5]


def _infidelity_from_unitary(u: np.ndarray, cfg: BenchConfig) -> float:
    """1 - <cat|rho_out|cat> without forming rho_out.

    The overlap deficit equals the weight the evolved initial state leaks
    into the cat-orthogonal system subspace.  Summing those squared
    amplitudes directly avoids the catastrophic cancellation that hits
    1 - overlap once the loss approaches machine precision.
    """
    d_b = 2 ** cfg.n_bath
    leak = np.kron(_cat_complement(cfg.n_system).conj().T,
                   np.eye(d_b)) @ u
    if cfg.bath_state == "pure_sample":
        psi0 = np.zeros(u.shape[0], dtype=complex)
        psi0[:d_b] = _bath_pure_vector(cfg)
        infid = float(np.linalg.norm(leak @ psi0) ** 2)
    else:
        # initial system state |0...0> occupies the first d_b joint columns
        infid = float(np.linalg.norm(leak[:, :d_b]) ** 2) / d_b
    return min(infid, 1.0)


@dataclass(frozen=True)
class BenchmarkRecord:
    a_value: float
    epsilon: float
    mode: str
    fidelity_loss: float
    slot_count: int
    wall_time_s: float


def output_state(cfg: BenchConfig, a_value: float, epsilon: float,
                 mode: str) -> np.ndarray:
    """System density matrix after the compiled circuit, bath traced out."""
    seq = compile_circuit(cat_circuit(cfg.n_system), mode, cfg.n_system,
                          cfg.tau, cfg.shape, epsilon)
    em = build_bath_hamiltonian(cfg, a_value)
    u = propagate(seq, em)
    d_s = 2 ** cfg.n_system
    rho_sys0 = np.zeros((d_s, d_s), dtype=complex)
    rho_sys0[0, 0] = 1.0
    rho0 = np.kron(rho_sys0, bath_density(cfg))
    return partial_trace_bath(u @ rho0 @ u.conj().T, cfg.n_system)


def run_point(cfg: BenchConfig, a_value: float, epsilon: float,
              mode: str) -> BenchmarkRecord:
    """Compile, propagate exactly, and score one sweep point.

    The loss matches fidelity_loss(output_state(...)) but is evaluated
    through the leaked amplitudes so values far below 1 stay resolved.
    """
    t0 = time.perf_counter()
    seq = compile_circuit(cat_circuit(cfg.n_system), mode, cfg.n_system,
                          cfg.tau, cfg.shape, epsilon)
    em = build_bath_hamiltonian(cfg, a_value)
    u = propagate(seq, em)
    infid = _infidelity_from_unitary(u, cfg)
    loss = float(-np.expm1(0.5 * np.log1p(-infid))) if infid < 1.0 else 1.0
    return BenchmarkRecord(a_value, epsilon, mode, loss, seq.slot_count,
                           time.perf_counter() - t0)


CSV_COLUMNS = "epsilon,mode,A,fidelity_loss,slot_count,wall_time_s"


def csv_header(cfg: BenchConfig) -> str:
    return "\n".join([
        "# cat-state benchmark sweep",
        f"# config_hash={cfg.digest()} seed={cfg.seed}",
        "# conventions: tau=1 time unit; bath spins are Pauli vectors; "
        "loss = 1 - sqrt(<cat|rho_out|cat>)",
        CSV_COLUMNS,
    ]) + "\n"


def format_record(rec: BenchmarkRecord) -> str:
    return ",".join([
        repr(rec.epsilon), rec.mode, repr(rec.a_value),
        repr(rec.fidelity_loss), str(rec.slot_count),
        f"{rec.wall_time_s:.3f}"]) + "\n"


def sweep(cfg: BenchConfig, stream: io.TextIOBase | None = None
          ) -> list[BenchmarkRecord]:
    """Evaluate the full grid in deterministic order, flushing per record.

    Order: epsilon ascending, mode alphabetical, coupling descending; the
    CSV is bit-reproducible apart from the wall-time column.
    """
    if stream is not None:
        stream.write(csv_header(cfg))
        stream.flush()
    records = []
    for epsilon in sorted(cfg.epsilon_values):
        for mode in sorted(cfg.modes):
            for a_value in sorted(cfg.a_values, reverse=True):
                rec = run_point(cfg, a_value, epsilon, mode)
                records.append(rec)
                if stream is not None:
                    stream.write(format_record(rec))
                    stream.flush()
    return records
