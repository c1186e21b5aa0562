"""Seeded inputs, ops and output checks for the dcg-forge benchmark.

A workload turns a seed into a pool of ops.  An op is one unit of user work
in one mode, ``primitive`` or ``dcg``; the pool lists every input in both
modes, primitive first, so a run that stops after an even number of ops has
done as many ops of each mode.  Every pool has the same make-up for every
seed (the seed draws values, never the mix of gate kinds, register sizes or
modes), so the cost of a run does not depend on which seed it got.

The ops call the package through its module attributes at call time, so the
traced run sees the wrappers it installs.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dcgforge import bench as dcg_bench
from dcgforge import compiler, dynamics, pulses
from dcgforge.compiler import Gate

WORKLOADS = ("cat_mixed", "cat_pure", "epg_scan", "compile_wire")
MODES = ("primitive", "dcg")

REFERENCES_PATH = Path(__file__).with_name("references.json")

# |value - reference| <= atol + rtol * |reference|.  The absolute part lets
# an exact route that differs in the last bits (another BLAS, thread count or
# the spin-sector route) pass near the ~1e-17 loss floor, where the relative
# difference reaches ~1e-7.
TOLERANCE = {"loss": (1e-20, 1e-6), "epg": (1e-13, 1e-6)}
# The corrected sequences cancel the first-order phase exactly, so what is
# left is roundoff: at most 5.8e-15 over the 16 shipped seeds, checked with
# nearly 10x margin.
DCG_FIRST_ORDER_MAX = 5e-14
# intended_unitary is compared with circuit_unitary up to a global phase on
# registers up to this size.
UNITARY_CHECK_MAX_QUBITS = 4

GATE_KINDS = ("x", "y", "zz", "hadamard", "cnot", "noop")
# Primitive slots per gate kind, from the fixed decompositions.  A corrected
# primitive takes 16 slots, a corrected noop the 8-slot idle cycle.
PRIMITIVES_PER_GATE = {"x": 1, "y": 1, "zz": 1, "hadamard": 2, "cnot": 6,
                       "noop": 1}
# The epg subcommand's default grid: 0.0625 down to 2**-10 in factors of 4,
# inside the small-phase regime.
EPG_TAUS = tuple(float(t) for t in np.geomspace(0.0625, 0.0009765625, 4))
EPG_SYSTEM_QUBITS = (2, 3)
EPG_BATH_QUBITS = 2
EPG_NORM = 0.05
WIRE_SYSTEM_QUBITS = (2, 3, 4, 5, 6)
CAT_EPSILONS = (0.0, 1e-3)


@dataclass(frozen=True)
class Op:
    """One unit of user work.  ``key`` names the input within its pool and
    is what references are keyed by."""

    key: str
    mode: str
    inputs: tuple


def _with_modes(key: str, inputs: tuple) -> list[Op]:
    return [Op(f"{key}|{mode}", mode, inputs) for mode in MODES]


def _random_gate(kind: str, n_system: int, rng: np.random.Generator) -> Gate:
    if kind == "noop":
        return Gate("noop", ())
    arity = 2 if kind in ("zz", "cnot") else 1
    qubits = tuple(int(q) for q in rng.choice(n_system, arity, replace=False))
    angle = float(rng.uniform(-math.pi, math.pi)) if kind in ("x", "y", "zz") \
        else 0.0
    return Gate(kind, qubits, angle)


def _gate_text(gate: Gate) -> str:
    return f"{gate.kind}:" + ",".join(str(q) for q in gate.qubits)


def _cat_pool(seed: int, bath_state: str) -> list[Op]:
    rng = np.random.default_rng(seed)
    cfg = dcg_bench.BenchConfig(bath_state=bath_state, seed=seed)
    grid = [(a, eps) for a in cfg.a_values for eps in CAT_EPSILONS]
    pool = []
    for k in rng.permutation(len(grid)):
        a_value, epsilon = grid[k]
        pool += _with_modes(f"A={a_value!r}|eps={epsilon!r}",
                            (cfg, a_value, epsilon))
    return pool


def _epg_pool(seed: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    pool = []
    for n_system in EPG_SYSTEM_QUBITS:
        model = dynamics.random_error_model(
            n_system, EPG_BATH_QUBITS, rng, coupling=EPG_NORM, bath=EPG_NORM)
        for k in rng.permutation(len(GATE_KINDS)):
            gate = _random_gate(GATE_KINDS[k], n_system, rng)
            for tau in EPG_TAUS:
                pool += _with_modes(
                    f"n={n_system}|{_gate_text(gate)}|tau={tau!r}",
                    (model, gate, n_system, tau))
    return pool


def _wire_pool(seed: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    pool = []
    for n_system in WIRE_SYSTEM_QUBITS:
        circuit = tuple(_random_gate(GATE_KINDS[k], n_system, rng)
                        for k in rng.permutation(len(GATE_KINDS)))
        text = " ".join(_gate_text(g) for g in circuit)
        pool += _with_modes(f"n={n_system}|{text}", (circuit, n_system))
    return pool


def make_pool(workload: str, seed: int) -> list[Op]:
    """The ops of one workload and seed, in the order a run takes them."""
    if workload == "cat_mixed":
        return _cat_pool(seed, "maximally_mixed")
    if workload == "cat_pure":
        return _cat_pool(seed, "pure_sample")
    if workload == "epg_scan":
        return _epg_pool(seed)
    if workload == "compile_wire":
        return _wire_pool(seed)
    raise ValueError(f"unknown workload {workload!r}")


def chunk_size(workload: str, pool: list[Op]) -> int:
    """Ops in the shortest stretch of a run that always holds the same work.

    A cat point costs the same whatever its A, epsilon or bath vector, so
    one primitive-dcg pair is such a stretch; elsewhere the ops differ in
    size and only a whole pass over the pool is.
    """
    return 2 if workload in ("cat_mixed", "cat_pure") else len(pool)


def run_op(workload: str, op: Op):
    """Do the op's user work and return what the user gets back."""
    if workload in ("cat_mixed", "cat_pure"):
        cfg, a_value, epsilon = op.inputs
        return dcg_bench.run_point(cfg, a_value, epsilon, op.mode)
    if workload == "epg_scan":
        model, gate, n_system, tau = op.inputs
        seq = compiler.compile_circuit([gate], op.mode, n_system, tau)
        return seq, dynamics.error_phase(seq, model)
    circuit, n_system = op.inputs
    seq = compiler.compile_circuit(list(circuit), op.mode, n_system, 1.0)
    text = pulses.format_sequence(seq)
    return seq, text, pulses.parse_sequence(text)


def expected_slots(gates, mode: str) -> int:
    slots = 0
    for gate in gates:
        if mode == "primitive":
            slots += PRIMITIVES_PER_GATE[gate.kind]
        elif gate.kind == "noop":
            slots += 8
        else:
            slots += 16 * PRIMITIVES_PER_GATE[gate.kind]
    return slots


def phase_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Spectral distance between two unitaries after aligning global phase."""
    overlap = np.trace(v.conj().T @ u)
    phase = overlap / abs(overlap) if abs(overlap) > 1e-12 else 1.0
    return float(np.linalg.norm(u - phase * v, 2))


def wire_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def reference_values(workload: str, out) -> dict:
    """The values of an output that references record, by name."""
    if workload in ("cat_mixed", "cat_pure"):
        return {"loss": out.fidelity_loss}
    if workload == "epg_scan":
        report = out[1]
        return {"epg_exact": report.epg_exact, "epg_first": report.epg_first}
    return {"wire_sha256": wire_digest(out[1])}


def _within(value: float, ref: float, kind: str) -> bool:
    atol, rtol = TOLERANCE[kind]
    return abs(value - ref) <= atol + rtol * abs(ref)


class Checker:
    """Checks op outputs against shipped references and seed-free invariants.

    ``references`` maps op keys to recorded values, or is None for a seed
    the benchmark ships no references for; the invariants hold for any seed.
    Calling the checker returns None for a good output, else the reason.
    """

    def __init__(self, workload: str, references: dict | None):
        self.workload = workload
        self.references = references
        self._checked_wire: dict[str, str] = {}

    def __call__(self, op: Op, out) -> str | None:
        reason = self._invariants(op, out)
        if reason is None and self.references is not None:
            reason = self._against_reference(op, out)
        return reason

    def _against_reference(self, op: Op, out) -> str | None:
        ref = self.references.get(op.key)
        if ref is None:
            return f"no reference for {op.key}"
        for name, value in reference_values(self.workload, out).items():
            if name == "wire_sha256":
                ok = value == ref[name]
            else:
                ok = _within(value, ref[name],
                             "loss" if name == "loss" else "epg")
            if not ok:
                return f"{name}={value!r} differs from reference {ref[name]!r}"
        return None

    def _invariants(self, op: Op, out) -> str | None:
        if self.workload in ("cat_mixed", "cat_pure"):
            cfg = op.inputs[0]
            if not 0.0 <= out.fidelity_loss <= 1.0:
                return f"loss {out.fidelity_loss!r} outside [0, 1]"
            want = expected_slots(dcg_bench.cat_circuit(cfg.n_system), op.mode)
            if out.slot_count != want:
                return f"{out.slot_count} slots, expected {want}"
            return None
        if self.workload == "epg_scan":
            seq, report = out
            gate = op.inputs[1]
            want = expected_slots([gate], op.mode)
            if seq.slot_count != want:
                return f"{seq.slot_count} slots, expected {want}"
            if not (math.isfinite(report.epg_exact)
                    and math.isfinite(report.epg_first)):
                return "non-finite error per gate"
            if op.mode == "dcg" and report.epg_first > DCG_FIRST_ORDER_MAX:
                return (f"dcg first-order phase {report.epg_first!r} above "
                        f"{DCG_FIRST_ORDER_MAX!r}")
            return None
        return self._wire_invariants(op, out)

    def _wire_invariants(self, op: Op, out) -> str | None:
        seq, text, back = out
        if back != seq:
            return "wire round trip changed the sequence"
        # the remaining checks depend only on the text, so an output equal
        # to one already checked passes them too
        if self._checked_wire.get(op.key) == text:
            return None
        circuit, n_system = op.inputs
        want = expected_slots(circuit, op.mode)
        if seq.slot_count != want:
            return f"{seq.slot_count} slots, expected {want}"
        if n_system <= UNITARY_CHECK_MAX_QUBITS:
            gap = phase_distance(pulses.intended_unitary(seq),
                                 compiler.circuit_unitary(list(circuit),
                                                          n_system))
            if gap > 1e-9:
                return f"intended unitary is {gap:.3g} from the circuit's"
        self._checked_wire[op.key] = text
        return None


def load_references(workload: str, seed: int) -> dict | None:
    """Recorded values for this workload and seed, or None if not shipped.

    ``cat_mixed`` inputs do not depend on the seed beyond their order, so
    its references, stored under ``"*"``, serve every seed.
    """
    with open(REFERENCES_PATH) as fh:
        table = json.load(fh)[workload]
    return table.get("*", table.get(str(seed)))
