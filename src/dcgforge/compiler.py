"""Gate compilation: primitive slots, corrected-gate wrapping, circuits.

A primitive is one time slot of predetermined control and may drive several
repertoire Hamiltonians simultaneously on distinct qubits (the collective
pi-pulses do exactly this).  The corrected compilation maps the Eulerian
path of the modified Cayley graph onto pulses: generator edges become
collective pi-pulses of one slot, identity-block edges become the
two-lobe echo of the gate's own generators, and the final gate-block edge
becomes the stretched gate, for 16 slots per primitive.  Every block is
built by the ``pulses`` builders (``primitive_gate`` for slots and
pi-pulses, ``matched_identity_sequence`` / ``matched_gate_sequence`` for the
echo and the stretched gate) and blocks are joined with ``concatenate``.
Idle qubits carry explicit zero-amplitude segments so every window covers
the full register.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import pi

import numpy as np

from . import graphs
from .operators import expm_unitary
from .pulses import (Generator, PulseSequence, PulseShape, RECTANGULAR,
                     concatenate, matched_gate_sequence,
                     matched_identity_sequence, noop_on, primitive_gate, x_on,
                     y_on, zz_on)

HADAMARD_MATRIX = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
CNOT_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


@dataclass(frozen=True)
class Gate:
    """Circuit-level gate: named two-level gates plus bare rotations.

    ``angle`` is the pulse area of a bare rotation exp(-i*angle*G); it is
    ignored for hadamard, cnot, and noop.
    """

    kind: str
    qubits: tuple[int, ...]
    angle: float = 0.0

    _ARITY = {"hadamard": 1, "cnot": 2, "x": 1, "y": 1, "zz": 2, "noop": 0}

    def __post_init__(self):
        if self.kind not in self._ARITY:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        want = self._ARITY[self.kind]
        if want and len(self.qubits) != want:
            raise ValueError(f"{self.kind} takes {want} qubit(s), "
                             f"got {self.qubits}")


@dataclass(frozen=True)
class PrimitiveSpec:
    """One slot of control: simultaneous (generator, area) actions."""

    actions: tuple[tuple[Generator, float], ...]

    def __post_init__(self):
        seen = []
        for gen, _ in self.actions:
            for q in gen.qubits:
                if q in seen:
                    raise ValueError("simultaneous actions must act on "
                                     "disjoint qubits")
                seen.append(q)


def embed_gate(u: np.ndarray, qubits: tuple[int, ...],
               n_system: int) -> np.ndarray:
    """Lift a k-qubit unitary acting on ``qubits`` to the full register."""
    k = len(qubits)
    if u.shape != (2 ** k, 2 ** k):
        raise ValueError("matrix size does not match qubit count")
    tens = u.reshape((2,) * (2 * k))
    full = np.eye(2 ** n_system, dtype=complex).reshape((2,) * (2 * n_system))
    # contract the gate's input axes with the identity's output axes on
    # `qubits`; the result's axes are [gate outputs, untouched outputs, inputs]
    full = np.tensordot(tens, full, axes=(list(range(k, 2 * k)), list(qubits)))
    rest = [q for q in range(n_system) if q not in qubits]
    order = [
        qubits.index(q) if q in qubits else k + rest.index(q)
        for q in range(n_system)
    ]
    order += [n_system + q for q in range(n_system)]
    full = np.transpose(full, order)
    return full.reshape(2 ** n_system, 2 ** n_system)


def gate_unitary(gate: Gate, n_system: int) -> np.ndarray:
    """Target unitary of a circuit gate on the full register."""
    if gate.kind == "noop":
        return np.eye(2 ** n_system, dtype=complex)
    if gate.kind == "hadamard":
        return embed_gate(HADAMARD_MATRIX, gate.qubits, n_system)
    if gate.kind == "cnot":
        return embed_gate(CNOT_MATRIX, gate.qubits, n_system)
    gen = Generator(gate.kind, gate.qubits)
    return expm_unitary(gate.angle * gen.matrix(n_system))


def decompose_gate(gate: Gate) -> list[PrimitiveSpec]:
    """Fixed decompositions into repertoire primitives.

    Hadamard costs two slots (y then x).  CNOT costs six slots with one slot
    driving both qubits at once; the product equals CNOT up to the global
    phase exp(-i*pi/4).  Bare rotations are already primitive.
    """
    q = pi / 4
    if gate.kind == "hadamard":
        (i,) = gate.qubits
        return [
            PrimitiveSpec(((y_on(i), q),)),
            PrimitiveSpec(((x_on(i), pi / 2),)),
        ]
    if gate.kind == "cnot":
        c, t = gate.qubits
        return [
            PrimitiveSpec(((x_on(t), q),)),
            PrimitiveSpec(((y_on(t), -q),)),
            PrimitiveSpec(((zz_on(c, t), -q),)),
            PrimitiveSpec(((y_on(t), q), (x_on(c), -q))),
            PrimitiveSpec(((y_on(c), q),)),
            PrimitiveSpec(((x_on(c), q),)),
        ]
    if gate.kind == "noop":
        return [PrimitiveSpec(())]
    gen = Generator(gate.kind, gate.qubits)
    return [PrimitiveSpec(((gen, gate.angle),))]


def spec_unitary(spec: PrimitiveSpec, n_system: int) -> np.ndarray:
    dim = 2 ** n_system
    h = np.zeros((dim, dim), dtype=complex)
    for gen, area in spec.actions:
        h = h + area * gen.matrix(n_system)
    return expm_unitary(h)


def _block(segments, windows, n_system, tau, shape, epsilon):
    """Run ``segments`` in parallel and give every qubit they leave idle a
    zero-amplitude segment in each ``(t_start, duration)`` window."""
    busy = {q for s in segments for q in s.generator.qubits}
    idle = [primitive_gate(noop_on(q), 0.0, dt, n_system, shape, epsilon, t0)
            for t0, dt in windows for q in range(n_system) if q not in busy]
    return PulseSequence(tuple(segments) + tuple(idle), n_system, tau)


def _primitive_slot(spec, n_system, tau, shape, epsilon):
    segments = [primitive_gate(gen, area, tau, n_system, shape, epsilon)
                for gen, area in spec.actions]
    return _block(segments, ((0.0, tau),), n_system, tau, shape, epsilon)


def _pi_pulse_slot(axis, n_system, tau, shape, epsilon):
    """Collective pi-pulse: every qubit rotates by pi about ``axis``."""
    gen_of = {"X": x_on, "Y": y_on}[axis]
    spec = PrimitiveSpec(tuple((gen_of(q), pi / 2) for q in range(n_system)))
    return _primitive_slot(spec, n_system, tau, shape, epsilon)


def _matched_block(builder, spec, n_system, tau, shape, epsilon):
    """One matched-pair sequence per action, all in parallel, over 2*tau."""
    parts = [builder(area / (2 * tau * shape.integral), tau, gen, n_system,
                     shape, epsilon)
             for gen, area in spec.actions]
    windows = [(s.t_start, s.duration) for s in parts[0].segments]
    return _block([s for part in parts for s in part.segments], windows,
                  n_system, tau, shape, epsilon)


def compile_noop(n_system: int, tau: float, shape: PulseShape = RECTANGULAR,
                 epsilon: float = 0.0) -> PulseSequence:
    """Idle decoupling: the 8-edge Eulerian cycle as collective pi-pulses."""
    rep = graphs.dd_group_z2z2(n_system)
    walk = graphs.eulerian_cycle(graphs.cayley_graph(rep))
    return concatenate(
        [_pi_pulse_slot(edge.label, n_system, tau, shape, epsilon)
         for edge in walk.edges], n_system, tau)


def compile_dcg_spec(spec: PrimitiveSpec, n_system: int, tau: float,
                     shape: PulseShape = RECTANGULAR,
                     epsilon: float = 0.0) -> PulseSequence:
    """Corrected version of one primitive slot: 16 slots per the walk."""
    if not spec.actions:
        return compile_noop(n_system, tau, shape, epsilon)
    rep = graphs.dd_group_z2z2(n_system)
    graph = graphs.modify_graph_for_gate(graphs.cayley_graph(rep))
    walk = graphs.eulerian_path(graph)
    blocks = []
    for edge in walk.edges:
        if edge.label in rep.generators:
            blocks.append(_pi_pulse_slot(edge.label, n_system, tau, shape,
                                         epsilon))
        else:
            builder = (matched_identity_sequence
                       if edge.label == graphs.M_I_LABEL
                       else matched_gate_sequence)
            blocks.append(_matched_block(builder, spec, n_system, tau, shape,
                                         epsilon))
    return concatenate(blocks, n_system, tau)


def compile_dcg(gate: Gate, n_system: int, tau: float,
                shape: PulseShape = RECTANGULAR,
                epsilon: float = 0.0) -> PulseSequence:
    """Corrected single-generator gate (or idle); 16 slots, 8 for noop."""
    if gate.kind == "noop":
        return compile_noop(n_system, tau, shape, epsilon)
    if gate.kind in ("hadamard", "cnot"):
        raise ValueError(f"{gate.kind} is not primitive; use compile_circuit")
    gen = Generator(gate.kind, gate.qubits)
    spec = PrimitiveSpec(((gen, gate.angle),))
    return compile_dcg_spec(spec, n_system, tau, shape, epsilon)


def compile_circuit(circuit: list[Gate], mode: str, n_system: int,
                    tau: float, shape: PulseShape = RECTANGULAR,
                    epsilon: float = 0.0) -> PulseSequence:
    """Concatenate compiled gates: one slot per primitive, or 16 corrected.

    ``mode`` is "primitive" or "dcg".  Gates are decomposed first, so a
    circuit with Hadamard and CNOT gates costs 2 and 6 primitives each.
    """
    compile_spec = {"primitive": _primitive_slot,
                    "dcg": compile_dcg_spec}.get(mode)
    if compile_spec is None:
        raise ValueError(f"unknown mode {mode!r}")
    blocks = [compile_spec(spec, n_system, tau, shape, epsilon)
              for gate in circuit for spec in decompose_gate(gate)]
    if not blocks:
        raise ValueError("empty circuit compiles to no segments")
    return concatenate(blocks, n_system, tau)


def circuit_unitary(circuit: list[Gate], n_system: int) -> np.ndarray:
    """Product of the ideal gate unitaries, first gate acting first."""
    u = np.eye(2 ** n_system, dtype=complex)
    for gate in circuit:
        u = gate_unitary(gate, n_system) @ u
    return u


def parse_gate(text: str) -> Gate:
    """Parse 'kind:qubits[:angle]', e.g. 'cnot:0,1' or 'x:0:0.7854'."""
    parts = text.strip().split(":")
    if not parts or not parts[0]:
        raise ValueError("empty gate spec")
    kind = parts[0].lower()
    qubits = ()
    if len(parts) > 1 and parts[1]:
        qubits = tuple(int(tok) for tok in parts[1].split(","))
    angle = float(parts[2]) if len(parts) > 2 else 0.0
    if kind in ("x", "y", "zz") and len(parts) < 3:
        raise ValueError(f"{kind} gate spec needs an angle, e.g. '{kind}:0:0.785'")
    return Gate(kind, qubits, angle)
