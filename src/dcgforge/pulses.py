"""Bounded-strength control pulses, sequences, and their serialization.

A sequence is a flat list of timed segments.  Segments that share the exact
same time window act in parallel (on disjoint qubits), which is how collective
pulses are represented.  Amplitudes are angular rates; the pulse area
``phi = integral of the profile`` is the rotation parameter, and a segment's
intended action is ``exp(-i * phi * G)`` for its generator ``G``.

Two sequence builders form the matched-error pair used by the corrected-gate
compiler: an identity echo (a gate followed by its time-reversed, negated
copy) and the same gate stretched to the echo's duration at half amplitude.
Both last ``2*tau`` and both pick up the same first-order error phase under
any static system-bath Hamiltonian, while only the second one rotates.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .operators import embed_pauli, expm_unitary, pauli_string_matrix


@dataclass(frozen=True)
class PulseShape:
    """Normalized profile on [0, 1] with its integral and peak cached."""

    name: str
    value: Callable[[float], float]
    integral: float
    peak: float
    cumulative: Callable[[float], float]


def _tri_value(s: float) -> float:
    return 2.0 * min(s, 1.0 - s) if 0.0 <= s <= 1.0 else 0.0


def _tri_cumulative(s: float) -> float:
    s = min(max(s, 0.0), 1.0)
    if s <= 0.5:
        return s * s
    return 2.0 * s - s * s - 0.5


RECTANGULAR = PulseShape(
    name="rectangular",
    value=lambda s: 1.0 if 0.0 <= s <= 1.0 else 0.0,
    integral=1.0,
    peak=1.0,
    cumulative=lambda s: min(max(s, 0.0), 1.0),
)

TRIANGULAR = PulseShape(
    name="triangular",
    value=_tri_value,
    integral=0.5,
    peak=1.0,
    cumulative=_tri_cumulative,
)

SHAPES = {s.name: s for s in (RECTANGULAR, TRIANGULAR)}


@dataclass(frozen=True)
class Generator:
    """Control generator: single-qubit x/y, two-qubit zz, or an idle marker."""

    kind: str
    qubits: tuple[int, ...]

    _KINDS = {"x": 1, "y": 1, "zz": 2, "noop": 1}

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if len(self.qubits) != self._KINDS[self.kind]:
            raise ValueError(f"{self.kind} generator needs "
                             f"{self._KINDS[self.kind]} qubit(s), got {self.qubits}")
        if self.kind == "zz" and self.qubits[0] == self.qubits[1]:
            raise ValueError("zz generator needs two distinct qubits")

    def matrix(self, n_system: int) -> np.ndarray:
        dim = 2 ** n_system
        if self.kind == "noop":
            return np.zeros((dim, dim), dtype=complex)
        if self.kind in ("x", "y"):
            return embed_pauli(self.kind, self.qubits[0], n_system)
        letters = ["i"] * n_system
        for q in self.qubits:
            if not 0 <= q < n_system:
                raise ValueError(f"qubit {q} outside register of {n_system}")
            letters[q] = "z"
        return pauli_string_matrix("".join(letters))


def x_on(qubit: int) -> Generator:
    return Generator("x", (qubit,))


def y_on(qubit: int) -> Generator:
    return Generator("y", (qubit,))


def zz_on(qubit_a: int, qubit_b: int) -> Generator:
    return Generator("zz", (qubit_a, qubit_b))


def noop_on(qubit: int) -> Generator:
    return Generator("noop", (qubit,))


@dataclass(frozen=True)
class ControlSegment:
    """One timed pulse: ``H_ctrl(t) = amplitude*(1+epsilon)*h(s) * G``.

    ``s`` is the fraction elapsed within the segment; ``time_reversed`` plays
    the shape backwards.  ``epsilon`` is a systematic relative amplitude error
    applied to the realized profile but never to the intended action.
    """

    t_start: float
    duration: float
    generator: Generator
    amplitude: float
    shape: PulseShape = RECTANGULAR
    time_reversed: bool = False
    epsilon: float = 0.0

    def __post_init__(self):
        if not 0 < self.duration < np.inf:
            raise ValueError("segment duration must be positive and finite, "
                             f"got {self.duration}")
        if not np.isfinite(self.amplitude):
            raise ValueError("segment amplitude must be finite")
        if not np.isfinite(self.epsilon):
            raise ValueError("segment epsilon must be finite")

    @property
    def t_end(self) -> float:
        return self.t_start + self.duration

    @property
    def area(self) -> float:
        """Intended pulse area (epsilon excluded); reversal preserves it."""
        return self.amplitude * self.duration * self.shape.integral

    def profile_value(self, t: float, realized: bool = True) -> float:
        """Control amplitude at absolute time ``t`` (0 outside the window)."""
        if not self.t_start <= t <= self.t_end:
            return 0.0
        s = (t - self.t_start) / self.duration
        if self.time_reversed:
            s = 1.0 - s
        scale = (1.0 + self.epsilon) if realized else 1.0
        return self.amplitude * scale * self.shape.value(s)

    def accumulated_area(self, t: float, realized: bool = True) -> float:
        """Area accumulated from the segment start up to absolute time ``t``."""
        if t <= self.t_start:
            return 0.0
        s = min((t - self.t_start) / self.duration, 1.0)
        if self.time_reversed:
            frac = self.shape.integral - self.shape.cumulative(1.0 - s)
        else:
            frac = self.shape.cumulative(s)
        scale = (1.0 + self.epsilon) if realized else 1.0
        return self.amplitude * scale * self.duration * frac


@dataclass(frozen=True)
class PulseSequence:
    """Time-ordered collection of segments on an ``n_system``-qubit register.

    Segments sharing an identical time window run in parallel; windows must
    tile ``[0, total_duration]`` without gaps and without partial overlap.
    ``slot_duration`` is the bookkeeping unit tau used for slot counting.
    """

    segments: tuple[ControlSegment, ...]
    n_system: int
    slot_duration: float

    def __post_init__(self):
        if not self.segments:
            raise ValueError("sequence needs at least one segment")
        if not self.slot_duration > 0:
            raise ValueError("slot duration must be positive")
        self.windows()  # raises on malformed layouts

    @property
    def total_duration(self) -> float:
        return max(s.t_end for s in self.segments)

    @property
    def slot_count(self) -> int:
        return int(round(self.total_duration / self.slot_duration))

    def windows(self) -> list[tuple[float, float, tuple[ControlSegment, ...]]]:
        """Group segments into aligned parallel windows, in time order."""
        groups: dict[tuple[float, float], list[ControlSegment]] = {}
        for seg in self.segments:
            groups.setdefault((seg.t_start, seg.t_end), []).append(seg)
        keys = sorted(groups)
        tol = 1e-9 * max(1.0, self.slot_duration)
        if abs(keys[0][0]) > tol:
            raise ValueError(f"sequence must start at t=0, got {keys[0][0]}")
        for (a0, a1), (b0, b1) in zip(keys, keys[1:]):
            if abs(b0 - a1) > tol:
                raise ValueError(
                    f"windows [{a0},{a1}] and [{b0},{b1}] are not contiguous")
        return [(k[0], k[1], tuple(groups[k])) for k in keys]

    def with_epsilon(self, epsilon: float) -> "PulseSequence":
        segs = tuple(replace(s, epsilon=epsilon) for s in self.segments)
        return replace(self, segments=segs)


def concatenate(sequences, n_system: int, slot_duration: float) -> PulseSequence:
    """Join sequences end to end, shifting each to start where the last ended."""
    segs = []
    offset = 0.0
    for seq in sequences:
        for s in seq.segments:
            segs.append(replace(s, t_start=s.t_start + offset))
        offset += seq.total_duration
    return PulseSequence(tuple(segs), n_system, slot_duration)


def matched_gate_sequence(theta: float, tau: float, generator: Generator,
                          n_system: int, shape: PulseShape = RECTANGULAR,
                          epsilon: float = 0.0) -> PulseSequence:
    """Single stretched pulse: amplitude ``theta`` for ``2*tau``.

    Intended action exp(-i * 2*tau*theta*shape.integral * G).  Its first-order
    error phase equals that of ``matched_identity_sequence`` with the same
    arguments.
    """
    seg = ControlSegment(0.0, 2 * tau, generator, theta, shape, False, epsilon)
    return PulseSequence((seg,), n_system, tau)


def matched_identity_sequence(theta: float, tau: float, generator: Generator,
                              n_system: int, shape: PulseShape = RECTANGULAR,
                              epsilon: float = 0.0) -> PulseSequence:
    """Identity echo: forward lobe at ``+2*theta``, reversed lobe at ``-2*theta``.

    Each lobe lasts ``tau``, so the first lobe alone implements the same
    rotation as ``matched_gate_sequence`` and the second undoes it exactly
    (including any systematic amplitude error, which cancels between lobes).
    The doubled lobe amplitude is what makes the accumulated-area histogram,
    and hence the first-order error phase, agree with the stretched pulse.
    """
    lobe1 = ControlSegment(0.0, tau, generator, 2 * theta, shape, False, epsilon)
    lobe2 = ControlSegment(tau, tau, generator, -2 * theta, shape, True, epsilon)
    return PulseSequence((lobe1, lobe2), n_system, tau)


def primitive_gate(generator: Generator, area: float, duration: float,
                   n_system: int, shape: PulseShape = RECTANGULAR,
                   epsilon: float = 0.0, t_start: float = 0.0) -> ControlSegment:
    """Segment with amplitude chosen so the pulse area equals ``area``."""
    if shape.integral == 0:
        raise ValueError("shape with zero integral cannot set a pulse area")
    if duration <= 0:
        raise ValueError("pulse duration must be positive")
    amplitude = area / (duration * shape.integral)
    return ControlSegment(t_start, duration, generator, amplitude, shape,
                          False, epsilon)


def intended_unitary(seq: PulseSequence) -> np.ndarray:
    """Product of intended window unitaries (system space, epsilon = 0).

    Parallel segments within a window act on disjoint qubits in every
    compiled sequence, so the window action is exp(-i sum_k area_k G_k).
    """
    dim = 2 ** seq.n_system
    u = np.eye(dim, dtype=complex)
    for _, _, segs in seq.windows():
        h = np.zeros((dim, dim), dtype=complex)
        for s in segs:
            if s.generator.kind != "noop":
                h = h + s.area * s.generator.matrix(seq.n_system)
        u = expm_unitary(h) @ u
    return u


def validate(seq: PulseSequence, tau_min: float, h_max: float) -> list[str]:
    """Constraint report; empty means compliant.

    Checks the minimum switching time and the closed amplitude bound
    ``|amplitude*(1+epsilon)|*peak <= h_max`` on the realized profile.
    """
    report = []
    tol = 1e-12 * max(1.0, tau_min)
    for k, s in enumerate(seq.segments):
        if s.duration < tau_min - tol:
            report.append(
                f"segment {k}: duration {s.duration:g} below tau_min {tau_min:g}")
        realized_peak = abs(s.amplitude * (1.0 + s.epsilon)) * s.shape.peak
        if realized_peak > h_max * (1 + 1e-12):
            report.append(
                f"segment {k}: peak amplitude {realized_peak:g} exceeds "
                f"h_max {h_max:g}")
    return report


def format_sequence(seq: PulseSequence) -> str:
    """Serialize one segment per line, tab-separated.

    Columns: t_start t_end generator qubits amplitude shape reversed epsilon.
    A leading comment line carries the register size and slot duration so the
    text round-trips through :func:`parse_sequence`.
    """
    lines = [f"# n_system={seq.n_system} slot_duration={seq.slot_duration!r}"]
    lines.append("# t_start\tt_end\tgenerator\tqubits\tamplitude\tshape"
                 "\treversed\tepsilon")
    for s in seq.segments:
        qubits = ",".join(str(q) for q in s.generator.qubits)
        lines.append("\t".join([
            repr(s.t_start), repr(s.t_end), s.generator.kind, qubits,
            repr(s.amplitude), s.shape.name, str(int(s.time_reversed)),
            repr(s.epsilon)]))
    return "\n".join(lines) + "\n"


def parse_sequence(text: str) -> PulseSequence:
    """Inverse of :func:`format_sequence`."""
    n_system = None
    slot_duration = None
    segments = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            for token in line[1:].split():
                if token.startswith("n_system="):
                    n_system = int(token.split("=", 1)[1])
                elif token.startswith("slot_duration="):
                    slot_duration = float(token.split("=", 1)[1])
            continue
        fields = line.split("\t")
        if len(fields) != 8:
            raise ValueError(f"expected 8 tab-separated fields, got {len(fields)}")
        t0, t1 = float(fields[0]), float(fields[1])
        qubits = tuple(int(q) for q in fields[3].split(","))
        gen = Generator(fields[2], qubits)
        shape = SHAPES.get(fields[5])
        if shape is None:
            raise ValueError(f"unknown shape {fields[5]!r}")
        segments.append(ControlSegment(
            t_start=t0, duration=t1 - t0, generator=gen,
            amplitude=float(fields[4]), shape=shape,
            time_reversed=bool(int(fields[6])), epsilon=float(fields[7])))
    if n_system is None or slot_duration is None:
        raise ValueError("missing '# n_system=... slot_duration=...' header")
    return PulseSequence(tuple(segments), n_system, slot_duration)
