"""Spans around the package's public functions, for the traced run.

The tracer wraps functions and methods of the six layers (``compiler``,
``graphs``, ``pulses``, ``operators``, ``dynamics``, ``bench``) at run time,
from outside the package: nothing under ``src/`` knows about it.  Each call
made inside an op gets a span with name, parent, start and end; the op's own
span is the root.  A few functions that run hundreds of times per op are only
counted, which keeps the tracing overhead down.  Spans stay in memory until
the run writes them out.
"""
from __future__ import annotations

import json
import sys
import types
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from dcgforge import bench, compiler, dynamics, graphs, operators, pulses
from workloads import MODES

ROOT = "op"


def _segments(args, result):
    return len(result.segments)


def _length(args, result):
    return len(result)


def _text_length(args, result):
    return len(args[0])


def _matrix_dim(args, result):
    return args[1].shape[0]


def _model_dim(args, result):
    return args[1].dim


# (span name, owner, attribute, note).  The note turns a call's arguments
# and result into the number the span keeps, such as a dimension or a size.
SPANNED = (
    ("compiler.compile_circuit", compiler, "compile_circuit", _segments),
    ("compiler.compile_dcg_spec", compiler, "compile_dcg_spec", None),
    ("compiler.compile_noop", compiler, "compile_noop", None),
    ("compiler.decompose_gate", compiler, "decompose_gate", None),
    ("graphs.dd_group_z2z2", graphs, "dd_group_z2z2", None),
    ("graphs.cayley_graph", graphs, "cayley_graph", None),
    ("graphs.modify_graph_for_gate", graphs, "modify_graph_for_gate", None),
    ("graphs.eulerian_path", graphs, "eulerian_path", None),
    ("graphs.eulerian_cycle", graphs, "eulerian_cycle", None),
    ("pulses.windows", pulses.PulseSequence, "windows", _length),
    ("pulses.intended_unitary", pulses, "intended_unitary", None),
    ("pulses.format_sequence", pulses, "format_sequence", _length),
    ("pulses.parse_sequence", pulses, "parse_sequence", _text_length),
    ("operators.evolution", operators.HermitianEvolution, "__init__",
     _matrix_dim),
    ("operators.hermitian_log", operators, "hermitian_log", None),
    ("operators.spectral_norm", operators, "spectral_norm", None),
    ("dynamics.propagate", dynamics, "propagate", _model_dim),
    ("dynamics.first_order_phase", dynamics, "first_order_phase", None),
    ("dynamics.error_phase", dynamics, "error_phase", None),
    ("dynamics.error_hamiltonian", dynamics.ErrorModel, "hamiltonian", None),
    ("bench.run_point", bench, "run_point", None),
    ("bench.build_bath_hamiltonian", bench, "build_bath_hamiltonian", None),
)

COUNTED = (
    ("operators.is_hermitian_calls", operators, "is_hermitian"),
    ("pulses.generator_matrix_calls", pulses.Generator, "matrix"),
    ("linalg.eigh_calls", np.linalg, "eigh"),
)

# Per-op layer metrics and their units.  Times are seconds; "self" times
# exclude the spans a call made.  products_gflop is computed as 8*d**3 real
# flops per joint product, not measured.
UNITS = {
    "compiler.compile_s": "s",
    "compiler.self_s": "s",
    "compiler.segments": "count",
    "graphs.walk_builds": "count",
    "graphs.walk_s": "s",
    "graphs.self_s": "s",
    "pulses.windows_calls": "count",
    "pulses.windows_s": "s",
    "pulses.generator_matrix_calls": "count",
    "pulses.intended_unitary_s": "s",
    "pulses.wire_s": "s",
    "pulses.wire_bytes": "bytes",
    "pulses.self_s": "s",
    "operators.evolution_calls": "count",
    "operators.evolution_s": "s",
    "operators.spectral_norm_s": "s",
    "operators.hermitian_log_s": "s",
    "operators.is_hermitian_calls": "count",
    "operators.self_s": "s",
    "linalg.eigh_calls": "count",
    "dynamics.joint_dim": "dim",
    "dynamics.windows": "count",
    "dynamics.distinct_windows": "count",
    "dynamics.window_cache_hit_ratio": "ratio",
    "dynamics.products_gflop": "GFLOP_computed",
    "dynamics.propagate_s": "s",
    "dynamics.propagate_self_s": "s",
    "dynamics.error_hamiltonian_s": "s",
    "dynamics.first_order_s": "s",
    "dynamics.error_phase_self_s": "s",
    "dynamics.self_s": "s",
    "bench.point_s": "s",
    "bench.score_s": "s",
    "bench.model_build_s": "s",
    "bench.self_s": "s",
    "op.self_s": "s",
}


class Tracer:
    """Records spans and counts for calls made inside ``op()`` blocks.

    Each span is ``[name, parent index, start, end, note]`` in one flat list;
    an op's spans follow its root span.  Calls made outside an op, such as
    the output checks, pass straight through.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.roots: list[int] = []
        self.modes: list[str] = []
        self.counts: list[dict[str, int]] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    @contextmanager
    def op(self, mode: str):
        index = len(self.spans)
        record = [ROOT, -1, perf_counter(), 0.0, 0]
        self.spans.append(record)
        self.roots.append(index)
        self.modes.append(mode)
        self.counts.append(defaultdict(int))
        self._stack.append(index)
        try:
            yield
        finally:
            record[3] = perf_counter()
            self._stack.pop()

    def _spanned(self, fn, name, note):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            record = [name, stack[-1], perf_counter(), 0.0, 0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                stack.pop()
            if note is not None:
                record[4] = note(args, result)
            return result
        return wrapper

    def _counted(self, fn, name):
        stack, counts = self._stack, self.counts

        def wrapper(*args, **kwargs):
            if stack:
                counts[-1][name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Replace each target wherever the package or numpy refers to it.

        Modules import names from each other, so a function is patched in
        every ``dcgforge`` namespace that holds the same object.
        """
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "dcgforge" or n.startswith("dcgforge.")]
        targets = []
        for name, owner, attr, note in SPANNED:
            original = getattr(owner, attr)
            targets.append((owner, attr, original,
                            self._spanned(original, name, note)))
        for name, owner, attr in COUNTED:
            original = getattr(owner, attr)
            targets.append((owner, attr, original,
                            self._counted(original, name)))
        for owner, attr, original, wrapper in targets:
            holders = [owner]
            if isinstance(owner, types.ModuleType):
                holders += [m for m in namespaces if m is not owner
                            and getattr(m, attr, None) is original]
            for holder in holders:
                self._restore.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            holder, attr, original = self._restore.pop()
            setattr(holder, attr, original)

    def op_spans(self, k: int) -> list[tuple]:
        """Spans of op ``k``, root first, as ``(name, parent, start, end,
        note)`` with parent indices counted from the root (-1 for it)."""
        root = self.roots[k]
        end = self.roots[k + 1] if k + 1 < len(self.roots) else len(self.spans)
        return [(name, parent - root if parent >= 0 else -1, start, stop, note)
                for name, parent, start, stop, note in self.spans[root:end]]

    def write(self, path) -> None:
        """One JSON line per op: its mode, counts and spans."""
        with open(path, "w") as fh:
            for k in range(len(self.roots)):
                fh.write(json.dumps({"op": k, "mode": self.modes[k],
                                     "counts": self.counts[k],
                                     "spans": self.op_spans(k)}) + "\n")


def self_times(spans: list[tuple]) -> list[float]:
    """Duration of each span minus the part its child spans cover.

    Calls on one thread nest without overlapping, so the children's
    durations add up to the part of the parent they cover.
    """
    covered = [0.0] * len(spans)
    for _, parent, start, end, _ in spans[1:]:
        covered[parent] += end - start
    return [end - start - covered[i]
            for i, (_, _, start, end, _) in enumerate(spans)]


def op_metrics(spans: list[tuple], counts: dict[str, int]) -> dict[str, float]:
    """Every metric in UNITS for one op."""
    selfs = self_times(spans)
    m = dict.fromkeys(UNITS, 0.0)
    for name, _, _ in COUNTED:
        m[name] = float(counts.get(name, 0))
    # per propagate call: windows walked and evolutions built inside it
    windows = defaultdict(int)
    evolutions = defaultdict(int)
    for i, (name, parent, start, end, note) in enumerate(spans):
        duration, own = end - start, selfs[i]
        layer = name.split(".", 1)[0]
        m[f"{layer}.self_s"] += own
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == "compiler.compile_circuit":
            m["compiler.compile_s"] += duration
            m["compiler.segments"] += note
        elif name in ("graphs.eulerian_path", "graphs.eulerian_cycle"):
            m["graphs.walk_builds"] += 1
        elif name == "pulses.windows":
            m["pulses.windows_calls"] += 1
            m["pulses.windows_s"] += duration
            if parent_name == "dynamics.propagate":
                windows[parent] += note
        elif name == "pulses.intended_unitary":
            m["pulses.intended_unitary_s"] += duration
        elif name == "pulses.format_sequence":
            m["pulses.wire_s"] += duration
            m["pulses.wire_bytes"] += note
        elif name == "pulses.parse_sequence":
            m["pulses.wire_s"] += duration
        elif name == "operators.evolution":
            m["operators.evolution_calls"] += 1
            m["operators.evolution_s"] += own
            if parent_name == "dynamics.propagate":
                evolutions[parent] += 1
        elif name == "operators.spectral_norm":
            m["operators.spectral_norm_s"] += duration
        elif name == "operators.hermitian_log":
            m["operators.hermitian_log_s"] += duration
        elif name == "dynamics.propagate":
            m["dynamics.propagate_s"] += duration
            m["dynamics.propagate_self_s"] += own
            m["dynamics.joint_dim"] = max(m["dynamics.joint_dim"], note)
        elif name == "dynamics.error_hamiltonian":
            m["dynamics.error_hamiltonian_s"] += duration
        elif name == "dynamics.first_order_phase":
            m["dynamics.first_order_s"] += duration
        elif name == "dynamics.error_phase":
            m["dynamics.error_phase_self_s"] += own
        elif name == "bench.run_point":
            m["bench.point_s"] += duration
            m["bench.score_s"] += own
        elif name == "bench.build_bath_hamiltonian":
            m["bench.model_build_s"] += duration
        if layer == "graphs" and not parent_name.startswith("graphs."):
            m["graphs.walk_s"] += duration
    for i, n_windows in windows.items():
        dim = spans[i][4]
        m["dynamics.windows"] += n_windows
        m["dynamics.distinct_windows"] += evolutions[i]
        # one product per window, plus two per evolution built: the
        # unitary from the eigenbasis and its product into the window
        m["dynamics.products_gflop"] += \
            8 * dim ** 3 * (n_windows + 2 * evolutions[i]) / 1e9
    if m["dynamics.windows"]:
        m["dynamics.window_cache_hit_ratio"] = (
            1 - m["dynamics.distinct_windows"] / m["dynamics.windows"])
    return m


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Mean per op of every metric in UNITS, split by mode, as
    ``{"<metric>.<mode>": (value, unit)}``."""
    by_mode: dict[str, list[dict]] = defaultdict(list)
    for k, mode in enumerate(tracer.modes):
        by_mode[mode].append(op_metrics(tracer.op_spans(k), tracer.counts[k]))
    out = {}
    for mode in MODES:
        ops = by_mode[mode]
        for name, unit in UNITS.items():
            mean = sum(op[name] for op in ops) / len(ops) if ops else 0.0
            out[f"{name}.{mode}"] = (mean, unit)
    return out
