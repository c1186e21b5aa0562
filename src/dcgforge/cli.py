"""Command-line front end.

Subcommands:
  sweep    run the cat-state benchmark grid from a config file, emit CSV
  verify   run the fast invariant checks
  compile  emit the pulse-sequence serialization for one gate
  epg      error-per-gate versus slot duration, emit CSV

Exit codes: 0 success, 1 invariant or runtime failure, 2 config error.
"""
from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext

import numpy as np

from . import __version__
from .bench import parse_config, sweep
from .compiler import compile_circuit, parse_gate
from .dynamics import check_dense_dim, error_phase, random_error_model
from .operators import spectral_norm
from .pulses import SHAPES, format_sequence
from .verify import run_checks


def _open_output(path: str):
    if path == "-":
        return nullcontext(sys.stdout)
    return open(path, "w")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcg-forge",
        description="compile and benchmark dynamically corrected gates")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="run the benchmark grid, emit CSV")
    p.add_argument("--config", required=True, help="key=value config file")
    p.add_argument("--output", default="-", help="CSV path (default stdout)")

    sub.add_parser("verify", help="run the fast invariant checks")

    p = sub.add_parser("compile", help="emit a compiled pulse sequence")
    p.add_argument("--gate", required=True,
                   help="kind:qubits[:angle], e.g. cnot:0,1 or zz:0,1:0.4")
    p.add_argument("--mode", required=True, choices=("primitive", "dcg"))
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--shape", default="rectangular", choices=sorted(SHAPES))
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--output", default="-")

    p = sub.add_parser("epg", help="error per gate vs slot duration")
    p.add_argument("--gate", required=True)
    p.add_argument("--mode", required=True, choices=("primitive", "dcg"))
    p.add_argument("--tau-sweep", required=True, metavar="START:STOP:POINTS",
                   help="geometric tau grid, e.g. 0.0625:0.0009765625:7")
    p.add_argument("--shape", default="rectangular", choices=sorted(SHAPES))
    p.add_argument("--bath-qubits", type=int, default=2)
    p.add_argument("--coupling", type=float, default=0.05,
                   help="spectral norm of each system-bath coupling")
    p.add_argument("--bath-norm", type=float, default=0.05,
                   help="spectral norm of the bath Hamiltonian")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default="-")
    return parser


def _cmd_sweep(args) -> int:
    try:
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        with _open_output(args.output) as out:
            sweep(cfg, out)
    except ValueError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_compile(args) -> int:
    try:
        gate = parse_gate(args.gate)
        n_system = max(gate.qubits, default=0) + 1
        seq = compile_circuit([gate], args.mode, n_system, args.tau,
                              SHAPES[args.shape], args.epsilon)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    with _open_output(args.output) as out:
        out.write(format_sequence(seq))
    return 0


def _parse_tau_sweep(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("tau sweep needs start:stop:points")
    start, stop, points = float(parts[0]), float(parts[1]), int(parts[2])
    if not (np.isfinite(start) and np.isfinite(stop)):
        raise ValueError("tau sweep bounds must be finite")
    if start <= 0 or stop <= 0 or points < 2:
        raise ValueError("tau sweep needs positive taus and >= 2 points")
    return np.geomspace(start, stop, points)


def _cmd_epg(args) -> int:
    try:
        gate = parse_gate(args.gate)
        taus = _parse_tau_sweep(args.tau_sweep)
        if not (np.isfinite(args.coupling) and np.isfinite(args.bath_norm)):
            raise ValueError("--coupling and --bath-norm must be finite")
        if args.bath_qubits < 0:
            raise ValueError("--bath-qubits must be >= 0")
        n_system = max(gate.qubits, default=0) + 1
        check_dense_dim(n_system + args.bath_qubits)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    rng = np.random.default_rng(args.seed)
    em = random_error_model(n_system, args.bath_qubits, rng,
                            coupling=args.coupling, bath=args.bath_norm)
    with _open_output(args.output) as out:
        out.write("tau,epg_exact,epg_first_order,residual\n")
        for tau in (float(t) for t in taus):
            seq = compile_circuit([gate], args.mode, n_system, tau,
                                  SHAPES[args.shape])
            phase_bound = em.norm_bound * seq.total_duration
            if phase_bound >= np.pi:
                # beyond pi the exact phase is a principal logarithm that
                # may have wrapped, so it is no longer comparable
                print(f"warning: tau={tau!r}: norm_bound * duration = "
                      f"{phase_bound:.3g} >= pi, outside the small-phase "
                      "regime; epg_exact may be a wrapped phase",
                      file=sys.stderr)
            report = error_phase(seq, em)
            residual = spectral_norm(report.phi_exact
                                     - report.phi_first_order)
            out.write(f"{tau!r},{report.epg_exact!r},"
                      f"{report.epg_first!r},{residual!r}\n")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "verify":
        return 1 if run_checks() else 0
    if args.command == "compile":
        return _cmd_compile(args)
    return _cmd_epg(args)


if __name__ == "__main__":
    sys.exit(main())
