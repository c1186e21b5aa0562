"""CLI subcommands, exit codes, and output formats."""
import subprocess
import sys

import numpy as np
import pytest

from dcgforge import cli
from dcgforge.cli import main
from dcgforge.compiler import compile_circuit, parse_gate
from dcgforge.pulses import parse_sequence


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 2


def test_verify_passes(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert out.count("pass") >= 8


def test_sweep_roundtrip(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("n_bath = 2\na_values = 1e-2\nmodes = primitive\n")
    out_path = tmp_path / "out.csv"
    assert main(["sweep", "--config", str(cfg),
                 "--output", str(out_path)]) == 0
    lines = out_path.read_text().splitlines()
    assert lines[3] == "epsilon,mode,A,fidelity_loss,slot_count,wall_time_s"
    row = lines[4].split(",")
    assert row[1] == "primitive" and row[4] == "14"
    assert 0.0 < float(row[3]) < 1.0
    # stdout variant
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert "epsilon,mode,A" in capsys.readouterr().out


def test_sweep_missing_config(tmp_path, capsys):
    assert main(["sweep", "--config", str(tmp_path / "nope.cfg")]) == 2
    assert "config error" in capsys.readouterr().err


def test_sweep_bad_config(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    for text in ("warp_factor = 9\n", "gamma = nan\n", "tau = nan\n",
                 "n_system = 0\n", "a_values = nan\n",
                 "epsilon_values = nan\n", "n_bath = -1\n",
                 "n_bath = 30\nbath_state = pure_sample\n"):
        cfg.write_text(text)
        assert main(["sweep", "--config", str(cfg)]) == 2, text
        captured = capsys.readouterr()
        assert "config error" in captured.err
        assert captured.out == ""  # rejected before the CSV header


def test_compile_output_parses_back(tmp_path):
    out_path = tmp_path / "seq.txt"
    assert main(["compile", "--gate", "zz:0,1:0.4", "--mode", "dcg",
                 "--tau", "0.5", "--output", str(out_path)]) == 0
    seq = parse_sequence(out_path.read_text())
    expected = compile_circuit([parse_gate("zz:0,1:0.4")], "dcg", 2, 0.5)
    assert seq == expected
    assert seq.slot_count == 16


def test_compile_primitive_stdout(capsys):
    assert main(["compile", "--gate", "hadamard:0", "--mode",
                 "primitive"]) == 0
    out = capsys.readouterr().out
    seq = parse_sequence(out)
    assert seq.slot_count == 2


def test_compile_bad_gate(capsys):
    assert main(["compile", "--gate", "h:0", "--mode", "dcg"]) == 2
    assert "config error" in capsys.readouterr().err
    assert main(["compile", "--gate", "zz:0,1", "--mode", "dcg"]) == 2
    assert main(["compile", "--gate", "x:0:0.5", "--mode", "dcg",
                 "--epsilon", "nan"]) == 2
    assert main(["compile", "--gate", "x:0:0.5", "--mode", "primitive",
                 "--tau", "inf"]) == 2
    assert capsys.readouterr().out == ""


def test_epg_csv(capsys):
    assert main(["epg", "--gate", "zz:0,1:0.6", "--mode", "primitive",
                 "--tau-sweep", "0.25:0.0625:3", "--bath-qubits", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "tau,epg_exact,epg_first_order,residual"
    rows = [[float(tok) for tok in line.split(",")] for line in lines[1:]]
    assert len(rows) == 3
    taus = [r[0] for r in rows]
    assert taus == pytest.approx(list(np.geomspace(0.25, 0.0625, 3)))
    # primitive EPG shrinks with the slot duration
    assert rows[0][1] > rows[1][1] > rows[2][1] > 0


def test_epg_bad_tau_sweep(capsys):
    assert main(["epg", "--gate", "zz:0,1:0.6", "--mode", "dcg",
                 "--tau-sweep", "0.25:0.0625"]) == 2
    assert main(["epg", "--gate", "zz:0,1:0.6", "--mode", "dcg",
                 "--tau-sweep", "0.25:0.0625:1"]) == 2
    assert main(["epg", "--gate", "borked", "--mode", "dcg",
                 "--tau-sweep", "0.25:0.0625:3"]) == 2
    assert main(["epg", "--gate", "zz:0,1:0.6", "--mode", "dcg",
                 "--tau-sweep", "nan:0.1:2"]) == 2
    assert main(["epg", "--gate", "zz:0,1:0.6", "--mode", "dcg",
                 "--tau-sweep", "0.25:0.0625:3", "--coupling", "nan"]) == 2
    assert main(["epg", "--gate", "zz:0,1:0.6", "--mode", "dcg",
                 "--tau-sweep", "0.25:0.0625:3", "--bath-norm", "inf"]) == 2


def test_epg_bad_bath_size(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("model built for a rejected size")

    monkeypatch.setattr(cli, "random_error_model", refuse)
    # 13 system + 2 bath qubits: joint dimension 2**15
    assert main(["epg", "--gate", "x:12:0.5", "--mode", "primitive",
                 "--tau-sweep", "0.25:0.0625:3"]) == 2
    assert main(["epg", "--gate", "x:0:0.5", "--mode", "primitive",
                 "--tau-sweep", "0.1:0.05:2", "--bath-qubits", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("config error") == 2
    assert captured.out == ""


def test_epg_flags_rows_outside_small_phase_regime(capsys):
    # norm_bound 8 times durations 4 and 8: far beyond pi
    assert main(["epg", "--gate", "x:0:0.5", "--mode", "primitive",
                 "--coupling", "2", "--bath-norm", "2",
                 "--tau-sweep", "4:8:2"]) == 0
    captured = capsys.readouterr()
    warnings = captured.err.splitlines()
    assert len(warnings) == 2
    assert warnings[0].startswith("warning: tau=4.0:")
    assert warnings[1].startswith("warning: tau=8.0:")
    lines = captured.out.splitlines()
    assert lines[0] == "tau,epg_exact,epg_first_order,residual"
    assert len(lines) == 3
    # the default grid on a 3-qubit CNOT peaks at norm_bound * duration 3.0
    assert main(["epg", "--gate", "cnot:0,2", "--mode", "dcg",
                 "--tau-sweep", "0.0625:0.0009765625:7"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert len(captured.out.splitlines()) == 8


def test_console_script_runs():
    proc = subprocess.run([sys.executable, "-m", "dcgforge.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip()
