"""Command line interface tests."""

import csv
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import avgcell
from avgcell.cli import main
from avgcell.engine import SimulationResult

from conftest import BUCK, BUCK_DIODE, FLYBACK

ARGS = ["-D", "0.5", "--fs", "100e3", "--t-end", "5e-4"]
NETLISTS = Path(__file__).resolve().parents[1] / "netlists"


@pytest.fixture
def buck_file(tmp_path):
    path = tmp_path / "buck.net"
    path.write_text(BUCK)
    return path


def run_cli(*args):
    return main([str(a) for a in args])


def read_rows(path):
    with open(path, newline="") as handle:
        return [row for row in csv.reader(handle) if not row[0].startswith("#")]


def test_successful_run_writes_outputs(tmp_path, buck_file):
    out = tmp_path / "results"
    assert run_cli(buck_file, *ARGS, "--out", out) == 0
    assert (out / "averaged.csv").exists()
    assert (out / "instantaneous.csv").exists()
    assert (out / "stats.txt").exists()
    assert not (out / "oracle.csv").exists()


def test_averaged_csv_row_count_and_time_axis(tmp_path, buck_file):
    out = tmp_path / "results"
    run_cli(buck_file, *ARGS, "--out", out)
    rows = read_rows(out / "averaged.csv")
    header, data = rows[0], rows[1:]
    assert header[:2] == ["n", "t_start"]
    assert len(data) == 51  # initial state row plus 50 periods
    assert data[0][0] == "0" and float(data[0][1]) == 0.0
    assert data[1][0] == "1" and float(data[1][1]) == 0.0
    assert float(data[2][1]) == pytest.approx(1e-5)


def test_csv_is_deterministic_and_round_trips(tmp_path, buck_file):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    run_cli(buck_file, *ARGS, "--out", out1)
    run_cli(buck_file, *ARGS, "--out", out2)
    first = (out1 / "averaged.csv").read_bytes()
    assert first == (out2 / "averaged.csv").read_bytes()
    # 17 significant digits round-trip through float exactly
    rows = read_rows(out1 / "averaged.csv")
    value = float(rows[2][3])
    assert repr(float(repr(value))) == repr(value)


def test_param_directive_supplies_defaults(tmp_path):
    path = tmp_path / "buck.net"
    path.write_text(".param D=0.5 fs=100e3 tend=5e-4\n" + BUCK)
    out = tmp_path / "results"
    assert run_cli(path, "--out", out) == 0
    assert len(read_rows(out / "averaged.csv")) == 52  # header + 51


def test_cli_flags_override_param_directive(tmp_path):
    path = tmp_path / "buck.net"
    path.write_text(".param D=0.5 fs=100e3 tend=5e-3\n" + BUCK)
    out = tmp_path / "results"
    assert run_cli(path, "--t-end", "1e-4", "--out", out) == 0
    assert len(read_rows(out / "averaged.csv")) == 12  # header + initial + 10


def test_missing_frequency_is_usage_error(tmp_path, buck_file, capsys):
    assert run_cli(buck_file, "-D", "0.5", "--t-end", "1e-3") == 1
    assert "--fs" in capsys.readouterr().err


@pytest.mark.parametrize(
    "fs, t_end, message",
    [
        ("100e3", "1e-7", "run covers no complete switching period"),
        ("1e200", "1e200", "too many periods"),
        # numpy refuses the run's arrays before allocating any.
        ("1e300", "1e-4", "cannot hold"),
    ],
)
def test_impossible_run_length_is_usage_error(tmp_path, buck_file, capsys,
                                              fs, t_end, message):
    code = run_cli(buck_file, "-D", "0.5", "--fs", fs, "--t-end", t_end,
                   "--out", tmp_path / "results")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and message in err


@pytest.mark.parametrize(
    "t_end, periods",
    [("1.234e-5", "1.234"), ("1.6e-5", "1.5999999999999999"), ("1.4e-5", "1.4"),
     ("5.004e-3", "500.4")],
)
def test_a_run_of_part_of_a_period_is_usage_error(tmp_path, buck_file, capsys,
                                                  t_end, periods):
    """A --t-end that is not a whole number of periods is refused, with its
    period count, not rounded; no file is written."""
    out = tmp_path / "results"
    code = run_cli(buck_file, "-D", "0.5", "--fs", "100e3", "--t-end", t_end, "--out", out)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and f" is {periods} periods" in err
    assert not out.exists()


def test_bad_duty_is_usage_error(buck_file):
    assert run_cli(buck_file, "-D", "1.5", "--fs", "100e3", "--t-end", "1e-3") == 1


def test_unknown_flag_is_usage_error(buck_file):
    assert run_cli(buck_file, "--frobnicate") == 1


def test_parse_error_reports_line(tmp_path, capsys):
    path = tmp_path / "bad.net"
    path.write_text("VDC 1 1 0 10.0\nXYZ 1 1 0 5.0\n")
    assert run_cli(path, *ARGS) == 2
    assert "line 2" in capsys.readouterr().err


def test_validation_failure_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.net"
    path.write_text("VDC 1 1 0 10.0\nVDC 2 1 0 5.0\nSCN 1 1 0 2 1e-5 0\nR 1 2 0 5\n")
    assert run_cli(path, *ARGS) == 2
    assert "voltage source loop" in capsys.readouterr().err


@pytest.mark.parametrize("oracle", [[], ["--oracle"]], ids=["averaged", "oracle"])
def test_shorted_capacitor_exits_two_and_writes_nothing(tmp_path, capsys, oracle):
    path = tmp_path / "shorted.net"
    path.write_text(BUCK + "C 9 2 2 1e-6 0\n")
    out = tmp_path / "results"
    assert run_cli(path, *ARGS, "--out", out, *oracle) == 2
    assert capsys.readouterr().err == f"error: {path}: C9: both terminals on node 2\n"
    assert not out.exists()


def test_circuit_without_a_cell_exits_two(tmp_path, capsys):
    path = tmp_path / "nocell.net"
    path.write_text("VDC 1 1 0 10.0\nR 1 1 0 5.0\n")
    assert run_cli(path, *ARGS) == 2
    assert capsys.readouterr().err == f"error: {path}: no switching cell in circuit\n"


@pytest.mark.parametrize(
    "text, lines",
    [
        ("SCN 1 1 2 3 10e-6 0\nR 1 1 3 5.0\n", ["no element references ground node 0"]),
        ("SCN 1 1 0 2 10e-6 0\nR 1 3 4 5.0\n",
         ["nodes not connected to ground: [3, 4]", "SCN1: terminal node 1 touches no other element", "SCN1: terminal node 2 touches no other element"]),
        ("SCN 1 1 0 2 0.0 0\nR 1 3 4 5.0\n",
         ["nodes not connected to ground: [3, 4]", "SCN1: non-positive inductance",
          "SCN1: terminal node 1 touches no other element", "SCN1: terminal node 2 touches no other element"]),
    ],
    ids=["ungrounded", "disconnected", "several-faults"],
)
def test_ground_and_connectivity_faults_exit_two(tmp_path, capsys, text, lines):
    """validate alone owns ground and connectivity: one fault prints its
    one line, and a netlist with several prints every diagnostic."""
    path = tmp_path / "bad.net"
    path.write_text(text)
    assert run_cli(path, *ARGS) == 2
    assert capsys.readouterr().err == "".join(f"error: {path}: {line}\n" for line in lines)


def test_missing_file_exits_two(tmp_path, capsys):
    path = tmp_path / "nope.net"
    with pytest.raises(OSError) as reading:
        path.read_text()
    assert run_cli(path, *ARGS) == 2
    assert capsys.readouterr().err == f"error: cannot read {path}: {reading.value}\n"


def test_out_naming_a_file_exits_one_and_writes_nothing(tmp_path, buck_file, capsys):
    out = tmp_path / "taken"
    out.write_text("kept\n")
    assert run_cli(buck_file, *ARGS, "--out", out) == 1
    assert capsys.readouterr().err.startswith("error: cannot write output:")
    assert out.read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["buck.net", "taken"]


def test_empty_signal_filter_exits_two(tmp_path, buck_file, capsys):
    out = tmp_path / "results"
    code = run_cli(buck_file, *ARGS, "--out", out, "--signals", "zz*")
    assert code == 2
    assert "no signals matched" in capsys.readouterr().err


def test_signal_filter_selects_columns(tmp_path, buck_file):
    out = tmp_path / "results"
    run_cli(buck_file, *ARGS, "--out", out, "--signals", "v(2)")
    rows = read_rows(out / "instantaneous.csv")
    assert rows[0] == ["t", "v(2)"]


def test_stats_report_steady_state(tmp_path):
    path = tmp_path / "buck.net"
    path.write_text(BUCK)
    out = tmp_path / "results"
    run_cli(path, "-D", "0.5", "--fs", "100e3", "--t-end", "5e-3", "--out", out)
    stats_text = (out / "stats.txt").read_text()
    values = {}
    for line in stats_text.splitlines():
        if line.startswith("#"):
            continue
        name, rest = line.split(" ", 1)
        values[name] = dict(kv.split("=") for kv in rest.split())
    assert float(values["v(2)"]["mean"]) == pytest.approx(5.0, rel=1e-2)
    assert float(values["iL(SCN1)"]["mean"]) == pytest.approx(5.0, rel=1e-2)


# 3e-4 s is 29.999999999999996 periods of 1e-5 s: a whole number of periods
# to rounding, which the window ends with, not at --t-end.
@pytest.mark.parametrize("t_end, periods", [("3e-4", 30)])
def test_stats_window_ends_with_the_simulated_periods(
    tmp_path, buck_file, t_end, periods
):
    out = tmp_path / "results"
    assert run_cli(buck_file, "-D", "0.5", "--fs", "100e3", "--t-end", t_end,
                   "--out", out) == 0
    header = (out / "stats.txt").read_text().splitlines()[0]
    t_from, t_to = (float(t) for t in header.split("[")[1].split("]")[0].split(","))
    assert t_to == pytest.approx(periods * 1e-5, rel=1e-12)
    assert t_from == pytest.approx(0.9 * periods * 1e-5, rel=1e-12)
    assert len(read_rows(out / "averaged.csv")) == 1 + 1 + periods


@pytest.mark.parametrize("fraction", ["nan", "0", "1.5", "1e-300"])
def test_stats_window_outside_unit_interval_is_usage_error(
    tmp_path, buck_file, capsys, fraction
):
    code = run_cli(buck_file, *ARGS, "--out", tmp_path / "results",
                   "--stats-window", fraction)
    assert code == 1
    assert "usage error:" in capsys.readouterr().err


@pytest.mark.parametrize("window", ["0.1", "6e-17"])
def test_stats_window_ends_where_the_waveforms_end(tmp_path, buck_file, window):
    """Six periods of 1e-5 s: 6 * 1e-5 = 6.000000000000001e-05 is an ulp
    past 5 * 1e-5 + 1e-5, where the waveforms end.  The window ends where
    they do, so even one that starts an ulp before its end covers them."""
    out = tmp_path / "results"
    code = run_cli(buck_file, "-D", "0.5", "--fs", "100e3", "--t-end", "6e-5",
                   "--out", out, "--stats-window", window)
    assert code == 0
    header = (out / "stats.txt").read_text().splitlines()[0]
    t_from, t_to = (float(t) for t in header.split("[")[1].split("]")[0].split(","))
    t_last = float(read_rows(out / "instantaneous.csv")[-1][0])
    assert t_from < t_to == t_last == 5 * 1e-5 + 1e-5 != 6 * 1e-5


def test_non_finite_reconstruction_is_numerical_error(tmp_path, buck_file, capsys):
    """At 1e300 Hz the period's square underflows to zero, so the output
    ripple is not finite: exit 3 naming the signal, and no output files."""
    code = run_cli(buck_file, "-D", "0.5", "--fs", "1e300", "--t-end", "1e-299",
                   "--out", tmp_path / "results")
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "v(2)" in err
    assert "Warning" not in err
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("duty", [[], ["-D", "1"]], ids=["netlist-duty", "duty-1"])
def test_non_finite_system_is_numerical_error(tmp_path, capsys, duty):
    """At L = 1e-320 H, T_s / L overflows and the system matrix is not
    finite: exit 3 saying so, and no output files.  It read as a pivot of
    -inf below tolerance, and at D = 1 as a residual nan over a bound nan."""
    netlists = Path(__file__).resolve().parents[1] / "netlists"
    netlist = tmp_path / "tiny_l.net"
    netlist.write_text((netlists / "buck_dcm.net").read_text().replace("10e-6", "1e-320"))
    code = run_cli(netlist, *duty, "--out", tmp_path / "results")
    assert code == 3
    assert capsys.readouterr().err == "error: the system matrix A is not finite\n"
    assert not (tmp_path / "results").exists()


def test_overflowing_run_is_numerical_error_without_warnings(tmp_path, capsys):
    """A 1e308 V source overflows the bootstrap's solve: exit 3 with the
    residual error alone.  numpy warned on the way there, from the solve,
    the E x product and the residual check."""
    netlist = tmp_path / "overflow.net"
    netlist.write_text("VDC 1 1 0 1e308\nSCN 1 1 0 2 1e-9 0\nC 1 2 0 1e-4 0\nR 1 2 0 1e-3\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(netlist, "-D", "0.5", "--fs", "100e3", "--t-end", "2e-5",
                       "--out", tmp_path / "results")
    assert code == 3
    assert capsys.readouterr().err == "error: residual nan exceeds stability bound inf\n"
    assert [str(w.message) for w in caught] == []
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("fs", ["1e150", "1e160"])
def test_stats_of_tiny_signals_keep_their_rms(tmp_path, buck_file, fs):
    """At these frequencies every signal is below 1e-144 and a period below
    1e-149 s, so the squared coefficients times powers of time underflow in
    seconds and volts: every rms read 0, and v(2)'s mean lost digits at
    1e160 Hz.  Each rms is nonzero and at least |mean|, and the mean of
    v(2) is -7.7 V at the scale of the current."""
    out = tmp_path / "results"
    t_end = repr(20 / float(fs))
    assert run_cli(buck_file, "-D", "0.5", "--fs", fs, "--t-end", t_end, "--out", out) == 0
    lines = (out / "stats.txt").read_text().splitlines()[1:]
    values = {}
    for line in lines:
        name, *fields = line.split()
        values[name] = {k: float(v) for k, v in (f.split("=") for f in fields)}
    assert sorted(values) == ["iL(SCN1)", "v(2)"]
    for stat in values.values():
        assert stat["rms"] > 0.0 and stat["rms"] >= abs(stat["mean"])
    scale = values["iL(SCN1)"]["mean"] / 2.5
    assert values["v(2)"]["mean"] == pytest.approx(-7.7 * scale, rel=1e-6)


def test_oracle_substeps_below_minimum_is_usage_error(tmp_path, buck_file, capsys):
    code = run_cli(buck_file, *ARGS, "--out", tmp_path / "results",
                   "--oracle", "--oracle-substeps", "50")
    assert code == 1
    assert "usage error:" in capsys.readouterr().err
    assert not (tmp_path / "results").exists()


def test_oracle_too_long_to_hold_writes_no_file(tmp_path, buck_file, capsys):
    """The oracle's samples for 10 periods at 1e11 substeps cannot be held
    (numpy refuses them before allocating any): a usage error, and no
    output directory, though the averaged run succeeded."""
    code = run_cli(buck_file, "-D", "0.5", "--fs", "100e3", "--t-end", "1e-4",
                   "--out", tmp_path / "results",
                   "--oracle", "--oracle-substeps", "100000000000")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "cannot hold 10 periods" in err
    assert not (tmp_path / "results").exists()


def test_singular_oracle_writes_no_file(tmp_path, buck_file, capsys, monkeypatch):
    def singular(circuit, config, oracle_config):
        raise avgcell.SingularSystem("switched network is singular")

    monkeypatch.setattr(avgcell.oracle, "simulate_switched", singular)
    code = run_cli(buck_file, *ARGS, "--out", tmp_path / "results", "--oracle")
    assert code == 3
    assert capsys.readouterr().err.startswith("error: oracle: switched network")
    assert not (tmp_path / "results").exists()


def test_oracle_outputs_and_comparison(tmp_path, buck_file):
    out = tmp_path / "results"
    code = run_cli(
        buck_file, "-D", "0.5", "--fs", "100e3", "--t-end", "2e-4",
        "--out", out, "--oracle", "--oracle-substeps", "200",
    )
    assert code == 0
    assert (out / "oracle.csv").exists()
    compare = (out / "compare.txt").read_text()
    assert "v(2)" in compare and "max_rel_dev=" in compare
    rows = read_rows(out / "oracle.csv")
    assert rows[0] == ["t", "i(VDC1)", "iL(SCN1)", "v(1)", "v(2)"]
    assert len(rows) == 1 + 20 * 200 + 1  # header + samples


def test_oracle_starts_with_capacitors_in_parallel(tmp_path):
    """The oracle's t = 0 operating point pins a capacitor only where the
    sources and the capacitors pinned before it leave its nodes untied, so
    it starts with an input capacitor across the source, which changes no
    compared average, and with a second output capacitor beside the first,
    which compares as one capacitor of their summed capacitance."""
    args = ["-D", "0.5", "--fs", "100e3", "--t-end", "2e-4", "--oracle",
            "--oracle-substeps", "100"]
    netlists = {
        "plain": BUCK,
        "input": BUCK + "C 9 1 0 1e-5 10\n",
        "parallel": BUCK + "C 9 2 0 3.3e-5 0\n",
        "summed": BUCK.replace("C 1 2 0 1e-4 0", "C 1 2 0 1.33e-4 0"),
    }
    compare = {}
    for name, text in netlists.items():
        path = tmp_path / f"{name}.net"
        path.write_text(text)
        assert run_cli(path, *args, "--out", tmp_path / name) == 0
        compare[name] = (tmp_path / name / "compare.txt").read_text()
    assert compare["input"] == compare["plain"]
    assert compare["parallel"] == compare["summed"] != compare["plain"]


@pytest.mark.parametrize("oracle_args", [[], ["--oracle", "--oracle-substeps", "100"]])
def test_outputs_are_written_from_the_result_columns(
    tmp_path, buck_file, monkeypatch, oracle_args
):
    """No writer builds PeriodRecords: every file comes from the columns."""

    def no_records(self):
        raise AssertionError("SimulationResult.records was read")

    monkeypatch.setattr(SimulationResult, "records", property(no_records))
    out = tmp_path / "results"
    assert run_cli(buck_file, *ARGS, "--out", out, *oracle_args) == 0
    assert (out / "compare.txt").exists() == bool(oracle_args)


def test_flagged_average_only_signal(tmp_path):
    path = tmp_path / "flyback.net"
    path.write_text(FLYBACK)
    out = tmp_path / "results"
    run_cli(path, *ARGS, "--out", out)
    text = (out / "instantaneous.csv").read_text()
    assert text.startswith("# v(2): averaged-only")


def test_dcm_refine_flag_accepted(tmp_path):
    path = tmp_path / "buck.net"
    path.write_text(BUCK_DIODE)
    out = tmp_path / "results"
    assert run_cli(path, *ARGS, "--out", out, "--dcm-refine") == 0


def test_python_dash_m_runs_the_cli():
    src = str(Path(avgcell.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "avgcell", "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "--oracle" in done.stdout


@pytest.mark.parametrize("fault, code", [("", 0), ("C 9 2 2 1e-6 0\n", 2)],
                         ids=["buck", "shorted-capacitor"])
def test_python_dash_m_exits_with_the_run_code(tmp_path, fault, code):
    """``python -m avgcell`` exits with the code of the run: 0 on
    netlists/buck.net, 2 on it with a shorted capacitor, writing nothing."""
    src = Path(avgcell.__file__).resolve().parents[1]
    path = tmp_path / "buck.net"
    path.write_text((NETLISTS / "buck.net").read_text() + fault)
    out = tmp_path / "results"
    done = subprocess.run(
        [sys.executable, "-m", "avgcell", str(path), "--out", str(out)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=60,
    )
    assert done.returncode == code, done.stderr
    assert (out / "averaged.csv").exists() == (code == 0)
    assert done.stderr == ("" if code == 0 else f"error: {path}: C9: both terminals on node 2\n")


# Run in a fresh interpreter: the oracle is imported only once a run uses it.
LAZY_ORACLE = """
import sys
from pathlib import Path

import avgcell
from avgcell import cli

netlist, out = Path(sys.argv[1]), Path(sys.argv[2])
config = avgcell.SimConfig(0.5, 100e3, 1e-4)
avgcell.run(avgcell.parse_netlist(netlist.read_text()), config)
assert cli.main([str(netlist), "--t-end", "1e-4", "--out", str(out / "plain")]) == 0
assert "avgcell.oracle" not in sys.modules
assert cli.main([str(netlist), "--t-end", "1e-4", "--oracle", "--out", str(out / "oracle")]) == 0
assert "avgcell.oracle" in sys.modules
from avgcell import simulate_switched
assert simulate_switched is sys.modules["avgcell.oracle"].simulate_switched
assert all(hasattr(avgcell, name) for name in avgcell.__all__)
"""


def test_the_oracle_is_imported_only_for_a_run_that_uses_it(tmp_path):
    """After ``import avgcell``, a run() and a CLI call without --oracle,
    the oracle module is not loaded; --oracle loads it, and every name of
    ``__all__``, the oracle's included, can be read off the package."""
    src = Path(avgcell.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", LAZY_ORACLE, str(NETLISTS / "buck.net"), str(tmp_path)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "oracle" / "compare.txt").exists()


@pytest.mark.parametrize("oracle", [[], ["--oracle"]], ids=["averaged", "oracle"])
def test_a_dangling_cell_terminal_exits_two(tmp_path, capsys, oracle):
    """netlists/flyback.net with its source moved to nodes 2 and 0 leaves
    the flyback's active terminal, node 1, on no other element: the averaged
    run once gave a plausible answer and the oracle's t = 0 operating point
    was singular.  Both exit 2 naming the cell and the node, and write
    nothing."""
    path = tmp_path / "flyback.net"
    text = (NETLISTS / "flyback.net").read_text()
    path.write_text(text.replace("VDC 1 1 0 10.0", "VDC 1 2 0 10.0"))
    out = tmp_path / "results"
    assert run_cli(path, *ARGS, "--out", out, *oracle) == 2
    err = capsys.readouterr().err
    assert err == f"error: {path}: FBN1: terminal node 1 touches no other element\n"
    assert not out.exists()


def test_capacitor_written_ground_first_reports_the_same_voltage(tmp_path):
    """``C 1 0 2`` is ``C 1 2 0``: the same v(2), ripple included, in every
    output file, the oracle's included, bit for bit."""
    outputs = []
    reversed_ = BUCK.replace("C 1 2 0 1e-4", "C 1 0 2 1e-4")
    for name, text in (("forward", BUCK), ("reversed", reversed_)):
        netlist = tmp_path / f"{name}.net"
        netlist.write_text(text)
        out = tmp_path / name
        args = ("-D", "0.5", "--fs", "100e3", "--t-end", "2e-3", "--oracle", "--out", out)
        assert run_cli(netlist, *args) == 0
        files = ("averaged.csv", "instantaneous.csv", "stats.txt", "oracle.csv", "compare.txt")
        outputs.append([(out / f).read_text() for f in files])
    assert outputs[0] == outputs[1]
    assert "v(2) mean=4.99835935 min=4.13131432 max=5.78734548" in outputs[1][2]
