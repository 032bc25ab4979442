"""Output checks applied to every benchmark job.

Each check returns a list of problems; an empty list means the job's output
is correct.  ``reference.json`` holds engine results recorded for the
committed netlists (written by ``make_reference.py``); a run of a committed
netlist must match it within ``REF_RTOL`` of each signal's full scale, with
an identical conduction-mode sequence.
"""

import json
import math
from array import array
from pathlib import Path

from avgcell.cells import Mode

REFERENCE_FILE = Path(__file__).with_name("reference.json")
REF_RTOL = 1e-9
REF_STRIDE = 25

# Committed netlist -> (transient length [s], dcm_refine) of the recorded
# run.  Shorter benchmark runs of the same netlist compare against a prefix.
REFERENCE_RUNS = {
    "buck.net": (20e-3, False),
    "flyback.net": (20e-3, False),
    "buck_diode.net": (5e-3, False),
    "flyback_diode.net": (5e-3, False),
    "buck_dcm.net": (12e-3, False),
    "buck_dcm.net+refine": (12e-3, True),
}

CELL_FIELDS = ("iS_avg", "iD_avg", "iL0", "iL1", "iL2", "d_p", "vL_avg")

# Criterion-4 steady-state bound of the acceptance suite: model against
# oracle on a run started on its periodic orbit.
STEADY_BOUND = 0.02
# Criterion-4 startup bound: after period 10, with one period of time-base
# tolerance, relative to the oracle's full-scale range.
TRANSIENT_BOUND = 0.05
TRANSIENT_FIRST = 11
STEADY_TAIL = 20  # periods compared at the end of a steady-started run


def reference_key(netlist_name, dcm_refine):
    return netlist_name + ("+refine" if dcm_refine else "")


def signals(result):
    """Every per-period value of a run, keyed by signal name."""
    records = result.records
    out = {}
    for node in sorted(records[0].node_voltages):
        out[f"v({node})"] = [r.node_voltages[node] for r in records]
    for label in records[0].vdc_currents:
        out[f"i({label})"] = [r.vdc_currents[label] for r in records]
    for label in records[0].cells:
        for name in CELL_FIELDS:
            out[f"{label}:{name}"] = [getattr(r.cells[label], name) for r in records]
    for label in records[0].capacitors:
        out[f"{label}:v"] = [r.capacitors[label].v for r in records]
        out[f"{label}:i0_next"] = [r.capacitors[label].i0_next for r in records]
    return out


def modes(result):
    """Conduction-mode sequence per cell, 1 for DCM and 0 for CCM."""
    return {
        label: [int(r.cells[label].mode is Mode.DCM) for r in result.records]
        for label in result.records[0].cells
    }


def run_lengths(sequence):
    runs = []
    for value in sequence:
        if runs and runs[-1][0] == value:
            runs[-1][1] += 1
        else:
            runs.append([value, 1])
    return runs


def expand(runs):
    return [value for value, count in runs for _ in range(count)]


def record_reference(result):
    """Strided samples of every signal plus the full mode sequences."""
    return {
        "periods": len(result.records),
        "stride": REF_STRIDE,
        "signals": {
            name: values[::REF_STRIDE] for name, values in signals(result).items()
        },
        "modes": {label: run_lengths(seq) for label, seq in modes(result).items()},
    }


def load_references():
    return json.loads(REFERENCE_FILE.read_text())


def check_run(result, n_periods, expect_dcm=None, reference=None):
    """Checks every job applies to a ``run()`` result.

    ``expect_dcm`` False requires continuous conduction throughout, True
    requires most cell-periods in discontinuous conduction.
    """
    problems = []
    records = result.records
    if len(records) != n_periods:
        return [f"{len(records)} periods, expected {n_periods}"]
    values = signals(result)
    for name, series in values.items():
        if not all(math.isfinite(v) for v in series):
            problems.append(f"{name}: non-finite value")
    for label in records[0].cells:
        for n in range(1, len(records)):
            if records[n].cells[label].iL0 != records[n - 1].cells[label].iL2:
                problems.append(f"{label}: iL0[{n}] != iL2[{n - 1}]")
                break
    mode_seq = modes(result)
    dcm = sum(sum(seq) for seq in mode_seq.values())
    total = sum(len(seq) for seq in mode_seq.values())
    if expect_dcm is False and dcm:
        problems.append(f"{dcm} DCM cell-periods in a continuous-conduction job")
    if expect_dcm is True and 2 * dcm <= total:
        problems.append(f"only {dcm} of {total} cell-periods in DCM")
    if reference is not None:
        problems += _compare_reference(values, mode_seq, reference)
    return problems


def _compare_reference(values, mode_seq, reference):
    problems = []
    n = len(next(iter(values.values())))
    if n > reference["periods"]:
        return [f"run of {n} periods is longer than the reference"]
    stride = reference["stride"]
    if set(values) != set(reference["signals"]):
        return ["signal set differs from the reference"]
    for name, series in values.items():
        scale = max(max(abs(v) for v in series), 1e-12)
        for k, expected in enumerate(reference["signals"][name]):
            index = k * stride
            if index >= n:
                break
            if abs(series[index] - expected) > REF_RTOL * scale:
                problems.append(
                    f"{name}[{index}] = {series[index]!r}, reference {expected!r}"
                )
                break
    for label, seq in mode_seq.items():
        if seq != expand(reference["modes"][label])[:n]:
            problems.append(f"{label}: mode sequence differs from the reference")
    return problems


def check_steady(model, oracle):
    """Per-period deviation over the last STEADY_TAIL periods, relative to
    the oracle's mean there, below STEADY_BOUND."""
    m, o = model[-STEADY_TAIL:], oracle[-STEADY_TAIL:]
    mean = abs(sum(o) / len(o))
    worst = max(abs(a - b) for a, b in zip(m, o)) / mean
    return [] if worst < STEADY_BOUND else [f"steady deviation {worst:.4g}"]


def check_mean(model, oracle):
    """Mean over the last STEADY_TAIL periods within STEADY_BOUND of the
    oracle's (criterion 4's check of the DCM buck)."""
    m = sum(model[-STEADY_TAIL:]) / STEADY_TAIL
    o = sum(oracle[-STEADY_TAIL:]) / STEADY_TAIL
    dev = abs(m - o) / abs(o)
    return [] if dev < STEADY_BOUND else [f"mean deviation {dev:.4g}"]


def check_startup(model, oracle):
    """Worst deviation from period TRANSIENT_FIRST on, against the oracle's
    nearest of the same and the neighbouring periods, relative to the
    oracle's range, below TRANSIENT_BOUND."""
    scale = max(oracle) - min(oracle)
    worst = 0.0
    for n in range(TRANSIENT_FIRST, len(model)):
        near = min(
            abs(model[n] - oracle[k]) for k in (n - 1, n, n + 1) if k < len(oracle)
        )
        worst = max(worst, near / scale)
    return [] if worst < TRANSIENT_BOUND else [f"startup deviation {worst:.4g}"]


def read_compare(path):
    """compare.txt as {signal name: max_rel_dev}."""
    deviations = {}
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        name, field = line.split()
        deviations[name] = float(field.partition("=")[2])
    return deviations


def read_csv_rows(path):
    """Data rows of a CSV the CLI wrote: comment lines dropped, header
    returned separately."""
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    return lines[0].split(","), [l.split(",") for l in lines[1:]]


def averaged_columns(result):
    """Every column averaged.csv may hold, as arrays over its rows (the
    initial-state solve, then one row per period)."""
    records = [result.bootstrap] + list(result.records)
    columns = {"t_start": [r.t_start for r in records]}
    for node in records[0].node_voltages:
        columns[f"v({node})"] = [r.node_voltages[node] for r in records]
    for label in records[0].vdc_currents:
        columns[f"i({label})"] = [r.vdc_currents[label] for r in records]
    for label in records[0].cells:
        columns[f"{label}:mode"] = [
            float(r.cells[label].mode is Mode.DCM) for r in records
        ]
        for name in CELL_FIELDS:
            columns[f"{label}:{name}"] = [getattr(r.cells[label], name) for r in records]
    return {name: array("d", values) for name, values in columns.items()}


def check_averaged_csv(path, expected):
    """Row count and read-back values of averaged.csv against the API run's
    ``averaged_columns``."""
    header, rows = read_csv_rows(path)
    n_rows = len(expected["t_start"])
    if len(rows) != n_rows:
        return [f"averaged.csv has {len(rows)} rows, expected {n_rows}"]
    if header[0] != "n":
        return [f"averaged.csv: first column {header[0]!r}"]
    unknown = [c for c in header[1:] if c not in expected]
    if unknown:
        return [f"averaged.csv: unknown columns {unknown}"]
    columns = [expected[c] for c in header[1:]]
    for n, row in enumerate(rows):
        if len(row) != len(header) or int(row[0]) != n:
            return [f"averaged.csv row {n}: malformed"]
        for column, field, values in zip(header[1:], row[1:], columns):
            if float(field) != values[n]:
                return [f"averaged.csv row {n} {column}: {field} != {values[n]!r}"]
    return []


def check_instantaneous_csv(path, expected):
    """Breakpoint rows of instantaneous.csv against the API reconstruction.

    ``expected`` maps "t" to the breakpoint times and each signal name to
    its values there, evaluated on the waveforms the public API
    reconstructs for the same run.
    """
    header, rows = read_csv_rows(path)
    if header[0] != "t" or sorted(header) != sorted(expected):
        return [f"instantaneous.csv: columns {header}"]
    columns = [expected[name] for name in header]
    if len(rows) != len(columns[0]):
        return [f"instantaneous.csv has {len(rows)} rows, expected {len(columns[0])}"]
    for k, row in enumerate(rows):
        for name, field, values in zip(header, row, columns):
            if float(field) != values[k]:
                return [f"instantaneous.csv row {k} {name}: {field} != {values[k]!r}"]
    return []


def check_stats(path, expected):
    """stats.txt lines against ``waveform.stats`` on the API waveforms."""
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    if len(lines) != len(expected):
        return [f"stats.txt has {len(lines)} signal lines, expected {len(expected)}"]
    for line in lines:
        name, *fields = line.split()
        want = expected.get(name)
        if want is None:
            return [f"stats.txt: unexpected signal {name}"]
        got = dict(f.split("=") for f in fields)
        for key in ("mean", "min", "max", "rms"):
            value, ref = float(got[key]), getattr(want, key)
            if abs(value - ref) > 1e-8 * max(1.0, abs(ref)):
                return [f"stats.txt {name} {key}={got[key]}, expected {ref!r}"]
    return []
