"""Record reference results of the averaged engine.

Usage, from the repository root:

    PYTHONPATH=src python3 tests/data/make_engine_reference.py

Runs ``run`` on the five committed netlists at their ``.param`` duty ratio,
switching frequency and duration, on ``buck_dcm.net`` with ``dcm_refine``,
on a two-cell diode cascade that enters discontinuous conduction, and on a
three-stage diode buck and flyback chain started from rest, plain and with
``dcm_refine``, and on eight mixed stages in parallel on one source, plain and
with ``dcm_refine``, and writes ``tests/data/engine_reference.json``.  Each
case stores its netlist
text, run parameters, the bootstrap record and every ``STRIDE``-th period
record (every field, as exact floats), and the mode of every cell in every
period as a string of ``C`` and ``D``.

``tests/test_engine_parity.py`` replays every case and compares.

The script keeps every case already in the file byte for byte and records
only the cases of ``CASES`` the file lacks, so adding a case never moves
the anchor of the others.  To re-record a case, when a change to the
engine's results is intended, delete it from the file and run the script.
"""

import json
import sys
from pathlib import Path

DATA = Path(__file__).resolve().parent
ROOT = DATA.parents[1]
sys.path.insert(0, str(ROOT / "src"))

from avgcell import SimConfig, parse_netlist, run  # noqa: E402
from avgcell.cells import Mode  # noqa: E402

REFERENCE_FILE = DATA / "engine_reference.json"
STRIDE = 10

CELL_FIELDS = ("iL0", "iL1", "iL2", "d_p", "vL1", "vL2", "iS_avg", "iD_avg", "vL_avg")

# Two diode bucks in cascade, lightly loaded so both cells rest at zero
# current for part of every period once the start-up is over.
SCD_CASCADE = """\
VDC 1 1 0 20.0
SCD1 1 1 0 2 10e-6 0
C 1 2 0 1e-4 0
SCD2 2 2 0 3 10e-6 0
C 2 3 0 1e-4 0
R 1 2 0 200.0
R 2 3 0 50.0
"""

# A diode buck feeding a diode flyback (turns ratio 1.7, not a power of
# two) and a second diode buck, all lightly loaded and started from rest:
# the three cells leave continuous conduction in different periods.
MIXED_CHAIN = """\
.param D=0.4 fs=100e3 tend=4e-3
VDC 1 1 0 24.0
SCD1 1 1 0 2 22e-6 0
C 1 2 0 47e-6 0
R 1 2 0 80.0
FBD1 2 1 0 3 15e-6 1.7 0
C 2 3 0 68e-6 0
R 2 3 0 120.0
SCD2 3 2 0 4 33e-6 0
C 3 4 0 33e-6 0
R 3 4 0 150.0
"""

# Eight stages in parallel on one 24 V source, cycling through the four cell
# kinds (flyback turns ratio 1.7), started from rest: a system of order 26.
# The diode stages are loaded lightly enough to leave continuous conduction
# after the start-up, in three different periods.
WIDE_MIX = """\
.param D=0.4 fs=100e3 tend=3e-3
VDC 1 1 0 24.0
SCN1 1 1 0 2 33e-6 0
C 1 2 0 100e-6 0
R 1 2 0 4.0
FBN1 1 1 0 3 27e-6 1.7 0
C 2 3 0 68e-6 0
R 2 3 0 6.0
SCD1 1 1 0 4 22e-6 0
C 3 4 0 47e-6 0
R 3 4 0 80.0
FBD1 1 1 0 5 15e-6 1.7 0
C 4 5 0 68e-6 0
R 4 5 0 120.0
SCN2 1 1 0 6 47e-6 0
C 5 6 0 150e-6 0
R 5 6 0 3.0
FBN2 1 1 0 7 39e-6 1.7 0
C 6 7 0 82e-6 0
R 6 7 0 8.0
SCD2 1 1 0 8 33e-6 0
C 7 8 0 33e-6 0
R 7 8 0 150.0
FBD2 1 1 0 9 12e-6 1.7 0
C 8 9 0 56e-6 0
R 8 9 0 100.0
"""

# (case name, netlist file or None, netlist text, dcm_refine, duration or
# None for the netlist's .param tend).
CASES = [
    ("buck.net", "buck.net", None, False, None),
    ("buck_dcm.net", "buck_dcm.net", None, False, None),
    ("buck_dcm.net+refine", "buck_dcm.net", None, True, None),
    ("buck_diode.net", "buck_diode.net", None, False, None),
    ("flyback.net", "flyback.net", None, False, None),
    ("flyback_diode.net", "flyback_diode.net", None, False, None),
    ("scd_cascade", None, SCD_CASCADE, False, 5e-3),
    ("mixed_chain", None, MIXED_CHAIN, False, None),
    ("mixed_chain+refine", None, MIXED_CHAIN, True, None),
    ("wide_mix", None, WIDE_MIX, False, None),
    ("wide_mix+refine", None, WIDE_MIX, True, None),
]


def signals(records):
    """Every field of the given records, one list per signal name."""
    out = {}

    def add(name, value):
        out.setdefault(name, []).append(float(value))

    for record in records:
        for node, v in sorted(record.node_voltages.items()):
            add(f"v({node})", v)
        for label, i in sorted(record.vdc_currents.items()):
            add(f"i({label})", i)
        for label, state in sorted(record.cells.items()):
            for field in CELL_FIELDS:
                add(f"{label}:{field}", getattr(state, field))
        for label, cap in sorted(record.capacitors.items()):
            add(f"{label}:v", cap.v)
            add(f"{label}:i0_next", cap.i0_next)
    return out


def modes(result):
    """Per cell, the mode of every period as a string of C and D."""
    return {
        e.label: "".join(
            "D" if r.cells[e.label].mode is Mode.DCM else "C" for r in result.records
        )
        for e in result.circuit.cells()
    }


def record(text, d, f_s, t_end, refine):
    result = run(parse_netlist(text), SimConfig(d, f_s, t_end, refine))
    return {
        "periods": len(result.records),
        "signals": signals([result.bootstrap] + result.records[::STRIDE]),
        "modes": modes(result),
    }


def main():
    cases = {}
    if REFERENCE_FILE.exists():
        recorded = json.loads(REFERENCE_FILE.read_text())
        if recorded["stride"] != STRIDE:
            sys.exit(f"{REFERENCE_FILE.name} has stride {recorded['stride']}, not {STRIDE}")
        cases = recorded["cases"]
    for name, path, text, refine, t_end in CASES:
        if name in cases:
            continue
        if text is None:
            text = (ROOT / "netlists" / path).read_text()
        params = parse_netlist(text).params
        d = params.get("D", 0.5)
        f_s = params.get("fs", 100e3)
        t_end = params["tend"] if t_end is None else t_end
        case = {"netlist": text, "d": d, "f_s": f_s, "t_end": t_end}
        case["dcm_refine"] = refine
        case.update(record(text, d, f_s, t_end, refine))
        cases[name] = case
    reference = {"stride": STRIDE, "cases": cases}
    REFERENCE_FILE.write_text(json.dumps(reference, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
