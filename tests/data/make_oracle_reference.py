"""Record reference samples of the switched oracle.

Usage, from the repository root:

    PYTHONPATH=src python3 tests/data/make_oracle_reference.py

Runs ``simulate_switched`` at its default 1000 substeps per period on the
five committed netlists, on a diode buck whose blocked diode re-conducts
inside a period and on a two-cell diode cascade whose switching edge falls
inside a substep, and writes ``tests/data/oracle_reference.json``.
Each case stores its netlist text, duty ratio, switching frequency and
period count, every ``STRIDE``-th sample of every signal, and for every
period and every inductor current the first substep of that period whose
sample is exactly 0.0 (null when there is none).

``tests/test_oracle_parity.py`` replays every case and compares.

The script keeps every case already in the file byte for byte and records
only the cases of ``CASES`` the file lacks, so adding a case never moves
the anchor of the others.  To re-record a case, when a change to the
oracle's results is intended, delete it from the file and run the script.
"""

import json
import sys
from pathlib import Path

import numpy as np

DATA = Path(__file__).resolve().parent
ROOT = DATA.parents[1]
sys.path.insert(0, str(ROOT / "src"))

from avgcell import SimConfig, parse_netlist  # noqa: E402
from avgcell.oracle import OracleConfig, simulate_switched  # noqa: E402

REFERENCE_FILE = DATA / "oracle_reference.json"
STRIDE = 10
SUBSTEPS = 1000

# A diode buck feeding a current-sink load from a small capacitor: once the
# inductor current has blocked, the load pulls the output below the diode's
# anode (ground) before the next turn-on, and the diode conducts again.
RECONDUCT = """\
VDC 1 1 0 10.0
SCD1 1 1 0 2 10e-6 0
C 1 2 0 0.3e-6 0
R 1 2 0 20.0
IDC 1 2 0 2.0
"""

# A diode buck feeding a diode flyback.  At d = 0.4567 the switching edge
# splits substep 456, and both inductor currents block in every period, at
# different substeps.
TWO_CELL = """\
VDC 1 1 0 10.0
SCD1 1 1 0 2 10e-6 0
C 1 2 0 1e-4 5.0
R 1 2 0 50.0
FBD1 1 1 0 3 10e-6 2.0 0
C 2 3 0 1e-4 20.0
R 2 3 0 200.0
"""

# (case name, netlist text, duty ratio or None for the netlist's .param D,
# periods).  The periods cover the zero crossings: buck_dcm.net blocks from
# period 9 on, buck_diode.net in periods 11-20 and flyback_diode.net in
# periods 49-67.
CASES = [
    ("buck.net", None, None, 20),
    ("buck_dcm.net", None, None, 30),
    ("buck_diode.net", None, None, 25),
    ("flyback.net", None, None, 20),
    ("flyback_diode.net", None, None, 70),
    ("reconduct", RECONDUCT, 0.3, 30),
    ("two_cell", TWO_CELL, 0.4567, 30),
]


def zero_substeps(values, periods, steps):
    """First substep (1..steps) of each period whose sample is exactly 0.0."""
    first = []
    for n in range(periods):
        held = np.flatnonzero(values[n * steps + 1 : (n + 1) * steps + 1] == 0.0)
        first.append(int(held[0]) + 1 if len(held) else None)
    return first


def record(text, d, f_s, periods):
    sampled = simulate_switched(
        parse_netlist(text), SimConfig(d, f_s, periods / f_s), OracleConfig(SUBSTEPS)
    )
    return {
        "signals": {
            name: [float(f"{v:.15g}") for v in wave.values[::STRIDE]]
            for name, wave in sampled.items()
        },
        "zero_substeps": {
            name: zero_substeps(wave.values, periods, SUBSTEPS)
            for name, wave in sampled.items()
            if name.startswith("iL(")
        },
    }


def main():
    cases = {}
    if REFERENCE_FILE.exists():
        recorded = json.loads(REFERENCE_FILE.read_text())
        if (recorded["stride"], recorded["substeps"]) != (STRIDE, SUBSTEPS):
            sys.exit(
                f"{REFERENCE_FILE.name} has stride {recorded['stride']} and "
                f"{recorded['substeps']} substeps, not {STRIDE} and {SUBSTEPS}"
            )
        cases = recorded["cases"]
    for name, text, d, periods in CASES:
        if name in cases:
            continue
        if text is None:
            text = (ROOT / "netlists" / name).read_text()
        params = parse_netlist(text).params
        d = params["D"] if d is None else d
        f_s = params.get("fs", 100e3)
        case = {"netlist": text, "d": d, "f_s": f_s, "periods": periods}
        case.update(record(text, d, f_s, periods))
        cases[name] = case
    reference = {"stride": STRIDE, "substeps": SUBSTEPS, "cases": cases}
    REFERENCE_FILE.write_text(json.dumps(reference, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
