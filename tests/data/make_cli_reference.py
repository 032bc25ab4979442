"""Record reference output files of the command line front end.

Usage, from the repository root:

    PYTHONPATH=src python3 tests/data/make_cli_reference.py

Runs ``avgcell.cli.main`` on committed netlists, or on the netlist text
given inline, with the arguments of each case in ``CASES`` and writes
``tests/data/cli_reference.json``.  Each case
stores its netlist text, its arguments (without ``--out``) and the exact
text of every file the run wrote: ``averaged.csv``, ``instantaneous.csv``
and ``stats.txt``, plus ``oracle.csv`` and ``compare.txt`` with
``--oracle``.

``tests/test_cli_parity.py`` replays every case and compares the files
byte for byte.

The script keeps every case already in the file byte for byte and records
only the cases of ``CASES`` the file lacks, so adding a case never moves
the anchor of the others.  To re-record a case, when a change to the
outputs is intended, delete it from the file and run the script.
"""

import json
import sys
import tempfile
from pathlib import Path

DATA = Path(__file__).resolve().parent
ROOT = DATA.parents[1]
sys.path.insert(0, str(ROOT / "src"))

from avgcell.cli import main as cli_main  # noqa: E402

REFERENCE_FILE = DATA / "cli_reference.json"

# A diode buck feeding a diode flyback, both lightly loaded and started
# near their discontinuous-conduction orbit: the two cells' diode rows are
# coupled, and the flyback enters and leaves discontinuous conduction while
# the buck stays in it.
CASCADE_DCM = """\
VDC 1 1 0 20.0
SCD1 1 1 0 2 10e-6 0
C 1 2 0 1e-4 12.0
FBD2 2 2 0 3 15e-6 1.7 0
C 2 3 0 1e-4 13.0
R 1 3 0 300.0
"""

# Three lightly loaded diode stages in parallel on one source, every one
# in discontinuous conduction from the first period.
PARALLEL_DCM = """\
.param D=0.4 fs=160e3 tend=1.875e-4
VDC 1 1 0 22.8
SCD1 1 1 0 2 32e-6 0
C 1 2 0 2.8e-6 17.6
R 1 2 0 232.0
FBD2 2 1 0 3 16.7e-6 0.85 0
C 2 3 0 57.6e-6 19.1
R 2 3 0 26.3
SCD3 3 1 0 4 26.4e-6 0
C 3 4 0 13.5e-6 16.7
R 3 4 0 135.0
"""

# (case name, committed netlist or netlist text, arguments).  Short runs
# keep the file small: discontinuous-conduction segments, a flagged
# averaged-only capacitor, a --signals filter, the oracle's two output
# files, and row updates of coupled and of independent diode rows, plain
# and with the ``--dcm-refine`` re-solve.
CASES = [
    ("buck_dcm", "buck_dcm.net", ["--t-end", "3e-4"]),
    ("flyback_diode", "flyback_diode.net", ["--t-end", "3e-4"]),
    ("buck_signals", "buck.net", ["--t-end", "2e-4", "--signals", "iL(*)"]),
    (
        "buck_oracle",
        "buck.net",
        ["--t-end", "2e-5", "--oracle", "--oracle-substeps", "100"],
    ),
    ("cascade_dcm", CASCADE_DCM, ["-D", "0.4", "--fs", "100e3", "--t-end", "3e-4"]),
    ("parallel_dcm", PARALLEL_DCM, []),
    (
        "cascade_dcm_refine",
        CASCADE_DCM,
        ["-D", "0.4", "--fs", "100e3", "--t-end", "3e-4", "--dcm-refine"],
    ),
    ("parallel_dcm_refine", PARALLEL_DCM, ["--dcm-refine"]),
]


def record(netlist, args):
    """Run the CLI on ``netlist`` text; returns {file name: text}."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = tmp / "circuit.net"
        path.write_text(netlist)
        out = tmp / "out"
        code = cli_main([str(path), *args, "--out", str(out)])
        if code != 0:
            sys.exit(f"avgcell exited with {code} on {args}")
        return {f.name: f.read_bytes().decode("ascii") for f in sorted(out.iterdir())}


def main():
    cases = {}
    if REFERENCE_FILE.exists():
        cases = json.loads(REFERENCE_FILE.read_text())["cases"]
    for name, netlist, args in CASES:
        if name in cases:
            continue
        text = netlist
        if netlist.endswith(".net"):
            text = (ROOT / "netlists" / netlist).read_text()
        cases[name] = {"netlist": text, "args": args, "files": record(text, args)}
    reference = {"cases": cases}
    REFERENCE_FILE.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
