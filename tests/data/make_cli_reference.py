"""Record reference output files of the command line front end.

Usage, from the repository root:

    PYTHONPATH=src python3 tests/data/make_cli_reference.py

Runs ``avgcell.cli.main`` on committed netlists with the arguments of each
case in ``CASES`` and writes ``tests/data/cli_reference.json``.  Each case
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

# (case name, committed netlist, arguments).  Short runs keep the file
# small: discontinuous-conduction segments, a flagged averaged-only
# capacitor, a --signals filter, and the oracle's two output files.
CASES = [
    ("buck_dcm", "buck_dcm.net", ["--t-end", "3e-4"]),
    ("flyback_diode", "flyback_diode.net", ["--t-end", "3e-4"]),
    ("buck_signals", "buck.net", ["--t-end", "2e-4", "--signals", "iL(*)"]),
    (
        "buck_oracle",
        "buck.net",
        ["--t-end", "2e-5", "--oracle", "--oracle-substeps", "100"],
    ),
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
        text = (ROOT / "netlists" / netlist).read_text()
        cases[name] = {"netlist": text, "args": args, "files": record(text, args)}
    reference = {"cases": cases}
    REFERENCE_FILE.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
