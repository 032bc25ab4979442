"""The CLI's output files against a committed reference, byte for byte.

``tests/data/cli_reference.json`` holds, per case, a netlist, the CLI
arguments and the exact text of every file the run wrote
(``tests/data/make_cli_reference.py`` records it).  The cases cover
discontinuous-conduction segments, a flagged averaged-only capacitor, a
``--signals`` filter, the oracle's ``oracle.csv`` and ``compare.txt``, and
row updates of coupled diode rows (a buck into a flyback) and of
independent ones (three parallel stages).
"""

import json
from pathlib import Path

import pytest

from avgcell.cli import main

REFERENCE = json.loads(
    (Path(__file__).parent / "data" / "cli_reference.json").read_text()
)["cases"]


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_output_files_match_reference(tmp_path, name):
    case = REFERENCE[name]
    path = tmp_path / "circuit.net"
    path.write_text(case["netlist"])
    out = tmp_path / "out"
    assert main([str(path), *case["args"], "--out", str(out)]) == 0
    assert sorted(f.name for f in out.iterdir()) == sorted(case["files"])
    for file_name, text in case["files"].items():
        assert (out / file_name).read_bytes() == text.encode("ascii"), file_name


def test_reference_covers_every_output_file():
    written = {f for case in REFERENCE.values() for f in case["files"]}
    assert written == {
        "averaged.csv",
        "instantaneous.csv",
        "stats.txt",
        "oracle.csv",
        "compare.txt",
    }
