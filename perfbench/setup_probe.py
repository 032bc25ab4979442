"""Set-up time of one workload, measured in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <file listing netlist paths>

Times importing avgcell, then reading, parsing and validating every listed
netlist, and prints the elapsed seconds.  Exits 1 if a netlist is invalid.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def main(listing):
    paths = Path(listing).read_text().split("\n")
    start = time.perf_counter()
    import avgcell

    for path in paths:
        if avgcell.validate(avgcell.parse_netlist(Path(path).read_text())):
            return 1
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
