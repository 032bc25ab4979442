"""Record reference results of the committed netlists.

Usage, from the repository root:

    python3 perfbench/make_reference.py

Runs the engine on every entry of ``checks.REFERENCE_RUNS`` and writes
``perfbench/reference.json``.  Re-record only when a change to the engine's
results is intended; the benchmark fails any job whose run of a committed
netlist drifts from these values.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
from avgcell import SimConfig, parse_netlist, run  # noqa: E402


def main():
    references = {}
    for key, (t_end, refine) in checks.REFERENCE_RUNS.items():
        circuit = parse_netlist((BENCH.parent / "netlists" / key.split("+")[0]).read_text())
        config = SimConfig(circuit.params["D"], circuit.params["fs"], t_end, refine)
        references[key] = checks.record_reference(run(circuit, config))
    checks.REFERENCE_FILE.write_text(json.dumps(references, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
