"""The averaged engine against results recorded from an earlier version
(``data/engine_reference.json``, made by ``data/make_engine_reference.py``).

Every case must match the bootstrap record and every recorded period record
to 1e-9 of each signal's full scale, and reproduce the mode of every cell in
every period.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from avgcell import SimConfig, parse_netlist, run
from avgcell.cells import Mode

REFERENCE = json.loads(
    (Path(__file__).parent / "data" / "engine_reference.json").read_text()
)
CASES = REFERENCE["cases"]
CELL_FIELDS = ("iL0", "iL1", "iL2", "d_p", "vL1", "vL2", "iS_avg", "iD_avg", "vL_avg")


def simulate(case):
    config = SimConfig(case["d"], case["f_s"], case["t_end"], case["dcm_refine"])
    return run(parse_netlist(case["netlist"]), config)


def signals(records):
    out = {}
    for record in records:
        for node, v in record.node_voltages.items():
            out.setdefault(f"v({node})", []).append(v)
        for label, i in record.vdc_currents.items():
            out.setdefault(f"i({label})", []).append(i)
        for label, state in record.cells.items():
            for field in CELL_FIELDS:
                out.setdefault(f"{label}:{field}", []).append(getattr(state, field))
        for label, cap in record.capacitors.items():
            out.setdefault(f"{label}:v", []).append(cap.v)
            out.setdefault(f"{label}:i0_next", []).append(cap.i0_next)
    return out


@pytest.fixture(scope="module", params=sorted(CASES))
def replay(request):
    case = CASES[request.param]
    return case, simulate(case)


def test_records_match_reference(replay):
    case, result = replay
    assert len(result.records) == case["periods"]
    sampled = signals([result.bootstrap] + result.records[:: REFERENCE["stride"]])
    assert sorted(sampled) == sorted(case["signals"])
    for name, recorded in case["signals"].items():
        recorded = np.array(recorded)
        values = np.array(sampled[name])
        scale = max(np.abs(recorded).max(), 1e-30)
        assert len(values) == len(recorded)
        assert np.abs(values - recorded).max() <= 1e-9 * scale, name


def test_modes_match_reference(replay):
    case, result = replay
    for label, recorded in case["modes"].items():
        found = "".join(
            "D" if r.cells[label].mode is Mode.DCM else "C" for r in result.records
        )
        assert found == recorded, label


def test_reference_covers_dcm():
    """The diode cases, the refined runs and every cascade and chain cell
    rest in some period; the chain's cells leave continuous conduction in
    different periods.  In the wide mix of order 26 every diode cell rests
    in some period and every synchronous cell never does."""
    names = (
        "buck_dcm.net",
        "buck_dcm.net+refine",
        "scd_cascade",
        "mixed_chain",
        "mixed_chain+refine",
    )
    for name in names:
        for label, seq in CASES[name]["modes"].items():
            assert "D" in seq, (name, label)
    for name in ("mixed_chain", "mixed_chain+refine"):
        modes = CASES[name]["modes"].values()
        assert all(seq.startswith("C") for seq in modes), name
        assert len({seq.index("D") for seq in modes}) == len(modes), name
    for name in ("wide_mix", "wide_mix+refine"):
        modes = CASES[name]["modes"]
        assert len(modes) == 8, name
        for label, seq in modes.items():
            assert seq.startswith("C"), (name, label)
            assert ("D" in seq) == label.startswith(("SCD", "FBD")), (name, label)


def test_columns_match_records(replay):
    """The column accessors and the columns themselves equal the fields of
    the records built from them, exactly."""
    case, result = replay
    records = result.records
    assert result.times() == [r.t_start for r in records]
    for node in records[0].node_voltages:
        assert result.node_voltage(node) == [r.node_voltages[node] for r in records]
    for label in records[0].capacitors:
        caps = [r.capacitors[label] for r in records]
        assert result.capacitor_voltage(label) == [c.v for c in caps]
        col = result.layout.state_col[label]
        assert result.v_cap[:, col].tolist() == [c.v for c in caps]
        assert result.i0_next[:, col].tolist() == [c.i0_next for c in caps]
    for i, label in enumerate(records[0].cells):
        states = [r.cells[label] for r in records]
        assert result.cell_states(label) == states
        for field in ("iL0", "iL1", "iL2", "d_p", "vL1", "vL2"):
            column = getattr(result, field)[:, i].tolist()
            assert column == [getattr(s, field) for s in states], (label, field)
        assert result.dcm[:, i].tolist() == [s.mode is Mode.DCM for s in states]
        rs, rd = result.layout.cell_rows[label]
        assert result.x[:, rs].tolist() == [s.iS_avg for s in states]
        assert result.x[:, rd].tolist() == [s.iD_avg for s in states]
