"""The switched oracle against samples recorded from its substep-by-substep
implementation (``data/oracle_reference.json``, made by
``data/make_oracle_reference.py``).

Every case must match every recorded sample to 1e-9 of the signal's full
scale and block its diodes at the same substeps.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from avgcell import SimConfig, parse_netlist
from avgcell.oracle import OracleConfig, _SwitchedSimulator, simulate_switched

REFERENCE = json.loads(
    (Path(__file__).parent / "data" / "oracle_reference.json").read_text()
)
CASES = REFERENCE["cases"]


def zero_substeps(values, periods, steps):
    first = []
    for n in range(periods):
        held = np.flatnonzero(values[n * steps + 1 : (n + 1) * steps + 1] == 0.0)
        first.append(int(held[0]) + 1 if len(held) else None)
    return first


def simulate(case):
    config = SimConfig(case["d"], case["f_s"], case["periods"] / case["f_s"])
    return simulate_switched(
        parse_netlist(case["netlist"]), config, OracleConfig(REFERENCE["substeps"])
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_samples_match_reference(name):
    case = CASES[name]
    sampled = simulate(case)
    assert sorted(sampled) == sorted(case["signals"])
    for signal, recorded in case["signals"].items():
        recorded = np.array(recorded)
        values = sampled[signal].values[:: REFERENCE["stride"]]
        scale = max(np.abs(recorded).max(), 1e-30)
        assert len(values) == len(recorded)
        assert np.abs(values - recorded).max() <= 1e-9 * scale, signal


@pytest.mark.parametrize("name", sorted(CASES))
def test_zero_crossing_substeps_match_reference(name):
    case = CASES[name]
    sampled = simulate(case)
    for signal, recorded in case["zero_substeps"].items():
        found = zero_substeps(
            sampled[signal].values, case["periods"], REFERENCE["substeps"]
        )
        assert found == recorded, signal


def test_reference_covers_crossings():
    """The DCM and diode cases block their diodes in some period."""
    for name in (
        "buck_dcm.net",
        "buck_diode.net",
        "flyback_diode.net",
        "reconduct",
        "two_cell",
    ):
        held = CASES[name]["zero_substeps"].values()
        assert any(s is not None for series in held for s in series), name


def test_reconduct_case_reconducts(monkeypatch):
    """In the re-conduction case a blocked diode turns on again inside a
    period, so the forward-bias check really runs."""
    fired = []
    check = _SwitchedSimulator._reconduct_check

    def counting(self, x):
        changed = check(self, x)
        fired.append(changed)
        return changed

    monkeypatch.setattr(_SwitchedSimulator, "_reconduct_check", counting)
    simulate(CASES["reconduct"])
    assert sum(fired) >= CASES["reconduct"]["periods"] // 2
