"""The seeded circuit generator yields valid circuits of the asked shape."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import pytest  # noqa: E402

import circuits  # noqa: E402
from avgcell import Mode, SimConfig, parse_netlist, run, validate  # noqa: E402

SEEDS = range(8)
GENERATORS = [
    (circuits.heavy_load, ("SCN", "FBN")),
    (circuits.light_load, ("SCD", "FBD")),
]


@pytest.mark.parametrize("generate, choices", GENERATORS)
@pytest.mark.parametrize("stages", [1, 2, 7, 16])
def test_generated_circuits_are_valid(generate, choices, stages):
    for seed in SEEDS:
        kinds = circuits.kinds_for(stages, choices, seed)
        circuit = parse_netlist(generate(seed, kinds, 80))
        assert validate(circuit) == []
        assert [e.kind for e in circuit.cells()] == kinds
        p = circuit.params
        assert SimConfig(p["D"], p["fs"], p["tend"]).n_periods == 80


def test_light_load_circuits_conduct_discontinuously_from_the_start():
    for seed in SEEDS:
        for stages in (1, 2, 3):
            kinds = circuits.kinds_for(stages, ("SCD", "FBD"), seed)
            circuit = parse_netlist(circuits.light_load(seed, kinds, 40))
            p = circuit.params
            result = run(circuit, SimConfig(p["D"], p["fs"], p["tend"]))
            modes = {s.mode for r in result.records for s in r.cells.values()}
            assert modes == {Mode.DCM}


def test_same_seed_same_text_other_seed_other_values():
    kinds = circuits.kinds_for(4, ("SCD", "FBD"))
    assert circuits.light_load(3, kinds, 50) == circuits.light_load(3, kinds, 50)
    assert circuits.light_load(3, kinds, 50) != circuits.light_load(4, kinds, 50)


def test_kinds_cycle_through_choices():
    assert circuits.kinds_for(5, ("A", "B")) == ["A", "B", "A", "B", "A"]
    assert circuits.kinds_for(3, ("A", "B"), offset=1) == ["B", "A", "B"]
