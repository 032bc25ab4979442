"""Period-stepping engine tests."""

import json
import math
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from avgcell import SimConfig, parse_netlist, run, step
from avgcell.cells import (
    Mode,
    avg_inductor_current,
    compute_d2,
    drive_voltages,
    keeps_ccm,
    resolve_mode,
)
from avgcell.engine import (
    CapacitorRecord,
    InvalidCircuit,
    InvalidConfig,
)
from avgcell import mna
from avgcell.mna import SingularSystem, assemble_system

from conftest import (
    BUCK,
    BUCK_DCM,
    BUCK_DIODE,
    FLYBACK,
    count_products,
    rhs,
    std_config,
    tail_mean,
)


def test_config_validation():
    with pytest.raises(InvalidConfig):
        SimConfig(0.0, 100e3, 1e-3)
    with pytest.raises(InvalidConfig):
        SimConfig(1.5, 100e3, 1e-3)
    with pytest.raises(InvalidConfig):
        SimConfig(0.5, -1.0, 1e-3)
    with pytest.raises(InvalidConfig, match="must be non-negative"):
        SimConfig(0.5, 100e3, -1e-3)
    assert SimConfig(0.5, 100e3, 5e-3).n_periods == 500


@pytest.mark.parametrize("f_s", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_frequency_rejected(f_s):
    with pytest.raises(InvalidConfig):
        SimConfig(0.5, f_s, 1e-3)


def test_zero_period_run_rejected(buck_circuit):
    with pytest.raises(InvalidConfig):
        run(buck_circuit, SimConfig(0.5, 100e3, 0.0))


@pytest.mark.parametrize("t_end", [0.0, 4e-6])
def test_config_without_a_complete_period_rejected(t_end):
    with pytest.raises(InvalidConfig, match="no complete switching period"):
        SimConfig(0.5, 100e3, t_end)


@pytest.mark.parametrize("t_end, whole", [
    (1e-4 * (1 + 2e-9), False), (1e-4 * (1 + 0.5e-9), True), (3e-4, True), (1.6e-5, False),
])
def test_config_takes_whole_periods_to_1e_9(t_end, whole):
    """t_end f_s may miss a whole number by 1e-9 of itself, and no more:
    3e-4 s at 100 kHz is 29.999999999999996 periods, 30."""
    if whole:
        assert SimConfig(0.5, 100e3, t_end).n_periods == round(t_end * 1e5)
    else:
        with pytest.raises(InvalidConfig, match="periods at 100000.0 Hz, not a whole number"):
            SimConfig(0.5, 100e3, t_end)


def test_config_with_a_non_finite_period_count_rejected():
    with pytest.raises(InvalidConfig, match="too many periods"):
        SimConfig(0.5, 1e200, 1e200)


def test_run_too_long_to_hold_is_invalid_config(buck_circuit):
    """1e296 periods: numpy refuses the arrays before allocating any."""
    with pytest.raises(InvalidConfig, match="periods"):
        run(buck_circuit, SimConfig(0.5, 1e300, 1e-4))


def test_run_requires_a_cell():
    circuit = parse_netlist("VDC 1 1 0 10.0\nR 1 1 0 5.0\n")
    with pytest.raises(InvalidCircuit):
        run(circuit, std_config(1e-3))


def test_run_rejects_invalid_circuit():
    circuit = parse_netlist(
        "VDC 1 1 0 10.0\nVDC 2 1 0 5.0\nSCN 1 1 0 2 1e-5 0\nR 1 2 0 5.0\n"
    )
    with pytest.raises(InvalidCircuit) as excinfo:
        run(circuit, std_config(1e-3))
    assert any(d.code == "voltage-source-loop" for d in excinfo.value.diagnostics)


def test_buck_startup_converges_to_five_volts(buck_run):
    assert len(buck_run.records) == 500
    v_tail = tail_mean(buck_run.node_voltage(2))
    assert v_tail == pytest.approx(5.0, rel=0.01)
    i_tail = tail_mean(
        [avg_inductor_current(s, 0.5) for s in buck_run.cell_states("SCN1")]
    )
    assert i_tail == pytest.approx(5.0, rel=0.01)


def test_flyback_startup_converges(flyback_run, flyback_long_run):
    assert tail_mean(flyback_run.node_voltage(2)) == pytest.approx(20.0, rel=0.01)
    # The current ring has not fully decayed at 5 ms; the converged run
    # lands on the 20 A fixed point exactly.
    last = flyback_long_run.records[-1]
    assert avg_inductor_current(last.cells["FBN1"], 0.5) == pytest.approx(
        20.0, rel=1e-6
    )
    assert last.node_voltages[2] == pytest.approx(20.0, rel=1e-6)


def test_state_lookups_reject_a_label_of_the_other_kind(buck_run):
    """A cell's states are read by a cell label and a capacitor's voltage by
    a capacitor label; the other kind's label is a KeyError."""
    with pytest.raises(KeyError, match="C1"):
        buck_run.cell_states("C1")
    with pytest.raises(KeyError, match="SCN1"):
        buck_run.capacitor_voltage("SCN1")


def test_first_period_solution_matches_closed_form(buck_run):
    first = buck_run.records[0]
    assert first.node_voltages[1] == pytest.approx(10.0)
    assert first.node_voltages[2] == pytest.approx(-0.25 / 20.7)


def test_period_boundary_continuity_is_exact(buck_diode_run):
    records = buck_diode_run.records
    for prev, cur in zip(records, records[1:]):
        for label, state in cur.cells.items():
            assert state.iL0 == prev.cells[label].iL2


@pytest.mark.parametrize("start", [-0.5, 1e-13])
def test_bootstrap_end_current_is_period_zero_start_current(start):
    """The light-load buck precharged to 8 V and started off zero: the
    bootstrap's drive voltages put period 0 in DCM, which starts the cell at
    zero, and the bootstrap's end current is that start current, as every
    period's is the next one's."""
    text = BUCK_DCM.replace("10e-6 0", f"10e-6 {start!r}").replace("1e-4 0", "1e-4 8.0")
    circuit, config = parse_netlist(text), std_config(1e-4)
    result = run(circuit, config)
    first = result.records[0].cells["SCD1"]
    assert result.bootstrap.cells["SCD1"].iL0 == start
    assert first.mode is Mode.DCM
    assert result.bootstrap.cells["SCD1"].iL2 == first.iL0 == 0.0
    assert step(circuit, config, result.bootstrap) == result.records[0]


def test_capacitor_carryover_follows_companion_update(buck_run):
    g = 2.0 * 1e-4 / buck_run.config.T_s
    records = buck_run.records
    for prev, cur in zip(records, records[1:]):
        cap = cur.capacitors["C1"]
        assert cap.i0_next == 2.0 * g * cap.v - prev.capacitors["C1"].i0_next


def test_volt_second_balance_at_convergence(buck_long_run):
    tail = buck_long_run.records[-len(buck_long_run.records) // 10 :]
    worst = max(abs(r.cells["SCN1"].vL_avg) for r in tail)
    assert worst < 1e-3 * 10.0


def test_charge_balance_at_convergence(buck_long_run):
    g = 2.0 * 1e-4 / buck_long_run.config.T_s
    records = buck_long_run.records
    tail = records[-len(records) // 10 :]
    worst = max(abs(g * r.capacitors["C1"].v - p.capacitors["C1"].i0_next)
                for p, r in zip(records[-len(tail) - 1 : -1], tail))
    assert worst < 1e-3 * (10.0 / 5.0)


def test_rectifier_variants_share_steady_state(buck_run, buck_diode_run):
    v_sync = tail_mean(buck_run.node_voltage(2))
    v_diode = tail_mean(buck_diode_run.node_voltage(2))
    assert v_diode == pytest.approx(v_sync, rel=0.005)


def test_flyback_rectifier_variants_share_steady_state(
    flyback_run, flyback_diode_run
):
    v_sync = tail_mean(flyback_run.node_voltage(2))
    v_diode = tail_mean(flyback_diode_run.node_voltage(2))
    assert v_diode == pytest.approx(v_sync, rel=0.005)


def test_diode_buck_enters_dcm_during_undershoot(buck_diode_run):
    dcm = [r.index for r in buck_diode_run.records
           if r.cells["SCD1"].mode is Mode.DCM]
    assert dcm
    assert min(dcm) < 100
    # The period before the first rest period ends clamped at zero.
    entry = min(dcm)
    assert buck_diode_run.records[entry - 1].cells["SCD1"].iL2 == 0.0


def test_dcm_period_invariants(dcm_run):
    tail = dcm_run.records[-100:]
    for record in tail:
        state = record.cells["SCD1"]
        assert state.mode is Mode.DCM
        assert state.iL0 == 0.0
        assert state.iL2 == 0.0
        assert 0.5 + state.d_p < 1.0


def test_dcm_steady_state_matches_closed_form(dcm_run):
    # Loss-free DCM buck: M = 2 / (1 + sqrt(1 + 4 K / D^2)), K = 2 L f_s / R.
    k = 2.0 * 1e-5 * 1e5 / 50.0
    m = 2.0 / (1.0 + np.sqrt(1.0 + 4.0 * k / 0.25))
    assert tail_mean(dcm_run.node_voltage(2)) == pytest.approx(10.0 * m, rel=1e-3)


def test_dcm_buck_boost_matches_closed_form():
    # Loss-free DCM buck-boost: M = -D / sqrt(K), K = 2 L / (R T_s).
    circuit = parse_netlist(
        "VDC 1 1 0 10.0\nSCD1 1 1 2 0 10e-6 0\nC 1 2 0 100e-6 0\nR 1 2 0 50.0\n"
    )
    result = run(circuit, SimConfig(0.4, 100e3, 20e-3))
    assert result.records[-1].cells["SCD1"].mode is Mode.DCM
    k = 2.0 * 10e-6 * 100e3 / 50.0
    m = -0.4 / np.sqrt(k)
    assert tail_mean(result.node_voltage(2)) == pytest.approx(10.0 * m, rel=1e-3)


class TestPredictMode:
    """The stepper's mode prediction, composed of the ``cells`` rules as
    the composition test below writes it out."""

    def test_synchronous_always_ccm(self, buck_run):
        assert not buck_run.dcm.any() and (buck_run.d_p == 0.5).all()

    def test_positive_start_current_keeps_ccm(self, buck_diode_run):
        # Steady state: valley current 3.72 A > 0, so no d2 is computed.
        state = buck_diode_run.records[-1].cells["SCD1"]
        assert state.mode is Mode.CCM and keeps_ccm(state.iL2)

    def test_zero_start_current_with_fast_discharge_predicts_dcm(self):
        cell = parse_netlist(BUCK_DIODE).cells()[0]
        assert not keeps_ccm(0.0)
        v = {1: 10.0, 2: 8.0}
        vL1, vL2 = drive_voltages([v.get(n, 0.0) for n in cell.nodes], cell)
        mode, d_p = resolve_mode(0.5, compute_d2(vL1, vL2, 0.5))
        assert mode is Mode.DCM
        # d2 = -(vL1 / vL2) d = (2 / 8) * 0.5
        assert d_p == pytest.approx(0.125)


ENGINE_REFERENCE = json.loads(
    (Path(__file__).parent / "data" / "engine_reference.json").read_text()
)["cases"]


@pytest.mark.parametrize("name", sorted(ENGINE_REFERENCE))
def test_predictions_use_the_drive_voltages_of_the_node_voltages(name):
    """Each period's modes are predicted from the drive voltages stored on
    the previous record, which must be those of its node voltages; without
    dcm_refine, the cells rules' composition written out here, apart from
    the engine's own predictor, gives the next record's modes."""
    case = ENGINE_REFERENCE[name]
    circuit = parse_netlist(case["netlist"])
    config = SimConfig(case["d"], case["f_s"], case["t_end"], case["dcm_refine"])
    result = run(circuit, config)
    records = [result.bootstrap] + result.records
    cells = circuit.cells()
    for record in records:
        for e in cells:
            v = [record.node_voltages.get(n, 0.0) for n in e.nodes]
            state = record.cells[e.label]
            np.testing.assert_array_max_ulp(
                np.array([state.vL1, state.vL2]),
                np.array(drive_voltages(v, e)),
                maxulp=4,
            )
    if config.dcm_refine:
        return
    for previous, record in zip(records, records[1:]):
        for e in cells:
            state, before = record.cells[e.label], previous.cells[e.label]
            if not e.is_diode or keeps_ccm(before.iL2):
                expected = (Mode.CCM, 1.0 - config.d)
            else:
                d2 = compute_d2(before.vL1, before.vL2, config.d)
                expected = resolve_mode(config.d, d2)
            assert (state.mode, state.d_p) == expected


def test_step_reproduces_run(buck_circuit):
    config = std_config(5e-4)
    result = run(buck_circuit, config)
    advanced = step(buck_circuit, config, result.records[10])
    reference = result.records[11]
    assert advanced.node_voltages == reference.node_voltages
    assert advanced.cells == reference.cells


@pytest.mark.parametrize("name", sorted(ENGINE_REFERENCE))
def test_companion_update_holds_bit_for_bit_on_every_case(name):
    """Every period carries out i_0' = (4C / T_s) v - i_0 for every
    capacitor, bit for bit as the stepper forms it, from the bootstrap into
    period 0 on: inside CCM blocks, in stepped periods and across the edges
    between them."""
    case = ENGINE_REFERENCE[name]
    circuit = parse_netlist(case["netlist"])
    config = SimConfig(case["d"], case["f_s"], case["t_end"], case["dcm_refine"])
    result = run(circuit, config)
    caps = circuit.capacitors()
    two_g = np.array([4.0 * e.value / config.T_s for e in caps])
    bootstrap = [result.bootstrap.capacitors[e.label].i0_next for e in caps]
    i0 = np.vstack([bootstrap, result.i0_next[:-1]])
    expected = two_g * result.v_cap - i0
    mismatched = np.argwhere(result.i0_next.view(np.int64) != expected.view(np.int64))
    assert not mismatched.size, f"(period, capacitor) {mismatched[0].tolist()}"


@pytest.mark.parametrize("name", sorted(ENGINE_REFERENCE))
def test_end_currents_are_the_next_start_currents_bit_for_bit(name):
    """iL2[k] is iL0[k + 1] bit for bit, and the bootstrap's iL2 is iL0[0]."""
    case = ENGINE_REFERENCE[name]
    config = SimConfig(case["d"], case["f_s"], case["t_end"], case["dcm_refine"])
    result = run(parse_netlist(case["netlist"]), config)
    bootstrap = [state.iL2 for state in result.bootstrap.cells.values()]
    ends = np.vstack([bootstrap, result.iL2[:-1]])
    assert np.array_equal(ends.view(np.int64), result.iL0.view(np.int64))


MIXED_CHAIN = ENGINE_REFERENCE["mixed_chain"]


@pytest.mark.parametrize(
    "netlist, config",
    [
        (BUCK_DIODE, std_config(2e-3)),
        (
            MIXED_CHAIN["netlist"],
            SimConfig(MIXED_CHAIN["d"], MIXED_CHAIN["f_s"], MIXED_CHAIN["t_end"]),
        ),
    ],
    ids=["buck_diode", "mixed_chain"],
)
def test_step_reproduces_run_across_blocks(monkeypatch, netlist, config):
    """step() solves a period by the decision and kernel run() uses, so it
    reproduces run() bit for bit inside a CCM block, at the period where a
    block ends and at the period after: across a diode buck's CCM -> DCM ->
    CCM start-up edge, and across a chain of three diode cells that leave
    continuous conduction in different periods."""
    import avgcell.engine as engine_module

    real = engine_module._Stepper._block
    blocks = []

    def recorded(self, a, b):
        stop = real(self, a, b)
        if stop > a:
            blocks.append((a - 1, stop - 1))  # rows are periods + 1
        return stop

    monkeypatch.setattr(engine_module._Stepper, "_block", recorded)
    circuit = parse_netlist(netlist)
    result = run(circuit, config)
    monkeypatch.setattr(engine_module._Stepper, "_block", real)
    first_dcm = set()
    for e in circuit.cells():
        modes = [r.cells[e.label].mode for r in result.records]
        assert set(modes) == {Mode.CCM, Mode.DCM}
        first_dcm.add(modes.index(Mode.DCM))
    assert len(first_dcm) == len(circuit.cells())

    inside = {n for first, stop in blocks for n in range(first + 1, stop - 1)}
    ends = {stop - 1 for _, stop in blocks}
    after = {stop for _, stop in blocks} - {first for first, _ in blocks}
    after &= set(range(len(result.records)))
    assert inside and ends and after
    for n in sorted(inside | ends | after):
        previous = result.records[n - 1] if n else result.bootstrap
        advanced = step(circuit, config, previous)
        reference = result.records[n]
        assert advanced.index == reference.index
        assert advanced.node_voltages == reference.node_voltages, n
        assert advanced.vdc_currents == reference.vdc_currents, n
        assert advanced.cells == reference.cells, n
        assert advanced.capacitors == reference.capacitors, n


# Three lightly loaded diode stages in parallel on one source, every one in
# discontinuous conduction from the first period: each diode row is alone.
PARALLEL_DCM = json.loads(
    (Path(__file__).parent / "data" / "cli_reference.json").read_text()
)["cases"]["parallel_dcm"]["netlist"]


def _parallel_dcm(dcm_refine=False):
    circuit = parse_netlist(PARALLEL_DCM)
    p = circuit.params
    return circuit, SimConfig(p["D"], p["fs"], p["tend"], dcm_refine)


# A diode buck feeding a diode flyback, the two diode rows coupled: the
# buck stays in discontinuous conduction and the flyback enters it.
CASCADE_DCM = json.loads(
    (Path(__file__).parent / "data" / "cli_reference.json").read_text()
)["cases"]["cascade_dcm"]["netlist"]


def _cascade_dcm(dcm_refine=False):
    return parse_netlist(CASCADE_DCM), SimConfig(0.4, 100e3, 3e-4, dcm_refine)


@pytest.mark.parametrize(
    "stages, largest_row_update, dcm_refine",
    [(_parallel_dcm, 3, False), (_parallel_dcm, 3, True),
     (_cascade_dcm, 2, False), (_cascade_dcm, 2, True)],
    ids=["plain", "refine", "cascade-plain", "cascade-refine"],
)
def test_step_reproduces_run_on_parallel_stages(stages, largest_row_update, dcm_refine):
    """step() reproduces run() bit for bit on every period of three
    parallel stages whose diode rows all move alone, and of a cascade whose
    two coupled rows are solved together, with and without the dcm_refine
    re-solve."""
    circuit, config = stages(dcm_refine)
    result = run(circuit, config)
    stats = result.stats
    assert stats.stepped_periods == len(result.records)
    assert stats.largest_row_update == largest_row_update
    # dcm_refine re-solves a period whose refined prediction moved
    assert (stats.row_update_solves > stats.stepped_periods) == dcm_refine
    previous = result.bootstrap
    for record in result.records:
        # repr tells every float apart, the sign of zero included.
        assert repr(step(circuit, config, previous)) == repr(record)
        previous = record


def test_run_stats_count_blocks_and_stepped_periods():
    """A CCM buck with no diode cell runs every period in one block; the
    light-load buck rests in 1190 of its 1200 periods, each of them stepped
    with a row update, all from the one factorization."""
    netlists = Path(__file__).resolve().parents[1] / "netlists"
    buck = run(parse_netlist((netlists / "buck.net").read_text()), std_config(5e-3))
    stats = buck.stats
    assert stats.factorizations == 1
    assert stats.block_periods == 500 and stats.stepped_periods == 0
    assert 1 <= stats.blocks < 10
    # No diode cell: the first block, CHECK_ROWS long, holds all 500 periods.
    assert stats.blocks == 1
    for periods, blocks in ((1024, 1), (1025, 2)):
        assert run(buck.circuit, std_config(periods / 100e3)).stats.blocks == blocks
    assert stats.row_update_solves == 0
    assert stats.largest_row_update == 0

    dcm = run(parse_netlist((netlists / "buck_dcm.net").read_text()), std_config(12e-3))
    stats = dcm.stats
    dcm_periods = sum(r.cells["SCD1"].mode is Mode.DCM for r in dcm.records)
    assert dcm_periods == 1190
    assert stats.factorizations == 1
    assert stats.block_periods + stats.stepped_periods == 1200
    assert stats.stepped_periods >= dcm_periods
    assert stats.row_update_solves == dcm_periods
    assert stats.largest_row_update == 1


def test_a_ccm_run_checks_every_residual_in_one_call(monkeypatch, buck_circuit):
    """A 300-period CCM run checks the residuals of its bootstrap and of
    all its periods in one call, after its one block."""
    import avgcell.engine as engine_module

    events = []
    real_block, real_check = engine_module._Stepper._block, engine_module.check_residual

    def block(self, a, b):
        events.append("block")
        return real_block(self, a, b)

    def check(A, x, *args):
        events.append(len(x))
        return real_check(A, x, *args)

    monkeypatch.setattr(engine_module._Stepper, "_block", block)
    monkeypatch.setattr(engine_module, "check_residual", check)
    result = run(buck_circuit, std_config(3e-3))
    assert result.stats.blocks == 1 and result.stats.block_periods == 300
    assert events == ["block", 301]


def _block_lengths(monkeypatch, circuit, config):
    """(length tried, periods accepted) of every CCM block of a run."""
    import avgcell.engine as engine_module

    real, blocks = engine_module._Stepper._block, []

    def block(self, a, b):
        stop = real(self, a, b)
        blocks.append((b - a, stop - a))
        return stop

    monkeypatch.setattr(engine_module._Stepper, "_block", block)
    return run(circuit, config), blocks


def test_a_diode_circuit_starts_its_blocks_at_first_block(monkeypatch):
    """A circuit with a diode cell tries FIRST_BLOCK periods first and
    doubles after each block kept whole; a block its cell leaves CCM in
    keeps the periods before, and the next starts at FIRST_BLOCK again."""
    netlist = (Path(__file__).resolve().parents[1] / "netlists" / "buck_diode.net").read_text()
    result, blocks = _block_lengths(monkeypatch, parse_netlist(netlist), std_config(5e-3))
    assert blocks == [(8, 8), (16, 2), (8, 8), (16, 16), (32, 32), (64, 64), (128, 128),
                      (229, 229)]
    assert result.stats.blocks == 8 and result.stats.block_periods == 487


# A synchronous buck on a 0 V source: every end current snaps to zero.
ZERO_SOURCE = BUCK.replace("VDC 1 1 0 10.0", "VDC 1 1 0 0.0").replace("IDC 1 2 0 4.0\n", "")


def test_a_block_that_fails_starts_the_next_at_first_block(monkeypatch):
    """With no diode cell the first block is tried as long as the run
    (CHECK_ROWS at most); where every end current snaps to zero every
    block fails at its first row and each period is stepped, the blocks
    after the first tried at FIRST_BLOCK."""
    result, blocks = _block_lengths(monkeypatch, parse_netlist(ZERO_SOURCE), std_config(3e-3))
    stats = result.stats
    assert stats.blocks == 0 and stats.block_periods == 0
    assert stats.stepped_periods == 300 and stats.row_update_solves == 0
    # Row r is tried from period r - 1 on, up to the run's end.
    assert blocks == [(300, 0)] + [(min(8, 301 - r), 0) for r in range(2, 301)]
    assert not result.iL2.any()


def test_a_ccm_block_period_makes_three_numpy_calls_at_any_length(monkeypatch):
    """A CCM block period is one np.dot, one np.multiply and one
    np.subtract, whatever the block's length; every other call the kernel
    makes, numpy's or Python's, it makes once a block.  Ufuncs are counted
    by patching them, the rest by cProfile, which does not see ufuncs."""
    import cProfile
    import pstats
    from collections import Counter

    import avgcell.engine as engine_module

    ufuncs, per_block = Counter(), []

    def counted(ufunc):
        def call(*args, **kwargs):
            ufuncs[ufunc.__name__] += 1
            return ufunc(*args, **kwargs)
        return call

    for name in ("multiply", "subtract", "add", "matmul"):
        monkeypatch.setattr(np, name, counted(getattr(np, name)))
    real = engine_module._Stepper._kernel

    def kernel(self, a, b):
        self._ccm  # the run's tables, built once before its first block
        ufuncs.clear()
        profile = cProfile.Profile()
        profile.runcall(real, self, a, b)
        calls = Counter(ufuncs)
        for (file, _, name), (_, ncalls, *_) in pstats.Stats(profile).stats.items():
            if file != __file__:  # not the ufunc counters above
                calls[name] += ncalls
        per_block.append((b - a, calls))

    monkeypatch.setattr(engine_module._Stepper, "_kernel", kernel)
    netlists = Path(__file__).resolve().parents[1] / "netlists"
    for name in ("buck.net", "buck_diode.net", "flyback_diode.net"):
        run(parse_netlist((netlists / name).read_text()), std_config(3e-3))
    assert len({length for length, _ in per_block}) > 5
    fixed = []
    for length, calls in per_block:
        assert calls["dot"] == calls["multiply"] == calls["subtract"] == length
        fixed.append(calls - Counter(dot=length, multiply=length, subtract=length))
    assert all(calls == fixed[0] for calls in fixed)


def test_run_stats_report_the_worst_residual_and_largest_row_update(monkeypatch):
    """The worst residual over its bound is the largest any check returned,
    and the largest row update is the most diode rows one period moved: one
    on the light-load buck, both on a buck feeding a flyback.  The rows are
    checked at the end of the run, CHECK_ROWS at a time, the bootstrap's
    with the first."""
    import avgcell.engine as engine_module

    ratios, sizes = [], []
    real = engine_module.check_residual

    def record(A, x, *args):
        sizes.append(len(x))
        ratios.append(real(A, x, *args))
        return ratios[-1]

    monkeypatch.setattr(engine_module, "check_residual", record)
    netlists = Path(__file__).resolve().parents[1] / "netlists"
    dcm = run(parse_netlist((netlists / "buck_dcm.net").read_text()), std_config(12e-3))
    stats = dcm.stats
    # the bootstrap and 1200 periods
    assert sizes == [engine_module.CHECK_ROWS, 1201 - engine_module.CHECK_ROWS]
    assert stats.blocks > 0 and stats.stepped_periods > 0
    assert stats.worst_residual_ratio == max(ratios)
    assert 0.0 < stats.worst_residual_ratio <= 1.0
    assert stats.largest_row_update == 1

    cascade = run(parse_netlist(BUCK_INTO_FLYBACK), SimConfig(0.4, 100e3, 1e-3))
    assert cascade.stats.largest_row_update == 2
    assert 0.0 < cascade.stats.worst_residual_ratio <= 1.0


def test_step_fixed_point_at_steady_state(buck_steady_run):
    previous, current = buck_steady_run.records[-2:]
    for node, value in current.node_voltages.items():
        assert value == pytest.approx(previous.node_voltages[node], rel=1e-9)
    for label, state in current.cells.items():
        before = previous.cells[label]
        for field in ("iL0", "iL1", "iL2", "d_p", "iS_avg", "iD_avg"):
            assert getattr(state, field) == pytest.approx(
                getattr(before, field), rel=1e-9, abs=1e-12
            )


def test_dcm_refine_converges_to_same_steady_state():
    circuit = parse_netlist(BUCK_DCM)
    base = run(circuit, std_config(12e-3))
    refined = run(circuit, std_config(12e-3, dcm_refine=True))
    assert tail_mean(refined.node_voltage(2)) == pytest.approx(
        tail_mean(base.node_voltage(2)), rel=0.01
    )


def _poison_period(monkeypatch, period, how):
    """Make the CCM kernel's solution of ``period`` non-finite or put it
    over its residual bound, right where the kernel solves it; returns the
    list of (first, stop) rows of the kernel runs that solved it."""
    import avgcell.engine as engine_module

    real = engine_module._Stepper._kernel
    hits = []

    def poisoned(self, a, b):
        real(self, a, b)
        row = period - self.first_period + 1
        if a <= row < b:
            hits.append((a, b))
            if how == "non-finite":
                self.rows.x[row, 0] = math.nan
            else:
                self.rows.x[row] *= 1.0 + 1e-6

    monkeypatch.setattr(engine_module._Stepper, "_kernel", poisoned)
    return hits


def test_singular_system_reports_period(monkeypatch, buck_circuit):
    hits = _poison_period(monkeypatch, 2, "non-finite")
    with pytest.raises(SingularSystem) as excinfo:
        run(buck_circuit, std_config(1e-3))
    # Bootstrap plus periods 0 and 1 succeed; period 2 fails.
    assert excinfo.value.period == 2
    assert hits


def test_failed_bootstrap_reports_no_period(monkeypatch, buck_circuit):
    """The bootstrap is solved as row 0, by the stepper's solve from its
    product q = Q s; a failure there belongs to no period."""
    import avgcell.engine as engine_module

    real_init = engine_module._Stepper.__init__
    real_solve = engine_module._Stepper._solve
    solved = []

    def poisoned(self, *args):
        real_init(self, *args)
        self.Q = self.Q * math.nan  # P, and so every CCM block, stays finite

    def solve(self, r, *args):
        solved.append(r)
        return real_solve(self, r, *args)

    monkeypatch.setattr(engine_module._Stepper, "__init__", poisoned)
    monkeypatch.setattr(engine_module._Stepper, "_solve", solve)
    with pytest.raises(SingularSystem) as excinfo:
        run(buck_circuit, std_config(1e-3))
    assert excinfo.value.period is None
    assert solved == [0]


@pytest.mark.parametrize("how", ["non-finite", "over-bound"])
def test_failed_solution_inside_a_block_reports_its_period(monkeypatch, how):
    """A CCM block checks every period's residual: a bad solution in the
    middle of a block raises SingularSystem with that period, not the
    block's first."""
    circuit = parse_netlist(BUCK)
    hits = _poison_period(monkeypatch, 37, how)
    with pytest.raises(SingularSystem) as excinfo:
        run(circuit, std_config(1e-3))
    assert excinfo.value.period == 37
    assert "residual" in str(excinfo.value)
    (first, stop), = hits
    assert first < 37 + 1 < stop - 1


@pytest.mark.parametrize("how", ["non-finite", "over-bound"])
def test_failed_solution_past_the_first_check_reports_the_earliest(monkeypatch, how):
    """The residuals are checked at the end of the run, CHECK_ROWS rows at a
    time and in order: a bad solution inside a CCM block past the first
    check's rows raises SingularSystem with its own period, and of two bad
    solutions the earlier one is reported."""
    import avgcell.engine as engine_module

    circuit, config = parse_netlist(BUCK), std_config(2e-2)  # 2000 periods
    late = engine_module.CHECK_ROWS + 100
    hits = _poison_period(monkeypatch, late, how)
    with pytest.raises(SingularSystem) as excinfo:
        run(circuit, config)
    assert excinfo.value.period == late
    assert "residual" in str(excinfo.value)
    (first, stop), = hits
    assert first < late + 1 < stop - 1
    _poison_period(monkeypatch, 37, how)
    with pytest.raises(SingularSystem) as excinfo:
        run(circuit, config)
    assert excinfo.value.period == 37


def _poison_stepped(monkeypatch, period, how):
    """Make the stepper's solution of ``period`` non-finite or put it over
    its residual bound, after the stepper used it; returns the list of
    (first period, periods) of every residual check."""
    import avgcell.engine as engine_module

    real = engine_module._Stepper._solve
    real_check = engine_module.check_residual
    checks = []

    def poisoned(self, r, *args):
        drives = real(self, r, *args)
        if r == period - self.first_period + 1:
            if how == "non-finite":
                self.rows.x[r, 0] = math.nan
            else:
                self.rows.x[r] *= 1.0 + 1e-6
        return drives

    def check(A, x, *args):
        checks.append((args[2], len(np.atleast_2d(x))))
        return real_check(A, x, *args)

    monkeypatch.setattr(engine_module._Stepper, "_solve", poisoned)
    monkeypatch.setattr(engine_module, "check_residual", check)
    return checks


@pytest.mark.parametrize("how", ["non-finite", "over-bound"])
def test_failed_solution_inside_a_stretch_reports_its_period(monkeypatch, how):
    """The stepper checks a stretch of its periods at once, each against
    its own matrix: a bad solution in the middle of a stretch raises
    SingularSystem with that period, not the stretch's first."""
    checks = _poison_stepped(monkeypatch, 37, how)
    with pytest.raises(SingularSystem) as excinfo:
        run(parse_netlist(BUCK_DCM), std_config(1e-3))
    assert excinfo.value.period == 37
    assert "residual" in str(excinfo.value)
    first, periods = checks[-1]
    assert first < 37 < first + periods - 1


@pytest.mark.parametrize(
    "bad, reported, message",
    [(37, 37, "residual"), (None, 40, "row-update pivot")],
    ids=["earlier-bad-residual", "clean-stretch"],
)
def test_pivot_failure_inside_a_stretch_reports_the_earliest_period(
    monkeypatch, bad, reported, message
):
    """A row-update pivot that fails inside a stretch has the stretch's
    earlier periods checked first: an earlier bad solution is the one
    reported, with its own message, and otherwise the pivot's period."""
    import avgcell.engine as engine_module

    if bad is not None:
        _poison_stepped(monkeypatch, bad, "over-bound")
    real_solve = engine_module._Stepper._solve

    def solve(self, r, *args):
        if r != 40 - self.first_period + 1:
            return real_solve(self, r, *args)
        with _nan_pivots(self.update):
            return real_solve(self, r, *args)

    monkeypatch.setattr(engine_module._Stepper, "_solve", solve)
    with pytest.raises(SingularSystem) as excinfo:
        run(parse_netlist(BUCK_DCM), std_config(1e-3))
    assert excinfo.value.period == reported
    assert message in str(excinfo.value)


# A diode buck feeding a diode flyback (turns ratio 1.7), started from rest:
# the two cells leave continuous conduction in different periods.
BUCK_INTO_FLYBACK = """\
VDC 1 1 0 24.0
SCD1 1 1 0 2 22e-6 0
C 1 2 0 47e-6 0
R 1 2 0 80.0
FBD1 2 1 0 3 15e-6 1.7 0
C 2 3 0 68e-6 0
R 2 3 0 120.0
"""


def test_row_updated_system_equals_assembled_system(monkeypatch):
    """Every period is solved from the bootstrap's factors, yet the system
    its residual is checked against, A0 with the row changes the check
    receives, is the one assembly gives for that period's predictions: in
    CCM blocks and stepped periods, with one cell and with both in DCM."""
    import avgcell.engine as engine_module

    checked = {}
    real = engine_module.check_residual

    def capture(A, x, z, a_norm, period=None, moves=None):
        # Row 0 of the first check is the bootstrap's, period -1.
        for k, z_k in enumerate(np.atleast_2d(z)):
            assert period + k not in checked
            A_k, a_norm_k = A.copy(), a_norm
            if moves is not None:
                rd, cols, V = moves
                A_k[rd] = 0.0
                A_k[np.array(rd)[:, None], cols] = V[k]
                A_k[rd, rd] = 1.0
                a_norm_k = max(a_norm, *(1.0 + np.abs(V[k]).sum(axis=-1)))
            checked[period + k] = (A_k, z_k.copy(), a_norm_k)
        return real(A, x, z, a_norm, period, moves)

    monkeypatch.setattr(engine_module, "check_residual", capture)
    circuit = parse_netlist(BUCK_INTO_FLYBACK)
    config = SimConfig(0.4, 100e3, 1e-3)
    result = run(circuit, config)
    assert sorted(checked) == list(range(-1, len(result.records)))
    assert result.stats.block_periods > 0 and result.stats.stepped_periods > 0

    dcm_counts = set()
    previous = result.bootstrap
    for record in result.records:
        A, z, a_norm = checked[record.index]
        d_p = {label: state.d_p for label, state in record.cells.items()}
        iL0s = {label: state.iL0 for label, state in record.cells.items()}
        cap_sources = {
            label: cap.i0_next for label, cap in previous.capacitors.items()
        }
        system = assemble_system(circuit, config.d, config.T_s, d_p)
        z_assembled = rhs(system, cap_sources, iL0s)
        np.testing.assert_allclose(A, system.A, rtol=4 * np.finfo(float).eps, atol=0)
        np.testing.assert_allclose(z, z_assembled, rtol=4 * np.finfo(float).eps, atol=0)
        assert a_norm == pytest.approx(np.abs(system.A).sum(axis=1).max(), rel=1e-15)
        dcm_counts.add(sum(s.mode is Mode.DCM for s in record.cells.values()))
        previous = record
    assert dcm_counts == {0, 1, 2}


@contextmanager
def _nan_pivots(update, rows=None):
    """Make the pivots of ``update``'s lone diode rows in ``rows`` (all by
    default) NaN while the block runs, by a NaN diagonal term ra_i . w_i of
    C: a NaN pivot fails the pivot rule."""
    diagonal = update._raw_ii
    update._raw_ii = [math.nan if rows is None or i in rows else v
                      for i, v in enumerate(diagonal)]
    try:
        yield
    finally:
        update._raw_ii = diagonal


def test_singular_row_update_reports_period(monkeypatch):
    """A row-updated system that is singular raises SingularSystem with
    the period index, without a refactorization to find it."""
    reference = run(parse_netlist(BUCK_DCM), std_config(1e-3))
    first_dcm = next(
        r.index for r in reference.records if r.cells["SCD1"].mode is Mode.DCM
    )
    real = mna.RowUpdate.solve

    def singular(self, *args):
        with _nan_pivots(self):
            return real(self, *args)

    monkeypatch.setattr(mna.RowUpdate, "solve", singular)
    with pytest.raises(SingularSystem) as excinfo:
        run(parse_netlist(BUCK_DCM), std_config(1e-3))
    assert excinfo.value.period == first_dcm
    assert "row-update pivot" in str(excinfo.value)


def test_lone_row_pivot_failure_reports_its_period(monkeypatch):
    """A period's lone diode rows are solved in one pass that applies the
    pivot rule to each of them: a NaN pivot in the last of three parallel
    stages' rows raises SingularSystem with that period."""
    circuit, config = _parallel_dcm()
    real = mna.RowUpdate.solve
    calls = []  # the rows each solve with a row moved moves

    def solve(self, q, d_ps, out):
        moved = sum(d_p != self.d_p0 for d_p in d_ps)
        if moved:
            calls.append(moved)
        if len(calls) == 5 and moved:  # period 4; the bootstrap moves no row
            with _nan_pivots(self, [len(d_ps) - 1]):
                return real(self, q, d_ps, out)
        return real(self, q, d_ps, out)

    monkeypatch.setattr(mna.RowUpdate, "solve", solve)
    with pytest.raises(SingularSystem) as excinfo:
        run(circuit, config)
    assert excinfo.value.period == 4
    assert "row-update pivot nan in column 2" in str(excinfo.value)
    assert calls == [3] * 5


@pytest.mark.parametrize("row", [0, 1])
def test_coupled_row_pivot_failure_reports_its_period(monkeypatch, row):
    """A period's coupled diode rows are solved together by elimination,
    which applies the pivot rule to each column: a NaN diagonal term of C
    in one of the cascade's two coupled rows, in the first period that
    moves both (period 22), raises SingularSystem with that period and
    names the column of that row's pivot."""
    circuit, config = _cascade_dcm()
    real = mna.RowUpdate.solve
    calls = []  # the rows each solve with a row moved moves

    def solve(self, q, d_ps, out):
        assert self._lone == [False, False]
        moved = sum(d_p != self.d_p0 for d_p in d_ps)
        if moved:
            calls.append(moved)
        if moved != 2:
            return real(self, q, d_ps, out)
        raw = self._raw
        self._raw = [list(r) for r in raw]
        self._raw[row][row] = math.nan
        try:
            return real(self, q, d_ps, out)
        finally:
            self._raw = raw

    monkeypatch.setattr(mna.RowUpdate, "solve", solve)
    with pytest.raises(SingularSystem) as excinfo:
        run(circuit, config)
    assert excinfo.value.period == 22
    assert str(excinfo.value) == f"period 22: row-update pivot nan in column {row} below tolerance"
    assert calls == [1] * 22 + [2]


def test_records_carry_time_axis(buck_run):
    times = buck_run.times()
    assert times[0] == 0.0
    assert times[1] == pytest.approx(1e-5)
    assert len(times) == 500


def test_arbitrary_node_ids_are_remapped():
    text = (
        "VDC 1 7 0 10.0\nSCN1 1 7 0 23 10e-6 0\nC 1 23 0 1e-4 0\n"
        "R 1 23 0 5.0\nIDC 1 23 0 4.0\n"
    )
    result = run(parse_netlist(text), std_config(5e-3))
    assert tail_mean(result.node_voltage(23)) == pytest.approx(5.0, rel=0.01)


def test_step_solves_only_its_period(monkeypatch):
    """Setting a stepper up forms P, its one solve, and Q; step() adds the
    product q = Q s of its period and none for a bootstrap, which run()
    alone solves."""
    import avgcell.engine as engine_module

    circuit, config = parse_netlist(BUCK_DCM), std_config(1e-3)
    result = run(circuit, config)
    previous, reference = result.records[-2:]
    assert reference.cells["SCD1"].mode is Mode.DCM  # a stepped period
    real = engine_module.lu_solve
    calls = []

    def counted(inverse, b):
        calls.append(b.ndim)
        return real(inverse, b)

    monkeypatch.setattr(engine_module, "lu_solve", counted)
    products = count_products(monkeypatch)
    engine_module._Stepper(circuit, config, 1)
    assert calls == [2]
    assert products["q"] == 0
    calls.clear()
    assert step(circuit, config, previous) == reference
    assert calls == [2]
    assert products["q"] == 1


def test_a_stepped_period_costs_the_same_products_at_any_k(monkeypatch):
    """A stepped period with its diode rows moved makes three products,
    q = Q s, y W and E x, whether one row moves (buck_dcm.net, k = 1) or
    three (PARALLEL_DCM, k = 3): every moved row's U^T x0 is read off q.  A
    dcm_refine re-solve that zeroes no further start current forms no new
    q, since the state and so q are the same."""
    netlist = (Path(__file__).resolve().parents[1] / "netlists" / "buck_dcm.net").read_text()
    cases = {1: (parse_netlist(netlist), std_config(1e-3)), 3: _parallel_dcm()}
    counts = count_products(monkeypatch)
    for k, (circuit, config) in cases.items():
        for dcm_refine in (False, True):
            config = SimConfig(config.d, config.f_s, config.t_end, dcm_refine)
            result = run(circuit, config)
            assert result.stats.largest_row_update == k
            # Row r is period r - 1; a period in DCM has a diode row moved.
            moved = [counts[r] for r in range(1, len(result.records) + 1)
                     if result.dcm[r - 1].any()]
            assert len(moved) > 20
            if dcm_refine:  # each re-solved with the start currents it had
                assert result.stats.row_update_solves == 2 * len(moved)
                assert {tuple(c) for c in moved} == {(5, 1)}
            else:
                assert {tuple(c) for c in moved} == {(3, 1)}


def test_a_stepped_period_makes_the_same_python_calls_at_any_k(monkeypatch):
    """A stepped period runs the prediction, the row update's lone rows and
    the end currents each as one pass over the cells, with no function call
    per cell: each stepped period with its diode rows moved makes as many
    Python calls (sys.setprofile "call" events; C calls are not counted)
    with one row moved (buck_dcm.net, k = 1) as with three (PARALLEL_DCM,
    k = 3), plain and with dcm_refine."""
    import sys

    import avgcell.engine as engine_module

    real_step, calls = engine_module._Stepper._step, {}

    def step(self, r):
        count = [0]

        def profile(frame, event, arg):
            count[0] += event == "call"

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            return real_step(self, r)
        finally:
            sys.setprofile(previous)
            calls[r] = count[0]

    monkeypatch.setattr(engine_module._Stepper, "_step", step)
    netlist = (Path(__file__).resolve().parents[1] / "netlists" / "buck_dcm.net").read_text()
    cases = {1: (parse_netlist(netlist), std_config(1e-3)), 3: _parallel_dcm()}
    for dcm_refine in (False, True):
        counts = {}
        for k, (circuit, config) in cases.items():
            calls.clear()
            result = run(circuit, SimConfig(config.d, config.f_s, config.t_end, dcm_refine))
            assert result.stats.largest_row_update == k
            # Row r is period r - 1; a period in DCM has a diode row moved.
            moved = [calls[r] for r in range(1, len(result.records) + 1)
                     if result.dcm[r - 1].any()]
            assert len(moved) > 20
            counts[k] = set(moved)
        assert len(counts[1]) == 1
        assert counts[1] == counts[3], dcm_refine


def test_a_refined_prediction_that_zeroes_a_start_current_forms_q_again(monkeypatch):
    """When the dcm_refine re-solve puts a further cell in DCM, that cell's
    start current is zeroed: the period is solved from the new state, its
    own q = Q s formed again, and its record starts the cell at zero."""
    import avgcell.engine as engine_module

    circuit, config = _cascade_dcm(dcm_refine=True)
    forced = 5  # the flyback, FBD2, carries a current into period 5 in CCM
    real_predict = engine_module._Stepper._predict
    predictions = []

    def predict(self, y, iL0s):
        dcm, d_ps = real_predict(self, y, iL0s)
        predictions.append(dcm)
        # Two predictions a period, as SCD1 is in DCM: period 5's second.
        if len(predictions) == 2 * forced + 2:
            assert iL0s[1] > 0.0 and not dcm[1]
            dcm[1], d_ps[1], iL0s[1] = True, d_ps[1] / 2, 0.0
        return dcm, d_ps

    monkeypatch.setattr(engine_module._Stepper, "_predict", predict)
    counts = count_products(monkeypatch)
    result = run(circuit, config)
    assert result.dcm[forced - 1].tolist() == [True, False]
    assert result.dcm[forced].tolist() == [True, True]
    assert result.iL0[forced, 1] == 0.0
    assert counts[forced + 1][1] == 2
    assert all(counts[r][1] == 1 for r in counts if r not in ("q", forced + 1))
