"""Switched-circuit reference simulator tests."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from avgcell import SimConfig, parse_netlist, run
from avgcell.engine import InvalidCircuit, InvalidConfig
from avgcell.mna import SingularSystem
from avgcell.oracle import (
    OracleConfig,
    OutOfRange,
    SampledWaveform,
    _at_zero,
    _forward_biased,
    _SwitchedSimulator,
    period_average,
    simulate_switched,
)

from conftest import (
    BUCK,
    BUCK_DCM,
    BUCK_STEADY,
    RULE_EDGES,
    model_series,
    oracle_series,
    same_on_float_and_array,
    std_config,
)

_edge = st.one_of(
    st.sampled_from(RULE_EDGES), st.floats(allow_nan=False, allow_infinity=False)
)


@settings(max_examples=200, deadline=None)
@given(i=_edge)
def test_at_zero_is_not_above_zero(i):
    assert same_on_float_and_array(_at_zero, i) == (i <= 0.0) == (not i > 0.0)


@settings(max_examples=400, deadline=None)
@given(v_p=_edge, v_x=_edge)
# Pairs where only the |v_p| term, or only the |v_x| term, of the bound
# decides.
@example(v_p=469069.57871311594, v_x=469069.57824404637)
@example(v_p=-880905.4263420508, v_x=-880905.4272229562)
# A bias of 1e-8 of the voltage scale, ten times the tolerance.
@example(v_p=5.0, v_x=5.0 - 5e-8)
def test_forward_bias_is_the_tolerance_test(v_p, v_x):
    """_forward_biased is the former v_p - v_x > 1e-9 max(1, |v_p|, |v_x|)
    on every pair of finite voltages, on floats and arrays alike."""
    expected = v_p - v_x > 1e-9 * max(1.0, abs(v_p), abs(v_x))
    assert same_on_float_and_array(_forward_biased, v_p, v_x) == expected


def test_substep_floor_enforced():
    with pytest.raises(InvalidConfig):
        OracleConfig(50)


@pytest.mark.parametrize("steps", [150.5, 1000.0, float("nan"), float("inf"), "1000"])
def test_substep_count_must_be_an_integer(steps):
    with pytest.raises(InvalidConfig):
        OracleConfig(steps)


def test_numpy_integer_substep_count_accepted():
    assert OracleConfig(np.int64(200)).substeps_per_period == 200


def test_requires_a_cell():
    circuit = parse_netlist("VDC 1 1 0 10.0\nR 1 1 0 5.0\n")
    with pytest.raises(InvalidCircuit):
        simulate_switched(circuit, std_config(1e-4))


def test_run_too_long_to_sample_is_invalid_config():
    """1e296 periods: numpy refuses the sample array before allocating it."""
    with pytest.raises(InvalidConfig, match="periods"):
        simulate_switched(parse_netlist(BUCK_STEADY), SimConfig(0.5, 1e300, 1e-4))


def test_non_finite_samples_raise():
    """A 1e308 V source across a 1 nH cell into 1 mOhm overflows the first
    substep; the run raises instead of returning NaN samples."""
    circuit = parse_netlist(
        "VDC 1 1 0 1e308\nSCN1 1 1 0 2 1e-9 0\nC 1 2 0 1e-4 0\nR 1 2 0 1e-3\n"
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SingularSystem, match="non-finite"):
            simulate_switched(circuit, std_config(2e-5), OracleConfig(100))


def test_full_duty_ramp_is_exact():
    """Both cell terminals pinned by sources and d = 1: the inductor
    integrates a constant voltage, which the trapezoidal rule reproduces
    exactly (up to float accumulation)."""
    circuit = parse_netlist("VDC 1 1 0 10.0\nSCN 1 1 0 2 10e-6 0\nVDC 2 2 0 5.0\n")
    config = SimConfig(1.0, 100e3, 1e-5)
    sampled = simulate_switched(circuit, config, OracleConfig(1000))
    iL = sampled["iL(SCN1)"]
    assert iL.values[0] == 0.0
    assert iL.values[-1] == pytest.approx(5.0, rel=1e-12)
    mid = len(iL.values) // 2
    assert iL.values[mid] == pytest.approx(2.5, rel=1e-9)


def _crossing_substeps(theta):
    """The lengths, in substeps, of the steps ``_advance`` takes when the
    diode current of a buck crosses zero at the fraction ``theta`` of a
    backward-Euler substep."""
    sim = _SwitchedSimulator(parse_netlist(BUCK_DCM), std_config(1e-5), OracleConfig(100))
    cell = sim.cells[0]
    sim.s[0] = 5.0  # the output capacitor's voltage drives the current down
    sim.s[cell.si] = 1.0
    sim._switch_off()
    # The substep's end current is alpha s0 + beta in the start current s0.
    phi = sim._assemble(sim.h, "be").Phi[cell.si]
    alpha, beta = phi[cell.si], phi @ sim.s - phi[cell.si] * sim.s[cell.si]
    sim.s[cell.si] = -theta * beta / (1.0 - theta * (1.0 - alpha))
    lengths, step = [], sim._step

    def recording(h, method):
        lengths.append(h / sim.h)
        return step(h, method)

    sim._step = recording
    sim._advance(sim.h, "be")
    assert cell.phase == "rest"
    return lengths


@pytest.mark.parametrize(
    "theta, taken",
    [
        (1e-8, [1.0, 1e-8, 1.0 - 1e-8]),
        (1e-10, [1.0, 1.0 - 1e-10]),
        (1.0 - 1e-11, [1.0, 1.0 - 1e-11, 1e-11]),
        (1.0 - 1e-13, [1.0, 1.0 - 1e-13]),
    ],
    ids=["partial", "partial-skipped", "remainder", "remainder-skipped"],
)
def test_a_crossing_skips_only_parts_below_its_thresholds(theta, taken):
    """A zero crossing integrates to it and then finishes the substep, but
    a part of at most 1e-9 substep before it, or of at most 1e-12 substep
    after it, is not taken."""
    assert _crossing_substeps(theta) == pytest.approx(taken, rel=1e-3, abs=0.0)


class TestPeriodAverage:
    def test_constant_signal(self):
        wave = SampledWaveform("x", "V", np.linspace(0, 1e-5, 101),
                               np.full(101, 3.3), 100)
        assert period_average(wave, 0) == pytest.approx(3.3)

    def test_sawtooth(self):
        times = np.linspace(0, 1e-5, 101)
        wave = SampledWaveform("x", "V", times, np.linspace(0, 1, 101), 100)
        assert period_average(wave, 0) == pytest.approx(0.5, abs=1e-2)

    def test_out_of_range(self):
        wave = SampledWaveform("x", "V", np.linspace(0, 1e-5, 101),
                               np.zeros(101), 100)
        with pytest.raises(OutOfRange):
            period_average(wave, 1)
        with pytest.raises(OutOfRange):
            period_average(wave, -1)


def test_steady_state_buck_current_average(oracle_buck):
    iL = oracle_buck["iL(SCN1)"]
    tail = np.mean([period_average(iL, n) for n in range(450, 500)])
    assert tail == pytest.approx(5.0, rel=0.01)


def test_grid_convergence():
    """Doubling the substep count moves steady-state period averages by
    less than 0.1%."""
    circuit = parse_netlist(BUCK_STEADY)
    config = std_config(1e-3)
    coarse = simulate_switched(circuit, config, OracleConfig(250))
    fine = simulate_switched(circuit, config, OracleConfig(500))
    for name in ("v(2)", "iL(SCN1)"):
        a = period_average(coarse[name], 99)
        b = period_average(fine[name], 99)
        assert a == pytest.approx(b, rel=1e-3)


def test_energy_balance_lossless_buck(oracle_buck_steady):
    """Average input power equals average output power within 1% for the
    synchronous buck at steady state."""
    i_src = oracle_buck_steady["i(VDC1)"]
    v_out = oracle_buck_steady["v(2)"]
    n = 199
    p_in = -10.0 * period_average(i_src, n)
    steps = v_out.substeps_per_period
    seg = slice(n * steps, (n + 1) * steps + 1)
    t = v_out.times[seg]
    v = v_out.values[seg]
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    p_out = float(trapezoid(v * v / 5.0 + 4.0 * v, t) / (t[-1] - t[0]))
    assert p_in == pytest.approx(p_out, rel=0.01)


def test_oracle_matches_model_at_steady_state(buck_steady_run, oracle_buck_steady):
    m_v, m_i = model_series(buck_steady_run, 2, "SCN1")
    o_v, o_i = oracle_series(oracle_buck_steady, 2, "SCN1")
    assert np.abs(m_v - o_v).max() < 0.01
    assert np.abs(m_i - o_i).max() < 0.05


def test_switched_ripple_extremes(oracle_buck_steady):
    v = oracle_buck_steady["v(2)"].values[-1001:]
    iL = oracle_buck_steady["iL(SCN1)"].values[-1001:]
    assert iL.min() == pytest.approx(3.75, rel=0.01)
    assert iL.max() == pytest.approx(6.25, rel=0.01)
    assert v.max() - v.min() == pytest.approx(0.03125, rel=0.05)


def test_dcm_hold_at_zero(oracle_dcm):
    """In the discontinuous steady state the sampled inductor current rests
    at exactly zero for part of every period."""
    iL = oracle_dcm["iL(SCD1)"].values
    steps = oracle_dcm["iL(SCD1)"].substeps_per_period
    last = iL[-steps:]
    assert (last == 0.0).sum() > steps // 10
    assert last.min() >= 0.0


def test_flyback_diode_never_conducts_reverse():
    """The secondary diode blocks reverse current, so the magnetizing
    current stays non-negative through the ringing startup."""
    circuit = parse_netlist(
        "VDC 1 1 0 10.0\nFBD 1 1 0 2 10e-6 2.0 0\nC 1 2 0 1e-4 0\n"
        "R 1 2 0 5.0\nIDC 1 2 0 1.0\n"
    )
    sampled = simulate_switched(circuit, std_config(5e-4), OracleConfig(200))
    assert sampled["iL(FBD1)"].values.min() >= 0.0


def test_initial_sample_reports_initial_conditions(oracle_buck):
    assert oracle_buck["iL(SCN1)"].values[0] == 0.0
    assert oracle_buck["v(1)"].values[0] == pytest.approx(10.0)


def test_capacitor_written_ground_first_samples_the_same_bits():
    """``C 1 0 2`` is ``C 1 2 0`` in the oracle, every sample bit for bit:
    the t = 0 operating point reads v(2) = 0.0, never -0.0."""
    config = std_config(2e-4)
    reversed_text = BUCK.replace("C 1 2 0 1e-4", "C 1 0 2 1e-4")
    forward = simulate_switched(parse_netlist(BUCK), config)
    reversed_ = simulate_switched(parse_netlist(reversed_text), config)
    assert list(forward) == list(reversed_)
    for name, wave in forward.items():
        assert wave.values.tobytes() == reversed_[name].values.tobytes(), name
    assert not np.signbit(reversed_["v(2)"].values[0])


def test_startup_overshoot_bounded_by_oracle(buck_run, oracle_buck):
    """The averaged model must not overshoot meaningfully beyond the true
    switched trajectory."""
    o_v, _ = oracle_series(oracle_buck, 2, "SCN1")
    model_peak = max(buck_run.node_voltage(2))
    assert model_peak <= 1.05 * o_v.max()


def test_grid_spacing_invariant(oracle_buck):
    times = oracle_buck["v(2)"].times
    assert len(times) == 500 * 1000 + 1
    assert np.allclose(np.diff(times), 1e-5 / 1000)


def test_signals_share_one_sample_buffer(oracle_buck):
    """Every signal of a run is a column view of the run's one sample
    array, not a copy of it."""
    buffer = oracle_buck["v(1)"].values.base
    assert buffer.shape == (500 * 1000 + 1, len(oracle_buck))
    for wave in oracle_buck.values():
        assert wave.values.base is buffer, wave.name
        assert np.shares_memory(wave.values, buffer), wave.name


def test_each_network_is_stamped_once(monkeypatch):
    """A buck in steady DCM crosses zero in every period, and every
    crossing takes two backward-Euler part-substeps of uncached length;
    still each (phase tuple, method) network is stamped once."""
    stamped = []
    stamp = _SwitchedSimulator._stamp_network

    def counting(self, method):
        stamped.append((tuple(c.phase for c in self.cells), method))
        return stamp(self, method)

    monkeypatch.setattr(_SwitchedSimulator, "_stamp_network", counting)
    # Started on the averaged model's steady state, v(2) = 8.7695 V.
    circuit = parse_netlist(BUCK_DCM.replace("1e-4 0", "1e-4 8.7695"))
    iL = simulate_switched(circuit, std_config(2e-4), OracleConfig(1000))["iL(SCD1)"]
    held = iL.values[1:].reshape(20, 1000) == 0.0
    assert held.any(axis=1).all()
    assert sorted(stamped) == sorted(
        ((phase,), method) for phase in ("on", "diode", "rest") for method in ("be", "tr")
    )


def test_capacitors_on_one_node_are_one_capacitor():
    """Two capacitors in parallel on the output sample as one of their
    summed capacitance, to within rounding."""
    config = std_config(2e-4)
    two = simulate_switched(parse_netlist(BUCK_DCM + "C 2 2 0 3.3e-5 0\n"), config)
    one = simulate_switched(parse_netlist(BUCK_DCM.replace("1e-4 0", "1.33e-4 0")), config)
    for name, wave in one.items():
        gap = np.abs(two[name].values - wave.values).max()
        assert gap <= 1e-10 * np.abs(wave.values).max(), name


def test_diode_blocks_at_switch_off_without_forward_current():
    """An output that starts above the source drives the inductor current
    negative through the conducting switch; at switch-off the diode blocks
    at once and the current is held at zero for the rest of the period."""
    circuit = parse_netlist(BUCK_DCM.replace("1e-4 0", "1e-4 12"))
    iL = simulate_switched(circuit, std_config(1e-5))["iL(SCD1)"].values
    assert iL[500] < 0.0  # the sample at the switch-off instant
    assert (iL[501:] == 0.0).all()


def test_diodes_reaching_zero_together_both_block():
    """Two identical stages cross zero in the same substep: the part-substep
    up to the first crossing blocks that diode, and the other, at zero after
    the remainder, blocks with it.  Both currents are held at zero until the
    period ends."""
    stage = "SCD{k} 1 1 0 {n} 10e-6 0\nC {k} {n} 0 1e-4 8.77\nR {k} {n} 0 100.0\n"
    circuit = parse_netlist(
        "VDC 1 1 0 10.0\n" + stage.format(k=1, n=2) + stage.format(k=2, n=3)
    )
    sampled = simulate_switched(circuit, std_config(1e-5))
    held = []
    for label in ("SCD1", "SCD2"):
        iL = sampled[f"iL({label})"].values
        zero = 500 + int(np.argmax(iL[500:] == 0.0))  # the first held sample
        assert iL[zero - 1] > 0.0 and (iL[zero:] == 0.0).all(), label
        held.append(zero)
    assert held[0] == held[1] < 1000
