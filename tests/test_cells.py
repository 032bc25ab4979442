"""Switching-cell constitutive model tests.

Expected values are hand evaluations of the averaged cell equations at the
benchmark operating points (buck: 10 V in, 5 V out; flyback: 20 V out at
turns ratio 2).
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from avgcell.cells import (
    CURRENT_RTOL,
    DegenerateDuty,
    Mode,
    advance_inductor,
    avg_diode_current,
    avg_inductor_voltage,
    avg_switch_current,
    compute_d2,
    diode_clamps,
    drive_voltages,
    end_current_from_averages,
    end_currents,
    keeps_ccm,
    predict_modes,
    resolve_mode,
    snaps_to_zero,
)
from avgcell.netlist import Element

from conftest import RULE_EDGES, same_on_float_and_array

BASIC = Element("SCN", "SCN1", (1, 0, 2), 10e-6)
FLY2 = Element("FBN", "FBN1", (1, 0, 2), 10e-6, turns=2.0)
FLY17 = Element("FBD", "FBD1", (1, 0, 2), 10e-6, turns=1.7)
TS = 10e-6


class TestDriveVoltages:
    def test_basic_buck_operating_point(self):
        assert drive_voltages((10, 0, 5), BASIC) == (5, -5)

    def test_equal_ports_zero_drive(self):
        assert drive_voltages((3, 3, 3), BASIC) == (0, 0)

    def test_flyback_operating_point(self):
        vL1, vL2 = drive_voltages((10, 0, 20), FLY2)
        assert (vL1, vL2) == (10, -10)
        # volt-second balance at d = 0.5
        assert avg_inductor_voltage(vL1, vL2, 0.5, 0.5) == 0

    @pytest.mark.parametrize(
        "ports, cell, expected",
        [
            ((-0.0, 0.0, 0.0), BASIC, "(0.0, 0.0)"),  # -0.0 - 0.0 would be -0.0
            ((-0.0, -0.0, 0.0), FLY17, "(0.0, 0.0)"),
            ((0.0, -0.0, -0.0), FLY17, "(0.0, 0.0)"),
            ((10, 0, 5), BASIC, "(5.0, -5.0)"),  # int ports give floats
            ((10, 5, 2), FLY17, "(5.0, 1.7647058823529413)"),  # (5 - 2) / 1.7 is ...11
            ((math.nan, 1.0, 2.0), BASIC, "(nan, -1.0)"),
            ((math.inf, 0.0, math.inf), BASIC, "(nan, -inf)"),
            ((math.inf, -math.inf, 1.0), FLY17, "(inf, -inf)"),
        ],
    )
    def test_edge_values_bit_for_bit(self, ports, cell, expected):
        assert repr(drive_voltages(ports, cell)) == expected

    @settings(max_examples=400, deadline=None)
    @given(
        st.tuples(*[st.one_of(st.floats(), st.integers(-10**6, 10**6),
                              st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]))] * 3),
        st.one_of(st.sampled_from([BASIC, FLY2, FLY17]),
                  st.floats(0.05, 20.0).map(lambda n: Element("FBD", "FBD1", (1, 0, 2), 1e-5, turns=n))),
    )
    def test_drive_voltages_are_the_sums_of_the_stamp_coefficients(self, ports, cell):
        """vL1 and vL2 are each the sum from 0 of the stamp's coefficients
        times the port voltages, in the order a, p, c: vL1 = a - c and vL2 =
        p - c, or for a flyback vL1 = a - p and vL2 = (p - c) / n, each
        coefficient 1.0 or 1.0 / n.  repr tells every float apart, the sign
        of zero included, but not the sign of a NaN, which IEEE 754 leaves
        open where two NaNs meet."""
        v_a, v_p, v_c = ports
        if cell.is_flyback:
            inv = 1.0 / cell.turns
            expected = (0 + 1.0 * v_a + -1.0 * v_p, 0 + inv * v_p + -inv * v_c)
        else:
            expected = (0 + 1.0 * v_a + -1.0 * v_c, 0 + 1.0 * v_p + -1.0 * v_c)
        assert repr(drive_voltages(ports, cell)) == repr(expected)


class TestComputeD2:
    def test_symmetric_voltages(self):
        assert compute_d2(5, -5, 0.4) == pytest.approx(0.4)

    def test_hand_evaluation(self):
        assert compute_d2(7.5, -2.5, 0.3) == pytest.approx(0.9)

    def test_non_negative_discharge_slope_forces_ccm(self):
        assert compute_d2(5, 0, 0.5) == math.inf
        assert compute_d2(5, 2, 0.5) == math.inf


class TestResolveMode:
    def test_boundary_counts_as_ccm(self):
        assert resolve_mode(0.5, 0.5) == (Mode.CCM, 0.5)

    def test_ccm_when_sum_exceeds_one(self):
        assert resolve_mode(0.3, 0.9) == (Mode.CCM, 0.7)

    def test_dcm_below_boundary(self):
        mode, d_p = resolve_mode(0.5, 0.2)
        assert mode is Mode.DCM
        assert d_p == pytest.approx(0.2)

    @pytest.mark.parametrize("d2", [0.2, 5e-324, 0.0, -0.0, -5e-324, -1.0, math.nan])
    def test_dcm_duty_is_max_of_d2_and_zero(self, d2):
        """A DCM d_p is max(d2, 0.0) as Python's max gives it, bit for bit:
        -0.0 and NaN come back as they went in."""
        mode, d_p = resolve_mode(0.5, d2)
        assert mode is Mode.DCM
        assert repr(d_p) == repr(max(d2, 0.0))


class TestAverageCurrents:
    def test_switch_current_from_zero_start(self):
        assert avg_switch_current(0.0, 5.0, 0.5, BASIC, TS) == pytest.approx(0.625)

    def test_switch_current_zero_duty(self):
        assert avg_switch_current(3.0, 5.0, 0.0, BASIC, TS) == 0.0

    def test_switch_current_buck_steady_state(self):
        # iL1 = 6.25, trapezoid (3.75 + 6.25) / 2 * 0.5
        assert avg_switch_current(3.75, 5.0, 0.5, BASIC, TS) == pytest.approx(2.5)

    def test_diode_current_from_zero_start(self):
        assert avg_diode_current(0.0, 5.0, -5.0, 0.5, 0.5, BASIC, TS) == pytest.approx(
            0.625
        )

    def test_diode_current_zero_interval(self):
        assert avg_diode_current(2.0, 5.0, -5.0, 0.5, 0.0, BASIC, TS) == 0.0

    def test_flyback_secondary_current_reflected(self):
        value = avg_diode_current(17.5, 10.0, -10.0, 0.5, 0.5, FLY2, TS)
        assert value == pytest.approx(5.0)


class TestAdvanceInductor:
    def test_boundary_ccm_triangle(self):
        assert advance_inductor(0.0, 5.0, -5.0, 0.5, 0.5, BASIC, TS) == (2.5, 0.0)

    def test_zero_drive_holds_current(self):
        assert advance_inductor(1.7, 0.0, 0.0, 0.5, 0.5, BASIC, TS) == (1.7, 1.7)

    def test_buck_steady_state_is_periodic(self):
        iL1, iL2 = advance_inductor(3.75, 5.0, -5.0, 0.5, 0.5, BASIC, TS)
        assert iL1 == pytest.approx(6.25)
        assert iL2 == pytest.approx(3.75)

    def test_tiny_end_current_snaps_to_zero(self):
        iL1, iL2 = advance_inductor(0.0, 5.0, -5.0 * (1 + 1e-14), 0.5, 0.5, BASIC, TS)
        assert iL2 == 0.0


class TestEndCurrentFromAverages:
    def test_consistency_with_steady_state(self):
        assert end_current_from_averages(2.5, 2.5, 3.75, 0.5, 0.5) == pytest.approx(
            3.75
        )

    def test_full_switch_interval(self):
        assert end_current_from_averages(5.0, 0.0, 4.0, 1.0, 0.0) == pytest.approx(6.0)

    def test_full_diode_interval(self):
        assert end_current_from_averages(0.0, 5.0, 4.0, 0.0, 1.0) == pytest.approx(6.0)

    def test_degenerate_duty_raises(self):
        with pytest.raises(DegenerateDuty):
            end_current_from_averages(0.0, 0.0, 1.0, 0.0, 0.0)

    @pytest.mark.parametrize(
        "d, d_p, vL1, vL2", [(0.5, 1e-10, 2.0, -1e10), (1e-10, 0.5, 1e10, -2.0)]
    )
    def test_an_interval_of_100_duty_tol_still_counts(self, d, d_p, vL1, vL2):
        """An interval of 1e-10 T_s is above DUTY_TOL, so both averages
        recover the end current, 1 A; the rule for a missing interval
        would give 2 A."""
        iS = avg_switch_current(1.0, vL1, d, BASIC, TS)
        iD = avg_diode_current(1.0, vL1, vL2, d, d_p, BASIC, TS)
        _, iL2 = advance_inductor(1.0, vL1, vL2, d, d_p, BASIC, TS)
        assert iL2 == pytest.approx(1.0)
        assert end_current_from_averages(iS, iD, 1.0, d, d_p) == pytest.approx(iL2)


class TestAvgInductorVoltage:
    def test_steady_state_balance(self):
        assert avg_inductor_voltage(5, -5, 0.5, 0.5) == 0

    def test_flyback_steady_state_balance(self):
        assert avg_inductor_voltage(10, -10, 0.5, 0.5) == 0

    def test_hand_evaluation(self):
        assert avg_inductor_voltage(5, -5, 0.6, 0.4) == pytest.approx(1.0)


_duty = st.floats(1e-3, 1.0, allow_nan=False)
_volt = st.floats(-50.0, 50.0, allow_nan=False)
_curr = st.floats(-20.0, 20.0, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(iL0=_curr, vL1=_volt, vL2=_volt, d=st.floats(1e-3, 1 - 1e-3), d_p=_duty)
def test_end_current_matches_advance_on_nondegenerate_duties(iL0, vL1, vL2, d, d_p):
    """Recovering iL2 from the averaged currents reproduces the direct
    piecewise-linear advance to 1e-9 relative."""
    iS = avg_switch_current(iL0, vL1, d, BASIC, TS)
    iD = avg_diode_current(iL0, vL1, vL2, d, d_p, BASIC, TS)
    recovered = end_current_from_averages(iS, iD, iL0, d, d_p)
    _, direct = advance_inductor(iL0, vL1, vL2, d, d_p, BASIC, TS)
    assert recovered == pytest.approx(direct, rel=1e-9, abs=1e-9)


@settings(max_examples=300, deadline=None)
@given(iL0=_curr, vL1=_volt, vL2=_volt, d=st.floats(1e-3, 1 - 1e-3), d_p=_duty)
def test_flyback_end_current_uses_rescaled_diode_average(iL0, vL1, vL2, d, d_p):
    iS = avg_switch_current(iL0, vL1, d, FLY2, TS)
    iD = avg_diode_current(iL0, vL1, vL2, d, d_p, FLY2, TS)
    recovered = end_current_from_averages(iS, FLY2.turns * iD, iL0, d, d_p)
    _, direct = advance_inductor(iL0, vL1, vL2, d, d_p, FLY2, TS)
    assert recovered == pytest.approx(direct, rel=1e-9, abs=1e-9)


@settings(max_examples=300, deadline=None)
@given(iL0=_curr, vL1=_volt, vL2=_volt, d=st.floats(1e-3, 1 - 1e-3), d_p=_duty)
def test_charge_identity(iL0, vL1, vL2, d, d_p):
    """The averaged device currents of a basic cell sum to the trapezoid
    average of the piecewise-linear inductor current."""
    iL1, iL2 = advance_inductor(iL0, vL1, vL2, d, d_p, BASIC, TS)
    iS = avg_switch_current(iL0, vL1, d, BASIC, TS)
    iD = avg_diode_current(iL0, vL1, vL2, d, d_p, BASIC, TS)
    trapezoid = d * (iL0 + iL1) / 2 + d_p * (iL1 + iL2) / 2
    assert iS + iD == pytest.approx(trapezoid, rel=1e-9, abs=1e-9)


_edge = st.one_of(
    st.sampled_from(RULE_EDGES), st.floats(allow_nan=False, allow_infinity=False)
)


@settings(max_examples=400, deadline=None)
@given(iL0=_edge)
def test_keeps_ccm_is_the_tolerance_test(iL0):
    """keeps_ccm is the former iL0 > CURRENT_RTOL max(1, |iL0|) on every
    finite current, on floats and arrays alike."""
    expected = iL0 > CURRENT_RTOL * max(1.0, abs(iL0))
    assert same_on_float_and_array(keeps_ccm, iL0) == expected


@settings(max_examples=400, deadline=None)
@given(iL1=_edge, iL2=_edge)
def test_snaps_to_zero_is_the_tolerance_test(iL1, iL2):
    """snaps_to_zero is the former |iL2| < CURRENT_RTOL max(1, |iL1|)."""
    expected = abs(iL2) < CURRENT_RTOL * max(1.0, abs(iL1))
    assert same_on_float_and_array(snaps_to_zero, iL1, iL2) == expected


def test_current_rules_at_the_tolerance_edges():
    """Twice CURRENT_RTOL, written out, is a current: it keeps CCM and does
    not snap to zero; half of it is zero to both rules.  At exactly the
    tolerance, CURRENT_RTOL max(1, |iL1|), a start current does not keep
    CCM and an end current does not snap to zero; an end current of zero
    does not clamp."""
    assert same_on_float_and_array(keeps_ccm, 2e-12)
    assert not same_on_float_and_array(snaps_to_zero, 1.0, 2e-12)
    assert not same_on_float_and_array(keeps_ccm, 0.5e-12)
    assert same_on_float_and_array(snaps_to_zero, 1.0, 0.5e-12)
    assert not same_on_float_and_array(keeps_ccm, CURRENT_RTOL)
    assert not same_on_float_and_array(snaps_to_zero, 1.0, CURRENT_RTOL)
    # 2 CURRENT_RTOL is CURRENT_RTOL * 2.0 exactly: the relative edge.
    assert not same_on_float_and_array(snaps_to_zero, 2.0, 2.0 * CURRENT_RTOL)
    assert not same_on_float_and_array(snaps_to_zero, -2.0, -2.0 * CURRENT_RTOL)
    assert not same_on_float_and_array(diode_clamps, 0.0)
    assert not same_on_float_and_array(diode_clamps, -0.0)


@settings(max_examples=200, deadline=None)
@given(iL2=_edge)
def test_diode_clamps_below_zero(iL2):
    assert same_on_float_and_array(diode_clamps, iL2) == (iL2 < 0.0)


# The rule edges, NaN, the infinities and both sides of 2 CURRENT_RTOL, and
# any float.
_any_value = st.one_of(
    st.sampled_from(
        RULE_EDGES
        + [math.nan, math.inf, -math.inf]
        + [edge for x in (2.0 * CURRENT_RTOL, -2.0 * CURRENT_RTOL)
           for edge in (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))]
    ),
    st.floats(),
)
# Cells as (iL0, vL1, vL2, d_p, k1, k, diode, rests).
_cells = st.lists(
    st.tuples(*[_any_value] * 6, st.booleans(), st.booleans()), min_size=1, max_size=4
)


@settings(max_examples=200, deadline=None)
@given(d=st.one_of(st.sampled_from([0.25, 0.5, 1.0]), st.floats(0.0, 1.0)), cells=_cells)
# A start current of exactly CURRENT_RTOL is zero; a synchronous cell at
# zero current keeps CCM and does not clamp a negative end current.
@example(0.25, [(CURRENT_RTOL, 1.0, -1.0, 0.5, 1.0, 1.0, True, False),
                (0.0, -1.0, -1.0, 0.5, 1.0, 1.0, False, False)])
# vL2 = 0 forces CCM; d + d2 = 1 is CCM; d2 = -0.0 gives d_p = -0.0.
@example(0.5, [(0.0, 1.0, 0.0, 0.5, 1.0, 1.0, True, False),
               (0.0, 1.0, -1.0, 0.5, 1.0, 1.0, True, False),
               (0.0, -0.0, -1.0, 0.5, 1.0, 1.0, True, False)])
# End currents of exactly CURRENT_RTOL from iL1 = 0 and of inf from iL1 =
# inf snap to zero by neither test; a diode cell's -CURRENT_RTOL clamps.
@example(0.5, [(0.0, 0.0, CURRENT_RTOL, 1.0, 1.0, 1.0, False, False),
               (math.inf, 1.0, 1.0, 1.0, 1.0, 1.0, False, False),
               (0.0, 0.0, -CURRENT_RTOL, 1.0, 1.0, 1.0, True, False)])
def test_stepped_period_rules_are_the_cells_rules(d, cells):
    """predict_modes and end_currents, a stepped period's passes over every
    cell, agree value for value, bits and the sign of zero included, with
    keeps_ccm, snaps_to_zero and diode_clamps as a CCM block applies them to
    arrays, and with compute_d2 and resolve_mode."""
    iL0s, vL1s, vL2s, d_ps, k1s, ks, diode, dcm = map(list, zip(*cells))
    keeps = keeps_ccm(np.array(iL0s)).tolist()
    modes = [
        (Mode.CCM, 1.0 - d) if not is_diode or keep else resolve_mode(d, compute_d2(vL1, vL2, d))
        for vL1, vL2, is_diode, keep in zip(vL1s, vL2s, diode, keeps)
    ]
    expected_dcm = [mode is Mode.DCM for mode, _ in modes]
    started = list(iL0s)
    assert repr(predict_modes(d, started, vL1s, vL2s, diode)) == repr(
        (expected_dcm, [d_p for _, d_p in modes])
    )
    assert repr(started) == repr([0.0 if rests else i for i, rests in zip(iL0s, expected_dcm)])

    with np.errstate(all="ignore"):
        iL1 = np.array(iL0s) + np.array(k1s) * np.array(vL1s)
        iL2 = iL1 + np.array(d_ps) * np.array(ks) * np.array(vL2s)
        zero = np.array(dcm) | snaps_to_zero(iL1, iL2) | np.array(diode) & diode_clamps(iL2)
    assert repr(end_currents(iL0s, vL1s, vL2s, d_ps, dcm, k1s, ks, diode)) == repr(
        np.where(zero, 0.0, iL2).tolist()
    )
