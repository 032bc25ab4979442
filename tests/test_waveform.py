"""Waveform reconstruction and statistics tests.

Closed-form expectations: the steady-state buck carries a 3.75 to 6.25 A
inductor triangle and a capacitor ripple of +-15.625 mV about the period
start voltage (extremes of the ripple quadratics at tau = d/2 and
tau = (1+d)/2).
"""

import math
from bisect import bisect_right
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from avgcell import SimConfig, parse_netlist, run
from avgcell.engine import CapacitorRecord, PeriodRecord, SimulationResult, _Rows
from avgcell.cells import CellState, Mode
from avgcell.mna import build_layout
from avgcell.waveform import (
    EmptyWindow,
    Segment,
    TopologyNotSupported,
    UnknownLabel,
    Waveform,
    _ripple,
    capacitor_average_waveform,
    capacitor_waveform,
    inductor_waveform,
    stats,
)

from conftest import BUCK, BUCK_DCM, BUCK_DIODE, std_config


def _write(rows, r, record):
    """Make row r of a run's rows a PeriodRecord's period, with the state it
    starts from and carries out; a source current it lacks reads as NaN."""
    layout, n_caps = rows.layout, rows.n_caps
    cells = [record.cells[label] for label in layout.cell_rows]
    caps = [record.capacitors[c] for c in list(layout.state_col)[:n_caps]]
    # The layout's rows: nodes, source currents, then cell current pairs.
    rows.x[r] = (
        [record.node_voltages[node] for node in layout.node_ids]
        + [record.vdc_currents.get(label, math.nan) for label in layout.vdc_row]
        + [v for c in cells for v in (c.iS_avg, c.iD_avg)]
    )
    rows.y[r, :n_caps] = [c.v for c in caps]
    rows.y[r, n_caps:] = [c.vL1 for c in cells] + [c.vL2 for c in cells]
    rows.s[r, rows.cell] = [c.iL0 for c in cells]
    # The end currents are the next row's start currents, which the next
    # record's iL0 overwrites.
    rows.s[r + 1, :-1] = [c.i0_next for c in caps] + [c.iL2 for c in cells]
    rows.iL1[r] = [c.iL1 for c in cells]
    rows.d_p[r] = [c.d_p for c in cells]
    rows.dcm[r] = [c.mode is Mode.DCM for c in cells]


def result_from_records(circuit, config, bootstrap, records):
    """A result whose columns are a bootstrap's and a list of records',
    each written to its row."""
    rows = _Rows(build_layout(circuit).layout, len(records) + 1, 1.0 - config.d)
    for r, record in enumerate([bootstrap] + records):
        _write(rows, r, record)
    return SimulationResult(circuit, config, rows, None)


def single_period_result(circuit_text, cell_state, v_avg=5.0):
    """One-period simulation result with a hand-built cell state."""
    circuit = parse_netlist(circuit_text)
    config = std_config(1e-5)
    label = circuit.cells()[0].label
    record = PeriodRecord(
        index=0,
        t_start=0.0,
        node_voltages={1: 10.0, 2: v_avg},
        vdc_currents={},
        cells={label: cell_state},
        capacitors={"C1": CapacitorRecord(v_avg, 0.0)},
    )
    return result_from_records(circuit, config, record, [record])


STEADY_STATE = CellState(
    iL0=3.75, iL1=6.25, iL2=3.75, mode=Mode.CCM, d_p=0.5,
    vL1=5.0, vL2=-5.0, iS_avg=2.5, iD_avg=2.5, vL_avg=0.0,
)


@settings(max_examples=500, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
@example(5e-324)
@example(math.nextafter(1.0, 0.0))
@example(0.5)
@example(1.0)
def test_a_ccm_period_ends_at_its_zero(d):
    """d + d_p rounds to exactly 1.0 for every CCM d_p = 1 - d, so
    inductor_waveform's t_zero is t_end in every CCM period."""
    assert d + (1.0 - d) == 1.0


class TestInductorWaveform:
    def test_steady_state_triangle(self, buck_steady_run):
        wave = inductor_waveform(buck_steady_run, "SCN1")
        t0 = buck_steady_run.records[-1].t_start
        assert wave.value(t0) == pytest.approx(3.75, rel=1e-9)
        assert wave.value(t0 + 0.5e-5) == pytest.approx(6.25, rel=1e-9)
        assert wave.value(t0 + 1e-5) == pytest.approx(3.75, rel=1e-9)

    def test_dcm_period_has_zero_tail(self, dcm_run):
        record = dcm_run.records[-1]
        state = record.cells["SCD1"]
        assert state.mode is Mode.DCM
        wave = inductor_waveform(dcm_run, "SCD1")
        t0 = record.t_start
        ts = dcm_run.config.T_s
        t_zero = t0 + (0.5 + state.d_p) * ts
        assert wave.value(t0) == 0.0
        assert wave.value(t0 + 0.5 * ts) == pytest.approx(state.iL1, rel=1e-9)
        assert wave.value(t_zero) == pytest.approx(0.0, abs=1e-12)
        assert wave.value((t_zero + t0 + ts) / 2.0) == 0.0

    def test_zero_drive_period_is_constant(self):
        state = CellState(2.0, 2.0, 2.0, Mode.CCM, 0.5, 0.0, 0.0, 1.0, 1.0, 0.0)
        result = single_period_result(BUCK, state)
        wave = inductor_waveform(result, "SCN1")
        for t in (0.0, 3e-6, 7e-6, 1e-5):
            assert wave.value(t) == 2.0

    def test_unknown_label(self, buck_steady_run):
        with pytest.raises(UnknownLabel):
            inductor_waveform(buck_steady_run, "nope")

    def test_mean_consistency_is_exact(self, buck_diode_run):
        """Period mean of the reconstruction equals the trapezoid average of
        its breakpoints, conduction tail included."""
        wave = inductor_waveform(buck_diode_run, "SCD1")
        ts = buck_diode_run.config.T_s
        d = buck_diode_run.config.d
        for record in buck_diode_run.records[::37]:
            state = record.cells["SCD1"]
            expected = (
                d * (state.iL0 + state.iL1) / 2.0
                + state.d_p * (state.iL1 + state.iL2) / 2.0
            )
            got = stats(wave, record.t_start, record.t_start + ts).mean
            assert got == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_continuity_at_every_joint(self, buck_diode_run):
        wave = inductor_waveform(buck_diode_run, "SCD1")
        _assert_continuous(wave)


def ripple(state):
    """(dIL1, dIL2, dIL) of a one-period buck result: the rising and
    falling half-amplitudes of its inductor triangle, and the symmetric
    amplitude its capacitor ripple is built from."""
    result = single_period_result(BUCK, state)
    d, f_s, T_s = result.config.d, result.config.f_s, result.config.T_s
    iL = inductor_waveform(result, "SCN1")
    peak = iL.value(d * T_s)
    dIL = _ripple(state.iL0, state.iL1, state.iL2)
    # The rising piece's curvature is dIL / (f_s C) / (d T_s^2), C = 1e-4.
    curvature = dIL / (f_s * 1e-4) / (d * T_s * T_s)
    assert capacitor_waveform(result, "C1").c2[0] == curvature
    return (peak - iL.value(0.0)) / 2.0, (peak - iL.value(T_s)) / 2.0, dIL


class TestRippleAmplitude:
    def test_steady_state(self):
        assert ripple(STEADY_STATE) == (1.25, 1.25, 1.25)

    def test_flat_current(self):
        state = CellState(2.0, 2.0, 2.0, Mode.CCM, 0.5, 0.0, 0.0, 1.0, 1.0, 0.0)
        assert ripple(state) == (0.0, 0.0, 0.0)

    def test_transient_asymmetric_ripple(self):
        state = CellState(0.0, 2.5, 2.0, Mode.CCM, 0.5, 5.0, -1.0, 0.6, 1.1, 0.0)
        dIL1, dIL2, dIL = ripple(state)
        assert dIL1 == pytest.approx(1.25)
        assert dIL2 == pytest.approx(0.25)
        assert dIL == pytest.approx(0.75)


class TestCapacitorWaveform:
    def test_period_start_mid_and_end_equal_anchor(self):
        result = single_period_result(BUCK, STEADY_STATE)
        wave = capacitor_waveform(result, "C1")
        # d = 0.5 makes v_C(0) = v_avg exactly.
        assert wave.value(0.0) == pytest.approx(5.0, rel=1e-12)
        assert wave.value(0.5e-5) == pytest.approx(5.0, rel=1e-12)
        assert wave.value(1e-5) == pytest.approx(5.0, rel=1e-12)

    def test_ripple_extremes(self):
        result = single_period_result(BUCK, STEADY_STATE)
        wave = capacitor_waveform(result, "C1")
        # Extremes at tau = d/2 and (1+d)/2: -+ dIL d / (4 f_s C).
        assert wave.value(0.25e-5) == pytest.approx(5.0 - 0.015625, rel=1e-9)
        assert wave.value(0.75e-5) == pytest.approx(5.0 + 0.015625, rel=1e-9)
        s = stats(wave, 0.0, 1e-5)
        assert s.min == pytest.approx(5.0 - 0.015625, rel=1e-9)
        assert s.max == pytest.approx(5.0 + 0.015625, rel=1e-9)

    def test_extremes_match_dense_sampling(self):
        """Independent check of the analytic extremes by brute-force
        evaluation of the ripple expression."""
        result = single_period_result(BUCK, STEADY_STATE)
        wave = capacitor_waveform(result, "C1")
        ts = np.linspace(0.0, 1e-5, 20001)
        values = np.array([wave.value(t) for t in ts])
        s = stats(wave, 0.0, 1e-5)
        assert s.min == pytest.approx(values.min(), abs=1e-12)
        assert s.max == pytest.approx(values.max(), abs=1e-12)

    def test_period_mean_reproduces_average_exactly_at_steady_state(self):
        """The ripple integral cancels the period-start offset, so the
        reconstructed mean equals the averaged voltage analytically."""
        for d in (0.3, 0.5, 0.7):
            state = CellState(
                iL0=3.0, iL1=5.0, iL2=3.0, mode=Mode.CCM, d_p=1 - d,
                vL1=4.0, vL2=-4.0, iS_avg=2.0, iD_avg=2.0, vL_avg=0.0,
            )
            circuit = parse_netlist(BUCK)
            config = SimConfig(d, 100e3, 1e-5)
            label = "SCN1"
            record = PeriodRecord(0, 0.0, {1: 10.0, 2: 5.0}, {},
                                  {label: state},
                                  {"C1": CapacitorRecord(5.0, 0.0)})
            result = result_from_records(circuit, config, record, [record])
            wave = capacitor_waveform(result, "C1")
            mean = stats(wave, 0.0, 1e-5).mean
            assert mean == pytest.approx(5.0, rel=1e-12)

    def test_period_mean_matches_average_at_convergence(self, buck_long_run):
        wave = capacitor_waveform(buck_long_run, "C1")
        ts = buck_long_run.config.T_s
        for record in buck_long_run.records[-50:]:
            mean = stats(wave, record.t_start, record.t_start + ts).mean
            assert mean == pytest.approx(record.capacitors["C1"].v, rel=1e-3)

    def test_period_mean_identity_through_transient(self, buck_run):
        """The baseline interpolation makes each period mean exactly the
        averaged value plus half the per-period anchor change, so the mean
        converges to the averaged trace as the run settles."""
        wave = capacitor_waveform(buck_run, "C1")
        config = buck_run.config
        ts = config.T_s
        k = (2.0 * config.d - 1.0) / (6.0 * config.f_s * 1e-4)
        records = buck_run.records
        for current, following in list(zip(records[:-1], records[1:]))[::41]:
            v_cur = current.capacitors["C1"].v
            v_nxt = following.capacitors["C1"].v
            s_cur, s_nxt = current.cells["SCN1"], following.cells["SCN1"]
            assert s_cur.mode is s_nxt.mode is Mode.CCM
            off_cur = k * _ripple(s_cur.iL0, s_cur.iL1, s_cur.iL2)
            off_nxt = k * _ripple(s_nxt.iL0, s_nxt.iL1, s_nxt.iL2)
            expected = v_cur + (v_nxt - v_cur + off_nxt - off_cur) / 2.0
            mean = stats(wave, current.t_start, current.t_start + ts).mean
            assert mean == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_continuity_across_mode_changes(self, buck_diode_run):
        _assert_continuous(capacitor_waveform(buck_diode_run, "C1"))

    def test_dcm_periods_fall_back_to_interpolated_average(self, dcm_run):
        wave = capacitor_waveform(dcm_run, "C1")
        record = dcm_run.records[-2]
        ts = dcm_run.config.T_s
        expected = (record.capacitors["C1"].v
                    + dcm_run.records[-1].capacitors["C1"].v) / 2.0
        assert wave.value(record.t_start + ts / 2.0) == pytest.approx(
            expected, rel=1e-9
        )

    def test_flyback_topology_not_supported(self, flyback_run):
        with pytest.raises(TopologyNotSupported):
            capacitor_waveform(flyback_run, "C1")
        wave = capacitor_average_waveform(flyback_run, "C1")
        assert wave.value(flyback_run.records[-1].t_start) == pytest.approx(
            20.0, rel=0.02
        )

    def test_capacitor_off_the_output_not_supported(self):
        text = BUCK + "C 2 1 2 1e-6 0\n"
        result = run(parse_netlist(text), std_config(1e-4))
        with pytest.raises(TopologyNotSupported):
            capacitor_waveform(result, "C2")

    def test_unknown_label(self, buck_run):
        with pytest.raises(UnknownLabel):
            capacitor_waveform(buck_run, "C9")


class TestStats:
    def test_constant_segment(self):
        wave = Waveform("x", "V", ([0.0], [1.0], [5.0], [0.0], [0.0]))
        s = stats(wave, 0.0, 1.0)
        assert (s.mean, s.min, s.max, s.rms) == (5.0, 5.0, 5.0, 5.0)

    def test_symmetric_triangle_closed_form(self, buck_steady_run):
        record = buck_steady_run.records[-1]
        wave = inductor_waveform(buck_steady_run, "SCN1")
        s = stats(wave, record.t_start, record.t_start + 1e-5)
        assert s.mean == pytest.approx(5.0, rel=1e-9)
        assert s.min == pytest.approx(3.75, rel=1e-9)
        assert s.max == pytest.approx(6.25, rel=1e-9)
        assert s.rms == pytest.approx(math.sqrt(25.0 + 1.25**2 / 3.0), rel=1e-9)

    def test_steady_state_output_window(self, buck_run):
        wave = capacitor_waveform(buck_run, "C1")
        s = stats(wave, 4.5e-3, 5e-3)
        assert s.mean == pytest.approx(5.0, rel=1e-3)

    def test_window_outside_span(self):
        wave = Waveform("x", "V", ([0.0], [1.0], [5.0], [0.0], [0.0]))
        with pytest.raises(EmptyWindow):
            stats(wave, 2.0, 3.0)
        with pytest.raises(EmptyWindow):
            stats(wave, 0.5, 0.5)


def _value_at(segment, t):
    s = t - segment.t0
    return segment.c0 + segment.c1 * s + segment.c2 * s * s


def _assert_continuous(wave, rtol=1e-9):
    for left, right in zip(wave.segments, wave.segments[1:]):
        a = _value_at(left, left.t1)
        b = _value_at(right, right.t0)
        assert abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


_seg_values = st.lists(
    st.tuples(
        st.floats(-10, 10, allow_nan=False),
        st.floats(-10, 10, allow_nan=False),
        st.floats(-10, 10, allow_nan=False),
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=200, deadline=None)
@given(_seg_values)
def test_stats_invariants_on_random_waveforms(coeff_list):
    t0 = 0.5 * np.arange(len(coeff_list))
    wave = Waveform("x", "?", (t0, t0 + 0.5, *np.transpose(coeff_list)))
    t = 0.5 * len(coeff_list)
    s = stats(wave, 0.0, t)
    assert s.min <= s.mean + 1e-12
    assert s.mean <= s.max + 1e-12
    assert s.rms + 1e-12 >= abs(s.mean)


def _all_waveforms(result):
    """Every inductor current and capacitor voltage, as the CLI builds them."""
    waves = [inductor_waveform(result, e.label) for e in result.circuit.cells()]
    for cap in result.circuit.capacitors():
        try:
            waves.append(capacitor_waveform(result, cap.label))
        except TopologyNotSupported:
            waves.append(capacitor_average_waveform(result, cap.label))
    return waves


def _records_only(result):
    return result_from_records(
        result.circuit, result.config, result.bootstrap, result.records
    )


# CCM, DCM (the light-load buck and the diode buck, both from rest), d = 1
# (the diode buck, DCM periods included), and results made from records
# alone.
_RESULTS = {
    "ccm": lambda: run(parse_netlist(BUCK), std_config(5e-4)),
    "dcm": lambda: run(parse_netlist(BUCK_DCM), std_config(1e-3)),
    "diode": lambda: run(parse_netlist(BUCK_DIODE), std_config(5e-4)),
    "d=1": lambda: run(parse_netlist(BUCK_DIODE), SimConfig(1.0, 100e3, 2e-4)),
    "records-only dcm": lambda: _records_only(
        run(parse_netlist(BUCK_DCM), std_config(1e-3))
    ),
    "records-only period": lambda: single_period_result(BUCK, STEADY_STATE),
}


@pytest.fixture(scope="module", params=sorted(_RESULTS))
def any_result(request):
    return _RESULTS[request.param]()


@pytest.mark.parametrize(
    "builder, label",
    [
        (inductor_waveform, "C1"),
        (capacitor_waveform, "SCN1"),
        (capacitor_average_waveform, "SCN1"),
        (capacitor_average_waveform, "R1"),
    ],
)
def test_label_of_another_kind_is_unknown(buck_run, builder, label):
    with pytest.raises(UnknownLabel):
        builder(buck_run, label)


_END_CIRCUITS = {text: parse_netlist(text) for text in (BUCK, BUCK_DIODE)}


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(sorted(_END_CIRCUITS)),
    st.floats(1e3, 1e7),
    st.integers(1, 5000),
)
def test_every_waveform_ends_at_the_runs_end(text, f_s, n):
    """The run's end, ``config.t_stop``, is where every reconstructed
    waveform ends, bit for bit, whatever the period grid's rounding."""
    config = SimConfig(0.5, f_s, n / f_s)
    result = run(_END_CIRCUITS[text], config)
    for wave in _all_waveforms(result):
        assert wave.span[1] == config.t_stop, wave.name


def test_result_kinds_cover_dcm():
    for name in ("dcm", "diode", "d=1", "records-only dcm"):
        assert _RESULTS[name]().dcm.any(), name
    assert not _RESULTS["ccm"]().dcm.any()


def test_value_is_the_segment_bisect_picks(any_result):
    """value(t) and values(times) evaluate the segment bisect_right picks
    over the segment starts, at every breakpoint and mid-segment, and
    outside the span."""
    for wave in _all_waveforms(any_result):
        segments = wave.segments
        starts = [s.t0 for s in segments]
        times = [s.t0 for s in segments] + [s.t1 for s in segments]
        times += [(s.t0 + s.t1) / 2.0 for s in segments] + [-1.0, 1.0]
        expected = []
        for t in times:
            i = min(max(bisect_right(starts, t) - 1, 0), len(segments) - 1)
            expected.append(_value_at(segments[i], t))
        expected = [v.hex() for v in expected]
        assert [wave.value(t).hex() for t in times] == expected, wave.name
        got = wave.values(np.array(times)).tolist()
        assert [v.hex() for v in got] == expected, wave.name


def test_records_only_result_rebuilds_the_same_waveforms():
    result = run(parse_netlist(BUCK_DCM), std_config(1e-3))
    for ours, theirs in zip(
        _all_waveforms(result), _all_waveforms(_records_only(result))
    ):
        assert _bits(ours.segments) == _bits(theirs.segments)


def _integral(coeffs, a, b):
    acc, pa, pb = 0.0, a, b
    for k, c in enumerate(coeffs):
        acc += c * (pb - pa) / (k + 1)
        pa *= a
        pb *= b
    return acc


def _full_scan_stats(wave, t_from, t_to):
    """stats() as one loop over every segment: the reference the
    window-restricted scan must reproduce bit for bit."""
    segments = wave.segments
    t_from = max(t_from, segments[0].t0)
    t_to = min(t_to, segments[-1].t1)
    total = total_sq = 0.0
    v_min, v_max = math.inf, -math.inf
    for seg in segments:
        a = max(seg.t0, t_from) - seg.t0
        b = min(seg.t1, t_to) - seg.t0
        if b <= a:
            continue
        c0, c1, c2 = seg.c0, seg.c1, seg.c2
        total += _integral((c0, c1, c2), a, b)
        total_sq += _integral(
            (c0 * c0, 2 * c0 * c1, c1 * c1 + 2 * c0 * c2, 2 * c1 * c2, c2 * c2),
            a,
            b,
        )
        candidates = [a, b]
        if c2 != 0.0 and a < -c1 / (2.0 * c2) < b:
            candidates.append(-c1 / (2.0 * c2))
        for s in candidates:
            v = c0 + c1 * s + c2 * s * s
            v_min, v_max = min(v_min, v), max(v_max, v)
    width = t_to - t_from
    return (total / width, v_min, v_max, math.sqrt(max(total_sq / width, 0.0)))


def test_stats_equals_a_full_scan(any_result):
    """Windows that cut segments, sit at either end of the span, reach past
    it, fall inside one segment or start and end on breakpoints."""
    for wave in _all_waveforms(any_result):
        lo, hi = wave.span
        width = hi - lo
        segments = wave.segments
        n = len(segments)
        windows = [
            (lo, hi),
            (lo - 1.0, hi + 1.0),
            (lo, lo + 0.37 * width),
            (lo - 1.0, lo + 0.013 * width),
            (hi - 0.29 * width, hi),
            (hi - 0.011 * width, hi + 1.0),
            (lo + 0.41 * width, lo + 0.62 * width),
            (segments[0].t0 + 0.1 * (segments[0].t1 - segments[0].t0),
             segments[0].t0 + 0.7 * (segments[0].t1 - segments[0].t0)),
            (segments[n // 3].t0, segments[2 * n // 3].t1),
        ]
        for t_from, t_to in windows:
            s = stats(wave, t_from, t_to)
            expected = _full_scan_stats(wave, t_from, t_to)
            assert (s.mean, s.min, s.max, s.rms) == expected, (wave.name, t_from)


def _loop_inductor_segments(result, label):
    """inductor_waveform as a loop over the records: the reference the
    array form must reproduce bit for bit."""
    d, T_s = result.config.d, result.config.T_s
    segments = []
    for record in result.records:
        state = record.cells[label]
        t0 = record.t_start
        points = [(t0, state.iL0), (t0 + d * T_s, state.iL1)]
        if state.mode is Mode.CCM:
            points.append((t0 + T_s, state.iL2))
        else:
            points += [(t0 + (d + state.d_p) * T_s, 0.0), (t0 + T_s, 0.0)]
        for (ta, ya), (tb, yb) in zip(points, points[1:]):
            if tb > ta:
                segments.append(Segment(ta, tb, ya, (yb - ya) / (tb - ta)))
    return segments


def _loop_capacitor_segments(result, label, cell_label):
    """_build_capacitor_waveform as a loop over the records, with the
    ripple of ``cell_label`` (None for the averaged trace)."""
    d, f_s, T_s = result.config.d, result.config.f_s, result.config.T_s
    C = next(e.value for e in result.circuit.capacitors() if e.label == label)
    anchors, ripples = [], []
    for record in result.records:
        v_avg = record.capacitors[label].v
        state = record.cells[cell_label] if cell_label else None
        if state is not None and state.mode is Mode.CCM:
            dIL = ((state.iL1 - state.iL0) / 2.0 + (state.iL1 - state.iL2) / 2.0) / 2.0
            anchors.append(v_avg + (2.0 * d - 1.0) * dIL / (6.0 * f_s * C))
            ripples.append(dIL)
        else:
            anchors.append(v_avg)
            ripples.append(None)
    anchors.append(anchors[-1])
    segments = []
    for n, record in enumerate(result.records):
        t0, a0 = record.t_start, anchors[n]
        slope = (anchors[n + 1] - a0) / T_s
        if ripples[n] is None:
            segments.append(Segment(t0, t0 + T_s, a0, slope))
            continue
        k = ripples[n] / (f_s * C)
        t_mid = t0 + d * T_s
        segments.append(Segment(t0, t_mid, a0, slope - k / T_s, k / (d * T_s * T_s)))
        if T_s - d * T_s > 0.0:
            segments.append(Segment(t_mid, t0 + T_s, a0 + slope * d * T_s,
                                    slope + k / T_s, -k / (T_s * T_s * (1.0 - d))))
    return segments


def _bits(segments):
    """Segments as exact float text, so that 0.0 and -0.0 differ."""
    return [tuple(float(v).hex() for v in astuple(s)) for s in segments]


def test_builders_match_the_per_period_loop(any_result):
    circuit = any_result.circuit
    cell = circuit.cells()[0].label
    for e in circuit.cells():
        expected = _loop_inductor_segments(any_result, e.label)
        assert _bits(inductor_waveform(any_result, e.label).segments) == _bits(expected)
    for cap in circuit.capacitors():
        for waveform, ripple_cell in (
            (capacitor_average_waveform, None),
            (capacitor_waveform, cell),
        ):
            wave = waveform(any_result, cap.label)
            expected = _loop_capacitor_segments(any_result, cap.label, ripple_cell)
            assert _bits(wave.segments) == _bits(expected), waveform.__name__


def test_capacitor_node_order_changes_only_the_sign():
    """A capacitor across a basic cell's c and p, with p off ground, as
    ``v(c,p)`` and as ``v(p,c)``: each carries the ripple with the sign of
    its own v(n1) - v(n2), so one waveform is the other negated, bit for
    bit."""
    base = "VDC 1 1 0 10.0\nVDC 2 3 0 1.0\nSCN1 1 1 3 2 10e-6 0\nR 1 2 3 5.0\n"
    waves = []
    for cap in ("C 1 2 3 1e-4 0", "C 1 3 2 1e-4 0"):
        result = run(parse_netlist(base + cap + "\n"), std_config(2e-4))
        waves.append(capacitor_waveform(result, "C1"))
    forward, reversed_ = waves
    assert (forward.name, reversed_.name) == ("v(2,3)", "v(3,2)")
    negated = [Segment(s.t0, s.t1, -s.c0, -s.c1, -s.c2) for s in forward.segments]
    assert _bits(reversed_.segments) == _bits(negated)
