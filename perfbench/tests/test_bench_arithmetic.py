"""Percentile, self-time and check arithmetic of the benchmark."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import pytest  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import tally  # noqa: E402
from avgcell import SimConfig, parse_netlist, run  # noqa: E402


def test_median():
    assert tally.median([3.0, 1.0, 2.0]) == 2.0
    assert tally.median([4.0, 1.0, 3.0, 2.0]) == 2.5
    with pytest.raises(ValueError):
        tally.median([])


def test_tail_leaves_ten_samples_beyond():
    values = [float(v) for v in range(100, 0, -1)]
    assert tally.tail(values) == (90.0, 90.0)
    value, pct = tally.tail([float(v) for v in range(11)])
    assert value == 0.0
    assert pct == pytest.approx(100.0 / 11)
    with pytest.raises(ValueError):
        tally.tail([1.0] * 10)


def test_scaled_uses_the_calibrations_on_either_side():
    # calibrations 2, 6 and 3 around two jobs: means 4 and 4.5
    assert tally.scaled([8.0, 9.0], [2.0, 6.0, 3.0], 1.0) == [2.0, 2.0]
    with pytest.raises(ValueError):
        tally.scaled([1.0], [1.0], 1.0)


def test_self_time_subtracts_direct_children_only():
    # span 0 [0, 10] has children 1 [1, 3] and 2 [4, 8]; 3 [5, 6] is a
    # grandchild inside 2.
    start = [0.0, 1.0, 4.0, 5.0]
    end = [10.0, 3.0, 8.0, 6.0]
    parent = [-1, 0, 0, 2]
    assert spans.self_times(start, end, parent) == [4.0, 2.0, 3.0, 1.0]


def test_self_time_counts_overlap_once_and_clips_to_the_span():
    start = [0.0, 1.0, 2.0, 9.0]
    end = [10.0, 4.0, 5.0, 12.0]
    parent = [-1, 0, 0, 0]
    # children cover [1, 5] and [9, 10] of the span
    assert spans.self_times(start, end, parent)[0] == 5.0


def test_tracer_records_parents_jobs_and_totals():
    ticks = iter(float(t) for t in range(100))
    tracer = spans.Tracer(clock=lambda: next(ticks))
    with tracer.job_span(7):
        outer = tracer.open("engine.run")  # t=1
        inner = tracer.open("mna.lu_solve")  # t=2
        tracer.close(inner)  # t=3
        tracer.close(outer)  # t=4
    # job span: 0..5
    assert list(tracer.parent) == [-1, 0, 1]
    assert list(tracer.job) == [7, 7, 7]
    calls, self_s = tracer.totals()
    assert calls == {"job": 1, "engine.run": 1, "mna.lu_solve": 1}
    assert self_s == {"job": 2.0, "engine.run": 2.0, "mna.lu_solve": 1.0}
    assert not tracer.active


def test_installed_wrappers_are_removed_afterwards():
    import avgcell.engine

    original = avgcell.engine.lu_factor
    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert avgcell.engine.lu_factor is not original
        avgcell.engine.lu_factor([[1.0]])  # outside a job: not recorded
    assert avgcell.engine.lu_factor is original
    assert len(tracer) == 0


BUCK = """\
VDC 1 1 0 10.0
SCN1 1 1 0 2 10e-6 0
C 1 2 0 1e-4 0
R 1 2 0 5.0
"""


def test_run_check_catches_broken_continuity_and_reference_drift():
    result = run(parse_netlist(BUCK), SimConfig(0.5, 100e3, 1e-3))
    reference = checks.record_reference(result)
    assert checks.check_run(result, 100, False, reference) == []
    assert checks.check_run(result, 100, True) != []

    result.records[50].node_voltages[2] *= 1.0 + 1e-6
    assert checks.check_run(result, 100, False, reference) != []
    result.records[50].node_voltages[2] /= 1.0 + 1e-6

    result.records[40].cells["SCN1"].iL0 += 1e-3
    assert checks.check_run(result, 100) != []


def test_criterion_4_comparisons():
    oracle = [10.0] * 30
    assert checks.check_steady([10.1] * 30, oracle) == []
    assert checks.check_steady([10.0] * 29 + [10.3], oracle) != []
    assert checks.check_mean([10.0] * 30, [10.1] * 30) == []
    assert checks.check_mean([10.0] * 30, [10.3] * 30) != []
    # a ramp 0..39 lagging the oracle by one period is within tolerance;
    # 3 high at period 20 is still 2 off its nearest neighbour: 2/39 of the
    # range, above 5 %
    ramp = [float(n) for n in range(40)]
    assert checks.check_startup(ramp[:1] + ramp[:-1], ramp) == []
    model = list(ramp)
    model[20] += 3.0
    assert checks.check_startup(model, ramp) != []


def test_read_compare(tmp_path):
    path = tmp_path / "compare.txt"
    path.write_text("# header\nv(2) max_rel_dev=0.00123\niL(SCN1) max_rel_dev=1e-05\n")
    assert checks.read_compare(path) == {"v(2)": 0.00123, "iL(SCN1)": 1e-05}
