"""The traced run reproduces avgcell's exact work counts.

These counts describe the program at the commit that added the benchmark;
a change that alters them on purpose (such as removing per-period
refactoring in DCM) updates the expected numbers here.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import avgcell.engine  # noqa: E402
import checks  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from avgcell import SimConfig, parse_netlist  # noqa: E402


def traced_round(job_list):
    """Call counts of one traced pass over the jobs, all of which pass."""
    tracer = spans.Tracer()
    outcome = run.Outcome()
    with spans.installed(tracer):
        for job_id, job in enumerate(job_list):
            outcome.run(job, tracer, job_id)
    assert outcome.failures == []
    return tracer.totals()[0]


def test_one_factorization_per_ccm_job(tmp_path):
    workload = jobs.build("ccm_transient", 5, ROOT, tmp_path)
    calls = traced_round(workload.jobs)
    assert calls["mna.lu_factor"] == len(workload.jobs)
    assert calls["engine.run"] == len(workload.jobs)


def test_two_validations_per_cli_job(tmp_path):
    workload = jobs.build("cli_report", 5, ROOT, tmp_path)
    calls = traced_round(workload.jobs)
    assert calls["cli.main"] == len(workload.jobs)
    assert calls["netlist.parse_netlist"] == len(workload.jobs)
    # the one --oracle job validates a third time, in simulate_switched
    assert calls["oracle.simulate_switched"] == 1
    assert calls["netlist.validate"] == 2 * len(workload.jobs) + 1


def test_one_oracle_run_per_verify_job(tmp_path):
    workload = jobs.build("oracle_verify", 5, ROOT, tmp_path)
    calls = traced_round(workload.jobs)
    assert calls["engine.run"] == len(workload.jobs) == 7
    assert calls["oracle.simulate_switched"] == len(workload.jobs)
    periods = sum(job.periods for job in workload.jobs)
    assert calls["oracle.period_average"] == 2 * periods  # v(2) and iL


def test_dcm_factorizations_repeat_exactly(tmp_path):
    workload = jobs.build("dcm_transient", 5, ROOT, tmp_path)
    first = traced_round(workload.jobs)
    assert first["mna.lu_factor"] == traced_round(workload.jobs)["mna.lu_factor"]
    assert first["mna.lu_factor"] > first["mna.lu_solve"] / 2


def test_buck_dcm_factorizations():
    circuit = parse_netlist((ROOT / "netlists" / "buck_dcm.net").read_text())
    runs = {}
    for refine in (False, True):
        config = SimConfig(0.5, 100e3, 12e-3, dcm_refine=refine)
        runs[refine] = jobs.Job(
            "buck_dcm",
            1200,
            lambda c=config: avgcell.engine.run(circuit, c),
            lambda result: [],
        )
    assert traced_round([runs[False]])["mna.lu_factor"] == 1191
    assert sum(checks.modes(runs[False].call())["SCD1"]) == 1190
    assert traced_round([runs[True]])["mna.lu_factor"] == 1755
