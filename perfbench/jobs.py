"""The benchmark workloads and their jobs.

A job is one user-level call into avgcell: one ``engine.run()``, one
``cli.main(...)``, or one oracle verification.  Each job carries the check
its output must pass.
Functions are looked up on their modules at call time, so the traced pass
sees them through its wrappers.
"""

from array import array
from dataclasses import dataclass, field

import avgcell.cli
import avgcell.engine
import avgcell.oracle
import avgcell.waveform
from avgcell.cells import avg_inductor_current
from avgcell.engine import SimConfig
from avgcell.netlist import parse_netlist, validate

import checks
import circuits

# Odd job counts (15 generated circuits and 2 committed netlists a round)
# put the median inside one job kind rather than in the gap between two.
MAX_STAGES = 15
CCM_PERIODS = 300  # per generated continuous-conduction circuit
# Short rounds give a run enough rounds that the tail falls inside the
# largest job kind rather than on its edge.
DCM_PERIODS = 40  # per generated light-load circuit
# 7 generated and 5 committed netlists and the --oracle job: 13 jobs a
# round, so the median falls inside one job kind (the 3-stage netlist).
CLI_STAGES = 7
CLI_PERIODS = 150
LONG_T_END = 20e-3  # committed CCM netlists in ccm_transient
# buck_dcm.net in dcm_transient: it refactors every period up to 12 ms; at
# 3 ms its jobs are no bigger than the 15-stage ones, so no single job kind
# sets the tail alone.
DCM_T_END = 3e-3
# Committed netlists in cli_report, on the CLI's --t-end (buck_dcm.net's
# own .param length would make it the one job that sets the tail).
CLI_T_END = 2.5e-3
# The CLI job with --oracle: 10 periods of the steady-started buck, at the
# oracle's default 1000 substeps per period.  It is the largest cli_report
# job; a run holds about twenty rounds, so the tail is one of its middle
# instances.
ORACLE_T_END = 1e-4
ORACLE_SUBSTEPS = 1000
# oracle_verify: the acceptance suite's criterion-4 circuits, shortened to
# 20 periods each (the oracle costs ~10 ms a period, and the bounds still
# hold).  The seven jobs then take about the same time, so the median and
# the tail each rest on several of them rather than on one.
VERIFY_PERIODS = 20
# The steady-started circuits: inductor valley current and averaged output
# voltage of their theoretical periodic orbit, as in the acceptance suite.
BUCK_ORBIT = (("10e-6 0", "10e-6 3.75"), ("1e-4 0", "1e-4 5.0"))
FLYBACK_ORBIT = (("10e-6 2.0 0", "10e-6 2.0 17.5"), ("1e-4 0", "1e-4 20.0"))


@dataclass
class Job:
    name: str
    periods: int
    call: object  # () -> output
    check: object  # output -> list of problems
    out_dir: object = None  # CLI output directory, for byte counts


@dataclass
class Workload:
    name: str
    inputs: list  # netlist files the set-up phase parses and validates
    jobs: list
    # Worst compare.txt deviations seen by the checks (cli_report).
    model_err: dict = field(default_factory=dict)


def build(name, seed, root, work):
    """Generate the workload's inputs from ``seed`` under ``work``."""
    return WORKLOADS[name](seed, root / "netlists", work)


def _load(path):
    circuit = parse_netlist(path.read_text())
    diagnostics = validate(circuit)
    if diagnostics:
        raise ValueError(f"{path.name}: {'; '.join(map(str, diagnostics))}")
    return circuit


def _write(work, name, text):
    path = work / name
    path.write_text(text)
    return path


def _config(circuit, t_end=None, dcm_refine=False):
    p = circuit.params
    return SimConfig(p["D"], p["fs"], p["tend"] if t_end is None else t_end, dcm_refine)


def _run_job(name, circuit, config, expect_dcm, reference=None):
    n = config.n_periods
    return Job(
        name,
        n,
        lambda: avgcell.engine.run(circuit, config),
        lambda result: checks.check_run(result, n, expect_dcm, reference),
    )


def _ccm_transient(seed, netlists, work):
    refs = checks.load_references()
    inputs, jobs = [], []
    for net in ("buck.net", "flyback.net"):
        path = netlists / net
        circuit = _load(path)
        inputs.append(path)
        jobs.append(
            _run_job(net, circuit, _config(circuit, LONG_T_END), False, refs[net])
        )
    for k in range(1, MAX_STAGES + 1):
        kinds = circuits.kinds_for(k, ("SCN", "FBN"), seed)
        path = _write(
            work, f"ccm{k}.net", circuits.heavy_load(seed * 100 + k, kinds, CCM_PERIODS)
        )
        circuit = _load(path)
        inputs.append(path)
        jobs.append(_run_job(path.name, circuit, _config(circuit), False))
    return Workload("ccm_transient", inputs, jobs)


def _dcm_transient(seed, netlists, work):
    refs = checks.load_references()
    path = netlists / "buck_dcm.net"
    circuit = _load(path)
    inputs, jobs = [path], []
    for refine in (False, True):
        key = checks.reference_key(path.name, refine)
        config = _config(circuit, DCM_T_END, refine)
        jobs.append(_run_job(key, circuit, config, True, refs[key]))
    for k in range(1, MAX_STAGES + 1):
        kinds = circuits.kinds_for(k, ("SCD", "FBD"), seed)
        path = _write(
            work, f"dcm{k}.net", circuits.light_load(seed * 100 + k, kinds, DCM_PERIODS)
        )
        circuit = _load(path)
        inputs.append(path)
        refine = k % 2 == 0
        jobs.append(
            _run_job(path.name, circuit, _config(circuit, dcm_refine=refine), True)
        )
    return Workload("dcm_transient", inputs, jobs)


def _cli_report(seed, netlists, work):
    refs = checks.load_references()
    workload = Workload("cli_report", [], [])
    # (netlist file, --t-end or None for the file's .param, --oracle, reference)
    cases = [
        (path, CLI_T_END, False, refs.get(path.name))
        for path in sorted(netlists.glob("*.net"))
    ]
    for k in range(1, CLI_STAGES + 1):
        kinds = circuits.kinds_for(k, ("SCN", "FBN"), seed)
        text = circuits.heavy_load(seed * 100 + k, kinds, CLI_PERIODS)
        cases.append((_write(work, f"cli{k}.net", text), None, False, None))
    buck = (netlists / "buck.net").read_text()
    steady = _write(work, "steady_buck.net", _started("buck.net", buck, BUCK_ORBIT))
    cases.append((steady, ORACLE_T_END, True, None))
    for path, t_end, with_oracle, reference in cases:
        circuit = _load(path)
        workload.inputs.append(path)
        config = _config(circuit, t_end)
        out_dir = work / "out" / path.stem  # this job's files only
        argv = [str(path), "--out", str(out_dir)]
        if t_end is not None:
            argv += ["--t-end", repr(t_end)]
        check = _cli_check(out_dir, circuit, config, reference)
        if with_oracle:
            argv.append("--oracle")
            check = _with_compare(check, out_dir, config, workload)
        workload.jobs.append(
            Job(
                path.name,
                config.n_periods,
                lambda argv=argv: avgcell.cli.main(argv),
                check,
                out_dir,
            )
        )
    return workload


def _started(name, text, replacements):
    """``text`` with each old initial condition replaced by the new one."""
    for old, new in replacements:
        if text.count(old) != 1:
            raise ValueError(f"{name}: cannot set the initial state at {old!r}")
        text = text.replace(old, new)
    return text


def _cli_check(out_dir, circuit, config, reference):
    """CSV and stats read-back against an API run of the same input.

    The expected values are computed once, here; only compact arrays of
    them stay alive, so the run's memory peak is the CLI's own.
    """
    result = avgcell.engine.run(circuit, config)
    api_problems = checks.check_run(result, config.n_periods, reference=reference)
    averaged = checks.averaged_columns(result)
    waves = _reconstruct(result)
    times = sorted({t for w in waves for t in w.breakpoints()})
    instantaneous = {"t": array("d", times)}
    for w in waves:
        instantaneous[w.name] = array("d", [w.value(t) for t in times])
    window = (config.t_end * 0.9, config.t_end)  # the CLI's default window
    summary = {w.name: avgcell.waveform.stats(w, *window) for w in waves}
    del result, waves

    def check(exit_code):
        if exit_code != 0:
            return [f"exit code {exit_code}"]
        return (
            api_problems
            + checks.check_averaged_csv(out_dir / "averaged.csv", averaged)
            + checks.check_instantaneous_csv(out_dir / "instantaneous.csv", instantaneous)
            + checks.check_stats(out_dir / "stats.txt", summary)
        )

    return check


def _with_compare(check, out_dir, config, workload):
    """Adds the oracle outputs: oracle.csv rows on the substep grid, and
    compare.txt deviations within the acceptance suite's steady-state
    bound.  The worst deviations feed model_err_v and model_err_iL."""
    rows = config.n_periods * ORACLE_SUBSTEPS + 1

    def checked(exit_code):
        problems = check(exit_code)
        if problems:
            return problems
        with open(out_dir / "oracle.csv") as handle:
            found = sum(1 for _ in handle) - 1  # header
        if found != rows:
            return [f"oracle.csv has {found} rows, expected {rows}"]
        deviations = checks.read_compare(out_dir / "compare.txt")
        for key in ("v", "iL"):
            worst = max(d for name, d in deviations.items() if name.startswith(key + "("))
            workload.model_err[key] = max(workload.model_err.get(key, 0.0), worst)
        return [
            f"compare.txt {name}: {dev} >= {checks.STEADY_BOUND}"
            for name, dev in deviations.items()
            if not dev < checks.STEADY_BOUND
        ]

    return checked


def _reconstruct(result):
    """Waveforms the CLI reports, rebuilt through the public waveform API."""
    waves = [
        avgcell.waveform.inductor_waveform(result, e.label)
        for e in result.circuit.cells()
    ]
    for cap in result.circuit.capacitors():
        try:
            waves.append(avgcell.waveform.capacitor_waveform(result, cap.label))
        except avgcell.waveform.TopologyNotSupported:
            waves.append(avgcell.waveform.capacitor_average_waveform(result, cap.label))
    return waves


def _oracle_verify(seed, netlists, work):
    """The same seven jobs for every seed: the acceptance suite's circuits
    are fixed, and the oracle's cost does not depend on component values."""
    refs = checks.load_references()
    text = {
        net: (netlists / net).read_text()
        for net in ("buck.net", "buck_diode.net", "flyback.net", "buck_dcm.net")
    }
    # buck_dcm.net is started on the steady state of a long averaged run,
    # so that a short run is compared in steady-state DCM.
    circuit = _load(netlists / "buck_dcm.net")
    v_dcm = avgcell.engine.run(circuit, _config(circuit)).records[-1].node_voltages[2]
    steady_dcm = (("1e-4 0", f"1e-4 {v_dcm!r}"),)
    steady, startup, mean = checks.check_steady, checks.check_startup, checks.check_mean
    # (netlist, cell, initial state, criterion-4 comparison, expect_dcm,
    # reference); the startup runs' mode sequences are pinned by their
    # references instead, as the diode buck starts in DCM.
    cases = [
        ("buck.net", "SCN1", BUCK_ORBIT, steady, False, None),
        ("buck_diode.net", "SCD1", BUCK_ORBIT, steady, False, None),
        ("flyback.net", "FBN1", FLYBACK_ORBIT, steady, False, None),
        ("buck.net", "SCN1", (), startup, None, refs["buck.net"]),
        ("buck_diode.net", "SCD1", (), startup, None, refs["buck_diode.net"]),
        ("flyback.net", "FBN1", (), startup, None, refs["flyback.net"]),
        ("buck_dcm.net", "SCD1", steady_dcm, mean, True, None),
    ]
    workload = Workload("oracle_verify", [], [])
    for k, (net, label, start, compare, expect_dcm, ref) in enumerate(cases):
        path = _write(work, f"verify{k}-{net}", _started(net, text[net], start))
        circuit = _load(path)
        workload.inputs.append(path)
        config = _config(circuit, VERIFY_PERIODS / circuit.params["fs"])
        workload.jobs.append(
            Job(
                path.name,
                config.n_periods,
                lambda c=circuit, cfg=config, cell=label: _verify(c, cfg, cell),
                _verify_check(config.n_periods, expect_dcm, ref, compare, workload),
            )
        )
    return workload


def _verify(circuit, config, label):
    """One oracle verification: run(), the switched oracle at its default
    substeps, and the per-period averages of the output voltage and the
    inductor current that compare.txt compares.

    Returns (run result, {"v" or "iL": (model, oracle, oracle full scale)}).
    """
    result = avgcell.engine.run(circuit, config)
    sampled = avgcell.oracle.simulate_switched(circuit, config)
    d = config.d
    model = {
        "v": ([r.node_voltages[2] for r in result.records], sampled["v(2)"]),
        "iL": (
            [avg_inductor_current(r.cells[label], d) for r in result.records],
            sampled[f"iL({label})"],
        ),
    }
    series = {}
    for key, (values, wave) in model.items():
        oracle = [avgcell.oracle.period_average(wave, n) for n in range(len(values))]
        series[key] = (values, oracle, float(abs(wave.values).max()))
    return result, series


def _verify_check(n_periods, expect_dcm, reference, compare, workload):
    """The run's own checks and the criterion-4 comparison.  The worst
    compare.txt-style deviations feed model_err_v and model_err_iL."""

    def check(output):
        result, series = output
        problems = checks.check_run(result, n_periods, expect_dcm, reference)
        for key, (model, oracle, scale) in series.items():
            problems += [f"{key}: {p}" for p in compare(model, oracle)]
            worst = max(abs(m - o) for m, o in zip(model, oracle)) / scale
            workload.model_err[key] = max(workload.model_err.get(key, 0.0), worst)
        return problems

    return check


WORKLOADS = {
    "ccm_transient": _ccm_transient,
    "dcm_transient": _dcm_transient,
    "cli_report": _cli_report,
    "oracle_verify": _oracle_verify,
}
