"""avgcell benchmark: one workload, timed end to end or traced per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload ccm_transient --seed 1 --seconds 25 --trace 0

With ``--trace 0`` it runs the workload's jobs round after round for
``--seconds``, measuring set-up time in a fresh interpreter after each
round, and reports the end-to-end metrics, with job times scaled to a
reference host speed (see ``calibrate``).  With ``--trace 1`` it runs one
untraced and one traced round and reports per-layer call counts, self times
and work counts; span data goes to ``.perfbench/spans-<workload>-<seed>.csv``.
Every job's output is checked either way.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.

Everything runs sequentially in one process on one thread.
"""

import os

# Single-threaded BLAS, set before numpy is imported here or in a child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 9

sys.path[:0] = [str(BENCH), str(ROOT / "src")]
try:
    import jobs
    import spans
    import tally
except ImportError as exc:  # no avgcell sources beside the benchmark
    sys.exit(f"error: {exc}")

# Job times are reported as if one calibrate() took this long.
CAL_REFERENCE_S = 0.005
CAL_LOOPS = 200


def calibrate():
    """Seconds taken by a fixed piece of work in avgcell's own mix of
    interpreted float loops, small numpy operations and element reads (as
    in the engine's solves and the oracle's substeps) and float formatting.

    The shared hosts this benchmark runs on change speed by up to a quarter
    over tens of seconds, for every kind of work alike; a job's time divided
    by the calibration times around it is steady where its wall time is not.
    """
    a = np.arange(36.0).reshape(6, 6) + 50.0 * np.eye(6)
    z = np.ones(6)
    rows = a.tolist()
    start = time.perf_counter()
    acc = 0.0
    for _ in range(CAL_LOOPS):
        for row in rows:
            for v in row:
                acc += v * 1e-3
        x = a @ z.copy()
        acc += float(x[1]) - float(x[4])
        b = np.abs(a[1:, 1:] - np.outer(a[1:, 0], a[0, 1:]))
        acc += float(b[int(np.argmax(b[:, 0])), 0])
        ",".join(map(repr, rows[0]))
    return time.perf_counter() - start


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Outcome:
    """Job times, the calibration times around them, and failures of
    checked jobs."""

    def __init__(self):
        self.times = []
        self.cals = [calibrate()]  # one before the first job, one after each
        self.failures = []

    def run(self, job, tracer=None, job_id=-1):
        """Time one job, then check its output.  A raising job fails."""
        gc.collect()
        start = time.perf_counter()
        try:
            if tracer is None:
                output = job.call()
            else:
                with tracer.job_span(job_id):
                    output = job.call()
        except Exception as exc:  # counted as a failed job; the run goes on
            output, problems = None, [f"raised {exc!r}"]
        else:
            problems = None
        self.times.append(time.perf_counter() - start)
        self.cals.append(calibrate())
        if problems is None:
            problems = job.check(output)
        if problems:
            self.failures.append(f"{job.name}: {problems[0]}")
        return output

    def round(self, workload):
        for job in workload.jobs:
            self.run(job)

    def scaled(self):
        """Job times at the reference host speed."""
        return tally.scaled(self.times, self.cals, CAL_REFERENCE_S)


def probe_setup(listing):
    """Set-up seconds of one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), str(listing)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(proc.stdout)


def end_to_end(workload, seconds, work):
    """Whole rounds over the job list after a warm-up round, with one set-up
    probe after each, until ``seconds`` have passed, there are more than
    twenty timed jobs and at least SETUP_REPEATS set-up samples."""
    listing = work / "inputs.txt"
    listing.write_text("\n".join(str(p) for p in workload.inputs))
    probe_setup(listing)  # warm-up start, untimed
    warm = Outcome()
    warm.round(workload)
    timed = Outcome()
    setup = []
    start = time.perf_counter()
    rounds = 0
    while True:
        timed.round(workload)
        rounds += 1
        # Set-up samples spread over the whole run see the same host
        # speeds as the jobs, rather than those of its first seconds.
        setup.append(probe_setup(listing))
        elapsed = time.perf_counter() - start
        # More than twice the tail's margin keeps the tail above the median.
        if (
            elapsed >= seconds
            and len(timed.times) > 2 * tally.TAIL_BEYOND
            and len(setup) >= SETUP_REPEATS
        ):
            break
    times = timed.scaled()
    tail_ms, tail_pct = tally.tail(times)
    round_periods = sum(job.periods for job in workload.jobs)
    metrics = {
        "setup_s": (tally.median(setup), "s"),
        "job_ms_p50": (1e3 * tally.median(times), "ms"),
        "job_ms_tail": (1e3 * tail_ms, "ms"),
        "periods_per_s": (rounds * round_periods / sum(times), "1/s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
        ),
    }
    attempted = len(warm.times) + len(timed.times)
    failures = warm.failures + timed.failures
    notes = [
        f"{len(timed.times)} timed jobs in {rounds} rounds of {len(workload.jobs)}, "
        "after one warm-up round",
        f"job_ms_tail is p{tail_pct:.1f} of {len(timed.times)} jobs",
        f"setup_s is the median of {len(setup)} fresh interpreters",
        f"job times scaled to calibrate() = {1e3 * CAL_REFERENCE_S:g} ms; "
        f"its median here was {1e3 * tally.median(timed.cals):.4f} ms, "
        f"the unscaled job_ms_p50 {1e3 * tally.median(timed.times):.4f} ms",
    ]
    extra = {"fail_frac": (len(failures) / attempted, "ratio")}
    for key, value in sorted(workload.model_err.items()):
        extra[f"model_err_{key}"] = (value, "ratio")
    return metrics, extra, notes, attempted, failures


def traced(workload, seed):
    """One untraced round for the overhead baseline, then one traced round."""
    warm = Outcome()
    warm.round(workload)
    base = Outcome()
    base.round(workload)
    tracer = spans.Tracer()
    result = Outcome()
    with spans.installed(tracer):
        for job_id, job in enumerate(workload.jobs):
            result.run(job, tracer, job_id)
            if job.out_dir is not None:
                written = sum(f.stat().st_size for f in job.out_dir.iterdir())
                tracer.count("cli.bytes_written", written)
    span_file = OUT / f"spans-{workload.name}-{seed}.csv"
    tracer.write(span_file)
    overhead = sum(result.scaled()) / sum(base.scaled()) - 1.0
    metrics = layer_metrics(tracer, overhead)
    attempted = len(warm.times) + len(base.times) + len(result.times)
    failures = warm.failures + base.failures + result.failures
    notes = [f"{len(result.times)} traced jobs, {len(tracer)} spans in {span_file}"]
    return metrics, {}, notes, attempted, failures


def layer_names():
    """Distinct wrapped span names in declaration order, without the cells
    functions, which are reported as one aggregate."""
    names = []
    for name, _, _ in spans.WRAPPED:
        if name not in names and not name.startswith("cells."):
            names.append(name)
    return names


def layer_metrics(tracer, overhead_frac):
    """Per-layer metric name -> (value, unit)."""
    calls, self_s = tracer.totals()
    counters = tracer.counters

    def per(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    out = {}
    for name in layer_names():
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
        out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    cells = [name for name in calls if name.startswith("cells.")]
    out["cells.calls"] = (sum(calls[n] for n in cells), "count")
    out["cells.self_s"] = (sum(self_s[n] for n in cells), "s")
    out["engine.run.us_per_period"] = (
        1e6 * per(self_s.get("engine.run", 0.0), counters.get("engine.periods", 0)),
        "us",
    )
    out["mna.solves_per_factor"] = (
        per(calls.get("mna.lu_solve", 0), calls.get("mna.lu_factor", 0)),
        "ratio",
    )
    out["waveform.segments"] = (counters.get("waveform.segments", 0), "count")
    out["cli.bytes_written"] = (counters.get("cli.bytes_written", 0), "bytes")
    out["oracle.us_per_substep"] = (
        1e6
        * per(
            self_s.get("oracle.simulate_switched", 0.0),
            counters.get("oracle.substeps", 0),
        ),
        "us",
    )
    out["trace.overhead_frac"] = (overhead_frac, "ratio")
    return out


def main(argv=None):
    args = parse_args(argv)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as tmp:
        work = Path(tmp)
        workload = jobs.build(args.workload, args.seed, ROOT, work)
        if args.trace:
            metrics, extra, notes, attempted, failures = traced(workload, args.seed)
        else:
            metrics, extra, notes, attempted, failures = end_to_end(
                workload, args.seconds, work
            )

    mode = "traced" if args.trace else "untraced"
    print(f"workload {workload.name}  seed {args.seed}  {mode}")
    for note in notes:
        print(note)
    rows = {**metrics, **extra}
    width = max(len(name) for name in rows)
    for name, (value, unit) in rows.items():
        print(f"  {name:<{width}}  {value:>16.6g}  {unit}")
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
