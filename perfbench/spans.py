"""In-memory span tracing of avgcell's layer boundaries.

The tracer wraps public functions from outside the program: each wrapper is
installed on the module attribute the calling layer looks the function up
by (``engine`` imports the ``mna`` names, so the ``mna`` spans are the
``avgcell.engine`` attributes).  Only calls made while a job span is open
are recorded.  A span is (name, start, end, parent, job); self time is a
span's duration minus the part of it its child spans cover.
"""

import importlib
import time
from array import array
from contextlib import contextmanager

# (span name, module or module:Class, attribute) for every wrapped function.
WRAPPED = [
    ("netlist.parse_netlist", "avgcell.cli", "parse_netlist"),
    ("netlist.validate", "avgcell.cli", "validate"),
    ("netlist.validate", "avgcell.engine", "validate"),
    ("netlist.validate", "avgcell.oracle", "validate"),
    ("engine.run", "avgcell.engine", "run"),
    ("cells.drive_voltages", "avgcell.cells", "drive_voltages"),
    ("cells.compute_d2", "avgcell.cells", "compute_d2"),
    ("cells.resolve_mode", "avgcell.cells", "resolve_mode"),
    ("cells.advance_inductor", "avgcell.cells", "advance_inductor"),
    ("cells.avg_inductor_voltage", "avgcell.cells", "avg_inductor_voltage"),
    ("mna.assemble_system", "avgcell.engine", "assemble_system"),
    ("mna.lu_factor", "avgcell.engine", "lu_factor"),
    ("mna.lu_solve", "avgcell.engine", "lu_solve"),
    ("mna.check_residual", "avgcell.engine", "check_residual"),
    ("waveform.inductor_waveform", "avgcell.waveform", "inductor_waveform"),
    ("waveform.capacitor_waveform", "avgcell.waveform", "capacitor_waveform"),
    (
        "waveform.capacitor_average_waveform",
        "avgcell.waveform",
        "capacitor_average_waveform",
    ),
    ("waveform.stats", "avgcell.waveform", "stats"),
    ("waveform.Waveform.value", "avgcell.waveform:Waveform", "value"),
    ("cli.main", "avgcell.cli", "main"),
    ("cli.write_averaged_csv", "avgcell.cli", "write_averaged_csv"),
    ("cli.write_instantaneous_csv", "avgcell.cli", "write_instantaneous_csv"),
    ("cli.write_stats", "avgcell.cli", "write_stats"),
    ("cli.write_oracle_csv", "avgcell.cli", "write_oracle_csv"),
    ("cli.write_compare", "avgcell.cli", "write_compare"),
    ("oracle.simulate_switched", "avgcell.oracle", "simulate_switched"),
    ("oracle.period_average", "avgcell.oracle", "period_average"),
]

# Work counts read off a wrapped function's result: span name ->
# (counter, amount of work in the result).
COUNTERS = {
    "engine.run": ("engine.periods", lambda r: len(r.records)),
    "waveform.inductor_waveform": ("waveform.segments", lambda w: len(w.segments)),
    "waveform.capacitor_waveform": ("waveform.segments", lambda w: len(w.segments)),
    "waveform.capacitor_average_waveform": (
        "waveform.segments",
        lambda w: len(w.segments),
    ),
    "oracle.simulate_switched": (
        "oracle.substeps",
        lambda r: len(next(iter(r.values())).times) - 1,
    ),
}


class Tracer:
    """Spans kept in flat arrays: name id, start, end, parent, job."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._name_id = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self._stack = []
        self._job = -1
        # Work counts taken at the same boundaries as the spans.
        self.counters = {}

    def open(self, name):
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self._job)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(self.clock())
        return index

    def close(self, index):
        self.end[index] = self.clock()
        self._stack.pop()

    @property
    def active(self):
        return self._job >= 0

    @contextmanager
    def job_span(self, job_id):
        self._job = job_id
        index = self.open("job")
        try:
            yield
        finally:
            self.close(index)
            self._job = -1

    def count(self, key, amount):
        self.counters[key] = self.counters.get(key, 0) + amount

    def __len__(self):
        return len(self.start)

    def self_times(self):
        return self_times(self.start, self.end, self.parent)

    def totals(self):
        """Per span name: (calls, self seconds)."""
        own = self.self_times()
        calls = {}
        seconds = {}
        for i, nid in enumerate(self.name):
            name = self.names[nid]
            calls[name] = calls.get(name, 0) + 1
            seconds[name] = seconds.get(name, 0.0) + own[i]
        return calls, seconds

    def write(self, path):
        """All spans as CSV: index, name, start, end, parent, job."""
        with open(path, "w") as handle:
            handle.write("span,name,start_s,end_s,parent,job\n")
            for i in range(len(self.start)):
                handle.write(
                    f"{i},{self.names[self.name[i]]},{self.start[i]!r},"
                    f"{self.end[i]!r},{self.parent[i]},{self.job[i]}\n"
                )


def self_times(start, end, parent):
    """Span duration minus the union of its direct children's intervals,
    clipped to the span."""
    children = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i in range(len(start)):
        lo, hi = start[i], end[i]
        covered = 0.0
        reach = lo
        for c in sorted(children.get(i, ()), key=lambda c: start[c]):
            a, b = max(start[c], reach), min(end[c], hi)
            if b > a:
                covered += b - a
                reach = b
        out.append(hi - lo - covered)
    return out


def _wrap(tracer, name, fn):
    counter = COUNTERS.get(name)

    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if counter is not None:
            tracer.count(counter[0], counter[1](result))
        return result

    traced.__wrapped__ = fn
    return traced


def _resolve(path):
    """``package.module`` or ``package.module:Class``."""
    module, _, owner = path.partition(":")
    target = importlib.import_module(module)
    return getattr(target, owner) if owner else target


@contextmanager
def installed(tracer):
    """Wrap every function in ``WRAPPED`` for the duration of the block."""
    saved = []
    try:
        for name, path, attr in WRAPPED:
            target = _resolve(path)
            original = getattr(target, attr)
            saved.append((target, attr, original))
            setattr(target, attr, _wrap(tracer, name, original))
        yield tracer
    finally:
        for target, attr, original in reversed(saved):
            setattr(target, attr, original)
