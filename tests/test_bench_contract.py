"""The functions the benchmark's span tracer wraps stay where it looks.

``perfbench/spans.py`` lists in ``WRAPPED`` every (module, attribute) it
replaces with a timing wrapper during a traced run.  A name that moves or
disappears would break ``perfbench/run.py --trace 1``, so each one must
resolve to a callable, and the engine must reach the ``mna`` functions
through its own module attributes, where the wrappers are installed.
``COUNTERS`` reads work counts off the results of some of those functions,
so each must accept a real result of its function.
"""

import importlib.util
from pathlib import Path

import pytest

import avgcell.engine
from avgcell import SimConfig, parse_netlist
from avgcell.cells import Mode
from avgcell.oracle import OracleConfig

from conftest import BUCK_DCM, count_products

SPANS_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_FILE)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


SPANS = load_spans()


@pytest.mark.parametrize(
    "name, path, attr", SPANS.WRAPPED, ids=[f"{p}.{a}" for _, p, a in SPANS.WRAPPED]
)
def test_wrapped_function_resolves(name, path, attr):
    target = SPANS._resolve(path)
    assert callable(getattr(target, attr)), name


def test_traced_run_records_the_mna_layer(monkeypatch):
    """A DCM run assembles and factors its system once and solves every
    period from those factors; every assembly, factorization, solve and
    residual check goes through a wrapped name.  The stepper solves the
    bootstrap and each of its periods on its own, from one product q = Q s,
    and a CCM block forms no per-period solve; every row's residual, the
    bootstrap's included, is checked in one call at the end of the run."""
    stepped = []
    real_step = avgcell.engine._Stepper._step

    def step(self, r):
        stepped.append(r)
        return real_step(self, r)

    monkeypatch.setattr(avgcell.engine._Stepper, "_step", step)
    products = count_products(monkeypatch)
    tracer = SPANS.Tracer()
    circuit = parse_netlist(BUCK_DCM)
    with SPANS.installed(tracer), tracer.job_span(0):
        result = avgcell.engine.run(circuit, SimConfig(0.5, 100e3, 3e-4))
    calls = tracer.totals()[0]
    stats = result.stats
    assert stats.blocks > 0 and stats.stepped_periods > 0
    assert stats.block_periods + stats.stepped_periods == len(result.records)
    assert len(stepped) == stats.stepped_periods
    assert calls["engine.run"] == 1
    # P = A0^-1 B alone; the bootstrap and each stepped period solve from
    # their product q = Q s
    assert calls["mna.lu_solve"] == 1
    assert products["q"] == 1 + stats.stepped_periods
    # the bootstrap and all 30 periods, fewer rows than one check holds
    assert len(result.records) + 1 < avgcell.engine.CHECK_ROWS
    assert calls["mna.check_residual"] == 1
    assert calls["mna.lu_factor"] == calls["mna.assemble_system"] == 1
    assert any(r.cells["SCD1"].mode is Mode.DCM for r in result.records)


def _span_function(name):
    """The function a span wraps, found as the tracer finds it."""
    path, attr = next((p, a) for n, p, a in SPANS.WRAPPED if n == name)
    return getattr(SPANS._resolve(path), attr)


def test_counters_read_real_results():
    """Every work counter reads the result of its span's function: a
    result attribute it needs that is renamed or removed fails here, not
    only in a traced benchmark run."""
    circuit = parse_netlist(BUCK_DCM)
    config = SimConfig(0.5, 100e3, 2e-4)
    result = avgcell.engine.run(circuit, config)
    calls = {
        "engine.run": (circuit, config),
        "waveform.inductor_waveform": (result, "SCD1"),
        "waveform.capacitor_waveform": (result, "C1"),
        "waveform.capacitor_average_waveform": (result, "C1"),
        "oracle.simulate_switched": (circuit, config, OracleConfig(100)),
    }
    assert sorted(SPANS.COUNTERS) == sorted(calls)
    for name, (counter, amount) in SPANS.COUNTERS.items():
        out = _span_function(name)(*calls[name])
        if counter == "waveform.segments":
            expected = len(out.t0)
        elif counter == "oracle.substeps":
            expected = config.n_periods * 100
        else:
            expected = config.n_periods
        assert amount(out) == expected, name
