"""Shared fixtures: benchmark circuits, simulation runs and oracle runs.

The switched-circuit oracle runs are expensive, so everything heavier than a
few milliseconds of simulated time is session scoped and shared between the
module tests and the acceptance suite.
"""

import math

import numpy as np
import pytest

import avgcell.engine as engine_module
from avgcell import SimConfig, parse_netlist, run
from avgcell.cells import CURRENT_RTOL, avg_inductor_current
from avgcell.oracle import OracleConfig, period_average, simulate_switched

BUCK = """\
VDC 1 1 0 10.0
SCN1 1 1 0 2 10e-6 0
C 1 2 0 1e-4 0
R 1 2 0 5.0
IDC 1 2 0 4.0
"""

BUCK_DIODE = BUCK.replace("SCN1", "SCD1")

FLYBACK = """\
VDC 1 1 0 10.0
FBN1 1 1 0 2 10e-6 2.0 0
C 1 2 0 1e-4 0
R 1 2 0 5.0
IDC 1 2 0 1.0
"""

FLYBACK_DIODE = FLYBACK.replace("FBN1", "FBD1")

BUCK_DCM = """\
VDC 1 1 0 10.0
SCD1 1 1 0 2 10e-6 0
C 1 2 0 1e-4 0
R 1 2 0 50.0
"""

# The same benchmarks started on their theoretical periodic orbit
# (inductor valley current and averaged output voltage).
BUCK_STEADY = BUCK.replace("10e-6 0", "10e-6 3.75").replace("1e-4 0", "1e-4 5.0")
BUCK_DIODE_STEADY = BUCK_STEADY.replace("SCN1", "SCD1")
FLYBACK_STEADY = FLYBACK.replace("10e-6 2.0 0", "10e-6 2.0 17.5").replace(
    "1e-4 0", "1e-4 20.0"
)

STD = dict(d=0.5, f_s=100e3)


def std_config(t_end, **kwargs):
    return SimConfig(STD["d"], STD["f_s"], t_end, **kwargs)


# Where the zero-current and diode rules turn over: signed zeros, subnormals,
# the smallest normal, the neighbours of +-CURRENT_RTOL and +-1.0, and large
# finite values up to the largest.
RULE_EDGES = [
    edge
    for x in (0.0, 5e-324, 1e-310, 2.2250738585072014e-308, CURRENT_RTOL, 1.0,
              1e300, 1.7976931348623157e308)
    for sign in (1.0, -1.0)
    for edge in (math.nextafter(sign * x, -math.inf), sign * x,
                 math.nextafter(sign * x, math.inf))
    if math.isfinite(edge)
]


def same_on_float_and_array(rule, *args):
    """A rule's answer on floats, checked to be a bool and to equal its
    answer on arrays of one and of two copies of the same values."""
    answer = rule(*args)
    assert type(answer) is bool
    # Python floats overflow to inf without a warning; so may these.
    with np.errstate(over="ignore"):
        for size in (1, 2):
            arrays = (np.full(size, a) for a in args)
            assert rule(*arrays).tolist() == [answer] * size
    return answer


def rhs(system, cap_sources, iL0s):
    """The right-hand side z = B @ s of an assembled system for each
    capacitor's companion current i_0 in ``cap_sources`` and each cell's
    start current in ``iL0s``, both by label."""
    s = np.ones(system.B.shape[1])
    n_caps = system.layout.n_caps
    for label, col in system.layout.state_col.items():
        s[col] = cap_sources[label] if col < n_caps else iL0s[label]
    return system.B @ s


def count_products(monkeypatch):
    """Count the np.dot calls of every stepper made while the patches hold:
    ``"q"`` counts the products q = Q s by a stepper's Q, the bootstrap's
    included, and row r holds [products, of them q = Q s] of stepped row
    r of the last run."""
    counts, steppers, stepping = {"q": 0}, [], []
    real_init, real_step, real_dot = (
        engine_module._Stepper.__init__, engine_module._Stepper._step, np.dot
    )

    def init(self, *args):
        real_init(self, *args)
        steppers.append(self)

    def step(self, r):
        counts[r] = [0, 0]
        stepping.append(r)
        try:
            return real_step(self, r)
        finally:
            stepping.pop()

    def dot(a, *args, **kwargs):
        q = any(a is stepper.Q for stepper in steppers)
        counts["q"] += q
        if stepping:
            counts[stepping[-1]][0] += 1
            counts[stepping[-1]][1] += q
        return real_dot(a, *args, **kwargs)

    monkeypatch.setattr(engine_module._Stepper, "__init__", init)
    monkeypatch.setattr(engine_module._Stepper, "_step", step)
    monkeypatch.setattr(np, "dot", dot)
    return counts


def tail_mean(values, count=50):
    return float(np.mean(np.asarray(values)[-count:]))


def model_series(result, node, cell_label):
    """Per-period averaged output voltage and inductor current."""
    d = result.config.d
    v = np.array([r.node_voltages[node] for r in result.records])
    i = np.array(
        [avg_inductor_current(r.cells[cell_label], d) for r in result.records]
    )
    return v, i


def oracle_series(sampled, node, cell_label):
    v_w = sampled[f"v({node})"]
    i_w = sampled[f"iL({cell_label})"]
    n = (len(v_w.times) - 1) // v_w.substeps_per_period
    v = np.array([period_average(v_w, k) for k in range(n)])
    i = np.array([period_average(i_w, k) for k in range(n)])
    return v, i


@pytest.fixture(scope="session")
def buck_circuit():
    return parse_netlist(BUCK)


@pytest.fixture(scope="session")
def buck_run():
    return run(parse_netlist(BUCK), std_config(5e-3))


@pytest.fixture(scope="session")
def buck_diode_run():
    return run(parse_netlist(BUCK_DIODE), std_config(5e-3))


@pytest.fixture(scope="session")
def flyback_run():
    return run(parse_netlist(FLYBACK), std_config(5e-3))


@pytest.fixture(scope="session")
def flyback_diode_run():
    return run(parse_netlist(FLYBACK_DIODE), std_config(5e-3))


@pytest.fixture(scope="session")
def dcm_run():
    return run(parse_netlist(BUCK_DCM), std_config(12e-3))


@pytest.fixture(scope="session")
def buck_long_run():
    """Fully converged buck run for steady-state property checks."""
    return run(parse_netlist(BUCK), std_config(20e-3))


@pytest.fixture(scope="session")
def flyback_long_run():
    return run(parse_netlist(FLYBACK), std_config(20e-3))


@pytest.fixture(scope="session")
def buck_steady_run():
    return run(parse_netlist(BUCK_STEADY), std_config(2e-3))


@pytest.fixture(scope="session")
def oracle_buck():
    return simulate_switched(parse_netlist(BUCK), std_config(5e-3), OracleConfig(1000))


@pytest.fixture(scope="session")
def oracle_buck_diode():
    return simulate_switched(
        parse_netlist(BUCK_DIODE), std_config(5e-3), OracleConfig(1000)
    )


@pytest.fixture(scope="session")
def oracle_flyback():
    return simulate_switched(
        parse_netlist(FLYBACK), std_config(5e-3), OracleConfig(1000)
    )


@pytest.fixture(scope="session")
def oracle_dcm():
    return simulate_switched(
        parse_netlist(BUCK_DCM), std_config(12e-3), OracleConfig(1000)
    )


@pytest.fixture(scope="session")
def oracle_buck_steady():
    return simulate_switched(
        parse_netlist(BUCK_STEADY), std_config(2e-3), OracleConfig(1000)
    )


@pytest.fixture(scope="session")
def steady_pairs():
    """(name, model run, oracle run, cell label) for the three benchmarks,
    each started on its theoretical periodic orbit."""
    pairs = []
    for name, text, label in (
        ("buck", BUCK_STEADY, "SCN1"),
        ("buck_diode", BUCK_DIODE_STEADY, "SCD1"),
        ("flyback", FLYBACK_STEADY, "FBN1"),
    ):
        circuit = parse_netlist(text)
        config = std_config(2e-3)
        pairs.append(
            (name, run(circuit, config), simulate_switched(circuit, config,
                                                           OracleConfig(1000)), label)
        )
    return pairs
