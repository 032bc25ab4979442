"""Averaged-model simulation of switching DC-DC converters.

The averaged circuit is solved once per switching period through a
switching-cell abstraction covering continuous and discontinuous
conduction; instantaneous waveforms are reconstructed afterwards with the
linear-ripple and quasi-steady-state approximations.  A switched-circuit
reference simulator is included for verification.
"""

from .cells import CellState, Mode
from .engine import (
    PeriodRecord,
    SimConfig,
    SimulationResult,
    run,
    step,
)
from .errors import AvgcellError, InvalidCircuit, InvalidConfig, SingularSystem
from .netlist import (
    CircuitDescription,
    Element,
    NetlistError,
    parse_netlist,
    serialize_netlist,
    validate,
)
from .waveform import (
    SignalStats,
    Waveform,
    capacitor_average_waveform,
    capacitor_waveform,
    inductor_waveform,
    stats,
)

__version__ = "0.1.0"

__all__ = [
    "AvgcellError",
    "CellState",
    "CircuitDescription",
    "Element",
    "InvalidCircuit",
    "InvalidConfig",
    "Mode",
    "NetlistError",
    "OracleConfig",
    "PeriodRecord",
    "SampledWaveform",
    "SignalStats",
    "SimConfig",
    "SimulationResult",
    "SingularSystem",
    "Waveform",
    "capacitor_average_waveform",
    "capacitor_waveform",
    "inductor_waveform",
    "parse_netlist",
    "period_average",
    "run",
    "serialize_netlist",
    "simulate_switched",
    "stats",
    "step",
    "validate",
    "__version__",
]

# The switched-circuit oracle's names, imported on first access: a process
# that never runs the oracle does not pay for its import.
_ORACLE = ("OracleConfig", "SampledWaveform", "period_average", "simulate_switched")


def __getattr__(name):
    if name in _ORACLE:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
