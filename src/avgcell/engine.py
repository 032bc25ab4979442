"""Period-stepping simulation loop for the averaged converter model.

One step covers exactly one switching period.  Before each period the
conduction mode of every diode cell is predicted from the previous period's
drive voltages and the carried-over inductor current; the linear system is
then solved, boundary currents are recovered from the solved drive voltages,
and the capacitor companion sources advance to the next period.

A run assembles and factors its system once, for the bootstrap, with every
cell at d_p = 1 - d, and keeps the inverse A0^-1 of its matrix.  A period
in which every cell has that d_p is solved as the product A0^-1 z.  A
period in which some cells have another d_p, in discontinuous conduction or
in a ``dcm_refine`` re-solve, differs from that system only in those cells'
iD_avg rows, and is solved as a row update of the same inverse
(:class:`avgcell.mna.RowUpdate`).  Either way the residual is checked
against the period's own matrix, and every cell's drive voltages are read
off the solution x as the product D @ x with the system's drive matrix.
"""

import math
from dataclasses import dataclass

from . import cells as _cells
from .errors import AvgcellError
from .mna import (
    CellPrediction,
    RowUpdate,
    SingularSystem,
    assemble_system,
    check_residual,
    lu_factor,
    lu_solve,
)
from .netlist import cell_params, validate


class InvalidConfig(AvgcellError):
    pass


class InvalidCircuit(AvgcellError):
    def __init__(self, message, diagnostics=()):
        self.diagnostics = list(diagnostics)
        super().__init__(message)


@dataclass(frozen=True)
class SimConfig:
    """Run parameters: duty ratio, switching frequency, transient length.

    ``dcm_refine`` adds one re-solve per period with d2 recomputed from the
    just-solved voltages, tightening the discontinuous-conduction boundary
    beyond the default one-period prediction lag.
    """

    d: float
    f_s: float
    t_end: float
    dcm_refine: bool = False

    def __post_init__(self):
        if not 0.0 < self.d <= 1.0:
            raise InvalidConfig(f"duty ratio {self.d} outside (0, 1]")
        if not math.isfinite(self.f_s) or self.f_s <= 0.0:
            raise InvalidConfig(
                f"switching frequency {self.f_s} must be positive and finite"
            )
        if not math.isfinite(self.t_end) or self.t_end < 0.0:
            raise InvalidConfig(f"transient duration {self.t_end} must be non-negative")

    @property
    def T_s(self):
        return 1.0 / self.f_s

    @property
    def n_periods(self):
        return int(round(self.t_end * self.f_s))


@dataclass
class CapacitorRecord:
    """Averaged capacitor voltage of the period and the companion source
    carried into the next period."""

    v: float
    i0_next: float


@dataclass
class PeriodRecord:
    """Full averaged solution of one switching period."""

    index: int
    t_start: float
    node_voltages: dict
    vdc_currents: dict
    cells: dict
    capacitors: dict


@dataclass
class SimulationResult:
    circuit: object
    config: SimConfig
    bootstrap: PeriodRecord
    records: list

    def times(self):
        return [r.t_start for r in self.records]

    def node_voltage(self, node):
        return [r.node_voltages[node] for r in self.records]

    def cell_states(self, label):
        return [r.cells[label] for r in self.records]

    def capacitor_voltage(self, label):
        return [r.capacitors[label].v for r in self.records]


def run(circuit, config):
    """Simulate ``config.n_periods`` switching periods of the circuit."""
    n_periods = config.n_periods
    if n_periods < 1:
        raise InvalidConfig("run covers no complete switching period")
    stepper = _Stepper(circuit, config)
    records = []
    previous = stepper.bootstrap
    for n in range(n_periods):
        previous = stepper.step(n, previous)
        records.append(previous)
    return SimulationResult(circuit, config, stepper.bootstrap, records)


def step(circuit, config, previous_record):
    """Advance one switching period from an existing record.

    The modes are predicted from the drive voltages stored on the record's
    cell states, which are those of its node voltages.  ``run`` uses the
    same machinery with one factorization for the whole run; this entry
    point assembles and factors afresh and is meant for inspection and
    testing.
    """
    stepper = _Stepper(circuit, config)
    return stepper.step(previous_record.index + 1, previous_record)


def predict_mode(cell, previous_record, d):
    """Predict (mode, d_p) for the period following ``previous_record``
    from the drive voltages of its node voltages."""
    params = cell_params(cell)
    iL0 = previous_record.cells[cell.label].iL2
    vL1, vL2 = _cells.drive_voltages(
        _ports(cell, previous_record.node_voltages), params
    )
    return _predict(params, vL1, vL2, iL0, d)


def _predict(params, vL1, vL2, iL0, d):
    if params.rectifier is _cells.Rectifier.SYNCHRONOUS:
        return _cells.Mode.CCM, 1.0 - d
    # A positive starting current keeps the continuous-conduction geometry
    # regardless of d2: the current must reach zero before the cell can rest.
    if iL0 > _cells.current_tol(iL0):
        return _cells.Mode.CCM, 1.0 - d
    d2 = _cells.compute_d2(vL1, vL2, d)
    return _cells.resolve_mode(d, d2, params.rectifier)


def _ports(cell, node_voltages):
    v = [node_voltages.get(n, 0.0) for n in cell.nodes]
    return _cells.PortVoltages(v[0], v[1], v[2])


class _Stepper:
    def __init__(self, circuit, config):
        diagnostics = validate(circuit)
        if diagnostics:
            raise InvalidCircuit(
                "; ".join(str(d) for d in diagnostics), diagnostics
            )
        if not circuit.cells():
            raise InvalidCircuit("no switching cell in circuit")
        self.circuit = circuit
        self.config = config
        self.cells = [(e, cell_params(e)) for e in circuit.cells()]
        self.caps = [
            (e, 2.0 * e.value / config.T_s) for e in circuit.capacitors()
        ]
        self.bootstrap = self._bootstrap()

    def _solve(self, predictions, cap_sources):
        """Solve one period's system with the run's factorization.

        Returns the node voltages, the voltage-source currents, each cell's
        (iS_avg, iD_avg, vL1, vL2) in ``self.cells`` order and the
        capacitor voltages in ``self.caps`` order.
        """
        system = self._system
        z = system.rhs(predictions, cap_sources)
        x = self._update.solve(lu_solve(self._factors, z), predictions)
        check_residual(system.A, x, z, self._update.a_norm)

        layout = system.layout
        drives = (system.D @ x).tolist()
        x = x.tolist()
        # Node voltages occupy the first rows, in node_ids order.
        node_voltages = dict(zip(layout.node_ids, x))
        vdc_currents = {label: x[row] for label, row in layout.vdc_row.items()}
        # Cell rows and the rows of D both follow the netlist's cell order.
        cell_solutions = [
            (x[rs], x[rd], vL1, vL2)
            for (rs, rd), vL1, vL2 in zip(
                layout.cell_rows.values(), drives[::2], drives[1::2]
            )
        ]
        cap_voltages = [
            node_voltages.get(e.nodes[0], 0.0) - node_voltages.get(e.nodes[1], 0.0)
            for e, _ in self.caps
        ]
        return node_voltages, vdc_currents, cell_solutions, cap_voltages

    def _bootstrap(self):
        """Preliminary continuous-conduction solve that provides the drive
        voltages the first real period's mode prediction needs; its
        system is the one every period of the run is solved from."""
        d = self.config.d
        predictions = {
            e.label: CellPrediction(_cells.Mode.CCM, 1.0 - d, e.initial)
            for e, _ in self.cells
        }
        # Zero capacitor current assumed at t = 0.
        cap_sources = {e.label: g * e.initial for e, g in self.caps}
        self._system = assemble_system(
            self.circuit, d, self.config.T_s, predictions, cap_sources
        )
        self._factors = lu_factor(self._system.A)
        # Synchronous cells keep d_p = 1 - d, so only diode rows can move.
        diode_cells = {
            e.label
            for e, params in self.cells
            if params.rectifier is _cells.Rectifier.DIODE
        }
        self._update = RowUpdate(
            self._system.A,
            self._factors,
            [r for r in self._system.diode_rows if r.label in diode_cells],
            1.0 - d,
        )
        node_voltages, vdc_currents, cell_solutions, cap_voltages = self._solve(
            predictions, cap_sources
        )

        cell_states = {}
        for (e, _), (iS_avg, iD_avg, vL1, vL2) in zip(self.cells, cell_solutions):
            cell_states[e.label] = _cells.CellState(
                iL0=e.initial,
                iL1=e.initial,
                iL2=e.initial,
                mode=_cells.Mode.CCM,
                d_p=1.0 - d,
                vL1=vL1,
                vL2=vL2,
                iS_avg=iS_avg,
                iD_avg=iD_avg,
                vL_avg=_cells.avg_inductor_voltage(vL1, vL2, d, 1.0 - d),
            )
        # Carry the t = 0 companion sources unchanged into period 0.
        capacitors = {
            e.label: CapacitorRecord(v, cap_sources[e.label])
            for (e, _), v in zip(self.caps, cap_voltages)
        }
        return PeriodRecord(-1, 0.0, node_voltages, vdc_currents, cell_states, capacitors)

    def step(self, index, previous):
        config = self.config
        predictions = {}
        for e, params in self.cells:
            state = previous.cells[e.label]
            iL0 = state.iL2
            mode, d_p = _predict(params, state.vL1, state.vL2, iL0, config.d)
            if mode is _cells.Mode.DCM:
                iL0 = 0.0
            predictions[e.label] = CellPrediction(mode, d_p, iL0)
        cap_sources = {
            e.label: previous.capacitors[e.label].i0_next for e, _ in self.caps
        }

        record = self._solve_period(index, predictions, cap_sources)

        if config.dcm_refine and any(
            s.mode is _cells.Mode.DCM for s in record.cells.values()
        ):
            refined = {}
            changed = False
            for e, params in self.cells:
                pred = predictions[e.label]
                state = record.cells[e.label]
                mode, d_p = _predict(params, state.vL1, state.vL2, pred.iL0, config.d)
                if (mode, d_p) != (pred.mode, pred.d_p):
                    changed = True
                refined[e.label] = CellPrediction(mode, d_p, pred.iL0)
            if changed:
                record = self._solve_period(index, refined, cap_sources)
        return record

    def _solve_period(self, index, predictions, cap_sources):
        config = self.config
        try:
            node_voltages, vdc_currents, cell_solutions, cap_voltages = self._solve(
                predictions, cap_sources
            )
        except SingularSystem as exc:
            raise SingularSystem(str(exc), period=index) from exc

        cell_states = {}
        for (e, params), solution in zip(self.cells, cell_solutions):
            iS_avg, iD_avg, vL1, vL2 = solution
            pred = predictions[e.label]
            iL1, iL2 = _cells.advance_inductor(
                pred.iL0, vL1, vL2, config.d, pred.d_p, params, config.T_s
            )
            if pred.mode is _cells.Mode.DCM:
                # The rest interval pins the end current at zero exactly.
                iL2 = 0.0
            elif params.rectifier is _cells.Rectifier.DIODE and iL2 < 0.0:
                # The diode blocks once the current reaches zero.
                iL2 = 0.0
            cell_states[e.label] = _cells.CellState(
                iL0=pred.iL0,
                iL1=iL1,
                iL2=iL2,
                mode=pred.mode,
                d_p=pred.d_p,
                vL1=vL1,
                vL2=vL2,
                iS_avg=iS_avg,
                iD_avg=iD_avg,
                vL_avg=_cells.avg_inductor_voltage(vL1, vL2, config.d, pred.d_p),
            )

        capacitors = {
            e.label: CapacitorRecord(v, 2.0 * g * v - cap_sources[e.label])
            for (e, g), v in zip(self.caps, cap_voltages)
        }

        return PeriodRecord(
            index,
            index * config.T_s,
            node_voltages,
            vdc_currents,
            cell_states,
            capacitors,
        )
