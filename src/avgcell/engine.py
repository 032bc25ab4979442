"""Period-stepping simulation loop for the averaged converter model.

One step is one switching period, from the state s = (i_0 of every
capacitor, iL0 of every cell, 1) the period before carried out; its
right-hand side is z = B s (:mod:`avgcell.mna`).  A stepper assembles and
factors its system once, every cell at d_p = 1 - d, and keeps P = A0^-1 B
and the Q of its :class:`avgcell.mna.RowUpdate`.  :func:`run` solves the
bootstrap, row 0, like a period from t = 0; :func:`step` starts row 1 from
its record and leaves row 0 unset.

While every diode cell ``keeps_ccm`` (:mod:`avgcell.cells` owns the
zero-current rules ``keeps_ccm``, ``snaps_to_zero`` and ``diode_clamps``,
the mode rules and their per-period forms),
a stretch of periods runs as a block, each period one product by a per-run
matrix G and the companion update as the stepper forms it:

    (v, iL2) = G s,   i_0' = 2 g v - i_0,

with g = 2C / T_s, k1 = d T_s / L and k2 = (1 - d) T_s / L in G.
Then x = P s, (vL1, vL2) = E x and iL1 = iL0 + k1 vL1 are read out row by
row, so a row's bits do not depend on the block's length.  The periods
before the first that breaks a rule are kept and that period is stepped.
Blocks double after each kept whole and start again at ``FIRST_BLOCK``
after one that failed.  A circuit with a diode cell starts at
``FIRST_BLOCK`` too, since a cell that leaves CCM discards the rest of its
block; one with none starts at ``CHECK_ROWS``, as only an end current that
snaps to zero can end its block early.

A stepped period makes three passes over the cells, none with a function
call per cell: it predicts every cell's mode (``cells.predict_modes``),
forms q = Q s, writes x into its row, row-updated from q for the cells at
another d_p in one pass over them (:meth:`avgcell.mna.RowUpdate.solve`),
reads y = E x off it and gives every end current (``cells.end_currents``);
a ``dcm_refine`` re-solve reuses q unless it zeroes a further start
current.  A period starts from the y and s (end currents included)
the bootstrap, a stepped period or a block hands over as lists.
Every row's residual is checked once, against its own matrix: when the
rows are solved, ``CHECK_ROWS`` rows a call in row order, or before a
failed row-update pivot is reported, so the earliest failure is reported.
A period is solved from exactly the state its record carries, so
:func:`step` reproduces :func:`run`.  Results are columns, one row per
period (:class:`SimulationResult`), made :class:`PeriodRecord` on access.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from operator import gt

import numpy as np

from . import cells as _cells
from .errors import InvalidCircuit, InvalidConfig, SingularSystem
from .mna import (
    RowUpdate,
    assemble_system,
    check_residual,
    lu_factor,
    lu_solve,
)
from .netlist import validate

# Length of the first CCM block of a run with a diode cell, and of the first
# block after one that failed; accepted blocks double it.
FIRST_BLOCK = 8
# The most stepped periods held as lists before they are written to the rows.
STRETCH = 64
# The most rows one residual check holds, and the length of the first CCM
# block of a run with no diode cell.
CHECK_ROWS = 1024

_MODES = (_cells.Mode.CCM, _cells.Mode.DCM)


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
        if not math.isfinite(self.t_end * self.f_s):
            raise InvalidConfig(f"{self.t_end} s at {self.f_s} Hz: too many periods")
        if self.n_periods < 1:
            raise InvalidConfig("run covers no complete switching period")
        periods = self.t_end * self.f_s
        if abs(periods - self.n_periods) > 1e-9 * periods:
            raise InvalidConfig(f"transient duration {self.t_end} s is {periods!r} periods"
                                f" at {self.f_s} Hz, not a whole number")

    @property
    def T_s(self):
        return 1.0 / self.f_s

    @property
    def n_periods(self):
        """The switching periods the run covers, a whole number to 1e-9."""
        return int(round(self.t_end * self.f_s))

    @property
    def t_stop(self):
        """The end of the last period and of every waveform, by ``t_end``."""
        return (self.n_periods - 1) * self.T_s + self.T_s

    def period_starts(self, first, stop):
        """The start times of periods [first, stop), k T_s each."""
        return np.arange(first, stop) * self.T_s


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
class RunStats:
    """What a run did: factorizations, CCM blocks and the periods they
    accepted, stepped periods, row-update solves and the most rows one
    moved, and the largest residual over its bound of any solution."""

    factorizations: int = 0
    blocks: int = 0
    block_periods: int = 0
    stepped_periods: int = 0
    row_update_solves: int = 0
    largest_row_update: int = 0
    worst_residual_ratio: float = 0.0


class _Rows:
    """The arrays a run writes, one row per solve: row 0 is the bootstrap
    and row n + 1 period n.

    ``s`` has one row more: row r is the state solve r starts from, so row
    r + 1 holds solve r's carried-out sources and end currents as solve
    r + 1 starts from them, zero for a cell it predicts at rest.  ``y`` is
    E x (a block's capacitor voltages are (E P) s): capacitor voltages,
    then every vL1, then every vL2, in the order of ``layout.state_col``.
    """

    def __init__(self, layout, n, d_p0):
        self.layout = layout
        self.n_caps = n_caps = layout.n_caps
        n_cells = len(layout.cell_rows)
        self.cell = slice(n_caps, n_caps + n_cells)
        self.vL2 = slice(n_caps + n_cells, n_caps + 2 * n_cells)
        try:
            self.x = np.empty((n, layout.order))
            self.y = np.empty((n, n_caps + 2 * n_cells))
            self.s = np.ones((n + 1, n_caps + n_cells + 1))
            self.iL1 = np.empty((n, n_cells))
            self.d_p = np.full((n, n_cells), d_p0)
            self.dcm = np.zeros((n, n_cells), dtype=bool)
        except (ValueError, MemoryError) as exc:
            raise InvalidConfig(f"cannot hold {n - 1} periods: {exc}") from None

    def records(self, config, first, last, index, t_start):
        """PeriodRecords of rows [first, last); row ``first`` is period
        ``index``, and ``t_start`` holds the rows' start times."""
        layout = self.layout
        x = self.x[first:last].tolist()
        n_caps = self.n_caps
        caps = list(layout.state_col)[:n_caps]
        v = self.y[first:last, :n_caps].tolist()
        i0_next = self.s[first + 1:last + 1, :n_caps].tolist()
        states = [self.cell_states(i, config.d, first, last) for i in range(len(layout.cell_rows))]
        vdc_row = layout.vdc_row.items()
        return [
            PeriodRecord(
                index + k,
                t,
                dict(zip(layout.node_ids, xr)),
                {label: xr[row] for label, row in vdc_row},
                {label: s[k] for label, s in zip(layout.cell_rows, states)},
                {label: CapacitorRecord(vk, ik) for label, vk, ik in zip(caps, v[k], i0_next[k])},
            )
            for k, (xr, t) in enumerate(zip(x, np.asarray(t_start).tolist()))
        ]

    def cell_states(self, i, d, first, last):
        """CellStates of cell ``i`` in rows [first, last), for duty ``d``."""
        col, at = self.n_caps + i, slice(first, last)
        rs, rd = list(self.layout.cell_rows.values())[i]
        d_p, vL1, vL2 = self.d_p[at, i], self.y[at, col], self.y[at, self.vL2.start + i]
        vL_avg = _cells.avg_inductor_voltage(vL1, vL2, d, d_p)
        modes = [_MODES[dcm] for dcm in self.dcm[at, i].tolist()]
        iL0, iL1, iL2, d_p, vL1, vL2, iS, iD, vL_avg = (a.tolist() for a in (
            self.s[at, col], self.iL1[at, i], self.s[first + 1:last + 1, col], d_p, vL1, vL2,
            self.x[at, rs], self.x[at, rd], vL_avg))
        return list(map(_cells.CellState, iL0, iL1, iL2, modes, d_p, vL1, vL2, iS, iD, vL_avg))


class SimulationResult:
    """A run's results as columns, one row per period.

    ``t_start`` holds every period's start time; ``x`` every period's MNA
    solution, in the rows of ``layout`` (an :class:`avgcell.mna.MnaLayout`);
    ``v_cap`` and ``i0_next`` every capacitor's voltage and carried-out
    companion source; ``vL1``, ``vL2``, ``iL0``, ``iL1``, ``iL2``, ``d_p``
    and ``dcm`` (true in discontinuous conduction) every cell's values, in
    netlist order.  Each is a view of the rows; ``iL2[k]`` is ``iL0[k + 1]``.
    ``records`` holds the same periods as :class:`PeriodRecord` objects and
    ``bootstrap`` the bootstrap's, row 0 of ``rows`` (the run's
    :class:`_Rows`), both built on first access; ``stats`` is the run's
    :class:`RunStats`.
    """

    def __init__(self, circuit, config, rows, stats):
        self.circuit = circuit
        self.config = config
        self.stats = stats
        self._rows = rows
        self.layout = rows.layout
        self.x = rows.x[1:]
        self.v_cap = rows.y[1:, :rows.n_caps]
        self.vL1 = rows.y[1:, rows.cell]
        self.vL2 = rows.y[1:, rows.vL2]
        self.i0_next = rows.s[2:, :rows.n_caps]
        self.iL0 = rows.s[1:-1, rows.cell]
        self.iL1 = rows.iL1[1:]
        self.iL2 = rows.s[2:, rows.cell]
        self.d_p = rows.d_p[1:]
        self.dcm = rows.dcm[1:]
        self.t_start = config.period_starts(0, len(self.x))

    @cached_property
    def bootstrap(self):
        return self._rows.records(self.config, 0, 1, -1, [0.0])[0]

    @cached_property
    def records(self):
        return self._rows.records(self.config, 1, len(self._rows.x), 0, self.t_start)

    def times(self):
        return self.t_start.tolist()

    def node_voltage(self, node):
        return self.x[:, self.layout.node_row[node]].tolist()

    def cell_states(self, label):
        if label not in self.layout.cell_rows:
            raise KeyError(label)
        i = self.layout.state_col[label] - self.layout.n_caps
        return self._rows.cell_states(i, self.config.d, 1, len(self._rows.x))

    def capacitor_voltage(self, label):
        if label in self.layout.cell_rows:
            raise KeyError(label)
        return self.v_cap[:, self.layout.state_col[label]].tolist()


def run(circuit, config):
    """Simulate the bootstrap and ``config.n_periods`` switching periods."""
    # A solution that is not finite raises SingularSystem, so numpy need not
    # warn.
    with np.errstate(all="ignore"):
        stepper = _Stepper(circuit, config, config.n_periods)
        stepper.solve_bootstrap()
        stepper.solve_rows(1, config.n_periods + 1)
    return stepper.result()


def step(circuit, config, previous_record):
    """Advance one switching period from an existing record.

    The modes are predicted from the drive voltages stored on the record's
    cell states, which are those of its node voltages, and the period is
    solved from the record by the same decision and kernel as in ``run``.
    It assembles and factors afresh and is meant for inspection and testing.
    """
    index = previous_record.index + 1
    with np.errstate(all="ignore"):
        stepper = _Stepper(circuit, config, 1, index)
        rows = stepper.rows
        cells = [previous_record.cells[e.label] for e in circuit.cells()]
        caps = [previous_record.capacitors[e.label] for e in circuit.capacitors()]
        # Row 1 starts from the record's carried-out sources and end currents,
        # as a period after a stepped one does.
        rows.s[1] = state = [c.i0_next for c in caps] + [c.iL2 for c in cells] + [1.0]
        y = [c.v for c in caps] + [c.vL1 for c in cells] + [c.vL2 for c in cells]
        stepper._carry = (y, state)
        stepper.solve_rows(1, 2)
        return rows.records(config, 1, 2, index, config.period_starts(index, index + 1))[0]


class _Stepper:
    """Solves rows of a run's :class:`_Rows` from one factorization.

    ``first_period`` is the period of row 1; construction solves no row.
    """

    def __init__(self, circuit, config, n_periods, first_period=0):
        diagnostics = validate(circuit)
        if diagnostics:
            raise InvalidCircuit(diagnostics)
        self.circuit, self.config, self.first_period = circuit, config, first_period
        d, T_s = config.d, config.T_s
        self.d_p0 = d_p0 = 1.0 - d
        self.cells, self.caps = cells, caps = circuit.cells(), circuit.capacitors()
        # Every period of the run is solved from this system, cells at 1 - d.
        self.system = system = assemble_system(circuit, d, T_s, {e.label: d_p0 for e in cells})
        self.is_diode = [e.is_diode for e in cells]
        self.diode = [i for i, diode in enumerate(self.is_diode) if diode]
        # 2 g = 4C / T_s of every capacitor: i_0' = 2 g v - i_0.
        self.two_g = [4.0 * e.value / T_s for e in caps]
        # Every cell's T_s / L and k1 = d T_s / L: iL1 = iL0 + k1 vL1 and
        # iL2 = iL1 + (d_p T_s / L) vL2.
        self.k = [T_s / e.value for e in cells]
        self.k1 = [d * k for k in self.k]
        self.inverse = lu_factor(system.A)
        self.stats = RunStats(factorizations=1)
        self.P = lu_solve(self.inverse, system.B)
        # Synchronous cells keep d_p = 1 - d, so only diode rows can move.
        diode_rows = [a.take(self.diode, axis=0) for a in system.diode]
        self.update = RowUpdate(system.A, self.inverse, self.P, diode_rows, d_p0)
        self.Q = self.update.Q
        self.rows = rows = _Rows(system.layout, n_periods + 1, d_p0)
        # Every diode cell's current's column in a row of s.
        self._diode_cols = [rows.cell.start + i for i in self.diode]
        self._checked_from = 1  # row 0 is checked once solve_bootstrap solves it
        # (y of row r - 1, s of row r) as lists, for the next row r to solve.
        self._carry = None
        # (d_p, dcm, s) of the stepped rows not yet written to the rows
        # (_flush).
        self._stepped = []

    def solve_bootstrap(self):
        """Solve row 0, the bootstrap, checked with the rows after it: a CCM
        solve at t = 0 whose drive voltages predict period 0's modes; its
        t = 0 sources and currents are its end state, carried into period 0."""
        rows, cells, caps = self.rows, self.cells, self.caps
        iL0s = [e.initial for e in cells]
        # Zero capacitor current assumed at t = 0: i_0 = g v0, g = 2C / T_s.
        state = [g2 / 2.0 * e.initial for e, g2 in zip(caps, self.two_g)] + iL0s + [1.0]
        y, _ = self._solve(0, state, iL0s, [self.d_p0] * len(cells))
        rows.s[:2] = state
        self._checked_from = 0
        rows.iL1[0] = iL0s
        self._carry = (y, state)

    def result(self):
        self.stats.row_update_solves = self.update.updates
        self.stats.largest_row_update = self.update.largest
        return SimulationResult(self.circuit, self.config, self.rows, self.stats)

    def solve_rows(self, r, stop):
        """Solve rows [r, stop), CCM stretches in blocks, then check them."""
        length = FIRST_BLOCK if self.diode else CHECK_ROWS
        while r < stop:
            # Every diode cell carries a current into row r that keeps CCM.
            if all(_cells.keeps_ccm(self._carry[1][col]) for col in self._diode_cols):
                self._flush(r)
                end = min(r + length, stop)
                r = self._block(r, end)
                if r == end:
                    length *= 2
                    continue
                length = FIRST_BLOCK
            self._step(r)
            r += 1
            if len(self._stepped) == STRETCH:
                self._flush(r)
        self._flush(stop)
        self._check(stop)

    def _flush(self, stop):
        """Write the stepped rows before ``stop``, and the s of row ``stop``."""
        rows, stepped, cell = self.rows, self._stepped, self.rows.cell
        if stepped:
            at = slice(first := stop - len(stepped), stop)
            d_p, dcm, s = zip(*stepped)
            rows.s[first:stop + 1] = s + (self._carry[1],)
            rows.d_p[at], rows.dcm[at] = d_p, dcm
            # iL1 = iL0 + k1 vL1, read out as a block's is.
            np.add(rows.s[at, cell], np.multiply(self.k1, rows.y[at, cell]), out=rows.iL1[at])
            stepped.clear()

    def _check(self, stop):
        """Check the residuals of the solved rows before ``stop``, each
        against its own matrix, ``CHECK_ROWS`` rows a call and in order."""
        rows, A, B = self.rows, self.system.A, self.system.B
        for a in range(self._checked_from, stop, CHECK_ROWS):
            b = min(a + CHECK_ROWS, stop)
            a_norm, moves = self.update.a_norm, None
            if rows.dcm[a:b].any():  # only a row in DCM has a diode row moved
                a_norm, moves = self.update.moves(rows.d_p[a:b][:, self.diode])
            period = self.first_period + a - 1  # row 0, the bootstrap's, has none
            ratio = check_residual(A, rows.x[a:b], rows.s[a:b] @ B.T, a_norm, period, moves)
            self.stats.worst_residual_ratio = max(self.stats.worst_residual_ratio, ratio)

    def _block(self, a, b):
        """Run rows [a, b) through the CCM kernel and return the first row
        not accepted."""
        rows = self.rows
        self._kernel(a, b)

        iL2 = rows.s[a + 1:b + 1, rows.cell]
        failed = _cells.snaps_to_zero(rows.iL1[a:b], iL2)
        if self.diode:
            diode = iL2[:, self.diode]
            failed[:, self.diode] |= _cells.diode_clamps(diode)
            # A current at zero leaves the next period to the predictor.
            failed[1:, self.diode] |= ~_cells.keeps_ccm(diode[:-1])
        first = int(failed.argmax())  # in row order, so in the first failed row
        accepted = first // failed.shape[1] if failed.flat[first] else b - a
        if accepted:
            last = a + accepted
            self._carry = (rows.y[last - 1].tolist(), rows.s[last].tolist())
            self.stats.blocks += 1
            self.stats.block_periods += accepted
        return a + accepted

    @cached_property
    def _ccm(self):
        """A CCM block's tables: G, its map of a row's (iL0, i0, 1) to its
        (v, iL2), the capacitor rows of E P, then k1 (E P)_vL1 + k2 (E P)_vL2
        + I on iL0; the columns of s in that order; 2 g and k1."""
        rows, d, k = self.rows, self.config.d, np.array(self.k)[:, None]
        EP, cell = self.system.E @ self.P, rows.cell
        EP[cell] = d * k * EP[cell] + self.d_p0 * k * EP[rows.vL2]
        EP[cell, cell] += np.eye(len(k))
        order = np.array([*range(cell.start, cell.stop), *range(rows.n_caps), cell.stop])
        G = EP[:rows.vL2.start].take(order, axis=1)
        return G, order, np.array(self.two_g), np.array(self.k1)

    def _kernel(self, a, b):
        """Rows [a, b) as CCM periods at d_p = 1 - d, each from the state
        the one before carried out, by the formulas of the module docstring."""
        rows, (G, order, two_g, k1) = self.rows, self._ccm
        s, cell, n_caps, n = rows.s, rows.cell, rows.n_caps, len(G)
        # Row j is (v, iL, i0, 1): row a + j's state from column n_caps on,
        # after the v of row a + j - 1.
        w = np.ones((b - a + 1, n + n_caps + 1))
        s[a].take(order, out=w[0, n_caps:])
        i0 = w[0, n:-1]
        dot, multiply, subtract = np.dot, np.multiply, np.subtract
        for state, out, v, i0_next in zip(w[:-1, n_caps:], w[1:, :n], w[1:, :n_caps], w[1:, n:-1]):
            # out positionally: a keyword costs each ufunc call more.
            dot(G, state, out)
            multiply(two_g, v, i0_next)
            i0 = subtract(i0_next, i0, i0_next)
        s[a + 1:b + 1, :n_caps], s[a + 1:b + 1, cell] = w[1:, n:-1], w[1:, n_caps:n]
        y = rows.y[a:b]
        y[:, :n_caps] = w[1:, :n_caps]
        # Row by row, so that a row's bits do not depend on the block.
        x = np.matmul(self.P, s[a:b, :, None], out=rows.x[a:b, :, None])
        np.matmul(self.system.E[n_caps:], x, out=y[:, n_caps:, None])
        np.add(s[a:b, cell], k1 * y[:, cell], out=rows.iL1[a:b])

    def _step(self, r):
        """Solve row r with the mode predictor, the row update and, in
        discontinuous conduction, ``dcm_refine``."""
        rows = self.rows
        y, state = self._carry
        iL0s = state[rows.cell]  # a copy: the predictions zero some
        dcm, d_ps = self._predict(y, iL0s)
        y, q = self._solve(r, state, iL0s, d_ps)
        if self.config.dcm_refine and True in dcm:
            refined = self._predict(y, iL0s)
            if refined != (dcm, d_ps):
                # Only a cell the refined prediction newly puts in DCM changes
                # a start current, and so s and q.
                zeroed = True in map(gt, refined[0], dcm)
                dcm, d_ps = refined
                y, _ = self._solve(r, state, iL0s, d_ps, None if zeroed else q)

        iL2s = _cells.end_currents(
            iL0s, y[rows.cell], y[rows.vL2], d_ps, dcm, self.k1, self.k, self.is_diode)
        self._stepped.append((d_ps, dcm, state))
        state = [k * v - i0 for k, v, i0 in zip(self.two_g, y, state)] + iL2s + [1.0]
        self._carry = (y, state)
        self.stats.stepped_periods += 1

    def _predict(self, y, iL0s):
        """The DCM flag and d_p of every cell, predicted from the drive
        voltages in ``y`` and every cell's start current in ``iL0s``, which
        is set to zero for the diode cells predicted in DCM."""
        cell, vL2 = self.rows.cell, self.rows.vL2
        return _cells.predict_modes(self.config.d, iL0s, y[cell], y[vL2], self.is_diode)

    def _solve(self, r, state, iL0s, d_ps, q=None):
        """Solve row r from ``state`` (a row of s, a list), the cells at their
        ``iL0s`` and d_p in ``d_ps``; returns E x as a list, and q = Q s (given or formed)."""
        rows = self.rows
        state[rows.cell] = iL0s  # unchanged when q is given
        q = np.dot(self.Q, state) if q is None else q
        try:
            x = self.update.solve(q, [d_ps[i] for i in self.diode], rows.x[r])
        except SingularSystem as exc:
            # Not the bootstrap, whose rows never move; an earlier period's
            # failure comes first.
            self._flush(r)
            self._check(r)
            raise SingularSystem(str(exc), period=self.first_period + r - 1) from exc
        return np.dot(self.system.E, x, out=rows.y[r]).tolist(), q
