"""Assembly and direct solution of the discretized averaged circuit.

Each switching period is one linear system A x = z.  The unknown vector
stacks the non-ground node voltages (ascending node id), the voltage-source
branch currents (netlist order) and, per switching cell, the averaged switch
and diode currents iS_avg and iD_avg (netlist order).  Capacitors appear
through their trapezoidal companion model, a conductance G_C = 2C/T_s in
parallel with a history current source i_0 that advances between periods as

    i_0[n+1] = (4C / T_s) v[n] - i_0[n]

Switching cells contribute their KCL current paths plus two constraint rows
expressing the averaged device currents in terms of the port voltages, with
G_L = T_s / L.

The right-hand side is affine in the state a period carries in, the i_0 of
every capacitor and the start current iL0 of every cell:

    z = z_static + B @ state

z_static holds the voltage- and current-source values.  B holds the
incidence of each capacitor's history source and each cell's d iL0 and
d_p iL0 / n terms; it is kept as its few nonzero entries, each naming the
capacitor or cell whose state it multiplies, and :meth:`MnaSystem.rhs`
takes each cell's d_p and iL0 from the period's prediction.  Source terms
are written nowhere else.

The same coefficients that tie a cell's currents to its port voltages give
its drive voltages vL1 and vL2 as rows of the drive matrix D, two rows per
cell in netlist order, so D @ x is every cell's (vL1, vL2) for a solution x.

A cell's diode duty d_p enters A in one place only, the cell's iD_avg row
(``rd``), which is affine in d_p and d_p^2 (:class:`DiodeRow`).  A run
therefore factors A once, at d_p = 1 - d for every cell: elimination with
scaled partial pivoting decides whether the system is singular, and the
inverse A0^-1 is formed once it is not, so that solving a period is one
product A0^-1 z.  :class:`RowUpdate` solves each later period, in which k
cells have some other d_p, as a rank-k row update of A0^-1 (Sherman-
Morrison-Woodbury; Hager, "Updating the inverse of a matrix", SIAM Review
31(2), 1989).  The k rewritten rows are written into A in place, so A is
always the period's actual matrix and every solution's residual is checked
against it.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import cells as _cells
from .errors import AvgcellError
from .netlist import CAP, IDC, RES, VDC, cell_params

PIVOT_RTOL = 1e-13
RESIDUAL_RTOL = 1e-10


class SingularSystem(AvgcellError):
    """The assembled system has no reliable solution; the circuit is
    degenerate in a way the validator did not catch."""

    def __init__(self, message, period=None):
        self.period = period
        if period is not None:
            message = f"period {period}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class CellPrediction:
    """Per-cell inputs fixed before a period is solved."""

    mode: _cells.Mode
    d_p: float
    iL0: float


@dataclass(frozen=True)
class MnaLayout:
    """Row assignment: nodes, then VDC currents, then cell current pairs."""

    order: int
    node_ids: tuple
    node_row: dict
    vdc_row: dict
    cell_rows: dict

    def row_of(self, node):
        """Row of a node voltage, or None for ground."""
        return self.node_row.get(node)


class MnaSystem:
    """Dense A x = z system plus its layout and drive matrix ``D``.

    ``z`` is set by :func:`assemble_system` for the inputs it was given.
    """

    def __init__(self, layout):
        self.layout = layout
        self.A = np.zeros((layout.order, layout.order))
        # Rows 2i and 2i + 1: vL1 and vL2 of the i-th cell over x.
        self.D = np.zeros((2 * len(layout.cell_rows), layout.order))
        self.z_static = np.zeros(layout.order)
        # Nonzero entries of B: (row, label, coefficient) for capacitor
        # history sources, (rs, rd, label, d, n) for cell start currents.
        self.B_cap = []
        self.B_cell = []
        # The iD_avg row of every cell, in netlist order.
        self.diode_rows = []
        self.z = None

    def rhs(self, predictions, cap_sources):
        """z_static + B @ state, with each cell's d_p and iL0 taken from
        ``predictions`` and each capacitor's i_0 from ``cap_sources``.

        The systems are tiny, so the product runs on plain Python floats."""
        z = self.z_static.tolist()
        for row, label, coeff in self.B_cap:
            z[row] += coeff * cap_sources[label]
        for rs, rd, label, d, n in self.B_cell:
            prediction = predictions[label]
            z[rs] += d * prediction.iL0
            z[rd] += prediction.d_p / n * prediction.iL0
        return np.array(z)


@dataclass(frozen=True)
class DiodeRow:
    """A cell's iD_avg constraint row, e_rd + d_p ra + d_p^2 rb.

    ``cols`` are the rows of the cell's non-ground terminals and ``ra``,
    ``rb`` the coefficients there; the row has no other entries.
    """

    label: str
    row: int
    cols: tuple
    ra: tuple
    rb: tuple

    def values(self, d_p):
        """The row's entries in ``cols`` for diode duty ``d_p``."""
        return [d_p * a + d_p * d_p * b for a, b in zip(self.ra, self.rb)]

    def write(self, A, d_p):
        """Overwrite the row of ``A`` for diode duty ``d_p``; returns the
        row's absolute sum."""
        A[self.row, self.row] = 1.0
        values = self.values(d_p)
        for col, v in zip(self.cols, values):
            A[self.row, col] = v
        return 1.0 + sum(map(abs, values))


def build_layout(circuit):
    """Create a zeroed system with the deterministic row assignment."""
    node_ids = tuple(sorted(n for n in circuit.node_ids if n != circuit.ground))
    node_row = {n: i for i, n in enumerate(node_ids)}
    row = len(node_ids)
    vdc_row = {}
    for e in circuit.vdcs():
        vdc_row[e.label] = row
        row += 1
    cell_rows = {}
    for e in circuit.cells():
        cell_rows[e.label] = (row, row + 1)
        row += 2
    layout = MnaLayout(row, node_ids, node_row, vdc_row, cell_rows)
    return MnaSystem(layout)


def stamp_resistor(system, element):
    g = 1.0 / element.value
    r1 = system.layout.row_of(element.nodes[0])
    r2 = system.layout.row_of(element.nodes[1])
    _stamp_conductance(system.A, r1, r2, g)


def stamp_vdc(system, element):
    br = system.layout.vdc_row[element.label]
    r1 = system.layout.row_of(element.nodes[0])
    r2 = system.layout.row_of(element.nodes[1])
    if r1 is not None:
        system.A[r1, br] += 1.0
        system.A[br, r1] += 1.0
    if r2 is not None:
        system.A[r2, br] -= 1.0
        system.A[br, r2] -= 1.0
    system.z_static[br] += element.value


def stamp_idc(system, element):
    r1 = system.layout.row_of(element.nodes[0])
    r2 = system.layout.row_of(element.nodes[1])
    if r1 is not None:
        system.z_static[r1] -= element.value
    if r2 is not None:
        system.z_static[r2] += element.value


def stamp_capacitor(system, element, T_s):
    """Trapezoidal companion: conductance 2C/T_s, history source i_0."""
    g = 2.0 * element.value / T_s
    r1 = system.layout.row_of(element.nodes[0])
    r2 = system.layout.row_of(element.nodes[1])
    _stamp_conductance(system.A, r1, r2, g)
    if r1 is not None:
        system.B_cap.append((r1, element.label, 1.0))
    if r2 is not None:
        system.B_cap.append((r2, element.label, -1.0))


def stamp_cell(system, element, d, T_s, prediction):
    """Stamp one switching cell for a period with known (mode, d_p); the
    start current iL0 enters through the cell's entries of B.

    Adds the iS_avg / iD_avg KCL columns along the cell current paths, the
    two constraint rows tying the averaged currents to the port voltages
    through the drive-voltage coefficients, and the cell's two rows of D
    with the same coefficients.
    """
    params = cell_params(element)
    layout = system.layout
    rs, rd = layout.cell_rows[element.label]
    terminal_row = {
        "a": layout.row_of(element.nodes[0]),
        "p": layout.row_of(element.nodes[1]),
        "c": layout.row_of(element.nodes[2]),
    }

    s_path, d_path = _cells.current_paths(params)
    for col, (t_from, t_to) in ((rs, s_path), (rd, d_path)):
        r_from, r_to = terminal_row[t_from], terminal_row[t_to]
        if r_from is not None:
            system.A[r_from, col] += 1.0
        if r_to is not None:
            system.A[r_to, col] -= 1.0

    g_l = T_s / params.L
    a_map, b_map = _cells.drive_terms(params)
    # The cell rows come last in the layout, two per cell, as do D's rows.
    first_cell_row = layout.order - len(system.D)
    for row, terms in ((rs, a_map), (rd, b_map)):
        drive = system.D[row - first_cell_row]
        for t, coeff in terms.items():
            r = terminal_row[t]
            if r is not None:
                drive[r] += coeff

    system.A[rs, rs] += 1.0
    for t, coeff in a_map.items():
        r = terminal_row[t]
        if r is not None:
            system.A[rs, r] += -(d * d * g_l / 2.0) * coeff

    ra, rb = {}, {}
    for terms, scale, out in (
        (a_map, -d * g_l / params.n, ra),
        (b_map, -g_l / (2.0 * params.n), rb),
    ):
        for t, coeff in terms.items():
            r = terminal_row[t]
            if r is not None:
                out[r] = out.get(r, 0.0) + scale * coeff
    cols = tuple(sorted(ra.keys() | rb.keys()))
    row = DiodeRow(
        element.label,
        rd,
        cols,
        tuple(ra.get(c, 0.0) for c in cols),
        tuple(rb.get(c, 0.0) for c in cols),
    )
    row.write(system.A, prediction.d_p)
    system.diode_rows.append(row)
    system.B_cell.append((rs, rd, element.label, d, params.n))


def assemble_system(circuit, d, T_s, predictions, cap_sources):
    """Build the full system for one period.

    ``predictions`` maps cell label to :class:`CellPrediction`;
    ``cap_sources`` maps capacitor label to its companion current i_0.
    The returned system's ``z`` is its right-hand side for these inputs.
    """
    system = build_layout(circuit)
    for e in circuit.elements:
        if e.kind == RES:
            stamp_resistor(system, e)
        elif e.kind == VDC:
            stamp_vdc(system, e)
        elif e.kind == IDC:
            stamp_idc(system, e)
        elif e.kind == CAP:
            stamp_capacitor(system, e, T_s)
        else:
            stamp_cell(system, e, d, T_s, predictions[e.label])
    system.z = system.rhs(predictions, cap_sources)
    return system


def _stamp_conductance(A, r1, r2, g):
    if r1 is not None:
        A[r1, r1] += g
    if r2 is not None:
        A[r2, r2] += g
    if r1 is not None and r2 is not None:
        A[r1, r2] -= g
        A[r2, r1] -= g


class LuFactors:
    """The inverse of a matrix that passed the :func:`lu_factor` pivot
    rule; the systems are small, so a solve is one product with it."""

    __slots__ = ("inverse",)

    def __init__(self, inverse):
        self.inverse = inverse


def lu_factor(A):
    """Test ``A`` for singularity by LU elimination with partial pivoting,
    then form its inverse.

    Raises :class:`SingularSystem` when a pivot falls below
    ``PIVOT_RTOL`` times the originating row's infinity norm.
    """
    lu = np.array(A, dtype=float)
    n = lu.shape[0]
    scale = np.abs(lu).max(axis=1)
    for k in range(n):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        if abs(lu[p, k]) <= PIVOT_RTOL * scale[p]:
            raise SingularSystem(f"pivot {lu[p, k]:.3e} in column {k} below tolerance")
        if p != k:
            lu[[k, p]] = lu[[p, k]]
            scale[[k, p]] = scale[[p, k]]
        if k + 1 < n:
            lu[k + 1:, k] /= lu[k, k]
            lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
    return LuFactors(np.linalg.inv(A))


def lu_solve(factors, b):
    """The solution of A x = b for the matrix :func:`lu_factor` tested."""
    return factors.inverse @ b


class RowUpdate:
    """Solves A x = z through the inverse of a base matrix A0 whose diode
    rows sat at ``d_p0``, after the rows of some cells moved to another d_p.

    For the k cells whose d_p differs, A = A0 + E U^T: E holds the unit
    columns e_rd and row u of U^T is (d_p - d_p0) ra + (d_p^2 - d_p0^2) rb,
    with at most three nonzeros.  With W = A0^-1 E, the rd columns of A0^-1,

        x = x0 - W C^-1 U^T x0,   x0 = A0^-1 z,   C = I + U^T W.

    By the determinant lemma det A = det A0 det C, so C is singular exactly
    when A is.  ``A`` is the matrix that was factored; it is rewritten in
    place to hold the current rows, and ``a_norm`` is its infinity norm.
    """

    def __init__(self, A, factors, rows, d_p0):
        self.A = A
        self.rows = rows
        self.d_p0 = d_p0
        self._row_norms = np.abs(self.A).sum(axis=1).tolist()
        self.a_norm = max(self._row_norms)
        self._held = [d_p0] * len(rows)
        self._W = factors.inverse[:, [r.row for r in rows]].T
        columns = self._W.tolist()
        # ra_i . w_j and rb_i . w_j for every pair of rows (i, j).
        self._raw = [[_dot(r.ra, r.cols, w) for w in columns] for r in rows]
        self._rbw = [[_dot(r.rb, r.cols, w) for w in columns] for r in rows]
        # Row i of C sums at most 1 + |alpha| |ra_i| . |w_j| + |beta|
        # |rb_i| . |w_j| in magnitude; the largest of these over j is the
        # row's scale for the pivot rule, so cancellation down to a tiny
        # pivot is caught.
        abs_columns = [[abs(v) for v in w] for w in columns]
        self._magnitude = [
            (
                max(_dot(map(abs, r.ra), r.cols, w) for w in abs_columns),
                max(_dot(map(abs, r.rb), r.cols, w) for w in abs_columns),
            )
            for r in rows
        ]

    def solve(self, x0, predictions):
        """Write each cell's row of ``A`` for its predicted d_p and return
        the solution of the updated system, given x0 = A0^-1 z."""
        moved = []
        rewritten = False
        for i, r in enumerate(self.rows):
            d_p = predictions[r.label].d_p
            if d_p != self._held[i]:
                self._row_norms[r.row] = r.write(self.A, d_p)
                self._held[i] = d_p
                rewritten = True
            if d_p != self.d_p0:
                moved.append(i)
        if rewritten:
            self.a_norm = max(self._row_norms)
        if not moved:
            return x0

        xs = x0.tolist()
        d_p0 = self.d_p0
        C, rhs, scale = [], [], []
        for pos, i in enumerate(moved):
            r = self.rows[i]
            d_p = self._held[i]
            alpha = d_p - d_p0
            beta = d_p * d_p - d_p0 * d_p0
            u_x = 0.0
            for a, b, c in zip(r.ra, r.rb, r.cols):
                u_x += (alpha * a + beta * b) * xs[c]
            rhs.append(u_x)
            raw, rbw = self._raw[i], self._rbw[i]
            c_row = [alpha * raw[j] + beta * rbw[j] for j in moved]
            c_row[pos] += 1.0
            C.append(c_row)
            ra_abs, rb_abs = self._magnitude[i]
            scale.append(1.0 + abs(alpha) * ra_abs + abs(beta) * rb_abs)
        y = solve_small(C, rhs, scale)
        return x0 - np.array(y) @ self._W[moved]


def _dot(coeffs, cols, x):
    return sum(a * x[c] for a, c in zip(coeffs, cols))


def solve_small(C, r, scale):
    """Solve the k x k system C y = r (nested lists, overwritten) by
    Gaussian elimination with partial pivoting on plain Python floats.

    Raises :class:`SingularSystem` by the rule of :func:`lu_factor`, a
    pivot at or below ``PIVOT_RTOL`` times its row's ``scale``; for k = 1
    the solve is one division.
    """
    k = len(r)
    for col in range(k):
        p = max(range(col, k), key=lambda i: abs(C[i][col]))
        pivot = C[p][col]
        if not abs(pivot) > PIVOT_RTOL * scale[p]:
            raise SingularSystem(
                f"row-update pivot {pivot:.3e} in column {col} below tolerance"
            )
        C[col], C[p] = C[p], C[col]
        r[col], r[p] = r[p], r[col]
        scale[col], scale[p] = scale[p], scale[col]
        pivot_row = C[col]
        for i in range(col + 1, k):
            f = C[i][col] / pivot
            if f:
                row = C[i]
                for j in range(col + 1, k):
                    row[j] -= f * pivot_row[j]
                r[i] -= f * r[col]
    y = [0.0] * k
    for i in range(k - 1, -1, -1):
        row = C[i]
        acc = r[i]
        for j in range(i + 1, k):
            acc -= row[j] * y[j]
        y[i] = acc / row[i]
    return y


def check_residual(A, x, z, a_norm=None):
    """Enforce the backward-stable residual bound of the direct solve.

    ``a_norm`` may carry a precomputed infinity norm of A, such as
    :attr:`RowUpdate.a_norm`.
    """
    residual = float(np.abs(A @ x - z).max())
    if a_norm is None:
        a_norm = float(np.abs(A).sum(axis=1).max())
    bound = RESIDUAL_RTOL * (
        a_norm * float(np.abs(x).max()) + float(np.abs(z).max())
    )
    if not residual <= bound < math.inf:  # so a non-finite solution fails
        raise SingularSystem(
            f"residual {residual:.3e} exceeds stability bound {bound:.3e}"
        )
    return residual
