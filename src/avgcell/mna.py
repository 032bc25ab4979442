"""Assembly and direct solution of the discretized averaged circuit.

Each switching period is one linear system A x = z.  The unknowns are the
non-ground node voltages (ascending node id), the voltage-source currents
and, per switching cell, the averaged switch and diode currents iS_avg and
iD_avg (netlist order).  A capacitor is its trapezoidal companion model, a
conductance G_C = 2C/T_s beside a history source i_0[n+1] = (4C / T_s)
v[n] - i_0[n].  A cell adds its KCL current paths and two rows tying its
averaged currents to its port voltages, with G_L = T_s / L.  Stamps reach
the node rows through one incidence, (row, coefficient) pairs with ground
left out, and a cell's stamp walks each of its drive terms once.

Assembly builds A, B and E; a solver forms each right-hand side as
z = B @ s, s = (i_0 of every capacitor, iL0 of every cell, 1).  B has a
column per capacitor (its history source's incidence), a column per cell
(d at its iS_avg row, d_p / n at its iD_avg row, for the d_p it was
stamped at) and a last one with the source values, written nowhere else.
A cell at another d_p carries iL0 = 0, as in DCM, so its column does not
enter z.  The output matrix E reads every capacitor's voltage, then every
cell's vL1, then every vL2 off x, from the coefficients of the cell rows;
its capacitor and cell rows line up with B's columns.

A cell's d_p enters A only in its iD_avg row ``rd``, e_rd + d_p ra + d_p^2
rb (:class:`DiodeRow`, :func:`diode_entries`).  A run factors A once, at
d_p = 1 - d: :func:`lu_factor` eliminates with partial pivoting, tests each
pivot against its row's largest entry and returns A0^-1, so a period is one
product A0^-1 z.  :class:`RowUpdate` solves a period with k cells at another
d_p as a rank-k row update of A0^-1 (Sherman-Morrison-Woodbury; Hager, SIAM
Review 31(2), 1989): one division per diode row alone and one small system
for all the coupled ones, and it never rewrites A.  :func:`check_residual`
checks a block of solutions at once against A0, with each solution's diode
rows as sparse rows.
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
class MnaLayout:
    """Row assignment: nodes, then VDC currents, then cell current pairs.

    ``state_col`` gives every capacitor and then every cell (netlist order)
    its column of B and its row of E; the cells' vL2 rows of E follow.
    """

    order: int
    node_ids: tuple
    node_row: dict
    vdc_row: dict
    cell_rows: dict
    state_col: dict

    @property
    def n_caps(self):
        return len(self.state_col) - len(self.cell_rows)


class MnaSystem:
    """Dense A x = z system plus its layout, its right-hand-side matrix
    ``B`` and its output matrix ``E``."""

    def __init__(self, layout):
        self.layout = layout
        self.A = np.zeros((layout.order, layout.order))
        n_state = len(layout.state_col)
        self.B = np.zeros((layout.order, n_state + 1))
        self.E = np.zeros((n_state + len(layout.cell_rows), layout.order))
        # The iD_avg row of every cell, in netlist order.
        self.diode_rows = []


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
    labels = [e.label for e in circuit.capacitors()] + list(cell_rows)
    state_col = {label: col for col, label in enumerate(labels)}
    layout = MnaLayout(row, node_ids, node_row, vdc_row, cell_rows, state_col)
    return MnaSystem(layout)


def _incidence(layout, nodes, coeffs=(1.0, -1.0)):
    """(row, coefficient) of each of an element's ``nodes`` but ground."""
    node_row = layout.node_row
    return [(node_row[n], c) for n, c in zip(nodes, coeffs) if n in node_row]


def _stamp_conductance(A, pairs, g):
    # Both diagonal terms before the off-diagonal ones: a resistor across
    # one node sums +g, +g, -g, -g on its diagonal, in that order.
    for r, _ in pairs:
        A[r, r] += g
    if len(pairs) == 2:
        (r1, _), (r2, _) = pairs
        A[r1, r2] -= g
        A[r2, r1] -= g


def stamp_resistor(system, element):
    pairs = _incidence(system.layout, element.nodes)
    _stamp_conductance(system.A, pairs, 1.0 / element.value)


def stamp_vdc(system, element):
    br = system.layout.vdc_row[element.label]
    for r, c in _incidence(system.layout, element.nodes):
        system.A[r, br] += c
        system.A[br, r] += c
    system.B[br, -1] += element.value


def stamp_idc(system, element):
    for r, c in _incidence(system.layout, element.nodes):
        system.B[r, -1] -= c * element.value


def stamp_capacitor(system, element, T_s):
    """Trapezoidal companion: conductance 2C/T_s, history source i_0, and
    the capacitor's voltage as its row of E."""
    pairs = _incidence(system.layout, element.nodes)
    _stamp_conductance(system.A, pairs, 2.0 * element.value / T_s)
    col = system.layout.state_col[element.label]
    for r, c in pairs:
        system.B[r, col] += c
        system.E[col, r] += c


def diode_entries(d_p, ra, rb):
    """A diode row's entries at ``d_p``, d_p ra + d_p^2 rb, for floats and
    arrays alike."""
    return d_p * ra + d_p * d_p * rb


def stamp_cell(system, element, d, T_s, d_p):
    """Stamp one switching cell with its diode row at ``d_p``; the start
    current iL0 enters through the cell's column of B.

    Adds the iS_avg / iD_avg KCL columns along the cell current paths, the
    two constraint rows tying the averaged currents to the port voltages
    through the drive-voltage coefficients, and the cell's vL1 and vL2 rows
    of E with the same coefficients, in one pass over each drive term.
    """
    params = cell_params(element)
    layout, A = system.layout, system.A
    rs, rd = layout.cell_rows[element.label]
    node = dict(zip("apc", element.nodes))

    s_path, d_path = _cells.current_paths(params)
    for col, path in ((rs, s_path), (rd, d_path)):
        for r, c in _incidence(layout, map(node.get, path)):
            A[r, col] += c

    g_l = T_s / params.L
    col = layout.state_col[element.label]
    a_map, b_map = _cells.drive_terms(params)
    # A drive term enters E, the iS_avg row (vL1's only) and ra or rb.
    A[rs, rs] += 1.0
    switch, diode = -(d * d * g_l / 2.0), {}
    for k, (row, terms, scale) in enumerate((
        (col, a_map, -d * g_l / params.n),
        (col + len(layout.cell_rows), b_map, -g_l / (2.0 * params.n)),
    )):
        for r, c in _incidence(layout, map(node.get, terms), terms.values()):
            system.E[row, r] += c
            if k == 0:
                A[rs, r] += switch * c
            diode.setdefault(r, [0.0, 0.0])[k] += scale * c
    cols = sorted(diode)
    ra, rb = (tuple(diode[r][k] for r in cols) for k in (0, 1))
    A[rd, rd] = 1.0
    A[rd, cols] = [diode_entries(d_p, a, b) for a, b in zip(ra, rb)]
    system.diode_rows.append(DiodeRow(element.label, rd, tuple(cols), ra, rb))
    system.B[rs, col] = d
    system.B[rd, col] = d_p / params.n


def assemble_system(circuit, d, T_s, d_p):
    """Build the full system for one period; ``d_p`` maps each cell's
    label to the d_p its diode row is stamped at."""
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
            stamp_cell(system, e, d, T_s, d_p[e.label])
    return system


def lu_factor(A):
    """Test ``A`` for singularity by LU elimination with partial pivoting,
    then return its inverse; the systems are small, so a solve is one
    product with it.

    The pivot is the column's largest entry; :class:`SingularSystem` is
    raised when A is not finite, or when a pivot is not above ``PIVOT_RTOL``
    times its row's largest entry in A.
    """
    lu = np.array(A, dtype=float)
    if not np.isfinite(lu).all():
        raise SingularSystem("the system matrix A is not finite")
    scale = np.abs(lu).max(axis=1).tolist()
    for k in range(len(lu)):
        p = k + int(abs(lu[k:, k]).argmax())
        pivot = float(lu[p, k])
        if not abs(pivot) > PIVOT_RTOL * scale[p]:
            raise SingularSystem(f"pivot {pivot:.3e} in column {k} below tolerance")
        if p != k:
            lu[[k, p]] = lu[[p, k]]
            scale[k], scale[p] = scale[p], scale[k]
        # Only the trailing block is read again, so L is not stored.
        lu[k + 1:, k + 1:] -= (lu[k + 1:, k] / pivot)[:, None] * lu[k, k + 1:]
    return np.linalg.inv(A)


def lu_solve(inverse, b):
    """The solution of A x = b, given the inverse :func:`lu_factor`
    returned for A."""
    return np.dot(inverse, b)


class RowUpdate:
    """Solves A x = z through ``inverse``, the A0^-1 of a matrix ``A``
    whose diode ``rows`` sat at ``d_p0``, after some rows moved.

    For k moved rows A = A0 + E U^T: E holds the unit columns e_rd, and row
    u of U^T is alpha ra + beta rb (alpha = d_p - d_p0, beta = d_p^2 -
    d_p0^2).  With W = A0^-1 E, the rd columns of A0^-1,

        x = x0 - W C^-1 U^T x0,   x0 = A0^-1 z,   C = I + U^T W,

    and det A = det A0 det C.  C_ij is zero wherever ra_i . w_j and
    rb_i . w_j are.  A row with no nonzero C entry off the diagonal, in its
    row or its column, is alone, one division; a period's coupled moved rows
    are one small system, block-diagonal over their coupling groups.
    ``updates`` counts the solves with a row moved and ``largest`` is the
    most rows one moved.
    """

    def __init__(self, A, inverse, rows, d_p0):
        self.d_p0 = d_p0
        self.updates = self.largest = 0
        row_norms = np.abs(A).sum(axis=1)
        self.a_norm = float(row_norms.max())
        if not rows:  # no row can move: a solve returns x0
            return
        self.rd = rd = [r.row for r in rows]
        n = len(rows)
        row_norms[rd] = 0.0  # leaves the rows no d_p enters
        self._fixed_norm = float(row_norms.max())
        # Every row's cols and its ra and rb, then |ra| and |rb|, padded to
        # one width by zero terms at the row's own rd.
        width = max((len(r.cols) for r in rows), default=0)
        pads = [width - len(r.cols) for r in rows]
        cols = np.array([r.cols + (r.row,) * p for r, p in zip(rows, pads)], int)
        ra = np.array([r.ra + (0.0,) * p for r, p in zip(rows, pads)]).reshape(n, width)
        rb = np.array([r.rb + (0.0,) * p for r, p in zip(rows, pads)]).reshape(n, width)
        self._cols, self._ra, self._rb = cols.reshape(n, width), ra, rb
        terms = np.stack([ra, rb, abs(ra), abs(rb)])
        self._W = inverse[:, rd].T
        self._moved_W = {}  # W[moved] by moved rows
        # The w_j for ra and rb, and |w_j| for |ra| and |rb|.
        W = np.stack([self._W, self._W, abs(self._W), abs(self._W)])
        # ra_i . w_j, rb_i . w_j, |ra_i| . |w_j| and |rb_i| . |w_j| for
        # every pair of rows (i, j), summed term by term in ``cols`` order.
        products = terms[:, :, None, :] * W[:, :, self._cols].transpose(0, 2, 1, 3)
        dots = np.zeros((4, n, n))
        for t in range(width):
            dots += products[..., t]
        self._raw, self._rbw = dots[:2].tolist()
        # Row i of C sums at most 1 + |alpha| |ra_i| . |w_j| + |beta|
        # |rb_i| . |w_j| in magnitude; the largest of these over j is the
        # row's scale for the pivot rule, so cancellation down to a tiny
        # pivot is caught.
        self._magnitude = list(zip(*dots[2:].max(axis=2, initial=0.0).tolist()))
        # Whether each row is alone: no C entry off the diagonal, in its row
        # or its column, is nonzero by the pattern of _raw and _rbw.
        linked = ((dots[0] != 0) | (dots[1] != 0)) & ~np.eye(n, dtype=bool)
        self._lone = (~(linked.any(axis=0) | linked.any(axis=1))).tolist()
        # What a solve reads of row i: its (ra, rb, col) terms, |ra| and
        # |rb| over the w_j, the diagonal terms of C and whether it is alone.
        self._table = [
            (tuple(zip(r.ra, r.rb, r.cols)), *m, self._raw[i][i], self._rbw[i][i], lone)
            for i, (r, m, lone) in enumerate(zip(rows, self._magnitude, self._lone))
        ]

    def solve(self, x0, d_ps):
        """The solution of the system with each row at its d_p in ``d_ps``
        (``rows`` order), given x0 = A0^-1 z."""
        d_p0 = self.d_p0
        moved = [i for i, d_p in enumerate(d_ps) if d_p != d_p0]
        if not moved:
            return x0
        self.updates += 1
        self.largest = max(self.largest, len(moved))

        # Every moved row's pivot, right-hand side and scale for the
        # diagonal solve; a coupled row's are placeholders until the coupled
        # rows are solved.
        xs, diagonal, coupled = x0.tolist(), [], []
        for i in moved:
            terms, ra_abs, rb_abs, raw_ii, rbw_ii, lone = self._table[i]
            d_p = d_ps[i]
            alpha = d_p - d_p0
            beta = d_p * d_p - d_p0 * d_p0
            u_x = 0.0
            for a, b, c in terms:
                u_x += (alpha * a + beta * b) * xs[c]
            scale = 1.0 + abs(alpha) * ra_abs + abs(beta) * rb_abs
            if lone:
                diagonal.append((alpha * raw_ii + beta * rbw_ii + 1.0, u_x, scale))
            else:
                coupled.append((len(diagonal), i, alpha, beta, u_x, scale))
                diagonal.append((1.0, 0.0, 1.0))
        y = solve_diagonal(diagonal)
        raws, rbws = self._raw, self._rbw
        if coupled:
            pos, idx, alpha, beta, rhs, scale = map(list, zip(*coupled))
            C = [[a * raws[i][j] + b * rbws[i][j] for j in idx]
                 for i, a, b in zip(idx, alpha, beta)]
            for k, c_row in enumerate(C):
                c_row[k] += 1.0
            for p, y_p in zip(pos, solve_small(C, rhs, scale)):
                y[p] = y_p
        W = self._moved_W.get(key := tuple(moved))
        if W is None:
            W = self._moved_W[key] = self._W[moved]
        return x0 - np.dot(y, W)

    def moves(self, d_p):
        """The ``a_norm`` and ``moves`` :func:`check_residual` takes for one
        system per row of ``d_p`` (one column per diode row): the infinity
        norm of the rows no d_p enters, and (rd, cols, V), V[k, i] being
        row ``rd[i]``'s entries at ``cols[i]`` at d_p[k, i], entry for entry
        as assembly writes them (zero at the padding)."""
        V = diode_entries(d_p[..., None], self._ra, self._rb)
        return self._fixed_norm, (self.rd, self._cols, V)


def solve_small(C, r, scale):
    """Solve the k x k system C y = r (nested lists, overwritten) by
    Gaussian elimination with partial pivoting on plain Python floats.

    Raises :class:`SingularSystem` by the rule of :func:`lu_factor`, a
    pivot not above ``PIVOT_RTOL`` times its row's ``scale``.  A row
    swaps only with rows of its block of a block-diagonal C (zeros exact),
    so each block gets its bits alone.
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


def solve_diagonal(rows):
    """Solve diag(c) y = r, given as its rows (c_i, r_i, scale_i), one
    division a row, by the pivot rule of :func:`solve_small` for every row."""
    for col, (pivot, _, row_scale) in enumerate(rows):
        if not abs(pivot) > PIVOT_RTOL * row_scale:
            message = f"row-update pivot {pivot:.3e} in column {col} below tolerance"
            raise SingularSystem(message)
    return [r_i / c_i for c_i, r_i, _ in rows]


def check_residual(A, x, z, a_norm, period=None, moves=None):
    """Enforce the backward-stable residual bound of the direct solve.

    ``x`` and ``z`` hold a block of solutions and their right-hand sides,
    one system per row, with matrix ``A`` and ``a_norm`` its infinity norm;
    or with ``moves = (rd, cols, V)`` (:meth:`RowUpdate.moves`), system k's
    row ``rd[i]`` is the unit entry at ``rd[i]`` and ``V[k, i]`` at
    ``cols[i]``, and ``a_norm`` is the norm of the other rows.  The first
    system over its bound raises :class:`SingularSystem`, with ``period``
    plus its row as the period when ``period`` is given.  Returns the
    largest residual over its bound.
    """
    residual = x @ A.T - z
    if moves is not None:
        rd, cols, V = moves
        residual[:, rd] = x[:, rd] + (V * x[:, cols]).sum(axis=-1) - z[:, rd]
        a_norm = np.maximum(a_norm, (np.abs(V).sum(axis=-1) + 1.0).max(axis=-1))
    residual = np.abs(residual).max(axis=-1)
    bound = RESIDUAL_RTOL * (
        a_norm * np.abs(x).max(axis=-1) + np.abs(z).max(axis=-1)
    )
    # Written so that a non-finite solution fails.
    passed = (residual <= bound) & (bound < math.inf)
    if not passed.all():
        row = int(np.argmin(passed))
        raise SingularSystem(
            f"residual {residual[row]:.3e} exceeds stability bound {bound[row]:.3e}",
            period=None if period is None else period + row,
        )
    # A system whose bound is 0 passed with residual 0.
    return float((residual / np.maximum(bound, np.finfo(float).tiny)).max())
