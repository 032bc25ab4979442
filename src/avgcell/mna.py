"""Assembly and direct solution of the discretized averaged circuit.

Each switching period is one linear system A x = z.  The unknowns are the
non-ground node voltages (ascending node id), the voltage-source currents
and, per switching cell, the averaged switch and diode currents iS_avg and
iD_avg (netlist order).  A capacitor is its trapezoidal companion model, a
conductance G_C = 2C/T_s beside a history source i_0[n+1] = (4C / T_s)
v[n] - i_0[n].  A cell adds its KCL current paths and two rows tying its
averaged currents to its port voltages, with G_L = T_s / L.  Each kind's
stamp is a table of entries (:func:`stamp`), all assembled in one scatter.

A solver forms each right-hand side as z = B @ s, s = (i_0 of every
capacitor, iL0 of every cell, 1).  B has a column per capacitor (its
history source's incidence), a column per cell (d at its iS_avg row, d_p /
n at its iD_avg row, for the d_p it was stamped at) and a last one with the
source values, written nowhere else.  A cell at another d_p carries iL0 =
0, as in DCM, so its column does not enter z.  The output matrix E reads
every capacitor's voltage, then every cell's vL1, then every vL2 off x;
its capacitor and cell rows line up with B's columns.

A cell's d_p enters A only in its iD_avg row ``rd``, e_rd + d_p ra + d_p^2
rb (:func:`diode_entries`), held once as :attr:`MnaSystem.diode`.  One
Gaussian elimination with partial pivoting, :func:`eliminate`, runs over the
entries off zero.  A run factors A once, at d_p = 1 - d: :func:`lu_factor`
tests A by it and returns A0^-1.  :class:`RowUpdate` solves a period with k
cells at another d_p as a rank-k row update of A0^-1 (Sherman-Morrison-
Woodbury; Hager, SIAM Review 31(2), 1989) from q = Q s, x0 = A0^-1 B s and
every diode row's ra . x0 and rb . x0: one division per lone diode row, and
the coupled ones eliminated together, A never rewritten.
:func:`check_residual` checks a block of solutions, each against its own A.
"""

import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import SingularSystem
from .netlist import CAP, CELL_KINDS, FLYBACK_KINDS, IDC, RES, VDC

PIVOT_RTOL = 1e-13
RESIDUAL_RTOL = 1e-10


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
    """Dense A x = z system: its layout, and from :func:`stamp` ``A``, its
    right-hand-side matrix ``B``, its output matrix ``E`` and ``diode``:
    arrays (rd, cols, ra, rb), cell i's (netlist order) iD_avg row ``rd[i]``
    being e_rd + d_p ra[i] + d_p^2 rb[i] at ``cols[i]``, the rows of its
    non-ground terminals padded to three at rd[i], where ra and rb read 0.0."""

    def __init__(self, layout):
        self.layout = layout


def build_layout(circuit):
    """A system with the deterministic row assignment, for :func:`stamp`."""
    node_ids = tuple(sorted(circuit.node_ids - {0}))
    node_row = {n: i for i, n in enumerate(node_ids)}
    vdcs, cells = circuit.vdcs(), circuit.cells()
    vdc_row = {e.label: len(node_ids) + i for i, e in enumerate(vdcs)}
    row = len(node_ids) + len(vdcs)  # each cell's iS_avg and iD_avg rows from here
    cell_rows = {e.label: (row + 2 * i, row + 2 * i + 1) for i, e in enumerate(cells)}
    labels = [e.label for e in circuit.capacitors()] + list(cell_rows)
    state_col = {label: col for col, label in enumerate(labels)}
    layout = MnaLayout(row + 2 * len(cells), node_ids, node_row, vdc_row, cell_rows, state_col)
    return MnaSystem(layout)


# Each kind's stamp is a table of entries (plane, row role, column role,
# coefficient).  The planes of the one scatter are A, B, E and the cells'
# diode-row terms ra and rb at (rd, column).  The roles are an element's
# terminals (a, p, c of a cell), a cell's switch-return terminal (c, or p
# in a flyback), its branch row (a VDC's, a cell's iS_avg row rs), a cell's
# iD_avg row rd, its column of B (a source's is the last) and a cell's vL2
# row of E.  The coefficients are 1, the main one (the conductance, the
# source value or a cell's switch-row -d^2 G_L / 2), and a cell's ra scale
# -d G_L / n, 1 / n, rb scale -G_L / (2 n) / n and its entries of B, d and
# d_p / n; ~c is -c.
_A, _B, _E, _RA, _RB = range(5)
_T0, _T1, _T2, _RET, _BR, _RD, _COL, _VL2 = range(8)
_ONE, _K, _SA, _INV_N, _SB, _D, _D_P_N = range(7)
_CONDUCTANCE = ((_A, _T0, _T0, _K), (_A, _T1, _T1, _K), (_A, _T0, _T1, ~_K), (_A, _T1, _T0, ~_K))
# Entries that meet at one position add up in table order, and elements
# in netlist order.  A cell's KCL along iS_avg (a to the return terminal)
# and iD_avg (p to c) and its unit entries come first, then the drive terms
# of cells.drive_voltages, vL1 = v_a - v_ret and vL2 = (v_p - v_c) / n: each
# enters E, a vL1 term also the iS_avg row, and ra or rb.  Its diode row's
# unit diagonal and entries in A are written after the scatter (stamp).
_STAMPS = {
    RES: _CONDUCTANCE,
    CAP: _CONDUCTANCE + ((_B, _T0, _COL, _ONE), (_E, _COL, _T0, _ONE),
                         (_B, _T1, _COL, ~_ONE), (_E, _COL, _T1, ~_ONE)),
    VDC: ((_A, _T0, _BR, _ONE), (_A, _BR, _T0, _ONE), (_A, _T1, _BR, ~_ONE),
          (_A, _BR, _T1, ~_ONE), (_B, _BR, _COL, _K)),
    IDC: ((_B, _T0, _COL, ~_K), (_B, _T1, _COL, _K)),
    **dict.fromkeys(CELL_KINDS, (
        (_A, _T0, _BR, _ONE), (_A, _RET, _BR, ~_ONE), (_A, _T1, _RD, _ONE),
        (_A, _T2, _RD, ~_ONE), (_A, _BR, _BR, _ONE), (_B, _BR, _COL, _D),
        (_B, _RD, _COL, _D_P_N),
        (_E, _COL, _T0, _ONE), (_A, _BR, _T0, _K), (_RA, _RD, _T0, _SA),
        (_E, _COL, _RET, ~_ONE), (_A, _BR, _RET, ~_K), (_RA, _RD, _RET, ~_SA),
        (_E, _VL2, _T1, _INV_N), (_RB, _RD, _T1, _SB),
        (_E, _VL2, _T2, ~_INV_N), (_RB, _RD, _T2, ~_SB),
    )),
}
# Each kind's entries as (plane, row role, column role), and a getter of
# their coefficients off an element's (1, main, ..., -main, -1), so that
# the coefficient ~c is -c.
_PLACES = {kind: tuple(entry[:3] for entry in t) for kind, t in _STAMPS.items()}
_VALUES = {kind: itemgetter(*(entry[3] for entry in t)) for kind, t in _STAMPS.items()}


def diode_entries(d_p, ra, rb):
    """A diode row's entries at ``d_p``, d_p ra + d_p^2 rb, for floats and
    arrays alike."""
    return d_p * ra + d_p * d_p * rb


def stamp(system, elements, d, T_s, d_p):
    """Set ``system``'s arrays from ``elements`` (netlist order), each cell's
    diode row at ``d_p[label]``: every element's table entries in one
    scatter, ground on a spare row and column that is dropped, ``diode`` read
    off the ra and rb planes, and from it each diode row's entries in A and
    its unit diagonal, over its pads' zeros; A, B and E copy their planes."""
    layout = system.layout
    n, n_state, n_cells = layout.order, len(layout.state_col), len(layout.cell_rows)
    get, state_col, cell_rows = layout.node_row.get, layout.state_col, layout.cell_rows
    vdc_row = layout.vdc_row.get
    spare = n  # ground's row and column
    height, width = max(n + 1, n_state + n_cells), max(n + 1, n_state + 1)
    flat, values, rds, cols, d_ps = [], [], [], [], []
    for e in elements:
        kind, label = e.kind, e.label
        if kind not in CELL_KINDS:
            k = 1.0 / e.value if kind == RES else 2.0 * e.value / T_s if kind == CAP else e.value
            t0, t1 = e.nodes
            roles = (get(t0, spare), get(t1, spare), spare, spare, vdc_row(label, spare), spare,
                     state_col.get(label, n_state), spare)
            coefs = (1.0, k, -k, -1.0)
        else:
            (rs, rd), col = cell_rows[label], state_col[label]
            t0, t1, t2 = terminals = [get(t, spare) for t in e.nodes]
            roles = (t0, t1, t2, t1 if kind in FLYBACK_KINDS else t2, rs, rd, col, col + n_cells)
            g_l, turns, p = T_s / e.value, e.turns, d_p[label]
            c1, c2, c3 = -(d * d * g_l / 2.0), -d * g_l / turns, 1.0 / turns
            c4, c5 = -g_l / (2.0 * turns) * (1.0 / turns), p / turns
            coefs = (1.0, c1, c2, c3, c4, d, c5, -c5, -d, -c4, -c3, -c2, -c1, -1.0)
            real = sorted(set(terminals) - {spare})  # the diode row's columns
            rds.append(rd)
            cols.append(real + [rd] * (3 - len(real)))
            d_ps.append(p)
        flat += [(plane * height + roles[i]) * width + roles[j] for plane, i, j in _PLACES[kind]]
        values += _VALUES[kind](coefs)
    planes = np.bincount(np.array(flat, dtype=np.intp), np.array(values), 5 * height * width)
    planes = planes.reshape(5, height, width)
    rd, cols = np.array(rds, dtype=np.intp), np.array(cols, dtype=np.intp).reshape(-1, 3)
    at = rd[:, None], cols
    system.diode = rd, cols, planes[_RA][at], planes[_RB][at]
    planes[_A][at] = diode_entries(np.array(d_ps)[:, None], *system.diode[2:])
    planes[_A, rd, rd] = 1.0  # over a pad's 0.0
    system.A = planes[_A, :n, :n].copy()
    system.B = planes[_B, :n, :n_state + 1].copy()
    system.E = planes[_E, :n_state + n_cells, :n].copy()
    return system


def assemble_system(circuit, d, T_s, d_p):
    """Build the full system for one period; ``d_p`` maps each cell's
    label to the d_p its diode row is stamped at."""
    return stamp(build_layout(circuit), circuit.elements, d, T_s, d_p)


def _check_pivots(rows, name, first=0):
    """The pivot rule, for ``rows`` (pivot, scale) in column order from
    ``first``: raise :class:`SingularSystem`, naming the first failing pivot
    ``name``, unless each is above ``PIVOT_RTOL`` times its row's scale."""
    for k, (pivot, scale) in enumerate(rows, first):
        if not abs(pivot) > PIVOT_RTOL * scale:
            raise SingularSystem(f"{name} {pivot:.3e} in column {k} below tolerance")


def nonzero_entries(a):
    """The entries of the matrix ``a`` off zero as (row, column, value), in
    row order, as :func:`eliminate` takes them; -0.0 is zero, NaN is not."""
    a = np.asarray(a, dtype=float)
    r, c = np.nonzero(a)
    return zip(r.tolist(), c.tolist(), a[r, c].tolist())


def eliminate(entries, scale, name, rhs=None):
    """Gaussian elimination with partial pivoting of the square matrix
    whose entries off zero are ``entries`` (row, column, value), in row
    order and each row's in column order, with ``scale`` one per row, and of
    the list ``rhs`` (overwritten) with it.  Given ``rhs``, returns the
    solution as a list, back-substituted in ascending column order.

    The pivot is the column's largest entry, the first in row order among
    equals, a NaN the largest, as for argmax.  The pivots and their rows'
    ``scale`` pass :func:`_check_pivots` at the end, which reports the first
    failing one: no pivot depends on a later one.  Only the entries off
    zero are stored and eliminated: a product by a zero adds a zero, or NaN
    by a factor that is not finite."""
    n, pivots = len(scale), []
    rows, in_col = [{} for _ in range(n)], [[] for _ in range(n)]
    for i, j, v in entries:
        rows[i][j] = v
        in_col[j].append(i)
    pos, at = list(range(n)), list(range(n))  # row i at position pos[i] = k, at[k] = i
    for k in range(n):
        below = in_col[k]  # the rows not yet pivots with an entry in column k
        p = at[k]
        largest = abs(rows[p].get(k, 0.0))
        for i in below:
            m = abs(rows[i][k])
            if m > largest or m == largest and pos[i] < pos[p] or m != m:
                p, largest = i, m
        pivot = rows[p].pop(k, 0.0)
        pivots.append((pivot, scale[p]))
        if not pivot:  # it fails the pivot rule: stop before dividing by it
            break
        q, old = at[k], pos[p]
        at[k], at[old], pos[p], pos[q] = p, q, k, old
        # A row below pops each column as it is eliminated, so the pivot
        # row's entries are all right of column k.  L is not stored.
        u = rows[p]
        for j in u:
            in_col[j].remove(p)
        # The dense elimination updates every row below: a zero multiplier
        # times a pivot-row entry that is not finite is NaN, and so is a
        # multiplier that is not finite times a zero entry.
        if not math.isfinite(sum(u.values())):
            below = at[k + 1:]
        for i in below:
            if i != p:
                row = rows[i]
                f = row.pop(k, 0.0) / pivot
                for j in u if math.isfinite(f) else range(k + 1, n):
                    if j not in row:  # fill-in
                        row[j] = 0.0
                        in_col[j].append(i)
                    row[j] -= f * u.get(j, 0.0)
                if rhs is not None:
                    rhs[i] -= f * rhs[p]
    _check_pivots(pivots, name)
    if rhs is None:
        return None
    y = [0.0] * n
    for k in range(n - 1, -1, -1):
        u, acc = rows[at[k]], rhs[at[k]]
        for j in range(k + 1, n):
            acc -= u.get(j, 0.0) * y[j]
        y[k] = acc / pivots[k][0]
    return y


def lu_factor(A):
    """Test ``A`` for singularity by :func:`eliminate`, each pivot against
    its row's largest entry in A, then return its inverse; the systems are
    small, so a solve is one product with it.  :class:`SingularSystem` is
    also raised when A is not finite."""
    a = np.asarray(A, dtype=float)
    if not np.isfinite(a).all():
        raise SingularSystem("the system matrix A is not finite")
    eliminate(nonzero_entries(a), np.abs(a).max(axis=1).tolist(), "pivot")
    return np.linalg.inv(a)


def lu_solve(inverse, b):
    """The solution of A x = b, given the inverse :func:`lu_factor`
    returned for A."""
    return np.dot(inverse, b)


def _inverse_pattern(A):
    """False at [c, r] where (A^-1)[c, r] is zero for every matrix with A's
    zeros: A^-1 e_r is off zero only at the columns that an alternating path
    reaches from the column matched to row r in a perfect matching of A's
    rows to its columns (Duff, Erisman and Reid, Direct Methods for Sparse
    Matrices, ch. 6), which grows by breadth-first augmenting paths."""
    n, pattern = len(A), np.asarray(A) != 0
    cols = [np.flatnonzero(row).tolist() for row in pattern]
    row_of, col_of = {}, {}  # the matching, both ways
    for i in range(n):
        came_from, queue, free = {}, [i], None
        for r in queue:
            new = [c for c in cols[r] if c not in came_from]
            came_from.update(dict.fromkeys(new, r))
            free = next((c for c in new if c not in row_of), None)
            if free is not None:
                break
            queue += [row_of[c] for c in new]
        if free is None:  # structurally singular: no zero is sure
            return np.ones((n, n), dtype=bool)
        while free is not None:  # swap the path's edges into the matching
            r = came_from[free]
            row_of[free], free, col_of[r] = r, col_of.get(r), free
    # Column c leads to the column matched to each row with an entry at c.
    reach = (pattern[[row_of[c] for c in range(n)]].T | np.eye(n, dtype=bool)).astype(float)
    for _ in range(n.bit_length()):  # paths of up to 2^k steps after k squarings
        reach = np.minimum(reach @ reach, 1.0)
    return reach[[col_of[r] for r in range(n)]].T > 0


def _row_scale(magnitude, alpha, beta):
    """A moved diode row's scale, from its ``magnitude`` (ra_abs, rb_abs)."""
    return 1.0 + abs(alpha) * magnitude[0] + abs(beta) * magnitude[1]


class RowUpdate:
    """Solves A x = z through ``inverse``, the A0^-1 of a matrix ``A``
    whose diode ``rows`` (those of :attr:`MnaSystem.diode` that can move)
    sat at ``d_p0`` (in [0, 1], as 1 - d is), after some rows moved; a pad
    counts for nothing.

    For k moved rows A = A0 + E U^T: E holds the unit columns e_rd, and row
    u of U^T is alpha ra + beta rb (alpha = d_p - d_p0, beta = d_p^2 -
    d_p0^2).  With W = A0^-1 E, the rd columns of A0^-1,

        x = x0 - W C^-1 U^T x0,   x0 = A0^-1 z,   C = I + U^T W,

    and det A = det A0 det C; U^T x0 is read off q = Q s = (x0, R x0), ``Q``
    = (P, R P) with P = A0^-1 B (P itself with no rows) and ``R`` every
    row's ra, then every rb, as dense rows.  C_ij is zero wherever ra_i .
    w_j and rb_i . w_j are, or A's pattern makes w_j zero at row i's real
    ``cols`` (:func:`_inverse_pattern`) whatever rounding leaves there.  A
    row with no nonzero C entry off the diagonal, in its row or column, is
    alone, one division, and its pivot rule reads its scale only when the
    pivot does not clear a per-run bound on PIVOT_RTOL times the scale at
    any d_p in [0, 1]; a period's coupled moved rows are one system for
    :func:`eliminate`, whose groups share no entry.  ``updates`` counts the
    solves with a row moved, ``largest`` the most rows one moved.
    """

    def __init__(self, A, inverse, P, rows, d_p0):
        self.d_p0 = d_p0
        self._d_p0_sq = d_p0 * d_p0
        self.updates = self.largest = 0
        row_norms = np.abs(A).sum(axis=1)
        self.a_norm = self._fixed_norm = float(row_norms.max())
        self.rd, self._cols, self._ra, self._rb = rd, cols, ra, rb = rows
        n = len(rd)
        # The per-row tables a solve reads, empty when no row can move.
        self._raw_ii = self._rbw_ii = self._magnitude = self._lone = self._floor = []
        if not n:  # no row can move: a solve returns x0
            self.R, self.Q = np.zeros((0, len(A))), P
            return
        row_norms[rd] = 0.0  # leaves the rows no d_p enters
        self._fixed_norm = float(row_norms.max())
        at = np.arange(n)[:, None]
        self.R = np.zeros((2 * n, len(A)))
        self.R[at, cols], self.R[n + at, cols] = ra, rb
        self.Q = np.concatenate((P, self.R @ P))
        self._W = inverse[:, rd].T
        self._moved_W = {}  # W[moved] by moved rows
        # [i, j, t]: row i's column t and row j's rd, where its term meets w_j.
        meet = cols[:, None], rd[:, None]
        # ra_i . w_j, rb_i . w_j, |ra_i| . |w_j| and |rb_i| . |w_j| for
        # every pair of rows (i, j), summed term by term in ``cols`` order.
        signed = np.array([ra, rb])[:, :, None] * inverse[meet]
        products = np.concatenate((signed, abs(signed)))
        dots = np.zeros((4, n, n))
        for t in range(cols.shape[1]):
            dots += products[..., t]
        self._raw, self._rbw = dots[:2].tolist()
        # C's diagonal terms, ra_i . w_i and rb_i . w_i, as a solve reads them.
        self._raw_ii, self._rbw_ii = (a.diagonal().tolist() for a in dots[:2])
        # Row i of C sums at most 1 + |alpha| |ra_i| . |w_j| + |beta|
        # |rb_i| . |w_j| in magnitude; the largest of these over j is the
        # row's scale for the pivot rule, so cancellation down to a tiny
        # pivot is caught.
        self._magnitude = list(zip(*dots[2:].max(axis=2, initial=0.0).tolist()))
        # Whether each row is alone: no C entry off the diagonal, in its row
        # or its column, is nonzero by the pattern of _raw and _rbw, unless
        # A's pattern makes it zero at row i's real columns and only rounding
        # in A0^-1 does not.
        linked = ((dots[0] != 0) | (dots[1] != 0)) & ~np.eye(n, dtype=bool)
        if linked.any():
            real = (cols != rd[:, None])[:, None]
            linked &= (_inverse_pattern(A)[meet] & real).any(axis=2)
        self._lone = (~(linked.any(axis=0) | linked.any(axis=1))).tolist()
        # A bound on PIVOT_RTOL times each row's scale at any d_p in [0, 1].
        self._floor = [PIVOT_RTOL * _row_scale(m, 1.0, 1.0) for m in self._magnitude]

    def solve(self, q, d_ps, out):
        """Write into ``out`` and return the solution with each row at its
        d_p in ``d_ps`` (``rows`` order), given q = (x0, R x0), x0 = A0^-1 z."""
        d_p0, d_p0_sq, n = self.d_p0, self._d_p0_sq, len(out)
        magnitude, raw_ii, rbw_ii, lone = self._magnitude, self._raw_ii, self._rbw_ii, self._lone
        floor = self._floor
        # One pass over the rows: each moved row's u . x0, and a lone row's
        # diagonal entry c of C, tested by the pivot rule of _check_pivots,
        # and its entry of y; a coupled row's entry is a placeholder until
        # the coupled rows are solved, with its scale.  q's tail holds every
        # row's ra . x0, then rb . x0.
        tail, moved, y, coupled = q[n:].tolist(), [], [], []
        ra_x, rb_x = tail, tail[len(d_ps):]
        for i, d_p in enumerate(d_ps):
            if d_p == d_p0:
                continue
            moved.append(i)
            alpha = d_p - d_p0
            beta = d_p * d_p - d_p0_sq
            u_x = alpha * ra_x[i] + beta * rb_x[i]
            if lone[i]:
                c = alpha * raw_ii[i] + beta * rbw_ii[i] + 1.0
                # For d_p in [0, 1], |alpha| and |beta| are at most 1, and
                # floor[i] is at least PIVOT_RTOL times the row's scale,
                # rounding included: only a pivot that does not clear it
                # needs the scale.
                if not (abs(c) > floor[i] and 0.0 <= d_p <= 1.0):
                    scale = _row_scale(magnitude[i], alpha, beta)
                    _check_pivots([(c, scale)], "row-update pivot", len(y))
                y.append(u_x / c)
            else:
                coupled.append((len(y), i, alpha, beta, u_x, _row_scale(magnitude[i], alpha, beta)))
                y.append(0.0)
        if not moved:
            out[:] = q[:n]
            return out
        self.updates += 1
        self.largest = max(self.largest, len(moved))
        if coupled:
            pos, idx, alpha, beta, rhs, scale = zip(*coupled)
            # C's entries off zero in row order, the unit diagonal included.
            entries = []
            for k, (i, a, b) in enumerate(zip(idx, alpha, beta)):
                raw, rbw = self._raw[i], self._rbw[i]
                for m, j in enumerate(idx):
                    v = a * raw[j] + b * rbw[j]
                    if m == k:
                        v += 1.0
                    if v:
                        entries.append((k, m, v))
            for p, y_p in zip(pos, eliminate(entries, scale, "row-update pivot", list(rhs))):
                y[p] = y_p
        W = self._moved_W.get(key := tuple(moved))
        if W is None:
            W = self._moved_W[key] = self._W[moved]
        return np.subtract(q[:n], np.dot(y, W), out)

    def moves(self, d_p):
        """The ``a_norm`` and ``moves`` :func:`check_residual` takes for one
        system per row of ``d_p`` (one column per diode row): the infinity
        norm of the rows no d_p enters, and (rd, cols, V), V[k, i] being
        row ``rd[i]``'s entries at ``cols[i]`` at d_p[k, i], entry for entry
        as assembly writes them (zero at a pad)."""
        V = diode_entries(d_p[..., None], self._ra, self._rb)
        return self._fixed_norm, (self.rd, self._cols, V)


def check_residual(A, x, z, a_norm, period=None, moves=None):
    """Enforce the backward-stable residual bound of the direct solve.

    ``x`` and ``z`` hold a block of solutions and their right-hand sides,
    one system per row, with matrix ``A`` and ``a_norm`` its infinity norm;
    or with ``moves = (rd, cols, V)`` (:meth:`RowUpdate.moves`), system k's
    row ``rd[i]`` is the unit entry at ``rd[i]`` and ``V[k, i]`` at
    ``cols[i]``, and ``a_norm`` is the norm of the other rows.  The first
    system over its bound raises :class:`SingularSystem`, with ``period``
    plus its row as the period when ``period`` is given and that is not
    negative (a run's bootstrap comes before period 0).  Returns the
    largest residual over its bound.
    """
    residual = x @ A.T
    residual -= z
    if moves is not None:
        rd, cols, V = moves
        residual[:, rd] = x[:, rd] + (V * x[:, cols]).sum(axis=-1) - z[:, rd]
        a_norm = np.maximum(a_norm, (np.abs(V).sum(axis=-1) + 1.0).max(axis=-1))
    # Every system's largest |entry| of the residual, x and z, taken down
    # the columns of a transposed copy: one long reduction, not many short.
    residual, x_max, z_max = (np.abs(a.T, order="C").max(axis=0) for a in (residual, x, z))
    bound = RESIDUAL_RTOL * (a_norm * x_max + z_max)
    # Written so that a non-finite solution fails.
    passed = (residual <= bound) & (bound < math.inf)
    if not passed.all():
        row = int(np.argmin(passed))
        raise SingularSystem(
            f"residual {residual[row]:.3e} exceeds stability bound {bound[row]:.3e}",
            period=None if period is None or period + row < 0 else period + row,
        )
    # A system whose bound is 0 passed with residual 0.
    return float((residual / np.maximum(bound, np.finfo(float).tiny)).max())
