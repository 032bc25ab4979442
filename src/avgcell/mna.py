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
capacitor or cell whose state it multiplies.  A and B both depend on the
cells' (mode, d_p) and are stamped together, so a caller that reuses A's
factorization across periods reuses B with it and forms each period's
right-hand side with :meth:`MnaSystem.rhs`.  Source terms are written
nowhere else.
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
    """Dense A x = z system plus its layout.

    ``z`` is set by :func:`assemble_system` for the inputs it was given.
    """

    def __init__(self, layout):
        self.layout = layout
        self.A = np.zeros((layout.order, layout.order))
        self.z_static = np.zeros(layout.order)
        # Nonzero entries of B as (row, label, coefficient), for capacitor
        # history sources and for cell start currents.
        self.B_cap = []
        self.B_cell = []
        self.z = None

    def rhs(self, predictions, cap_sources):
        """z_static + B @ state, with each cell's iL0 taken from
        ``predictions`` and each capacitor's i_0 from ``cap_sources``.

        The systems are tiny, so the product runs on plain Python floats."""
        z = self.z_static.tolist()
        for row, label, coeff in self.B_cap:
            z[row] += coeff * cap_sources[label]
        for row, label, coeff in self.B_cell:
            z[row] += coeff * predictions[label].iL0
        return np.array(z)


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

    Adds the iS_avg / iD_avg KCL columns along the cell current paths and
    the two constraint rows tying the averaged currents to the port
    voltages through the drive-voltage coefficients.
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
    d_p = prediction.d_p
    a_map, b_map = _cells.drive_terms(params)

    system.A[rs, rs] += 1.0
    for t, coeff in a_map.items():
        r = terminal_row[t]
        if r is not None:
            system.A[rs, r] += -(d * d * g_l / 2.0) * coeff
    system.B_cell.append((rs, element.label, d))

    system.A[rd, rd] += 1.0
    for t, coeff in a_map.items():
        r = terminal_row[t]
        if r is not None:
            system.A[rd, r] += -(d * d_p * g_l / params.n) * coeff
    for t, coeff in b_map.items():
        r = terminal_row[t]
        if r is not None:
            system.A[rd, r] += -(d_p * d_p * g_l / (2.0 * params.n)) * coeff
    system.B_cell.append((rd, element.label, d_p / params.n))


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
    """Pivoted LU factors; systems are tiny, so substitution runs on plain
    Python rows rather than numpy slices."""

    __slots__ = ("rows", "perm", "n")

    def __init__(self, lu, perm):
        self.rows = lu.tolist()
        self.perm = perm
        self.n = len(self.rows)

    def solve(self, b):
        rows = self.rows
        n = self.n
        y = [float(b[p]) for p in self.perm]
        for i in range(1, n):
            row = rows[i]
            acc = y[i]
            for j in range(i):
                acc -= row[j] * y[j]
            y[i] = acc
        for i in range(n - 1, -1, -1):
            row = rows[i]
            acc = y[i]
            for j in range(i + 1, n):
                acc -= row[j] * y[j]
            y[i] = acc / row[i]
        return np.asarray(y)


def lu_factor(A):
    """LU factorization with partial pivoting.

    Raises :class:`SingularSystem` when a pivot falls below
    ``PIVOT_RTOL`` times the originating row's infinity norm.
    """
    lu = np.array(A, dtype=float)
    n = lu.shape[0]
    perm = list(range(n))
    scale = np.abs(lu).max(axis=1)
    for k in range(n):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        if abs(lu[p, k]) <= PIVOT_RTOL * scale[p]:
            raise SingularSystem(f"pivot {lu[p, k]:.3e} in column {k} below tolerance")
        if p != k:
            lu[[k, p]] = lu[[p, k]]
            perm[k], perm[p] = perm[p], perm[k]
            scale[[k, p]] = scale[[p, k]]
        if k + 1 < n:
            lu[k + 1:, k] /= lu[k, k]
            lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
    return LuFactors(lu, perm)


def lu_solve(factors, b):
    """Forward/backward substitution against :func:`lu_factor` output."""
    return factors.solve(b)


def check_residual(A, x, z, a_norm=None):
    """Enforce the backward-stable residual bound of the direct solve.

    ``a_norm`` may carry a precomputed infinity norm of A, which is constant
    for as long as a factorization is reused.
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
