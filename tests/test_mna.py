"""System assembly and dense-solver tests.

The buck benchmark assembles an order-5 system; with d = 0.5, G_C = 20 S and
G_L = 1 its matrix and right-hand side are known in closed form and are
frozen here entry by entry.
"""

import copy
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from avgcell.mna import (
    PIVOT_RTOL,
    RowUpdate,
    SingularSystem,
    _inverse_pattern,
    assemble_system,
    build_layout,
    check_residual,
    diode_entries,
    eliminate,
    lu_factor,
    lu_solve,
    nonzero_entries,
    stamp,
)
from avgcell.netlist import parse_netlist

from conftest import BUCK, rhs

TS = 1e-5


@pytest.fixture
def buck():
    return parse_netlist(BUCK)


def ccm_d_p(circuit, d):
    return {e.label: 1.0 - d for e in circuit.cells()}


def zero_caps(circuit):
    return {e.label: 0.0 for e in circuit.capacitors()}


def a_norm(A):
    """The infinity norm of A, as check_residual takes it."""
    return float(np.abs(A).sum(axis=1).max())


def solve(system, z):
    """Factor, solve and check an assembled system as the engine does."""
    x = lu_solve(lu_factor(system.A), z)
    check_residual(system.A, x[None], z[None], a_norm(system.A))
    return x


def ccm_rhs(circuit, d, cap_sources, iL0=0.0):
    """The system at d_p = 1 - d and its right-hand side."""
    system = assemble_system(circuit, d, TS, ccm_d_p(circuit, d))
    return system, rhs(system, cap_sources, {e.label: iL0 for e in circuit.cells()})


class TestLayout:
    def test_buck_order_five_with_expected_rows(self, buck):
        system = build_layout(buck)
        layout = system.layout
        assert layout.order == 5
        assert layout.node_row == {1: 0, 2: 1}
        assert layout.vdc_row == {"VDC1": 2}
        assert layout.cell_rows == {"SCN1": (3, 4)}

    def test_two_nodes_no_vdc_one_cell(self):
        circuit = parse_netlist("SCN 1 1 0 2 1e-5 0\nR 1 2 0 5.0\nIDC 1 1 0 1.0\n")
        assert build_layout(circuit).layout.order == 4

    def test_two_cell_cascade_order_nine(self):
        circuit = parse_netlist(
            "VDC 1 1 0 10.0\n"
            "SCN 1 1 0 2 1e-5 0\n"
            "C 1 2 0 1e-4 0\n"
            "SCN 2 2 0 3 1e-5 0\n"
            "C 2 3 0 1e-4 0\n"
            "R 1 3 4 1.0\n"
            "R 2 4 0 4.0\n"
        )
        assert build_layout(circuit).layout.order == 9  # 4 + 1 + 2*2


class TestStamps:
    def test_resistor_adds_conductance(self, buck):
        system = stamp(build_layout(buck), [buck.element("R1")], 0.5, TS, {})
        assert system.A[1, 1] == pytest.approx(0.2)
        assert system.A[0, 0] == 0.0

    def test_vdc_constraint_row_and_value(self, buck):
        system = stamp(build_layout(buck), [buck.element("VDC1")], 0.5, TS, {})
        assert system.A[2, 0] == 1.0
        assert system.A[0, 2] == 1.0
        z = ccm_rhs(buck, 0.5, {"C1": 0.0})[1]
        assert z[2] == 10.0

    def test_idc_moves_current_to_rhs(self, buck):
        z = ccm_rhs(buck, 0.5, {"C1": 0.0})[1]
        assert z[1] == -4.0

    def test_capacitor_companion_conductance(self, buck):
        system = stamp(build_layout(buck), [buck.element("C1")], 0.5, TS, {})
        assert system.A[1, 1] == pytest.approx(20.0)  # 2 * 1e-4 / 1e-5
        z = ccm_rhs(buck, 0.5, {"C1": 7.0})[1]
        assert z[1] == -4.0 + 7.0  # the load current source plus i_0

    def test_companion_update_fixed_point(self):
        # Constant 5 V: i_0* = G_C v = 100 and the update maps 100 -> 100,
        # leaving zero average capacitor current.
        g = 20.0
        v = 5.0
        i0 = g * v
        assert 2.0 * g * v - i0 == pytest.approx(i0)

    def test_discharged_capacitor_initializes_to_zero_source(self):
        assert 20.0 * 0.0 == 0.0

    def test_cell_switch_row_coefficients(self, buck):
        cell = [buck.element("SCN1")]
        system = stamp(build_layout(buck), cell, d=0.5, T_s=TS, d_p={"SCN1": 0.5})
        assert system.A[3, 0] == pytest.approx(-0.125)  # -d^2 G_L / 2
        assert system.A[3, 1] == pytest.approx(+0.125)
        assert system.A[3, 3] == 1.0

    def test_cell_zero_duty_pins_switch_current(self, buck):
        cell = [buck.element("SCN1")]
        system = stamp(build_layout(buck), cell, d=0.0, T_s=TS, d_p={"SCN1": 1.0})
        assert np.all(system.A[3, :3] == 0.0)
        assert system.A[3, 3] == 1.0
        z = ccm_rhs(buck, 0.0, zero_caps(buck), iL0=2.0)[1]
        assert z[3] == 0.0

    def test_cell_diode_rhs_carries_start_current(self, buck):
        z = ccm_rhs(buck, 0.5, zero_caps(buck), iL0=3.0)[1]
        assert z[4] == pytest.approx(0.5 * 3.0)


def expected_buck_matrix(d=0.5, g_c=20.0, g_l=1.0, r=5.0):
    d_p = 1.0 - d
    return np.array(
        [
            [0.0, 0.0, 1.0, 1.0, 0.0],
            [0.0, g_c + 1.0 / r, 0.0, -1.0, -1.0],
            [1.0, 0.0, 0.0, 0.0, 0.0],
            [-d * d * g_l / 2, d * d * g_l / 2, 0.0, 1.0, 0.0],
            [-d * d_p * g_l, d_p * g_l * (d + d_p / 2), 0.0, 0.0, 1.0],
        ]
    )


class TestAssembledSystem:
    def test_buck_matrix_matches_closed_form(self, buck):
        system = assemble_system(buck, 0.5, TS, ccm_d_p(buck, 0.5))
        np.testing.assert_allclose(system.A, expected_buck_matrix(), rtol=0, atol=0)

    def test_buck_rhs(self, buck):
        iL0 = 2.0
        z = ccm_rhs(buck, 0.5, {"C1": 30.0}, iL0)[1]
        np.testing.assert_allclose(
            z, [0.0, -4.0 + 30.0, 10.0, 0.5 * iL0, 0.5 * iL0]
        )

    def test_ccm_assembly_is_bit_identical(self, buck):
        d_p = ccm_d_p(buck, 0.5)
        a1 = assemble_system(buck, 0.5, TS, d_p).A
        a2 = assemble_system(buck, 0.5, TS, d_p).A
        assert np.array_equal(a1, a2)

    def test_first_period_solution(self, buck):
        x = solve(*ccm_rhs(buck, 0.5, zero_caps(buck)))
        assert x[0] == pytest.approx(10.0)  # v1 pinned by the source
        # Eliminating the currents gives 20.7 v2 = -0.25.
        assert x[1] == pytest.approx(-0.25 / 20.7)

    def test_steady_state_fixed_point(self, buck):
        # iL0 = 3.75 A and i_0 = G_C * 5 V reproduce the steady state.
        x = solve(*ccm_rhs(buck, 0.5, {"C1": 100.0}, 3.75))
        assert x[1] == pytest.approx(5.0)
        assert x[3] == pytest.approx(2.5)
        assert x[4] == pytest.approx(2.5)
        # The source current balances the averaged switch current.
        assert x[2] == pytest.approx(-x[3])

    def test_flyback_steady_state_fixed_point(self):
        circuit = parse_netlist(
            "VDC 1 1 0 10.0\nFBN 1 1 0 2 10e-6 2.0 0\nC 1 2 0 1e-4 0\n"
            "R 1 2 0 5.0\nIDC 1 2 0 1.0\n"
        )
        x = solve(*ccm_rhs(circuit, 0.5, {"C1": 20.0 * 20.0}, 17.5))
        assert x[1] == pytest.approx(20.0)  # output voltage
        assert x[3] == pytest.approx(10.0)  # primary average
        assert x[4] == pytest.approx(5.0)  # secondary average


class TestSolver:
    def test_identity_system(self):
        inverse = lu_factor(np.eye(1))
        assert lu_solve(inverse, np.array([3.5]))[0] == 3.5

    def test_pivoting_handles_zero_diagonal(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        x = lu_solve(lu_factor(a), np.array([2.0, 3.0]))
        np.testing.assert_allclose(x, [3.0, 2.0])

    def test_singular_matrix_raises(self):
        with pytest.raises(SingularSystem):
            lu_factor(np.array([[1.0, 2.0], [2.0, 4.0]]))

    @pytest.mark.parametrize(
        "a",
        [
            [[np.nan, 1.0], [1.0, 1.0]],
            [[1.0, np.nan], [1.0, 1.0]],
            [[1.0, 0.0], [np.inf, 1.0]],
        ],
        ids=["nan-pivot", "nan-elsewhere", "inf"],
    )
    def test_non_finite_matrix_raises(self, a):
        """A matrix that is not finite fails before elimination, with the
        typed error: a NaN pivot escaped as numpy's LinAlgError, and a NaN
        off the pivots gave an all-NaN inverse."""
        with pytest.raises(SingularSystem, match="A is not finite"):
            lu_factor(np.array(a))

    def test_parallel_voltage_sources_are_singular(self):
        circuit = parse_netlist(
            "VDC 1 1 0 10.0\nVDC 2 1 0 5.0\nSCN 1 1 0 2 1e-5 0\nR 1 2 0 5.0\n"
        )
        system, z = ccm_rhs(circuit, 0.5, zero_caps(circuit))
        with pytest.raises(SingularSystem):
            solve(system, z)

    def test_residual_violation_raises(self):
        a = np.eye(2)
        with pytest.raises(SingularSystem):
            check_residual(a, np.array([[1.0, 1.0]]), np.array([[1.0, 2.0]]), a_norm(a))

    @pytest.mark.parametrize("moved", [False, True], ids=["plain", "moved-row"])
    def test_residual_bound_edges(self, moved):
        """x = (1, 0) against A = diag(1e-3, 1), or with row 1 given as a
        moved diode row with V = 0, whose norm 1 + |V| is 1: the bound is
        1e-10 (1 * 1 + 1e-3), with RESIDUAL_RTOL written out.  A residual
        of 1.5 times it in row 1 raises, and one of half of it passes."""
        A = np.diag([1e-3, 1.0])
        bound = 1e-10 * (1.0 * 1.0 + 1e-3)
        x = np.array([[1.0, 0.0]])
        a_norm, moves = 1.0, None
        if moved:
            a_norm, moves = 1e-3, ([1], np.array([[0]]), np.zeros((1, 1, 1)))
        with pytest.raises(SingularSystem, match="residual"):
            check_residual(A, x, np.array([[1e-3, -1.5 * bound]]), a_norm, moves=moves)
        ratio = check_residual(A, x, np.array([[1e-3, -0.5 * bound]]), a_norm, moves=moves)
        assert ratio == pytest.approx(0.5)

    def test_non_finite_solution_raises(self):
        a = np.eye(2)
        with pytest.raises(SingularSystem):
            check_residual(a, np.array([[np.nan, 0.0]]), np.zeros((1, 2)), a_norm(a))
        ones = np.ones((2, 2))
        with pytest.raises(SingularSystem):
            check_residual(ones, np.array([[np.inf, 1.0]]), np.zeros((1, 2)), a_norm(ones))


def coupled_solve(C, r, scale):
    """RowUpdate's coupled solve of the k x k system C y = r (nested lists,
    r overwritten): :func:`eliminate` of C's entries off zero with the row
    update's pivot name."""
    return eliminate(nonzero_entries(C), scale, "row-update pivot", r)


class TestSmallSolve:
    def test_one_by_one_is_a_division(self):
        assert coupled_solve([[4.0]], [2.0], [4.0]) == [0.5]

    def test_pivoting_handles_zero_diagonal(self):
        assert coupled_solve([[0.0, 1.0], [1.0, 0.0]], [2.0, 3.0], [1.0, 1.0]) == [
            3.0,
            2.0,
        ]

    def test_agrees_with_reference(self):
        rng = np.random.default_rng(5)
        c = rng.normal(size=(6, 6)) + 6 * np.eye(6)
        r = rng.normal(size=6)
        y = coupled_solve(c.tolist(), r.tolist(), np.abs(c).max(axis=1).tolist())
        np.testing.assert_allclose(y, np.linalg.solve(c, r), rtol=1e-12)

    @pytest.mark.parametrize(
        "C, scale",
        [
            ([[0.0]], [1.0]),
            ([[1e-14]], [1.0]),  # cancelled from terms of size 1
            ([[float("nan")]], [1.0]),
            ([[1.0, 2.0], [2.0, 4.0]], [2.0, 4.0]),
        ],
    )
    def test_small_pivot_raises(self, C, scale):
        with pytest.raises(SingularSystem):
            coupled_solve(C, [1.0] * len(C), scale)


# The largest pivot that fails for a row scale of 2, with PIVOT_RTOL written
# out so that a change to it shows.
_PIVOT_EDGE = 1e-13 * 2.0


@pytest.mark.parametrize(
    "solve",
    [
        lambda pivot: lu_factor(np.array([[2.0, 0.0], [2.0, pivot]])),
        lambda pivot: coupled_solve([[pivot]], [1.0], [2.0]),
    ],
    ids=["lu_factor", "eliminate"],
)
def test_pivot_at_the_tolerance_raises_and_the_next_float_up_passes(solve):
    """Each caller's pivot rule: a pivot of PIVOT_RTOL times its row's
    scale is singular, and the next float up is not.  lu_factor's second
    pivot is the entry itself, in a row whose largest entry is 2."""
    with pytest.raises(SingularSystem):
        solve(_PIVOT_EDGE)
    solve(math.nextafter(_PIVOT_EDGE, math.inf))


def dense_lu_verdict(A):
    """The verdict of the dense elimination lu_factor ran before it visited
    only the entries off zero: "ok", or the SingularSystem message."""
    lu = np.array(A, dtype=float)
    if not np.isfinite(lu).all():
        return "the system matrix A is not finite"
    scale = np.abs(lu).max(axis=1).tolist()
    with np.errstate(all="ignore"):
        for k in range(len(lu)):
            p = k + int(abs(lu[k:, k]).argmax())
            pivot = float(lu[p, k])
            if not abs(pivot) > PIVOT_RTOL * scale[p]:
                return f"pivot {pivot:.3e} in column {k} below tolerance"
            if p != k:
                lu[[k, p]] = lu[[p, k]]
                scale[k], scale[p] = scale[p], scale[k]
            lu[k + 1:, k + 1:] -= (lu[k + 1:, k] / pivot)[:, None] * lu[k, k + 1:]
    return "ok"


def lu_verdict(A):
    try:
        with np.errstate(all="ignore"):
            lu_factor(A)
    except SingularSystem as exc:
        return str(exc)
    except np.linalg.LinAlgError:  # np.linalg.inv's own test, after ours passed
        pass
    return "ok"


# Mostly zeros; entries that tie in magnitude, 0 of both signs, pivots on
# both sides of PIVOT_RTOL for row scales of 1 and 2, scales far apart, and
# magnitudes whose elimination overflows.
SPARSE_ENTRIES = st.one_of(
    st.just(0.0),
    st.sampled_from([-0.0, 1.0, -1.0, 2.0, 0.5, 3.0, 1e-13, 2e-13, 2.0000000000000004e-13,
                     -1e-13, 1e14, 1e-14]),
    st.floats(-1e3, 1e3),
    st.sampled_from([1e308, -1e308, 1.7e308, 5e307]),
)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(SPARSE_ENTRIES, min_size=n * n, max_size=n * n).map(
        lambda flat: [flat[i:i + n] for i in range(0, n * n, n)]
    )
))
# A tie the first row must win: the second row's scale fails the pivot.
@example([[1.0, 0.0], [1.0, 1e14]])
# A fill-in that becomes the next pivot: A[1, 1] is 0 until row 0 is
# subtracted from row 1.
@example([[1.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
# Row 0 subtracted from rows 1 and 2 leaves an exact zero stored in
# column 1 of both: the pivot is that zero, and eliminating row 2 by it
# would divide 0 by 0.
@example([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
# Eliminations that overflow: a zero times an infinity is NaN in every row
# the dense one updates, and its NaN pivot fails; in the first, a NaN is
# the pivot of column 2 although a finite entry is there too.
@example([[-1e308, -1e308, 1e308, 1.7e308], [5e307, 2.0, -1e308, 2.0],
          [-3e307, 1.7e308, 0.0, -1e308], [-1e308, 1.7e308, 0.0, 2.0]])
@example([[5e307, 5e307, 0.0, -1e308], [1.0, 0.0, -1e308, 0.0],
          [0.0, 0.0, -1e308, 1e308], [1e308, 5e307, 1e308, 1.7e308]])
@example([[-1e308, -1e308, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0, -1e308],
          [-1e308, -1e308, 0.0, -1e308, 0.0], [1.7e308, -1.0, 1.7e308, 1.7e308, -1e308],
          [1.7e308, 1e308, 0.0, 1.7e308, 1e308]])
def test_lu_factor_verdict_is_the_dense_elimination_verdict(A):
    """lu_factor skips the products by zero and gives the dense verdict and
    message: the same pivot rows, the first of equal magnitudes, and the
    same PIVOT_RTOL test.  The one difference is the sign printed for a
    pivot that is exactly zero, where the dense loop could carry a -0.0 of
    A or of its own products; no assembled A holds a -0.0."""
    found, expected = lu_verdict(A), dense_lu_verdict(A)
    assert found.replace("-0.000e+00", "0.000e+00") == expected.replace("-0.000e+00", "0.000e+00")


# Entries that tie in magnitude, exact zeros of both signs, and pivots on
# both sides of PIVOT_RTOL for a row scale of 1.
SMALL_ENTRIES = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 1.0, -1.0, 2.0, 0.5, 1e-13, -1e-13, 1.0000001e-13, 9.999999e-14]
    ),
    st.floats(-1e3, 1e3),
)


@st.composite
def block_diagonal_systems(draw):
    """A block-diagonal C y = r: every row in one of a random partition's
    groups, the groups' rows interleaved, and exact zeros (of either sign)
    between groups.  The right-hand side has no -0.0, as a row update's
    never has: it is a sum that starts from 0.0."""
    k = draw(st.integers(1, 7))
    group = draw(st.lists(st.integers(0, k - 1), min_size=k, max_size=k))
    C = [
        [
            draw(SMALL_ENTRIES if group[i] == group[j] else st.sampled_from([0.0, -0.0]))
            for j in range(k)
        ]
        for i in range(k)
    ]
    r = [draw(st.floats(-1e3, 1e3)) + 0.0 for _ in range(k)]
    scale = [draw(st.floats(0.5, 10.0)) for _ in range(k)]
    return C, r, scale, group


def _outcome(solve):
    """repr of a solve's result, which tells every float apart, the sign
    of zero included; or the verdict that it is singular."""
    try:
        return repr(solve())
    except SingularSystem:
        return "singular"


@settings(max_examples=250, deadline=None)
@given(block_diagonal_systems())
def test_group_by_group_solve_equals_whole_solve(system):
    """RowUpdate solves all of a period's coupled moved rows in one C,
    whatever coupling groups they fall in: on a block-diagonal C that gives
    each group the bits and the verdict of solving it on its own."""
    C, r, scale, group = system

    def by_group():
        y = [None] * len(r)
        for g in dict.fromkeys(group):
            rows = [i for i, h in enumerate(group) if h == g]
            part = coupled_solve(
                [[C[i][j] for j in rows] for i in rows],
                [r[i] for i in rows],
                [scale[i] for i in rows],
            )
            for i, y_i in zip(rows, part):
                y[i] = y_i
        return y

    expected = _outcome(lambda: coupled_solve(copy.deepcopy(C), list(r), list(scale)))
    assert _outcome(by_group) == expected


CASCADE = """\
VDC 1 1 0 20.0
SCD1 1 1 0 2 10e-6 0
C 1 2 0 1e-4 0
FBD2 2 2 0 3 15e-6 1.7 0
C 2 3 0 1e-4 0
R 1 3 0 50.0
"""


_CASCADE_D = 0.4
# A d_p in [0, 1 - d], the endpoints drawn as often as the rest.
_CASCADE_D_P = st.one_of(
    st.sampled_from([0.0, 1.0 - _CASCADE_D]), st.floats(0.0, 1.0 - _CASCADE_D)
)


@settings(max_examples=100, deadline=None)
@given(st.tuples(_CASCADE_D_P, _CASCADE_D_P))
def test_row_update_matches_refactored_system(d_ps):
    """Moving the diode rows of a two-cell system to any pair of d_p, or
    holding them, gives the assembled matrix bit for bit, its infinity norm
    and the solution of a fresh factorization; A0 itself is never
    rewritten."""
    circuit = parse_netlist(CASCADE)
    d = _CASCADE_D
    caps = {"C1": 3.0, "C2": -1.0}
    # Both cells in DCM: each starts its period at zero current.
    iL0s = {"SCD1": 0.0, "FBD2": 0.0}

    def d_p(d_p1, d_p2):
        return {"SCD1": d_p1, "FBD2": d_p2}

    system = assemble_system(circuit, d, TS, d_p(1.0 - d, 1.0 - d))
    inverse = lu_factor(system.A)
    update = RowUpdate(system.A, inverse, lu_solve(inverse, system.B), system.diode, 1.0 - d)
    A0 = system.A.copy()
    expected = assemble_system(circuit, d, TS, d_p(*d_ps))
    z = rhs(system, caps, iL0s)
    x0 = lu_solve(inverse, z)
    x = update.solve(np.concatenate((x0, update.R @ x0)), d_ps, np.empty(len(z)))
    np.testing.assert_array_equal(system.A, A0)
    fixed_norm, moves = update.moves(np.array([d_ps]))
    rd, cols, V = moves
    A = A0.copy()
    A[rd] = 0.0
    A[np.array(rd)[:, None], cols] = V[0]  # the padding writes zeros at rd
    A[rd, rd] = 1.0
    assert A.tobytes() == expected.A.tobytes()
    norm = max(fixed_norm, *(1.0 + np.abs(V[0]).sum(axis=-1)))
    assert norm == pytest.approx(np.abs(expected.A).sum(axis=1).max())
    np.testing.assert_allclose(
        x, solve(expected, rhs(expected, caps, iL0s)), rtol=1e-12, atol=1e-12
    )
    check_residual(system.A, x[None], z[None], fixed_norm, moves=moves)


CHAIN = """\
VDC 1 1 0 24.0
SCD1 1 1 0 2 10e-6 0
C 1 2 0 1e-4 0
FBD2 2 2 0 3 15e-6 1.7 0
C 2 3 0 1e-4 0
SCD3 3 3 0 4 12e-6 0
C 3 4 0 1e-4 0
R 1 4 0 40.0
"""


def _pairwise_tables(inverse, diode):
    """RowUpdate's tables as one dot product per pair of rows (i, j), over
    each row's real columns of ``diode`` (``MnaSystem.diode``; its pads, at
    the row's own rd, left out): the reference its column products must
    reproduce bit for bit."""
    rows = []
    for rd, cols, ra, rb in zip(*(a.tolist() for a in diode)):
        real = [k for k, c in enumerate(cols) if c != rd]
        rows.append((rd, [cols[k] for k in real], [ra[k] for k in real], [rb[k] for k in real]))
    columns = [inverse[:, rd].tolist() for rd, *_ in rows]
    abs_columns = [[abs(v) for v in w] for w in columns]

    def dot(coeffs, cols, w):
        return sum(a * w[c] for a, c in zip(coeffs, cols))

    raw = [[dot(ra, cols, w) for w in columns] for _, cols, ra, _ in rows]
    rbw = [[dot(rb, cols, w) for w in columns] for _, cols, _, rb in rows]
    magnitude = [
        (
            max(dot(map(abs, ra), cols, w) for w in abs_columns),
            max(dot(map(abs, rb), cols, w) for w in abs_columns),
        )
        for _, cols, ra, rb in rows
    ]
    return raw, rbw, magnitude


@pytest.mark.parametrize("text", [CASCADE, CHAIN], ids=["cascade", "chain"])
def test_row_update_tables_match_pairwise_dots(text):
    circuit = parse_netlist(text)
    d = 0.4
    system = assemble_system(circuit, d, TS, ccm_d_p(circuit, d))
    inverse = lu_factor(system.A)
    update = RowUpdate(system.A, inverse, lu_solve(inverse, system.B), system.diode, 1.0 - d)
    tables = (update._raw, update._rbw, update._magnitude)
    # repr tells every float apart, the sign of zero included.
    assert repr(tables) == repr(_pairwise_tables(inverse, system.diode))


PARALLEL = """\
VDC 1 1 0 24.0
SCD1 1 1 0 2 10e-6 0
C 1 2 0 1e-4 0
R 1 2 0 40.0
FBD2 2 1 0 3 15e-6 1.7 0
C 2 3 0 1e-4 0
R 2 3 0 60.0
SCD3 3 1 0 4 12e-6 0
C 3 4 0 1e-4 0
R 3 4 0 50.0
"""


@pytest.mark.parametrize(
    "text, lone",
    [(CASCADE, [False, False]), (CHAIN, [False, False, False]),
     (PARALLEL, [True, True, True])],
    ids=["cascade", "chain", "parallel"],
)
def test_row_update_groups_are_the_coupled_rows(text, lone):
    """Cells in cascade couple their diode rows through A0^-1; stages in
    parallel on an ideal source do not, and each row is alone."""
    circuit = parse_netlist(text)
    d = 0.4
    system = assemble_system(circuit, d, TS, ccm_d_p(circuit, d))
    inverse = lu_factor(system.A)
    update = RowUpdate(system.A, inverse, lu_solve(inverse, system.B), system.diode, 1.0 - d)
    assert update._lone == lone


def test_rounding_in_the_inverse_couples_no_rows():
    """Stages in parallel on an ideal source leave A0^-1 zero between them
    in exact arithmetic: 1e-18 written at such an entry, where one diode
    row's terms meet another row's column of A0^-1, moves their product off
    zero, as rounding in the inverse can, but couples no rows."""
    circuit = parse_netlist(PARALLEL)
    d = 0.4
    system = assemble_system(circuit, d, TS, ccm_d_p(circuit, d))
    inverse = lu_factor(system.A)
    rd, cols, ra, _ = system.diode
    col = next(c for c, a in zip(cols[0].tolist(), ra[0].tolist()) if a)
    assert inverse[col, rd[1]] == 0.0
    inverse[col, rd[1]] = 1e-18
    update = RowUpdate(system.A, inverse, lu_solve(inverse, system.B), system.diode, 1.0 - d)
    assert update._raw[0][1] != 0.0
    assert update._lone == [True, True, True]


def _lone_row_solve(d_p, ra_abs, rb_abs):
    """RowUpdate.solve of PARALLEL at d = 0.5 (d_p0 = 0.5) with its first
    diode row, a lone one, moved to ``d_p``: its terms of C set so that its
    pivot c is exactly 1, and its |ra| . |w| and |rb| . |w| to ``ra_abs``
    and ``rb_abs``, so that its row scale is 1 + |alpha| ra_abs + |beta|
    rb_abs (alpha = d_p - 0.5, beta = d_p^2 - 0.25)."""
    circuit = parse_netlist(PARALLEL)
    system = assemble_system(circuit, 0.5, TS, ccm_d_p(circuit, 0.5))
    inverse = lu_factor(system.A)
    update = RowUpdate(system.A, inverse, lu_solve(inverse, system.B), system.diode, 0.5)
    assert update._lone[0]
    update._raw_ii[0] = update._rbw_ii[0] = 0.0
    update._magnitude[0] = (ra_abs, rb_abs)
    update._floor[0] = 1e-13 * (1.0 + ra_abs + rb_abs)
    x0 = lu_solve(inverse, rhs(system, zero_caps(circuit), dict.fromkeys(ccm_d_p(circuit, 0.5), 0.0)))
    q = np.concatenate((x0, update.R @ x0))
    return update.solve(q, [d_p, 0.5, 0.5], np.empty(len(x0)))


@pytest.mark.parametrize("term", ["ra", "rb"])
def test_lone_row_pivot_at_the_tolerance_raises_and_one_scale_down_passes(term):
    """A lone row's pivot rule, applied in the pass that forms its pivot: a
    pivot of 1 is singular at a row scale of 1e13, where PIVOT_RTOL times
    the scale rounds to 1 (PIVOT_RTOL written out so that a change to it
    shows), and not at the next integer scale down; the scale reaches 1e13
    through either term.  At d_p = 0 (alpha = -0.5, beta = -0.25) the scale
    1 + 0.5 ra_abs or 1 + 0.25 rb_abs is an integer S exactly."""
    assert 1e-13 * 1e13 == 1.0
    for scale, singular in ((1e13, True), (1e13 - 1.0, False)):
        terms = (2.0 * (scale - 1.0), 0.0) if term == "ra" else (0.0, 4.0 * (scale - 1.0))
        if singular:
            with pytest.raises(SingularSystem, match="row-update pivot 1.000e"):
                _lone_row_solve(0.0, *terms)
        else:
            _lone_row_solve(0.0, *terms)


@pytest.mark.parametrize("text", [CASCADE, CHAIN, PARALLEL], ids=["cascade", "chain", "parallel"])
def test_lone_row_pivot_bound_is_the_scale_at_unit_alpha_and_beta(text):
    """The bound a lone row's pivot rule tries first is PIVOT_RTOL (written
    out) times the row's scale at |alpha| = |beta| = 1, summed as the scale
    is, (1 + |ra| . |w|) + |rb| . |w|."""
    circuit = parse_netlist(text)
    system = assemble_system(circuit, 0.4, TS, ccm_d_p(circuit, 0.4))
    inverse = lu_factor(system.A)
    update = RowUpdate(system.A, inverse, lu_solve(inverse, system.B), system.diode, 0.6)
    assert update._floor == [1e-13 * (1.0 + a + b) for a, b in update._magnitude]


@pytest.mark.parametrize("d_p", [-0.9, 1.6])
def test_lone_row_pivot_bound_holds_only_for_d_p_in_zero_to_one(d_p):
    """The per-run bound a lone row's pivot rule tries first, PIVOT_RTOL (1
    + |ra| . |w| + |rb| . |w|), holds only while |alpha| and |beta| are at
    most 1: at a d_p outside [0, 1] (|alpha| 1.4 or 1.1) a pivot of 1 that
    clears the bound (0.95) is still below PIVOT_RTOL times the scale
    (1.33 or 1.045), and singular."""
    assert 1e-13 * (1.0 + 9.5e12) < 1.0
    with pytest.raises(SingularSystem, match="row-update pivot 1.000e"):
        _lone_row_solve(d_p, 9.5e12, 0.0)


# A buck, whose diode row has two real columns (its p is ground), feeding a
# flyback whose three terminals are all off ground.
MIXED = """\
VDC 1 1 0 24.0
SCD1 1 1 0 2 10e-6 0
C 1 2 0 1e-4 0
R 1 2 0 40.0
FBD2 2 2 4 3 15e-6 1.7 0
C 2 3 4 1e-4 0
R 2 3 4 60.0
R 3 4 0 1.0
"""


def test_a_pad_counts_for_nothing(monkeypatch):
    """A diode row is padded to three columns at its own rd, where ra and
    rb read 0.0.  The pad leaves A's unit diagonal, RowUpdate's tables and
    its coupling test as the row's real columns make them."""
    import avgcell.mna as mna_module

    circuit = parse_netlist(MIXED)
    d, d_p = 0.4, {"SCD1": 0.25, "FBD2": 0.5}
    system = assemble_system(circuit, d, TS, d_p)
    rd, cols, ra, rb = system.diode
    real = cols != rd[:, None]
    assert real.sum(axis=1).tolist() == [2, 3]
    for i, p in enumerate(d_p.values()):
        assert system.A[rd[i], rd[i]] == 1.0
        expected = np.zeros(len(system.A))
        expected[cols[i][real[i]]] = diode_entries(p, ra[i][real[i]], rb[i][real[i]])
        expected[rd[i]] = 1.0
        assert system.A[rd[i]].tobytes() == expected.tobytes()

    system = assemble_system(circuit, d, TS, ccm_d_p(circuit, d))
    inverse = lu_factor(system.A)
    update = RowUpdate(system.A, inverse, lu_solve(inverse, system.B), system.diode, 1.0 - d)
    tables = (update._raw, update._rbw, update._magnitude)
    assert repr(tables) == repr(_pairwise_tables(inverse, system.diode))

    # Rows in parallel, a link planted by rounding, and A0^-1 called nonzero
    # only at (rd_i, rd_j): only a pad meets it there, so no row couples.
    parallel = parse_netlist(PARALLEL)
    system = assemble_system(parallel, d, TS, ccm_d_p(parallel, d))
    inverse = lu_factor(system.A)
    rd, cols, ra, _ = system.diode
    assert (cols[0] == rd[0]).any()
    col = next(c for c, a in zip(cols[0].tolist(), ra[0].tolist()) if a)
    inverse[col, rd[1]] = 1e-18

    def pattern(A):
        at_rd = np.zeros(A.shape, dtype=bool)
        at_rd[np.ix_(rd, rd)] = True
        return at_rd

    monkeypatch.setattr(mna_module, "_inverse_pattern", pattern)
    update = RowUpdate(system.A, inverse, lu_solve(inverse, system.B), system.diode, 1.0 - d)
    assert update._raw[0][1] != 0.0
    assert update._lone == [True, True, True]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10_000))
def test_inverse_pattern_is_where_the_inverse_can_be_nonzero(seed):
    """Two random matrices with one pattern of zeros, a perfect matching
    among its entries: the inverse of each is zero, but for rounding, off
    the pattern _inverse_pattern gives, and off zero on it."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    nonzero = (rng.random((n, n)) < rng.uniform(0.1, 0.5)) | np.eye(n, dtype=bool)[rng.permutation(n)]
    pattern = _inverse_pattern(np.where(nonzero, 1.0, 0.0))
    for _ in range(2):
        a = np.where(nonzero, rng.uniform(0.5, 2.0, (n, n)) * rng.choice([-1.0, 1.0], (n, n)), 0.0)
        if abs(np.linalg.det(a)) < 1e-6 * np.abs(a).max() ** n:
            continue
        inverse = np.abs(np.linalg.inv(a))
        assert (inverse[~pattern] <= 1e-9 * inverse.max()).all()
        assert (inverse[pattern] > 0.0).all()


@st.composite
def structurally_singular(draw):
    """An n x n matrix (n <= 8) with an r x s block of zeros, r + s = n + 1,
    so that no perfect matching of its rows to its columns exists, and
    nonzero entries drawn elsewhere (most of them)."""
    n = draw(st.integers(1, 8))
    r = draw(st.integers(1, n))
    rows = draw(st.permutations(range(n)))[:r]
    cols = draw(st.permutations(range(n)))[:n + 1 - r]
    value = st.floats(0.5, 2.0).flatmap(lambda v: st.sampled_from([v, -v]))
    entry = st.one_of(value, value, value, st.just(0.0))
    A = [[draw(entry) for _ in range(n)] for _ in range(n)]
    for i in rows:
        for j in cols:
            A[i][j] = 0.0
    return A


@settings(max_examples=200, deadline=None)
@given(structurally_singular())
def test_a_structurally_singular_pattern_leaves_no_zero_of_the_inverse_sure(A):
    """With no perfect matching, _inverse_pattern can tell no entry of the
    inverse zero and calls every one nonzero."""
    assert _inverse_pattern(np.array(A)).all()


def test_a_structurally_singular_matrix_can_pass_lu_factor():
    """Rows 0 and 1 have their one entry in column 0, so no perfect matching
    exists, yet lu_factor passes: row 2 is column 0's pivot, its fill-in
    puts entries of up to 300 in rows 0 and 1, and the rounding left in
    row 0 at column 2, the last pivot (2.8e-14), clears PIVOT_RTOL times
    row 0's scale in A, 0.1.  A RowUpdate can be built on such a matrix, so
    _inverse_pattern keeps its answer for it."""
    A = np.array([[0.1, 0.0, 0.0], [0.3, 0.0, 0.0], [1.0, 0.1, 1000.0]])
    lu_factor(A)
    assert _inverse_pattern(A).all()


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000))
def test_solver_agrees_with_reference_and_meets_residual_bound(seed):
    """Cross-check the elimination against numpy's LAPACK solve and enforce
    the backward-stable residual bound on random well-conditioned systems."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    a = rng.normal(size=(n, n)) + n * np.eye(n)
    z = rng.normal(size=n)
    x = lu_solve(lu_factor(a), z)
    np.testing.assert_allclose(x, np.linalg.solve(a, z), rtol=1e-8, atol=1e-10)
    check_residual(a, x[None], z[None], a_norm(a))
