"""Averaged constitutive model of the three-terminal switching cell.

A cell lumps the controlled switch, the diode (or second switch) and the
inductor of a PWM converter behind three terminals: active (a), passive (p)
and common (c).  Within one switching period of length T_s the inductor sees
a constant voltage vL1 while the switch conducts (duty d) and vL2 while the
diode conducts (duty d_p), so the current is piecewise linear:

    iL1 = iL0 + (vL1 / L) d T_s
    iL2 = iL1 + (vL2 / L) d_p T_s

with period averages

    iS_avg = d iL0 + (vL1 / 2L) d^2 T_s
    iD_avg = d_p iL0 + (vL1 / L) d_p d T_s + (vL2 / 2L) d_p^2 T_s
    vL_avg = d vL1 + d_p vL2

In continuous conduction d_p = 1 - d.  A diode cell enters discontinuous
conduction when d + d2 < 1, where d2 = -(vL1 / vL2) d is the duty at which
a zero-starting current returns to zero; the current then rests at zero for
the remainder of the period.  Flyback cells carry a transformer: the
magnetizing inductance takes the place of L, the secondary current is the
magnetizing current reflected by 1/n, and the drive voltages become
vL1 = v_a - v_p and vL2 = -(v_c - v_p) / n.  :func:`drive_voltages` forms
them from the port voltages; the engine reads them off the solution
through the output rows of :mod:`avgcell.mna`, which stamp the same terms.

A cell is its netlist :class:`avgcell.netlist.Element`: ``value`` is L and
``turns`` is n, 1 for a basic cell.

The engine's zero-current rules, :func:`keeps_ccm`, :func:`snaps_to_zero`
and :func:`diode_clamps`, are written once here for floats and arrays alike,
and the mode rules :func:`compute_d2` and :func:`resolve_mode` for floats.
A stepped period applies them all through :func:`predict_modes` and
:func:`end_currents`, each one pass over every cell's values as lists,
with the rules written out inline so that a cell costs no function call;
the functions of single values are their reference, off the hot path.
"""

import math
from dataclasses import dataclass
from enum import Enum

from .errors import AvgcellError

DUTY_TOL = 1e-12
# An inductor current within this fraction of max(1, |reference|) of zero
# counts as zero.
CURRENT_RTOL = 1e-12


class Mode(Enum):
    CCM = "CCM"
    DCM = "DCM"


class DegenerateDuty(AvgcellError):
    """Both conduction intervals vanish; end current is undefined."""


@dataclass
class CellState:
    """Per-period cell solution: boundary currents, conduction mode and
    the averaged device currents."""

    iL0: float
    iL1: float
    iL2: float
    mode: Mode
    d_p: float
    vL1: float
    vL2: float
    iS_avg: float
    iD_avg: float
    vL_avg: float


def keeps_ccm(iL0):
    """Whether a diode cell starting its period at ``iL0`` stays in CCM."""
    # Whatever d2: the current must reach zero before the cell can rest.
    # For a finite iL0 this is iL0 > CURRENT_RTOL max(1, |iL0|).
    return iL0 > CURRENT_RTOL


def snaps_to_zero(iL1, iL2):
    """Whether the end current ``iL2`` of a period is zero."""
    # |iL2| < CURRENT_RTOL max(1, |iL1|), with | so that floats stay floats.
    return (abs(iL2) < CURRENT_RTOL) | (abs(iL2) < CURRENT_RTOL * abs(iL1))


def diode_clamps(iL2):
    """Whether a diode cell's end current is below zero, where it blocks."""
    return iL2 < 0.0


def drive_voltages(ports, cell):
    """Inductor voltage during the switch interval and the diode interval,
    from the port voltages ``(v_a, v_p, v_c)``: the terms of the cell's
    stamp in avgcell.mna, each summed from 0.0, so a -0.0 reads +0.0."""
    v_a, v_p, v_c = ports
    if cell.is_flyback:
        inv = 1.0 / cell.turns
        return 0.0 + v_a - v_p, 0.0 + inv * v_p - inv * v_c
    return 0.0 + v_a - v_c, 0.0 + v_p - v_c


def compute_d2(vL1, vL2, d):
    """Diode-conduction duty that returns a zero-starting current to zero.

    Returns +inf when vL2 >= 0: the current never decays, so continuous
    conduction is forced.
    """
    if vL2 >= 0.0:
        return math.inf
    return -(vL1 / vL2) * d


def resolve_mode(d, d2):
    """Classify a diode cell's period and return (mode, d_p).

    The cell is continuous when d + d2 >= 1 (boundary counts as CCM),
    discontinuous otherwise with d_p = d2.  A synchronous cell is always
    continuous with d_p = 1 - d.
    """
    if d + d2 >= 1.0:
        return Mode.CCM, 1.0 - d
    # Negative d2 means the current never rises; the diode idles.  This is
    # max(d2, 0.0) for every float, NaN and -0.0 included.
    return Mode.DCM, 0.0 if d2 < 0.0 else d2


def predict_modes(d, iL0s, vL1s, vL2s, diode):
    """Every cell's DCM flag and d_p for a period that starts from the
    currents ``iL0s``, predicted from the drive voltages ``vL1s`` and
    ``vL2s``; ``diode`` flags the diode cells.  Returns (dcm, d_ps) as lists
    and sets ``iL0s[i]`` to zero for every cell predicted in DCM.

    A cell is in CCM at 1 - d if it is synchronous or ``keeps_ccm``;
    otherwise ``resolve_mode(d, compute_d2(vL1, vL2, d))`` decides.
    """
    rtol, n = CURRENT_RTOL, len(iL0s)
    dcm, d_ps = [False] * n, [1.0 - d] * n
    for i, iL0 in enumerate(iL0s):
        if not iL0 > rtol and diode[i]:  # not keeps_ccm(iL0)
            vL2 = vL2s[i]
            d2 = math.inf if vL2 >= 0.0 else -(vL1s[i] / vL2) * d  # compute_d2
            if not d + d2 >= 1.0:  # resolve_mode: DCM
                dcm[i], d_ps[i], iL0s[i] = True, 0.0 if d2 < 0.0 else d2, 0.0
    return dcm, d_ps


def end_currents(iL0s, vL1s, vL2s, d_ps, dcm, k1s, ks, diode):
    """Every cell's end current iL2 = iL1 + (d_p k) vL2 of a period, as a
    list, with iL1 = iL0 + k1 vL1 (k = T_s / L, k1 = d k): exactly zero for
    a cell that rests (``dcm``), whose end current ``snaps_to_zero`` or
    that is a diode cell (``diode``) that ``diode_clamps``."""
    rtol = CURRENT_RTOL
    iL2s = [0.0] * len(iL0s)
    for i, rests in enumerate(dcm):
        if not rests:
            iL1 = iL0s[i] + k1s[i] * vL1s[i]
            iL2 = iL1 + (d_ps[i] * ks[i]) * vL2s[i]
            # snaps_to_zero(iL1, iL2), or diode_clamps(iL2) for a diode
            if not (abs(iL2) < rtol or abs(iL2) < rtol * abs(iL1) or diode[i] and iL2 < 0.0):
                iL2s[i] = iL2
    return iL2s


def avg_switch_current(iL0, vL1, d, cell, T_s):
    """Period-average switch current (primary-side average for flyback)."""
    return d * iL0 + (vL1 / (2.0 * cell.value)) * d * d * T_s


def avg_diode_current(iL0, vL1, vL2, d, d_p, cell, T_s):
    """Period-average diode current; reflected by 1/n for flyback cells."""
    raw = (
        d_p * iL0
        + (vL1 / cell.value) * d_p * d * T_s
        + (vL2 / (2.0 * cell.value)) * d_p * d_p * T_s
    )
    return raw / cell.turns


def advance_inductor(iL0, vL1, vL2, d, d_p, cell, T_s):
    """Boundary currents iL1 = iL0 + (d T_s / L) vL1 and
    iL2 = iL1 + (d_p T_s / L) vL2 from the solved drive voltages; an end
    current that :func:`snaps_to_zero` is exactly zero, the DCM rest level."""
    k = T_s / cell.value
    iL1 = iL0 + d * k * vL1
    iL2 = iL1 + d_p * k * vL2
    if snaps_to_zero(iL1, iL2):
        iL2 = 0.0
    return iL1, iL2


def end_current_from_averages(iS_avg, iD_avg, iL0, d, d_p):
    """Recover the end-of-period current from the averaged device currents.

    For flyback cells pass the secondary average multiplied back by n.
    General case:  iL2 = 2 iD_avg / d_p - 2 iS_avg / d + iL0.
    When one interval is absent the corresponding term drops and the other
    average alone determines the end current.
    """
    if d < DUTY_TOL and d_p < DUTY_TOL:
        raise DegenerateDuty("both conduction intervals vanish")
    if d_p < DUTY_TOL:
        # No diode interval: the period ends where the switch interval ends.
        return 2.0 * iS_avg / d - iL0
    if d < DUTY_TOL:
        return 2.0 * iD_avg / d_p - iL0
    return 2.0 * iD_avg / d_p - 2.0 * iS_avg / d + iL0


def avg_inductor_voltage(vL1, vL2, d, d_p):
    """Period-average inductor voltage d vL1 + d_p vL2."""
    return d * vL1 + d_p * vL2


def avg_inductor_current(state, d):
    """Period-average inductor current of a solved cell state, or of every
    row of equal-shape arrays ``iL0``, ``iL1``, ``iL2`` and ``d_p``."""
    return (
        d * (state.iL0 + state.iL1) / 2.0
        + state.d_p * (state.iL1 + state.iL2) / 2.0
    )
