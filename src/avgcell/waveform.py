"""Instantaneous waveform reconstruction from a run's averaged periods.

Inductor currents are piecewise linear inside each period: the breakpoints
(0, iL0), (d T_s, iL1), (T_s, iL2) in continuous conduction gain an extra
zero at (d + d_p) T_s in discontinuous conduction, after which the current
rests at zero.

For a capacitor sitting directly across a basic cell's common and passive
terminals (the buck-type output stage) the voltage ripple follows from
integrating the inductor current ripple.  With tau = t / T_s and the
symmetric ripple amplitude di_L (:func:`_ripple`, the mean of the rising
and falling half-amplitudes) the in-period deviation is

    (di_L / (f_s C)) (tau^2 / d - tau)                 0 <= tau <= d
    (di_L / (f_s C)) (tau - d)(1 - tau) / (1 - d)      d <= tau <= 1

about the period-start voltage

    v_C(0) = v_avg + (2 d - 1) di_L / (6 f_s C)

The per-period start voltages are anchored at the period boundaries and
linearly interpolated, so the reconstruction is continuous everywhere and
its period mean reproduces the averaged value exactly in steady state.
Periods in discontinuous conduction, and capacitors in any other topology,
fall back to the interpolated averaged trace without ripple.

A :class:`Waveform` keeps its segments as arrays, which the builders fill
from the result's columns, period k over [t_start[k], t_start[k] + T_s],
with the same floating-point operations per element as the formulas
above.  ``Waveform.values`` is the one evaluator, behind ``value(t)`` and
the CLI's ``instantaneous.csv``; :func:`stats` integrates only the
segments that reach into its window.  A waveform whose segments are not
all finite raises :class:`NonFinite` when it is built.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import AvgcellError


class UnknownLabel(AvgcellError):
    pass


class TopologyNotSupported(AvgcellError):
    """No ripple model exists for this capacitor placement."""


class EmptyWindow(AvgcellError):
    pass


class NonFinite(AvgcellError):
    """A reconstructed waveform has a value that is not finite."""


@dataclass(frozen=True)
class Segment:
    """Polynomial piece c0 + c1 s + c2 s^2 over local time s = t - t0."""

    t0: float
    t1: float
    c0: float
    c1: float = 0.0
    c2: float = 0.0


class Waveform:
    """Contiguous piecewise-polynomial time series.

    Segment k is c0[k] + c1[k] s + c2[k] s^2 over s = t - t0[k], for
    t0[k] <= t <= t1[k]; ``arrays`` holds the five arrays ``t0``, ``t1``,
    ``c0``, ``c1`` and ``c2``, and ``segments`` lists them as
    :class:`Segment` objects.
    """

    def __init__(self, name, unit, arrays):
        self.name = name
        self.unit = unit
        self.arrays = tuple(np.asarray(a, dtype=float) for a in arrays)
        if not all(np.isfinite(a).all() for a in self.arrays):
            raise NonFinite(f"reconstructed {name} is not finite")
        self.t0, self.t1, self.c0, self.c1, self.c2 = self.arrays

    @property
    def segments(self):
        return list(map(Segment, *(a.tolist() for a in self.arrays)))

    @property
    def span(self):
        return self.t0[0].item(), self.t1[-1].item()

    def values(self, times):
        """The waveform at every time; a time outside the span reads the
        polynomial of the nearest segment."""
        # The last segment starting at or before each time, or the first.
        i = np.maximum(np.searchsorted(self.t0, times, "right") - 1, 0)
        s = times - self.t0[i]
        return self.c0[i] + self.c1[i] * s + self.c2[i] * s * s

    def value(self, t):
        return float(self.values(t))

    def breakpoints(self):
        return np.append(self.t0, self.t1[-1])


@dataclass(frozen=True)
class SignalStats:
    mean: float
    min: float
    max: float
    rms: float


def inductor_waveform(result, cell_label):
    """Piecewise-linear inductor current of one cell over the whole run."""
    if cell_label not in result.layout.cell_rows:
        raise UnknownLabel(f"no cell {cell_label!r} in circuit")
    i = result.layout.state_col[cell_label] - result.layout.n_caps
    d, T_s = result.config.d, result.config.T_s
    t0 = result.t_start
    t_mid = t0 + d * T_s
    t_end = t0 + T_s
    # d + d_p is exactly 1.0 in CCM, so there the current's zero is t_end.
    t_zero = t0 + (d + result.d_p[:, i]) * T_s
    iL1 = result.iL1[:, i]
    zero = np.zeros_like(iL1)
    # Per period: to d T_s, on to the stored end current at t_zero (0.0 in
    # DCM), and the DCM rest at zero; empty pieces drop.
    ta, tb, ya, yb = _pieces(
        [
            (t0, t_mid, result.iL0[:, i], iL1),
            (t_mid, t_zero, iL1, result.iL2[:, i]),
            (t_zero, t_end, zero, zero),
        ],
        [t_mid > t0, t_zero > t_mid, t_end > t_zero],
    )
    arrays = (ta, tb, ya, (yb - ya) / (tb - ta), np.zeros_like(ta))
    return Waveform(f"iL({cell_label})", "A", arrays)


def _ripple(iL0, iL1, iL2):
    """The symmetric ripple amplitude dIL of periods with boundary currents
    iL0, iL1 and iL2, floats or arrays with one entry per period: the mean
    of the rising and falling half-amplitudes."""
    dIL1 = (iL1 - iL0) / 2.0
    dIL2 = (iL1 - iL2) / 2.0
    return (dIL1 + dIL2) / 2.0


def capacitor_waveform(result, cap_label):
    """Capacitor voltage with ripple superimposed on the averaged trace.

    Requires the buck-type output placement: the capacitor directly across
    a basic cell's common and passive terminals, so the capacitor current
    ripple equals the inductor current ripple.  Other placements raise
    :class:`TopologyNotSupported`; use :func:`capacitor_average_waveform`
    for the ripple-free reconstruction.
    """
    return _build_capacitor_waveform(result, cap_label, True)


def capacitor_average_waveform(result, cap_label):
    """Capacitor voltage as the interpolated averaged trace, no ripple."""
    return _build_capacitor_waveform(result, cap_label, False)


def _build_capacitor_waveform(result, cap_label, with_ripple):
    """A capacitor's voltage, with the ripple of the cell whose output it
    is in that cell's continuous-conduction periods if ``with_ripple``."""
    k = result.layout.state_col.get(cap_label)
    if k is None or k >= result.layout.n_caps:
        raise UnknownLabel(f"no capacitor {cap_label!r} in circuit")
    cap = result.circuit.element(cap_label)
    d, f_s, T_s = result.config.d, result.config.f_s, result.config.T_s
    C = cap.value
    # The waveform is v(n1) - v(n2) with ground last, so a capacitor
    # written ground-first reports its node's voltage, not its negation.
    nodes = cap.nodes[::-1] if cap.nodes[0] == 0 else cap.nodes
    v_avg = result.v_cap[:, k] if nodes == cap.nodes else -result.v_cap[:, k]
    n = len(v_avg)
    ripple = np.zeros(n, dtype=bool)
    dIL = np.zeros(n)
    if with_ripple:
        i, sign = _output_cell_for(result.circuit, nodes)
        if i is None:
            raise TopologyNotSupported(
                f"capacitor {cap_label!r} is not across a basic cell's "
                "common and passive terminals"
            )
        ripple = ~result.dcm[:, i]
        dIL = sign * _ripple(result.iL0[:, i], result.iL1[:, i], result.iL2[:, i])
    a0 = np.where(ripple, v_avg + (2.0 * d - 1.0) * dIL / (6.0 * f_s * C), v_avg)
    slope = (np.append(a0[1:], a0[-1]) - a0) / T_s
    kr = np.where(ripple, dIL / (f_s * C), 0.0)
    t0 = result.t_start
    t_mid = t0 + d * T_s
    t_end = t0 + T_s
    # Per period the rising piece (the whole period without ripple), then
    # the falling piece of a ripple period.
    t_rise = np.where(ripple, t_mid, t_end)
    pieces = [(t0, t_rise, a0, slope - kr / T_s, kr / (d * T_s * T_s))]
    keep = [np.ones(n, dtype=bool)]
    if T_s - d * T_s > 0.0:
        c2 = -kr / (T_s * T_s * (1.0 - d))
        pieces.append((t_mid, t_end, a0 + slope * d * T_s, slope + kr / T_s, c2))
        keep.append(ripple)
    name = f"v({nodes[0]})" if nodes[1] == 0 else f"v({nodes[0]},{nodes[1]})"
    return Waveform(name, "V", _pieces(pieces, keep))


def _pieces(pieces, keep):
    """Segment arrays, period by period, of every piece (a tuple of
    per-period arrays) where its per-period ``keep`` flag is set."""
    mask = np.stack(keep, axis=1)
    return [np.stack(field, axis=1)[mask] for field in zip(*pieces)]


def stats(waveform, t_from, t_to):
    """Exact mean, min, max and RMS of a waveform over a window.

    Means come from polynomial integration per segment; extremes from the
    segment endpoints and interior critical points of the quadratics.  The
    window's segments are one array pass, with the same operations per
    segment as a loop over them and the same order of summation.
    """
    lo, hi = waveform.span
    if not (t_from < t_to) or t_to <= lo or t_from >= hi:
        raise EmptyWindow(f"window [{t_from}, {t_to}] outside waveform span")
    t_from = max(t_from, lo)
    t_to = min(t_to, hi)

    # Only the segments from the first to end after t_from up to the last
    # to start before t_to reach into the window; each is integrated over
    # local times [a, b], and one that covers none of the window drops.
    first = int(np.searchsorted(waveform.t1, t_from, "right"))
    last = int(np.searchsorted(waveform.t0, t_to, "left"))
    t0, t1, c0, c1, c2 = (x[first:last] for x in waveform.arrays)
    a = np.where(t_from > t0, t_from, t0) - t0
    b = np.where(t_to < t1, t_to, t1) - t0
    keep = ~(b <= a)
    a, b, c0, c1, c2 = (x[keep] for x in (a, b, c0, c1, c2))

    # Python floats overflow to inf and NaN without a warning; so do these.
    with np.errstate(all="ignore"):
        # Candidate extremes, segment by segment: both ends, then an
        # interior critical point of the quadratic (NaN where it has none).
        s_star = -c1 / (2.0 * c2)
        s_star[~((c2 != 0.0) & (a < s_star) & (s_star < b))] = np.nan
        s = np.stack((a, b, s_star), axis=1)
        v = c0[:, None] + c1[:, None] * s + c2[:, None] * s * s
    # min and max keep the first of equal candidates, as a running min and
    # max do; this fixes the sign of a zero extreme.
    v = v[~np.isnan(v)].tolist()
    v_min = min(v, default=math.inf)
    v_max = max(v, default=-math.inf)

    # Both integrals are taken in units of 2**t_exp seconds and 2**v_exp of
    # the signal, chosen from the segments' lengths and the extremes, so
    # that neither the squares nor the powers of time underflow or
    # overflow.  Scaling by a power of two is exact, so where unscaled
    # units stay in range the mean and the root are theirs bit for bit.
    t_exp = math.frexp(float(np.max(b, initial=0.0)))[1]
    v_exp = math.frexp(max(abs(v_min), abs(v_max)))[1]  # 0 if not finite
    c0, c1, c2 = (np.ldexp(c, k * t_exp - v_exp) for k, c in enumerate((c0, c1, c2)))
    a, b = np.ldexp(a, -t_exp), np.ldexp(b, -t_exp)
    width = math.ldexp(t_to - t_from, -t_exp)
    with np.errstate(all="ignore"):
        # Both integrals of every segment, summed one after another in time
        # order from 0.0.
        squares = (c0 * c0, 2 * c0 * c1, c1 * c1 + 2 * c0 * c2, 2 * c1 * c2, c2 * c2)
        sums = np.zeros((2, len(a) + 1))
        sums[:, 1:] = _poly_integral((c0, c1, c2), a, b), _poly_integral(squares, a, b)
        total, total_sq = np.cumsum(sums, axis=1)[:, -1].tolist()
    mean = math.ldexp(total / width, v_exp)
    rms = math.ldexp(math.sqrt(max(total_sq / width, 0.0)), v_exp)
    return SignalStats(mean, v_min, v_max, rms)


def _poly_integral(coeffs, a, b):
    """The integral over [a, b] of sum_k coeffs[k] s^k, per element of the
    arrays ``a`` and ``b``."""
    acc = 0.0
    pa, pb = a, b
    for k, c in enumerate(coeffs):
        acc = acc + c * (pb - pa) / (k + 1)
        pa = pa * a
        pb = pb * b
    return acc


def _output_cell_for(circuit, nodes):
    """(index, sign) of the basic cell whose common and passive terminals
    the capacitor voltage v(n1) - v(n2) of ``nodes`` = (n1, n2) spans, or
    (None, None).  The inductor current's ripple flows into c, so sign is
    1.0 for (c, p) and -1.0 for (p, c)."""
    for i, e in enumerate(circuit.cells()):
        _, p, c = e.nodes
        if not e.is_flyback and set(nodes) == {p, c}:
            return i, 1.0 if tuple(nodes) == (c, p) else -1.0
    return None, None
