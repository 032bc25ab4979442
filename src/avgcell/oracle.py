"""Switched-circuit reference simulator.

Integrates the exact piecewise-linear network with ideal switches at a fixed
number of substeps per switching period, for verifying the averaged model.
Within every period the switch conducts over [0, d T_s) and the diode or
synchronous switch over the remainder; for diode cells the inductor-current
zero crossing is located by linear interpolation between substeps and the
current is held at zero for the rest of the period.

Every cell is the averaged model's generalized cell: in each of its three
phases, on, diode and rest (a blocked diode), it is one live inductor branch
or none (``_CellRt``), and a basic cell is a flyback whose inductor returns
to c instead of p, with n = 1.  A topology is the tuple of every cell's
phase.  The state of a cell holds its live branch's current, which
``referral`` maps to the magnetizing current.

Integration is trapezoidal with fixed step; after every topology change one
backward-Euler step restarts the companion models, since element voltages
are discontinuous at switching instants.  Ideal switches are realized by
re-stamping the interval's linear network rather than by small resistances,
so the systems stay well conditioned.  Every system, the per-topology ones
and the t = 0 operating point alike, is stamped by one routine (``_stamp``)
that writes the resistors, the current sources and the incidence of every
branch whose current is an unknown: voltage sources and live inductors, or
at t = 0 the capacitors pinned to their initial voltages.  Each caller then
adds only its own entries, and every entry goes through an element's
incidence (``_incidence``), the one place that leaves ground out.

The element state is one vector: each capacitor's ``(v, i)``, then each
cell's inductor ``(i, v)``, then a constant 1 that carries the sources.  On
a fixed topology a substep of either rule is an affine map on it.  Each
topology's network is stamped once per rule (``_stamp_network``, per phase
tuple and method) as ``x0 + x1 / h``, with the companion coefficients in
``x1``, and ``_assemble`` forms from it the map of a substep of any length,
as the solution ``x = P s`` and the next state ``s' = Phi s`` (no ``expm``,
nothing shared with the engine).  Every substep applies its topology's map:
one at a time after a topology change, at a diode zero crossing and across a
split switching substep, and in stretches between a restart and the next
switching edge.  A stretch's states are grown by doubling with cached powers
of ``Phi`` and its samples are one matrix product; the diode tests,
``_at_zero`` for the zero crossing and ``_forward_biased`` for
re-conduction, are evaluated over all of it, and the first substep where one
holds is taken on its own, which does the interpolation and the
backward-Euler restart.  Those two functions are the oracle's only
definition of each test.  The maps of grid-step topologies are cached, since
the systems are tiny and recur every period, and so are the two parts of a
switching edge that falls inside a substep, whose lengths are the same in
every period; the part-substeps at a diode crossing are formed (and
inverted) when needed.  A run's samples are one array, and every signal's
``values`` is a column view of it.  A run whose samples are not all finite
raises ``SingularSystem``.
"""

import math
import numbers
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import AvgcellError, InvalidCircuit, InvalidConfig, SingularSystem
from .netlist import _join, validate


class OutOfRange(AvgcellError):
    pass


@dataclass(frozen=True)
class OracleConfig:
    substeps_per_period: int = 1000

    def __post_init__(self):
        steps = self.substeps_per_period
        if not isinstance(steps, numbers.Integral):
            raise InvalidConfig(f"substeps_per_period {steps!r} is not an integer")
        if steps < 100:
            raise InvalidConfig("substeps_per_period must be at least 100")


@dataclass
class SampledWaveform:
    """Signal sampled on the uniform integration grid.  ``values`` is a
    column view of the run's one sample array, so holding one signal keeps
    the samples of every signal of the run alive."""

    name: str
    unit: str
    times: np.ndarray
    values: np.ndarray
    substeps_per_period: int


def period_average(sampled, n):
    """Trapezoidal average of one switching period of a sampled signal."""
    steps = sampled.substeps_per_period
    lo = n * steps
    hi = (n + 1) * steps
    if n < 0 or hi > len(sampled.times) - 1:
        raise OutOfRange(f"period {n} outside the sampled run")
    y = sampled.values[lo : hi + 1]
    return float((y.sum() - 0.5 * (y[0] + y[-1])) / steps)


def simulate_switched(circuit, config, oracle_config=None):
    """Run the switched simulation; returns {signal name: SampledWaveform}.

    Signals are the non-ground node voltages ``v(<id>)``, the voltage-source
    currents ``i(<label>)`` (positive from + to - through the source) and the
    primary-referred inductor current ``iL(<label>)`` of every cell.
    """
    if oracle_config is None:
        oracle_config = OracleConfig()
    diagnostics = validate(circuit)
    if diagnostics:
        raise InvalidCircuit(diagnostics)
    return _SwitchedSimulator(circuit, config, oracle_config).run()


# Cell phases: the switch conducts, the diode or synchronous switch
# conducts, or nothing does (a blocked diode).
_ON, _DIODE, _REST = "on", "diode", "rest"


# The two diode tests, each for floats and arrays alike.
def _at_zero(i):
    """Whether a diode current has fallen to zero, where the diode blocks."""
    return i <= 0.0


def _forward_biased(v_p, v_c):
    """Whether v_p - v_c > 1e-9 max(1, |v_p|, |v_c|): a blocked diode conducts."""
    v = v_p - v_c
    return (v > 1e-9) & (v > 1e-9 * abs(v_p)) & (v > 1e-9 * abs(v_c))


class _CellRt:
    """A switching cell (a, p, c) as the generalized cell of the averaged
    model: one live inductor branch per phase, (a, ret, L) while the switch
    conducts and (p, c, n^2 L) while the diode or synchronous switch does,
    and none at rest.  ret is p for a flyback, whose magnetizing inductance
    is referred to the secondary while the diode conducts, and c for a
    basic cell, whose n is 1: its inductor runs from whichever of a and p
    conducts to c."""

    __slots__ = ("label", "nodes", "n", "flyback", "diode", "phase", "si", "_inductor")

    def __init__(self, element, si):
        self.label, self.nodes, self.n = element.label, element.nodes, element.turns
        self.flyback, self.diode = element.is_flyback, element.is_diode
        self.phase = _ON
        self.si = si  # state index of the inductor current; its voltage follows
        a, p, c = self.nodes
        L = element.value
        ret = p if self.flyback else c
        self._inductor = {_ON: (a, ret, L), _DIODE: (p, c, self.n * self.n * L)}

    def referral(self):
        """Factor from the live branch current to the magnetizing current."""
        return self.n if self.phase == _DIODE else 1.0

    def branch(self):
        """(node_a, node_b, inductance) of the live inductor branch."""
        return self._inductor.get(self.phase)


class _Topo:
    """One substep on one topology: the solution is ``x = P s`` and the
    next state ``s' = Phi s``.  ``P`` has a trailing zero row, so that
    ground (column -1) reads 0.

    For stretches, states are rows, the powers of ``Phi`` are grown as needed,
    and the first stretch sets ``plan = (sample_T, monitored, k)``: ``s @
    sample_T`` is the sample row after the substep, then v_p and then v_c of
    the k blocked basic diodes; ``monitored`` are conducting diode currents."""

    def __init__(self, P, Phi):
        self.P = P
        self.Phi = Phi
        self.plan = None
        self._powers = [Phi.T]  # Phi^(2^j), transposed, j = 0, 1, ...

    def propagate(self, s0, count):
        """States s_0 .. s_count, one per row, from s_0 by doubling."""
        S = np.empty((count + 1, len(s0)))
        S[0] = s0
        done, j = 1, 0
        while done <= count:
            if j == len(self._powers):
                self._powers.append(self._powers[-1] @ self._powers[-1])
            take = min(done, count + 1 - done)
            np.dot(S[:take], self._powers[j], out=S[done : done + take])
            done += take
            j += 1
        return S


class _SwitchedSimulator:
    def __init__(self, circuit, config, oracle_config):
        self.config = config
        self.substeps = oracle_config.substeps_per_period
        self.h = config.T_s / self.substeps

        self.node_ids = sorted(circuit.node_ids - {0})
        self.caps = circuit.capacitors()
        first = 2 * len(self.caps)
        self.cells = [
            _CellRt(e, first + 2 * k) for k, e in enumerate(circuit.cells())
        ]
        # Ground reads column -1: P's trailing zero row, and no entry of A.
        self.node_col = {0: -1, **{n: i for i, n in enumerate(self.node_ids)}}
        self.n_nodes = len(self.node_ids)

        self.vdcs = circuit.vdcs()
        self.idcs = circuit.idcs()
        self.resistors = circuit.resistors()
        # Voltage sources are stamped first, so their branch columns are
        # the same in every topology.
        self.sample_cols = [self.node_col[n] for n in self.node_ids]
        self.sample_cols += [self.n_nodes + k for k in range(len(self.vdcs))]
        # Every signal's (name, unit), in the order of a sample row: the
        # sample columns', then each cell's inductor current.
        self.signals = [(f"v({n})", "V") for n in self.node_ids]
        self.signals += [(f"i({e.label})", "A") for e in self.vdcs]
        self.signals += [(f"iL({c.label})", "A") for c in self.cells]

        self.s = np.array(
            [x for e in self.caps for x in (e.initial, 0.0)]
            + [x for e in circuit.cells() for x in (e.initial, 0.0)]
            + [1.0]
        )
        self._networks = {}  # (phase tuple, method): (x0, x1, {h: _Topo})
        self._cached_steps = {self.h}

    def _assemble(self, h, method):
        """The map of one substep of length ``h`` on the present topology,
        from its network (``_stamp_network``, once per phase tuple and
        method); cached when ``h`` is the grid step or a part of the split
        switching substep, which recur every period."""
        key = (tuple(c.phase for c in self.cells), method)
        if key not in self._networks:
            self._networks[key] = (*self._stamp_network(method), {})
        x0, x1, topos = self._networks[key]
        if h in topos:
            return topos[h]
        W = x0 + x1 / h
        n = len(W) - len(self.s)  # the order of A
        A, B, E, F = W[:n, :n], W[:n, n + 1 :], W[n:, : n + 1], W[n:, n + 1 :]
        try:
            Ainv = np.linalg.inv(A)
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(f"switched network is singular: {exc}") from exc
        P = np.zeros((n + 1, len(self.s)))  # the trailing zero row is ground
        np.matmul(Ainv, B, out=P[:-1])
        topo = _Topo(P, E @ P + F)
        if h in self._cached_steps:
            topos[h] = topo
        return topo

    def _stamp_network(self, method):
        """The present topology's network for ``method``: ``(x0, x1)``, where
        a substep of length h has ``[[A, 0, B], [E, F]] = x0 + x1 / h`` (E
        keeps its ground column).  ``x1`` holds the terms in factor C and
        factor L, ``x0`` the resistors, sources, incidences and history
        terms."""
        branches = [(*e.nodes, e.value) for e in self.vdcs]
        inductors = []
        for cell in self.cells:
            br = cell.branch()
            if br is not None:
                inductors.append((cell, self.n_nodes + len(branches), br[2]))
                branches.append((br[0], br[1], 0.0))
        order, one = self.n_nodes + len(branches), len(self.s) - 1
        bf = order + 1  # the first column of B and of F
        x0 = np.zeros((order + one + 1, bf + one + 1))
        x0[:order, :order], x0[:order, -1] = self._stamp(branches, [])
        x0[-1, -1] = 1.0
        x1 = np.zeros_like(x0)

        # Companion model of each capacitor (v, i) and live inductor (i, v):
        # for the state pair (a, b) with companion coefficient w, a' is read
        # from the solution through the element's incidence and the new b
        # is w a' - (w a + hist b).  The bracket is a source on the same
        # incidence, with sign sigma: a Norton source into a capacitor's
        # node rows, a Thevenin one in an inductor's branch row.  So z = B s
        # and s' = E x + F s; backward Euler drops the history terms.  Here
        # w is factor C or factor L, since x1 is divided by h.
        factor, hist = (2.0, 1.0) if method == "tr" else (1.0, 0.0)
        elements = []
        for k, e in enumerate(self.caps):
            w, rows = factor * e.value, self._incidence(e.nodes)
            for (r, sr), (q, sq) in product(rows, rows):
                x1[r, q] += sr * sq * w
            elements.append((2 * k, w, 1.0, rows))
        for cell, col, L in inductors:
            x1[col, col] = -factor * L
            elements.append((cell.si, factor * L, -1.0, ((col, 1.0),)))
        for a, w, sigma, rows in elements:
            for r, sign in rows:
                x1[r, bf + a] += sigma * sign * w
                x0[r, bf + a + 1] += sigma * sign * hist
                x0[order + a, r] += sign
                x1[order + a + 1, r] += sign * w
            x1[order + a + 1, bf + a] = -w
            x0[order + a + 1, bf + a + 1] = -hist
        return x0, x1

    def _incidence(self, nodes):
        """(column, sign) of each non-ground terminal of an element on
        ``nodes`` = (a, b): +1 for a, -1 for b.  The oracle's one ground
        test, through which every element is written."""
        cols = (self.node_col[nodes[0]], self.node_col[nodes[1]])
        return [(col, sign) for col, sign in zip(cols, (1.0, -1.0)) if col >= 0]

    def _step(self, h, method):
        """One substep from the present state: (solution, next state)."""
        topo = self._assemble(h, method)
        return topo.P @ self.s, topo.Phi @ self.s

    def _stretch(self, out):
        """Advance up to ``len(out)`` trapezoidal grid substeps on the
        present topology, writing their sample rows into ``out``.

        Returns how many substeps were taken; fewer than ``len(out)`` means
        the next substep has an event for ``_advance`` and
        ``_reconduct_check`` to handle."""
        topo = self._assemble(self.h, "tr")
        if topo.plan is None:
            rest = self._blocked_basic_diodes()
            rows = [topo.P[col] for col in self.sample_cols]
            rows += [c.referral() * topo.Phi[c.si] for c in self.cells]
            rows += [topo.P[self.node_col[c.nodes[k]]] for k in (1, 2) for c in rest]
            monitored = [c.si for c in self._conducting_diodes()]
            topo.plan = (np.array(rows).T.copy(), monitored, len(rest))
        sample_T, monitored, k = topo.plan
        count = len(out)
        S = topo.propagate(self.s, count)
        if not monitored and not k:
            np.matmul(S[:count], sample_T, out=out)
            self.s = S[count]
            return count
        Y = S[:count] @ sample_T

        # The predicates of _advance and _reconduct_check, over the stretch.
        hits = np.zeros(count, dtype=bool)
        if monitored:
            zero = _at_zero(S[:, monitored])
            hits |= (zero[1:] & ~zero[:-1]).any(axis=1)
        if k:
            hits |= _forward_biased(Y[:, -2 * k : -k], Y[:, -k:]).any(axis=1)
        taken = int(np.argmax(hits)) if hits.any() else count

        out[:taken] = Y[:taken, : out.shape[1]]
        self.s = S[taken]
        return taken

    def _conducting_diodes(self):
        return [c for c in self.cells if c.diode and c.phase == _DIODE]

    def _blocked_basic_diodes(self):
        return [
            c for c in self.cells if c.diode and not c.flyback and c.phase == _REST
        ]

    def _advance(self, h, method):
        """One step with diode zero-crossing detection and hold-at-zero.

        Returns (solution, topology_changed)."""
        x, s = self._step(h, method)
        # Each crossing diode, at its interpolated fraction of the substep.
        crossings = [
            (cell, self.s[cell.si] / (self.s[cell.si] - s[cell.si]))
            for cell in self._conducting_diodes()
            if _at_zero(s[cell.si]) and not _at_zero(self.s[cell.si])
        ]
        if not crossings:
            self.s = s
            return x, False

        # Integrate up to the first crossing, block its diode, then finish
        # the substep on the new topology.
        cell, theta = min(crossings, key=lambda crossing: crossing[1])
        if theta > 1e-9:
            x, self.s = self._step(theta * h, "be")
        self._block(cell)
        remainder = (1.0 - theta) * h
        if remainder > 1e-12 * h:
            x, self.s = self._step(remainder, "be")
        for other in self._conducting_diodes():
            if _at_zero(self.s[other.si]):
                self._block(other)
        return x, True

    def _block(self, cell):
        cell.phase = _REST
        self.s[cell.si : cell.si + 2] = 0.0

    def _reconduct_check(self, x):
        """A blocked diode with forward bias starts conducting again."""
        changed = False
        for cell in self._blocked_basic_diodes():
            v_p, v_c = (float(x[self.node_col[n]]) for n in cell.nodes[1:])
            if _forward_biased(v_p, v_c):
                cell.phase = _DIODE
                changed = True
        return changed

    def _switch_on(self):
        for cell in self.cells:
            self.s[cell.si] *= cell.referral()
            cell.phase = _ON
            self.s[cell.si + 1] = 0.0

    def _switch_off(self):
        for cell in self.cells:
            if cell.diode and _at_zero(self.s[cell.si]):
                self._block(cell)
            else:
                self.s[cell.si] /= cell.n
                cell.phase = _DIODE
            self.s[cell.si + 1] = 0.0

    def _stamp(self, branches, sources):
        """The network part of every system: resistor conductances, current
        sources, and one current unknown per branch.

        ``branches`` are (node_a, node_b, value): branch k's current, from
        a to b, is unknown ``n_nodes + k``, and its row holds
        v_a - v_b = value (``_stamp_network`` adds an inductor's companion
        resistance to that row).  ``sources`` are (node_a, node_b, current)
        injections from a to b, stamped after the circuit's current
        sources.  Returns (A, z)."""
        order = self.n_nodes + len(branches)
        A = np.zeros((order, order))
        z = np.zeros(order)
        for e in self.resistors:
            rows = self._incidence(e.nodes)
            for (r, sr), (q, sq) in product(rows, rows):
                A[r, q] += sr * sq / e.value
        for a, b, current in [(*e.nodes, e.value) for e in self.idcs] + sources:
            for r, sign in self._incidence((a, b)):
                z[r] -= sign * current
        for k, (a, b, value) in enumerate(branches):
            col = self.n_nodes + k
            z[col] = value
            for r, sign in self._incidence((a, b)):
                A[r, col] += sign
                A[col, r] += sign
        return A, z

    def _operating_point(self):
        """Solution at t = 0: capacitors pinned to their initial voltages,
        cell inductors replaced by their initial currents.  A capacitor on
        nodes that the voltage sources and the capacitors pinned before it
        tie already (across a source, or beside another) is left unpinned."""
        parts = {}
        for e in self.vdcs:
            _join(parts, *e.nodes)
        branches = [(*e.nodes, e.value) for e in self.vdcs]
        branches += [(*e.nodes, self.s[2 * k]) for k, e in enumerate(self.caps)
                     if _join(parts, *e.nodes)]
        sources = [(*c.branch()[:2], self.s[c.si]) for c in self.cells if c.branch()]
        A, z = self._stamp(branches, sources)
        try:
            return np.linalg.solve(A, z) + 0.0  # -0.0 becomes 0.0
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(f"initial operating point is singular: {exc}") from exc

    def run(self):
        config = self.config
        steps = self.substeps
        n_periods = config.n_periods
        h = self.h
        p_sw = config.d * steps
        if abs(p_sw - round(p_sw)) < 1e-9:
            p_sw = int(round(p_sw))
        # Substep where the switch turns off (or the split substep when the
        # edge falls inside one): trapezoidal stretches end there or at the
        # end of the period.
        off = math.floor(p_sw)
        split = ((p_sw - off) * h, (off + 1 - p_sw) * h)
        if off != p_sw:
            self._cached_steps.update(split)

        n_samples = n_periods * steps + 1
        try:
            out = np.empty((n_samples, len(self.signals)))
        except (ValueError, MemoryError) as exc:
            raise InvalidConfig(f"cannot hold {n_periods} periods: {exc}") from None

        self._switch_on()
        out[0] = self._sample_row(self._operating_point())

        restart = True
        for n in range(n_periods):
            row = n * steps + 1
            j = 0
            while j < steps:
                if j == 0 and n > 0:
                    self._switch_on()
                    restart = True
                if j == p_sw:
                    self._switch_off()
                    restart = True
                if j < p_sw < j + 1:
                    self._advance(split[0], "be")
                    self._switch_off()
                    x, _ = self._advance(split[1], "be")
                    restart = True
                elif restart:
                    x, restart = self._advance(h, "be")
                else:
                    end = off if j < off else steps
                    j += self._stretch(out[row + j : row + end])
                    if j == end:
                        continue
                    x, restart = self._advance(h, "tr")
                if self._reconduct_check(x):
                    restart = True
                out[row + j] = self._sample_row(x)
                j += 1

        if not np.isfinite(out).all():
            k, col = np.argwhere(~np.isfinite(out))[0]
            raise SingularSystem(
                f"switched network gives a non-finite {self.signals[col][0]} "
                f"at substep {k}"
            )
        times = np.arange(n_samples) * h
        return {name: SampledWaveform(name, unit, times, out[:, k], steps)
                for k, (name, unit) in enumerate(self.signals)}

    def _sample_row(self, x):
        row = [float(x[col]) for col in self.sample_cols]
        row += [c.referral() * float(self.s[c.si]) for c in self.cells]
        return row
