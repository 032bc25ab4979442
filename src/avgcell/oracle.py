"""Switched-circuit reference simulator.

Integrates the exact piecewise-linear network with ideal switches at a fixed
number of substeps per switching period, for verifying the averaged model.
Each cell expands into its physical parts: a controlled switch, a diode or
second switch, and the (magnetizing) inductance.  Within every period the
switch conducts over [0, d T_s) and the diode or synchronous switch over the
remainder; for diode cells the inductor-current zero crossing is located by
linear interpolation between substeps and the current is held at zero for
the rest of the period.

Integration is trapezoidal with fixed step; after every topology change one
backward-Euler step restarts the companion models, since element voltages
are discontinuous at switching instants.  Ideal switches are realized by
re-stamping the interval's linear network rather than by small resistances,
so the systems stay well conditioned.  The assembled inverse is cached per
topology; the systems are tiny and recur every period.  Every system, the
per-topology ones and the t = 0 operating point alike, is stamped by one
routine (``_stamp``) that writes the resistors, the current sources and the
incidence of every branch whose current is an unknown: voltage sources,
conducting switches and inductors, or at t = 0 the capacitors pinned to
their initial voltages.  Each caller then adds only its own entries.

Between a restart and the next switching edge the topology is fixed, so
every trapezoidal substep is one affine map on the element state (capacitor
``v, i`` and inductor ``i, v``): the solution is ``x = P s + q`` and the next
state ``s' = Phi s + gamma``.  Both are derived once per topology from the
same inverse and companion entries that the substep-by-substep path uses
(with a constant 1 appended to the state, so that q and gamma ride in the
matrices).  A stretch is therefore the same trapezoidal rule evaluated in a
different order, and its samples agree with the substep-by-substep ones to
rounding.  The stretch's states are grown by doubling with cached powers of
the map, and the diode zero-crossing and re-conduction predicates are
evaluated over all of it; the first substep where one holds is rerun on the
substep-by-substep path, which does the interpolation and the
backward-Euler restart.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .cells import Rectifier
from .engine import InvalidCircuit, InvalidConfig
from .errors import AvgcellError
from .mna import SingularSystem
from .netlist import cell_params, validate


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
    """Signal sampled on the uniform integration grid."""

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
    t = sampled.times[lo : hi + 1]
    y = sampled.values[lo : hi + 1]
    return float(np.trapezoid(y, t) / (t[-1] - t[0]))


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
        raise InvalidCircuit("; ".join(str(d) for d in diagnostics), diagnostics)
    if not circuit.cells():
        raise InvalidCircuit("no switching cell in circuit")
    if config.n_periods < 1:
        raise InvalidConfig("run covers no complete switching period")
    return _SwitchedSimulator(circuit, config, oracle_config).run()


# Cell phases: which part conducts during the present interval.
_ON, _DIODE, _REST = "on", "diode", "rest"
_PRI, _SEC, _NONE = "pri", "sec", "none"


class _CapRt:
    __slots__ = ("label", "C", "n1", "n2", "v", "i")

    def __init__(self, element):
        self.label = element.label
        self.C = element.value
        self.n1, self.n2 = element.nodes
        self.v = element.initial
        self.i = 0.0


class _CellRt:
    __slots__ = ("label", "nodes", "L", "n", "flyback", "diode", "phase", "i", "v")

    def __init__(self, element):
        params = cell_params(element)
        self.label = element.label
        self.nodes = element.nodes
        self.L = params.L
        self.n = params.n
        self.flyback = params.flyback
        self.diode = params.rectifier is Rectifier.DIODE
        self.phase = _PRI if self.flyback else _ON
        self.i = element.initial
        self.v = 0.0

    def magnetizing_current(self):
        if self.flyback and self.phase == _SEC:
            return self.n * self.i
        return self.i

    def branch(self):
        """(node_a, node_b, inductance) of the live inductor branch."""
        a, p, c = self.nodes
        if not self.flyback:
            return ("x", self.label), c, self.L
        if self.phase == _PRI:
            return a, p, self.L
        if self.phase == _SEC:
            return p, c, self.n * self.n * self.L
        return None

    def switch_branch(self):
        a, p, c = self.nodes
        if self.flyback:
            return None
        if self.phase == _ON:
            return a, ("x", self.label)
        if self.phase == _DIODE:
            return p, ("x", self.label)
        return None


@dataclass
class _Topo:
    Ainv: np.ndarray
    z_base: np.ndarray
    cap_entries: list  # (cap, r1, r2, g)
    ind_entries: list  # (cell, col, r_l)
    stretch: "_StretchMap | None" = None  # trapezoidal topologies only


class _StretchMap:
    """A trapezoidal substep of one topology as a linear map on the state.

    The state stacks (v, i) of every capacitor, then (i, v) of every live
    inductor, in the order of the topology's entries, then a constant 1 that
    carries the sources.  States are rows: the next state is ``s @ Phi.T``
    and ``s @ sample_T`` is the sample row after the substep, followed by
    v_p and then v_x of each of the ``n_rest`` blocked basic diode cells.
    """

    def __init__(self, Phi, sample, monitored, n_rest):
        self.sample_T = sample.T.copy()
        self.monitored = monitored  # state index of each conducting diode's i
        self.n_rest = n_rest
        self._powers = [Phi.T.copy()]  # Phi^(2^j), transposed, j = 0, 1, ...

    def propagate(self, s0, count):
        """States s_0 .. s_count, one per row, from s_0 by doubling."""
        S = np.empty((count + 1, len(s0)))
        S[0] = s0
        done, j = 1, 0
        while done <= count:
            if j == len(self._powers):
                self._powers.append(self._powers[-1] @ self._powers[-1])
            take = min(done, count + 1 - done)
            np.matmul(S[:take], self._powers[j], out=S[done : done + take])
            done += take
            j += 1
        return S

    def substeps_before_event(self, S, Y):
        """How many substeps of ``Y`` pass before the first with a diode zero
        crossing or a blocked diode under forward bias.  The predicates are
        those of ``_advance`` and ``_reconduct_check``."""
        hits = []
        if self.monitored:
            i = S[:, self.monitored]
            hits.append(((i[1:] <= 0.0) & (i[:-1] > 0.0)).any(axis=1))
        if self.n_rest:
            k = self.n_rest
            v_p = Y[:, -2 * k : -k]
            v_x = Y[:, -k:]
            tol = 1e-9 * np.maximum(1.0, np.maximum(np.abs(v_p), np.abs(v_x)))
            hits.append((v_p - v_x > tol).any(axis=1))
        found = np.flatnonzero(np.logical_or.reduce(hits)) if hits else []
        return int(found[0]) if len(found) else len(Y)


class _SwitchedSimulator:
    def __init__(self, circuit, config, oracle_config):
        self.circuit = circuit
        self.config = config
        self.substeps = oracle_config.substeps_per_period

        keys = [n for n in sorted(circuit.node_ids) if n != 0]
        self.cells = [_CellRt(e) for e in circuit.cells()]
        for cell in self.cells:
            if not cell.flyback:
                keys.append(("x", cell.label))
        self.node_col = {k: i for i, k in enumerate(keys)}
        self.n_nodes = len(keys)

        self.caps = [_CapRt(e) for e in circuit.capacitors()]
        self.vdcs = circuit.vdcs()
        self.idcs = circuit.idcs()
        self.resistors = circuit.resistors()
        # Voltage sources are stamped first, so their branch columns are
        # the same in every topology.
        self.vdc_col = {
            e.label: self.n_nodes + k for k, e in enumerate(self.vdcs)
        }
        self._topo_cache = {}

    def _col(self, key):
        return self.node_col.get(key, -1)

    def _assemble(self, h, method, cache=True):
        phases = tuple(c.phase for c in self.cells)
        key = (phases, h, method)
        if cache and key in self._topo_cache:
            return self._topo_cache[key]

        branches = [(*e.nodes, e.value) for e in self.vdcs]
        for cell in self.cells:
            sw = cell.switch_branch()
            if sw is not None:
                branches.append((*sw, 0.0))
        inductors = []
        for cell in self.cells:
            br = cell.branch()
            if br is not None:
                inductors.append((cell, self.n_nodes + len(branches), br[2]))
                branches.append((br[0], br[1], 0.0))
        A, z_base = self._stamp(branches, [])

        factor = 2.0 if method == "tr" else 1.0
        cap_entries = []
        for cap in self.caps:
            g = factor * cap.C / h
            r1, r2 = self._col(cap.n1), self._col(cap.n2)
            self._conductance(A, r1, r2, g)
            cap_entries.append((cap, r1, r2, g))
        ind_entries = []
        for cell, col, L in inductors:
            r_l = factor * L / h
            A[col, col] = -r_l
            ind_entries.append((cell, col, r_l))

        try:
            Ainv = np.linalg.inv(A)
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(f"switched network is singular: {exc}") from exc
        topo = _Topo(Ainv, z_base, cap_entries, ind_entries)
        if cache:
            self._topo_cache[key] = topo
        return topo

    @staticmethod
    def _conductance(A, r1, r2, g):
        if r1 >= 0:
            A[r1, r1] += g
        if r2 >= 0:
            A[r2, r2] += g
        if r1 >= 0 and r2 >= 0:
            A[r1, r2] -= g
            A[r2, r1] -= g

    def _step(self, h, method, cache=True):
        """Advance every element state by one step; returns the solution."""
        topo = self._assemble(h, method, cache)
        z = topo.z_base.copy()
        srcs = []
        for cap, r1, r2, g in topo.cap_entries:
            src = g * cap.v + (cap.i if method == "tr" else 0.0)
            srcs.append(src)
            if r1 >= 0:
                z[r1] += src
            if r2 >= 0:
                z[r2] -= src
        rhss = []
        for cell, col, r_l in topo.ind_entries:
            rhs = -(r_l * cell.i + (cell.v if method == "tr" else 0.0))
            rhss.append(rhs)
            z[col] += rhs
        x = topo.Ainv @ z
        for (cap, r1, r2, g), src in zip(topo.cap_entries, srcs):
            v_new = (x[r1] if r1 >= 0 else 0.0) - (x[r2] if r2 >= 0 else 0.0)
            cap.i = g * v_new - src
            cap.v = v_new
        for (cell, col, r_l), rhs in zip(topo.ind_entries, rhss):
            i_new = float(x[col])
            cell.v = r_l * i_new + rhs
            cell.i = i_new
        return x

    def _stretch_map(self, topo, node_ids):
        """The map of one trapezoidal substep on ``topo``: the same companion
        updates as ``_step``, written as matrices."""
        caps, inds = topo.cap_entries, topo.ind_entries
        one = 2 * (len(caps) + len(inds))  # index of the constant 1
        order = len(topo.z_base)
        B = np.zeros((order, one + 1))  # z = B s
        B[:, one] = topo.z_base
        E = np.zeros((one + 1, order))  # s' = E x + F s
        F = np.zeros((one + 1, one + 1))
        F[one, one] = 1.0
        for k, (cap, r1, r2, g) in enumerate(caps):
            iv, ii = 2 * k, 2 * k + 1
            for r, sign in ((r1, 1.0), (r2, -1.0)):
                if r >= 0:
                    B[r, iv] += sign * g
                    B[r, ii] += sign
                    E[iv, r] += sign
                    E[ii, r] += sign * g
            F[ii, iv] = -g
            F[ii, ii] = -1.0
        live = {}
        for k, (cell, col, r_l) in enumerate(inds):
            ii, iv = 2 * (len(caps) + k), 2 * (len(caps) + k) + 1
            B[col, ii] = -r_l
            B[col, iv] = -1.0
            E[ii, col] = 1.0
            E[iv, col] = r_l
            F[iv, ii] = -r_l
            F[iv, iv] = -1.0
            live[cell.label] = (col, ii)
        P = topo.Ainv @ B  # x = P s

        rows = [self.node_col[n] for n in node_ids]
        rows += [self.vdc_col[e.label] for e in self.vdcs]
        scales = [1.0] * len(rows)
        for cell in self.cells:
            rows.append(live[cell.label][0] if cell.label in live else -1)
            # as magnetizing_current(): secondary current referred to primary
            scales.append(cell.n if cell.flyback and cell.phase == _SEC else 1.0)
        rest = [
            c for c in self.cells if c.diode and not c.flyback and c.phase == _REST
        ]
        rows += [self._col(c.nodes[1]) for c in rest]
        rows += [self._col(("x", c.label)) for c in rest]
        scales += [1.0] * (2 * len(rest))
        sample = np.zeros((len(rows), one + 1))
        for k, (row, scale) in enumerate(zip(rows, scales)):
            if row >= 0:
                sample[k] = scale * P[row]
        monitored = [live[c.label][1] for c in self._conducting_diodes()]
        return _StretchMap(E @ P + F, sample, monitored, len(rest))

    def _stretch(self, h, node_ids, out):
        """Advance up to ``len(out)`` trapezoidal substeps on the present
        topology, writing their sample rows into ``out``.

        Returns how many substeps were taken; fewer than ``len(out)`` means
        the next substep has an event for ``_advance`` and
        ``_reconduct_check`` to handle."""
        topo = self._assemble(h, "tr")
        if topo.stretch is None:
            topo.stretch = self._stretch_map(topo, node_ids)
        stretch = topo.stretch
        count = len(out)
        s0 = [x for cap, *_ in topo.cap_entries for x in (cap.v, cap.i)]
        s0 += [x for cell, *_ in topo.ind_entries for x in (cell.i, cell.v)]
        S = stretch.propagate(s0 + [1.0], count)
        Y = S[:count] @ stretch.sample_T
        taken = stretch.substeps_before_event(S, Y)
        out[:taken] = Y[:taken, : out.shape[1]]
        state = S[taken].tolist()
        for k, (cap, *_) in enumerate(topo.cap_entries):
            cap.v, cap.i = state[2 * k], state[2 * k + 1]
        base = 2 * len(topo.cap_entries)
        for k, (cell, *_) in enumerate(topo.ind_entries):
            cell.i, cell.v = state[base + 2 * k], state[base + 2 * k + 1]
        return taken

    def _snapshot(self):
        return (
            [(c.v, c.i) for c in self.caps],
            [(c.i, c.v, c.phase) for c in self.cells],
        )

    def _restore(self, snap):
        for cap, (v, i) in zip(self.caps, snap[0]):
            cap.v, cap.i = v, i
        for cell, (i, v, phase) in zip(self.cells, snap[1]):
            cell.i, cell.v, cell.phase = i, v, phase

    def _conducting_diodes(self):
        return [
            c
            for c in self.cells
            if c.diode and c.phase == (_SEC if c.flyback else _DIODE)
        ]

    def _advance(self, h, method, cache=True):
        """One step with diode zero-crossing detection and hold-at-zero.

        Returns (solution, topology_changed)."""
        monitored = self._conducting_diodes()
        if not monitored:
            return self._step(h, method, cache), False
        snap = self._snapshot()
        pre = [c.i for c in monitored]
        x = self._step(h, method, cache)
        crossing = None
        for cell, i_pre in zip(monitored, pre):
            if cell.i <= 0.0 < i_pre:
                theta = i_pre / (i_pre - cell.i)
                if crossing is None or theta < crossing[1]:
                    crossing = (cell, theta)
        if crossing is None:
            return x, False

        # Integrate up to the interpolated crossing, block the diode, then
        # finish the substep on the new topology.
        cell, theta = crossing
        self._restore(snap)
        if theta > 1e-9:
            x = self._step(theta * h, "be", cache=False)
        self._block(cell)
        remainder = (1.0 - theta) * h
        if remainder > 1e-12 * h:
            x = self._step(remainder, "be", cache=False)
        for other in self._conducting_diodes():
            if other.i <= 0.0:
                self._block(other)
        return x, True

    @staticmethod
    def _block(cell):
        cell.phase = _NONE if cell.flyback else _REST
        cell.i = 0.0
        cell.v = 0.0

    def _reconduct_check(self, x):
        """A blocked diode with forward bias starts conducting again."""
        changed = False
        for cell in self.cells:
            if not cell.diode or cell.flyback or cell.phase != _REST:
                continue
            v_p = self._value(x, cell.nodes[1])
            v_x = self._value(x, ("x", cell.label))
            if v_p - v_x > 1e-9 * max(1.0, abs(v_p), abs(v_x)):
                cell.phase = _DIODE
                changed = True
        return changed

    def _value(self, x, key):
        col = self._col(key)
        return float(x[col]) if col >= 0 else 0.0

    def _switch_on(self):
        for cell in self.cells:
            if cell.flyback:
                if cell.phase == _SEC:
                    cell.i *= cell.n
                cell.phase = _PRI
            else:
                cell.phase = _ON
            cell.v = 0.0

    def _switch_off(self):
        for cell in self.cells:
            conducts = not cell.diode or cell.i > 0.0
            if cell.flyback:
                if conducts:
                    cell.i /= cell.n
                    cell.phase = _SEC
                else:
                    self._block(cell)
            else:
                if conducts:
                    cell.phase = _DIODE
                else:
                    self._block(cell)
            cell.v = 0.0

    def _stamp(self, branches, sources):
        """The network part of every system: resistor conductances, current
        sources, and one current unknown per branch.

        ``branches`` are (node_a, node_b, value): branch k's current, from
        a to b, is unknown ``n_nodes + k``, and its row holds
        v_a - v_b = value (``_assemble`` adds an inductor's companion
        resistance to that row).  ``sources`` are (node_a, node_b, current)
        injections from a to b, stamped after the circuit's current
        sources.  Returns (A, z)."""
        order = self.n_nodes + len(branches)
        A = np.zeros((order, order))
        z = np.zeros(order)
        for e in self.resistors:
            self._conductance(
                A, self._col(e.nodes[0]), self._col(e.nodes[1]), 1.0 / e.value
            )
        for a, b, current in [(*e.nodes, e.value) for e in self.idcs] + sources:
            ra, rb = self._col(a), self._col(b)
            if ra >= 0:
                z[ra] -= current
            if rb >= 0:
                z[rb] += current
        for k, (a, b, value) in enumerate(branches):
            col = self.n_nodes + k
            z[col] = value
            ra, rb = self._col(a), self._col(b)
            if ra >= 0:
                A[ra, col] += 1.0
                A[col, ra] += 1.0
            if rb >= 0:
                A[rb, col] -= 1.0
                A[col, rb] -= 1.0
        return A, z

    def _operating_point(self):
        """Solution at t = 0: capacitors pinned to their initial voltages,
        cell inductors replaced by their initial currents."""
        branches = [(*e.nodes, e.value) for e in self.vdcs]
        branches += [(c.n1, c.n2, c.v) for c in self.caps]
        sources = []
        for cell in self.cells:
            sw, br = cell.switch_branch(), cell.branch()
            if sw is not None:
                branches.append((*sw, 0.0))
            if br is not None:
                sources.append((br[0], br[1], cell.i))
        A, z = self._stamp(branches, sources)
        try:
            return np.linalg.solve(A, z)
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(
                f"initial operating point is singular: {exc}"
            ) from exc

    def run(self):
        config = self.config
        steps = self.substeps
        n_periods = config.n_periods
        T_s = config.T_s
        h = T_s / steps
        p_sw = config.d * steps
        if abs(p_sw - round(p_sw)) < 1e-9:
            p_sw = int(round(p_sw))

        node_ids = [n for n in sorted(self.circuit.node_ids) if n != 0]
        signal_names = (
            [f"v({n})" for n in node_ids]
            + [f"i({e.label})" for e in self.vdcs]
            + [f"iL({c.label})" for c in self.cells]
        )
        n_samples = n_periods * steps + 1
        out = np.empty((n_samples, len(signal_names)))

        self._switch_on()
        x0 = self._operating_point()
        out[0] = self._sample_row(x0, node_ids)

        # Substep where the switch turns off (or the split substep when the
        # edge falls inside one): trapezoidal stretches end there or at the
        # end of the period.
        off = math.floor(p_sw)
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
                    self._advance((p_sw - j) * h, "be", cache=False)
                    self._switch_off()
                    x, _ = self._advance((j + 1 - p_sw) * h, "be", cache=False)
                    restart = True
                elif restart:
                    x, restart = self._advance(h, "be")
                else:
                    end = off if j < off else steps
                    j += self._stretch(h, node_ids, out[row + j : row + end])
                    if j == end:
                        continue
                    x, restart = self._advance(h, "tr")
                if self._reconduct_check(x):
                    restart = True
                out[row + j] = self._sample_row(x, node_ids)
                j += 1

        times = np.arange(n_samples) * h
        result = {}
        for k, name in enumerate(signal_names):
            unit = "V" if name.startswith("v(") else "A"
            result[name] = SampledWaveform(
                name, unit, times, out[:, k].copy(), steps
            )
        return result

    def _sample_row(self, x, node_ids):
        row = [float(x[self.node_col[n]]) for n in node_ids]
        row += [float(x[self.vdc_col[e.label]]) for e in self.vdcs]
        row += [c.magnetizing_current() for c in self.cells]
        return row
