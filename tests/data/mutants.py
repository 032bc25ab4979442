"""Run one-line source mutants against Tier-1 and report which it kills.

Usage, from the repository root:

    python3 tests/data/mutants.py [NAME ...]

Each row of ``MUTANTS`` is (name, file under ``src/avgcell``, old text,
new text, why the mutant matters).  The old text must occur exactly once
in its file.  The script first copies the tree to one snapshot, checks
every row it runs against that snapshot and stops, naming every stale row
at once, if some row's old text does not occur exactly once.  It then runs
Tier-1 on an unmutated copy of the snapshot and stops if that fails.
Then, for every row or only the named ones, it copies the snapshot to a
temporary directory, applies the mutant there and runs Tier-1 in that copy
with ``-x``, so an edit made to the tree while it runs changes nothing it
mutates.  A failing run kills the mutant.  The rows of ``EQUIVALENT`` are
run too: each is listed with the reason no test can kill it.  It prints
one line per mutant, with the first failing test of a killed one, and
exits 1 if a row of ``MUTANTS`` survived or one of ``EQUIVALENT`` was
killed.  It writes nothing in the tree.  Tier-1 takes about 12 s on a
2-vCPU host, so a survivor costs that and a full run of the 120 rows
about 12 minutes.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
# What Tier-1 reads: tests/test_bench_contract.py imports perfbench.
COPIED = ("src", "tests", "netlists", "perfbench", "pyproject.toml")

MUTANTS = [
    (
        "pivot-rule",
        "mna.py",
        "if not abs(pivot) > PIVOT_RTOL * scale:",
        "if not abs(pivot) >= PIVOT_RTOL * scale:",
        "a pivot of exactly PIVOT_RTOL times its row's scale must be singular, in"
        " lu_factor and the lone and coupled row updates alike",
    ),
    (
        "lone-floor-rb",
        "mna.py",
        "self._floor = [PIVOT_RTOL * _row_scale(m, 1.0, 1.0) for m in self._magnitude]",
        "self._floor = [PIVOT_RTOL * _row_scale(m, 1.0, 0.0) for m in self._magnitude]",
        "the bound a lone row's pivot clears without its scale covers the rb"
        " term of the scale too",
    ),
    (
        "lone-floor-any-d_p",
        "mna.py",
        "if not (abs(c) > floor[i] and 0.0 <= d_p <= 1.0):",
        "if not abs(c) > floor[i]:",
        "the bound bounds PIVOT_RTOL times the scale only for d_p in [0, 1]",
    ),
    (
        "lone-floor-below-zero",
        "mna.py",
        "0.0 <= d_p <= 1.0",
        "-1.0 <= d_p <= 1.0",
        "below d_p = 0, |alpha| can pass 1 and the bound fails",
    ),
    (
        "lone-floor-above-one",
        "mna.py",
        "0.0 <= d_p <= 1.0",
        "0.0 <= d_p <= 2.0",
        "above d_p = 1, |alpha| and |beta| can pass 1 and the bound fails",
    ),
    (
        "row-scale-signed-alpha",
        "mna.py",
        "abs(alpha) * magnitude[0]",
        "alpha * magnitude[0]",
        "a moved row's scale, lone or coupled, grows with |alpha|: at d_p below"
        " d_p0 a signed alpha shrinks it and passes a pivot that is singular",
    ),
    (
        "PIVOT_RTOL",
        "mna.py",
        "PIVOT_RTOL = 1e-13",
        "PIVOT_RTOL = 1e-11",
        "a pivot just above 1e-13 of its row's scale is not singular",
    ),
    (
        "lu_factor-finite",
        "mna.py",
        "if not np.isfinite(a).all():",
        "if False:",
        "a matrix that is not finite fails with its own message",
    ),
    (
        "eliminate-tie-later",
        "mna.py",
        "m == largest and pos[i] < pos[p]",
        "m == largest and pos[i] > pos[p]",
        "of equal magnitudes the first row in row order is the pivot",
    ),
    (
        "eliminate-magnitude",
        "mna.py",
        "if m > largest or",
        "if m >= largest or",
        "a later row of equal magnitude does not take the pivot",
    ),
    (
        "eliminate-zero-multiplier",
        "mna.py",
        "f = row.pop(k, 0.0) / pivot\n",
        "f = row.pop(k, 0.0) / pivot\n                if not f:\n                    continue\n",
        "a zero multiplier times an infinity is NaN in the dense elimination",
    ),
    (
        "eliminate-fill-in",
        "mna.py",
        "# fill-in\n                        row[j] = 0.0\n                        in_col[j].append(i)",
        "# fill-in\n                        continue",
        "an entry that fills in can become the next pivot",
    ),
    (
        "eliminate-nan-pivot",
        "mna.py",
        "pos[i] < pos[p] or m != m:",
        "pos[i] < pos[p]:",
        "a NaN in the pivot column is the dense elimination's pivot, and fails",
    ),
    (
        "eliminate-nonfinite-rows",
        "mna.py",
        "below = at[k + 1:]",
        "pass",
        "a pivot row that is not finite makes NaN in every row below",
    ),
    (
        "eliminate-zero-pivot",
        "mna.py",
        "if not pivot:  # it fails the pivot rule: stop before dividing by it",
        "if False:",
        "a zero pivot is a SingularSystem, not a division by zero",
    ),
    (
        "eliminate-rhs",
        "mna.py",
        "rhs[i] -= f * rhs[p]",
        "pass",
        "the right-hand side is eliminated with the rows",
    ),
    (
        "stamp-ground-kept",
        "mna.py",
        "spare = n  # ground's row and column",
        "spare = 0  # ground's row and column",
        "ground's entries are dropped, not added to the first node's row and column",
    ),
    (
        "RESIDUAL_RTOL",
        "mna.py",
        "RESIDUAL_RTOL = 1e-10",
        "RESIDUAL_RTOL = 2e-10",
        "a residual of 1.5 times its bound must raise",
    ),
    (
        "moved-row-norm",
        "mna.py",
        "(np.abs(V).sum(axis=-1) + 1.0)",
        "(np.abs(V).sum(axis=-1) + 2.0)",
        "a moved diode row's norm is its unit entry plus the sum of |V|",
    ),
    (
        "lone-all",
        "mna.py",
        "self._lone = (~(linked.any(axis=0) | linked.any(axis=1))).tolist()",
        "self._lone = [True] * n",
        "a coupled diode row solved as if alone gives the wrong solution",
    ),
    (
        "lone-none",
        "mna.py",
        "self._lone = (~(linked.any(axis=0) | linked.any(axis=1))).tolist()",
        "self._lone = [False] * n",
        "a row alone takes one division, not the coupled elimination",
    ),
    (
        "lone-by-rounding",
        "mna.py",
        "linked &= (_inverse_pattern(A)[meet] & real).any(axis=2)",
        "pass",
        "a link that A's pattern rules out is rounding in A0^-1 and couples no rows",
    ),
    (
        "pad-couples",
        "mna.py",
        "linked &= (_inverse_pattern(A)[meet] & real).any(axis=2)",
        "linked &= _inverse_pattern(A)[meet].any(axis=2)",
        "a diode row's pad, at its own rd, meets no w_j in the coupling test",
    ),
    (
        "pad-diagonal",
        "mna.py",
        "    planes[_A][at] = diode_entries(np.array(d_ps)[:, None], *system.diode[2:])\n"
        "    planes[_A, rd, rd] = 1.0  # over a pad's 0.0\n",
        "    planes[_A, rd, rd] = 1.0\n"
        "    planes[_A][at] = diode_entries(np.array(d_ps)[:, None], *system.diode[2:])\n",
        "a padded diode row keeps its unit diagonal, not the pad's 0.0",
    ),
    (
        "inverse-pattern-one-step",
        "mna.py",
        "for _ in range(n.bit_length()):",
        "for _ in range(0):",
        "A^-1 can be nonzero wherever an alternating path of any length reaches",
    ),
    (
        "inverse-pattern-greedy",
        "mna.py",
        "queue += [row_of[c] for c in new]",
        "pass",
        "a perfect matching may need augmenting paths, and without one there is no"
        " sure zero",
    ),
    (
        "row-update-no-rb",
        "mna.py",
        "u_x = alpha * ra_x[i] + beta * rb_x[i]",
        "u_x = alpha * ra_x[i]",
        "a moved diode row's U^T x0 takes its d_p^2 rb . x0 term from q's tail",
    ),
    (
        "refine-reuses-changed-q",
        "engine.py",
        "None if zeroed else q",
        "q",
        "a dcm_refine re-solve that zeroes a further start current forms q = Q s"
        " again from the new state",
    ),
    (
        "CURRENT_RTOL",
        "cells.py",
        "CURRENT_RTOL = 1e-12",
        "CURRENT_RTOL = 1e-10",
        "2e-12 A keeps CCM and does not snap to zero",
    ),
    (
        "forward_biased",
        "oracle.py",
        "return (v > 1e-9) & (v > 1e-9 * abs(v_p)) & (v > 1e-9 * abs(v_c))",
        "return (v > 1e-7) & (v > 1e-7 * abs(v_p)) & (v > 1e-7 * abs(v_c))",
        "a blocked diode biased at 1e-8 of the voltage scale conducts",
    ),
    (
        "FIRST_BLOCK",
        "engine.py",
        "FIRST_BLOCK = 8",
        "FIRST_BLOCK = 4",
        "a circuit with a diode cell tries 8 periods first and after a failed block:"
        " test_a_diode_circuit_starts_its_blocks_at_first_block pins buck_diode.net's"
        " block lengths from rest",
    ),
    (
        "CHECK_ROWS",
        "engine.py",
        "CHECK_ROWS = 1024",
        "CHECK_ROWS = 1023",
        "a circuit with no diode cell tries CHECK_ROWS periods first: 1024 periods"
        " of buck.net are one block and 1025 two",
    ),
    (
        "no-diode-first-block",
        "engine.py",
        "length = FIRST_BLOCK if self.diode else CHECK_ROWS",
        "length = FIRST_BLOCK",
        "a circuit with no diode cell runs its CCM periods as one block: 500"
        " periods of buck.net are one block, and 300 one block and one residual check",
    ),
    (
        "diode-first-block",
        "engine.py",
        "length = FIRST_BLOCK if self.diode else CHECK_ROWS",
        "length = CHECK_ROWS",
        "a circuit with a diode cell starts at FIRST_BLOCK, not CHECK_ROWS",
    ),
    (
        "failed-block-length",
        "engine.py",
        "                length = FIRST_BLOCK\n            self._step(r)",
        "                pass\n            self._step(r)",
        "the block after one that failed is tried at FIRST_BLOCK: the 0 V buck"
        " steps every period after one block as long as the run",
    ),
    (
        "end-of-run-check",
        "engine.py",
        "        self._flush(stop)\n        self._check(stop)\n",
        "        self._flush(stop)\n",
        "every row's residual is checked at the end of the run: a bad solution inside"
        " a CCM block raises SingularSystem with its period",
    ),
    (
        "check-one-call",
        "engine.py",
        "b = min(a + CHECK_ROWS, stop)",
        "b = stop",
        "no residual check holds more than CHECK_ROWS rows",
    ),
    (
        "bootstrap-period",
        "mna.py",
        "period + row < 0 else",
        "period + row < -1 else",
        "the bootstrap, checked with the periods after it, reports no period",
    ),
    (
        "keeps-ccm-at-tolerance",
        "cells.py",
        "return iL0 > CURRENT_RTOL",
        "return iL0 >= CURRENT_RTOL",
        "a start current of exactly CURRENT_RTOL is zero to keeps_ccm",
    ),
    (
        "snaps-absolute-at-tolerance",
        "cells.py",
        "(abs(iL2) < CURRENT_RTOL) |",
        "(abs(iL2) <= CURRENT_RTOL) |",
        "an end current of exactly CURRENT_RTOL does not snap to zero",
    ),
    (
        "snaps-relative-at-tolerance",
        "cells.py",
        "(abs(iL2) < CURRENT_RTOL * abs(iL1))",
        "(abs(iL2) <= CURRENT_RTOL * abs(iL1))",
        "an end current of exactly CURRENT_RTOL |iL1|, |iL1| > 1, does not snap to zero",
    ),
    (
        "diode-clamps-at-zero",
        "cells.py",
        "return iL2 < 0.0",
        "return iL2 <= 0.0",
        "a diode cell's end current of exactly zero does not clamp",
    ),
    (
        "compute-d2-flat-slope",
        "cells.py",
        "if vL2 >= 0.0:",
        "if vL2 > 0.0:",
        "a diode interval with vL2 = 0 never returns the current to zero: d2 is inf",
    ),
    (
        "resolve-mode-boundary",
        "cells.py",
        "if d + d2 >= 1.0:",
        "if d + d2 > 1.0:",
        "d + d2 = 1 is the boundary, and the boundary counts as CCM",
    ),
    (
        "resolve-mode-negative-d2",
        "cells.py",
        "return Mode.DCM, 0.0 if d2 < 0.0 else d2",
        "return Mode.DCM, 0.0 if d2 <= 0.0 else d2",
        "a DCM d_p is max(d2, 0.0) as Python's max gives it, so -0.0 stays -0.0",
    ),
    (
        "drive-flyback-vL2",
        "cells.py",
        "0.0 + inv * v_p - inv * v_c",
        "0.0 + (v_p - v_c) / cell.turns",
        "a flyback's vL2 is the stamp's two terms, (1/n) v_p - (1/n) v_c, which"
        " rounds apart from (v_p - v_c) / n",
    ),
    (
        "drive-signed-zero",
        "cells.py",
        "return 0.0 + v_a - v_c, 0.0 + v_p - v_c",
        "return v_a - v_c, v_p - v_c",
        "the drive voltages are sums from 0.0, so a -0.0 port reads +0.0",
    ),
    (
        "predict-keeps-ccm-at-tolerance",
        "cells.py",
        "if not iL0 > rtol and diode[i]:",
        "if not iL0 >= rtol and diode[i]:",
        "predict_modes: a start current of exactly CURRENT_RTOL is zero, as to"
        " keeps_ccm",
    ),
    (
        "predict-synchronous",
        "cells.py",
        "if not iL0 > rtol and diode[i]:",
        "if not iL0 > rtol:",
        "predict_modes: a synchronous cell stays in CCM at any start current",
    ),
    (
        "predict-flat-slope",
        "cells.py",
        "d2 = math.inf if vL2 >= 0.0 else",
        "d2 = math.inf if vL2 > 0.0 else",
        "predict_modes: vL2 = 0 forces CCM, as in compute_d2",
    ),
    (
        "predict-boundary",
        "cells.py",
        "if not d + d2 >= 1.0:",
        "if not d + d2 > 1.0:",
        "predict_modes: d + d2 = 1 is CCM, as in resolve_mode",
    ),
    (
        "predict-negative-d2",
        "cells.py",
        "True, 0.0 if d2 < 0.0 else d2, 0.0",
        "True, 0.0 if d2 <= 0.0 else d2, 0.0",
        "predict_modes: a DCM d_p of d2 = -0.0 stays -0.0, as in resolve_mode",
    ),
    (
        "end-currents-snaps-absolute",
        "cells.py",
        "abs(iL2) < rtol or",
        "abs(iL2) <= rtol or",
        "end_currents: an end current of exactly CURRENT_RTOL does not snap to"
        " zero, as to snaps_to_zero",
    ),
    (
        "end-currents-snaps-relative",
        "cells.py",
        "abs(iL2) < rtol * abs(iL1)",
        "abs(iL2) <= rtol * abs(iL1)",
        "end_currents: an end current at CURRENT_RTOL |iL1| (inf at iL1 = inf)"
        " does not snap to zero, as to snaps_to_zero",
    ),
    (
        "end-currents-clamp-synchronous",
        "cells.py",
        "or diode[i] and iL2 < 0.0",
        "or iL2 < 0.0",
        "end_currents: only a diode cell clamps a negative end current",
    ),
    (
        "end-currents-clamp-below-zero",
        "cells.py",
        "diode[i] and iL2 < 0.0)",
        "diode[i] and iL2 < -rtol)",
        "end_currents: a diode end current of -CURRENT_RTOL, which does not snap"
        " to zero, clamps, as diode_clamps does",
    ),
    (
        "oracle-at-zero",
        "oracle.py",
        "return i <= 0.0",
        "return i < 0.0",
        "a diode current of exactly zero has fallen to zero, and the diode blocks",
    ),
    (
        "lazy-oracle-names",
        "__init__.py",
        '_ORACLE = ("OracleConfig", "SampledWaveform", "period_average", "simulate_switched")',
        '_ORACLE = ("OracleConfig", "SampledWaveform", "period_average")',
        "every oracle name in __all__ can be imported from the package",
    ),
    (
        "DUTY_TOL",
        "cells.py",
        "DUTY_TOL = 1e-12",
        "DUTY_TOL = 1e-9",
        "an interval of 1e-10 T_s still takes part in end_current_from_averages",
    ),
    (
        "oracle-theta",
        "oracle.py",
        "if theta > 1e-9:",
        "if theta > 1e-7:",
        "a zero crossing at 1e-8 of a substep is integrated up to",
    ),
    (
        "oracle-theta-lower",
        "oracle.py",
        "if theta > 1e-9:",
        "if theta > 1e-11:",
        "a zero crossing at 1e-10 of a substep takes no part-step before it",
    ),
    (
        "oracle-remainder",
        "oracle.py",
        "if remainder > 1e-12 * h:",
        "if remainder > 1e-10 * h:",
        "1e-11 of a substep after a zero crossing is still integrated",
    ),
    (
        "oracle-remainder-lower",
        "oracle.py",
        "if remainder > 1e-12 * h:",
        "if remainder > 1e-14 * h:",
        "1e-13 of a substep after a zero crossing is not integrated",
    ),
    (
        "positive-boundary",
        "netlist.py",
        "if not getattr(e, name) > 0:",
        "if not getattr(e, name) >= 0:",
        "a resistance, capacitance, inductance or turns ratio of exactly 0 is a diagnostic",
    ),
    (
        "positive-resistance",
        "netlist.py",
        '(("value", "non-positive-resistance", "resistance"),)',
        "()",
        "a non-positive resistance is a diagnostic",
    ),
    (
        "positive-capacitance",
        "netlist.py",
        '(("value", "non-positive-capacitance", "capacitance"),)',
        "()",
        "a non-positive capacitance is a diagnostic",
    ),
    (
        "positive-inductance",
        "netlist.py",
        '(("value", "non-positive-inductance", "inductance"),\n'
        '                           ("turns", "non-positive-turns", "turns ratio"))',
        '(("turns", "non-positive-turns", "turns ratio"),)',
        "a non-positive inductance is a diagnostic",
    ),
    (
        "positive-turns",
        "netlist.py",
        '(("value", "non-positive-inductance", "inductance"),\n'
        '                           ("turns", "non-positive-turns", "turns ratio"))',
        '(("value", "non-positive-inductance", "inductance"),)',
        "a non-positive turns ratio is a diagnostic",
    ),
    (
        "shorted-capacitor",
        "netlist.py",
        "if e.kind == CAP and e.nodes[0] == e.nodes[1]:",
        "if False:",
        "a capacitor with both terminals on one node is a diagnostic",
    ),
    (
        "missing-ground",
        "netlist.py",
        "if 0 not in node_ids:",
        "if False:",
        "a circuit with no element on node 0 is the one missing-ground diagnostic",
    ),
    (
        "disconnected-graph",
        "netlist.py",
        "    if unreached:\n",
        "    if False:\n",
        "nodes with no path to ground are a diagnostic",
    ),
    (
        "node-set-but-last",
        "netlist.py",
        "return {n for e in self.elements for n in e.nodes}",
        "return {n for e in self.elements[:-1] for n in e.nodes}",
        "a circuit's node set is read off every one of its elements",
    ),
    (
        "no-switching-cell",
        "netlist.py",
        "if not circuit.cells():",
        "if False:",
        "a circuit without a switching cell is a diagnostic",
    ),
    (
        "voltage-source-loop",
        "netlist.py",
        "if not _join(parts, *e.nodes):",
        "if not _join(parts, *e.nodes) and False:",
        "a loop of voltage sources is a diagnostic",
    ),
    (
        "current-source-cutset",
        "netlist.py",
        "    if floating:\n",
        "    if False:\n",
        "nodes anchored only by current sources are a diagnostic",
    ),
    (
        "duplicate-label",
        "netlist.py",
        "if e.label in labels:",
        "if False:",
        "two elements with one label, built in code, are a diagnostic",
    ),
    (
        "non-finite-value",
        "netlist.py",
        "        if bad:\n",
        "        if False:\n",
        "a NaN or an infinity is its element's one diagnostic",
    ),
    (
        "basic-cell-turns",
        "netlist.py",
        "if e.is_cell and not e.is_flyback and e.turns != 1.0:",
        "if False:",
        "a basic cell's turns ratio other than 1 is a diagnostic",
    ),
    (
        "oracle-pin-every-capacitor",
        "oracle.py",
        "if _join(parts, *e.nodes)]",
        "if _join(parts, *e.nodes) or True]",
        "a capacitor whose nodes are already tied at t = 0 is not pinned again",
    ),
    (
        "oracle-operating-point-negative-zero",
        "oracle.py",
        "return np.linalg.solve(A, z) + 0.0",
        "return np.linalg.solve(A, z)",
        "a capacitor written ground-first samples 0.0 at t = 0, not -0.0",
    ),
    (
        "cli-joined-diagnostics",
        "cli.py",
        "for diag in exc.diagnostics:\n            print(f\"error: {args.netlist}: {diag}\"",
        "for diag in [exc]:\n            print(f\"error: {args.netlist}: {diag}\"",
        "the CLI prints each diagnostic on a line of its own",
    ),
    (
        "block-pure-map",
        "engine.py",
        "multiply(two_g, v, i0_next)\n"
        "            i0 = subtract(i0_next, i0, i0_next)",
        "i0 = dot(two_g[:, None] * G[:n_caps] - np.eye(n_caps, len(G) + 1, n - n_caps),"
        " state, i0_next)",
        "i_0' as a row of one map, (2g (E P)_v - I) s, is an ulp off 2g v - i_0:"
        " test_capacitor_carryover_follows_companion_update and"
        " test_companion_update_holds_bit_for_bit_on_every_case",
    ),
    (
        "block-x-one-product",
        "engine.py",
        "x = np.matmul(self.P, s[a:b, :, None], out=rows.x[a:b, :, None])",
        "rows.x[a:b] = s[a:b] @ self.P.T\n        x = rows.x[a:b, :, None]",
        "a many-row product gives a row other bits than step()'s one-row one:"
        " test_step_reproduces_run and test_step_reproduces_run_across_blocks",
    ),
    (
        "oracle-x1-times-h",
        "oracle.py",
        "W = x0 + x1 / h",
        "W = x0 + x1 * h",
        "the companion coefficients are divided by the substep's length",
    ),
    (
        "oracle-history-in-x1",
        "oracle.py",
        "x0[r, bf + a + 1] += sigma * sign * hist",
        "x1[r, bf + a + 1] += sigma * sign * hist",
        "a history term does not scale with 1 / h",
    ),
    (
        "oracle-basic-on-to-p",
        "oracle.py",
        "ret = p if self.flyback else c",
        "ret = p",
        "a basic cell's inductor returns to c while the switch conducts",
    ),
    (
        "oracle-incidence-ground",
        "oracle.py",
        "zip(cols, (1.0, -1.0)) if col >= 0]",
        "zip(cols, (1.0, -1.0))]",
        "ground's column -1 takes no entry of any element",
    ),
    (
        "oracle-stretch-reconduct-at-a",
        "oracle.py",
        "for k in (1, 2) for c in rest]",
        "for k in (1, 0) for c in rest]",
        "a stretch reads a blocked basic diode's forward bias as v_p - v_c",
    ),
    (
        "oracle-reconduct-at-a",
        "oracle.py",
        "for n in cell.nodes[1:])",
        "for n in cell.nodes[1::-1])",
        "a blocked basic diode re-conducts on v_p - v_c",
    ),
    (
        "oracle-switch-off-block",
        "oracle.py",
        "if cell.diode and _at_zero(self.s[cell.si]):",
        "if False:",
        "a diode whose current is at or below zero at switch-off blocks at once",
    ),
    (
        "oracle-crossing-blocks-others",
        "oracle.py",
        "if _at_zero(self.s[other.si]):\n                self._block(other)",
        "if _at_zero(self.s[other.si]):\n                pass",
        "a second diode at zero after a crossing's part-substeps blocks too",
    ),
    (
        "oracle-network-by-method",
        "oracle.py",
        "key = (tuple(c.phase for c in self.cells), method)",
        "key = method",
        "a network, its maps and their stretch plans belong to one phase tuple",
    ),
    (
        "oracle-stamp-every-substep",
        "oracle.py",
        "if key not in self._networks:",
        "if True:",
        "each (phase tuple, method) network is stamped once per run",
    ),
    (
        "oracle-fast-path-blocked",
        "oracle.py",
        "if not monitored and not k:",
        "if not monitored:",
        "a stretch with a blocked basic diode watches its forward bias",
    ),
    (
        "oracle-fast-path-monitored",
        "oracle.py",
        "if not monitored and not k:",
        "if not k:",
        "a stretch with a conducting diode watches its current's zero crossing",
    ),
    (
        "oracle-sample-copies",
        "oracle.py",
        "name, unit, times, out[:, k], steps",
        "name, unit, times, out[:, k].copy(), steps",
        "every signal is a view of the run's one sample array",
    ),
    (
        "_USAGE_EXIT",
        "cli.py",
        "_USAGE_EXIT = 1",
        "_USAGE_EXIT = 4",
        "a usage error, a bad --t-end among them, exits 1",
    ),
    (
        "_NETLIST_EXIT",
        "cli.py",
        "_NETLIST_EXIT = 2",
        "_NETLIST_EXIT = 4",
        "a netlist or validation error exits 2",
    ),
    (
        "_NUMERIC_EXIT",
        "cli.py",
        "_NUMERIC_EXIT = 3",
        "_NUMERIC_EXIT = 4",
        "a numerical failure exits 3",
    ),
    (
        "kind-names-sources",
        "netlist.py",
        'VDC = "VDC"\nIDC = "IDC"',
        'VDC = "IDC"\nIDC = "VDC"',
        "a VDC line is a voltage source and an IDC line a current source",
    ),
    (
        "kind-names-passives",
        "netlist.py",
        'RES = "R"\nCAP = "C"',
        'RES = "C"\nCAP = "R"',
        "an R line is a resistor and a C line a capacitor",
    ),
    (
        "kind-names-basic",
        "netlist.py",
        'SCN = "SCN"\nSCD = "SCD"',
        'SCN = "SCD"\nSCD = "SCN"',
        "an SCD line is a diode cell, which may enter DCM, and an SCN line a"
        " synchronous one",
    ),
    (
        "kind-names-flyback",
        "netlist.py",
        'FBN = "FBN"\nFBD = "FBD"',
        'FBN = "FBD"\nFBD = "FBN"',
        "an FBD line is a diode flyback cell and an FBN line a synchronous one",
    ),
    (
        "CELL_KINDS",
        "netlist.py",
        "CELL_KINDS = (SCN, SCD, FBN, FBD)",
        "CELL_KINDS = (SCN, SCD, FBN)",
        "an FBD element is a cell",
    ),
    (
        "FLYBACK_KINDS",
        "netlist.py",
        "FLYBACK_KINDS = (FBN, FBD)",
        "FLYBACK_KINDS = (FBN, FBD, SCD)",
        "an SCD cell is a basic cell, with no turns ratio on its line",
    ),
    (
        "DIODE_KINDS",
        "netlist.py",
        "DIODE_KINDS = (SCD, FBD)",
        "DIODE_KINDS = (SCD,)",
        "an FBD cell has a diode and may enter DCM",
    ),
    (
        "_PARAM_KEYS",
        "netlist.py",
        '_PARAM_KEYS = ("D", "fs", "tend")',
        '_PARAM_KEYS = ("D", "fs", "tend", "L")',
        "a .param key other than D, fs and tend is refused",
    ),
    (
        "whole-period-looser",
        "engine.py",
        "1e-9 * periods",
        "1e-8 * periods",
        "a t_end that misses a whole period count by 2e-9 of it is refused",
    ),
    (
        "whole-period-tighter",
        "engine.py",
        "1e-9 * periods",
        "2e-10 * periods",
        "a t_end that misses a whole period count by 5e-10 of it is accepted",
    ),
    (
        "dangling-cell-terminal",
        "netlist.py",
        "if node and e and e.is_cell:",
        "if False:",
        "a cell terminal on a node no other element touches is a diagnostic",
    ),
    (
        "dangling-any-element",
        "netlist.py",
        "if node and e and e.is_cell:",
        "if node and e:",
        "a resistor alone on a node is no diagnostic",
    ),
    (
        "waveform-rest-mask",
        "waveform.py",
        "t_end > t_zero],",
        "t_end >= t_zero],",
        "a CCM period, whose t_zero is its t_end, has no rest piece",
    ),
    (
        "_MODES",
        "engine.py",
        "_MODES = (_cells.Mode.CCM, _cells.Mode.DCM)",
        "_MODES = (_cells.Mode.DCM, _cells.Mode.CCM)",
        "a record's mode is CCM where its dcm column is false",
    ),
    (
        "_CONDUCTANCE",
        "mna.py",
        "(_A, _T1, _T0, ~_K))",
        "(_A, _T1, _T0, _K))",
        "a conductance stamps -G off its diagonal both ways",
    ),
    (
        "_STAMPS",
        "mna.py",
        "IDC: ((_B, _T0, _COL, ~_K), (_B, _T1, _COL, _K)),",
        "IDC: ((_B, _T0, _COL, _K), (_B, _T1, _COL, ~_K)),",
        "an IDC extracts its current from n+ and returns it at n-",
    ),
]

# Mutants that no test can kill, because nothing a run returns or raises
# depends on them, each with the reason.  They are run like the others, and
# one that a test kills is reported, since it no longer belongs here.
EQUIVALENT = [
    (
        "end-currents-clamp-at-zero",
        "cells.py",
        "diode[i] and iL2 < 0.0)",
        "diode[i] and iL2 <= 0.0)",
        "an end current of 0.0 or -0.0 snaps to zero before the clamp is"
        " tested, so end_currents makes it 0.0 either way",
    ),
    (
        "STRETCH",
        "engine.py",
        "STRETCH = 64",
        "STRETCH = 65",
        "STRETCH only bounds how many stepped periods wait as lists before they"
        " are written to the rows; the residuals are checked at the end of the"
        " run all the same, so every result column and RunStats field is the"
        " same (compare_trees.py: 0 mismatches at 65)",
    ),
    (
        "_CHUNK_ROWS",
        "cli.py",
        "_CHUNK_ROWS = 512",
        "_CHUNK_ROWS = 511",
        "_CHUNK_ROWS only groups the CSV rows one format call writes: every row"
        " is the same text, so every file is the same bytes",
    ),
    (
        "oracle-doubling-matmul",
        "oracle.py",
        "np.dot(S[:take], self._powers[j], out=S[done : done + take])",
        "np.matmul(S[:take], self._powers[j], out=S[done : done + take])",
        "np.dot and np.matmul make the same BLAS product here, so every sample"
        " keeps its bits (compare_trees.py: 0 mismatches); np.dot costs less"
        " per call",
    ),
    (
        "_KEYWORDS",
        "netlist.py",
        "_KEYWORDS = sorted(_KINDS, key=len, reverse=True)",
        "_KEYWORDS = sorted(_KINDS, key=len)",
        "no kind keyword is a prefix of another, so at most one matches a"
        " token and their order picks nothing; longest first keeps that so"
        " for a keyword added later",
    ),
]


def copy_tree(source, tree):
    """Copy what Tier-1 reads from ``source`` to ``tree``."""
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".perfbench")
    for item in COPIED:
        if (source / item).is_dir():
            shutil.copytree(source / item, tree / item, ignore=ignore)
        else:
            shutil.copy2(source / item, tree / item)


def stale(snapshot, rows):
    """The names of the ``rows`` whose old text does not occur exactly once
    in its file of ``snapshot``."""
    return [name for name, file, old, *_ in rows
            if (snapshot / "src" / "avgcell" / file).read_text().count(old) != 1]


def run_tier1(snapshot, mutant=None):
    """(passed, first failing test) of Tier-1 in a copy of ``snapshot``
    with ``mutant`` = (file, old, new) applied, if one is given."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        copy_tree(snapshot, tree)
        if mutant:
            file, old, new = mutant
            path = tree / "src" / "avgcell" / file
            path.write_text(path.read_text().replace(old, new))
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
            cwd=tree, env=dict(os.environ, PYTHONPATH=str(tree / "src")),
            capture_output=True, text=True,
        )
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.MULTILINE)
    return done.returncode == 0, failed.group(1) if failed else done.stdout[-300:]


def main(argv):
    catalogue = [(row, False) for row in MUTANTS] + [(row, True) for row in EQUIVALENT]
    rows = [(row, equivalent) for row, equivalent in catalogue if not argv or row[0] in argv]
    if argv and len(rows) != len(set(argv)):
        known = [row[0] for row, _ in catalogue]
        sys.exit(f"unknown mutant among {argv}; known: {known}")
    with tempfile.TemporaryDirectory() as tmp:
        snapshot = Path(tmp)
        copy_tree(ROOT, snapshot)
        names = stale(snapshot, [row for row, _ in rows])
        if names:
            sys.exit(f"old text not found exactly once in its file: {', '.join(names)}")
        passed, first = run_tier1(snapshot)
        if not passed:
            sys.exit(f"Tier-1 fails on the unmutated tree: {first}")
        wrong = 0
        for (name, file, old, new, why), equivalent in rows:
            passed, first = run_tier1(snapshot, (file, old, new))
            wrong += passed != equivalent
            if equivalent:
                verdict = "equivalent" if passed else f"KILLED, not equivalent, by {first}"
            else:
                verdict = "SURVIVED" if passed else f"killed by {first}"
            print(f"{name:22} {verdict}  ({why})", flush=True)
    print(f"{len(rows)} mutants, {wrong} survived or not equivalent")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
