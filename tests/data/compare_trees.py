"""Compare the engine's bits in this tree with another tree's.

Usage, from the repository root:

    python3 tests/data/compare_trees.py OTHER_SRC

``OTHER_SRC`` is the ``src`` directory of another checkout, for instance
of the parent commit.  The script runs itself in a subprocess under each
tree's ``PYTHONPATH`` and, for every case of ``engine_reference.json``
(plain and with ``dcm_refine``, as recorded) and of ``generated_runs()``
(``perfbench/circuits.py``: ``heavy_load`` SCN/FBN over 300 periods and
``light_load`` SCD/FBD over 40, seeds 1-3, one to fifteen stages, plain
and with ``dcm_refine``, as the benchmark's ``ccm_transient`` and
``dcm_transient`` jobs build them, and ``light_load`` over 200 periods at
one, eight and fifteen stages), takes sha256 digests of:

* ``assemble_system``'s A, B, E and every cell's diode row, as (rd, cols,
  ra, rb) over its real columns (``_diode_rows``), at the case's d and at
  d = 1, each with every d_p at 1 - d, at 0.3 and at 0, and the outcome of
  ``lu_factor`` on each A ("ok", or its ``SingularSystem`` message);
* the ``RowUpdate`` of a stepper built for the case, its tables ``_raw``,
  ``_rbw``, ``_magnitude`` and ``_lone`` and its ``R``, and the stepper's
  ``Q``, which the run's columns reach only through rounding;
* every column of ``run()``'s result and every ``RunStats`` field, its
  bootstrap record, and the five arrays of every cell's
  ``inductor_waveform``.

It also digests ``lu_factor``'s outcome on every matrix of
``LU_MATRICES``: the singular and edge cases of ``tests/test_mna.py``, and
the A of a netlist with two voltage sources in parallel.

It also digests every signal ``simulate_switched`` samples for every case
of ``oracle_reference.json`` and for the generated circuits of
``generated_circuits()`` (``perfbench/circuits.py``: seeds 1-3, one to
eight stages, four kind mixes), each at 1000 and at 137 substeps per
period, and
the codes and texts of the diagnostics ``validate`` gives each netlist of
``BAD_NETLISTS``, with the message and diagnostics of the ``InvalidCircuit``
that ``run()`` and ``simulate_switched`` raise on it.  The circuits of
``bad_circuits()`` (built in code, or text with a fault the parser once
raised) are digested the same way in a case of their own, ``bad-circuits``,
where any exception, a raw one included, is an outcome to digest.  The
circuits of ``edited_circuits()`` (a netlist's element list edited in code)
are digested in the case ``edited-circuits``, the same way over 20 periods,
where an accepted run is digested by its result columns or samples.

It prints one line per case, with one digest per group of fields (the
assembly and the run of an engine case, each substep count of an oracle
case), and exits 1 if any field differs, naming the case and the field.
It writes no file.  A change meant to keep the output bit for bit passes
it against its parent; a change that moves bits on purpose does not.

For a change that moves bits on purpose, ask how far:

    python3 tests/data/compare_trees.py --deviation OTHER_SRC

prints, for every case and every float column of ``run()``'s result, the
largest |this - other| over the column's full scale (each signal of a
two-dimensional column, such as one row of ``x``, on its own scale: its
largest |value| in the other tree, as ``test_engine_parity.py`` scales),
and whether ``dcm`` is identical.  It prints the same for every signal
``simulate_switched`` samples, one line per oracle case and substep count,
each signal on its own full scale, and last the largest of those.  It
exits 1 if any case's ``dcm`` differs.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

DATA = Path(__file__).resolve().parent
SRC = DATA.parents[1] / "src"
sys.path.insert(0, str(DATA.parents[1]))  # for perfbench.circuits

from perfbench import circuits  # noqa: E402

COLUMNS = ("x", "v_cap", "vL1", "vL2", "i0_next", "iL0", "iL1", "iL2", "d_p", "dcm")
ORACLE_SUBSTEPS = (1000, 137)

_BUCK = "VDC 1 1 0 10.0\nSCN1 1 1 0 2 10e-6 0\nC 1 2 0 1e-4 0\nR 1 2 0 5.0\nIDC 1 2 0 4.0\n"
_FLYBACK = _BUCK.replace("SCN1 1 1 0 2 10e-6 0", "FBN1 1 1 0 2 10e-6 2.0 0")
# Netlists that validate() rejects: each rule at 0 and below it, and one
# netlist that breaks most rules at once, so that their order counts too.
BAD_NETLISTS = {
    **{
        f"{what}={value}": text.replace(old, new.format(value))
        for what, text, old, new in (
            ("resistance", _BUCK, "R 1 2 0 5.0", "R 1 2 0 {}"),
            ("capacitance", _BUCK, "C 1 2 0 1e-4 0", "C 1 2 0 {} 0"),
            ("inductance", _BUCK, "SCN1 1 1 0 2 10e-6 0", "SCN1 1 1 0 2 {} 0"),
            ("turns", _FLYBACK, "FBN1 1 1 0 2 10e-6 2.0 0", "FBN1 1 1 0 2 10e-6 {} 0"),
        )
        for value in ("0", "-1e-300", "-2.5")
    },
    "shorted-capacitor": _BUCK + "C 9 2 2 1e-6 0\n",
    "voltage-source-loop": _BUCK + "VDC 2 1 0 5.0\n",
    "current-source-cutset": _BUCK + "IDC 2 3 0 1.0\n",
    "no-switching-cell": "VDC 1 1 0 10.0\nR 1 1 0 5.0\n",
    "all-at-once": (
        "VDC 1 1 0 10.0\nVDC 2 1 0 5.0\nFBD1 1 1 0 2 0 0 0\nSCD2 2 1 0 3 -1e-6 0\n"
        "C 1 2 0 0 0\nC 2 3 3 -1 0\nR 1 2 0 -5\nR 2 3 0 0\nIDC 1 4 0 1.0\n"
    ),
}


_UNGROUNDED = "SCN 1 1 2 3 10e-6 0\nR 1 1 3 5.0\n"
_DISCONNECTED = "SCN 1 1 0 2 10e-6 0\nR 1 3 4 5.0\n"


def bad_circuits():
    """{name: function that builds the circuit} of circuits that no netlist
    text can give (a basic cell with turns ratio 2, a duplicate label, a NaN
    inductance, an infinite source), and of ungrounded and disconnected text,
    which goes through ``parse_netlist`` and then ``validate``."""
    from dataclasses import replace

    from avgcell import parse_netlist

    def buck(label, **changes):
        circuit = parse_netlist(_BUCK)
        circuit.elements = [replace(e, **changes) if e.label == label else e
                            for e in circuit.elements]
        return circuit

    def twice():
        circuit = parse_netlist(_BUCK)
        circuit.elements.append(replace(circuit.element("C1"), value=1e-5))
        return circuit

    return {
        "basic-turns=2": lambda: buck("SCN1", turns=2.0),
        "duplicate-label": twice,
        "nan-inductance": lambda: buck("SCN1", kind="SCD", value=float("nan")),
        "inf-source": lambda: buck("VDC1", value=float("inf")),
        "ungrounded": lambda: parse_netlist(_UNGROUNDED),
        "disconnected": lambda: parse_netlist(_DISCONNECTED),
    }


# A resistor and a capacitor from node 2 to a new node 7.
_NODE_7 = "R 9 2 7 10.0\nC 9 7 0 1e-5 0\n"


def edited_circuits():
    """{name: function that builds the circuit} of circuits edited in code:
    the buck with the elements of ``_NODE_7`` appended, and the buck parsed
    with them and then stripped of them again."""
    from avgcell import parse_netlist

    def appended():
        circuit = parse_netlist(_BUCK)
        circuit.elements += parse_netlist(_NODE_7).elements
        return circuit

    def removed():
        circuit = parse_netlist(_BUCK + _NODE_7)
        del circuit.elements[-2:]
        return circuit

    return {"appended-node": appended, "removed-node": removed}


def _outcome(build, simulator, t_end=1e-5, accepted=lambda result: "accepted"):
    """What ``simulator`` (``validate``, ``run`` or ``simulate_switched``)
    makes of the circuit ``build()`` returns over ``t_end`` at 100 kHz: the
    diagnostics, ``accepted`` of the result, or the type and text of the
    exception raised on the way."""
    from avgcell import InvalidCircuit, SimConfig, validate

    try:
        circuit = build()
        if simulator is validate:
            return [(d.code, d.message) for d in validate(circuit)]
        return accepted(simulator(circuit, SimConfig(0.5, 100e3, t_end)))
    except InvalidCircuit as exc:
        return (str(exc), [(d.code, d.message) for d in exc.diagnostics])
    except Exception as exc:  # a raw exception is an outcome too
        return f"{type(exc).__name__}: {exc}"


_PIVOT_EDGE = 1e-13 * 2.0
# Matrices whose lu_factor verdicts are pinned: TestSolver's, the pivot at
# PIVOT_RTOL and the next float up, a magnitude tie the first row wins, a
# fill-in that becomes a pivot, and eliminations that overflow.
LU_MATRICES = {
    "identity": [[1.0]],
    "zero-diagonal": [[0.0, 1.0], [1.0, 0.0]],
    "singular": [[1.0, 2.0], [2.0, 4.0]],
    "nan-pivot": [[float("nan"), 1.0], [1.0, 1.0]],
    "nan-elsewhere": [[1.0, float("nan")], [1.0, 1.0]],
    "inf": [[1.0, 0.0], [float("inf"), 1.0]],
    "pivot-edge": [[2.0, 0.0], [2.0, _PIVOT_EDGE]],
    "pivot-edge-up": [[2.0, 0.0], [2.0, 2.0000000000000004e-13]],
    "tie": [[1.0, 0.0], [1.0, 1e14]],
    "fill-in-pivot": [[1.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
    "overflow": [[5e307, 5e307, 0.0, -1e308], [1.0, 0.0, -1e308, 0.0],
                 [0.0, 0.0, -1e308, 1e308], [1e308, 5e307, 1e308, 1.7e308]],
    "overflow-nan-pivot": [[-1e308, -1e308, 1e308, 1.7e308], [5e307, 2.0, -1e308, 2.0],
                           [-3e307, 1.7e308, 0.0, -1e308], [-1e308, 1.7e308, 0.0, 2.0]],
    "overflow-5": [[-1e308, -1e308, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0, -1e308],
                   [-1e308, -1e308, 0.0, -1e308, 0.0],
                   [1.7e308, -1.0, 1.7e308, 1.7e308, -1e308],
                   [1.7e308, 1e308, 0.0, 1.7e308, 1e308]],
}
PARALLEL_VDC = "VDC 1 1 0 10.0\nVDC 2 1 0 5.0\nSCN 1 1 0 2 1e-5 0\nR 1 2 0 5.0\n"


def _lu_outcome(A):
    """"ok", or the message of the SingularSystem ``lu_factor`` raises."""
    import numpy as np
    from avgcell.mna import SingularSystem, lu_factor

    try:
        with np.errstate(all="ignore"):
            lu_factor(A)
    except SingularSystem as exc:
        return str(exc)
    return "ok"


def _digest(value):
    if hasattr(value, "tobytes"):
        data = f"{value.dtype}{value.shape}".encode() + value.tobytes()
    else:
        data = repr(value).encode()  # repr tells every float apart
    return hashlib.sha256(data).hexdigest()


# (generator, kind mix, periods) of the generated engine cases, built as
# perfbench/jobs.py builds the circuits of ccm_transient and dcm_transient.
GENERATED_RUNS = (
    (circuits.heavy_load, ("SCN", "FBN"), 300),
    (circuits.light_load, ("SCD", "FBD"), 40),
)


# (stage counts, periods) of the long light-load cases: more stepped
# periods in a row than engine.STRETCH, so that a multi-cell circuit's
# stepped rows are also written out in the middle of a run.
LONG_LIGHT_LOAD = ((1, 8, 15), 200)


def generated_runs():
    """{case name: (netlist text, dcm_refine)} of the generated engine
    cases: seeds 1-3, one to fifteen stages, plain and with ``dcm_refine``,
    and the ``LONG_LIGHT_LOAD`` runs of the same light-load circuits."""
    runs = {
        f"run:{make.__name__}:{'/'.join(mix)}:seed={seed}:stages={k}{':refine' * refine}": (
            make(seed * 100 + k, circuits.kinds_for(k, mix, seed), periods), refine
        )
        for make, mix, periods in GENERATED_RUNS
        for seed in (1, 2, 3)
        for k in range(1, 16)
        for refine in (False, True)
    }
    stages, periods = LONG_LIGHT_LOAD
    mix = ("SCD", "FBD")
    runs.update({
        f"run:light_load:SCD/FBD:seed={seed}:stages={k}:periods={periods}{':refine' * refine}": (
            circuits.light_load(seed * 100 + k, circuits.kinds_for(k, mix, seed), periods), refine
        )
        for seed in (1, 2, 3)
        for k in stages
        for refine in (False, True)
    })
    return runs


# Two SCD cascades in parallel on one source: at d = 0.4 each cascade's
# two diode rows are coupled, no row is alone, and up to four rows move in
# a period, so the row update solves two coupled groups in one system.
TWO_GROUPS = (
    "VDC 1 1 0 20.0\n"
    "SCD 1 1 0 2 10e-6 0\nC 1 2 0 1e-4 0\nR 1 2 0 50.0\n"
    "SCD 2 2 0 3 10e-6 0\nC 2 3 0 1e-4 0\nR 2 3 0 50.0\n"
    "SCD 3 1 0 4 10e-6 0\nC 3 4 0 1e-4 0\nR 3 4 0 50.0\n"
    "SCD 4 4 0 5 10e-6 0\nC 4 5 0 1e-4 0\nR 4 5 0 50.0\n"
)

# A synchronous buck on a 0 V source: every end current snaps to zero, so
# every CCM block fails at its first row and every period is stepped.
ZERO_SOURCE = "VDC 1 1 0 0.0\nSCN1 1 1 0 2 10e-6 0\nC 1 2 0 1e-4 0\nR 1 2 0 5.0\n"


# buck_dcm.net with its capacitor precharged to 8 V and its inductor started
# at -0.5 A: the bootstrap's drive voltages put period 0 in DCM, which
# starts the cell at zero.
PRECHARGED = "VDC 1 1 0 10.0\nSCD1 1 1 0 2 10e-6 -0.5\nC 1 2 0 1e-4 8.0\nR 1 2 0 50.0\n"


def _runs():
    """(name, circuit, config, run() result) of every reference case, every
    case of ``generated_runs()``, ``TWO_GROUPS``, ``ZERO_SOURCE`` and
    ``PRECHARGED``, run by the tree on ``sys.path``."""
    from avgcell import SimConfig, parse_netlist, run

    cases = json.loads((DATA / "engine_reference.json").read_text())["cases"]
    for refine in (False, True):
        cases[f"two-groups{'+refine' * refine}"] = {
            "netlist": TWO_GROUPS, "d": 0.4, "f_s": 100e3, "t_end": 3e-3, "dcm_refine": refine}
    cases["zero-source"] = {
        "netlist": ZERO_SOURCE, "d": 0.5, "f_s": 100e3, "t_end": 3e-3, "dcm_refine": False}
    for refine in (False, True):
        cases[f"precharged{'+refine' * refine}"] = {
            "netlist": PRECHARGED, "d": 0.5, "f_s": 100e3, "t_end": 3e-3, "dcm_refine": refine}
    for name, (text, refine) in generated_runs().items():
        params = parse_netlist(text).params
        cases[name] = {"netlist": text, "d": params["D"], "f_s": params["fs"],
                       "t_end": params["tend"], "dcm_refine": refine}
    for name, case in cases.items():
        circuit = parse_netlist(case["netlist"])
        config = SimConfig(case["d"], case["f_s"], case["t_end"], case["dcm_refine"])
        yield name, circuit, config, run(circuit, config)


# (generator, kind mix) of the generated oracle cases: every period in CCM,
# and diode cells that block every period, among them basic cells only and
# synchronous cells beside them.  (A heavy load keeps diode cells in CCM,
# where they sample as their synchronous kind.)
GENERATED_MIXES = (
    (circuits.heavy_load, ("SCN", "FBN")),
    (circuits.light_load, ("SCD", "FBD")),
    (circuits.light_load, ("SCD",)),
    (circuits.light_load, ("SCD", "SCN", "FBD", "FBN")),
)
GENERATED_PERIODS = 8


def generated_circuits():
    """{case name: netlist text} of the generated multi-stage circuits."""
    return {
        f"gen:{make.__name__}:{'/'.join(mix)}:seed={seed}:stages={stages}": make(
            seed, circuits.kinds_for(stages, mix), GENERATED_PERIODS
        )
        for make, mix in GENERATED_MIXES
        for seed in (1, 2, 3)
        for stages in range(1, 9)
    }


def _oracle_runs():
    """(case, substeps, ``simulate_switched`` result) of every case of
    ``oracle_reference.json`` and of ``generated_circuits()`` at every count
    of ``ORACLE_SUBSTEPS``, run by the tree on ``sys.path``."""
    from avgcell import SimConfig, parse_netlist
    from avgcell.oracle import OracleConfig, simulate_switched

    cases = json.loads((DATA / "oracle_reference.json").read_text())["cases"]
    for name, text in generated_circuits().items():
        params = parse_netlist(text).params
        cases[name] = {"netlist": text, "d": params["D"], "f_s": params["fs"],
                       "periods": GENERATED_PERIODS}
    for name, case in cases.items():
        config = SimConfig(case["d"], case["f_s"], case["periods"] / case["f_s"])
        for steps in ORACLE_SUBSTEPS:
            circuit = parse_netlist(case["netlist"])
            yield f"oracle:{name}", steps, simulate_switched(circuit, config, OracleConfig(steps))


def _diode_rows(system):
    """Every cell's diode row as (rd, cols, ra, rb) over its real columns,
    read off ``MnaSystem.diode``, padded arrays, or in a tree that has no
    such arrays off ``MnaSystem.diode_rows``, one tuple per cell."""
    if hasattr(system, "diode_rows"):
        return [(r.row, r.cols, r.ra, r.rb) for r in system.diode_rows]
    rows = []
    for rd, cols, ra, rb in zip(*(a.tolist() for a in system.diode)):
        real = [k for k, c in enumerate(cols) if c != rd]  # a pad sits at rd
        rows.append((rd, *(tuple(a[k] for k in real) for a in (cols, ra, rb))))
    return rows


def digests():
    """{case: {field: digest}} of the tree on ``sys.path``."""
    from avgcell import InvalidCircuit, SimConfig, parse_netlist, run, validate
    from avgcell.engine import _Stepper
    from avgcell.mna import assemble_system
    from avgcell.oracle import simulate_switched
    from avgcell.waveform import inductor_waveform

    out = {}
    for name, circuit, config, result in _runs():
        labels = [e.label for e in circuit.cells()]
        fields = out[name] = {}
        for d in dict.fromkeys((config.d, 1.0)):
            for d_p in dict.fromkeys((1.0 - d, 0.3, 0.0)):
                system = assemble_system(circuit, d, 1.0 / config.f_s, dict.fromkeys(labels, d_p))
                at = f"assembly:d={d!r}:d_p={d_p!r}"
                for field in ("A", "B", "E"):
                    fields[f"{at}:{field}"] = _digest(getattr(system, field))
                fields[f"{at}:diode_rows"] = _digest(_diode_rows(system))
                fields[f"{at}:lu_factor"] = _digest(_lu_outcome(system.A))
        stepper = _Stepper(circuit, config, 1)
        # A tree whose RowUpdate has no diode row to move may set no table.
        for field in ("_raw", "_rbw", "_magnitude", "_lone", "R"):
            fields[f"update:{field}"] = _digest(getattr(stepper.update, field, []))
        fields["update:Q"] = _digest(stepper.Q)
        for column in COLUMNS + ("t_start",):
            fields[f"run:{column}"] = _digest(getattr(result, column))
        for stat in dataclasses.fields(result.stats):
            fields[f"run:stats.{stat.name}"] = _digest(getattr(result.stats, stat.name))
        fields["run:bootstrap"] = _digest(result.bootstrap)
        for label in labels:
            wave = inductor_waveform(result, label)
            for field, array in zip(("t0", "t1", "c0", "c1", "c2"), wave.arrays):
                fields[f"waveform:{label}:{field}"] = _digest(array)

    for name, steps, sampled in _oracle_runs():
        fields = out.setdefault(name, {})
        for signal, wave in sampled.items():
            fields[f"substeps={steps}:{signal}"] = _digest(wave.values)
        fields[f"substeps={steps}:times"] = _digest(wave.times)

    fields = out["lu_factor"] = {}
    parallel = parse_netlist(PARALLEL_VDC)
    system = assemble_system(parallel, 0.5, 1e-5, {"SCN1": 0.5})
    for name, A in {**LU_MATRICES, "parallel-vdc": system.A}.items():
        fields[f"outcome:{name}"] = _digest(_lu_outcome(A))

    fields = out["validate"] = {}
    for name, text in BAD_NETLISTS.items():
        circuit = parse_netlist(text)
        found = [(d.code, d.message) for d in validate(circuit)]
        fields[f"diagnostics:{name}"] = _digest(found)
        for simulator in (run, simulate_switched):
            try:
                simulator(circuit, SimConfig(0.5, 100e3, 1e-5))
                found = "accepted"
            except InvalidCircuit as exc:
                found = (str(exc), [(d.code, d.message) for d in exc.diagnostics])
            fields[f"{simulator.__name__}:{name}"] = _digest(found)

    fields = out["bad-circuits"] = {}
    for name, build in bad_circuits().items():
        for simulator in (validate, run, simulate_switched):
            fields[f"{simulator.__name__}:{name}"] = _digest(_outcome(build, simulator))

    def result(found):
        """The columns of a run() result, or the samples of an oracle run."""
        if isinstance(found, dict):
            return {name: _digest(wave.values) for name, wave in found.items()}
        return {column: _digest(getattr(found, column)) for column in COLUMNS}

    fields = out["edited-circuits"] = {}
    for name, build in edited_circuits().items():
        for simulator in (validate, run, simulate_switched):
            found = _outcome(build, simulator, 2e-4, result)
            fields[f"{simulator.__name__}:{name}"] = _digest(found)
    return out


def columns():
    """{case: {column: values as nested lists}} of the tree on ``sys.path``:
    the ``run()`` columns of every engine case, and each signal of every
    oracle case as the column ``substeps=<count>:<signal>``."""
    found = {
        name: {column: getattr(result, column).tolist() for column in COLUMNS}
        for name, _, _, result in _runs()
    }
    for name, steps, sampled in _oracle_runs():
        found.setdefault(name, {}).update(
            {f"substeps={steps}:{s}": wave.values.tolist() for s, wave in sampled.items()}
        )
    return found


def _tree(src, mode="--digests"):
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, __file__, mode], env=env, capture_output=True, text=True
    )
    if done.returncode:
        sys.exit(f"{src}: {mode} failed\n{done.stderr}")
    return json.loads(done.stdout)


def deviation(src):
    """Print how far this tree's columns are from those of ``src``."""
    import numpy as np

    def moved(column, new, old):
        """(text, deviation) of one column."""
        new, old = np.array(new), np.array(old)
        if new.shape != old.shape:
            return f"{column} shape {new.shape} != {old.shape}", np.inf
        scale = np.maximum(np.abs(old).max(axis=0, initial=0.0), 1e-30)
        gap = (np.abs(new - old) / scale).max(initial=0.0)
        return f"{column} {gap:.1e}", gap

    here, there = _tree(SRC, "--columns"), _tree(src, "--columns")
    differ, worst = 0, 0.0
    for name, found in here.items():
        if name.startswith("oracle:"):
            for steps in ORACLE_SUBSTEPS:
                prefix = f"substeps={steps}:"
                parts = [
                    moved(column[len(prefix):], found[column], there[name].get(column, []))
                    for column in found if column.startswith(prefix)
                ]
                worst = max([worst] + [gap for _, gap in parts])
                print(f"{name:26} {prefix[:-1]:15} " + "  ".join(text for text, _ in parts))
            continue
        # The float columns; dcm is last.
        parts = [moved(c, found[c], there[name][c])[0] for c in COLUMNS[:-1]]
        same = found["dcm"] == there[name]["dcm"]
        differ += not same
        print(f"{name:26} " + "  ".join(parts) + f"  dcm {'identical' if same else 'DIFFERS'}")
    engine = sum(not name.startswith("oracle:") for name in here)
    print(f"{engine} engine cases, {differ} with dcm differing; {len(here) - engine} oracle"
          f" cases, their largest deviation {worst:.1e}")
    return 1 if differ else 0


def _combined(fields, prefix):
    joined = "".join(v for k, v in sorted(fields.items()) if k.startswith(prefix))
    return hashlib.sha256(joined.encode()).hexdigest()[:16]


def main(argv):
    if argv in (["--digests"], ["--columns"]):
        print(json.dumps(digests() if argv[0] == "--digests" else columns()))
        return 0
    if len(argv) == 2 and argv[0] == "--deviation":
        return deviation(Path(argv[1]).resolve())
    if len(argv) != 1:
        sys.exit(__doc__)
    here, there = _tree(SRC), _tree(Path(argv[0]).resolve())
    mismatches = 0
    for name, fields in here.items():
        other = there.get(name, {})
        differ = [f for f in fields if other.get(f) != fields[f]]
        verdict = "identical" if not differ else "DIFFERS"
        groups = dict.fromkeys(f.split(":")[0] for f in fields)
        print(
            f"{name:26} "
            + "  ".join(f"{g} {_combined(fields, g + ':')}" for g in groups)
            + f"  {len(fields)} fields {verdict}"
        )
        for field in differ:
            print(f"  mismatch: {name} {field}")
        mismatches += len(differ)
    print(f"{len(here)} cases, {mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
