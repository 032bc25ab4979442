"""Seeded generator of parallel multi-stage converter netlists.

Every circuit has one input source on node 1 and one converter stage per
entry of ``kinds`` in parallel on it; stage k drives its own output node
k + 1 with its own capacitor and load.  The program only ever sees the netlist text, which
carries a ``.param`` line with the duty ratio, switching frequency and a
transient length of exactly ``n_periods`` switching periods.

The stage count and stage kinds are fixed by the caller, so every seed gives
a workload of the same shape and cost; the seed draws only the component
values.  That keeps run-to-run timing spread small across seeds.
"""

import math
import random

FLYBACK = ("FBN", "FBD")


def _header(rng, n_periods):
    duty = rng.uniform(0.3, 0.7)
    f_s = rng.uniform(50e3, 250e3)
    t_end = n_periods / f_s
    v_in = rng.uniform(8.0, 48.0)
    return duty, f_s, v_in, [
        f".param D={duty!r} fs={f_s!r} tend={t_end!r}",
        f"VDC 1 1 0 {v_in!r}",
    ]


def _stage(k, kind, inductance, turns, capacitance, load, v0=0.0):
    out = k + 1
    if kind in FLYBACK:
        cell = f"{kind} {k} 1 0 {out} {inductance!r} {turns!r} 0"
    else:
        cell = f"{kind} {k} 1 0 {out} {inductance!r} 0"
    return [cell, f"C {k} {out} 0 {capacitance!r} {v0!r}", f"R {k} {out} 0 {load!r}"]


def heavy_load(seed, kinds, n_periods):
    """Heavily loaded stages; with synchronous cells (SCN, FBN) every
    period is in continuous conduction."""
    rng = random.Random(seed)
    *_, lines = _header(rng, n_periods)
    for k, kind in enumerate(kinds, start=1):
        lines += _stage(
            k,
            kind,
            rng.uniform(5e-6, 50e-6),
            rng.uniform(0.5, 3.0),
            rng.uniform(20e-6, 220e-6),
            rng.uniform(1.0, 10.0),
        )
    return "\n".join(lines) + "\n"


def light_load(seed, kinds, n_periods):
    """Diode stages loaded lightly enough to settle in discontinuous
    conduction.

    The load is set from the conduction parameter K = 2 L f_s / R, drawn
    at 5-40 % of its critical value (1 - D for the basic cell,
    ((1 - D) / n)^2 for the flyback of turns ratio n).  The output starts at 85-97 % of its DCM steady-state
    voltage, so the stage conducts discontinuously from the first periods
    instead of after a start-up whose length depends on the values.  The
    output time constant R C spans 100-400 periods, so the output keeps
    drifting over the run and d_p changes every period.
    """
    rng = random.Random(seed)
    duty, f_s, v_in, lines = _header(rng, n_periods)
    for k, kind in enumerate(kinds, start=1):
        inductance = rng.uniform(5e-6, 50e-6)
        turns = rng.uniform(0.5, 2.0)
        if kind in FLYBACK:
            k_cond = rng.uniform(0.05, 0.4) * ((1.0 - duty) / turns) ** 2
            ratio = duty / math.sqrt(k_cond)
        else:
            k_cond = rng.uniform(0.05, 0.4) * (1.0 - duty)
            ratio = 2.0 / (1.0 + math.sqrt(1.0 + 4.0 * k_cond / duty**2))
        load = 2.0 * inductance * f_s / k_cond
        capacitance = rng.uniform(100.0, 400.0) / (load * f_s)
        v0 = rng.uniform(0.85, 0.97) * ratio * v_in
        lines += _stage(k, kind, inductance, turns, capacitance, load, v0)
    return "\n".join(lines) + "\n"


def kinds_for(stages, choices, offset=0):
    """Stage kinds cycling through ``choices``: a fixed mix per stage count."""
    return [choices[(k + offset) % len(choices)] for k in range(stages)]
