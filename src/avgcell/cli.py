"""Command line front end: load a netlist, simulate, emit CSV and stats.

Outputs written to the --out directory:

* ``averaged.csv``       one row per period (plus the initial state row)
* ``instantaneous.csv``  reconstructed waveforms at their breakpoints
* ``stats.txt``          mean/min/max/rms per signal over the stats window,
                         which ends where the run does (``SimConfig.t_stop``)
* ``oracle.csv``         sampled switched waveforms (with --oracle)
* ``compare.txt``        averaged model vs oracle deviation (with --oracle)

Exit codes: 0 success, 1 usage error, 2 netlist or validation error,
3 numerical failure.
"""

import argparse
import csv
import sys
from fnmatch import fnmatch
from pathlib import Path

import numpy as np

from . import engine, waveform
from .cells import Mode, avg_inductor_current
from .errors import SingularSystem
from .netlist import NetlistError, parse_netlist, validate

_USAGE_EXIT = 1
_NETLIST_EXIT = 2
_NUMERIC_EXIT = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def build_parser():
    parser = _Parser(
        prog="avgcell",
        description="Averaged-model simulator for switching DC-DC converters.",
    )
    parser.add_argument("netlist", help="netlist file")
    parser.add_argument("-D", "--duty", type=float, help="duty ratio in (0, 1]")
    parser.add_argument("--fs", type=float, help="switching frequency [Hz]")
    parser.add_argument("--t-end", type=float, help="transient duration [s]")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument(
        "--signals",
        help="comma separated name patterns selecting reconstructed signals",
    )
    parser.add_argument(
        "--oracle", action="store_true", help="also run the switched-circuit oracle"
    )
    parser.add_argument("--oracle-substeps", type=int, default=1000)
    parser.add_argument(
        "--dcm-refine",
        action="store_true",
        help="re-solve each period once with d2 from the solved voltages",
    )
    parser.add_argument(
        "--stats-window",
        type=float,
        default=0.1,
        help="trailing fraction of the run used for statistics",
    )
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        print(parser.format_usage(), end="", file=sys.stderr)
        return _USAGE_EXIT

    try:
        text = Path(args.netlist).read_text()
    except OSError as exc:
        print(f"error: cannot read {args.netlist}: {exc}", file=sys.stderr)
        return _NETLIST_EXIT

    try:
        circuit = parse_netlist(text)
    except NetlistError as exc:
        print(f"error: {args.netlist}: {exc}", file=sys.stderr)
        return _NETLIST_EXIT

    try:
        diagnostics = validate(circuit)
        if diagnostics:
            raise engine.InvalidCircuit(diagnostics)
        duty = args.duty if args.duty is not None else circuit.params.get("D")
        f_s = args.fs if args.fs is not None else circuit.params.get("fs")
        t_end = args.t_end if args.t_end is not None else circuit.params.get("tend")
        missing = [
            flag
            for flag, value in (("-D", duty), ("--fs", f_s), ("--t-end", t_end))
            if value is None
        ]
        if missing:
            print(
                f"usage error: missing {', '.join(missing)} "
                "(no .param default in the netlist)",
                file=sys.stderr,
            )
            print(parser.format_usage(), end="", file=sys.stderr)
            return _USAGE_EXIT

        config = engine.SimConfig(duty, f_s, t_end, dcm_refine=args.dcm_refine)
        # The window ends with the run's last period, where its waveforms
        # end too; that may be before --t-end.
        t_to = config.t_stop
        t_from = t_to * (1.0 - args.stats_window)
        if not (0.0 < args.stats_window <= 1.0 and t_from < t_to):
            raise engine.InvalidConfig("stats window outside (0, 1] or empty")
        if args.oracle:
            from . import oracle  # imported only for a run that uses it

            oracle_config = oracle.OracleConfig(args.oracle_substeps)
        result = engine.run(circuit, config)
        waveforms, flagged = _reconstruct(result)
        selected = _filter_signals(waveforms, args.signals)
        if not selected:
            print("error: no signals matched the --signals filter", file=sys.stderr)
            return _NETLIST_EXIT
        # The oracle runs before anything is written, so that its failure
        # leaves no file behind.
        if args.oracle:
            try:
                sampled = oracle.simulate_switched(circuit, config, oracle_config)
            except SingularSystem as exc:
                raise SingularSystem(f"oracle: {exc}") from exc
    except engine.InvalidConfig as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except engine.InvalidCircuit as exc:
        for diag in exc.diagnostics:
            print(f"error: {args.netlist}: {diag}", file=sys.stderr)
        return _NETLIST_EXIT
    except (SingularSystem, waveform.NonFinite) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _NUMERIC_EXIT

    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        write_averaged_csv(result, out_dir / "averaged.csv")
        write_instantaneous_csv(selected, flagged, out_dir / "instantaneous.csv")
        write_stats(selected, t_from, t_to, out_dir / "stats.txt")
        if args.oracle:
            write_oracle_csv(sampled, args.signals, out_dir / "oracle.csv")
            write_compare(result, sampled, out_dir / "compare.txt")
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    return 0


def entry():
    sys.exit(main())


def _reconstruct(result):
    """Reconstructed waveforms for every cell current and capacitor voltage.

    Capacitors without a ripple model fall back to the interpolated
    averaged trace and are flagged in the CSV metadata.
    """
    waveforms = []
    flagged = {}
    # A value that overflows raises waveform.NonFinite, so numpy need not warn.
    with np.errstate(all="ignore"):
        for cell in result.circuit.cells():
            waveforms.append(waveform.inductor_waveform(result, cell.label))
        for cap in result.circuit.capacitors():
            try:
                wave = waveform.capacitor_waveform(result, cap.label)
            except waveform.TopologyNotSupported:
                wave = waveform.capacitor_average_waveform(result, cap.label)
                flagged[wave.name] = "averaged-only (no ripple model for this topology)"
            waveforms.append(wave)
    return waveforms, flagged


def _filter_signals(waveforms, patterns):
    """The signals whose name matches one of the comma separated globs in
    ``patterns``; every signal when ``patterns`` is empty."""
    if not patterns:
        return list(waveforms)
    globs = [p.strip() for p in patterns.split(",") if p.strip()]
    return [w for w in waveforms if any(fnmatch(w.name, g) for g in globs)]


# Rows go to the file this many at a time, so the text of a long run is
# never held at once.
_CHUNK_ROWS = 512


def _write_rows(handle, columns):
    """Equal-length numeric columns as CSV rows of '%.17g' fields, the text
    of ``format(x, ".17g")``; whole numbers print without a point."""
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    for k in range(0, len(columns[0]), _CHUNK_ROWS):
        chunk = np.column_stack([c[k:k + _CHUNK_ROWS] for c in columns])
        handle.write((row * len(chunk)) % tuple(chunk.ravel().tolist()))


def write_averaged_csv(result, path):
    layout = result.layout
    boot = result.bootstrap
    x = result.x
    # (header, the bootstrap's value, one value per period)
    columns = [("n", 0, np.arange(1, len(x) + 1))]
    columns.append(("t_start", boot.t_start, result.t_start))
    columns += [
        (f"v({node})", boot.node_voltages[node], x[:, row])
        for node, row in layout.node_row.items()
    ]
    columns += [
        (f"i({label})", boot.vdc_currents[label], x[:, row])
        for label, row in layout.vdc_row.items()
    ]
    for i, (label, (rs, rd)) in enumerate(layout.cell_rows.items()):
        state = boot.cells[label]
        columns += [
            (f"{label}:iS_avg", state.iS_avg, x[:, rs]),
            (f"{label}:iD_avg", state.iD_avg, x[:, rd]),
            (f"{label}:iL0", state.iL0, result.iL0[:, i]),
            (f"{label}:iL2", state.iL2, result.iL2[:, i]),
            (f"{label}:mode", state.mode is Mode.DCM, result.dcm[:, i]),
            (f"{label}:d_p", state.d_p, result.d_p[:, i]),
        ]
    with open(path, "w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerow([c[0] for c in columns])
        _write_rows(handle, [np.append(first, rest) for _, first, rest in columns])


def write_instantaneous_csv(waveforms, flagged, path):
    # Sorted and deduplicated as np.unique would, without its first-call
    # memory cost (~1.6 MB of resident set on numpy 2.4).
    times = np.sort(np.concatenate([w.breakpoints() for w in waveforms]))
    times = times[np.append(True, times[1:] != times[:-1])]
    with open(path, "w", newline="") as handle:
        for name in sorted(flagged):
            handle.write(f"# {name}: {flagged[name]}\n")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["t"] + [w.name for w in waveforms])
        _write_rows(handle, [times] + [w.values(times) for w in waveforms])


def write_stats(waveforms, t_from, t_to, path):
    with open(path, "w") as handle:
        handle.write("# window [%.17g, %.17g] s\n" % (t_from, t_to))
        for wave in waveforms:
            s = waveform.stats(wave, t_from, t_to)
            handle.write(
                f"{wave.name} mean={s.mean:.9g} min={s.min:.9g} "
                f"max={s.max:.9g} rms={s.rms:.9g}\n"
            )


def write_oracle_csv(sampled, patterns, path):
    columns = [s for _, s in sorted(sampled.items())]
    # A filter that matches no oracle signal keeps them all.
    columns = _filter_signals(columns, patterns) or columns
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["t"] + [s.name for s in columns])
        _write_rows(handle, [columns[0].times] + [s.values for s in columns])


def write_compare(result, sampled, path):
    """Per-signal maximum deviation of the per-period averages, relative to
    the oracle's full-scale value."""
    from . import oracle

    layout = result.layout
    x = result.x
    comparisons = [(f"v({k})", x[:, row]) for k, row in layout.node_row.items()]
    comparisons += [(f"i({k})", x[:, row]) for k, row in layout.vdc_row.items()]
    # The result's columns hold every cell's state, one row per period.
    iL = avg_inductor_current(result, result.config.d)
    comparisons += [(f"iL({k})", iL[:, i]) for i, k in enumerate(layout.cell_rows)]

    with open(path, "w") as handle:
        handle.write(
            "# max |model - oracle| per-period average, relative to the "
            "oracle's full scale\n"
        )
        for name, model in comparisons:
            wave = sampled[name]
            scale = max(float(abs(wave.values).max()), 1e-12)
            worst = 0.0
            for n, value in enumerate(model.tolist()):
                reference = oracle.period_average(wave, n)
                worst = max(worst, abs(value - reference) / scale)
            handle.write(f"{name} max_rel_dev={worst:.6g}\n")
