"""Command line front end: load a netlist, simulate, emit CSV and stats.

Outputs written to the --out directory:

* ``averaged.csv``       one row per period (plus the initial state row)
* ``instantaneous.csv``  reconstructed waveforms at their breakpoints
* ``stats.txt``          mean/min/max/rms per signal over the stats window
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

from . import engine, oracle, waveform
from .cells import Mode, avg_inductor_current
from .mna import SingularSystem
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
    diagnostics = validate(circuit)
    if diagnostics:
        for diag in diagnostics:
            print(f"error: {args.netlist}: {diag}", file=sys.stderr)
        return _NETLIST_EXIT

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

    try:
        config = engine.SimConfig(duty, f_s, t_end, dcm_refine=args.dcm_refine)
        if config.n_periods < 1:
            raise engine.InvalidConfig("run covers no complete switching period")
        if not 0.0 < args.stats_window <= 1.0:
            raise engine.InvalidConfig("stats window fraction must be in (0, 1]")
        oracle_config = (
            oracle.OracleConfig(args.oracle_substeps) if args.oracle else None
        )
    except engine.InvalidConfig as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return _USAGE_EXIT

    try:
        result = engine.run(circuit, config)
    except engine.InvalidCircuit as exc:
        print(f"error: {args.netlist}: {exc}", file=sys.stderr)
        return _NETLIST_EXIT
    except SingularSystem as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _NUMERIC_EXIT

    waveforms, flagged = _reconstruct(result)
    selected = _filter_signals(waveforms, args.signals)
    if not selected:
        print("error: no signals matched the --signals filter", file=sys.stderr)
        return _NETLIST_EXIT

    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        write_averaged_csv(result, out_dir / "averaged.csv")
        write_instantaneous_csv(selected, flagged, out_dir / "instantaneous.csv")
        # The run covers whole periods, which may end before --t-end.
        t_to = config.n_periods * config.T_s
        t_from = t_to * (1.0 - args.stats_window)
        write_stats(selected, t_from, t_to, out_dir / "stats.txt")
        if args.oracle:
            try:
                sampled = oracle.simulate_switched(circuit, config, oracle_config)
            except SingularSystem as exc:
                print(f"error: oracle: {exc}", file=sys.stderr)
                return _NUMERIC_EXIT
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
    if not patterns:
        return list(waveforms)
    globs = [p.strip() for p in patterns.split(",") if p.strip()]
    return [w for w in waveforms if any(fnmatch(w.name, g) for g in globs)]


def _fmt(x):
    return format(x, ".17g")


def write_averaged_csv(result, path):
    layout_nodes = sorted(n for n in result.circuit.node_ids if n != 0)
    vdc_labels = [e.label for e in result.circuit.vdcs()]
    cell_labels = [e.label for e in result.circuit.cells()]
    header = ["n", "t_start"]
    header += [f"v({n})" for n in layout_nodes]
    header += [f"i({label})" for label in vdc_labels]
    for label in cell_labels:
        header += [
            f"{label}:iS_avg",
            f"{label}:iD_avg",
            f"{label}:iL0",
            f"{label}:iL2",
            f"{label}:mode",
            f"{label}:d_p",
        ]

    def row_for(n, record):
        row = [str(n), _fmt(record.t_start)]
        row += [_fmt(record.node_voltages[node]) for node in layout_nodes]
        row += [_fmt(record.vdc_currents[label]) for label in vdc_labels]
        for label in cell_labels:
            state = record.cells[label]
            row += [
                _fmt(state.iS_avg),
                _fmt(state.iD_avg),
                _fmt(state.iL0),
                _fmt(state.iL2),
                "1" if state.mode is Mode.DCM else "0",
                _fmt(state.d_p),
            ]
        return row

    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerow(row_for(0, result.bootstrap))
        for record in result.records:
            writer.writerow(row_for(record.index + 1, record))


def write_instantaneous_csv(waveforms, flagged, path):
    times = sorted({t for w in waveforms for t in w.breakpoints()})
    with open(path, "w", newline="") as handle:
        for name in sorted(flagged):
            handle.write(f"# {name}: {flagged[name]}\n")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["t"] + [w.name for w in waveforms])
        for t in times:
            writer.writerow([_fmt(t)] + [_fmt(w.value(t)) for w in waveforms])


def write_stats(waveforms, t_from, t_to, path):
    with open(path, "w") as handle:
        handle.write(f"# window [{_fmt(t_from)}, {_fmt(t_to)}] s\n")
        for wave in waveforms:
            s = waveform.stats(wave, t_from, t_to)
            handle.write(
                f"{wave.name} mean={s.mean:.9g} min={s.min:.9g} "
                f"max={s.max:.9g} rms={s.rms:.9g}\n"
            )


def write_oracle_csv(sampled, patterns, path):
    columns = [s for _, s in sorted(sampled.items())]
    if patterns:
        globs = [p.strip() for p in patterns.split(",") if p.strip()]
        filtered = [s for s in columns if any(fnmatch(s.name, g) for g in globs)]
        if filtered:
            columns = filtered
    times = columns[0].times
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["t"] + [s.name for s in columns])
        for k in range(len(times)):
            writer.writerow(
                [_fmt(times[k])] + [_fmt(s.values[k]) for s in columns]
            )


def write_compare(result, sampled, path):
    """Per-signal maximum deviation of the per-period averages, relative to
    the oracle's full-scale value."""
    d = result.config.d
    comparisons = []
    for node in sorted(n for n in result.circuit.node_ids if n != 0):
        name = f"v({node})"
        model = [r.node_voltages[node] for r in result.records]
        comparisons.append((name, model))
    for e in result.circuit.vdcs():
        comparisons.append(
            (f"i({e.label})", [r.vdc_currents[e.label] for r in result.records])
        )
    for e in result.circuit.cells():
        model = [
            avg_inductor_current(r.cells[e.label], d) for r in result.records
        ]
        comparisons.append((f"iL({e.label})", model))

    with open(path, "w") as handle:
        handle.write(
            "# max |model - oracle| per-period average, relative to the "
            "oracle's full scale\n"
        )
        for name, model in comparisons:
            wave = sampled.get(name)
            if wave is None:
                continue
            scale = max(float(abs(wave.values).max()), 1e-12)
            worst = 0.0
            for n, value in enumerate(model):
                reference = oracle.period_average(wave, n)
                worst = max(worst, abs(value - reference) / scale)
            handle.write(f"{name} max_rel_dev={worst:.6g}\n")
