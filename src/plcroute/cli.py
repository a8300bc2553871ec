"""Command-line front end: generate channels, analyze, simulate, compare.

Matrix files are the comma-separated text that channel.save_matrix
writes, and every duration is a count of slots.  Subcommands write a
machine-readable JSON document with full-precision numbers via -o; the
text tables round for readability.  Exit codes: 0 success, 1 validation
or argument error, 2 internal error.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, fields
from functools import partial
from pathlib import Path

from . import __version__, channel, dlc, metrics, sfn
from .channel import ChannelSpec, ChannelSpecError, MatrixValidationError, PerMatrix
from .simulator import PROTOCOLS, SimConfig, simulate

DEFAULT_PACKET_BYTES = 64


class _Parser(argparse.ArgumentParser):
    # argument errors are validation errors (exit 1), not internal ones
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


# Options that several subcommands take, each declared once.  A subcommand
# names the ones it takes in its usage-line order, and may override a
# keyword, such as the --format choices.
_SHARED_OPTIONS = {
    "cycles": (("--cycles",), dict(type=_positive_int, default=1000)),
    "max_retries": (("--max-retries",),
                    dict(type=_nonnegative_int, default=2)),
    "max_level": (("--max-level",),
                  dict(type=_nonnegative_int, default=4,
                       help="repeater-address cap for dlc1000")),
    "seed": (("--seed",), dict(type=int, default=0)),
    "format": (("--format",),
               dict(choices=("text", "csv", "json"), default="text")),
    "output": (("-o", "--output"), dict(help="write the JSON document here")),
}


def _add_options(parser, *names: str, **overrides: dict) -> None:
    for name in names:
        flags, kwargs = _SHARED_OPTIONS[name]
        parser.add_argument(*flags, **{**kwargs, **overrides.get(name, {})})


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    def fmt(cells):
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))
    sep = "-" * (sum(widths) + 2 * (len(widths) - 1))
    return "\n".join([fmt(headers), sep, *(fmt(r) for r in rows)])


def _num(value) -> str:
    if value is None:
        return "unreachable"
    return f"{value:.4f}"


def _write_json(path: str | None, doc: dict) -> None:
    if path:
        Path(path).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def _manifest(**entries) -> dict:
    return {"tool": "plcroute", "version": __version__, **entries}


def _emit(args, doc: dict, text: str, headers=None, rows=None) -> None:
    """Print a command's result in --format and write doc to -o."""
    if args.format == "json":
        print(json.dumps(doc, indent=1))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(headers)
        writer.writerows(rows)
    else:
        print(text)
    _write_json(args.output, doc)


def _settings(args) -> dict:
    """The simulation settings of simulate and compare, as SimConfig fields."""
    return {f.name: getattr(args, f.name)
            for f in fields(SimConfig) if f.name != "protocol"}


def _relative_difference(analytic: float, simulated: float) -> float | None:
    """Signed (analytic - simulated) / simulated; matches the table convention
    that a simulation running longer than the analysis prints negative."""
    if simulated == 0:
        return None
    return (analytic - simulated) / simulated


def _analysis(matrix: PerMatrix, protocol: str, args):
    """The cycle analysis of one protocol; it is also the simulator's plan."""
    if protocol == "dlc1000":
        return dlc.cycle_analysis(matrix, args.max_level)
    return sfn.cycle_analysis(matrix)


def _analysis_doc(analysis) -> dict:
    return {
        "per_slave": [asdict(a) for a in analysis.slaves],
        "reachable_total": analysis.total,
        "unreachable": list(analysis.unreachable),
        "complete": analysis.complete,
    }


# ---------------------------------------------------------------------------
# generate


def _add_generate(sub) -> None:
    p = sub.add_parser("generate", help="generate a PER-matrix channel model")
    kinds = p.add_subparsers(dest="kind", required=True)

    ring = kinds.add_parser("ring", help="ring topology with 1- and 2-hop links")
    rand = kinds.add_parser("rand-area",
                            help="master-centred random area, logistic PER in distance")
    for k in (ring, rand):
        k.add_argument("--nodes", type=_positive_int, required=True)
    ring.add_argument("--per-adj", type=float,
                      default=channel.DEFAULT_RING_PER_ADJACENT,
                      help="PER of adjacent links")
    ring.add_argument("--per-2", type=float,
                      default=channel.DEFAULT_RING_PER_TWO_HOP,
                      help="PER of two-hop links")
    rand.add_argument("--d50", type=_positive_float,
                      default=channel.DEFAULT_RAND_AREA_D50,
                      help="distance with PER 0.5")
    rand.add_argument("--width", type=_positive_float,
                      default=channel.DEFAULT_RAND_AREA_WIDTH,
                      help="logistic width of the PER transition")
    _add_options(rand, "seed")
    for k in (ring, rand):
        # -o names the matrix file
        _add_options(k, "output", output={"required": True, "help": None})


def _cmd_generate(args) -> int:
    if args.kind == "ring":
        spec = ChannelSpec(kind="ring", node_count=args.nodes,
                           per_adjacent=args.per_adj, per_two_hop=args.per_2)
    else:
        spec = ChannelSpec(kind="rand_area", node_count=args.nodes,
                           d50=args.d50, width=args.width, seed=args.seed)
    matrix = channel.build_matrix(spec)
    channel.save_matrix(matrix, args.output)
    _write_json(args.output + ".manifest.json", _manifest(
        command="generate",
        channel=spec.to_dict(),
        output=args.output,
    ))
    print(f"wrote {matrix.node_count}x{matrix.node_count} matrix to {args.output}")
    return 0


# ---------------------------------------------------------------------------
# analyze


def _add_analyze(sub) -> None:
    p = sub.add_parser("analyze",
                       help="expected polling-cycle durations from a matrix")
    p.add_argument("matrix")
    p.add_argument("--protocol", choices=("dlc1000", "sfn", "both"),
                   default="both")
    _add_options(p, "max_level", "format", "output")


def _total_text(total: float, unreachable) -> str:
    if unreachable:
        return (f"inf ({len(unreachable)} unreachable: "
                f"{','.join(map(str, unreachable))}; reachable sum {total:.4f})")
    return f"{total:.4f}"


def _cmd_analyze(args) -> int:
    matrix = channel.load_matrix(args.matrix)
    doc = _manifest(command="analyze", matrix=args.matrix,
                    node_count=matrix.node_count)
    rows = []
    protocols = PROTOCOLS if args.protocol == "both" else (args.protocol,)
    analyses = {p: _analysis(matrix, p, args) for p in protocols}
    if "dlc1000" in analyses:
        doc["max_level"] = args.max_level
    for protocol, analysis in analyses.items():
        doc[protocol] = _analysis_doc(analysis)
    d, s = analyses.get("dlc1000"), analyses.get("sfn")

    if args.protocol == "both":
        headers = ["slave", "dlc_level", "dlc_duration",
                   "sfn_levels", "sfn_duration"]
        for da, sa in zip(d.slaves, s.slaves):
            rows.append([str(da.slave), str(da.best_level),
                         _num(da.expected_duration),
                         f"{sa.r_dl}/{sa.r_ul}", _num(sa.expected_duration)])
        totals = (f"totals: dlc1000 {_total_text(d.total, d.unreachable)}, "
                  f"sfn {_total_text(s.total, s.unreachable)}")
    elif args.protocol == "dlc1000":
        headers = ["slave", "best_level", "success_prob", "expected_duration"]
        for da in d.slaves:
            prob = next(o.success_prob for o in da.per_level
                        if o.level == da.best_level)
            rows.append([str(da.slave), str(da.best_level), f"{prob:.6f}",
                         _num(da.expected_duration)])
        totals = f"total: {_total_text(d.total, d.unreachable)}"
    else:
        headers = ["slave", "r_dl", "r_ul", "poll_success", "expected_duration"]
        for sa in s.slaves:
            rows.append([str(sa.slave), str(sa.r_dl), str(sa.r_ul),
                         f"{sa.poll_success:.6f}", _num(sa.expected_duration)])
        totals = f"total: {_total_text(s.total, s.unreachable)}"

    _emit(args, doc, f"{_table(headers, rows)}\n{totals}", headers, rows)
    return 0


# ---------------------------------------------------------------------------
# simulate


def _add_simulate(sub) -> None:
    p = sub.add_parser("simulate",
                       help="Monte-Carlo polling simulation with analytic comparison")
    p.add_argument("matrix")
    p.add_argument("--protocol", choices=("dlc1000", "sfn"), required=True)
    _add_options(p, "cycles", "max_retries", "max_level", "seed", "format",
                 "output")


def _simulate_doc(matrix: PerMatrix, protocol: str, analysis, args) -> dict:
    """Simulate polling with the analysis's plan; the report's doc."""
    report = simulate(matrix, SimConfig(protocol=protocol, **_settings(args)),
                      analysis)
    return {
        "simulation": asdict(report),
        "analytic_total": analysis.total,
        "analytic_unreachable": list(analysis.unreachable),
        "relative_difference": _relative_difference(
            analysis.total, report.mean_cycle_duration),
    }


def _cmd_simulate(args) -> int:
    matrix = channel.load_matrix(args.matrix)
    analysis = _analysis(matrix, args.protocol, args)
    doc = _manifest(command="simulate", matrix=args.matrix, **_settings(args))
    doc.update(_simulate_doc(matrix, args.protocol, analysis, args))
    sim = doc["simulation"]
    headers = ["slave", "attempts", "successes", "mean_round_trip_slots",
               "give_ups"]
    rows = [[s[h] for h in headers] for s in sim["per_slave"]]
    cells = [[str(slave), str(tries), str(ok),
              "-" if mean is None else f"{mean:.3f}", str(gave_up)]
             for slave, tries, ok, mean, gave_up in rows]
    rel = doc["relative_difference"]
    rel_text = "n/a" if rel is None else f"{rel * 100:+.2f}%"
    text = "\n".join([
        f"protocol {sim['protocol']}, {sim['cycles']} cycles, "
        f"seed {sim['seed_echo']}",
        _table(["slave", "attempts", "successes", "mean_slots", "give_ups"],
               cells),
        f"mean cycle duration {sim['mean_cycle_duration']:.4f} "
        f"({sim['reached_count']} slaves reached), "
        f"{sim['total_slots']} slots total",
        f"analytic total {analysis.total:.4f}, "
        f"relative difference (analytic-sim)/sim: {rel_text}",
    ])
    _emit(args, doc, text, headers, rows)
    return 0


# ---------------------------------------------------------------------------
# compare


def _add_compare(sub) -> None:
    p = sub.add_parser("compare",
                       help="both analytics, both simulations, and overhead tables")
    p.add_argument("matrices", nargs="*", help="matrix files")
    p.add_argument("--defaults", action="store_true",
                   help="use the five built-in channel models instead of files")
    _add_options(p, "cycles", "max_retries", "max_level", "seed")
    p.add_argument("--packet-bytes", type=_positive_int,
                   default=DEFAULT_PACKET_BYTES)
    _add_options(p, "format", "output", format={"choices": ("text", "json")})


def _compare_one(name: str, matrix: PerMatrix, args) -> dict:
    entry = {"model": name, "node_count": matrix.node_count}
    analyses = {p: _analysis(matrix, p, args) for p in PROTOCOLS}
    # both analyses come before both simulations in the document
    for protocol, analysis in analyses.items():
        entry[protocol] = _analysis_doc(analysis)
    for protocol, analysis in analyses.items():
        entry[f"{protocol}_sim"] = _simulate_doc(matrix, protocol, analysis,
                                                 args)
    return entry


def _fmt_rel(value) -> str:
    return "n/a" if value is None else f"{value * 100:+.1f}%"


def _cmd_compare(args) -> int:
    if args.defaults:
        models = [(name, partial(channel.build_matrix, spec))
                  for name, spec in channel.DEFAULT_MODELS]
    elif args.matrices:
        models = [(path, partial(channel.load_matrix, path))
                  for path in args.matrices]
    else:
        raise ChannelSpecError("no matrices given (pass files or --defaults)")

    doc = _manifest(command="compare", **_settings(args),
                    packet_bytes=args.packet_bytes, models=[])
    failures = 0
    for name, load in models:
        try:
            doc["models"].append(_compare_one(name, load(), args))
        except (ChannelSpecError, MatrixValidationError, OSError,
                ValueError) as exc:
            failures += 1
            doc["models"].append({"model": name, "error": str(exc)})

    doc["overhead"] = {p: asdict(metrics.routing_overhead(p, args.packet_bytes))
                       for p in PROTOCOLS}
    _emit(args, doc, _compare_text(doc, args.packet_bytes))
    return 1 if failures else 0


def _compare_rows(doc: dict, protocol: str) -> list[list[str]]:
    rows = []
    for entry in doc["models"]:
        if "error" in entry:
            rows.append([entry["model"], "failed", entry["error"], ""])
            continue
        ana = entry[protocol]
        sim = entry[f"{protocol}_sim"]
        total = _total_text(ana["reachable_total"], ana["unreachable"])
        reached = sim["simulation"]["reached_count"]
        rows.append([
            entry["model"],
            total,
            f"{sim['simulation']['mean_cycle_duration']:.2f} ({reached} slaves)",
            _fmt_rel(sim["relative_difference"]),
        ])
    return rows


def _compare_text(doc: dict, packet_bytes: int) -> str:
    headers = ["model", "analytic", "simulated", "rel_diff"]
    durations = []
    for entry in doc["models"]:
        if "error" in entry:
            durations.append([entry["model"], "failed", entry["error"]])
            continue
        durations.append([
            entry["model"],
            _total_text(entry["sfn"]["reachable_total"],
                        entry["sfn"]["unreachable"]),
            _total_text(entry["dlc1000"]["reachable_total"],
                        entry["dlc1000"]["unreachable"]),
        ])
    overhead = []
    for proto in ("dlc1000", "sfn"):
        o = doc["overhead"][proto]
        overhead.append([proto, str(o["routing_bits_per_packet"]),
                         f"{o['overhead_ratio'] * 100:.1f}%",
                         str(o["signaling_bits_per_poll_response"])])
    sections = [
        ("dlc1000: analytic vs simulation", headers,
         _compare_rows(doc, "dlc1000")),
        ("sfn: analytic vs simulation", headers, _compare_rows(doc, "sfn")),
        ("expected cycle duration by protocol", ["model", "sfn", "dlc1000"],
         durations),
        (f"routing overhead ({packet_bytes}-byte packets)",
         ["protocol", "routing_bits", "of_packet",
          "signaling_bits_per_response"], overhead),
    ]
    return "\n\n".join(f"== {title} ==\n{_table(h, rows)}"
                        for title, h, rows in sections)


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="plcroute")
    parser.add_argument("--version", action="version",
                        version=f"plcroute {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_generate(sub)
    _add_analyze(sub)
    _add_simulate(sub)
    _add_compare(sub)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args, unknown = parser.parse_known_args(argv)
        if unknown:
            # an unknown option's value may have been taken as a positional,
            # which leaves the real one behind; name only the options then
            named = [t for t in unknown if t.startswith("-")] or unknown
            parser.error(f"unrecognized arguments: {' '.join(named)}")
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        return _cmd_compare(args)
    except SystemExit:
        raise
    except (ChannelSpecError, MatrixValidationError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
