"""Command-line front end: generate channels, analyze, simulate, compare.

Subcommands write a machine-readable JSON document with full-precision
numbers via -o; the text tables round for readability.  Exit codes:
0 success, 1 validation or argument error, 2 internal error.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__, channel, dlc, metrics, sfn
from .channel import ChannelSpec, ChannelSpecError, MatrixValidationError, PerMatrix
from .simulator import PROTOCOLS, SimConfig, SimReport, format_report, simulate

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


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    def fmt(cells):
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))
    sep = "-" * (sum(widths) + 2 * (len(widths) - 1))
    return "\n".join([fmt(headers), sep, *(fmt(r) for r in rows)])


def _csv_lines(headers: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(headers)
    writer.writerows(rows)
    return buf.getvalue()


def _num(value) -> str:
    if value is None:
        return "unreachable"
    return f"{value:.4f}"


def _write_json(path: str | None, doc: dict) -> None:
    if path:
        Path(path).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def _manifest(args, extra: dict) -> dict:
    doc = {"tool": "plcroute", "version": __version__}
    doc.update(extra)
    return doc


def _relative_difference(analytic: float, simulated: float) -> float | None:
    """Signed (analytic - simulated) / simulated; matches the table convention
    that a simulation running longer than the analysis prints negative."""
    if simulated == 0:
        return None
    return (analytic - simulated) / simulated


def _analysis(matrix: PerMatrix, protocol: str, args):
    """The cycle analysis of one protocol; it is also the simulator's plan."""
    if protocol == "dlc1000":
        return dlc.cycle_analysis(matrix, args.max_level, args.slot_time)
    return sfn.cycle_analysis(matrix, args.slot_time, args.horizon)


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
    ring.add_argument("--nodes", type=_positive_int, required=True)
    ring.add_argument("--per-adj", type=float,
                      default=channel.DEFAULT_RING_PER_ADJACENT,
                      help="PER of adjacent links")
    ring.add_argument("--per-2", type=float,
                      default=channel.DEFAULT_RING_PER_TWO_HOP,
                      help="PER of two-hop links")
    rand = kinds.add_parser("rand-area",
                            help="master-centred random area, logistic PER in distance")
    rand.add_argument("--nodes", type=_positive_int, required=True)
    rand.add_argument("--d50", type=_positive_float,
                      default=channel.DEFAULT_RAND_AREA_D50,
                      help="distance with PER 0.5")
    rand.add_argument("--width", type=_positive_float,
                      default=channel.DEFAULT_RAND_AREA_WIDTH,
                      help="logistic width of the PER transition")
    rand.add_argument("--seed", type=int, default=0)
    for k in (ring, rand):
        k.add_argument("--format", choices=("text", "json"), default="text")
        k.add_argument("-o", "--output", required=True)


def _cmd_generate(args) -> int:
    if args.kind == "ring":
        spec = ChannelSpec(kind="ring", node_count=args.nodes,
                           per_adjacent=args.per_adj, per_two_hop=args.per_2)
    else:
        spec = ChannelSpec(kind="rand_area", node_count=args.nodes,
                           d50=args.d50, width=args.width, seed=args.seed)
    matrix = channel.build_matrix(spec)
    channel.save_matrix(matrix, args.output, args.format)
    _write_json(args.output + ".manifest.json", _manifest(args, {
        "command": "generate",
        "channel": spec.to_dict(),
        "output": args.output,
        "matrix_format": args.format,
    }))
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
    p.add_argument("--matrix-format", choices=("text", "json"), default="text")
    p.add_argument("--max-level", type=_nonnegative_int, default=4,
                   help="repeater-address cap for dlc1000")
    p.add_argument("--horizon", type=_nonnegative_int, default=None,
                   help="flood-level cap for sfn (default: node count)")
    p.add_argument("--slot-time", type=_positive_float, default=1.0)
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.add_argument("-o", "--output", help="write the JSON document here")


def _total_text(total: float, unreachable) -> str:
    if unreachable:
        return (f"inf ({len(unreachable)} unreachable: "
                f"{','.join(map(str, unreachable))}; reachable sum {total:.4f})")
    return f"{total:.4f}"


def _cmd_analyze(args) -> int:
    matrix = channel.load_matrix(args.matrix, args.matrix_format)
    doc = _manifest(args, {
        "command": "analyze",
        "matrix": args.matrix,
        "node_count": matrix.node_count,
        "slot_time": args.slot_time,
    })
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

    if args.format == "json":
        print(json.dumps(doc, indent=1))
    elif args.format == "csv":
        print(_csv_lines(headers, rows), end="")
    else:
        print(_table(headers, rows))
        print(totals)
    _write_json(args.output, doc)
    return 0


# ---------------------------------------------------------------------------
# simulate


def _add_simulate(sub) -> None:
    p = sub.add_parser("simulate",
                       help="Monte-Carlo polling simulation with analytic comparison")
    p.add_argument("matrix")
    p.add_argument("--protocol", choices=("dlc1000", "sfn"), required=True)
    p.add_argument("--matrix-format", choices=("text", "json"), default="text")
    p.add_argument("--cycles", type=_positive_int, default=1000)
    p.add_argument("--max-retries", type=_nonnegative_int, default=2)
    p.add_argument("--max-level", type=_nonnegative_int, default=4)
    p.add_argument("--slot-time", type=_positive_float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--horizon", type=_nonnegative_int, default=None,
                   help="flood-level cap for the sfn analysis, which also "
                        "plans the simulated levels (default: node count)")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.add_argument("-o", "--output", help="write the JSON document here")


def _simulate_model(matrix: PerMatrix, protocol: str, analysis,
                    args) -> tuple[SimReport, dict]:
    """Simulate polling with the analysis's plan; the report and its doc."""
    cfg = SimConfig(protocol=protocol, cycles=args.cycles,
                    max_retries=args.max_retries, max_level=args.max_level,
                    slot_time=args.slot_time, seed=args.seed)
    report = simulate(matrix, cfg, analysis)
    return report, {
        "simulation": asdict(report),
        "analytic_total": analysis.total,
        "analytic_unreachable": list(analysis.unreachable),
        "relative_difference": _relative_difference(
            analysis.total, report.mean_cycle_duration),
    }


def _cmd_simulate(args) -> int:
    matrix = channel.load_matrix(args.matrix, args.matrix_format)
    analysis = _analysis(matrix, args.protocol, args)
    report, sim_doc = _simulate_model(matrix, args.protocol, analysis, args)
    doc = _manifest(args, {
        "command": "simulate",
        "matrix": args.matrix,
        "cycles": args.cycles,
        "max_retries": args.max_retries,
        "max_level": args.max_level,
        "slot_time": args.slot_time,
        "seed": args.seed,
    })
    doc.update(sim_doc)
    rel = sim_doc["relative_difference"]
    if args.format == "json":
        print(json.dumps(doc, indent=1))
    elif args.format == "csv":
        headers = ["slave", "attempts", "successes", "mean_round_trip_slots",
                   "give_ups"]
        rows = [[s.slave, s.attempts, s.successes, s.mean_round_trip_slots,
                 s.give_ups] for s in report.per_slave]
        print(_csv_lines(headers, rows), end="")
    else:
        print(format_report(report))
        rel_text = "n/a" if rel is None else f"{rel * 100:+.2f}%"
        print(f"analytic total {analysis.total:.4f}, "
              f"relative difference (analytic-sim)/sim: {rel_text}")
    _write_json(args.output, doc)
    return 0


# ---------------------------------------------------------------------------
# compare


def _add_compare(sub) -> None:
    p = sub.add_parser("compare",
                       help="both analytics, both simulations, and overhead tables")
    p.add_argument("matrices", nargs="*",
                   help="matrix files (text format unless --matrix-format json)")
    p.add_argument("--defaults", action="store_true",
                   help="use the five built-in channel models instead of files")
    p.add_argument("--matrix-format", choices=("text", "json"), default="text")
    p.add_argument("--cycles", type=_positive_int, default=1000)
    p.add_argument("--max-retries", type=_nonnegative_int, default=2)
    p.add_argument("--max-level", type=_nonnegative_int, default=4)
    p.add_argument("--slot-time", type=_positive_float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--packet-bytes", type=_positive_int,
                   default=DEFAULT_PACKET_BYTES)
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.add_argument("-o", "--output", help="write the JSON document here")
    p.set_defaults(horizon=None)  # sfn plans with the default flood horizon


def _compare_one(name: str, matrix: PerMatrix, args) -> dict:
    entry = {"model": name, "node_count": matrix.node_count}
    analyses = {p: _analysis(matrix, p, args) for p in PROTOCOLS}
    # both analyses come before both simulations in the document
    for protocol, analysis in analyses.items():
        entry[protocol] = _analysis_doc(analysis)
    for protocol, analysis in analyses.items():
        entry[f"{protocol}_sim"] = _simulate_model(
            matrix, protocol, analysis, args)[1]
    return entry


def _fmt_rel(value) -> str:
    return "n/a" if value is None else f"{value * 100:+.1f}%"


def _cmd_compare(args) -> int:
    if args.defaults:
        models = [(name, channel.build_matrix(spec))
                  for name, spec in channel.DEFAULT_MODELS]
    else:
        if not args.matrices:
            raise ChannelSpecError(
                "no matrices given (pass files or --defaults)")
        models = []
        for path in args.matrices:
            models.append((path, path))  # loaded lazily below, per model

    doc = _manifest(args, {
        "command": "compare",
        "cycles": args.cycles,
        "max_retries": args.max_retries,
        "max_level": args.max_level,
        "slot_time": args.slot_time,
        "seed": args.seed,
        "packet_bytes": args.packet_bytes,
        "models": [],
    })
    failures = 0
    for name, source in models:
        try:
            matrix = source if isinstance(source, PerMatrix) else \
                channel.load_matrix(source, args.matrix_format)
            doc["models"].append(_compare_one(name, matrix, args))
        except (ChannelSpecError, MatrixValidationError, OSError,
                ValueError) as exc:
            failures += 1
            doc["models"].append({"model": name, "error": str(exc)})

    overhead = {
        proto: {
            "routing_bits": rep.routing_bits_per_packet,
            "packet_bits": rep.packet_bits,
            "overhead_ratio": rep.overhead_ratio,
            "signaling_bits_per_poll_response":
                rep.signaling_bits_per_poll_response,
        }
        for proto, rep in
        (("dlc1000", metrics.routing_overhead("dlc1000", args.packet_bytes)),
         ("sfn", metrics.routing_overhead("sfn", args.packet_bytes)))
    }
    doc["overhead"] = overhead

    if args.format == "json":
        print(json.dumps(doc, indent=1))
    else:
        _print_compare_tables(doc, args)
    _write_json(args.output, doc)
    return 1 if failures else 0


def _compare_rows(doc: dict, protocol: str) -> list[list[str]]:
    rows = []
    for entry in doc["models"]:
        if "error" in entry:
            rows.append([entry["model"], "failed", entry["error"], "", ""])
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


def _print_compare_tables(doc: dict, args) -> None:
    headers = ["model", "analytic", "simulated", "rel_diff"]
    print("== dlc1000: analytic vs simulation ==")
    print(_table(headers, _compare_rows(doc, "dlc1000")))
    print()
    print("== sfn: analytic vs simulation ==")
    print(_table(headers, _compare_rows(doc, "sfn")))
    print()
    print("== expected cycle duration by protocol ==")
    rows = []
    for entry in doc["models"]:
        if "error" in entry:
            rows.append([entry["model"], "failed", entry["error"]])
            continue
        rows.append([
            entry["model"],
            _total_text(entry["sfn"]["reachable_total"],
                        entry["sfn"]["unreachable"]),
            _total_text(entry["dlc1000"]["reachable_total"],
                        entry["dlc1000"]["unreachable"]),
        ])
    print(_table(["model", "sfn", "dlc1000"], rows))
    print()
    print(f"== routing overhead ({args.packet_bytes}-byte packets) ==")
    rows = []
    for proto in ("dlc1000", "sfn"):
        o = doc["overhead"][proto]
        rows.append([proto, str(o["routing_bits"]),
                     f"{o['overhead_ratio'] * 100:.1f}%",
                     str(o["signaling_bits_per_poll_response"])])
    print(_table(["protocol", "routing_bits", "of_packet",
                  "signaling_bits_per_response"], rows))


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
        args = parser.parse_args(argv)
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
