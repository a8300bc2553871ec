"""Command-line front end: generate channels, analyze, simulate, compare.

Matrix files are the comma-separated text that channel.save_matrix
writes, and every duration is a count of slots.  The library computes
every result (simulator.analyze, simulator.compare,
metrics.routing_overhead) and this module renders its dataclasses: the
JSON document, written via -o or printed by --format json, carries each
result's fields in declaration order with full-precision numbers, on one
line (`python -m json.tool FILE` pretty-prints it), and the text and CSV
tables read the same fields and round for readability.  The one
hand-built map is an analysis's (_analysis_doc), which renames total to
reachable_total.  The library checks the options, not the parser.
Every count, node index and seed passes one rule, channel._check_integer:
an integer, not a bool ("cycles must be an integer, not 2.5"), within its
bounds ("cycles must be >= 1", or "origin 9 out of range 0..5" with an
upper bound); a seed's range reads "seed must be an integer in 0..2**64-1".
Exit codes: 0 success, 1 validation or argument error, 2 internal error.
"""
from __future__ import annotations

import argparse
import csv
import json
import signal
import sys
from dataclasses import fields
from functools import partial
from itertools import groupby
from pathlib import Path

from . import __version__, channel, metrics
from .channel import ChannelSpec, ChannelSpecError
from .simulator import PROTOCOLS, SimConfig, analyze, compare


class _Parser(argparse.ArgumentParser):
    # argument errors are validation errors (exit 1), not internal ones
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# Options that several subcommands take, each declared once.  A subcommand
# names the ones it takes in its usage-line order, and may override a
# keyword, such as the --format choices.
_SHARED_OPTIONS = {
    "cycles": (("--cycles",), dict(type=int, default=1000)),
    "max_retries": (("--max-retries",), dict(type=int, default=2)),
    "max_level": (("--max-level",),
                  dict(type=int, default=4,
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
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths)).rstrip()
    sep = "-" * (sum(widths) + 2 * (len(widths) - 1))
    return "\n".join([fmt(headers), sep, *(fmt(r) for r in rows)])


def _num(value) -> str:
    if value is None:
        return "unreachable"
    return f"{value:.4f}"


def _percent(fraction: float | None, digits: int) -> str:
    return "n/a" if fraction is None else f"{fraction * 100:+.{digits}f}%"


def _json(doc: dict) -> str:
    """doc as one line of JSON, by json's C encoder.

    doc holds the result dataclasses themselves, not copies; vars() hands
    the encoder each one's fields, in declaration order.
    """
    return json.dumps(doc, default=vars) + "\n"


def _manifest(**entries) -> dict:
    return {"tool": "plcroute", "version": __version__, **entries}


def _emit(args, doc: dict, text: str, headers=None, rows=None) -> None:
    """Write doc to -o, then print the result in --format, so a command
    whose -o cannot be written prints no result."""
    serialized = _json(doc) if args.output or args.format == "json" else None
    if args.output:
        Path(args.output).write_text(serialized, encoding="utf-8")
    if args.format == "json":
        sys.stdout.write(serialized)
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(headers)
        writer.writerows(rows)
    else:
        print(text)


def _config(args, protocol: str) -> SimConfig:
    """protocol's SimConfig from the parsed options; it checks their ranges."""
    return SimConfig(protocol=protocol,
                     **{f.name: getattr(args, f.name)
                        for f in fields(SimConfig) if f.name != "protocol"})


def _settings(cfg: SimConfig) -> dict:
    """The settings a document records: cfg's fields but the protocol."""
    return {k: v for k, v in vars(cfg).items() if k != "protocol"}


def _analysis_doc(analysis) -> dict:
    return {
        "per_slave": analysis.slaves,
        "reachable_total": analysis.total,
        "unreachable": analysis.unreachable,
        "complete": analysis.complete,
    }


# ---------------------------------------------------------------------------
# generate


def _add_generate(sub) -> None:
    p = sub.add_parser("generate", help="generate a PER-matrix channel model")
    p.set_defaults(run=_cmd_generate)
    kinds = p.add_subparsers(dest="kind", required=True)

    ring = kinds.add_parser("ring", help="ring topology with 1- and 2-hop links")
    rand = kinds.add_parser("rand-area",
                            help="master-centred random area, logistic PER in distance")
    for k in (ring, rand):
        k.add_argument("--nodes", type=int, required=True)
    ring.add_argument("--per-adj", type=float,
                      default=channel.DEFAULT_RING_PER_ADJACENT,
                      help="PER of adjacent links")
    ring.add_argument("--per-2", type=float,
                      default=channel.DEFAULT_RING_PER_TWO_HOP,
                      help="PER of two-hop links")
    rand.add_argument("--d50", type=float,
                      default=channel.DEFAULT_RAND_AREA_D50,
                      help="distance with PER 0.5")
    rand.add_argument("--width", type=float,
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
    Path(args.output + ".manifest.json").write_text(_json(_manifest(
        command="generate",
        channel=spec.to_dict(),
        output=args.output,
    )), encoding="utf-8")
    print(f"wrote {matrix.node_count}x{matrix.node_count} matrix to {args.output}")
    return 0


# ---------------------------------------------------------------------------
# analyze


def _add_analyze(sub) -> None:
    p = sub.add_parser("analyze",
                       help="expected polling-cycle durations from a matrix")
    p.set_defaults(run=_cmd_analyze)
    p.add_argument("matrix")
    _add_options(p, "max_level", "format", "output")


def _runs(nodes) -> str:
    """Ascending node numbers as runs, such as 2-4,7,9-10."""
    # node - index is constant along a run of consecutive numbers
    runs = [[n for _, n in run] for _, run in
            groupby(enumerate(nodes), lambda pair: pair[1] - pair[0])]
    return ",".join(f"{r[0]}-{r[-1]}" if len(r) > 1 else f"{r[0]}"
                    for r in runs)


def _total_text(total: float, unreachable) -> str:
    if unreachable:
        return (f"inf ({len(unreachable)} unreachable: {_runs(unreachable)}; "
                f"reachable sum {total:.4f})")
    return f"{total:.4f}"


def _cmd_analyze(args) -> int:
    matrix = channel.load_matrix(args.matrix)
    d, s = (analyze(matrix, p, args.max_level) for p in PROTOCOLS)
    doc = _manifest(command="analyze", matrix=args.matrix,
                    node_count=matrix.node_count, max_level=args.max_level,
                    dlc1000=_analysis_doc(d), sfn=_analysis_doc(s))
    headers = ["slave", "dlc_level", "dlc_duration",
               "sfn_levels", "sfn_duration"]
    rows = [[str(da.slave), str(da.best_level), _num(da.expected_duration),
             f"{sa.r_dl}/{sa.r_ul}", _num(sa.expected_duration)]
            for da, sa in zip(d.slaves, s.slaves)]
    totals = (f"totals: dlc1000 {_total_text(d.total, d.unreachable)}, "
              f"sfn {_total_text(s.total, s.unreachable)}")
    _emit(args, doc, f"{_table(headers, rows)}\n{totals}", headers, rows)
    return 0


# ---------------------------------------------------------------------------
# simulate


def _add_simulate(sub) -> None:
    p = sub.add_parser("simulate",
                       help="Monte-Carlo polling simulation with analytic comparison")
    p.set_defaults(run=_cmd_simulate)
    p.add_argument("matrix")
    p.add_argument("--protocol", choices=PROTOCOLS, required=True)
    _add_options(p, "cycles", "max_retries", "max_level", "seed", "format",
                 "output")


def _cmd_simulate(args) -> int:
    cfg = _config(args, args.protocol)
    matrix = channel.load_matrix(args.matrix)
    result = compare(matrix, cfg, analyze(matrix, cfg.protocol, cfg.max_level))
    doc = _manifest(command="simulate", matrix=args.matrix, **_settings(cfg),
                    **vars(result))
    report = result.simulation
    headers = ["slave", "attempts", "successes", "mean_round_trip_slots",
               "give_ups"]
    rows = [[getattr(s, h) for h in headers] for s in report.per_slave]
    cells = [[str(slave), str(tries), str(ok),
              "-" if mean is None else f"{mean:.3f}", str(gave_up)]
             for slave, tries, ok, mean, gave_up in rows]
    text = "\n".join([
        f"protocol {report.protocol}, {report.cycles} cycles, "
        f"seed {report.seed_echo}",
        _table(["slave", "attempts", "successes", "mean_slots", "give_ups"],
               cells),
        f"mean cycle duration {report.mean_cycle_duration:.4f} "
        f"({report.reached_count} slaves reached), "
        f"{report.total_slots} slots total",
        f"analytic total {result.analytic_total:.4f}, "
        f"relative difference (analytic-sim)/sim: "
        f"{_percent(result.relative_difference, 2)}",
    ])
    _emit(args, doc, text, headers, rows)
    return 0


# ---------------------------------------------------------------------------
# compare


def _add_compare(sub) -> None:
    p = sub.add_parser("compare",
                       help="both analytics, both simulations, and overhead tables")
    p.set_defaults(run=_cmd_compare)
    p.add_argument("matrices", nargs="*", help="matrix files")
    p.add_argument("--defaults", action="store_true",
                   help="use the five built-in channel models instead of files")
    _add_options(p, "cycles", "max_retries", "max_level", "seed", "format",
                 "output", format={"choices": ("text", "json")})


def _cmd_compare(args) -> int:
    configs = {p: _config(args, p) for p in PROTOCOLS}
    if args.defaults and args.matrices:
        raise ChannelSpecError("pass matrix files or --defaults, not both")
    if args.defaults:
        models = [(name, partial(channel.build_matrix, spec))
                  for name, spec in channel.DEFAULT_MODELS]
    elif args.matrices:
        models = [(path, partial(channel.load_matrix, path))
                  for path in args.matrices]
    else:
        raise ChannelSpecError("no matrices given (pass files or --defaults)")

    # one row per model: each protocol's analytic total, simulated mean
    # and their rel_diff
    headers = ["model", *(f"{prefix}_{column}" for prefix in ("dlc", "sfn")
                          for column in ("analytic", "simulated", "rel_diff"))]
    entries, durations, failures = [], [], 0
    for name, load in models:
        try:
            matrix = load()
            analyses = {p: analyze(matrix, p, cfg.max_level)
                        for p, cfg in configs.items()}
            results = {p: compare(matrix, configs[p], a)
                       for p, a in analyses.items()}
        except (OSError, ValueError) as exc:
            failures += 1
            entries.append({"model": name, "error": str(exc)})
            durations.append([name, "failed", str(exc),
                              *[""] * (len(headers) - 3)])
            continue
        entries.append({
            "model": name, "node_count": matrix.node_count,
            **{p: _analysis_doc(a) for p, a in analyses.items()},
            **{f"{p}_sim": r for p, r in results.items()}})
        durations.append([name, *(cell for r in results.values() for cell in (
            _total_text(r.analytic_total, r.analytic_unreachable),
            f"{r.simulation.mean_cycle_duration:.2f} "
            f"({r.simulation.reached_count} slaves)",
            _percent(r.relative_difference, 1)))])

    overhead = [metrics.routing_overhead(p) for p in PROTOCOLS]
    packet_bytes = overhead[0].packet_bits // 8
    doc = _manifest(command="compare", **_settings(configs["sfn"]),
                    packet_bytes=packet_bytes, models=entries,
                    overhead={o.protocol: o for o in overhead})
    sections = [
        ("expected cycle duration: analytic vs simulation", headers,
         durations),
        (f"routing overhead ({packet_bytes}-byte packets)",
         ["protocol", "routing_bits", "of_packet",
          "signaling_bits_per_response"],
         [[o.protocol, str(o.routing_bits_per_packet),
           f"{o.overhead_ratio * 100:.1f}%",
           str(o.signaling_bits_per_poll_response)] for o in overhead]),
    ]
    _emit(args, doc, "\n\n".join(f"== {title} ==\n{_table(h, rows)}"
                                 for title, h, rows in sections))
    return 1 if failures else 0


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
        return args.run(args)
    except SystemExit:
        raise
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    # a closed stdout pipe ends the process as it ends cat: by the signal,
    # with nothing on stderr
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entry()
