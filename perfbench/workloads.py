"""The benchmark's workloads: their inputs, the job each pass times, the
side phases that give every workload all end-to-end metrics, and the output
checks that count as the benchmark's operations.

A pass is one root span holding `bench.job` (the timed job that `wall_s`
reports) and `bench.side` (phase timings the job itself does not provide).
Inside them, each call into plcroute gets one span of its own
(`bench.dlc_analysis`, `bench.sfn_analysis`, `bench.dlc_sim`, `bench.sfn_sim`
or `bench.cli`) tagged with its model.  Every pass repeats the same calls
on the same inputs.  End-to-end metrics scale each call's time to the
reference speed (see speed.py), take the median of each kind of call over
the run's passes and add the medians up.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import numpy as np

from plcroute import channel, cli, dlc, sfn, simulator
from plcroute.channel import MASTER
from plcroute.simulator import SimConfig

from speed import SpeedProbe
from tracing import Span, Tracer, pass_metrics

MAX_LEVEL = 4  # DLC1000 repeater cap, the CLI and SimConfig default
ANALYTIC_REL_TOL = 1e-6  # pinned totals allow summation-order changes
REFERENCE_FILE = Path(__file__).with_name("reference.json")
CLI_MAX_RETRIES = 2  # the CLI's default retry cap
FLOOD_PROBE_TRIALS = 100
FLOOD_PROBE_SEED = 2005
PROTOCOL_TAG = {"dlc1000": "dlc", "sfn": "sfn"}  # span and metric prefix


def model_spec(name: str) -> channel.ChannelSpec:
    """`ring_N` or `rand_area_N`; random areas use seed N, as DEFAULT_MODELS do."""
    kind, _, nodes = name.rpartition("_")
    n = int(nodes)
    if kind == "ring":
        return channel.ChannelSpec(kind="ring", node_count=n)
    if kind == "rand_area":
        return channel.ChannelSpec(kind="rand_area", node_count=n, seed=n)
    raise ValueError(f"unknown model name {name!r}")


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


def derive_seed(seed: int, *keys: int) -> int:
    """Simulator seed for one call, derived from the workload seed."""
    state = np.random.SeedSequence([seed, *keys]).generate_state(2, np.uint32)
    return int(state[0]) << 32 | int(state[1])


@dataclass
class Context:
    """What a pass needs: the loaded models, the references and the seed."""

    matrices: list  # (model name, PerMatrix) in workload order
    reference: dict
    seed: int
    workdir: Path
    tracer: Tracer


@dataclass
class PassOutcome:
    root: Span
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def setup_models(names, workdir: Path, out: PassOutcome) -> list:
    """Build each model, save it as text and load it back (one op per model)."""
    loaded = []
    for name in names:
        built = channel.build_matrix(model_spec(name))
        path = workdir / f"{name}.txt"
        channel.save_matrix(built, path)
        matrix = channel.load_matrix(path)
        out.check(np.array_equal(matrix.per, built.per),
                  f"{name}: text round trip changed the matrix")
        loaded.append((name, matrix))
    return loaded


def _check_analysis(out, ref: dict, analysis, label: str) -> None:
    ok = (math.isclose(analysis.total, ref["total"], rel_tol=ANALYTIC_REL_TOL)
          and list(analysis.unreachable) == ref["unreachable"])
    out.check(ok, f"{label}: total {analysis.total!r}, "
                  f"{len(analysis.unreachable)} unreachable; pinned "
                  f"{ref['total']!r}, {len(ref['unreachable'])} unreachable")


def _check_report(out, report, cfg: SimConfig, node_count: int,
                  label: str) -> None:
    """A well-formed report: per-slave counts consistent with the retry cap."""
    ok = report.cycles == cfg.cycles and len(report.per_slave) == node_count - 1
    for s in report.per_slave:
        ok = ok and (cfg.cycles <= s.attempts
                     <= cfg.cycles * (cfg.max_retries + 1)
                     and s.successes <= cfg.cycles
                     and s.give_ups == cfg.cycles - s.successes
                     and s.slots > 0)
    out.check(ok, f"{label}: malformed simulation report")


def analyze_all(ctx: Context, out: PassOutcome, protocol: str) -> None:
    """One `*.cycle_analysis` call per model, each in a `bench.*` span."""
    for name, per in ctx.matrices:
        with ctx.tracer.span(f"bench.{PROTOCOL_TAG[protocol]}_analysis") as span:
            if protocol == "dlc1000":
                analysis = dlc.cycle_analysis(per, MAX_LEVEL)
            else:
                analysis = sfn.cycle_analysis(per)
        span.attrs["model"] = name
        _check_analysis(out, ctx.reference[name][protocol], analysis,
                        f"{name} {protocol} analysis")


def simulate_all(ctx: Context, out: PassOutcome, protocol: str, cycles: int,
                 max_retries: int) -> list:
    """One `simulate` call per model, each in a `bench.*_sim` span.

    The seeds depend on the workload seed, the model and the protocol, not
    on the pass, so every pass repeats the same simulations.
    """
    reports = []
    for k, (name, per) in enumerate(ctx.matrices):
        cfg = SimConfig(protocol=protocol, cycles=cycles,
                        max_retries=max_retries, max_level=MAX_LEVEL,
                        seed=derive_seed(ctx.seed, k, int(protocol == "sfn")))
        with ctx.tracer.span(f"bench.{PROTOCOL_TAG[protocol]}_sim") as span:
            report = simulator.simulate(per, cfg)
        span.attrs.update(model=name, cycles=cycles)
        _check_report(out, report, cfg, per.node_count,
                      f"{name} {protocol} simulation")
        reports.append(report)
    return reports


def run_cli(ctx: Context, argv: list) -> int:
    """Run `plcroute` in process with its standard output captured."""
    captured = io.StringIO()
    with ctx.tracer.span("bench.cli") as span:
        with contextlib.redirect_stdout(captured):
            code = cli.main(argv)
    # stdout, the -o document and, for `generate`, its manifest sidecar
    output = Path(argv[argv.index("-o") + 1])
    manifest = output.with_name(output.name + ".manifest.json")
    span.attrs["output_bytes"] = len(captured.getvalue().encode("utf-8")) + sum(
        p.stat().st_size for p in (output, manifest) if p.is_file())
    return code


class Workload:
    """A model set, a job and a side phase; see README.md for the why."""

    models: tuple = ()
    uses_cli = False

    def job(self, ctx: Context, out: PassOutcome) -> None:
        raise NotImplementedError

    def side(self, ctx: Context, out: PassOutcome) -> None:
        raise NotImplementedError

    def run_pass(self, ctx: Context, with_setup: bool) -> PassOutcome:
        """One pass; a traced pass also rebuilds its models for channel spans."""
        tracer = ctx.tracer
        with tracer.span("pass") as root:
            out = PassOutcome(root)
            if with_setup:
                with tracer.span("bench.setup"):
                    setup_models(self.models, ctx.workdir, out)
            with tracer.span("bench.job"):
                self.job(ctx, out)
            with tracer.span("bench.side"):
                self.side(ctx, out)
        return out

    def flood_probe(self, ctx: Context) -> None:
        """A fixed number of full-depth simulated floods from the master."""
        rng = np.random.default_rng(FLOOD_PROBE_SEED)
        for _, per in ctx.matrices:
            for _ in range(FLOOD_PROBE_TRIALS):
                simulator.flood_trial(per, MASTER, per.node_count - 1, rng)

    def cli_probe(self, ctx: Context) -> None:
        """A fixed small `plcroute generate` for workloads whose job has no CLI."""
        run_cli(ctx, ["generate", "ring", "--nodes", "10",
                      "-o", str(ctx.workdir / "probe_ring_10.txt")])


class AnalyticLarge(Workload):
    """Large models where the closed-form analysis does all of the job."""

    def __init__(self, models=("ring_150", "rand_area_300"), side_cycles=2):
        self.models = models
        self.side_cycles = side_cycles

    def job(self, ctx, out):
        analyze_all(ctx, out, "dlc1000")
        analyze_all(ctx, out, "sfn")

    def side(self, ctx, out):
        # Simulation throughput on the same models; planning dominates it.
        for protocol in ("dlc1000", "sfn"):
            simulate_all(ctx, out, protocol, self.side_cycles,
                         CLI_MAX_RETRIES)


class SimSmall(Workload):
    """Small models simulated until every poll succeeds: the per-try loop."""

    # (protocol, model) -> allowed |relative difference| against the analysis
    BANDS = {("dlc1000", "ring_10"): 0.05, ("dlc1000", "rand_area_20"): 0.05,
             ("sfn", "ring_10"): 0.15}
    RETRY_UNTIL_SUCCESS = 10_000

    def __init__(self, models=("ring_10", "rand_area_20"), dlc_cycles=1500,
                 sfn_cycles=300, analysis_reps=10):
        self.models = models
        self.cycles = {"dlc1000": dlc_cycles, "sfn": sfn_cycles}
        self.analysis_reps = analysis_reps

    def job(self, ctx, out):
        for protocol in ("dlc1000", "sfn"):
            reports = simulate_all(ctx, out, protocol, self.cycles[protocol],
                                   self.RETRY_UNTIL_SUCCESS)
            for (name, per), report in zip(ctx.matrices, reports):
                # (analytic - simulated) / simulated, as the CLI reports it
                mean = report.mean_cycle_duration
                rel = (ctx.reference[name][protocol]["total"] - mean) / mean
                out.check(report.reached_count == per.node_count - 1,
                          f"{name} {protocol}: a slave was never reached")
                band = self.BANDS.get((protocol, name))
                if band is None:
                    out.notes.append(f"{name} {protocol} gap {rel:+.2%} "
                                     f"over {report.cycles} cycles (not gated)")
                else:
                    out.check(abs(rel) < band,
                              f"{name} {protocol}: simulated mean "
                              f"{report.mean_cycle_duration:.3f} is {rel:+.2%} "
                              f"from the analysis, band ±{band:.0%}")

    def side(self, ctx, out):
        # The analyses take milliseconds here; repeat them for a steady time.
        for _ in range(self.analysis_reps):
            analyze_all(ctx, out, "dlc1000")
            analyze_all(ctx, out, "sfn")


class CompareDefaults(Workload):
    """`plcroute compare --defaults`, the command users run."""

    models = tuple(name for name, _ in channel.DEFAULT_MODELS)
    uses_cli = True

    def __init__(self, cycles=2):
        self.cycles = cycles

    def job(self, ctx, out):
        seed = derive_seed(ctx.seed)
        path = ctx.workdir / "compare.json"
        code = run_cli(ctx, ["compare", "--defaults",
                             "--cycles", str(self.cycles),
                             "--seed", str(seed), "-o", str(path)])
        out.check(code == 0, f"compare exited with code {code}")
        if code != 0:
            return
        doc = json.loads(path.read_text(encoding="utf-8"))
        entries = doc["models"]
        out.check([e["model"] for e in entries] == list(self.models),
                  "compare did not list the five default models")
        for entry in entries:
            name = entry["model"]
            if "error" in entry:
                out.check(False, f"{name}: compare reported {entry['error']}")
                continue
            ref = ctx.reference[name]
            for protocol in ("dlc1000", "sfn"):
                got = entry[protocol]
                ok = (math.isclose(got["reachable_total"], ref[protocol]["total"],
                                   rel_tol=ANALYTIC_REL_TOL)
                      and got["unreachable"] == ref[protocol]["unreachable"]
                      and entry[f"{protocol}_sim"]["simulation"]["cycles"]
                      == self.cycles)
                out.check(ok, f"{name} {protocol}: compare JSON differs from "
                              "the pinned analysis")
            rel = entry["sfn_sim"]["relative_difference"]
            if name in ("ring_100", "rand_area_20"):
                out.notes.append(f"{name} sfn gap {rel:+.2%} in compare "
                                 f"({self.cycles} cycles, retries capped at "
                                 f"{CLI_MAX_RETRIES}; not gated)")

    def side(self, ctx, out):
        analyze_all(ctx, out, "dlc1000")
        analyze_all(ctx, out, "sfn")
        for protocol in ("dlc1000", "sfn"):
            simulate_all(ctx, out, protocol, self.cycles,
                         CLI_MAX_RETRIES)


# Run sizes: "full" is what the benchmark measures, "tiny" its smoke test.
WORKLOADS = {
    "analytic-large": {"full": AnalyticLarge(),
                       "tiny": AnalyticLarge(("ring_12", "rand_area_24"))},
    "sim-small": {"full": SimSmall(),
                  "tiny": SimSmall(dlc_cycles=600, sfn_cycles=150,
                                   analysis_reps=2)},
    "compare-defaults": {"full": CompareDefaults(),
                         "tiny": CompareDefaults(cycles=1)},
}


def end_to_end(passes: list[PassOutcome],
               speed: SpeedProbe) -> dict[str, float]:
    """Sums of per-call medians over the passes, at the reference speed.

    Calls are grouped by phase (`bench.job` or `bench.side`), span name and
    model; `wall_s` adds up the job's groups, the phase metrics their own.
    """
    samples: dict[tuple, list] = {}
    cycles: dict[tuple, int] = {}
    for p in passes:
        for phase in p.root.children:
            for call in phase.children:
                key = (phase.name, call.name, call.attrs.get("model"))
                samples.setdefault(key, []).append(
                    speed.scaled(call.start, call.end))
                cycles[key] = call.attrs.get("cycles", 0)
    med = {key: median(v) for key, v in samples.items()}

    def total(name):
        return sum(v for (_, n, _), v in med.items() if n == name)

    metrics = {"wall_s": sum(v for (ph, _, _), v in med.items()
                             if ph == "bench.job")}
    for proto in ("dlc", "sfn"):
        metrics[f"{proto}_analysis_s"] = total(f"bench.{proto}_analysis")
        metrics[f"{proto}_sim_cycles_per_s"] = sum(
            c for (_, n, _), c in cycles.items()
            if n == f"bench.{proto}_sim") / total(f"bench.{proto}_sim")
    return metrics


def per_layer(workload: Workload, traced: list[PassOutcome],
              probes: Span) -> dict[str, float]:
    """Medians over traced passes, plus the probes' metrics."""
    rows = [pass_metrics(p.root) for p in traced]
    metrics = {key: median(r[key] for r in rows) for key in rows[0]}
    trials = [s for s in probes.walk() if s.name == "simulator.flood_trial"]
    metrics["simulator.flood_trial.us"] = \
        sum(s.duration for s in trials) / len(trials) * 1e6
    if not workload.uses_cli:
        probe_metrics = pass_metrics(probes)
        metrics.update({k: v for k, v in probe_metrics.items()
                        if k.startswith("cli.")})
    return metrics

