"""Span recording around plcroute's public functions, and the per-layer
metrics derived from the spans.

Tracing is done from outside the package: `Tracer.install` rebinds public
module attributes to wrappers that record a span per call and restores the
originals on exit.  plcroute's modules call each other through these
attributes (module globals such as `dlc.best_path`, or `sfn.flood` as seen
from `sfn.cycle_analysis`), so nested calls are recorded too.  The private
per-try helpers `simulator._flood_trial` and `simulator._try_rng` are left
alone; per-try cost is the self time of `simulate_*` divided by its tries.
"""
from __future__ import annotations

import functools
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass(eq=False)
class Span:
    name: str
    start: float
    parent: "Span | None" = field(repr=False)
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    children: list = field(default_factory=list, repr=False)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        # Children of one span run one after another (the benchmark runs
        # single-threaded), so their durations do not overlap.
        return self.duration - sum(c.duration for c in self.children)

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _best_path_attrs(args, kwargs, result):
    return {"level": _arg(args, kwargs, 2, "level")}


def _save_matrix_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


def _flood_attrs(args, kwargs, result):
    n = result.tx.shape[0]
    levels = result.horizon + 1
    return {"levels": levels, "cells": levels * n * n}


def _sim_attrs(args, kwargs, result):
    return {
        "tries": sum(s.attempts for s in result.per_slave),
        "successes": sum(s.successes for s in result.per_slave),
        "give_ups": sum(s.give_ups for s in result.per_slave),
    }


# (module, attribute, span name, attribute hook run on the result)
WRAPPED = (
    ("channel", "build_matrix", "channel.build_matrix", None),
    ("channel", "save_matrix", "channel.save_matrix", _save_matrix_attrs),
    ("channel", "load_matrix", "channel.load_matrix", None),
    ("dlc", "cycle_analysis", "dlc.cycle_analysis", None),
    ("dlc", "slave_analysis", "dlc.slave_analysis", None),
    ("dlc", "best_path", "dlc.best_path", _best_path_attrs),
    ("sfn", "cycle_analysis", "sfn.cycle_analysis", None),
    ("sfn", "slave_analysis", "sfn.slave_analysis", None),
    ("sfn", "flood", "sfn.flood", _flood_attrs),
    ("simulator", "simulate_dlc", "simulator.simulate_dlc", _sim_attrs),
    ("simulator", "simulate_sfn", "simulator.simulate_sfn", _sim_attrs),
    ("simulator", "flood_trial", "simulator.flood_trial", None),
    ("cli", "main", "cli.main", None),
)


class Tracer:
    """Records spans in memory; `roots` holds the top-level spans in order."""

    def __init__(self):
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent)
        (parent.children if parent else self.roots).append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if hook is not None:
                span.attrs.update(hook(args, kwargs, result))
            return result
        return traced

    @contextmanager
    def install(self, package):
        """Rebind the WRAPPED attributes of `package`'s modules while active."""
        saved = []
        try:
            for module_name, attr, name, hook in WRAPPED:
                module = getattr(package, module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, hook))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


BEST_PATH_LEVELS = range(5)  # the workloads use max_level 4


def pass_metrics(root: Span) -> dict[str, float]:
    """Per-layer metrics of one traced pass (a root span and its subtree)."""
    spans = list(root.walk())

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum(s.duration for s in named(name))

    out = {
        "channel.build_matrix.s": total("channel.build_matrix"),
        "channel.save_matrix.s": total("channel.save_matrix"),
        "channel.load_matrix.s": total("channel.load_matrix"),
        "channel.file_bytes": sum(s.attrs["bytes"]
                                  for s in named("channel.save_matrix")),
        "dlc.cycle_analysis.calls": len(named("dlc.cycle_analysis")),
        "dlc.cycle_analysis.s": total("dlc.cycle_analysis"),
        "dlc.slave_analysis.calls": len(named("dlc.slave_analysis")),
        "dlc.best_path.calls": len(named("dlc.best_path")),
    }
    for level in BEST_PATH_LEVELS:
        out[f"dlc.best_path.L{level}.s"] = sum(
            s.self_time for s in named("dlc.best_path")
            if s.attrs["level"] == level)
    floods = named("sfn.flood")
    out.update({
        "sfn.cycle_analysis.calls": len(named("sfn.cycle_analysis")),
        "sfn.cycle_analysis.s": total("sfn.cycle_analysis"),
        "sfn.slave_analysis.self_s": sum(
            s.self_time for s in named("sfn.slave_analysis")),
        "sfn.flood.calls": len(floods),
        "sfn.flood.s": total("sfn.flood"),
        "sfn.flood.levels": sum(s.attrs["levels"] for s in floods),
        "sfn.flood.cells": sum(s.attrs["cells"] for s in floods),
    })

    plan_s = 0.0
    give_ups = 0
    for proto in ("dlc", "sfn"):
        sims = named(f"simulator.simulate_{proto}")
        # The plan is the analysis each simulate_* call runs before its tries.
        plan = sum(c.duration for s in sims for c in s.children)
        tries = sum(s.attrs["tries"] for s in sims)
        successes = sum(s.attrs["successes"] for s in sims)
        sim_s = sum(s.duration for s in sims)
        plan_s += plan
        give_ups += sum(s.attrs["give_ups"] for s in sims)
        out[f"simulator.simulate_{proto}.s"] = sim_s
        out[f"simulator.{proto}.tries"] = tries
        out[f"simulator.{proto}.try_us"] = \
            (sim_s - plan) / tries * 1e6 if tries else 0.0
        out[f"simulator.{proto}.useful_ratio"] = \
            successes / tries if tries else 0.0
    out["simulator.plan_s"] = plan_s
    out["simulator.give_ups"] = give_ups

    mains = named("cli.main")
    out["cli.main.s"] = sum(s.duration for s in mains)
    # argument parsing, serialization, tables, file writes and the
    # microsecond-scale metrics calls
    out["cli.self_s"] = sum(s.self_time for s in mains)
    out["cli.output_bytes"] = sum(s.attrs["output_bytes"]
                                  for s in named("bench.cli"))
    return out
