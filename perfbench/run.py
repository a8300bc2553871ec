"""plcroute benchmark: one workload per process, end-to-end metrics with
tracing off (--trace 0) or per-layer metrics from a traced run (--trace 1).

    python3 perfbench/run.py --workload sim-small --seed 1 --seconds 20 --trace 0

Run from anywhere; the plcroute sources are taken from `src/` next to this
directory.  Human-readable lines come first; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  See perfbench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

from speed import REFERENCE_S, SpeedProbe

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCHMARK_FILE = ROOT / "BENCHMARK.json"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_ROUNDS = 9
IMPORT_PROBE = ("import time; t = time.perf_counter(); import plcroute; "
                "print(time.perf_counter() - t)")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("analytic-large", "sim-small",
                                 "compare-defaults"))
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed (>= 0); feeds the simulator seeds")
    parser.add_argument("--seconds", type=float, required=True,
                        help="time budget for the measured passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is the self-test's smoke size")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def cap_threads(nproc: int) -> None:
    """Cap BLAS/OpenMP pools at nproc; must run before numpy is imported."""
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        limit = int(current) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(min(limit, nproc))


def git_commit() -> str:
    """The checkout's commit from .git, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def child_import_seconds() -> float:
    """`import plcroute` timed inside a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout.strip())


def run_passes(workload, ctx, seconds: float, with_setup: bool) -> list:
    """At least one pass, then more while the next one should fit the budget."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(workload.run_pass(ctx, with_setup))
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def declared_metrics(kind: str) -> dict[str, str]:
    spec = json.loads(BENCHMARK_FILE.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def measure(args, nproc: int, speed: SpeedProbe):
    """The set-up rounds and the passes of one run."""
    # A traced run reports no setup_s; its one round only loads the models.
    imports = []  # (the child's own import time, the child's run)
    for _ in range(SETUP_ROUNDS if args.trace == 0 else 1):
        started = time.perf_counter()
        import_s = child_import_seconds() if args.trace == 0 else 0.0
        imports.append((import_s, started, time.perf_counter()))

    # numpy and plcroute are imported only now, after the thread caps.
    import numpy as np

    import plcroute
    import workloads
    from tracing import Tracer

    workload = workloads.WORKLOADS[args.workload][args.size]
    record = {
        "workload": args.workload, "size": args.size, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "nproc": nproc,
        "threads_cap": os.environ["OMP_NUM_THREADS"], "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "commit": git_commit(),
    }
    print("run record " + json.dumps(record))

    work_parent = ROOT / ".bench_work"
    work_parent.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_parent) as tmp:
        workdir = Path(tmp)
        untraced = Tracer()  # records only the benchmark's own spans
        setup_check = workloads.PassOutcome(root=None)
        setup_rounds = []  # (import time, its run, build/save/load round)
        for import_s, import_start, import_end in imports:
            started = time.perf_counter()
            matrices = workloads.setup_models(workload.models, workdir,
                                              setup_check)
            setup_rounds.append((import_s, import_start, import_end,
                                 started, time.perf_counter()))
        ctx = workloads.Context(matrices, workloads.load_reference(),
                                args.seed, workdir, untraced)

        budget = args.seconds if args.trace == 0 else args.seconds / 2
        passes = run_passes(workload, ctx, budget, with_setup=False)
        traced, probes = [], None
        if args.trace == 1:
            ctx.tracer = Tracer()
            with ctx.tracer.install(plcroute):
                traced = run_passes(workload, ctx, budget, with_setup=True)
                with ctx.tracer.span("probes") as probes:
                    workload.flood_probe(ctx)
                    if not workload.uses_cli:
                        workload.cli_probe(ctx)
    return workload, setup_check, setup_rounds, passes, traced, probes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "plcroute" / "__init__.py").is_file():
        print(f"error: no plcroute sources under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    cap_threads(nproc)
    sys.path.insert(0, str(SRC))

    # The machine's speed is sampled all through the run (see speed.py).
    speed = SpeedProbe()
    with speed.sampling():
        workload, setup_check, setup_rounds, passes, traced, probes = \
            measure(args, nproc, speed)
    import workloads  # imported by measure, after the thread caps

    outcomes = [setup_check, *passes, *traced]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    if args.trace == 0:
        metrics = workloads.end_to_end(passes, speed)
        # the child's import at the speed around it, then the round's own
        metrics["setup_s"] = median(
            import_s * speed.scale(import_start, import_end)
            + speed.scaled(started, ended)
            for import_s, import_start, import_end, started, ended
            in setup_rounds)
        metrics["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = declared_metrics("end_to_end")
    else:
        metrics = workloads.per_layer(workload, traced, probes)
        metrics["trace.overhead_s"] = (
            workloads.end_to_end(traced, speed)["wall_s"]
            - workloads.end_to_end(passes, speed)["wall_s"])
        metrics["error_rate"] = failed / attempted
        units = declared_metrics("per_layer")
    if set(metrics) != set(units):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")

    print(f"passes: {len(passes)} untraced, {len(traced)} traced; "
          f"ops: {attempted} attempted, {failed} failed")
    print(f"speed: {len(speed.samples)} samples, median "
          f"{speed.median_sample() * 1e3:.4f} ms, reference "
          f"{REFERENCE_S * 1e3:.4f} ms; times below are at the reference")
    for name in units:
        print(f"  {name:32s} {metrics[name]:>16.6g} {units[name]}")
    for note in dict.fromkeys(n for o in outcomes for n in o.notes):
        print(f"info: {note}")
    for failure in (f for o in outcomes for f in o.failures):
        print(f"FAILED: {failure}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
