"""Self-tests of the benchmark: `python3 -m pytest perfbench` from the repo root."""
from __future__ import annotations

import json
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import plcroute  # noqa: E402
from plcroute import channel, dlc, sfn, simulator  # noqa: E402
from plcroute.simulator import SimConfig  # noqa: E402

from speed import EVERY_S, REFERENCE_S, WINDOW_S, SpeedProbe  # noqa: E402
from tracing import WRAPPED, Tracer  # noqa: E402
from workloads import WORKLOADS, model_spec  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _analyses_and_reports(per):
    analyses = (dlc.cycle_analysis(per, 4).total, sfn.cycle_analysis(per).total)
    reports = tuple(
        simulator.simulate(per, SimConfig(protocol=p, cycles=20, seed=7))
        for p in ("dlc1000", "sfn"))
    return analyses, reports


def test_wrappers_are_transparent():
    originals = [getattr(getattr(plcroute, m), a) for m, a, _, _ in WRAPPED]
    for name in ("ring_12", "rand_area_24"):
        per = channel.build_matrix(model_spec(name))
        untraced = _analyses_and_reports(per)
        tracer = Tracer()
        with tracer.install(plcroute):
            traced = _analyses_and_reports(per)
        assert traced[0] == untraced[0]
        assert [r.to_dict() for r in traced[1]] == \
            [r.to_dict() for r in untraced[1]]
        spans = {s.name for root in tracer.roots for s in root.walk()}
        assert {"dlc.best_path", "sfn.flood", "simulator.simulate_sfn"} <= spans
    assert originals == [getattr(getattr(plcroute, m), a)
                         for m, a, _, _ in WRAPPED]


def test_speed_samples_scale_an_interval():
    w = WINDOW_S
    speed = SpeedProbe()
    # a sample inside the interval [w, 3w], one just after it, one far after
    speed.samples = [(2 * w, 2.1 * w, 2 * REFERENCE_S),
                     (3.5 * w, 3.6 * w, 4 * REFERENCE_S),
                     (20 * w, 20.1 * w, REFERENCE_S)]
    assert speed.own_time(w, 3 * w) == pytest.approx(1.9 * w)
    assert speed.scale(w, 3 * w) == pytest.approx(1 / 3)
    assert speed.scaled(w, 3 * w) == pytest.approx(1.9 * w / 3)
    assert speed.scale(20.5 * w, 20.6 * w) == pytest.approx(1.0)
    with pytest.raises(RuntimeError):
        speed.scale(30 * w, 31 * w)


def test_speed_sampling_takes_samples_and_restores_the_handler():
    speed = SpeedProbe()
    previous = signal.getsignal(signal.SIGALRM)
    with speed.sampling():
        deadline = time.perf_counter() + 10 * EVERY_S
        while time.perf_counter() < deadline:
            pass
    assert len(speed.samples) >= 5
    assert all(s < e and 0 < t <= e - s for s, e, t in speed.samples)
    assert signal.getsignal(signal.SIGALRM) == previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_names_and_units_are_well_formed():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    names += [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names), names
    assert all(UNIT.fullmatch(m["unit"]) for m in metrics)
    assert set(WORKLOADS) == {w["name"] for w in BENCHMARK["workloads"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_smoke_run(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("sim-small", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
