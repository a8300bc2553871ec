"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines
and the quantified analytic-vs-simulation gaps.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest

from plcroute import dlc, sfn, simulator
from plcroute.channel import DEFAULT_MODELS, PerMatrix, build_matrix, generate_ring
from plcroute.metrics import routing_overhead
from plcroute.simulator import (
    SimConfig,
    sample_first_success_levels,
    simulate,
    simulate_dlc,
    simulate_sfn,
)

from oracles import brute_force_best_path, geometric_retry_mean, random_matrix


@contextmanager
def criterion(number: int, name: str):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {name}")
        raise
    elapsed = time.monotonic() - started
    print(f"[PASS] criterion {number}: {name} ({elapsed:.1f}s)")


RING10 = generate_ring(10, 0.1, 0.6)


# ---------------------------------------------------------------------------


def test_criterion_1_path_oracle_equivalence():
    with criterion(1, "best_path equals exhaustive enumeration"):
        started = time.monotonic()
        rng = np.random.default_rng(20260810)
        for case in range(50):
            n = 5 + case % 4  # 5..8 nodes
            m = random_matrix(rng, n)
            for slave in m.slaves:
                for level in range(0, min(3, n - 2) + 1):
                    got = dlc.best_path(m, slave, level)
                    want_seq, want_prob = brute_force_best_path(m, slave, level)
                    assert got.repeaters == want_seq, (case, slave, level)
                    assert got.success_prob == pytest.approx(
                        want_prob, abs=1e-12), (case, slave, level)
        assert time.monotonic() - started < 30.0


def test_criterion_2_closed_forms_match_truncated_series():
    with criterion(2, "closed-form durations equal their truncated series"):
        for p in (0.1, 0.3, 0.5, 0.9):
            # source routing, direct and one-repeater versions
            direct = PerMatrix(np.array([[0.0, 1.0 - p], [0.0, 0.0]]))
            analysis = dlc.slave_analysis(direct, 1, max_level=0)
            prob = analysis.per_level[0].success_prob
            series = 2.0 * 1 * geometric_retry_mean(prob)
            assert abs(analysis.expected_duration - series) < 1e-9

            relayed = PerMatrix(np.array([
                [0.0, 1.0, 1.0 - p],
                [0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0],
            ]))
            analysis = dlc.slave_analysis(relayed, 1, max_level=1)
            assert analysis.best_level == 1
            prob = analysis.per_level[1].success_prob
            series = 2.0 * 2 * geometric_retry_mean(prob)
            assert abs(analysis.expected_duration - series) < 1e-9

            # flooding closed form against the same retry series
            m = PerMatrix(np.array([[0.0, 1.0 - p], [0.0, 0.0]]))
            result = sfn.slave_analysis(m, 1)
            series = (2.0 + result.r_dl + result.r_ul) * \
                geometric_retry_mean(result.poll_success)
            assert abs(result.expected_duration - series) < 1e-9


def test_criterion_3_dlc_simulation_agrees_with_analysis():
    with criterion(3, "dlc1000 simulation within 5% of analysis on ring_10"):
        started = time.monotonic()
        analytic = dlc.cycle_analysis(RING10, max_level=2).total
        # retry cap high enough that no poll is ever abandoned
        cfg = SimConfig(protocol="dlc1000", cycles=10_000, max_retries=10_000,
                        max_level=2, seed=1)
        report = simulate_dlc(RING10, cfg)
        assert report.reached_count == 9
        rel = (analytic - report.mean_cycle_duration) / report.mean_cycle_duration
        print(f"  dlc1000 ring_10: analytic {analytic:.2f}, "
              f"simulated {report.mean_cycle_duration:.2f}, "
              f"relative difference {rel * 100:+.2f}%")
        assert abs(rel) < 0.05
        assert time.monotonic() - started < 60.0


def _attempt_success_estimate(per, target, trials, seed, horizon):
    """Empirical per-level attempt success from independent full floods.

    A budget-r flood succeeds exactly when the unlimited flood would have
    delivered within level r, so one full flood per trial measures every
    level at once.  The floods run a block of rows at a time, each block
    from its own keyed stream.
    """
    log_miss = simulator._log_miss(per)
    reached = np.zeros(horizon + 1)
    for block, start in enumerate(range(0, trials, simulator._BLOCK)):
        rng = simulator._stream(seed, "sfn", target, block)
        rows = min(simulator._BLOCK, trials - start)
        levels = simulator._flood(log_miss, 0, horizon, rows,
                                  rng)[:, target]
        reached += np.bincount(levels[levels >= 0], minlength=horizon + 1)
    return np.cumsum(reached) / trials


def _histogram_check(target: int, chain_trials: int, probe_trials: int):
    profile = sfn.flood(RING10, 0, 1.0)
    dist = sfn.level_distribution(profile, target)
    horizon = dist.pi.size - 1

    levels = sample_first_success_levels(RING10, target, chain_trials,
                                         seed=55 + target)
    assert np.all(levels >= 0)
    counts = np.bincount(levels, minlength=horizon + 1)[:horizon + 1]

    # The retry chain itself: the histogram must match the first-success law
    # applied to independently measured per-attempt success probabilities.
    q_hat = _attempt_success_estimate(RING10, target, probe_trials,
                                      seed=9000 + target, horizon=horizon)
    pi_hat, _ = sfn.first_success_distribution(q_hat)
    head = np.flatnonzero(np.cumsum(pi_hat) < 1.0 - 5e-4)
    worst = 0.0
    for r in head:
        se = np.sqrt(chain_trials * pi_hat[r] * (1.0 - pi_hat[r]))
        if se == 0.0:
            assert counts[r] == 0
            continue
        z = abs(counts[r] - chain_trials * pi_hat[r]) / se
        worst = max(worst, z)
        assert z <= 3.0, (target, r, z)
    tail_mass = 1.0 - pi_hat[head].sum() if head.size else 1.0
    tail_count = chain_trials - counts[head].sum()
    tail_se = np.sqrt(chain_trials * tail_mass * max(1.0 - tail_mass, 0.0))
    assert abs(tail_count - chain_trials * tail_mass) <= 3.0 * tail_se + 3.0

    # Quantified gap to the analytic distribution: the per-level reception
    # recursion is an independence approximation, so the analytic pi carries
    # a small bias; total variation stays within the measured envelope.
    pi_ana = dist.pi / dist.pi.sum()
    emp = counts / chain_trials
    tv = 0.5 * float(np.abs(emp - pi_ana).sum())
    print(f"  first-success levels, slave {target}: worst chain-law z "
          f"{worst:.2f}, total variation to analytic pi {tv:.3f}")
    return tv


def test_criterion_4_sfn_simulation_and_level_histogram():
    with criterion(4, "sfn simulation within 15% and first-success levels "
                      "follow the retry-chain law"):
        analytic = sfn.cycle_analysis(RING10).total
        cfg = SimConfig(protocol="sfn", cycles=10_000, max_retries=10_000,
                        seed=1)
        report = simulate_sfn(RING10, cfg)
        assert report.reached_count == 9
        rel = (analytic - report.mean_cycle_duration) / report.mean_cycle_duration
        print(f"  sfn ring_10: analytic {analytic:.2f}, "
              f"simulated {report.mean_cycle_duration:.2f}, "
              f"relative difference {rel * 100:+.2f}%")
        assert abs(rel) < 0.15

        for target in (3, 5):
            tv = _histogram_check(target, chain_trials=10_000,
                                  probe_trials=30_000)
            assert tv <= 0.06


def test_criterion_5_flooding_beats_source_routing_on_all_default_models():
    with criterion(5, "sfn total below dlc1000 total on all five models"):
        started = time.monotonic()
        for name, spec in DEFAULT_MODELS:
            m = build_matrix(spec)
            dlc_total = dlc.cycle_analysis(m, max_level=4).total
            sfn_total = sfn.cycle_analysis(m).total
            print(f"  {name}: sfn {sfn_total:.1f} < dlc1000 {dlc_total:.1f}")
            assert sfn_total < dlc_total, name
        assert time.monotonic() - started < 120.0


def test_criterion_6_overhead_exact_rationals():
    with criterion(6, "routing overhead matches the exact rationals"):
        dlc_report = routing_overhead("dlc1000", 64)
        sfn_report = routing_overhead("sfn", 64)
        assert Fraction(dlc_report.routing_bits_per_packet,
                        dlc_report.packet_bits) == Fraction(24, 512)
        assert Fraction(sfn_report.routing_bits_per_packet,
                        sfn_report.packet_bits) == Fraction(8, 512)
        assert round(dlc_report.overhead_ratio * 100, 1) == 4.7
        assert round(sfn_report.overhead_ratio * 100, 1) == 1.6


def test_criterion_7_flood_profile_property_suite():
    with criterion(7, "flood profiles conserve mass, stay monotone, and "
                      "track hop distance"):
        # conservation and cumulative monotonicity on the seeded instances
        rng_matrices = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            arr = rng.random((5, 5))
            np.fill_diagonal(arr, 0.0)
            rng_matrices.append((seed, rng, PerMatrix(arr)))
        for seed, _, m in rng_matrices:
            profile = sfn.flood(m, 0, 1.0)
            assert np.all(profile.rcv.sum(axis=1) <= 1.0 + 1e-12), seed
            assert np.all(profile.tx.sum(axis=1) <= 1.0 + 1e-12), seed
            assert np.all(np.diff(profile.cumulative, axis=1) >= -1e-15), seed

        # zero-loss lines: reception level is exactly hop distance minus one
        for length in range(2, 7):
            n = length + 1
            arr = np.ones((n, n))
            for a in range(length):
                arr[a, a + 1] = arr[a + 1, a] = 0.0
            np.fill_diagonal(arr, 0.0)
            profile = sfn.flood(PerMatrix(arr), 0, 1.0)
            for node in range(1, n):
                assert profile.rcv[node, node - 1] == 1.0
                assert profile.rcv[node].sum() == 1.0

        # degrading one link never raises any cumulative reception on the
        # 20 seeded instances (the recursion is not monotone universally;
        # see tests/test_sfn.py for the pinned counterexample)
        for seed, rng, m in rng_matrices:
            i, j = rng.integers(0, 5, size=2)
            while i == j:
                i, j = rng.integers(0, 5, size=2)
            worse = np.array(m.per)
            worse[i, j] = min(1.0, worse[i, j] +
                              rng.random() * (1.0 - worse[i, j]))
            base = sfn.flood(m, 0, 1.0)
            degraded = sfn.flood(PerMatrix(worse), 0, 1.0)
            levels = min(base.cumulative.shape[1],
                         degraded.cumulative.shape[1])
            assert np.all(degraded.cumulative[:, :levels] <=
                          base.cumulative[:, :levels] + 1e-12), seed


def test_criterion_8_simulation_determinism():
    with criterion(8, "bit-identical reports across repeats"):
        m = generate_ring(8, 0.2, 0.7)
        analyses = {"dlc1000": dlc.cycle_analysis(m),
                    "sfn": sfn.cycle_analysis(m)}
        for protocol in ("dlc1000", "sfn"):
            cfg = SimConfig(protocol=protocol, cycles=120, max_retries=2,
                            seed=42)
            reference = None
            # four repeats planning by themselves, then one given the plan
            runs = (None,) * 4 + (analyses[protocol],)
            for run, analysis in enumerate(runs):
                blob = repr(asdict(simulate(m, cfg, analysis)))
                if reference is None:
                    reference = blob
                assert blob == reference, (protocol, run)
