from __future__ import annotations

import re
from dataclasses import asdict, replace

import numpy as np
import pytest

from plcroute import dlc, sfn, simulator
from plcroute.channel import (DEFAULT_MODELS, PerMatrix, build_matrix,
                              generate_rand_area, generate_ring)
from plcroute.simulator import (
    SimConfig,
    flood_trial,
    sample_first_success_levels,
    simulate,
    simulate_dlc,
    simulate_sfn,
)

from oracles import per_link_flood


def matrix(rows) -> PerMatrix:
    return PerMatrix(np.array(rows, dtype=float))


def perfect(n: int) -> PerMatrix:
    return PerMatrix(np.zeros((n, n)))


def line_matrix() -> PerMatrix:
    return matrix([
        [0.0, 0.0, 1.0],
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
    ])


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(protocol="tdma", cycles=10)
    with pytest.raises(ValueError):
        SimConfig(protocol="sfn", cycles=0)
    with pytest.raises(ValueError):
        SimConfig(protocol="sfn", cycles=1, max_retries=-1)
    with pytest.raises(ValueError):
        SimConfig(protocol="dlc1000", cycles=1, max_level=-1)
    for seed in (-1, 1 << 64, 1.0, True):
        with pytest.raises(ValueError, match="seed"):
            SimConfig(protocol="sfn", cycles=1, seed=seed)
    assert SimConfig(protocol="sfn", cycles=1, seed=(1 << 64) - 1)
    # counts are integers: 1.5 retries would not be a number of tries
    for protocol, setting in (("sfn", "cycles"), ("dlc1000", "max_retries"),
                              ("sfn", "max_retries"), ("dlc1000", "max_level")):
        with pytest.raises(ValueError, match=f"{setting} must be an integer"):
            SimConfig(protocol, **{"cycles": 3, setting: 2.5})
    with pytest.raises(ValueError, match="cycles must be an integer, not True"):
        SimConfig("sfn", cycles=True)
    assert SimConfig("sfn", cycles=np.int64(3), max_retries=np.int64(1))


def test_dlc_perfect_two_nodes():
    report = simulate_dlc(perfect(2), SimConfig("dlc1000", cycles=50, seed=3))
    stats = report.per_slave[0]
    assert stats.attempts == stats.successes == 50
    assert stats.give_ups == 0
    assert stats.mean_round_trip_slots == 2.0
    assert report.mean_cycle_duration == 2.0
    assert report.total_slots == 100
    assert report.reached_count == 1


def test_dlc_unreachable_slave_consumes_slots():
    m = matrix([[0.0, 1.0], [1.0, 0.0]])
    cfg = SimConfig("dlc1000", cycles=20, max_retries=2, max_level=0, seed=1)
    report = simulate_dlc(m, cfg)
    stats = report.per_slave[0]
    assert stats.successes == 0
    assert stats.give_ups == 20
    assert stats.mean_round_trip_slots is None
    assert report.reached_count == 0
    assert report.mean_cycle_duration == 0.0
    assert report.total_slots == 20 * 3 * 2  # 3 tries per cycle, 2 slots each


def test_sfn_perfect_two_nodes():
    report = simulate_sfn(perfect(2), SimConfig("sfn", cycles=30, seed=2))
    stats = report.per_slave[0]
    assert stats.successes == 30
    assert stats.mean_round_trip_slots == 2.0
    assert report.mean_cycle_duration == 2.0


def test_sfn_deterministic_line_hand_trace():
    # slave 2 is always polled through the relay: 4 slots, no retries
    report = simulate_sfn(line_matrix(), SimConfig("sfn", cycles=25, seed=7))
    by_slave = {s.slave: s for s in report.per_slave}
    assert by_slave[1].mean_round_trip_slots == 2.0
    assert by_slave[2].mean_round_trip_slots == 4.0
    assert by_slave[2].attempts == 25
    assert report.mean_cycle_duration == 6.0


def test_same_seed_same_report():
    m = generate_ring(6, 0.2, 0.7)
    cfg = SimConfig("sfn", cycles=40, seed=11)
    a = simulate_sfn(m, cfg)
    b = simulate_sfn(m, cfg)
    assert a == b
    assert asdict(a) == asdict(b)


def test_different_seed_different_outcome():
    m = generate_ring(6, 0.2, 0.7)
    a = simulate_sfn(m, SimConfig("sfn", cycles=40, seed=11))
    b = simulate_sfn(m, SimConfig("sfn", cycles=40, seed=12))
    assert asdict(a) != asdict(b)


@pytest.mark.parametrize("protocol", ["dlc1000", "sfn"])
def test_given_analysis_equals_own_plan(protocol):
    # the analysis simulate computes for itself is the one a caller passes
    m = generate_ring(7, 0.2, 0.7)
    cfg = SimConfig(protocol, cycles=60, max_level=3, seed=5)
    if protocol == "dlc1000":
        analysis = dlc.cycle_analysis(m, cfg.max_level)
    else:
        analysis = sfn.cycle_analysis(m)
    assert simulate(m, cfg) == simulate(m, cfg, analysis)


@pytest.mark.parametrize("protocol", ["dlc1000", "sfn"])
def test_analysis_of_another_matrix_is_rejected(protocol):
    m = generate_ring(7, 0.2, 0.7)
    other = generate_ring(6, 0.2, 0.7)
    if protocol == "dlc1000":
        analysis = dlc.cycle_analysis(other)
    else:
        analysis = sfn.cycle_analysis(other)
    with pytest.raises(ValueError, match="slaves"):
        simulate(m, SimConfig(protocol, cycles=10), analysis)


@pytest.mark.parametrize("protocol", ["dlc1000", "sfn"])
def test_analysis_of_the_other_protocol_is_rejected(protocol):
    # an sfn plan has no repeater chain, a dlc1000 plan no flood levels
    m = generate_ring(7, 0.2, 0.7)
    other = sfn.cycle_analysis(m) if protocol == "dlc1000" \
        else dlc.cycle_analysis(m)
    with pytest.raises(ValueError, match=type(other).__name__):
        simulate(m, SimConfig(protocol, cycles=5), other)


def test_analyze_is_each_protocols_cycle_analysis():
    m = generate_ring(7, 0.2, 0.7)
    assert simulator.analyze(m, "dlc1000", 3) == dlc.cycle_analysis(m, 3)
    assert simulator.analyze(m, "sfn") == sfn.cycle_analysis(m)
    with pytest.raises(ValueError, match="unknown protocol 'bogus'"):
        simulator.analyze(m, "bogus")


@pytest.mark.parametrize("protocol", ["dlc1000", "sfn"])
def test_compare_sets_the_simulation_against_its_analysis(protocol):
    m = generate_ring(7, 0.2, 0.7)
    cfg = SimConfig(protocol, cycles=60, max_level=3, seed=5)
    analysis = simulator.analyze(m, protocol, cfg.max_level)
    result = simulator.compare(m, cfg, analysis)
    simulated = simulate(m, cfg, analysis).mean_cycle_duration
    assert result.simulation == simulate(m, cfg)
    assert result.analytic_total == analysis.total
    assert result.analytic_unreachable == analysis.unreachable
    assert result.relative_difference == \
        (analysis.total - simulated) / simulated
    # every link lost: no poll succeeds, and a 0 mean has no relative
    # difference
    dead = matrix([[0.0, 1.0], [1.0, 0.0]])
    result = simulator.compare(dead, replace(cfg, cycles=5),
                               simulator.analyze(dead, protocol))
    assert result.simulation.mean_cycle_duration == 0.0
    assert result.relative_difference is None


def test_dlc_polls_the_chain_of_the_analysis():
    # node 2 hears the master only through node 1: the analysed chain (1,)
    # always works, and a level-0 chain swapped into the analysis never does
    m = line_matrix()
    cfg = SimConfig("dlc1000", cycles=40, max_retries=0, seed=2)
    analysis = dlc.cycle_analysis(m)
    near, far = analysis.slaves
    assert far.repeaters == (1,)
    direct = replace(analysis, slaves=(
        near, replace(far, best_level=0, repeaters=())))
    routed = simulate_dlc(m, cfg, analysis).per_slave[1]
    assert routed.successes == 40 and routed.slots == 4 * 40
    cut = simulate_dlc(m, cfg, direct).per_slave[1]
    assert cut.successes == 0 and cut.slots == 2 * 40


def test_protocol_config_must_match_entry_point():
    m = perfect(2)
    with pytest.raises(ValueError):
        simulate_dlc(m, SimConfig("sfn", cycles=1))
    with pytest.raises(ValueError):
        simulate_sfn(m, SimConfig("dlc1000", cycles=1))


def test_dlc_slot_accounting_reconstructable():
    # every try costs 2*(level+1) slots, so slots == that cost times attempts
    m = generate_ring(8, 0.2, 0.7)
    cfg = SimConfig("dlc1000", cycles=30, max_retries=3, max_level=2, seed=9)
    report = simulate_dlc(m, cfg)
    for stats in report.per_slave:
        level = dlc.slave_analysis(m, stats.slave, 2).best_level
        assert stats.slots == 2 * (level + 1) * stats.attempts
    assert report.total_slots == sum(s.slots for s in report.per_slave)


def test_dlc_counts_replay_each_slaves_one_stream():
    # one geometric try count per cycle, drawn in turn from the slave's
    # one ("dlc1000", slave) stream
    m = generate_ring(8, 0.2, 0.7)
    cfg = SimConfig("dlc1000", cycles=300, max_retries=3, max_level=2, seed=9)
    analysis = dlc.cycle_analysis(m, cfg.max_level)
    report = simulate_dlc(m, cfg, analysis)
    cap = cfg.max_retries + 1
    for a, stats in zip(analysis.slaves, report.per_slave):
        rng = simulator._stream(cfg.seed, "dlc1000", a.slave)
        try_ok = dlc.round_trip_success(m, a.repeaters, a.slave)
        attempts = successes = 0
        for _ in range(cfg.cycles):
            g = int(rng.geometric(try_ok))
            attempts += min(g, cap)
            successes += g <= cap
        assert (stats.slave, stats.attempts, stats.successes, stats.slots) \
            == (a.slave, attempts, successes, 2 * (a.best_level + 1) * attempts)


def test_stream_keys_never_collide():
    def draws(rng):
        return rng.random(8)

    # the seed fills a fixed-width pool: 5 + 3 * 2**32 is not seed 5 with
    # its high word moved into the key
    assert not np.array_equal(
        draws(simulator._stream(5 + 3 * 2 ** 32, "sfn", 7, 0)),
        draws(simulator._stream(5, "sfn", 3, 7)))
    for seed in (0, 11, (1 << 64) - 1):
        # a DLC slave's stream is not the SFN block of the same number
        assert not np.array_equal(
            draws(simulator._stream(seed, "dlc1000", 3)),
            draws(simulator._stream(seed, "sfn", 3)))
        # the sampler's trials of a target are not SFN cycles
        for block in (0, 1):
            assert not np.array_equal(
                draws(simulator._stream(seed, "sampler", 3, block)),
                draws(simulator._stream(seed, "sfn", block)))
        # so do a key and the same key with a trailing zero block
        for purpose in simulator._PURPOSES:
            assert not np.array_equal(
                draws(simulator._stream(seed, purpose, 3)),
                draws(simulator._stream(seed, purpose, 3, 0)))
    # the spawn key is the purpose's index, then the key: DLC (0, slave),
    # SFN (1, block), the sampler (2, target, block)
    for purpose, spawn_key in (("dlc1000", (0, 3)), ("sfn", (1, 1)),
                               ("sampler", (2, 3, 1))):
        want = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(11, spawn_key=spawn_key)))
        assert np.array_equal(
            draws(simulator._stream(11, purpose, *spawn_key[1:])),
            draws(want))


def test_dlc_capped_retries_follow_truncated_geometric():
    # tries per cycle are min(G, max_retries + 1) for a geometric G, and
    # a cycle gives up when G exceeds the cap
    m = generate_ring(8, 0.2, 0.7)
    cfg = SimConfig("dlc1000", cycles=3000, max_retries=4, max_level=2, seed=6)
    report = simulate_dlc(m, cfg)
    tries = cfg.max_retries + 1
    for stats in report.per_slave:
        analysis = dlc.slave_analysis(m, stats.slave, cfg.max_level)
        p = next(o.success_prob for o in analysis.per_level
                 if o.level == analysis.best_level)
        miss = 1.0 - p
        give_up = miss ** tries
        se = np.sqrt(give_up * (1 - give_up) / cfg.cycles)
        assert abs(stats.give_ups / cfg.cycles - give_up) <= 4 * se + 1e-12
        # E[min(G, tries)] and its variance, from P(min > k) = miss^k
        mean = sum(miss ** k for k in range(tries))
        second = sum((2 * k + 1) * miss ** k for k in range(tries))
        se = np.sqrt((second - mean ** 2) / cfg.cycles)
        assert abs(stats.attempts / cfg.cycles - mean) <= 4 * se + 1e-12


@pytest.mark.parametrize("m", [
    generate_ring(8, 0.2, 0.7),
    build_matrix(dict(DEFAULT_MODELS)["rand_area_20"]),
], ids=["ring_8", "rand_area_20"])
def test_sfn_slots_exact_without_retries(m):
    cfg = SimConfig("sfn", cycles=300, max_retries=0, seed=4)
    analysis = sfn.cycle_analysis(m)
    report = simulate_sfn(m, cfg, analysis)
    plans = {a.slave: (a.r_dl, a.r_ul) for a in analysis.slaves}
    for stats in report.per_slave:
        r_dl, r_ul = plans[stats.slave]
        assert stats.attempts == cfg.cycles
        assert stats.slots == (2 + r_dl + r_ul) * stats.attempts


def test_sfn_uplink_succeeds_as_a_lone_flood_from_the_slave():
    # links towards the master fail far more often than links away from
    # it, so the master's flood on the transposed matrix, which serves
    # every slave's uplink, reaches a slave about half as often as its
    # flood on the matrix itself would; each slave's successes at cap 0
    # must match D * U from lone floods, the uplink from the slave with the
    # master not relaying, on streams of their own
    row, col = np.indices((5, 5))
    m = PerMatrix(np.where(row < col, 0.2, 0.75) * (row != col))
    analysis = sfn.cycle_analysis(m)
    cycles, trials = 3000, 20_000
    report = simulate_sfn(m, SimConfig("sfn", cycles=cycles, max_retries=0,
                                       seed=9), analysis)
    log_miss = simulator._log_miss(m)
    for a, stats in zip(analysis.slaves, report.per_slave):
        s = a.slave
        down = np.mean(simulator._flood(log_miss, 0, a.r_dl, trials,
                                        np.random.default_rng([31, s]),
                                        s)[:, s] >= 0)
        up = np.mean(simulator._flood(log_miss, s, a.r_ul, trials,
                                      np.random.default_rng([37, s]),
                                      0)[:, 0] >= 0)
        want = down * up
        var = (want * (1 - want) / cycles
               + (up ** 2 * down * (1 - down) + down ** 2 * up * (1 - up))
               / trials)
        assert abs(stats.successes / cycles - want) <= 4 * np.sqrt(var), s


def test_sfn_slave_without_live_route_is_given_up_without_floods(
        monkeypatch):
    # slave 1 hears the master but reaches no node, so no poll of it can
    # succeed; its cycles cost no kernel call, whatever the retry cap
    m = matrix([[0.0, 0.1, 0.2], [1.0, 0.0, 1.0], [0.3, 0.4, 0.0]])
    spread, calls = simulator._spread, []

    def counted(*args, **kwargs):
        calls.append(None)
        return spread(*args, **kwargs)

    monkeypatch.setattr(simulator, "_spread", counted)
    made = []
    for max_retries in (10, 10_000):
        calls.clear()
        report = simulate_sfn(m, SimConfig("sfn", cycles=3,
                                           max_retries=max_retries, seed=2))
        cap = max_retries + 1
        one = report.per_slave[0]
        assert (one.attempts, one.successes, one.slots) == \
            (3 * cap, 0, 3 * cap * (cap + 1))
        made.append(len(calls))
    assert made[1] == made[0]


def _flood_replay(m: PerMatrix, cfg: SimConfig, analysis) -> dict:
    """(attempts, successes, slots) per slave from shared floods: per
    block, try and leg, one _flood call from the master over the block's
    cycles that still poll a slave, drawing from the block's keyed stream
    in turn; the downlink floods the matrix, the uplink its transpose."""
    legs = [(simulator._log_miss(m), [a.r_dl for a in analysis.slaves]),
            (np.ascontiguousarray(simulator._log_miss(m).T),
             [a.r_ul for a in analysis.slaves])]
    slaves = [a.slave for a in analysis.slaves]
    first = np.full((cfg.cycles, len(slaves)), -1)
    for block, start in enumerate(range(0, cfg.cycles, simulator._BLOCK)):
        rng = simulator._stream(cfg.seed, "sfn", block)
        cycles = first[start:start + simulator._BLOCK]  # a view
        for j in range(cfg.max_retries + 1):
            polled = np.flatnonzero((cycles < 0).any(axis=1))
            if not polled.size:
                break
            ok = cycles[polled] < 0
            for log_miss, levels in legs:
                reach = np.array(levels) + j
                level = simulator._flood(log_miss, 0, int(reach.max()),
                                         polled.size, rng, 0)[:, slaves]
                ok &= (level >= 0) & (level <= reach)
            cycles[polled] = np.where(ok, j, cycles[polled])
    counts = {}
    for i, a in enumerate(analysis.slaves):
        made = first[:, i] + 1  # tries of a cycle that succeeds, 0 if none
        tries = np.where(made > 0, made, cfg.max_retries + 1)
        slots = sum(int(np.count_nonzero(tries > j)) * (2 + a.r_dl + a.r_ul
                                                         + 2 * j)
                    for j in range(int(tries.max())))
        counts[a.slave] = (int(tries.sum()), int(np.count_nonzero(made)),
                           slots)
    return counts


_BATCH_MODELS = {
    "ring_20": generate_ring(20),  # sparse: four live links per node
    "rand_area_20": build_matrix(dict(DEFAULT_MODELS)["rand_area_20"]),
    "ring_6": generate_ring(6, 0.2, 0.7),
}
# (model, max_retries, cycles, seed); 300 cycles span two blocks
_REPLAY_CASES = [*((name, max_retries, cycles, 13)
                   for name in ("rand_area_20", "ring_20")
                   for max_retries in (0, 2, 10_000) for cycles in (2, 300)),
                 ("ring_6", 2, 300, 21)]


@pytest.mark.parametrize("name,max_retries,cycles,seed", _REPLAY_CASES,
                         ids=["-".join(map(str, c[:3])) for c in _REPLAY_CASES])
def test_batched_floods_equal_per_slave_flood_replay(name, max_retries,
                                                     cycles, seed):
    # the replay is of shared floods, as simulate_sfn runs them, and no
    # longer of one flood per slave: the name and the case ids are kept.
    # That shared floods give each slave the law of its own floods is
    # checked by test_sfn_uplink_succeeds_as_a_lone_flood_from_the_slave.
    # A cycle's slaves share its two floods per try, the kernel calls of a
    # leg span blocks, and each block still draws exactly what its own
    # floods would, in order; so the slot, try and success counts follow
    # from the plan and the per-try outcomes
    m = _BATCH_MODELS[name]
    cfg = SimConfig("sfn", cycles=cycles, max_retries=max_retries, seed=seed)
    analysis = sfn.cycle_analysis(m)
    want = _flood_replay(m, cfg, analysis)
    report = simulate_sfn(m, cfg, analysis)
    assert {s.slave: (s.attempts, s.successes, s.slots)
            for s in report.per_slave} == want
    assert all(s.give_ups == cycles - want[s.slave][1]
               for s in report.per_slave)


def test_sampler_draws_from_streams_of_its_own():
    # the sampler's trials of target replay block by block from
    # ("sampler", target, block), and not from SFN's streams of slave
    # target, which a simulation at the same seed draws
    m, target, trials, seed = _BATCH_MODELS["ring_6"], 3, 300, 21
    levels = sample_first_success_levels(m, target, trials, seed)
    log_miss = simulator._log_miss(m)
    for purpose, same in (("sfn", False), ("sampler", True)):
        want = np.full(trials, -1)
        for block, start in enumerate(range(0, trials, simulator._BLOCK)):
            rng = simulator._stream(seed, purpose, target, block)
            pending = np.arange(start, min(start + simulator._BLOCK, trials))
            for level in range(m.node_count + 1):
                got = simulator._flood(log_miss, 0, level, pending.size, rng,
                                       target)[:, target] >= 0
                want[pending[got]] = level
                pending = pending[~got]
                if not pending.size:
                    break
        assert np.array_equal(want, levels) == same, purpose


@pytest.mark.parametrize("elements", [1, 100 * 20, 1 << 62],
                         ids=["one-row-per-call", "blocks-split-across-calls",
                              "one-call-per-leg"])
def test_batch_size_leaves_reports_and_samples_unchanged(monkeypatch,
                                                         elements):
    # 100-row calls split each 256-cycle block of the 20-node models, and
    # one call may hold cycles of both blocks; every block's stream is
    # still read in cycle order
    ring = _BATCH_MODELS["ring_20"]
    runs = [(ring, SimConfig("sfn", cycles=300, max_retries=10_000, seed=5)),
            (_BATCH_MODELS["rand_area_20"],
             SimConfig("sfn", cycles=300, max_retries=2, seed=5))]
    want = [asdict(simulate_sfn(m, cfg)) for m, cfg in runs]
    sample = sample_first_success_levels(ring, 10, 600, seed=3)
    monkeypatch.setattr(simulator, "_BATCH_ELEMENTS", elements)
    assert [asdict(simulate_sfn(m, cfg)) for m, cfg in runs] == want
    assert np.array_equal(
        sample_first_success_levels(ring, 10, 600, seed=3), sample)


def test_kernel_calls_stay_within_the_element_budget(monkeypatch):
    # a 256-cycle block of a 200-node model holds more rows than the
    # budget admits, so the block's cells are split across calls
    m = build_matrix(dict(DEFAULT_MODELS)["rand_area_200"])
    spread, rows = simulator._spread, []

    def counted(log_miss, src, *args, **kwargs):
        rows.append(len(src))
        return spread(log_miss, src, *args, **kwargs)

    monkeypatch.setattr(simulator, "_spread", counted)
    simulate_sfn(m, SimConfig("sfn", cycles=300, max_retries=0, seed=3))
    assert max(rows) == simulator._BATCH_ELEMENTS // m.node_count
    assert sum(rows) == 2 * 300  # one try: two floods a cycle, shared


@pytest.mark.parametrize("cap", [10**8, 2**63 - 1, 2**63, 10**30])
@pytest.mark.parametrize("protocol", ["dlc1000", "sfn"])
def test_give_ups_are_counted_exactly_at_any_cap(protocol, cap):
    # slave 1 answers a try with probability 0.25 or so, slave 2 never; its
    # give-ups make cap tries each, and their slots pass 2**63 on sfn
    m = matrix([[0.0, 0.5, 1.0], [0.5, 0.0, 1.0], [1.0, 1.0, 0.0]])
    cycles = 1000
    report = simulate(m, SimConfig(protocol, cycles=cycles,
                                   max_retries=cap - 1, seed=4))
    near = simulate(m, SimConfig(protocol, cycles=cycles, max_retries=99,
                                 seed=4))
    assert report.per_slave[0] == near.per_slave[0]
    dead = report.per_slave[1]
    per_try = cap + 1 if protocol == "sfn" else 2  # mean slots a try
    assert (dead.attempts, dead.successes, dead.give_ups, dead.slots) == \
        (cycles * cap, 0, cycles, cycles * cap * per_try)
    assert report.total_slots == near.per_slave[0].slots + dead.slots


_FLOOD_DRAW_CASES = [("ring_20", 0), ("ring_20", 3), ("ring_20", 40),
                     ("dead_5", 3)]


@pytest.mark.parametrize("name,budget", _FLOOD_DRAW_CASES,
                         ids=[f"{name}-{budget}"
                              for name, budget in _FLOOD_DRAW_CASES])
def test_flood_draws_one_uniform_per_row_and_node(name, budget):
    # a flood draws all its uniforms before level 0, so how far it runs
    # moves no later draw; every link of dead_5 fails, so its floods die at
    # level 0
    m = (PerMatrix(1.0 - np.eye(5)) if name == "dead_5"
         else _BATCH_MODELS[name])
    rows, n, dest = 37, m.node_count, 3
    rng, twin = np.random.default_rng(6), np.random.default_rng(6)
    levels = simulator._flood(simulator._log_miss(m), 0, budget, rows, rng,
                              dest)
    twin.random((rows, n))
    assert rng.bit_generator.state == twin.bit_generator.state
    assert levels.max() <= budget
    assert (name == "dead_5") == (levels.max() == -1)


@pytest.mark.parametrize("elements", [1, 7, 1 << 62],
                         ids=["one-cycle", "seven-cycles", "one-chunk"])
@pytest.mark.parametrize("max_retries", [0, 10_000])
def test_dlc_chunk_size_leaves_reports_unchanged(monkeypatch, max_retries,
                                                 elements):
    m = _BATCH_MODELS["rand_area_20"]
    cfg = SimConfig("dlc1000", cycles=300, max_retries=max_retries, seed=5)
    want = asdict(simulate_dlc(m, cfg))
    monkeypatch.setattr(simulator, "_BATCH_ELEMENTS", elements)
    assert asdict(simulate_dlc(m, cfg)) == want


def _two_relay_matrix(per_13: float, per_23: float) -> PerMatrix:
    # the master reaches relays 1 and 2 for sure, only they reach node 3
    return matrix([
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, 1.0, per_13],
        [0.0, 1.0, 0.0, per_23],
        [1.0, per_13, per_23, 0.0],
    ])


@pytest.mark.parametrize("per_13, per_23", [(0.3, 0.6), (0.0, 0.5)])
def test_batched_flood_reception_is_one_minus_product_of_misses(per_13, per_23):
    m = _two_relay_matrix(per_13, per_23)
    rows = 20_000
    with np.errstate(invalid="raise"):  # a NaN from 0 * -inf would raise
        levels = simulator._flood(simulator._log_miss(m), 0, 3, rows,
                                  np.random.default_rng(17), 3)
    assert np.all(levels[:, [1, 2]] == 0)
    assert np.all(np.isin(levels[:, 3], (-1, 1)))
    want = 1.0 - per_13 * per_23
    freq = np.count_nonzero(levels[:, 3] == 1) / rows
    se = np.sqrt(want * (1.0 - want) / rows)
    assert abs(freq - want) <= 4 * se + 1e-12


def test_batched_flood_matches_per_link_reference():
    # every node's first-reception level distribution, batched kernel
    # against one draw per link, with the destination (node 3) not relaying
    m = generate_ring(7, 0.2, 0.7)
    max_level, dest = 3, 3
    ref_rng = np.random.default_rng(8)
    ref = np.array([per_link_flood(m.per, 0, max_level, ref_rng, (dest,))
                    for _ in range(4000)])
    got = simulator._flood(simulator._log_miss(m), 0, max_level, 20_000,
                           np.random.default_rng(9), dest)
    for node in range(7):
        for level in range(-1, max_level + 1):
            p_ref = np.mean(ref[:, node] == level)
            p_got = np.mean(got[:, node] == level)
            pooled = (p_ref * ref.shape[0] + p_got * got.shape[0]) \
                / (ref.shape[0] + got.shape[0])
            se = np.sqrt(pooled * (1 - pooled)
                         * (1 / ref.shape[0] + 1 / got.shape[0]))
            assert abs(p_ref - p_got) <= 4 * se + 1e-12, (node, level)


def test_flood_trial_levels_respect_budget_and_suppression():
    m = generate_ring(8, 0.0, 0.3)
    for budget in (0, 1, 3):
        rng = np.random.default_rng(4)
        levels = flood_trial(m, 0, budget, rng)
        assert levels.max() <= budget
        assert levels[0] == -1  # origin never first-receives its own packet


def _hop_levels(per: PerMatrix, origin: int, dest: int,
                budget: int) -> np.ndarray:
    """First-reception levels of a flood in which every PER < 1 link
    delivers: hop distance - 1, with dest not relaying, -1 past budget."""
    links = per.per < 1
    np.fill_diagonal(links, False)
    level = np.full(per.node_count, -1)
    waiting = np.arange(per.node_count) != origin
    transmitters = [origin]
    for r in range(budget + 1):
        fresh = np.flatnonzero(links[transmitters].any(axis=0) & waiting)
        level[fresh] = r
        waiting[fresh] = False
        transmitters = [v for v in fresh if v != dest]
        if not transmitters:
            break
    return level


@pytest.mark.parametrize("budget", [0, 3, None], ids=["0", "3", "n"])
@pytest.mark.parametrize("per", [
    generate_ring(20),
    generate_rand_area(20, width=0.0001),  # saturated: PERs near 0 or 1
], ids=["ring_20", "rand_area_20_saturated"])
def test_spread_with_zero_uniforms_floods_every_live_link(per, budget):
    # u = 0 gives bar = 0, so one transmitter over a PER < 1 link suffices
    n = per.node_count
    budget = n if budget is None else budget
    pairs = [(o, d) for o in (0, 5, n - 1) for d in (o, 1, 2, n // 2)]
    src, dest = np.array(pairs).T
    level = np.full((len(pairs), n), -1)
    got = simulator._spread(simulator._log_miss(per), src,
                            np.full(len(pairs), budget), dest,
                            np.zeros((len(pairs), n)), level)
    for i, (o, d) in enumerate(pairs):
        want = _hop_levels(per, o, d, budget)
        assert np.array_equal(level[i], want), (o, d)
        assert got[i] == (d != o and want[d] >= 0), (o, d)


def test_spread_with_largest_uniforms_delivers_only_per_0_links():
    # random() returns at most 1 - 2**-53, so bar >= log 2**-53 (about
    # -36.7): _LOG_CERTAIN gets through, a PER-0.6 two-hop link never does
    per, n = generate_ring(10, 0.0, 0.6), 10
    level = np.full((n, n), -1)
    simulator._spread(simulator._log_miss(per), np.arange(n), np.full(n, n),
                      np.arange(n), np.full((n, n), 1 - 2.0**-53), level)
    apart = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    assert np.array_equal(level, np.minimum(apart, n - apart) - 1)


def test_log_miss_is_cached_read_only_and_keeps_floods_unchanged():
    m = generate_ring(10, 0.1, 0.6)
    first = simulator._log_miss(m)
    assert simulator._log_miss(m) is first
    assert not first.flags.writeable
    twin = PerMatrix(m.per.copy())
    for origin in (0, 4):
        runs = [flood_trial(per, origin, 6, np.random.default_rng(11))
                for per in (m, m, twin)]
        assert np.array_equal(runs[0], runs[1])
        assert np.array_equal(runs[0], runs[2])


def test_flood_trial_line_is_deterministic():
    m = line_matrix()
    rng = np.random.default_rng(0)
    levels = flood_trial(m, 0, 2, rng, dest=2)
    assert levels[1] == 0 and levels[2] == 1


@pytest.mark.parametrize("call,message", [
    (lambda m, rng: flood_trial(m, -1, 5, rng), "origin -1 out of range 0..5"),
    (lambda m, rng: flood_trial(m, 6, 5, rng), "origin 6 out of range 0..5"),
    (lambda m, rng: flood_trial(m, 0, -1, rng), "max_level must be >= 0"),
    (lambda m, rng: sample_first_success_levels(m, 0, 10),
     "target 0 out of range 1..5"),
    (lambda m, rng: sample_first_success_levels(m, -1, 10),
     "target -1 out of range 1..5"),
    (lambda m, rng: sample_first_success_levels(m, 6, 10),
     "target 6 out of range 1..5"),
    (lambda m, rng: sample_first_success_levels(m, 1, 10, seed=-1),
     "seed must be an integer in 0..2**64-1"),
    (lambda m, rng: sample_first_success_levels(m, 2, -1),
     "trials must be >= 0"),
    (lambda m, rng: flood_trial(m, 0, 2, rng, dest=9),
     "dest 9 out of range 0..5"),
    # a non-integer index is named, not passed on to numpy
    (lambda m, rng: flood_trial(m, 1.5, 5, rng),
     "origin must be an integer, not 1.5"),
    (lambda m, rng: flood_trial(m, True, 5, rng),
     "origin must be an integer, not True"),
    (lambda m, rng: flood_trial(m, 0, 2.5, rng),
     "max_level must be an integer, not 2.5"),
    (lambda m, rng: flood_trial(m, 0, 2, rng, dest=1.5),
     "dest must be an integer, not 1.5"),
    (lambda m, rng: sample_first_success_levels(m, 2.5, 10),
     "target must be an integer, not 2.5"),
    (lambda m, rng: sample_first_success_levels(m, 1, True),
     "trials must be an integer, not True"),
], ids=["flood-origin-negative", "flood-origin-too-large",
        "flood-max-level-negative", "sample-target-master",
        "sample-target-negative", "sample-target-too-large",
        "sample-seed-negative", "sample-trials-negative",
        "flood-no-relay-too-large", "flood-origin-float", "flood-origin-bool",
        "flood-max-level-float", "flood-no-relay-float",
        "sample-target-float", "sample-trials-bool"])
def test_flood_and_sampler_reject_out_of_range_nodes(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call(generate_ring(6), np.random.default_rng(0))


def test_dlc_success_rate_matches_best_path_probability():
    m = generate_ring(6, 0.2, 0.7)
    cfg = SimConfig("dlc1000", cycles=4000, max_retries=0, seed=13)
    report = simulate_dlc(m, cfg)
    for stats in report.per_slave:
        analysis = dlc.slave_analysis(m, stats.slave, cfg.max_level)
        prob = next(o.success_prob for o in analysis.per_level
                    if o.level == analysis.best_level)
        freq = stats.successes / stats.attempts
        se = np.sqrt(prob * (1 - prob) / stats.attempts)
        assert abs(freq - prob) <= 3 * se + 1e-9


def test_sfn_success_rate_tracks_analytic_poll_success():
    # The analytic poll success treats simultaneous relays as independent
    # chances, so it carries a few percent of bias against the simulated
    # process; the envelope below is the measured worst case on ring models.
    m = generate_ring(10, 0.1, 0.6)
    analytic = {a.slave: a.poll_success
                for a in sfn.cycle_analysis(m).slaves}
    report = simulate_sfn(m, SimConfig("sfn", cycles=4000, max_retries=0,
                                       seed=77))
    for stats in report.per_slave:
        freq = stats.successes / stats.attempts
        assert abs(freq - analytic[stats.slave]) <= 0.07


def test_give_ups_zero_on_connected_channel_with_many_retries():
    m = generate_ring(6, 0.2, 0.7)
    report = simulate_dlc(m, SimConfig("dlc1000", cycles=200,
                                       max_retries=10_000, seed=3))
    assert all(s.give_ups == 0 for s in report.per_slave)
    assert report.reached_count == 5


def test_mean_cycle_duration_times_cycles_bounded_by_total_slots():
    m = generate_ring(6, 0.3, 0.8)
    report = simulate_sfn(m, SimConfig("sfn", cycles=50, max_retries=1, seed=8))
    assert report.mean_cycle_duration * report.cycles <= report.total_slots + 1e-9


def test_sample_first_success_levels_deterministic_line():
    levels = sample_first_success_levels(line_matrix(), 2, trials=10, seed=1)
    assert np.all(levels == 1)  # needs exactly one relay level
