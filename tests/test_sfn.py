from __future__ import annotations

import math
import warnings
from functools import lru_cache
from unittest.mock import patch

import numpy as np
import pytest

from plcroute import sfn
from plcroute.channel import (
    ChannelSpec,
    PerMatrix,
    build_matrix,
    generate_rand_area,
    generate_ring,
)
from plcroute.dlc import cycle_analysis as dlc_cycle_analysis
from plcroute.sfn import (
    cycle_analysis,
    first_success_distribution,
    flood,
    level_distribution,
    slave_analysis,
)

from oracles import (
    first_success_mean,
    flood_reference,
    geometric_retry_mean,
    per_origin_flood,
    random_matrix,
)


def matrix(rows) -> PerMatrix:
    return PerMatrix(np.array(rows, dtype=float))


def line_matrix() -> PerMatrix:
    # M-A-S: perfect adjacent links, no direct master<->S link
    return matrix([
        [0.0, 0.0, 1.0],
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
    ])


def test_flood_single_link():
    m = matrix([[0.0, 0.3], [0.0, 0.0]])
    profile = flood(m, 0, 1.0)
    assert profile.rcv[1, 0] == pytest.approx(0.7, abs=1e-15)


def test_flood_deterministic_relay_line():
    profile = flood(line_matrix(), 0, 1.0)
    assert profile.rcv[1, 0] == 1.0
    assert profile.rcv[2, 0] == 0.0
    assert profile.tx[1, 1] == 1.0
    assert profile.rcv[2, 1] == 1.0


def test_flood_origin_never_first_receives():
    m = generate_ring(6, 0.1, 0.6)
    profile = flood(m, 0, 1.0)
    assert np.all(profile.rcv[0] == 0.0)
    assert np.all(profile.tx[0, 1:] == 0.0)
    assert profile.tx[0, 0] == 1.0


def test_flood_initial_tx_seeds_level_zero():
    m = generate_ring(6, 0.1, 0.6)
    profile = flood(m, 2, 0.25)
    assert profile.tx[2, 0] == 0.25
    assert np.all(profile.tx[[0, 1, 3, 4, 5], 0] == 0.0)


@pytest.mark.parametrize("seed,n", [(0, 4), (1, 5), (2, 6), (3, 4)])
def test_flood_matches_reference_recursion(seed, n):
    rng = np.random.default_rng(seed)
    m = random_matrix(rng, n)
    profile = flood(m, 0, 1.0)
    tx_ref, rcv_ref = flood_reference(m.per, 0, 1.0, 6)
    levels = profile.horizon + 1
    assert np.allclose(profile.tx, tx_ref[:, :levels], atol=1e-12, rtol=0)
    assert np.allclose(profile.rcv, rcv_ref[:, :levels], atol=1e-12, rtol=0)


def test_flood_fractional_seed_matches_reference():
    rng = np.random.default_rng(9)
    m = random_matrix(rng, 5)
    profile = flood(m, 2, 0.4)
    tx_ref, rcv_ref = flood_reference(m.per, 2, 0.4, 5)
    levels = profile.horizon + 1
    assert np.allclose(profile.tx, tx_ref[:, :levels], atol=1e-12, rtol=0)
    assert np.allclose(profile.rcv, rcv_ref[:, :levels], atol=1e-12, rtol=0)


def test_flood_conservation_and_monotone_cumulative():
    rng = np.random.default_rng(4)
    m = random_matrix(rng, 6)
    profile = flood(m, 0, 1.0)
    assert np.all(profile.rcv.sum(axis=1) <= 1.0 + 1e-12)
    assert np.all(profile.tx.sum(axis=1) <= 1.0 + 1e-12)
    assert np.all(np.diff(profile.cumulative, axis=1) >= -1e-15)
    assert np.all((profile.rcv >= 0.0) & (profile.rcv <= 1.0))
    assert np.all((profile.tx >= 0.0) & (profile.tx <= 1.0))


def test_flood_early_stop_when_transmissions_die():
    profile = flood(line_matrix(), 0, 1.0)
    # nothing can transmit past level 1 on a 3-node line
    assert profile.horizon <= 2


def test_flood_rejects_bad_arguments():
    m = generate_ring(5)
    with pytest.raises(ValueError):
        flood(m, 9)
    with pytest.raises(ValueError):
        flood(m, 0, 0.0)
    with pytest.raises(ValueError):
        flood(m, 0, 1.2)
    # a non-integer node index is named, not passed on to numpy
    with pytest.raises(ValueError, match="origin must be an integer, not 1.5"):
        flood(m, 1.5)
    for bad in (1.5, True):
        with pytest.raises(ValueError,
                           match=f"slave index must be an integer, not {bad}"):
            slave_analysis(m, bad)
    with pytest.raises(ValueError, match="target must be an integer, not 2.0"):
        level_distribution(flood(m, 0), 2.0)


def test_first_success_distribution_hand_values():
    pi, truncated = first_success_distribution([0.5, 0.75, 1.0])
    assert pi == pytest.approx([0.5, 0.375, 0.125], abs=1e-15)
    assert truncated == 0.0


def test_first_success_distribution_immediate():
    pi, truncated = first_success_distribution([1.0])
    assert pi == pytest.approx([1.0])
    assert truncated == 0.0


def test_level_distribution_mean_and_mass():
    m = matrix([[0.0, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.0]])
    profile = flood(m, 0, 1.0)
    dist = level_distribution(profile, 1)
    assert dist.pi.sum() + dist.truncated_mass == pytest.approx(1.0, abs=1e-12)
    expected_mean = float(np.arange(dist.pi.size) @ dist.pi / dist.pi.sum())
    assert dist.mean_level == pytest.approx(expected_mean, abs=1e-15)
    assert not dist.unreachable


def target_distribution(cumulative):
    """level_distribution toward node 1 of a flood from node 0 whose
    target row is the given cumulative reception."""
    table = np.vstack([np.zeros(len(cumulative)), cumulative])
    profile = sfn.FloodProfile(0, 1.0, table, table, table,
                               len(cumulative) - 1)
    return level_distribution(profile, 1)


def test_mean_level_ignores_trailing_certain_levels():
    # once the target's reception is certain, pi is 0 at every later
    # level; the mean must not depend on how many of them a flood carries
    # (summed over the whole array, this cumulative gives two means)
    cumulative = np.array([
        0.028319671145462966, 0.033585575305464355, 0.12428327649956394,
        0.17565562060255901, 0.2997118905373848, 0.42268722119765845,
        0.5414612202490917, 0.6706244146936303, 0.7296554464299441, 1.0])
    means = {target_distribution(np.append(cumulative, np.ones(k))).mean_level
             for k in range(30)}
    assert len(means) == 1
    assert means.pop() == pytest.approx(4.337982782569223, abs=1e-15)


def test_level_distribution_names_the_planned_floor_and_ceil():
    # the law's mean lands just above 7, so the analysis plans levels 7 and
    # 8; a second summation order of the same law gave exactly 7.0
    cumulative = np.array([
        0, 0, 0, 0, 0, 0.13745459758053824, 0.23343424986586375,
        0.26789709032653714, 0.41595182358832244, 0.48619119525661714])
    assert target_distribution(cumulative).mean_level == 7.000000000000001
    levels, _, valid = sfn._candidates(cumulative[None])
    assert levels.tolist() == [[7, 8]]
    assert valid.tolist() == [[True, True]]


def test_level_distribution_unreachable():
    m = matrix([[0.0, 1.0], [1.0, 0.0]])
    profile = flood(m, 0, 1.0)
    dist = level_distribution(profile, 1)
    assert dist.unreachable
    assert dist.truncated_mass == 1.0
    assert dist.mean_level is None
    assert dist.truncation_flagged


def test_level_distribution_rejects_origin_target():
    m = generate_ring(5)
    profile = flood(m, 0, 1.0)
    with pytest.raises(ValueError):
        level_distribution(profile, 0)


def test_slave_analysis_two_nodes_perfect():
    m = matrix([[0.0, 0.0], [0.0, 0.0]])
    analysis = slave_analysis(m, 1)
    assert (analysis.r_dl, analysis.r_ul) == (0, 0)
    assert analysis.poll_success == 1.0
    assert analysis.expected_duration == pytest.approx(2.0, abs=1e-15)


def test_slave_analysis_duration_formula_and_candidates():
    m = generate_ring(10, 0.1, 0.6)
    for s in m.slaves:
        analysis = slave_analysis(m, s)
        assert analysis.reachable
        assert analysis.expected_duration == pytest.approx(
            (2.0 + analysis.r_dl + analysis.r_ul) / analysis.poll_success,
            rel=1e-12)
        # the chosen pair is minimal over the evaluated grid
        for cand in analysis.candidates:
            assert analysis.expected_duration <= cand.expected_duration + 1e-12
        assert 0.0 <= analysis.poll_success <= 1.0


def test_slave_analysis_closed_form_matches_series():
    # direct link with round-trip success 0.35
    m = matrix([[0.0, 0.65], [0.0, 0.0]])
    analysis = slave_analysis(m, 1)
    assert analysis.poll_success == pytest.approx(0.35, abs=1e-12)
    series = (2.0 + analysis.r_dl + analysis.r_ul) * \
        geometric_retry_mean(analysis.poll_success)
    assert analysis.expected_duration == pytest.approx(series, abs=1e-9)


def test_slave_analysis_unreachable():
    m = matrix([[0.0, 1.0], [1.0, 0.0]])
    analysis = slave_analysis(m, 1)
    assert not analysis.reachable
    assert analysis.poll_success == 0.0
    assert analysis.expected_duration is None


def candidate_pairs(*rows) -> list[list[tuple[int, float]]]:
    """Each row's (level, cumulative reception) candidates, as
    sfn._candidates gives them for a table of the rows, zero-padded."""
    table = np.zeros((len(rows), max(map(len, rows))))
    for row, cumulative in zip(table, rows):
        row[:len(cumulative)] = cumulative
    levels, success, valid = sfn._candidates(table)
    return [[(r, c) for r, c, ok in zip(*row) if ok]
            for row in zip(levels.tolist(), success.tolist(), valid.tolist())]


def test_candidates_are_the_floor_and_ceil_of_the_mean_level():
    # pi = (0.25, 0.375, 0.375), mean level 1.125: levels 1 and 2, each
    # with the cumulative reception at that level
    assert candidate_pairs([0.25, 0.5, 1.0]) == [[(1, 0.5), (2, 1.0)]]
    # pi = (0, 0.25), mean level exactly 1
    assert candidate_pairs([0.0, 0.25]) == [[(1, 0.25)]]
    assert candidate_pairs([0.0, 0.0, 0.0]) == [[]]
    # the same rows in one table, the shorter one zero-padded
    assert candidate_pairs([0.25, 0.5, 1.0], [0.0, 0.25], [0.0, 0.0, 0.0]) == [
        [(1, 0.5), (2, 1.0)], [(1, 0.25)], []]


def analysis_from(monkeypatch, slave, downlink, uplinks):
    """sfn._slave_analyses of one slave, from its row of the downlink's
    cumulative reception and the master's cumulative reception of the
    uplinks it seeds, in order; with the (origin, seed) of each uplink."""
    cumulative = np.zeros((slave + 1, len(downlink)))
    cumulative[slave] = downlink
    profile = sfn.FloodProfile(0, 1.0, cumulative, cumulative, cumulative,
                               len(downlink) - 1)
    table = np.zeros((len(uplinks), max(map(len, uplinks))))
    for row, master in zip(table, uplinks):
        row[:len(master)] = master
    seeds = []

    def master_cumulative(per, origins, initial_tx):
        seeds.extend(zip(origins.tolist(), initial_tx.tolist()))
        return table

    monkeypatch.setattr(sfn, "_master_cumulative", master_cumulative)
    got, = sfn._slave_analyses(PerMatrix(np.zeros((slave + 1,) * 2)),
                               [slave], profile)
    return got, seeds


def test_choose_breaks_an_exact_tie_toward_the_smaller_level_pair(
        monkeypatch):
    # The downlink's pi = (0, 0.5, 0.25) has mean level 4/3, so it seeds
    # uplinks at levels 1 and 2, both with success 0.5.  The first uplink's
    # mean level is 2 and the second's 1: (r_dl, r_ul) = (1, 2) and (2, 1)
    # both take 5 slots a try at poll success 0.5, so both last exactly 10
    # slots; (1, 2) wins and both stay candidates in evaluation order.
    got, seeds = analysis_from(monkeypatch, 4, [0.0, 0.5, 0.5],
                               [[0.0, 0.0, 0.5], [0.0, 0.5]])
    assert seeds == [(4, 0.5), (4, 0.5)]
    assert (got.r_dl, got.r_ul, got.expected_duration) == (1, 2, 10.0)
    assert [(c.r_dl, c.r_ul, c.expected_duration)
            for c in got.candidates] == [(1, 2, 10.0), (2, 1, 10.0)]
    # and within one uplink: pi = (0.5, 0.375) has mean level 3/7, and
    # (0, 0) takes 2 slots at 0.5, (0, 1) 3 slots at 0.75, both 4 slots
    got, _ = analysis_from(monkeypatch, 4, [1.0], [[0.5, 0.75]])
    assert (got.r_dl, got.r_ul, got.expected_duration) == (0, 0, 4.0)
    assert [(c.r_dl, c.r_ul, c.expected_duration)
            for c in got.candidates] == [(0, 0, 4.0), (0, 1, 4.0)]


def test_choose_caps_the_uplink_conditional_factor_at_one(monkeypatch):
    # the master's uplink reception 0.8 exceeds the downlink success 0.5:
    # the conditional factor is 1, not 1.6, so the poll succeeds with 0.5
    got, seeds = analysis_from(monkeypatch, 1, [0.5], [[0.8]])
    assert seeds == [(1, 0.5)]
    assert (got.r_dl, got.r_ul) == (0, 0)
    assert got.poll_success == 0.5
    assert got.expected_duration == 4.0


def test_cycle_three_node_line_hand_trace():
    analysis = cycle_analysis(line_matrix())
    by_slave = {a.slave: a for a in analysis.slaves}
    assert by_slave[1].expected_duration == pytest.approx(2.0, abs=1e-15)
    assert (by_slave[2].r_dl, by_slave[2].r_ul) == (1, 1)
    assert by_slave[2].expected_duration == pytest.approx(4.0, abs=1e-15)
    assert analysis.total == pytest.approx(6.0, abs=1e-15)


def test_cycle_two_nodes_perfect():
    m = matrix([[0.0, 0.0], [0.0, 0.0]])
    assert cycle_analysis(m).total == pytest.approx(2.0, abs=1e-15)


def test_cycle_flooding_beats_source_routing_on_ring():
    m = generate_ring(10, 0.1, 0.6)
    assert cycle_analysis(m).total < dlc_cycle_analysis(m, max_level=4).total


def test_cycle_unreachable_listed():
    m = matrix([
        [0.0, 0.1, 1.0],
        [0.1, 0.0, 1.0],
        [1.0, 1.0, 0.0],
    ])
    analysis = cycle_analysis(m)
    assert analysis.unreachable == (2,)
    assert not analysis.complete
    reachable = [a for a in analysis.slaves if a.reachable]
    assert analysis.total == pytest.approx(
        sum(a.expected_duration for a in reachable), rel=1e-12)


def test_cycle_slave_without_uplink_has_no_candidates():
    # the master reaches slave 1, but slave 1 reaches no node
    m = matrix([
        [0.0, 0.1, 0.2],
        [1.0, 0.0, 1.0],
        [0.3, 0.4, 0.0],
    ])
    analysis = cycle_analysis(m)
    assert analysis.unreachable == (1,)
    one, two = analysis.slaves
    assert not one.reachable and one.candidates == ()
    assert two.reachable


def test_zero_loss_line_reception_level_equals_hop_distance():
    for length in range(2, 7):
        n = length + 1
        arr = np.ones((n, n))
        for a in range(length):
            arr[a, a + 1] = arr[a + 1, a] = 0.0
        np.fill_diagonal(arr, 0.0)
        profile = flood(PerMatrix(arr), 0, 1.0)
        for node in range(1, n):
            expected = np.zeros(profile.horizon + 1)
            expected[node - 1] = 1.0
            assert np.array_equal(profile.rcv[node], expected)


def degrade_one_link(seed: int):
    """Seeded 5-node instance with one link made strictly worse."""
    rng = np.random.default_rng(seed)
    arr = rng.random((5, 5))
    np.fill_diagonal(arr, 0.0)
    i, j = rng.integers(0, 5, size=2)
    while i == j:
        i, j = rng.integers(0, 5, size=2)
    worse = arr.copy()
    worse[i, j] = min(1.0, worse[i, j] + rng.random() * (1.0 - worse[i, j]))
    return PerMatrix(arr), PerMatrix(worse)


def cumulative_increase_after_degrading(seed: int) -> float:
    base_m, worse_m = degrade_one_link(seed)
    base = flood(base_m, 0, 1.0)
    degraded = flood(worse_m, 0, 1.0)
    levels = min(base.cumulative.shape[1], degraded.cumulative.shape[1])
    return float((degraded.cumulative[:, :levels] -
                  base.cumulative[:, :levels]).max())


@pytest.mark.parametrize("seed", range(20))
def test_degrading_a_link_typically_never_helps(seed):
    assert cumulative_increase_after_degrading(seed) <= 1e-12


def test_degradation_monotonicity_is_not_universal():
    # The level recursion treats simultaneous transmitters as independent
    # chances, and delaying a relay's transmit mass can occasionally raise
    # a third node's cumulative reception.  Pin a known counterexample so
    # a change in this behavior is noticed.
    assert cumulative_increase_after_degrading(108) > 1e-4


def until_master_closes(cumulative: np.ndarray) -> np.ndarray:
    """The master's cumulative reception cut after its first 1.0.

    Every later entry repeats it, so an uplink flood stops there.
    """
    closed = np.flatnonzero(cumulative >= 1.0)
    return cumulative[:closed[0] + 1] if closed.size else cumulative


def test_batched_floods_stop_each_row_at_its_own_level():
    # A lossless line 0-8, where a full-mass flood stops once its wave has
    # passed both ends, and apart from it a lossy triangle 9-11.  A flood in
    # the triangle, or one seeded with less than full mass, echoes until
    # level n, the node count.
    n = 12
    arr = np.ones((n, n))
    for a in range(8):
        arr[a, a + 1] = arr[a + 1, a] = 0.0
    arr[9:, 9:] = 0.3
    np.fill_diagonal(arr, 0.0)
    m = PerMatrix(arr)
    origins, seeds = [0, 4, 10, 2, 8], [1.0, 1.0, 0.25, 1.0, 0.75]
    tx_rows = [[] for _ in origins]
    rcv_rows = [[] for _ in origins]
    for rows, tx, rcv in sfn._flood_levels(m, origins, seeds):
        for k, row in enumerate(rows):
            tx_rows[row].append(tx[k])
            rcv_rows[row].append(rcv[k])
    stops = set()
    for row, (origin, seed) in enumerate(zip(origins, seeds)):
        want = per_origin_flood(m, origin, seed)
        assert np.array_equal(np.column_stack(tx_rows[row]), want.tx)
        assert np.array_equal(np.column_stack(rcv_rows[row]), want.rcv)
        stops.add(want.horizon)
    assert len(stops) > 2
    # An uplink flood stops once the floor and ceil of the master's mean
    # first-success level are certain: its row of the table is a prefix of
    # the full-horizon cumulative that holds the level at the ceil, zero
    # past the levels the kernel yielded for it.  A flood that cannot reach
    # the master runs to its end.
    levels = np.zeros(len(origins) - 1, dtype=int)
    for rows, _ in sfn._flood_levels(m, origins[1:], seeds[1:], until=0):
        levels[rows] += 1
    master = sfn._master_cumulative(m, origins[1:], seeds[1:])
    assert master.shape == (len(origins) - 1, n + 1)
    cut = 0
    for got, size, origin, seed in zip(master, levels, origins[1:],
                                       seeds[1:]):
        full = per_origin_flood(m, origin, seed).cumulative[0]
        assert np.array_equal(got[:size], full[:size])
        assert not got[size:].any()
        mean = first_success_mean(full)
        if mean is None:
            assert size == full.size
        else:
            assert size > math.ceil(mean)
        cut += size < full.size
    assert cut >= 1


@pytest.mark.parametrize("name,spec,table", [
    ("ring_100", ChannelSpec(kind="ring", node_count=100), True),
    ("rand_area_100", ChannelSpec(kind="rand_area", node_count=100, seed=100),
     False),
])
def test_cycle_analysis_equals_slave_analysis_per_slave(name, spec, table):
    m = build_matrix(spec)
    assert (sfn._in_links(m)[0] is not None) == table
    analysis = cycle_analysis(m)
    assert analysis.slaves == tuple(slave_analysis(m, s) for s in m.slaves)


def uplink_seeds(per: PerMatrix):
    """(slave, r_dl, downlink success) of every uplink flood that
    cycle_analysis runs, in its order."""
    levels, success, valid = sfn._candidates(flood(per, 0).cumulative[1:])
    row, side = np.nonzero(valid)
    return [(s + 1, r, c) for s, r, c in zip(
        row.tolist(), levels[row, side].tolist(), success[row, side].tolist())]


def full_length_cycle_analysis(per: PerMatrix):
    """cycle_analysis rebuilt from the oracle's full-length uplinks, with
    the count of those in which the master's reception closes."""
    plan = uplink_seeds(per)
    full = [per_origin_flood(per, s, seed).cumulative[0]
            for s, _, seed in plan]
    table = np.zeros((len(full), per.node_count + 1))
    for row, master in zip(table, full):
        row[:master.size] = master

    def full_length(_, origins, initial_tx):
        assert [*zip(origins.tolist(), initial_tx.tolist())] == [
            (s, seed) for s, _, seed in plan]
        return table

    with patch.object(sfn, "_master_cumulative", full_length):
        slaves = cycle_analysis(per).slaves
    return slaves, sum(until_master_closes(m).size < m.size for m in full)


def closing_matrix(seed: int) -> PerMatrix:
    """Seeded random matrix with many lossless (PER 0) and dead (PER 1)
    links, so that the master's reception closes in many uplink floods."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 16))
    arr = rng.random((n, n))
    draw = rng.random((n, n))
    arr[draw < 0.3] = 0.0
    arr[draw > 0.8] = 1.0
    np.fill_diagonal(arr, 0.0)
    return PerMatrix(arr)


def quantized_matrix(seed: int) -> PerMatrix:
    """Seeded random matrix whose PERs are multiples of 1/4, so that many
    uplink floods have a mean first-success level at or near an integer."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 13))
    arr = rng.integers(0, 5, (n, n)) / 4.0
    np.fill_diagonal(arr, 0.0)
    return PerMatrix(arr)


@lru_cache(maxsize=1)
def certified_models():
    """(matrix, full-length analysis) of ring_30 and ring_100, where the
    master never closes, and of 30 quantized matrices; built once for every
    batch size, with the count of quantized uplinks whose mean is an
    integer."""
    models = [build_matrix(ChannelSpec(kind="ring", node_count=n))
              for n in (30, 100)]
    integer_means = 0
    for seed in range(30):
        m = quantized_matrix(seed)
        models.append(m)
        for s, _, dl_success in uplink_seeds(m):
            mean = first_success_mean(
                per_origin_flood(m, s, dl_success).cumulative[0])
            integer_means += mean is not None and mean == math.floor(mean)
    return [(m, full_length_cycle_analysis(m)) for m in models], integer_means


def assert_cycle_analysis_is(per: PerMatrix, want) -> None:
    got = cycle_analysis(per)
    assert got.slaves == want
    assert got.total == float(sum(
        a.expected_duration for a in want if a.reachable))
    assert got.unreachable == tuple(a.slave for a in want if not a.reachable)


@pytest.mark.parametrize("batch", [1, 1 << 16, 1 << 30])
def test_cycle_analysis_equals_full_length_uplinks(monkeypatch, batch):
    monkeypatch.setattr(sfn, "_BATCH_ELEMENTS", batch)
    models = [closing_matrix(seed) for seed in range(12)]
    models.append(build_matrix(
        ChannelSpec(kind="rand_area", node_count=100, seed=100)))
    # a slot table whose master closes in one level: lossless neighbours
    models.append(generate_ring(30, 0.0, 0.6))
    assert sfn._in_links(models[-1])[0] is not None
    assert sfn._closes_in_one_level(models[-1], 0)
    for m in models:
        want, closed = full_length_cycle_analysis(m)
        assert closed >= 1
        assert_cycle_analysis_is(m, want)
    # ring_100 runs every level in full, without the target-first step
    certified, integer_means = certified_models()
    assert not sfn._closes_in_one_level(certified[1][0], 0)
    assert integer_means >= 1
    for m, (want, _) in certified:
        assert_cycle_analysis_is(m, want)


def test_uplink_floods_stop_once_the_master_closes():
    m = build_matrix(ChannelSpec(kind="rand_area", node_count=100, seed=100))
    plan = uplink_seeds(m)
    run = sum(len(rows) for rows, _ in sfn._flood_levels(
        m, [s for s, _, _ in plan], [seed for _, _, seed in plan], until=0))
    full = sum(flood(m, s, seed).horizon + 1 for s, _, seed in plan)
    assert run < full


def test_ring_uplinks_run_fewer_full_levels_than_their_horizons(monkeypatch):
    # ring_100's uplink means are never near an integer, so each uplink
    # stops once the floor and ceil of its mean are certain, long before
    # the end of its flood.  Level 0 is a closed form outside _receptions,
    # so a flood's full levels are 1 to its horizon.
    m = build_matrix(ChannelSpec(kind="ring", node_count=100))
    plan = uplink_seeds(m)
    horizons = sum(flood(m, s, seed).horizon for s, _, seed in plan)
    full_rows = []
    receptions = sfn._receptions

    def counting(src, ok, tx, cum_rcv):
        full_rows.append(len(tx))
        return receptions(src, ok, tx, cum_rcv)

    monkeypatch.setattr(sfn, "_receptions", counting)
    sfn._master_cumulative(
        m, [s for s, _, _ in plan], [seed for _, _, seed in plan])
    assert 2 * sum(full_rows) < horizons


def stop_level(cumulative) -> int | None:
    """The first level after which sfn._settled lets a one-row flood stop,
    given its target's cumulative reception at levels 0..n."""
    law = np.array([[1.0, 0.0, 0.0]])
    n = len(cumulative) - 1
    for r, c in enumerate(cumulative):
        if sfn._settled(law, r, np.array([c]), n)[0]:
            return r
    return None


@pytest.mark.parametrize("cumulative", [
    pytest.param([0.0, 0.0, 1.0], id="mean-2"),
    pytest.param([0.0, 0.0, 1.0 - 1e-12, 1.0 - 1e-12, 1.0],
                 id="mean-2-plus-1e-12"),
    # geometric: the mean is 1 less about n * 2^-n, and nothing fails
    # once 2^-(r + 1) underflows, at level 1074
    pytest.param([0.5] * 1100, id="geometric-mean-1"),
])
def test_mean_at_or_near_an_integer_stops_only_when_nothing_fails(
        cumulative):
    failing = np.multiply.accumulate(1.0 - np.array(cumulative))
    assert stop_level(cumulative) == np.flatnonzero(failing == 0.0)[0]


def test_a_subnormal_reception_bounds_the_tail_without_a_warning():
    # 1 / c overflows for a subnormal reception c, so the bound on the
    # later levels' mean level is n; the stop test must not warn of it
    assert stop_level([2.2250738585072014e-311, 1.0]) == 1


def test_certified_stop_keeps_floor_and_ceil_of_the_mean():
    # Nondecreasing sequences in [0, 1], every other one short and on a
    # grid of quarters, whose means are often integers: wherever the rule
    # stops, the candidates from the prefix, alone or zero-padded to the
    # whole length as in an uplink's table, are those of the whole
    # sequence and lie within the prefix.
    rng = np.random.default_rng(0)
    early = integer_means = 0
    for k in range(400):
        n = int(rng.integers(1, 8 if k % 2 else 60))
        steps = rng.random(n + 1) * (rng.random(n + 1) < 0.4)
        if k % 2:
            cumulative = np.minimum(np.cumsum(np.round(steps * 4) / 4), 1.0)
        else:
            cumulative = np.minimum(np.cumsum(steps) * rng.random(), 1.0)
        level = stop_level(cumulative)
        want, = candidate_pairs(cumulative)
        if not want:
            assert level is None
            continue
        integer_means += len(want) == 1
        if level is None:
            continue
        prefix = cumulative[:level + 1]
        assert candidate_pairs(prefix, cumulative) == [want, want]
        assert candidate_pairs(
            np.append(prefix, np.zeros(n - level))) == [want]
        assert max(r for r, _ in want) <= level
        early += level < n and cumulative[level] < 1.0
    assert early >= 100
    assert integer_means >= 20


@pytest.mark.parametrize("spec,target_first", [
    (ChannelSpec(kind="ring", node_count=100), False),
    (ChannelSpec(kind="rand_area", node_count=20, seed=20), False),
    (ChannelSpec(kind="rand_area", node_count=100, seed=100), True),
    # a slot table whose master closes in one level: lossless neighbours
    (ChannelSpec(kind="ring", node_count=30, per_adjacent=0.0,
                 per_two_hop=0.6), True),
])
def test_target_first_step_runs_only_where_one_level_can_close(
        monkeypatch, spec, target_first):
    # Where one level can make the master certain, the kernel computes the
    # master's column first, and the rows that close skip the full level;
    # elsewhere every level a row runs is a full one.  A wrong gate gives
    # the same analysis, only slower, so it is pinned here.  Level 0 is a
    # closed form outside _receptions, so rows count from level 1.
    m = build_matrix(spec)
    assert sfn._closes_in_one_level(m, 0) == target_first
    plan = uplink_seeds(m)[:20]
    monkeypatch.setattr(sfn, "_BATCH_ELEMENTS", 1 << 30)  # one chunk
    full_rows = []
    receptions = sfn._receptions

    def counting(src, ok, tx, cum_rcv):
        if ok.shape[1] > 1:  # a full level, not the master's column
            full_rows.append(len(tx))
        return receptions(src, ok, tx, cum_rcv)

    monkeypatch.setattr(sfn, "_receptions", counting)
    run_rows = sum(len(rows) for r, (rows, _) in enumerate(sfn._flood_levels(
        m, [s for s, _, _ in plan], [seed for _, _, seed in plan], until=0))
        if r)
    if target_first:
        assert sum(full_rows) < run_rows
    else:
        assert sum(full_rows) == run_rows


def kernel_level_zero(per: PerMatrix, origins, seeds) -> np.ndarray:
    """Level 0 of the given floods as the kernel computes every later
    level, through _receptions."""
    src, ok = sfn._in_links(per)
    rows = np.arange(len(origins))
    tx = np.zeros((rows.size, per.node_count))
    tx[rows, origins] = seeds
    cum_rcv = np.zeros_like(tx)
    cum_rcv[rows, origins] = 1.0
    return sfn._receptions(src, ok, tx, cum_rcv)


@pytest.mark.parametrize("per", [
    pytest.param(build_matrix(ChannelSpec(kind="rand_area", node_count=100,
                                          seed=100)), id="rand_area_100"),
    pytest.param(build_matrix(ChannelSpec(kind="ring", node_count=100)),
                 id="ring_100"),
    *(pytest.param(closing_matrix(seed), id=f"closing_{seed}")
      for seed in range(6)),
])
def test_closed_form_level_zero_is_the_kernels_level_zero(per):
    # Level 0 is computed in closed form, (1 - cum) * (1 - (1 - tx_0 *
    # ok[origin])), for every flood in one pass; it must equal the
    # kernel's product over every factor bit for bit, for full-mass and
    # fractional seeds, with and without a target column.
    origins = np.arange(per.node_count)
    seeds = np.resize([1.0, 0.25, 0.7, 1e-3, 0.5], origins.size)
    want = kernel_level_zero(per, origins, seeds)
    rows, tx, rcv = next(sfn._flood_levels(per, origins, seeds))
    assert np.array_equal(rows, np.arange(origins.size))
    assert rcv.tobytes() == want.tobytes()
    slaves = origins[1:]
    rows, col = next(sfn._flood_levels(per, slaves, seeds[1:], until=0))
    assert col.tobytes() == want[1:, 0].tobytes()
    for origin in (0, 1, per.node_count - 1):
        profile = flood(per, int(origin), float(seeds[origin]))
        assert profile.rcv[:, 0].tobytes() == want[origin].tobytes()


class _CountedOk(np.ndarray):
    """A dense ok matrix that counts the row gathers made from it."""

    gathers = 0

    def __getitem__(self, key):
        if isinstance(key, np.ndarray) and key.dtype == bool:
            _CountedOk.gathers += 1
        return np.asarray(self)[key]


@pytest.mark.parametrize("nodes,one_row", [(100, False), (200, True)])
def test_all_node_product_serves_every_one_row_chunk(monkeypatch, nodes,
                                                     one_row):
    # A chunk of one row with more than half the nodes transmitting
    # multiplies over every node; every other chunk gathers the rows of ok
    # that transmit.  On a dense matrix of 182 nodes or more the (rows,
    # slots) bound admits one row a chunk, so the all-node product serves
    # every chunk that clears the half.  A wrong gate gives the same
    # analysis, only slower, so it is pinned here.
    m = build_matrix(ChannelSpec(kind="rand_area", node_count=nodes,
                                 seed=nodes))
    src, ok = sfn._in_links(m)
    assert src is None  # dense: the receptions multiply over (n, n)
    monkeypatch.setattr(sfn, "_in_links",
                        lambda per: (None, ok.view(_CountedOk)))
    monkeypatch.setattr(_CountedOk, "gathers", 0)
    chunks = {"one-row": 0, "all-node": 0, "other": 0}
    receptions = sfn._receptions

    def counting(src, ok, tx, cum_rcv):
        if ok.shape[1] == 1:  # the master's column, not a full level
            pass
        elif len(tx) <= max(1, sfn._BATCH_ELEMENTS // ok.size):  # one chunk
            if len(tx) > 1:
                chunks["other"] += 1
            elif 2 * np.count_nonzero(tx.any(axis=0)) > tx.shape[1]:
                chunks["all-node"] += 1
            else:
                chunks["one-row"] += 1
        return receptions(src, ok, tx, cum_rcv)

    monkeypatch.setattr(sfn, "_receptions", counting)
    sfn.cycle_analysis(m)
    assert chunks["all-node"] > 0
    assert (chunks["other"] == 0) == one_row
    assert _CountedOk.gathers == chunks["one-row"] + chunks["other"]


def test_expected_durations_are_the_first_try_over_its_success():
    # a candidate's duration is its try's 2 + r_dl + r_ul slots over its
    # poll success, bit for bit as the float formula gives it
    m = build_matrix(ChannelSpec(kind="rand_area", node_count=20, seed=20))
    candidates = [c for a in cycle_analysis(m).slaves for c in a.candidates]
    assert candidates
    for c in candidates:
        assert c.expected_duration == (2.0 + c.r_dl + c.r_ul) / c.poll_success


def test_unreachable_slaves_raise_no_numpy_warning():
    # a narrow logistic width leaves slaves 2, 11 and 17 with no level at
    # which the downlink reaches them: their rows of the table have no
    # mean level, and the table pass must not divide 0 by 0 aloud
    m = generate_rand_area(20, width=1e-4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        analysis = cycle_analysis(m)
    assert analysis.unreachable == (2, 11, 17)
