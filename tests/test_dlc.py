from __future__ import annotations

import gc

import numpy as np
import pytest

from plcroute import dlc
from plcroute.channel import ChannelSpec, PerMatrix, build_matrix, generate_ring
from plcroute.dlc import (
    InvalidPathError,
    best_path,
    cycle_analysis,
    round_trip_success,
    slave_analysis,
)

from oracles import (
    brute_force_best_path,
    forward_best_path,
    geometric_retry_mean,
    random_matrix,
)


def matrix(rows) -> PerMatrix:
    return PerMatrix(np.array(rows, dtype=float))


def test_round_trip_direct():
    m = matrix([[0.0, 0.1], [0.2, 0.0]])
    assert round_trip_success(m, [], 1) == pytest.approx(0.72, abs=1e-15)


def test_round_trip_one_repeater():
    arr = np.full((3, 3), 0.1)
    np.fill_diagonal(arr, 0.0)
    m = PerMatrix(arr)
    assert round_trip_success(m, [2], 1) == pytest.approx(0.9 ** 4, abs=1e-15)


def test_round_trip_dead_link_annihilates():
    m = matrix([
        [0.0, 0.5, 1.0],
        [0.5, 0.0, 1.0],
        [0.5, 0.5, 0.0],
    ])
    assert round_trip_success(m, [1], 2) == 0.0


def test_round_trip_rejects_bad_paths():
    m = generate_ring(5)
    with pytest.raises(InvalidPathError):
        round_trip_success(m, [2, 2], 1)  # duplicate
    with pytest.raises(InvalidPathError):
        round_trip_success(m, [7], 1)  # out of range
    with pytest.raises(InvalidPathError):
        round_trip_success(m, [1], 1)  # repeater == destination
    with pytest.raises(InvalidPathError):
        round_trip_success(m, [0], 1)  # repeater == master


@pytest.mark.parametrize("call", [
    pytest.param(lambda m: best_path(m, 3, 1.5), id="best_path-level"),
    pytest.param(lambda m: slave_analysis(m, True, 1), id="slave_analysis-slave"),
    pytest.param(lambda m: cycle_analysis(m, 2.0), id="cycle_analysis-max_level"),
    pytest.param(lambda m: round_trip_success(m, (2.0,), 3),
                 id="round_trip_success-repeater"),
])
def test_non_integer_index_is_invalid_path(call):
    with pytest.raises(InvalidPathError, match="must be an integer"):
        call(generate_ring(6))


def test_numpy_integers_are_indices():
    m = generate_ring(6)
    assert best_path(m, np.int64(3), np.int64(2)) == best_path(m, 3, 2)
    assert round_trip_success(m, (np.int32(2),), 3) == round_trip_success(
        m, (2,), 3)


def test_best_path_level_zero():
    m = matrix([[0.0, 0.1], [0.2, 0.0]])
    result = best_path(m, 1, 0)
    assert result.repeaters == ()
    assert result.success_prob == pytest.approx(0.72, abs=1e-15)


def test_best_path_line_unique_chain():
    # 0-1-2-3 line: only adjacent links work
    arr = np.ones((4, 4))
    for a, b in ((0, 1), (1, 2), (2, 3)):
        arr[a, b] = arr[b, a] = 0.0
    np.fill_diagonal(arr, 0.0)
    m = PerMatrix(arr)
    result = best_path(m, 3, 2)
    assert result.repeaters == (1, 2)
    assert result.success_prob == 1.0


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("level", [1, 2, 3])
def test_best_path_matches_brute_force(seed, level):
    rng = np.random.default_rng(seed)
    m = random_matrix(rng, 6)
    for slave in m.slaves:
        got = best_path(m, slave, level)
        want_seq, want_prob = brute_force_best_path(m, slave, level)
        assert got.repeaters == want_seq
        assert got.success_prob == pytest.approx(want_prob, abs=1e-12)


def test_best_path_lexicographic_tie_break():
    # clockwise and counter-clockwise ring chains multiply identical factor
    # sequences, so they tie bit-exactly and the smaller sequence must win
    m = generate_ring(10, 0.1, 0.6)
    assert best_path(m, 5, 4).repeaters == (1, 2, 3, 4)  # not (9, 8, 7, 6)
    assert best_path(m, 5, 2).repeaters == (2, 4)  # not (8, 6)


@pytest.mark.parametrize("nodes", [10, 12])
def test_best_path_equals_oracle_exactly_on_rings(nodes):
    # ring chains tie exactly in both directions and across two-hop
    # shortcuts; the search and the oracle multiply the same product, so
    # the tie-break is exact at every level
    m = generate_ring(nodes, 0.1, 0.6)
    for slave in m.slaves:
        for level in range(5):
            got = best_path(m, slave, level)
            want_seq, want_prob = brute_force_best_path(m, slave, level)
            assert got.repeaters == want_seq, (slave, level)
            assert got.success_prob == want_prob, (slave, level)
            assert got.success_prob == round_trip_success(
                m, got.repeaters, slave)


def test_best_path_equals_oracle_exactly_on_quantized_pers():
    # PERs in multiples of 0.1, dead and perfect links included, make
    # asymmetric matrices full of exact ties that neither continuous random
    # PERs nor symmetric rings produce
    cases = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 10))
        arr = rng.integers(0, 11, size=(n, n)) / 10
        np.fill_diagonal(arr, 0.0)
        m = PerMatrix(arr)
        for slave in m.slaves:
            for level in range(min(3, n - 2) + 1):
                got = best_path(m, slave, level)
                want_seq, want_prob = brute_force_best_path(m, slave, level)
                assert got.repeaters == want_seq, (seed, slave, level)
                assert got.success_prob == want_prob, (seed, slave, level)
                cases += 1
    assert cases == 2070


def test_best_path_rounding_tie_goes_to_smaller_first_repeater():
    # via repeater 1 the first two hops multiply to one ulp less than via
    # repeater 2, and the last hop rounds both chains to the same product:
    # an exact tie, which the smaller sequence wins
    arr = np.ones((5, 5))
    np.fill_diagonal(arr, 0.0)
    for (a, b), p in {(0, 1): 0.88, (1, 3): 0.96, (0, 2): 0.84, (2, 3): 0.97,
                      (3, 4): 0.16}.items():
        arr[a, b], arr[b, a] = p, 0.0
    m = PerMatrix(arr)
    first = [(1 - arr[0, r]) * (1 - arr[r, 3]) for r in (1, 2)]
    assert first[0] < first[1]
    assert first[0] * (1 - arr[3, 4]) == first[1] * (1 - arr[3, 4])
    result = best_path(m, 4, 2)
    assert result.repeaters == (1, 3)
    assert result.success_prob == round_trip_success(m, (2, 3), 4)
    assert (result.repeaters, result.success_prob) == forward_best_path(m, 4, 2)


def test_best_path_leaves_no_reference_cycle():
    # the recursive search must not keep its arrays alive until a gc pass
    m = build_matrix(ChannelSpec(kind="rand_area", node_count=30, seed=1))
    gc.collect()
    gc.disable()
    try:
        best_path(m, 5, 3)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_best_path_all_zero_returns_smallest_sequence():
    arr = np.ones((6, 6))
    np.fill_diagonal(arr, 0.0)
    m = PerMatrix(arr)
    for level in (1, 2, 3):
        result = best_path(m, 2, level)
        assert result.success_prob == 0.0
        assert result.repeaters == tuple([1, 3, 4][:level])


def test_best_path_level_out_of_range():
    m = generate_ring(5)
    with pytest.raises(InvalidPathError):
        best_path(m, 1, 4)  # only 3 candidate repeaters exist
    with pytest.raises(InvalidPathError):
        best_path(m, 1, -1)


def test_slave_analysis_duration_arithmetic():
    # direct success prob 0.5 -> 4 slots expected at level 0
    m = matrix([[0.0, 0.5], [0.0, 0.0]])
    analysis = slave_analysis(m, 1, max_level=0)
    assert analysis.best_level == 0
    assert analysis.expected_duration == pytest.approx(4.0, abs=1e-15)


def test_slave_analysis_unreachable():
    m = matrix([[0.0, 1.0], [1.0, 0.0]])
    analysis = slave_analysis(m, 1, max_level=0)
    assert not analysis.reachable
    assert analysis.expected_duration is None
    assert analysis.per_level[0].expected_duration is None


def test_slave_analysis_closed_form_matches_series():
    # expected duration is the per-try cost times the mean try count
    m = matrix([[0.0, 0.7], [0.0, 0.0]])  # direct round trip succeeds w.p. 0.3
    analysis = slave_analysis(m, 1, max_level=0)
    series = 2.0 * 1 * geometric_retry_mean(0.3)
    assert analysis.expected_duration == pytest.approx(series, abs=1e-9)


def test_slave_analysis_level_tie_goes_low():
    # level 0 RT 0.25, level 1 RT 0.5: both cost 8 slots, keep level 0
    m = matrix([
        [0.0, 0.75, 0.0],
        [0.0, 0.0, 0.0],
        [0.5, 0.0, 0.0],
    ])
    analysis = slave_analysis(m, 1, max_level=1)
    d0 = analysis.per_level[0].expected_duration
    d1 = analysis.per_level[1].expected_duration
    assert d0 == d1 == pytest.approx(8.0, abs=1e-12)
    assert analysis.best_level == 0


def test_slave_analysis_caps_level_at_available_repeaters():
    m = matrix([[0.0, 0.5], [0.5, 0.0]])
    analysis = slave_analysis(m, 1, max_level=4)
    assert [o.level for o in analysis.per_level] == [0]


def test_cycle_two_nodes_perfect():
    m = matrix([[0.0, 0.0], [0.0, 0.0]])
    assert cycle_analysis(m).total == pytest.approx(2.0, abs=1e-15)


def test_cycle_three_ring_perfect():
    m = generate_ring(3, 0.0, 0.0)
    assert cycle_analysis(m).total == pytest.approx(4.0, abs=1e-15)


def test_cycle_ring10_matches_per_slave_oracle():
    m = generate_ring(10, 0.1, 0.6)
    analysis = cycle_analysis(m, max_level=2)
    total = 0.0
    for s in m.slaves:
        best = None
        for level in range(3):
            _, prob = brute_force_best_path(m, s, level)
            if prob > 0:
                duration = 2.0 * (level + 1) / prob
                best = duration if best is None else min(best, duration)
        total += best
    assert analysis.total == pytest.approx(total, rel=1e-12)
    assert not analysis.unreachable
    for a in analysis.slaves:
        # the chain the simulator polls is the oracle's chain for the level
        seq, prob = brute_force_best_path(m, a.slave, a.best_level)
        assert a.repeaters == seq
        assert round_trip_success(m, a.repeaters, a.slave) == prob


def test_cycle_unreachable_slaves_listed_and_excluded():
    # slave 2 is completely cut off
    m = matrix([
        [0.0, 0.1, 1.0],
        [0.1, 0.0, 1.0],
        [1.0, 1.0, 0.0],
    ])
    analysis = cycle_analysis(m, max_level=1)
    assert analysis.unreachable == (2,)
    assert not analysis.complete
    assert analysis.total == pytest.approx(2.0 / 0.81, rel=1e-12)


def test_cycle_total_is_sum_of_slave_durations():
    m = generate_ring(8, 0.2, 0.7)
    analysis = cycle_analysis(m, max_level=3)
    reachable = [a.expected_duration for a in analysis.slaves if a.reachable]
    assert analysis.total == pytest.approx(sum(reachable), rel=1e-12)
    # dropping any slave from the polling list can only shrink the sum
    for skip in range(len(reachable)):
        assert sum(d for i, d in enumerate(reachable) if i != skip) <= analysis.total


@pytest.mark.parametrize("name,spec", [
    ("ring_100", ChannelSpec(kind="ring", node_count=100)),
    ("rand_area_100", ChannelSpec(kind="rand_area", node_count=100, seed=100)),
])
def test_slave_analysis_equals_best_path_per_level(name, spec):
    # slave_analysis searches every level against the bound tables that
    # earlier calls left cached; with the cache emptied, best_path
    # builds only the tables its own level needs
    m = build_matrix(spec)
    for slave in m.slaves:
        analysis = slave_analysis(m, slave, 4)
        assert [o.level for o in analysis.per_level] == [0, 1, 2, 3, 4]
        for option in analysis.per_level:
            dlc._heads.cache_clear()
            path = best_path(m, slave, option.level)
            assert option.success_prob == path.success_prob, (slave, option)
            if analysis.reachable and option.level == analysis.best_level:
                assert analysis.repeaters == path.repeaters, slave


def test_cycle_analysis_pins_ring_1000():
    # the wide-area ring: four repeaters of at most two ring hops each
    # reach the 10 slaves on either side of the master and no further
    m = generate_ring(1000, 0.1, 0.6)
    analysis = cycle_analysis(m, 4)
    assert analysis.total == 237747.74479573916
    assert analysis.unreachable == tuple(range(11, 990))
    chains = {a.slave: (a.best_level, a.repeaters) for a in analysis.slaves
              if a.slave in (1, 10, 250, 500, 990, 999)}
    assert chains == {1: (0, ()), 10: (4, (2, 4, 6, 8)), 250: (0, ()),
                      500: (0, ()), 990: (4, (998, 996, 994, 992)),
                      999: (0, ())}


@pytest.mark.parametrize("name,spec", [
    ("ring_100", ChannelSpec(kind="ring", node_count=100)),
    ("rand_area_100", ChannelSpec(kind="rand_area", node_count=100, seed=100)),
    ("rand_area_200", ChannelSpec(kind="rand_area", node_count=200, seed=200)),
])
def test_best_path_equals_forward_search_exactly(name, spec):
    # the search from the slave returns the chain and the product of the
    # search from the master, bit for bit, ties included
    m = build_matrix(spec)
    for slave in m.slaves:
        for level in range(5):
            got = best_path(m, slave, level)
            want_seq, want_prob = forward_best_path(m, slave, level)
            assert got.repeaters == want_seq, (slave, level)
            assert got.success_prob == want_prob, (slave, level)


def test_cycle_analysis_independent_of_call_order():
    # the bound tables are shared by every slave and extended on demand,
    # so no order of slaves or levels changes an analysis
    m = build_matrix(ChannelSpec(kind="rand_area", node_count=60, seed=3))
    want = {}
    for max_level in range(5):
        dlc._heads.cache_clear()
        want[max_level] = cycle_analysis(m, max_level).slaves
    rng = np.random.default_rng(0)
    for order in (lambda xs: list(xs), lambda xs: list(xs)[::-1],
                  lambda xs: [int(x) for x in rng.permutation(list(xs))]):
        dlc._heads.cache_clear()
        for max_level in order(range(5)):
            assert cycle_analysis(m, max_level).slaves == want[max_level]
        dlc._heads.cache_clear()
        for slave in order(m.slaves):
            for level in order(range(5)):
                assert best_path(m, slave, level).success_prob == (
                    want[4][slave - 1].per_level[level].success_prob)
        dlc._heads.cache_clear()
        got = {slave: slave_analysis(m, slave, 4) for slave in order(m.slaves)}
        assert tuple(got[slave] for slave in m.slaves) == want[4]


def _batch_case(seed: int) -> tuple[PerMatrix, int]:
    """A random matrix of 2-29 nodes and a max_level of 0-5.

    Seeds cycle through continuous PERs, PERs quantized to exact ties,
    half-dead PERs (half the links, at random, at PER 1) and uniform PER
    0.3.  Half-dead matrices start at max_level 3, the first level whose
    descent can meet an all-zero bound below its top.  The depth-first search
    visits every tie of a uniform matrix, so those stay at 12 nodes and
    max_level 4 or less.
    """
    rng = np.random.default_rng(seed)
    kind = seed % 4
    n = int(rng.integers(2, 13 if kind == 3 else 30))
    max_level = int(rng.integers(3 if kind == 2 else 0, 5 if kind == 3 else 6))
    if kind == 0:
        arr = rng.random((n, n))
    elif kind == 1:
        arr = rng.choice([0.1, 0.3, 0.5, 1.0], size=(n, n))
    elif kind == 2:
        arr = rng.random((n, n))
        arr[rng.random((n, n)) < 0.5] = 1.0
    else:
        arr = np.full((n, n), 0.3)
    np.fill_diagonal(arr, 0.0)
    return PerMatrix(arr), max_level


def test_cycle_analysis_equals_slave_analysis_on_random_matrices():
    # the batched first descent decides most searches without best_path;
    # every decision must be the depth-first search's, ties included
    for seed in range(240):
        m, max_level = _batch_case(seed)
        want = tuple(slave_analysis(m, s, max_level) for s in m.slaves)
        assert cycle_analysis(m, max_level).slaves == want, seed
        # an analysis keeps the chain of its best level only; the chains of
        # the other levels must be best_path's too, wherever one can succeed
        for level in range(min(max_level, m.node_count - 2) + 1):
            paths = [best_path(m, s, level) for s in m.slaves]
            got = dlc._level_paths(m, level)
            assert [prob for _, prob in got] == [
                p.success_prob for p in paths], (seed, level)
            assert [chain for chain, prob in got if prob > 0.0] == [
                p.repeaters for p in paths if p.success_prob > 0.0], (
                    seed, level)


def test_cycle_analysis_takes_no_stuck_descent():
    # every slave hangs off the master, and slaves 2 and 3 are also linked.
    # At level 3, slave 2's descent picks r_3 = 3, whose bound for r_2 is
    # all zero, so argmax names the master; taken on from there, the
    # descent would read a positive product.  No chain of three distinct
    # repeaters reaches slave 2.
    arr = np.ones((5, 5))
    np.fill_diagonal(arr, 0.0)
    for a, b in [(0, 1), (0, 2), (0, 3), (0, 4), (2, 3)]:
        arr[a, b] = arr[b, a] = 0.5
    m = PerMatrix(arr)
    assert best_path(m, 2, 3).success_prob == 0.0
    analysis = cycle_analysis(m, 3)
    assert analysis.slaves == tuple(slave_analysis(m, s, 3) for s in m.slaves)
    assert analysis.slaves[1].per_level[3].success_prob == 0.0


@pytest.mark.parametrize("name,spec", [
    ("ring_100", ChannelSpec(kind="ring", node_count=100)),
    ("rand_area_100", ChannelSpec(kind="rand_area", node_count=100, seed=100)),
])
def test_cycle_analysis_independent_of_block_size(name, spec, monkeypatch):
    m = build_matrix(spec)
    want = cycle_analysis(m, 4)
    monkeypatch.setattr(dlc, "_BATCH_ELEMENTS", 1)  # one slave per block
    assert cycle_analysis(m, 4) == want


def test_cycle_analysis_searches_only_undecided_descents(monkeypatch):
    # rand_area_100 has 99 slaves and so 396 searches at levels 1-4; the
    # batched descent decides all but a few of them
    m = build_matrix(ChannelSpec(kind="rand_area", node_count=100, seed=100))
    calls = []
    original = dlc.best_path

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(dlc, "best_path", counted)
    cycle_analysis(m, 4)
    assert 0 < len(calls) <= 25
    assert all(level >= 1 for _, _, level in calls)
