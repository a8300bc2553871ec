from __future__ import annotations

import numpy as np
import pytest

from plcroute.channel import PerMatrix, generate_ring
from plcroute.dlc import (
    InvalidPathError,
    best_path,
    cycle_analysis,
    round_trip_success,
    slave_analysis,
)

from oracles import brute_force_best_path, geometric_retry_mean, random_matrix


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
    analysis = slave_analysis(m, 1, max_level=0, slot_time=1.0)
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
