from __future__ import annotations

import numpy as np
import pytest

from plcroute import sfn
from plcroute.channel import (
    ChannelSpec,
    PerMatrix,
    build_matrix,
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
    profile = flood(m, 0, 1.0, horizon=6)
    tx_ref, rcv_ref = flood_reference(m.per, 0, 1.0, 6)
    levels = profile.horizon + 1
    assert np.allclose(profile.tx, tx_ref[:, :levels], atol=1e-12, rtol=0)
    assert np.allclose(profile.rcv, rcv_ref[:, :levels], atol=1e-12, rtol=0)


def test_flood_fractional_seed_matches_reference():
    rng = np.random.default_rng(9)
    m = random_matrix(rng, 5)
    profile = flood(m, 2, 0.4, horizon=5)
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
    profile = flood(line_matrix(), 0, 1.0, horizon=10)
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
    with pytest.raises(ValueError):
        flood(m, 0, 1.0, horizon=-1)


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


def test_batched_floods_stop_each_row_at_its_own_level():
    # A lossless line 0-8, where a full-mass flood stops once its wave has
    # passed both ends, and apart from it a lossy triangle 9-11.  A flood in
    # the triangle, or one seeded with less than full mass, echoes until
    # the horizon.
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
    for rows, tx, rcv in sfn._flood_levels(m, origins, seeds, n):
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
    master = sfn._master_cumulative(m, origins[1:], seeds[1:])
    for got, origin, seed in zip(master, origins[1:], seeds[1:]):
        want = per_origin_flood(m, origin, seed).cumulative[0]
        assert np.array_equal(got, want)


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
