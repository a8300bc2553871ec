"""Cross-module invariants checked over randomized instances."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plcroute.channel import PerMatrix, load_matrix, save_matrix
from plcroute.dlc import best_path, round_trip_success
from plcroute.sfn import first_success_distribution, flood

from oracles import (
    brute_force_best_path,
    first_success_loop,
    forward_best_path,
    per_origin_flood,
)


@st.composite
def per_matrices(draw, min_nodes=2, max_nodes=6):
    n = draw(st.integers(min_nodes, max_nodes))
    cells = draw(st.lists(
        st.floats(0.0, 1.0, allow_nan=False), min_size=n * n, max_size=n * n))
    arr = np.array(cells).reshape(n, n)
    np.fill_diagonal(arr, 0.0)
    return PerMatrix(arr)


@given(per_matrices())
@settings(max_examples=60, deadline=None)
def test_round_trip_bounded_by_every_link_factor(m):
    slave = m.node_count - 1
    repeaters = [v for v in range(1, m.node_count - 1)][:2]
    prob = round_trip_success(m, repeaters, slave)
    assert 0.0 <= prob <= 1.0
    hops = [0, *repeaters, slave]
    for a, b in zip(hops, hops[1:]):
        assert prob <= 1.0 - m.per[a, b] + 1e-15
        assert prob <= 1.0 - m.per[b, a] + 1e-15


@given(per_matrices(min_nodes=4, max_nodes=6), st.integers(1, 2))
@settings(max_examples=40, deadline=None)
def test_best_path_is_a_true_maximum(m, level):
    slave = 1
    got = best_path(m, slave, level)
    want_seq, want_prob = brute_force_best_path(m, slave, level)
    assert got.repeaters == want_seq
    assert got.success_prob == pytest.approx(want_prob, abs=1e-12)
    assert round_trip_success(m, got.repeaters, slave) == got.success_prob


@st.composite
def quantized_per_matrices(draw, min_nodes=3, max_nodes=12):
    """PERs in multiples of 0.1, so dead (1.0) and perfect (0.0) links and
    exact ties between chains are common."""
    n = draw(st.integers(min_nodes, max_nodes))
    tenths = draw(st.lists(st.integers(0, 10), min_size=n * n,
                           max_size=n * n))
    arr = np.array(tenths).reshape(n, n) / 10
    np.fill_diagonal(arr, 0.0)
    return PerMatrix(arr)


@given(quantized_per_matrices(), st.data())
@settings(max_examples=150, deadline=None)
def test_best_path_equals_forward_search_on_quantized_pers(m, data):
    slave = data.draw(st.integers(1, m.node_count - 1))
    level = data.draw(st.integers(0, min(4, m.node_count - 2)))
    got = best_path(m, slave, level)
    want_seq, want_prob = forward_best_path(m, slave, level)
    assert got.repeaters == want_seq
    assert got.success_prob == want_prob


@given(per_matrices(min_nodes=3, max_nodes=6))
@settings(max_examples=60, deadline=None)
def test_flood_profile_conservation(m):
    profile = flood(m, 0, 1.0)
    assert np.all(profile.rcv.sum(axis=1) <= 1.0 + 1e-9)
    assert np.all(profile.tx.sum(axis=1) <= 1.0 + 1e-9)
    assert np.all(profile.cumulative <= 1.0 + 1e-9)
    assert np.all(np.diff(profile.cumulative, axis=1) >= -1e-12)
    assert profile.tx[0, 0] == 1.0
    assert np.all(profile.tx[1:, 0] == 0.0)


@st.composite
def sparse_per_matrices(draw, min_nodes=2, max_nodes=12):
    """Matrices with dead links (PER 1) and exact 0/1 PERs mixed in."""
    n = draw(st.integers(min_nodes, max_nodes))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    live_fraction = draw(st.sampled_from([0.05, 0.1, 0.2, 0.6, 1.0]))
    arr = rng.random((n, n))
    arr[rng.random((n, n)) < 0.2] = 0.0
    arr[rng.random((n, n)) < 0.1] = 1.0
    arr[rng.random((n, n)) >= live_fraction] = 1.0
    np.fill_diagonal(arr, 0.0)
    return PerMatrix(arr)


@given(sparse_per_matrices(), st.data())
@settings(max_examples=150, deadline=None)
def test_flood_equals_dense_per_origin_loop_bit_for_bit(m, data):
    n = m.node_count
    origin = data.draw(st.integers(0, n - 1))
    initial_tx = data.draw(st.floats(0.0, 1.0, exclude_min=True))
    got = flood(m, origin, initial_tx)
    want = per_origin_flood(m, origin, initial_tx)
    assert np.array_equal(got.tx, want.tx)
    assert np.array_equal(got.rcv, want.rcv)
    assert np.array_equal(got.cumulative, want.cumulative)
    assert got.horizon == want.horizon


@given(st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0])),
                max_size=200))
@settings(max_examples=300, deadline=None)
def test_first_success_distribution_equals_level_loop_bit_for_bit(q):
    pi, truncated = first_success_distribution(q)
    want_pi, want_truncated = first_success_loop(q)
    assert pi.tobytes() == want_pi.tobytes()
    assert truncated == want_truncated
    assert isinstance(truncated, float)


@given(per_matrices(min_nodes=2, max_nodes=5))
@settings(max_examples=40, deadline=None)
def test_save_load_round_trip(tmp_path_factory, m):
    path = tmp_path_factory.mktemp("matrices") / "m.per"
    save_matrix(m, path)
    back = load_matrix(path)
    assert np.array_equal(back.per, m.per)
