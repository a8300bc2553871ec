"""Cross-module invariants checked over randomized instances."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plcroute.channel import PerMatrix, load_matrix, save_matrix
from plcroute.dlc import best_path, round_trip_success
from plcroute.sfn import flood

from oracles import brute_force_best_path


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


@given(per_matrices(min_nodes=2, max_nodes=5),
       st.sampled_from(["text", "json"]))
@settings(max_examples=40, deadline=None)
def test_save_load_round_trip(tmp_path_factory, m, fmt):
    path = tmp_path_factory.mktemp("matrices") / f"m.{fmt}"
    save_matrix(m, path, fmt)
    back = load_matrix(path, fmt)
    assert np.array_equal(back.per, m.per)
