from __future__ import annotations

import json
import math

import numpy as np
import pytest

from plcroute.channel import (
    ChannelSpec,
    ChannelSpecError,
    MatrixValidationError,
    PerMatrix,
    build_matrix,
    generate_rand_area,
    generate_ring,
    load_matrix,
    logistic_per,
    save_matrix,
)


def test_ring_three_nodes_all_adjacent():
    m = generate_ring(3, 0.1, 0.6)
    off_diag = m.per[~np.eye(3, dtype=bool)]
    assert np.all(off_diag == 0.1)


def test_ring_distance_rule():
    m = generate_ring(10, 0.1, 0.6)
    assert m.per[0, 1] == 0.1
    assert m.per[0, 2] == 0.6
    assert m.per[0, 5] == 1.0
    assert m.per[0, 9] == 0.1  # wrap-around distance 1


def test_ring_adjacent_only():
    m = generate_ring(10, 0.0, 1.0)
    assert m.per[0, 5] == 1.0
    assert m.per[0, 1] == 0.0


@pytest.mark.parametrize("nodes", [0, 1, 2, 5.5])
def test_ring_too_small(nodes):
    with pytest.raises(ChannelSpecError):
        generate_ring(nodes)


def test_ring_rejects_bad_probabilities():
    with pytest.raises(ChannelSpecError):
        generate_ring(5, 0.7, 0.6)  # adjacent worse than two-hop
    with pytest.raises(ChannelSpecError):
        generate_ring(5, -0.1, 0.6)
    with pytest.raises(ChannelSpecError):
        generate_ring(5, 0.1, 1.2)


def test_generated_matrices_are_symmetric_and_valid():
    for m in (generate_ring(9), generate_rand_area(12, seed=3)):
        assert np.array_equal(m.per, m.per.T)
        assert np.all(np.diagonal(m.per) == 0.0)
        assert np.all((m.per >= 0.0) & (m.per <= 1.0))


def test_logistic_midpoint_and_small_distance():
    assert float(logistic_per(0.3, 0.3, 0.07)) == 0.5
    # distance ~0 with d50=0.3, width=0.05 evaluates the raw expression
    expected = 1.0 / (1.0 + math.exp(0.3 / 0.05))
    assert float(logistic_per(0.0, 0.3, 0.05)) == pytest.approx(expected, abs=1e-15)
    assert expected == pytest.approx(0.0025, abs=3e-4)


def test_narrow_logistic_saturates_without_warning():
    # far below d50, exp overflows to inf: the PER is the limit, exactly 0.0
    # (a RuntimeWarning fails the test suite)
    assert float(logistic_per(0.0, 0.3, 1e-4)) == 0.0
    assert float(logistic_per(0.6, 0.3, 1e-4)) == 1.0
    m = generate_rand_area(20, width=1e-4)
    off_diagonal = m.per[~np.eye(20, dtype=bool)]
    assert np.all((off_diagonal >= 0.0) & (off_diagonal <= 1.0))
    assert np.any(off_diagonal == 0.0) and np.any(off_diagonal == 1.0)


def test_rand_area_deterministic_per_seed():
    a = generate_rand_area(20, 0.3, 0.07, seed=7)
    b = generate_rand_area(20, 0.3, 0.07, seed=7)
    c = generate_rand_area(20, 0.3, 0.07, seed=8)
    assert np.array_equal(a.per, b.per)
    assert not np.array_equal(a.per, c.per)


def test_rand_area_validation():
    with pytest.raises(ChannelSpecError):
        generate_rand_area(1)
    with pytest.raises(ChannelSpecError):
        generate_rand_area(5, d50=0.0)
    with pytest.raises(ChannelSpecError):
        generate_rand_area(5, width=-1.0)
    # each bad setting is named, not passed on to numpy
    for setting, value in (("node_count", 5.5), ("seed", True),
                           ("d50", math.nan), ("d50", math.inf),
                           ("width", math.nan), ("width", math.inf)):
        with pytest.raises(ChannelSpecError, match=setting):
            generate_rand_area(**{"node_count": 5, setting: value})


def test_per_matrix_rejects_bad_values():
    with pytest.raises(MatrixValidationError, match="out of range at \\(0,1\\)"):
        PerMatrix(np.array([[0.0, 1.5], [0.2, 0.0]]))
    with pytest.raises(MatrixValidationError, match="out of range"):
        PerMatrix(np.array([[0.0, np.nan], [0.2, 0.0]]))
    with pytest.raises(MatrixValidationError, match="nonzero diagonal at \\(1,1\\)"):
        PerMatrix(np.array([[0.0, 0.5], [0.2, 0.1]]))
    with pytest.raises(MatrixValidationError, match="non-square"):
        PerMatrix(np.zeros((2, 3)))


def test_per_matrix_immutable_and_asymmetric_ok():
    m = PerMatrix(np.array([[0.0, 0.3], [0.4, 0.0]]))
    assert m.per[0, 1] == 0.3 and m.per[1, 0] == 0.4
    with pytest.raises(ValueError):
        m.per[0, 1] = 0.9


def test_text_parse_simple(tmp_path):
    path = tmp_path / "m.per"
    path.write_text("# comment\n0,0.3\n0.4,0\n")
    m = load_matrix(path)
    assert m.node_count == 2
    assert m.per[0, 1] == 0.3 and m.per[1, 0] == 0.4


def test_text_parse_non_square(tmp_path):
    path = tmp_path / "m.per"
    path.write_text("0,0.3,0.1\n0.4,0,0.2\n")
    with pytest.raises(MatrixValidationError, match="non-square"):
        load_matrix(path)


def test_text_parse_out_of_range(tmp_path):
    path = tmp_path / "m.per"
    path.write_text("0,1.5\n0.4,0\n")
    with pytest.raises(MatrixValidationError) as exc:
        load_matrix(path)
    # a Python float, not numpy 2's np.float64(1.5)
    assert str(exc.value) == "value 1.5 out of range at (0,1)"


def test_save_load_round_trip_is_identity(tmp_path):
    rng = np.random.default_rng(5)
    arr = rng.random((7, 7))
    np.fill_diagonal(arr, 0.0)
    m = PerMatrix(arr)
    path = tmp_path / "m.per"
    save_matrix(m, path)
    back = load_matrix(path)
    assert back.node_count == m.node_count
    assert np.array_equal(back.per, m.per)  # bit-exact


def test_saved_bytes_equal_one_format_per_value(tmp_path):
    # the reference writer formats each value on its own
    rng = np.random.default_rng(8)
    arr = rng.random((6, 6))
    arr[0, 1:] = [0.0, 1.0, 5e-324, 0.1, 1.0 - 2 ** -53]
    np.fill_diagonal(arr, 0.0)
    for per in (arr, generate_ring(4).per):
        path = tmp_path / "m.per"
        save_matrix(PerMatrix(per), path)
        want = [f"# per matrix, {per.shape[0]} nodes"]
        want += [",".join(f"{v:.17g}" for v in row) for row in per]
        assert path.read_bytes() == ("\n".join(want) + "\n").encode()


def test_build_matrix_dispatch():
    ring = build_matrix(ChannelSpec(kind="ring", node_count=5))
    assert ring.node_count == 5
    rand = build_matrix(ChannelSpec(kind="rand_area", node_count=6, seed=1))
    assert rand.node_count == 6
    with pytest.raises(ChannelSpecError):
        build_matrix(ChannelSpec(kind="mesh"))


def test_channel_spec_of_numpy_integers_serializes_as_of_ints():
    # node_count and seed are kept as Python ints, so a spec's dict is
    # JSON whatever integers it was given, and builds the same matrix
    spec = ChannelSpec(kind="rand_area", node_count=np.int64(10),
                       seed=np.uint64(3))
    plain = ChannelSpec(kind="rand_area", node_count=10, seed=3)
    assert json.dumps(spec.to_dict()) == json.dumps(plain.to_dict())
    assert build_matrix(spec).per.tobytes() == build_matrix(plain).per.tobytes()
    assert list(plain.to_dict()) == ["kind", "node_count", "d50", "width",
                                     "seed"]
    assert list(ChannelSpec(kind="ring", node_count=np.int32(5)).to_dict()) \
        == ["kind", "node_count", "per_adjacent", "per_two_hop"]
    # a count or seed that is no integer fails as the spec is made, and
    # a range stays build_matrix's to check
    for bad in ({"node_count": 5.5}, {"node_count": True}, {"seed": 1.0}):
        with pytest.raises(ChannelSpecError, match="must be an integer"):
            ChannelSpec(kind="rand_area", **{"node_count": 5, **bad})
    with pytest.raises(ChannelSpecError, match="at least 2 nodes"):
        build_matrix(ChannelSpec(kind="rand_area", node_count=np.int64(1)))
