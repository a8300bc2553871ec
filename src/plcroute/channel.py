"""PER-matrix channel models: generation, validation, one text file format.

A channel model is a square matrix of per-link packet error rates.  Node 0
is the polling master, nodes 1..n-1 are slaves.  Entry [i, j] is the
probability that a single-slot transmission from node i is not received
correctly by node j.  Matrices may be asymmetric; error rates are treated
as time-constant.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from numbers import Integral
from pathlib import Path

import numpy as np

MASTER = 0

DEFAULT_RING_PER_ADJACENT = 0.1
DEFAULT_RING_PER_TWO_HOP = 0.6
DEFAULT_RAND_AREA_D50 = 0.3
DEFAULT_RAND_AREA_WIDTH = 0.07


class ChannelSpecError(ValueError):
    """Raised for channel model parameters that cannot be realized."""


class MatrixValidationError(ValueError):
    """Raised when a PER matrix violates its structural invariants."""


def _check_integer(name: str, value, error=ValueError,
                   low: int | None = None, high: int | None = None) -> int:
    """value as a Python int; raise error unless it is an integer other
    than a bool, and at least low and at most high where they are given
    (high only with low).  Every node index, count and seed is checked so
    before it indexes an array or keys a stream, and a result keeps the
    returned int, so that no numpy integer reaches a report."""
    # a plain int first: the Integral check costs ten times more
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise error(f"{name} must be an integer, not {value!r}")
        value = int(value)
    if high is not None:
        if not low <= value <= high:
            raise error(f"{name} {value} out of range {low}..{high}")
    elif low is not None and value < low:
        raise error(f"{name} must be >= {low}")
    return value


def _check_seed(seed, error=ValueError) -> int:
    """seed as a Python int; raise error unless it is an integer in
    0..2**64-1, the one range that both numpy's generators and the
    simulator's keyed streams take."""
    seed = _check_integer("seed", seed, error)
    if not 0 <= seed < 1 << 64:
        raise error("seed must be an integer in 0..2**64-1")
    return seed


@dataclass(frozen=True, eq=False)
class PerMatrix:
    """Immutable square matrix of per-link packet error rates."""

    per: np.ndarray

    def __post_init__(self):
        arr = np.array(self.per, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise MatrixValidationError(f"non-square matrix with shape {arr.shape}")
        if arr.shape[0] < 2:
            raise MatrixValidationError("channel model needs at least 2 nodes")
        bad = np.argwhere(~((arr >= 0.0) & (arr <= 1.0)))
        if bad.size:
            i, j = bad[0]
            raise MatrixValidationError(
                f"value {float(arr[i, j])!r} out of range at ({i},{j})"
            )
        diag = np.flatnonzero(np.diagonal(arr))
        if diag.size:
            i = diag[0]
            raise MatrixValidationError(f"nonzero diagonal at ({i},{i})")
        arr.setflags(write=False)
        object.__setattr__(self, "per", arr)

    @property
    def node_count(self) -> int:
        return self.per.shape[0]

    @property
    def slaves(self) -> range:
        return range(1, self.node_count)


def logistic_per(distance, d50: float, width: float):
    """Distance-to-PER map: 0.5 at d50, rising with distance, within [0, 1].

    Far below d50 on a narrow width, exp overflows to inf and the PER is
    exactly 0.0, the logistic's limit.
    """
    x = (np.asarray(distance, dtype=float) - d50) / width
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def generate_ring(node_count: int,
                  per_adjacent: float = DEFAULT_RING_PER_ADJACENT,
                  per_two_hop: float = DEFAULT_RING_PER_TWO_HOP) -> PerMatrix:
    """Ring topology: adjacent and two-hop neighbours are usable, all else is lost.

    Node i talks to node j with error rate per_adjacent at ring distance 1,
    per_two_hop at distance 2, and 1.0 beyond.  Symmetric by construction.
    """
    _check_integer("node_count", node_count, ChannelSpecError)
    if node_count < 3:
        raise ChannelSpecError("ring model needs at least 3 nodes")
    if not (0.0 <= per_adjacent <= per_two_hop <= 1.0):
        raise ChannelSpecError(
            "ring model needs 0 <= per_adjacent <= per_two_hop <= 1"
        )
    idx = np.arange(node_count)
    dist = np.abs(idx[:, None] - idx[None, :])
    dist = np.minimum(dist, node_count - dist)
    per = np.ones((node_count, node_count))
    per[dist == 2] = per_two_hop
    per[dist == 1] = per_adjacent
    per[dist == 0] = 0.0
    return PerMatrix(per)


def generate_rand_area(node_count: int,
                       d50: float = DEFAULT_RAND_AREA_D50,
                       width: float = DEFAULT_RAND_AREA_WIDTH,
                       seed: int = 0) -> PerMatrix:
    """Random-area topology: master at the centre of the unit square, slaves
    placed uniformly at random, link PER rising logistically with distance.

    The same seed always yields the same matrix: PCG64 is named, so a
    change of numpy's default generator cannot move the nodes.
    """
    _check_integer("node_count", node_count, ChannelSpecError)
    if node_count < 2:
        raise ChannelSpecError("rand_area model needs at least 2 nodes")
    for name, value in (("d50", d50), ("width", width)):
        if not 0.0 < value < np.inf:  # NaN fails too
            raise ChannelSpecError(
                f"rand_area model needs a finite {name} > 0, not {value!r}")
    _check_seed(seed, ChannelSpecError)
    rng = np.random.Generator(np.random.PCG64(seed))
    positions = np.vstack([[0.5, 0.5], rng.random((node_count - 1, 2))])
    dist = np.linalg.norm(positions[:, None, :] - positions[None, :, :], axis=-1)
    per = logistic_per(dist, d50, width)
    np.fill_diagonal(per, 0.0)
    return PerMatrix(per)


@dataclass(frozen=True)
class ChannelSpec:
    """Parametric description of a channel model (ring or rand_area)."""

    kind: str
    node_count: int = 0
    per_adjacent: float = DEFAULT_RING_PER_ADJACENT
    per_two_hop: float = DEFAULT_RING_PER_TWO_HOP
    d50: float = DEFAULT_RAND_AREA_D50
    width: float = DEFAULT_RAND_AREA_WIDTH
    seed: int = 0

    def __post_init__(self):
        # kept as Python ints, whatever integer type was given, so that
        # to_dict serializes; build_matrix checks their ranges
        for name in ("node_count", "seed"):
            object.__setattr__(self, name, _check_integer(
                name, getattr(self, name), ChannelSpecError))

    def to_dict(self) -> dict:
        """The fields, less the other kind's parameters."""
        other = {"ring": ("d50", "width", "seed"),
                 "rand_area": ("per_adjacent", "per_two_hop")}.get(self.kind, ())
        return {k: v for k, v in asdict(self).items() if k not in other}


def build_matrix(spec: ChannelSpec) -> PerMatrix:
    if spec.kind == "ring":
        return generate_ring(spec.node_count, spec.per_adjacent, spec.per_two_hop)
    if spec.kind == "rand_area":
        return generate_rand_area(spec.node_count, spec.d50, spec.width, spec.seed)
    raise ChannelSpecError(f"unknown channel kind {spec.kind!r}")


# The documented default comparison models.  Random-area seeds equal the
# node count so runs are reproducible without extra configuration.
DEFAULT_MODELS: tuple[tuple[str, ChannelSpec], ...] = (
    ("ring_10", ChannelSpec(kind="ring", node_count=10)),
    ("ring_100", ChannelSpec(kind="ring", node_count=100)),
    ("rand_area_20", ChannelSpec(kind="rand_area", node_count=20, seed=20)),
    ("rand_area_100", ChannelSpec(kind="rand_area", node_count=100, seed=100)),
    ("rand_area_200", ChannelSpec(kind="rand_area", node_count=200, seed=200)),
)


def save_matrix(matrix: PerMatrix, path) -> None:
    """Write a matrix as comma-separated text, 17 significant digits a value."""
    row_format = ",".join(["%.17g"] * matrix.node_count)
    lines = [f"# per matrix, {matrix.node_count} nodes"]
    lines.extend(row_format % tuple(row) for row in matrix.per.tolist())
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_matrix(path) -> PerMatrix:
    """Read a matrix written by save_matrix; validates shape, range, diagonal.

    A leading UTF-8 byte-order mark, as some editors write one, is skipped.
    """
    path = Path(path)
    rows = []
    for lineno, line in enumerate(path.read_text(encoding="utf-8-sig").splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            rows.append([float(cell) for cell in stripped.split(",")])
        except ValueError as exc:
            raise MatrixValidationError(
                f"unparseable value on line {lineno}: {exc}"
            ) from None
    if not rows:
        raise MatrixValidationError(f"no matrix rows found in {path}")
    width = len(rows[0])
    if any(len(r) != width for r in rows) or len(rows) != width:
        raise MatrixValidationError(
            f"non-square matrix in {path}: {len(rows)} rows, "
            f"row widths {sorted({len(r) for r in rows})}"
        )
    return PerMatrix(np.array(rows))
