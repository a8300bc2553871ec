"""Expected polling-cycle duration under DLC1000 dynamic source routing.

The master reaches a slave through an explicitly addressed chain of
repeaters and the response retraces the chain in reverse, so one try
costs 2*(repeaters+1) slots and succeeds only if every directed link on
the round trip succeeds.  For each allowed repeater count the master uses
the chain with the highest round-trip success probability, found by one
depth-first search that tries the best bound first at every count; across
counts it keeps the one with the lowest expected duration under
retry-until-success.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import MASTER, PerMatrix


class InvalidPathError(ValueError):
    """Raised for repeater sequences that are not usable paths."""


@dataclass(frozen=True)
class DlcPathResult:
    repeaters: tuple[int, ...]
    success_prob: float


@dataclass(frozen=True)
class DlcLevelOption:
    level: int
    success_prob: float
    expected_duration: float | None  # None when the level cannot succeed


@dataclass(frozen=True)
class DlcSlaveAnalysis:
    slave: int
    best_level: int
    repeaters: tuple[int, ...]  # chain of best_level; () when unreachable
    expected_duration: float | None
    per_level: tuple[DlcLevelOption, ...]

    @property
    def reachable(self) -> bool:
        return self.expected_duration is not None


@dataclass(frozen=True)
class DlcCycleAnalysis:
    slaves: tuple[DlcSlaveAnalysis, ...]
    total: float  # sum over reachable slaves only
    unreachable: tuple[int, ...]

    @property
    def complete(self) -> bool:
        return not self.unreachable


def _check_slave(per: PerMatrix, slave: int) -> None:
    if not (1 <= slave < per.node_count):
        raise InvalidPathError(f"slave index {slave} out of range (master is 0)")


def _check_path(per: PerMatrix, repeaters, slave: int) -> None:
    seen = set()
    for r in repeaters:
        if not (0 <= r < per.node_count):
            raise InvalidPathError(f"repeater index {r} out of range")
        if r == MASTER or r == slave:
            raise InvalidPathError(
                f"repeater {r} may not be the master or the destination"
            )
        if r in seen:
            raise InvalidPathError(f"duplicate repeater {r}")
        seen.add(r)


def round_trip_success(per: PerMatrix, repeaters, slave: int) -> float:
    """No-retry probability that request and response both traverse the chain.

    Multiplies, hop by hop from the master, the success of each forward
    link u -> v times that of its reverse link v -> u.  best_path ranks
    chains by this same product, so equal products are exact ties.
    """
    _check_slave(per, slave)
    _check_path(per, repeaters, slave)
    w = _pair_weights(per)
    hops = [MASTER, *repeaters, slave]
    prob = 1.0
    for a, b in zip(hops, hops[1:]):
        prob *= w[a, b]
    return float(prob)


@lru_cache(maxsize=1)
def _pair_weights(per: PerMatrix) -> np.ndarray:
    """Round-trip weight of each hop, (1 - per[u, v]) * (1 - per[v, u]).

    Read-only and computed once per matrix: PerMatrix is immutable and
    hashes by identity.
    """
    p = per.per
    w = (1.0 - p) * (1.0 - p.T)
    np.fill_diagonal(w, 0.0)
    w.setflags(write=False)
    return w


def best_path(per: PerMatrix, slave: int, level: int) -> DlcPathResult:
    """Repeater chain with the highest round-trip success at a given level.

    One depth-first search serves every level.  tail[k][v] is the best
    product of k hops from v to the slave over walks that may repeat
    repeaters, so it bounds every chain that continues from v.  Each node
    of the search visits its children best bound first, which makes the
    first chain it completes the greedy one, and stops at the first child
    whose bound falls below the best chain found so far.  Chains are ranked
    by round_trip_success's own product, so ties are exact and go to the
    lexicographically smallest repeater sequence.  If no chain of this
    length can succeed, the smallest valid sequence is returned with
    probability 0.
    """
    _check_slave(per, slave)
    n = per.node_count
    if not (0 <= level <= n - 2):
        raise InvalidPathError(
            f"repeater level {level} out of range 0..{n - 2} for {n} nodes"
        )
    w = _pair_weights(per)
    # the master and the slave are never repeaters: zero bound
    t = w[:, slave].copy()
    t[[MASTER, slave]] = 0.0
    tail = [None, t]
    for _ in range(level - 1):
        t = (w * t).max(axis=1)
        t[[MASTER, slave]] = 0.0
        tail.append(t)

    best = 0.0
    best_seq = tuple(v for v in range(1, level + 2) if v != slave)[:level]
    margin = 1.0 + 1e-9  # bounds multiply in another order than chains
    prefix: list[int] = []

    def visit(last: int, prob: float) -> None:
        nonlocal best, best_seq
        depth = len(prefix)
        if depth == level:
            total = prob * w[last, slave]
            if total > best or (total == best and tuple(prefix) < best_seq):
                best, best_seq = total, tuple(prefix)
            return
        step = prob * w[last]
        bound = step * tail[level - depth]
        bound[prefix] = 0.0
        for r in np.argsort(-bound, kind="stable"):
            # children come in descending order, so none after this one
            # can win; while best is 0 this also skips dead children
            if bound[r] * margin <= best:
                break
            prefix.append(int(r))
            visit(int(r), step[r])
            prefix.pop()

    visit(MASTER, 1.0)
    return DlcPathResult(best_seq, float(best))


def slave_analysis(per: PerMatrix, slave: int, max_level: int = 4,
                   slot_time: float = 1.0) -> DlcSlaveAnalysis:
    """Best repeater count and expected polling duration for one slave.

    A level with success probability p costs 2*slot_time*(level+1)/p on
    average; levels that cannot succeed are kept in the table with no
    duration.  Ties between levels go to the smaller level, and the chain
    best_path found for it is kept as the poll route.  Levels above
    node_count - 2 add no usable repeaters and are not evaluated.
    """
    _check_slave(per, slave)
    if max_level < 0:
        raise InvalidPathError("max_level must be >= 0")
    if slot_time <= 0:
        raise ValueError("slot_time must be positive")
    options = []
    best: DlcLevelOption | None = None
    repeaters: tuple[int, ...] = ()
    for level in range(min(max_level, per.node_count - 2) + 1):
        path = best_path(per, slave, level)
        prob = path.success_prob
        duration = 2.0 * slot_time * (level + 1) / prob if prob > 0.0 else None
        option = DlcLevelOption(level, prob, duration)
        options.append(option)
        if duration is not None and (
                best is None or duration < best.expected_duration):
            best, repeaters = option, path.repeaters
    if best is None:
        return DlcSlaveAnalysis(slave, 0, (), None, tuple(options))
    return DlcSlaveAnalysis(slave, best.level, repeaters,
                            best.expected_duration, tuple(options))


def cycle_analysis(per: PerMatrix, max_level: int = 4,
                   slot_time: float = 1.0) -> DlcCycleAnalysis:
    """Expected duration of one full polling cycle (sum over all slaves).

    The total covers reachable slaves only; unreachable slaves are listed
    separately so a partial total stays inspectable.
    """
    slaves = tuple(slave_analysis(per, s, max_level, slot_time)
                   for s in per.slaves)
    unreachable = tuple(a.slave for a in slaves if not a.reachable)
    total = sum(a.expected_duration for a in slaves if a.reachable)
    return DlcCycleAnalysis(slaves, float(total), unreachable)
