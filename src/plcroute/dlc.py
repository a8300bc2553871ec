"""Expected polling-cycle duration under DLC1000 dynamic source routing.

The master reaches a slave through an explicitly addressed chain of
repeaters and the response retraces the chain in reverse, so one try
costs 2*(repeaters+1) slots and succeeds only if every directed link on
the round trip succeeds.  For each allowed repeater count the master uses
the chain with the highest round-trip success probability; across counts
it keeps the one with the lowest expected duration under
retry-until-success.
"""
from __future__ import annotations

from dataclasses import dataclass

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

    Multiplies (1 - per) over the forward links master -> R1 -> ... -> slave
    and the reverse links slave -> ... -> R1 -> master.
    """
    _check_slave(per, slave)
    _check_path(per, repeaters, slave)
    p = per.per
    hops = [MASTER, *repeaters, slave]
    prob = 1.0
    for a, b in zip(hops, hops[1:]):
        prob *= 1.0 - p[a, b]
    for a, b in zip(hops[::-1], hops[::-1][1:]):
        prob *= 1.0 - p[a, b]
    return prob


def _pair_weights(per: PerMatrix) -> np.ndarray:
    # Combined weight of using link u->v on the way out and v->u on the way
    # back; the round-trip product of a chain is the product of these.
    p = per.per
    w = (1.0 - p) * (1.0 - p.T)
    np.fill_diagonal(w, 0.0)
    return w


def _search_level_ge3(w: np.ndarray, slave: int, level: int,
                      reps: list[int]) -> tuple[float, tuple[int, ...]]:
    """Best simple repeater chain for level >= 3.

    A level-indexed max-product table over (position, last node), computed
    without the distinctness constraint, gives an upper bound on any
    completion.  The chain itself is then reconstructed by a lexicographic
    depth-first search over distinct repeaters pruned with that bound, so
    the documented smallest-sequence tie-break holds even on degenerate
    (tied or all-zero) instances.
    """
    n = w.shape[0]
    wr = w.copy()
    wr[:, MASTER] = 0.0
    wr[:, slave] = 0.0

    # comp[h][v]: best unconstrained completion when v is the (h-1)-th
    # repeater; positions run 1..level, comp[level + 1] is the final hop.
    comp = np.empty((level + 2, n))
    comp[level + 1] = w[:, slave]
    for h in range(level, 0, -1):
        comp[h] = (wr * comp[h + 1][None, :]).max(axis=1)

    best_prob = -1.0
    best_seq: tuple[int, ...] | None = None

    # Greedy reconstruction seeds the search when it happens to be simple.
    path, node = [], MASTER
    for h in range(1, level + 1):
        node = int(np.argmax(wr[node] * comp[h + 1]))
        path.append(node)
    if len(set(path)) == level:
        prob = w[MASTER, path[0]]
        for a, b in zip(path, path[1:]):
            prob *= w[a, b]
        prob *= w[path[-1], slave]
        if prob > 0.0:
            best_prob, best_seq = prob, tuple(path)

    margin = 1.0 + 1e-9  # covers rounding differences between bound and search
    prefix: list[int] = []
    used = [False] * n

    def visit(last: int, prob: float) -> None:
        nonlocal best_prob, best_seq
        h = len(prefix)
        if h == level:
            total = prob * w[last, slave]
            if total > best_prob or (total == best_prob and
                                     best_seq is not None and
                                     tuple(prefix) < best_seq):
                best_prob, best_seq = total, tuple(prefix)
            return
        for r in reps:
            if used[r]:
                continue
            step = prob * w[last, r]
            bound = step * comp[h + 2][r]
            if bound <= 0.0 or bound * margin < best_prob:
                continue
            used[r] = True
            prefix.append(r)
            visit(r, step)
            prefix.pop()
            used[r] = False

    visit(MASTER, 1.0)
    if best_seq is None:
        # Nothing succeeds at this level: report the smallest valid chain.
        return 0.0, tuple(reps[:level])
    return best_prob, best_seq


def best_path(per: PerMatrix, slave: int, level: int) -> DlcPathResult:
    """Repeater chain with the highest round-trip success at a given level.

    Ties are broken toward the lexicographically smallest repeater
    sequence.  If no chain of this length can succeed, the smallest valid
    sequence is returned with probability 0.
    """
    _check_slave(per, slave)
    n = per.node_count
    if not (0 <= level <= n - 2):
        raise InvalidPathError(
            f"repeater level {level} out of range 0..{n - 2} for {n} nodes"
        )
    if level == 0:
        return DlcPathResult((), round_trip_success(per, (), slave))

    w = _pair_weights(per)
    reps = [v for v in range(1, n) if v != slave]

    if level == 1:
        probs = w[MASTER, reps] * w[reps, slave]
        seq = (reps[int(np.argmax(probs))],)
    elif level == 2:
        first = w[MASTER, reps][:, None]
        mid = w[np.ix_(reps, reps)]
        last = w[reps, slave][None, :]
        probs = first * mid * last
        np.fill_diagonal(probs, -1.0)  # same repeater twice is not a chain
        i, j = np.unravel_index(int(np.argmax(probs)), probs.shape)
        seq = (reps[i], reps[j])
    else:
        _, seq = _search_level_ge3(w, slave, level, reps)

    return DlcPathResult(tuple(seq), round_trip_success(per, seq, slave))


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
