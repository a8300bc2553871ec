"""Expected polling-cycle duration under DLC1000 dynamic source routing.

The master reaches a slave through an explicitly addressed chain of
repeaters and the response retraces the chain in reverse, so one try
costs a slot per hop each way (`_schedule`) and succeeds only if every
directed link on the round trip succeeds.  For each allowed repeater
count the master uses the chain with the highest round-trip success
probability, found by one depth-first search from the slave back to the
master that tries the best bound first; across counts it keeps the one
with the lowest expected duration under retry-until-success.  The
search's bound tables hold the best walks out of the master, so every
slave and count shares them: a whole `cycle_analysis` makes
max_level - 1 dense table steps.
`cycle_analysis` takes each search's first descent for all slaves of a
count at once, in a few (slaves, n) array steps, and resumes the
depth-first search only where that descent is not final.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import MASTER, PerMatrix, _check_integer

# Elements of one (slaves, n) bound array in cycle_analysis's batched
# descent; bounds the slaves per block, and so the memory a block needs.
_BATCH_ELEMENTS = 1 << 16
# The search prunes a child whose bound, times the chain's product so far
# and this margin, is at most the best product: bounds multiply in another
# order than chains.
_MARGIN = 1.0 + 1e-9


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


def _check_slave(per: PerMatrix, slave: int) -> int:
    return _check_integer("slave index", slave, InvalidPathError,
                          low=MASTER + 1, high=per.node_count - 1)


def _check_path(per: PerMatrix, repeaters, slave: int) -> None:
    seen = set()
    for r in repeaters:
        _check_integer("repeater index", r, InvalidPathError,
                       low=0, high=per.node_count - 1)
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
    link u -> v times that of its reverse link v -> u: the one-row case
    of _round_trips.  best_path ranks chains by this same product, so
    equal products are exact ties.
    """
    return float(_round_trips(per, (slave,), (repeaters,))[0])


def _hop_table(per: PerMatrix, slaves, chains):
    """(hops, size) of _round_trips, or None unless every slave and
    repeater is a plain int in range and no chain repeats a node (a
    repeater that is the master or the slave repeats it)."""
    flat = list(itertools.chain.from_iterable(chains))
    nodes = [*slaves, *flat]
    if set(map(type, nodes)) != {int} or not (
            0 <= min(nodes) and max(nodes) < per.node_count):
        return None
    size = np.fromiter(map(len, chains), np.intp, len(chains))
    width = int(size.max()) + 2  # nodes of the longest chain
    hops = np.empty((len(chains), width), np.intp)
    hops[:, 0] = MASTER
    hops[:, 1:] = np.array(slaves)[:, None]
    hops[:, 1:-1][np.arange(width - 2) < size[:, None]] = flat
    ordered = np.sort(hops, axis=1)
    # a sorted row repeats a node once per padded cell, or it is invalid
    repeats = np.count_nonzero(ordered[:, 1:] == ordered[:, :-1])
    padded = hops.size - 2 * len(chains) - len(flat)
    return (hops, size) if repeats == padded else None


def _round_trips(per: PerMatrix, slaves, chains) -> np.ndarray:
    """Round-trip success of each slave's repeater chain, in one pass.

    Row i holds the hops of chains[i], the master first and slaves[i]
    last, padded with the slave.  Each row multiplies its hop weights
    (_pair_weights) in hop order from the master, and a padded hop's
    factor is exactly 1.0, so every row is the hop-by-hop product bit for
    bit.  Chains that fail _hop_table's fast test are checked one by one,
    which raises InvalidPathError for an invalid one; valid chains of
    other integers (numpy's) are then taken as plain ints.
    """
    chains = [tuple(c) for c in chains]
    table = _hop_table(per, slaves, chains)
    if table is None:
        for slave, chain in zip(slaves, chains):
            _check_slave(per, slave)
            _check_path(per, chain, slave)
        table = _hop_table(per, [int(s) for s in slaves],
                           [tuple(map(int, c)) for c in chains])
    hops, size = table
    weight = _pair_weights(per)[hops[:, :-1], hops[:, 1:]]
    weight[np.arange(hops.shape[1] - 1) > size[:, None]] = 1.0
    prob = np.ones(len(hops))
    for hop in weight.T:
        prob *= hop
    return prob


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


@lru_cache(maxsize=1)
def _heads(per: PerMatrix) -> list:
    """Bound tables of the search, shared by every slave.

    head[j][v] is the best product of the walks from the master to v
    through j other nodes, never the master; walks may repeat nodes and
    pass the slave.  Holds head[0]; best_path appends the deeper tables
    it needs.
    """
    h = _pair_weights(per)[MASTER].copy()
    h[MASTER] = 0.0
    return [h]


def _bounds(per: PerMatrix, level: int) -> list:
    """_heads(per), extended to at least `level` tables."""
    w = _pair_weights(per)
    head = _heads(per)
    while len(head) < level:
        h = (w * head[-1]).max(axis=1)  # w is symmetric
        h[MASTER] = 0.0
        head.append(h)
    return head


def best_path(per: PerMatrix, slave: int, level: int) -> DlcPathResult:
    """Repeater chain with the highest round-trip success at a given level.

    A depth-first search picks the repeater next to the slave first, then
    the one before it, down to r_1.  It visits children best bound first,
    head[j][v] (_heads) times the chain's product so far, and stops at the
    first whose bound falls below the best chain found.  The last pick,
    r_1, ranks every candidate at once by round_trip_success's own product
    from the master, so ties are exact and go to the lexicographically
    smallest repeater sequence.  If no chain of this length can succeed,
    the smallest valid sequence is returned with probability 0.
    """
    _check_slave(per, slave)
    n = per.node_count
    _check_integer("repeater level", level, InvalidPathError, low=0, high=n - 2)
    w = _pair_weights(per)
    if level == 0:
        return DlcPathResult((), float(w[MASTER, slave]))
    head = _bounds(per, level)

    best = 0.0
    # the lexicographically smallest valid sequence of `level` repeaters
    best_seq = tuple(v for v in range(1, level + 2) if v != slave)[:level]
    chain = [slave] * (level + 2)  # chain[k] is r_k once picked

    def visit(k: int, prob: float) -> None:
        # pick r_k; prob is the product of the hops from r_k+1 to the slave
        nonlocal best, best_seq
        nxt = chain[k + 1]
        bound = w[nxt] * head[k - 1]
        bound[chain[k + 1:]] = 0.0  # the slave and r_k+1..r_level
        if k == 1:
            # bound[r] is w[0, r] * w[r, r_2]; times the later hops in
            # order, each entry becomes its chain's product, and argmax
            # gives the smallest r_1 among ties; a positive tie with the
            # best chain so far goes to the smaller sequence
            for a, b in zip(chain[2:], chain[3:]):
                bound *= w.item(a, b)
            r = int(bound.argmax())
            total, seq = bound.item(r), (r, *chain[2:-1])
            if total > best or (total == best > 0.0 and seq < best_seq):
                best, best_seq = total, seq
            return
        while True:
            # the highest bound left, the smallest node among equals, so
            # children come in stable descending order and none after this
            # one can win; while best is 0 this also skips dead children
            r = int(bound.argmax())
            if bound.item(r) * prob * _MARGIN <= best:
                break
            bound[r] = -1.0  # visited
            chain[k] = r
            visit(k - 1, prob * w.item(nxt, r))

    visit(level, 1.0)
    del visit  # visit refers to itself; free its arrays now, not at a gc pass
    return DlcPathResult(best_seq, best)


def slave_analysis(per: PerMatrix, slave: int,
                   max_level: int = 4) -> DlcSlaveAnalysis:
    """Best repeater count and expected polling duration for one slave.

    A level with success probability p costs its first try's slots
    (_schedule) over p on average; levels that cannot succeed are kept in
    the table with no duration.  Ties between levels go to the smaller
    level, and the chain best_path found for it is kept as the poll route.
    Levels above node_count - 2 add no usable repeaters and are not
    evaluated.  The search's bound tables are shared by every slave, so
    slaves and levels may be analysed in any order.
    """
    slave = _check_slave(per, slave)
    _check_integer("max_level", max_level, InvalidPathError, low=0)
    levels = range(min(max_level, per.node_count - 2) + 1)
    paths = (best_path(per, slave, level) for level in levels)
    return _choose_level(slave, ((p.repeaters, p.success_prob) for p in paths),
                         [_schedule(level)[0] for level in levels])


def _schedule(level: int) -> tuple[int, int]:
    """(first, step) of a poll over a chain of level repeaters: try j costs
    first + step * j slots.  Request and response each take one slot per
    hop, and every retry retraces the same chain, so first is
    2 * (level + 1) and step is 0."""
    return 2 * (level + 1), 0


def _choose_level(slave: int, paths, first) -> DlcSlaveAnalysis:
    """A slave's analysis from its best chain at levels 0, 1, ... in order.

    `paths` yields (repeaters, success_prob) pairs.  A level's expected
    duration is its first try's slots, first[level], read once per
    analysis from _schedule, over its success.  Ties between levels go to
    the smaller level.
    """
    options = []
    best: DlcLevelOption | None = None
    repeaters: tuple[int, ...] = ()
    for level, (chain, prob) in enumerate(paths):
        duration = first[level] / prob if prob > 0.0 else None
        option = DlcLevelOption(level, prob, duration)
        options.append(option)
        if duration is not None and (
                best is None or duration < best.expected_duration):
            best, repeaters = option, chain
    if best is None:
        return DlcSlaveAnalysis(slave, 0, (), None, tuple(options))
    return DlcSlaveAnalysis(slave, best.level, repeaters,
                            best.expected_duration, tuple(options))


def _descend(w: np.ndarray, head: list, slaves: np.ndarray, level: int):
    """best_path's first descent, for every slave of `slaves` at once.

    Each depth k picks best_path's first child, the argmax of
    w[r_k+1] * head[k-1] with the slave and r_k+1..r_level zeroed, and the
    leaf ranks r_1 as best_path's k == 1 branch does.  Returns each row's
    chain (r_1..r_level), its product, and whether the descent is final:
    its product is positive and, at every depth, the second-best child
    fails best_path's own pruning test against it, so best_path would
    return this chain.
    """
    rows = np.arange(len(slaves))
    taken = [slaves]  # the slave, then r_level, r_level-1, ...
    prob = np.ones(len(slaves))  # product from r_k+1 to the slave
    live = np.ones(len(slaves), dtype=bool)
    rival = np.zeros(len(slaves))  # the highest second-best test value
    for k in range(level, 1, -1):
        bound = w[taken[-1]] * head[k - 1]
        for t in taken:
            bound[rows, t] = 0.0
        r = bound.argmax(axis=1)
        # best_path visits no child of an all-zero bound, whose argmax is
        # a zeroed node, the master among them
        live &= bound[rows, r] * prob * _MARGIN > 0.0
        bound[rows, r] = -1.0
        rival = np.maximum(rival, bound.max(axis=1) * prob * _MARGIN)
        prob = prob * w[taken[-1], r]
        taken.append(r)
    bound = w[taken[-1]] * head[0]
    for t in taken:
        bound[rows, t] = 0.0
    hops = taken[::-1]  # r_2, ..., r_level, the slave
    for a, b in zip(hops, hops[1:]):
        bound *= w[a, b][:, None]
    first = bound.argmax(axis=1)
    total = np.where(live, bound[rows, first], 0.0)
    final = (total > 0.0) & (rival <= total)
    return np.column_stack([first, *hops[:-1]]), total, final


def _level_paths(per: PerMatrix, level: int) -> list:
    """(repeaters, success_prob) of best_path(per, s, level), s = 1..n-1.

    A slave whose top bound head[level][s] is 0 is dead: no chain reaches
    it, and it gets ((), 0.0), as _choose_level reads no chain of
    probability 0 (best_path would return the smallest sequence).  The
    others descend together (_descend) in blocks of at most
    _BATCH_ELEMENTS bound entries, and best_path searches only those whose
    descent is not final.
    """
    w = _pair_weights(per)
    if level == 0:
        return [((), p) for p in w[MASTER, 1:].tolist()]
    head = _bounds(per, level + 1)
    live = np.flatnonzero(head[level])  # head[level][MASTER] is 0
    paths = {}
    block = max(1, _BATCH_ELEMENTS // per.node_count)
    for start in range(0, len(live), block):
        part = live[start:start + block]
        chains, total, final = _descend(w, head, part, level)
        for slave, chain, prob, ok in zip(part.tolist(), chains.tolist(),
                                          total.tolist(), final.tolist()):
            if ok:
                paths[slave] = (tuple(chain), prob)
            else:
                path = best_path(per, slave, level)
                paths[slave] = (path.repeaters, path.success_prob)
    return [paths.get(s, ((), 0.0)) for s in per.slaves]


def cycle_analysis(per: PerMatrix, max_level: int = 4) -> DlcCycleAnalysis:
    """Expected duration of one full polling cycle (sum over all slaves).

    Equals slave_analysis over every slave, but batches each search's
    first descent across the slaves of a level and resumes best_path's
    search only where that descent is not final (_level_paths).  The
    total covers reachable slaves only; unreachable slaves are listed
    separately so a partial total stays inspectable.
    """
    _check_integer("max_level", max_level, InvalidPathError, low=0)
    levels = range(min(max_level, per.node_count - 2) + 1)
    first = [_schedule(level)[0] for level in levels]
    paths = [_level_paths(per, level) for level in levels]
    slaves = tuple(_choose_level(s, options, first)
                   for s, options in zip(per.slaves, zip(*paths)))
    unreachable = tuple(a.slave for a in slaves if not a.reachable)
    total = sum(a.expected_duration for a in slaves if a.reachable)
    return DlcCycleAnalysis(slaves, float(total), unreachable)
