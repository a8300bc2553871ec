"""Expected polling-cycle duration under SFN flooding routing.

A request floods level by level: every node that first receives the
packet retransmits it exactly once in the next slot, and simultaneous
transmissions are treated as independent chances at each receiver.  The
downlink and uplink each get an allowed repeater level chosen around the
mean first-success level; a poll try occupies the two full windows
(2 + r_dl + r_ul slots) and is retried with both levels incremented by
one until it succeeds.

Every flood runs through one kernel, `_flood_levels`, which advances F
floods as one (F, n) recursion; each row stops at its own last level,
exactly where a lone flood stops.  A receiver j misses a level with
probability prod_i (1 - tx_i * ok_ij) over the transmitters i != j.  A
factor with tx_i = 0 or ok_ij = 0 is exactly 1.0, so the kernel leaves
such factors out: on a sparse matrix it multiplies over each receiver's
live in-links (ok > 0), read in ascending transmitter order from a
slot-major table cached per matrix; when some receiver has more than
n / 3 live in-links it multiplies over every node that transmits at the
level.  numpy multiplies along the reduced axis in order, so each
product, and with it every profile and analysis, is bit for bit the
dense per-flood product over all n nodes.  `cycle_analysis` floods the
downlink once and every slave's uplinks together, in row blocks of
bounded size, keeping only what reaches the master.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import MASTER, PerMatrix

# Residual probability mass beyond the computed horizon above which a
# mean first-success level is flagged as unreliable.
TRUNCATION_TOLERANCE = 1e-9
# Elements of the (rows, slots, receivers) temporary of one batched flood
# level; bounds the rows per batch, and so the memory a batch needs.
_BATCH_ELEMENTS = 1 << 16


@dataclass(frozen=True, eq=False)
class FloodProfile:
    """Per-level transmit and first-reception probabilities of one flood.

    Arrays are indexed [node, level] with levels 0..horizon; level r
    receptions happen in slot r + 1 of the window.  cumulative[s, r] is the
    probability that node s has received the packet within level r.
    """

    origin: int
    initial_tx: float
    tx: np.ndarray
    rcv: np.ndarray
    cumulative: np.ndarray
    horizon: int


@dataclass(frozen=True, eq=False)
class LevelDistribution:
    """First-success repeater level of the escalating retry chain."""

    pi: np.ndarray
    mean_level: float | None  # None when no level can succeed
    truncated_mass: float
    unreachable: bool

    @property
    def truncation_flagged(self) -> bool:
        return self.truncated_mass >= TRUNCATION_TOLERANCE


@dataclass(frozen=True)
class SfnCandidate:
    r_dl: int
    r_ul: int
    poll_success: float
    expected_duration: float


@dataclass(frozen=True)
class SfnSlaveAnalysis:
    slave: int
    r_dl: int
    r_ul: int
    poll_success: float
    expected_duration: float | None
    candidates: tuple[SfnCandidate, ...]

    @property
    def reachable(self) -> bool:
        return self.expected_duration is not None


@dataclass(frozen=True)
class SfnCycleAnalysis:
    slaves: tuple[SfnSlaveAnalysis, ...]
    total: float  # sum over reachable slaves only
    unreachable: tuple[int, ...]

    @property
    def complete(self) -> bool:
        return not self.unreachable


@lru_cache(maxsize=1)
def _in_links(per: PerMatrix) -> tuple[np.ndarray | None, np.ndarray]:
    """Each receiver's live in-links as a slot-major (D, n) table.

    Returns (src, ok): column j of src lists the transmitters i != j with
    ok[i, j] = 1 - per[i, j] > 0 in ascending order, and ok holds those
    links' success probabilities; the slots past a receiver's last live
    link point at dead links, whose ok is 0.  Gathering a slot costs about
    three times multiplying one (rand_area_300: 2.7 s gathered against
    0.8 s broadcast), so when a receiver has more than n / 3 live
    in-links, src is None and ok is the full (n, n) success matrix with a
    zero diagonal, a node not being its own transmitter.  Read-only and
    computed once per matrix: PerMatrix is immutable and hashes by
    identity.
    """
    ok = 1.0 - per.per
    np.fill_diagonal(ok, 0.0)
    live = ok > 0.0
    depth = max(1, int(live.sum(axis=0).max()))
    if 3 * depth > per.node_count:
        ok.setflags(write=False)
        return None, ok
    src = np.argsort(~live, axis=0, kind="stable")[:depth]
    table = np.take_along_axis(ok, src, axis=0)
    for a in (src, table):
        a.setflags(write=False)
    return src, table


def _flood_levels(per: PerMatrix, origins, initial_tx, horizon: int):
    """Advance one flood per origin, all at once, level by level.

    initial_tx gives each flood's level-0 transmit mass at its origin.
    Yields (rows, tx, rcv) for r = 0, 1, ...: the indices of the floods
    still running at level r and, one row each, their transmit and
    first-reception probabilities at that level.  A flood stops after
    level horizon or after a level whose receptions leave no node any
    transmit mass, as `flood` describes.
    """
    src, ok = _in_links(per)
    rows = np.arange(len(origins))
    origins = np.asarray(origins)
    tx = np.zeros((rows.size, per.node_count))
    tx[rows, origins] = initial_tx
    cum_rcv = np.zeros_like(tx)
    # transmit mass through level r-1 when building level r+1
    spent_tx = np.zeros_like(tx)
    for r in range(horizon + 1):
        if src is None:
            live = tx.any(axis=0)
            miss = tx[:, :, None] * ok if live.all() else \
                tx[:, live, None] * ok[live]
        else:
            miss = tx[:, src]
            miss *= ok
        np.subtract(1.0, miss, out=miss)
        rcv = (1.0 - cum_rcv) * (1.0 - miss.prod(axis=1))
        rcv[np.arange(rows.size), origins] = 0.0
        np.maximum(rcv, 0.0, out=rcv)
        yield rows, tx, rcv
        if r == horizon:
            return
        cum_rcv = cum_rcv + rcv
        if r >= 1:
            spent_tx = spent_tx + last_tx
        last_tx, tx = tx, np.maximum(1.0 - spent_tx, 0.0) * rcv
        going = tx.any(axis=1)
        if not going.any():
            return
        if not going.all():
            rows, origins, tx, cum_rcv, spent_tx, last_tx = (
                a[going] for a in (rows, origins, tx, cum_rcv, spent_tx,
                                   last_tx))


def flood(per: PerMatrix, origin: int, initial_tx: float = 1.0,
          horizon: int | None = None) -> FloodProfile:
    """Level-by-level transmit/reception recursion for one flood origin.

    initial_tx scales the whole profile; an uplink flood is seeded with the
    probability mass that the downlink delivered to its origin.  At level
    r >= 1 a node transmits with the first-reception probability of the
    previous level times its still-unspent transmit mass, and a node first
    receives if it has not received before and at least one current
    transmitter gets through to it.  The origin never first-receives its
    own packet.  Computation stops after level horizon (by default the
    node count, the cap every analysis uses) or earlier, once no node has
    any probability left to transmit.

    This is the one-row case of the batched kernel: a batch of floods
    gives each row exactly this profile, stopped at the same level.  The
    miss product runs over live links only and in ascending transmitter
    order; the skipped factors are exactly 1.0, so the result equals the
    dense product over every node bit for bit.
    """
    if not (0 <= origin < per.node_count):
        raise ValueError(f"origin {origin} out of range")
    if not (0.0 < initial_tx <= 1.0):
        raise ValueError("initial_tx must be in (0, 1]")
    if horizon is None:
        horizon = per.node_count
    elif horizon < 0:
        raise ValueError("horizon must be >= 0")
    tx_cols, rcv_cols = [], []
    for _, tx, rcv in _flood_levels(per, [origin], initial_tx, horizon):
        tx_cols.append(tx[0])
        rcv_cols.append(rcv[0])
    tx_mat = np.column_stack(tx_cols)
    rcv_mat = np.column_stack(rcv_cols)
    cumulative = np.cumsum(rcv_mat, axis=1)
    for m in (tx_mat, rcv_mat, cumulative):
        m.setflags(write=False)
    return FloodProfile(origin, initial_tx, tx_mat, rcv_mat, cumulative,
                        len(rcv_cols) - 1)


def _master_cumulative(per: PerMatrix, origins,
                       initial_tx) -> list[np.ndarray]:
    """The master's cumulative reception per level of each given flood.

    Equal to flood(per, o, m).cumulative[MASTER] for each origin o and
    seed m; the floods run in row blocks whose kernel temporary stays
    within _BATCH_ELEMENTS.
    """
    slots = _in_links(per)[1].size  # per row of the kernel's temporary
    rows_per_block = max(1, _BATCH_ELEMENTS // slots)
    got = []
    for start in range(0, len(origins), rows_per_block):
        block = slice(start, start + rows_per_block)
        block_origins = origins[block]
        cols = []
        levels = np.zeros(len(block_origins), dtype=np.int64)
        for r, (rows, _, level_rcv) in enumerate(_flood_levels(
                per, block_origins, initial_tx[block], per.node_count)):
            col = np.zeros(len(block_origins))
            col[rows] = level_rcv[:, MASTER]
            cols.append(col)
            levels[rows] = r + 1
        cumulative = np.cumsum(np.column_stack(cols), axis=1)
        got.extend(c[:k] for c, k in zip(cumulative, levels))
    return got


def first_success_distribution(attempt_success) -> tuple[np.ndarray, float]:
    """Distribution of the level at which an escalating chain first succeeds.

    attempt_success[r] is the success probability of the attempt made at
    level r; attempts are independent and the level increments by one per
    failure.  Returns the per-level probabilities and the residual mass of
    never succeeding within the given levels.
    """
    q = np.asarray(attempt_success, dtype=float)
    pi = np.empty_like(q)
    still_failing = 1.0
    for r, qr in enumerate(q):
        pi[r] = qr * still_failing
        still_failing *= 1.0 - qr
    return pi, float(still_failing)


def _distribution(cumulative: np.ndarray) -> LevelDistribution:
    pi, truncated = first_success_distribution(cumulative)
    mass = pi.sum()
    if mass <= 0.0:
        return LevelDistribution(pi, None, 1.0, True)
    mean = float(np.arange(pi.size) @ pi / mass)
    return LevelDistribution(pi, mean, truncated, False)


def level_distribution(profile: FloodProfile, target: int) -> LevelDistribution:
    """First-success level statistics of retrying a flood toward a target.

    An attempt at level r succeeds with the cumulative reception
    probability at that level.  The mean is taken over the normalized
    distribution; residual mass beyond the horizon is reported and flagged
    when it is large enough to bias the mean.
    """
    if target == profile.origin:
        raise ValueError("target must differ from the flood origin")
    if not (0 <= target < profile.cumulative.shape[0]):
        raise ValueError(f"target {target} out of range")
    return _distribution(profile.cumulative[target])


def _level_candidates(mean: float) -> list[int]:
    lo, hi = math.floor(mean), math.ceil(mean)
    return [lo] if lo == hi else [lo, hi]


def _choose(slave: int, uplinks) -> SfnSlaveAnalysis:
    """The least expected duration over a slave's evaluated level pairs.

    uplinks holds (r_dl, downlink success, master's cumulative uplink
    reception) per downlink candidate; it is empty when the downlink
    cannot reach the slave.
    """
    candidates = []
    best: SfnCandidate | None = None
    for r_dl, dl_success, master_cumulative in uplinks:
        ul_dist = _distribution(master_cumulative)
        if ul_dist.unreachable:
            continue
        for r_ul in _level_candidates(ul_dist.mean_level):
            # The level recursion can accumulate more reception mass at the
            # master than the uplink injected (simultaneous relays are
            # treated as independent chances), so the conditional factor is
            # capped at 1 to stay a probability.
            ul_conditional = min(
                1.0, float(master_cumulative[r_ul]) / dl_success)
            poll_success = dl_success * ul_conditional
            if poll_success <= 0.0:
                continue
            duration = (2.0 + r_dl + r_ul) / poll_success
            cand = SfnCandidate(r_dl, r_ul, poll_success, duration)
            candidates.append(cand)
            if best is None or (cand.expected_duration, cand.r_dl, cand.r_ul) < \
                    (best.expected_duration, best.r_dl, best.r_ul):
                best = cand
    if best is None:
        return SfnSlaveAnalysis(slave, 0, 0, 0.0, None, tuple(candidates))
    return SfnSlaveAnalysis(slave, best.r_dl, best.r_ul, best.poll_success,
                            best.expected_duration, tuple(candidates))


def _slave_analyses(per: PerMatrix, slaves,
                    downlink: FloodProfile) -> tuple[SfnSlaveAnalysis, ...]:
    """slave_analysis of each slave, with all their uplinks in one batch."""
    plans = []  # (slave, [(r_dl, downlink success), ...])
    for s in slaves:
        dl_dist = level_distribution(downlink, s)
        r_dls = [] if dl_dist.unreachable else \
            _level_candidates(dl_dist.mean_level)
        plans.append(
            (s, [(r, float(downlink.cumulative[s, r])) for r in r_dls]))
    origins = [s for s, dls in plans for _ in dls]
    seeds = [m for _, dls in plans for _, m in dls]
    master = iter(_master_cumulative(per, origins, seeds))
    return tuple(
        _choose(s, [(r_dl, m, next(master)) for r_dl, m in dls])
        for s, dls in plans)


def slave_analysis(per: PerMatrix, slave: int) -> SfnSlaveAnalysis:
    """Allowed level pair and expected polling duration for one slave.

    Downlink candidates are the floor/ceil of the mean downlink
    first-success level.  For each, an uplink flood seeded with the
    downlink success mass yields uplink candidates the same way.  Poll
    success multiplies the downlink reception probability by the uplink
    reception probability conditioned on the downlink having succeeded,
    and a try costs the two full windows, 2 + r_dl + r_ul slots.  The
    reported pair minimizes expected duration over the evaluated grid
    (ties toward the smaller pair).
    """
    if not (1 <= slave < per.node_count):
        raise ValueError(f"slave index {slave} out of range (master is 0)")
    downlink = flood(per, MASTER)
    return _slave_analyses(per, (slave,), downlink)[0]


def cycle_analysis(per: PerMatrix) -> SfnCycleAnalysis:
    """Expected duration of one full polling cycle (sum over all slaves).

    The downlink flood is computed once and shared across slaves, and all
    slaves' uplink floods run through the kernel together; the result
    equals slave_analysis slave by slave.
    """
    downlink = flood(per, MASTER)
    slaves = _slave_analyses(per, per.slaves, downlink)
    unreachable = tuple(a.slave for a in slaves if not a.reachable)
    total = sum(a.expected_duration for a in slaves if a.reachable)
    return SfnCycleAnalysis(slaves, float(total), unreachable)
