"""Expected polling-cycle duration under SFN flooding routing.

A request floods level by level: every node that first receives the
packet retransmits it exactly once in the next slot, and simultaneous
transmissions are treated as independent chances at each receiver.  The
downlink and uplink each get an allowed repeater level chosen around the
mean first-success level; a poll try occupies the two full windows, and
`_schedule` gives its slots.  The expected duration is the paper's
fixed-level formula, the first try's slots over poll_success: it prices
every retry like the first try.  The simulator (`simulator.simulate_sfn`)
retries with both levels incremented by one per failure, up to its retry
cap, each retry two slots longer than the last.

Every flood runs through one kernel, `_flood_levels`, which advances F
floods as one (F, n) recursion; each row stops at its own last level,
exactly where a lone flood stops.  A receiver j misses a level with
probability prod_i (1 - tx_i * ok_ij) over the transmitters i != j.  A
factor with tx_i = 0 or ok_ij = 0 is exactly 1.0, so the kernel leaves
such factors out: on a sparse matrix it multiplies over each receiver's
live in-links (ok > 0), read in ascending transmitter order from a
slot-major table cached per matrix; when some receiver has more than
n / 3 live in-links it multiplies over every node that transmits at the
level, or, for a one-row chunk (every chunk, on a dense matrix of 182
nodes or more), over every node once more than half of them transmit, a
silent node's factor being exactly 1.0.  The dense products are formed
by np.einsum with no summed index, one multiply per element, as a
broadcast forms them.  Level 0 is a closed form for every flood in one
(F, n) pass, (1 - cum) * (1 - (1 - tx_0 * ok[origin, j])): the origin is
its one transmitter and every other factor is 1 - 0 * ok, exactly 1.0.
numpy multiplies along the reduced axis in order, so each product, and
with it every profile and analysis, is bit for bit the dense per-flood
product over all n nodes.

`cycle_analysis` floods the downlink once and every slave's uplinks
together; an uplink yields only the master's cumulative reception, the
kernel's own running sum, level by level.  `_choose` reads two things
from an uplink: the floor and ceil of the master's mean first-success
level, and the master's cumulative reception at those two levels.  So an
uplink flood stops once they are certain (`_settled`): after a level at
which no mass still fails, the master's reception having reached 1.0, or
at which a bound on the levels not yet computed puts the mean strictly
between two integers no later than that level.  The bound holds with a
margin for rounding, and a mean at or near an integer never stops early,
so every analysis is byte-identical to one built from full-horizon
uplinks: the same candidates, read from a prefix that holds them.  Only
an uplink's truncated mass is that of the prefix, not of the full
horizon; no analysis reports it.  Where one level can close the master,
that is where prod_{i != 0} per[i, 0] <= 2^-53 (rand_area_100 and up, but
not the rings or rand_area_20), each level first computes the master's
column alone, `_receptions` on a one-column slot table of its live
in-links; the floods that stop there, or reached level n, skip the full
level, and only the others pay the full level.  Elsewhere the kernel
runs full levels and applies the same stop test after each.  Bounds: the
uplinks run in row blocks that hold either the level temporary or about
eight (rows, n) state arrays within _BATCH_ELEMENTS, whichever admits
more rows, and a full level runs over its rows in chunks whose (rows,
slots) temporary stays within _BATCH_ELEMENTS.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import MASTER, PerMatrix, _check_integer

# Residual probability mass beyond the computed horizon above which a
# mean first-success level is flagged as unreliable.
TRUNCATION_TOLERANCE = 1e-9
# Elements of the (rows, slots, receivers) temporary of one batched flood
# level; bounds the rows per chunk of a level and per block of uplink
# floods, and so the memory a batch needs.
_BATCH_ELEMENTS = 1 << 16
# Allowance per level for the rounding of a mean first-success level's
# sums, when an uplink flood's stop is certified early
_MEAN_MARGIN = 1e-9


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

    Returns (src, ok) as read-only arrays: column j of src lists the
    transmitters i != j with ok[i, j] = 1 - per[i, j] > 0 in ascending
    order, and ok[k, j] is the success probability of link src[k, j] -> j;
    the slots past a receiver's last live link point at dead links, whose
    ok is 0.  In the flood kernel, gathering a slot costs about three
    times multiplying one (rand_area_300: 2.7 s gathered against 0.8 s
    broadcast), so when some receiver has more than n / 3 live in-links,
    src is None and ok is the full (n, n) success matrix with a zero
    diagonal, a node not being its own transmitter.  Computed once per
    matrix: PerMatrix is immutable and hashes by identity.
    """
    ok = 1.0 - per.per
    np.fill_diagonal(ok, 0.0)
    live = ok > 0.0
    depth = max(1, int(live.sum(axis=0).max()))
    if 3 * depth > ok.shape[0]:
        ok.setflags(write=False)
        return None, ok
    src = np.argsort(~live, axis=0, kind="stable")[:depth]
    table = np.take_along_axis(ok, src, axis=0)
    for a in (src, table):
        a.setflags(write=False)
    return src, table


@lru_cache(maxsize=1)
def _closes_in_one_level(per: PerMatrix, node: int) -> bool:
    """Whether a single flood level can make node's reception certain.

    A level misses node with probability prod_i (1 - tx_i * ok_i,node),
    which is at least prod_{i != node} per[i, node], reached when every
    transmitter sends with full mass.  Above 2^-53 that floor keeps one
    level's reception from rounding to 1.0, and the node can close only
    through the rounding of many levels' sums (the rings and rand_area_20
    never close), so a target-first step would cost a column per level
    and save only the full level at which a flood's stop is certified:
    run on every uplink it made ring_100's analysis 7% slower and
    ring_150's 1-3%.  Computed once per matrix, like `_in_links`.
    """
    others = per.per[:, node].copy()
    others[node] = 1.0
    return bool(others.prod() <= 2.0 ** -53)


def _settled(law, level, cumulative, n) -> np.ndarray:
    """Add one level to each row's first-success law; which rows may stop.

    law holds per row the still-failing mass S, the mass A0 = sum pi_r
    and the moment A1 = sum r * pi_r of the levels so far, formed as
    `first_success_distribution` forms them (pi_r = c_r * S, then
    S *= 1 - c_r), and is updated in place with the given level's
    cumulative reception c.  A row may stop when S == 0, since every later
    pi is then exactly 0, or when the floor and ceil of its mean level are
    certain.  c never decreases, receptions being clipped at 0, so every
    level after K = level succeeds with probability at least c_K: the
    later levels carry mass at most S, at a mean level of at most
    m = min(K + 1 / c_K, n), and the mean over all levels lies in
    [A1 / A0, (A1 + S * m) / (A0 + S)].  A row is certified when that
    interval, widened by _MEAN_MARGIN * (K + 1) for the rounding of the
    sums here and in `_distribution`, lies strictly inside some (k, k + 1).
    Then k < A1 / A0 <= K, so both candidate levels, k and k + 1, are
    already computed.  A mean at or near an integer is never certified.
    """
    failing, mass, moment = law.T
    pi = cumulative * failing
    failing *= 1.0 - cumulative
    mass += pi
    moment += level * pi
    margin = _MEAN_MARGIN * (level + 1)
    # a row with no mass yet has c = 0 and a 0 / 0 mean, and is not certified
    with np.errstate(divide="ignore", invalid="ignore"):
        low = moment / mass
        tail = np.minimum(level + 1.0 / cumulative, n)
        high = (moment + failing * tail) / (mass + failing)
        floor = np.floor(low - margin)
        certified = (mass > 0.0) & (low - margin > floor) & (
            high + margin < floor + 1)
    return (failing == 0.0) | certified


def _receptions(src, ok, tx, cum_rcv) -> np.ndarray:
    """First-reception probabilities of one level, one row per flood.

    A reception is (1 - cum_rcv) * (...), so a flood's origin, whose
    cumulative reception starts at 1.0, receives exactly 0.  Rows run in
    chunks whose (rows, slots) temporary stays within _BATCH_ELEMENTS.
    """
    chunk = max(1, _BATCH_ELEMENTS // ok.size)
    if len(tx) > chunk:
        return np.concatenate([
            _receptions(src, ok, tx[part], cum_rcv[part])
            for part in (slice(s, s + chunk)
                         for s in range(0, len(tx), chunk))])
    if src is None:
        live = tx.any(axis=0)
        # einsum with no summed index forms each element by one multiply,
        # as a broadcast product does, at less overhead
        if len(tx) == 1 and 2 * np.count_nonzero(live) > live.size:
            # one row (every chunk once n * n > _BATCH_ELEMENTS / 2):
            # gathering live rows of ok would copy what the product multiplies
            miss = np.einsum("i,ij->ij", tx[0], ok)[None]
        else:
            miss = np.einsum("ri,ij->rij", tx[:, live], ok[live])
    else:
        miss = tx[:, src]
        miss *= ok
    np.subtract(1.0, miss, out=miss)
    rcv = (1.0 - cum_rcv) * (1.0 - miss.prod(axis=1))
    np.maximum(rcv, 0.0, out=rcv)
    return rcv


def _flood_levels(per: PerMatrix, origins, initial_tx, *, until=None):
    """Advance one flood per origin, all at once, level by level.

    initial_tx gives each flood's level-0 transmit mass at its origin,
    and the origin starts with cumulative reception 1.0, so each of its
    receptions, (1 - cumulative) * (...), is exactly 0.  Yields (rows,
    tx, rcv) for r = 0, 1, ...: the indices of the floods still running
    at level r and, one row each, their transmit and first-reception
    probabilities at that level.  A flood stops after level n, the node
    count, or after a level whose receptions leave no node any transmit
    mass, as `flood` describes.  Level 0 is one closed-form pass over all
    rows; each later level's receptions are computed in chunks of rows
    (`_receptions`).

    Given a node `until`, the kernel yields (rows, cumulative) with
    cumulative that node's cumulative reception through the level, and a
    flood also stops after the first level at which the floor and ceil of
    the node's mean first-success level are certain, or no mass still
    fails (`_settled`); the row's values so far are a prefix of the lone
    flood's.  When one level can close the node (`_closes_in_one_level`),
    each level after level 0 first computes the node's column for every
    running row, `_receptions` on a one-column slot table of the node's
    live in-links; the rows that stop there, or reached level n, skip the
    full level.
    """
    src, ok = _in_links(per)
    n = per.node_count
    rows = np.arange(len(origins))
    tx = np.zeros((rows.size, n))
    tx[rows, origins] = initial_tx
    cum_rcv = np.zeros_like(tx)
    cum_rcv[rows, origins] = 1.0
    # transmit mass through level r-1 when building level r+1
    spent_tx = last_tx = np.zeros_like(tx)
    # each row's first-success law of `until`: (still failing, mass, moment)
    law = np.zeros((rows.size, 3))
    law[:, 0] = 1.0
    target_first = until is not None and _closes_in_one_level(per, until)
    if target_first:
        # `until`'s live in-links as a one-column slot table
        links = np.arange(n) if src is None else src[:, until]
        live = ok[:, until] > 0.0
        column = links[live, None], ok[live, until, None]
    # Level 0 in closed form: the origin is a row's one transmitter, and
    # every other factor of a miss product is 1 - 0 * ok, exactly 1.0, so
    # the product is the origin's factor 1 - tx_0 * ok[origin, j] alone
    miss = 1.0 - per.per[origins]
    miss[rows, origins] = 0.0  # a node is not its own transmitter
    miss *= tx[rows, origins, None]
    np.subtract(1.0, miss, out=miss)
    rcv = (1.0 - cum_rcv) * (1.0 - miss)
    np.maximum(rcv, 0.0, out=rcv)
    for r in range(n + 1):
        if r and target_first:
            target_cum = cum_rcv[:, until] + _receptions(
                *column, tx, cum_rcv[:, until, None])[:, 0]
            yield rows, target_cum
            going = ~_settled(law, r, target_cum, n)
            if r == n or not going.any():
                return
            if not going.all():
                rows, tx, cum_rcv, spent_tx, last_tx, law = (
                    a[going] for a in (rows, tx, cum_rcv, spent_tx, last_tx,
                                       law))
        if r:
            rcv = _receptions(src, ok, tx, cum_rcv)
        if until is None:
            yield rows, tx, rcv
        cum_rcv = cum_rcv + rcv
        if until is not None and not (r and target_first):
            yield rows, cum_rcv[:, until]
        if r == n:
            return
        spent_tx = spent_tx + last_tx
        last_tx, tx = tx, np.maximum(1.0 - spent_tx, 0.0) * rcv
        going = tx.any(axis=1)
        if until is not None and not (r and target_first):
            going &= ~_settled(law, r, cum_rcv[:, until], n)
        if not going.any():
            return
        if not going.all():
            rows, tx, cum_rcv, spent_tx, last_tx, law = (
                a[going] for a in (rows, tx, cum_rcv, spent_tx, last_tx, law))


def flood(per: PerMatrix, origin: int,
          initial_tx: float = 1.0) -> FloodProfile:
    """Level-by-level transmit/reception recursion for one flood origin.

    initial_tx is the origin's level-0 transmit mass, the seed of the
    recursion; it does not scale the profile, whose later levels are not
    linear in it.  An uplink flood is seeded with the probability mass
    that the downlink delivered to its origin.  At level
    r >= 1 a node transmits with the first-reception probability of the
    previous level times its still-unspent transmit mass, and a node first
    receives if it has not received before and at least one current
    transmitter gets through to it.  The origin never first-receives its
    own packet.  Computation stops after level n, the node count, or
    earlier, once no node has any probability left to transmit; the
    profile's horizon is the last level computed.

    This is the one-row case of the batched kernel: a batch of floods
    gives each row exactly this profile, stopped at the same level.  The
    miss product runs over live links only and in ascending transmitter
    order; the skipped factors are exactly 1.0, so the result equals the
    dense product over every node bit for bit.
    """
    origin = _check_integer("origin", origin, low=0, high=per.node_count - 1)
    if not (0.0 < initial_tx <= 1.0):
        raise ValueError("initial_tx must be in (0, 1]")
    tx_cols, rcv_cols = [], []
    for _, tx, rcv in _flood_levels(per, [origin], initial_tx):
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

    A prefix of flood(per, o, m).cumulative[MASTER] for each origin o and
    seed m, long enough for `_choose`: a flood stops after the level at
    which the floor and ceil of the master's mean first-success level
    become certain, or no mass still fails (`_settled`), so the prefix
    gives them and holds the entries at both.  The values are the
    kernel's own running sums, written into one (rows, n + 1) array per
    block.  The floods run in row blocks sized so that either the
    kernel's level temporary or its (rows, n) state, about eight arrays,
    stays within _BATCH_ELEMENTS, whichever admits more rows: the kernel
    chunks the level temporary itself, and on a dense matrix many rows of
    a block stop after the master's column alone.
    """
    slots = _in_links(per)[1].size  # per row of the kernel's temporary
    rows_per_block = max(
        1, _BATCH_ELEMENTS // min(slots, 8 * per.node_count))
    got = []
    for start in range(0, len(origins), rows_per_block):
        block = slice(start, start + rows_per_block)
        block_origins = origins[block]
        cumulative = np.zeros((len(block_origins), per.node_count + 1))
        levels = np.zeros(len(block_origins), dtype=np.int64)
        for r, (rows, master_cumulative) in enumerate(_flood_levels(
                per, block_origins, initial_tx[block], until=MASTER)):
            cumulative[rows, r] = master_cumulative
            levels[rows] = r + 1
        got.extend(c[:k] for c, k in zip(cumulative, levels))
    return got


def first_success_distribution(attempt_success) -> tuple[np.ndarray, float]:
    """Distribution of the level at which an escalating chain first succeeds.

    attempt_success[r] is the success probability of the attempt made at
    level r; attempts are independent and the level increments by one per
    failure.  Returns the per-level probabilities and the residual mass of
    never succeeding within the given levels.  The running product of
    failures multiplies in level order, as a loop over the levels would.
    """
    q = np.asarray(attempt_success, dtype=float)
    still_failing = np.empty(q.size + 1)
    still_failing[0] = 1.0
    np.subtract(1.0, q, out=still_failing[1:])
    np.multiply.accumulate(still_failing, out=still_failing)
    return q * still_failing[:-1], float(still_failing[-1])


def _distribution(cumulative: np.ndarray) -> LevelDistribution:
    pi, truncated = first_success_distribution(cumulative)
    head = pi
    if not pi[-1]:
        # Sum over pi cut after its last nonzero entry: numpy and BLAS
        # group the additions by length, so trailing zeros (a flood that
        # ran on after its target's reception became certain) would move
        # the mean's last bit.
        nonzero = np.flatnonzero(pi)
        head = pi[:nonzero[-1] + 1 if nonzero.size else 0]
    mass = head.sum()
    if mass <= 0.0:
        return LevelDistribution(pi, None, 1.0, True)
    mean = float(np.arange(head.size) @ head / mass)
    return LevelDistribution(pi, mean, truncated, False)


def level_distribution(profile: FloodProfile, target: int) -> LevelDistribution:
    """First-success level statistics of retrying a flood toward a target.

    An attempt at level r succeeds with the cumulative reception
    probability at that level.  The mean is taken over the normalized
    distribution; residual mass beyond the horizon is reported and flagged
    when it is large enough to bias the mean.
    """
    _check_integer("target", target,
                   low=0, high=profile.cumulative.shape[0] - 1)
    if target == profile.origin:
        raise ValueError("target must differ from the flood origin")
    return _distribution(profile.cumulative[target])


def _level_candidates(mean: float) -> list[int]:
    lo, hi = math.floor(mean), math.ceil(mean)
    return [lo] if lo == hi else [lo, hi]


def _candidates(cumulative: np.ndarray) -> list[tuple[int, float]]:
    """A leg's candidate levels and its success at each.

    `cumulative` is the target's cumulative reception per level of the
    leg's flood.  Returns (level, cumulative[level]) at the floor and ceil
    of the mean first-success level, one pair when the mean is an
    integer, and [] when no level can succeed.
    """
    dist = _distribution(cumulative)
    if dist.unreachable:
        return []
    return [(r, float(cumulative[r]))
            for r in _level_candidates(dist.mean_level)]


def _schedule(r_dl: int, r_ul: int) -> tuple[int, int]:
    """(first, step) of a poll at levels (r_dl, r_ul): try j costs
    first + step * j slots.  A try occupies both full windows, a slot
    for each of levels 0..r_dl of the request's flood and 0..r_ul of the
    response's, so first is 2 + r_dl + r_ul; each retry raises both
    levels by one, so step is 2."""
    return 2 + r_dl + r_ul, 2


def _choose(slave: int, uplinks) -> SfnSlaveAnalysis:
    """The least expected duration over a slave's evaluated level pairs.

    uplinks holds (r_dl, downlink success, master's cumulative uplink
    reception) per downlink candidate; it is empty when the downlink
    cannot reach the slave.  Each uplink's levels are its _candidates, and
    a pair's expected duration is its first try's slots (_schedule) over
    its poll success.  Ties in duration go to the smaller (r_dl, r_ul)
    pair.
    """
    candidates = []
    best: SfnCandidate | None = None
    for r_dl, dl_success, master_cumulative in uplinks:
        for r_ul, ul_success in _candidates(master_cumulative):
            # The level recursion can accumulate more reception mass at the
            # master than the uplink injected (simultaneous relays are
            # treated as independent chances), so the conditional factor is
            # capped at 1 to stay a probability.
            ul_conditional = min(1.0, ul_success / dl_success)
            poll_success = dl_success * ul_conditional
            if poll_success <= 0.0:
                continue
            duration = _schedule(r_dl, r_ul)[0] / poll_success
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
    """slave_analysis of each slave, with all their uplinks in one batch.

    A slave's downlink levels are the _candidates of its row of the
    shared downlink flood's cumulative reception, and each seeds one
    uplink flood with its success.
    """
    plans = [(s, _candidates(downlink.cumulative[s])) for s in slaves]
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
    and a try costs the two full windows (_schedule).  The
    reported pair minimizes expected duration over the evaluated grid
    (ties toward the smaller pair).
    """
    slave = _check_integer("slave index", slave,
                           low=MASTER + 1, high=per.node_count - 1)
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
