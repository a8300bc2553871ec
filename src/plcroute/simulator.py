"""Seeded slot-accurate Monte-Carlo simulation of both polling protocols.

Every random stream is a PCG64 generator seeded by SeedSequence(seed,
spawn_key=(purpose, key...)), purpose being the index in _PURPOSES of
what the stream is for: a protocol of PROTOCOLS, or "sampler".  The seed
fills a fixed-width entropy pool before the spawn key, so no two seeds,
purposes or keys share a stream, and each purpose owns its streams.
Cycles come in blocks of _BLOCK, and block b of a protocol draws from
its own stream.  A DLC1000 block's stream, keyed on (0, b), gives the
geometric try counts of every slave whose try can succeed, slave by
slave and each slave's cycles in order, in one call per block; draws
from one stream are independent, so the slaves stay independent.  An SFN
block's stream is keyed on (1, b): each try of a cycle that still polls
a slave runs two floods from the master, the downlink on the matrix and
the uplink on its transpose, and they serve every slave of the cycle, so
a cycle's slaves are correlated while each slave's law is that of its
own floods.  sample_first_success_levels draws its trials of target
the same way from (2, target, block), one flood a trial and try.  Each leg
of each try passes over the pending cycles of every block in order, in
row chunks of at most _BATCH_ELEMENTS rows times nodes, one kernel call
(_spread) a chunk; a call floods every row from one origin, the master.
The driver (_first_successes) draws each flood's uniforms from its
block's stream before level 0, one per row and node, and _spread draws
nothing, so each block draws from its own stream exactly the uniforms,
in the same order, that it would draw on its own, however long its
floods run.  So reports are bit-identical across repeats, and no report
depends on where the chunks end.  An SFN slave with no live route to and
from the master is given up in every cycle without a flood or a draw.
Slot accounting is exact.  Each protocol states once what a try costs,
whether or not it succeeds: try j of a poll takes first + step * j
slots, (first, step) being dlc._schedule or sfn._schedule of the slave's
plan.  The simulators count tries only, and _slots alone turns a
cycle's tries into slots; sums that could reach 2**63 are kept in Python
ints, so no retry cap overflows a count.  `analyze` is the one dispatch
from a protocol to its cycle analysis, and `compare` sets a simulation
against the analysis whose plan it polled with.
"""
from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from . import dlc, sfn
from .channel import MASTER, PerMatrix, _check_integer, _check_seed

PROTOCOLS = ("dlc1000", "sfn")
# What a random stream is for; its index leads the stream's spawn key
_PURPOSES = (*PROTOCOLS, "sampler")

_BLOCK = 256  # cycles (or sampler trials) per keyed random stream
# Slaves times cycles of one group of whole blocks that an SFN simulation
# tallies at once: bounds its (slaves, cycles) arrays, so its memory does
# not grow with the cycles.  2**15 made ring_100's 1000-cycle
# retry-until-success run 8% slower by splitting it into four groups.
_TALLY_CELLS = 1 << 20
# Rows times nodes of one kernel call of simulated floods (at least one
# row): bounds each (rows, n) array of the kernel, and so the memory a
# call needs.
_BATCH_ELEMENTS = 1 << 15
# log-miss of a PER-0 link.  The flood's matrix product multiplies the
# zeros of the transmitter mask by every entry, and 0 * -inf is NaN.  A
# node receives when its miss sum falls below log1p(-u) >= log 2**-53,
# about -36.7, so a sum with -1000 in it always gets through.
_LOG_CERTAIN = -1000.0


@dataclass(frozen=True)
class SimConfig:
    protocol: str
    cycles: int
    max_retries: int = 2
    max_level: int = 4  # DLC1000 repeater cap when simulate plans by itself
    seed: int = 0

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        # kept as Python ints, whatever integer type was given
        for name, low in (("cycles", 1), ("max_retries", 0),
                          ("max_level", 0)):
            object.__setattr__(self, name, _check_integer(
                name, getattr(self, name), low=low))
        object.__setattr__(self, "seed", _check_seed(self.seed))


@dataclass(frozen=True)
class SlaveStats:
    slave: int
    attempts: int
    successes: int
    mean_round_trip_slots: float | None  # slots per successful poll
    give_ups: int
    slots: int


@dataclass(frozen=True)
class SimReport:
    protocol: str
    cycles: int
    per_slave: tuple[SlaveStats, ...]
    mean_cycle_duration: float
    reached_count: int
    total_slots: int
    seed_echo: int

    def to_dict(self) -> dict:
        # dataclasses.asdict(report); perfbench/test_perfbench.py calls this
        return asdict(self)


def _stream(seed: int, purpose: str, *key: int) -> np.random.Generator:
    """The PCG64 stream of seed, purpose and key.

    The seed, at most 64 bits, is padded to SeedSequence's four-word pool
    before the spawn key (purpose index, *key) is appended, so distinct
    (seed, purpose, key) triples never share their entropy.  PCG64 is
    named rather than taken from default_rng, so that a change of numpy's
    default generator cannot re-key the streams.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        seed, spawn_key=(_PURPOSES.index(purpose), *key))))


@lru_cache(maxsize=1)
def _log_miss(per: PerMatrix) -> np.ndarray:
    """log P(link i -> j fails), finite everywhere, zero on the diagonal.

    Read-only and computed once per matrix: PerMatrix is immutable and
    hashes by identity.
    """
    with np.errstate(divide="ignore"):
        log_miss = np.log(per.per)
    np.maximum(log_miss, _LOG_CERTAIN, out=log_miss)
    np.fill_diagonal(log_miss, 0.0)  # a node is not its own transmitter
    log_miss.setflags(write=False)
    return log_miss


def _spread(log_miss: np.ndarray, origin: int, budget,
            uniforms: np.ndarray, level: np.ndarray) -> None:
    """Independent floods from origin, one per row; writes each node's
    first-reception level into level, a (rows, n) array.

    Row i floods with level budget budget[i].  The origin transmits at
    level 0, and a node that first receives at level r retransmits exactly
    once at level r + 1 while the budget lasts.

    uniforms is the (rows, n) block of uniforms that the caller drew for
    the floods before level 0; the kernel turns it into bar = log1p(-u) in
    place and draws nothing.  Each node of a row first receives at the
    first level where miss, the sum of log_miss over every transmitter of
    the flood so far, falls below its bar, and its bar then becomes -inf,
    as the origin's is from level 0: no finite miss sum falls below it.
    The links are independent, so given the flood so far that reception
    has probability 1 - prod(1 - ok) over the level's transmitters, as
    with one fresh uniform per link (the live-edge view of the
    independent cascade).  A row stops after its budget, or after a level
    with no fresh relay: with no transmitter its miss no longer moves, so
    it receives nothing more.  Stopped rows stay, silent, until at most
    half of the rows still run, and are then dropped.
    """
    bar = np.log1p(np.negative(uniforms, out=uniforms), out=uniforms)
    bar[:, origin] = -np.inf  # the origin never first-receives
    miss = np.tile(log_miss[origin], (bar.shape[0], 1))  # level 0
    ids = np.arange(bar.shape[0])  # each current row's row of level
    tx = np.empty_like(bar)  # 1.0 where a node transmits at the next level
    for r in itertools.count():
        fresh = miss < bar
        hit_row, hit_node = np.nonzero(fresh)
        level[ids[hit_row], hit_node] = r
        bar[hit_row, hit_node] = -np.inf  # nor does a node twice
        going = fresh.any(axis=1)
        going &= budget > r
        run = np.count_nonzero(going)
        np.copyto(tx, fresh)
        if 2 * run <= going.size:
            # dropping the stopped rows at every stop instead cost 10% on
            # perfbench sim-small's SFN runs (2 vCPUs; BENCH_sim_draws.json)
            if not run:
                return
            bar, miss, tx, ids, budget = (
                a[going] for a in (bar, miss, tx, ids, budget))
        elif run < going.size:
            tx[~going] = 0.0
        miss += tx @ log_miss


def _flood(log_miss: np.ndarray, origin: int, max_level: int, rows: int,
           rng: np.random.Generator) -> np.ndarray:
    """rows independent floods; first-reception level per row and node (-1 if none).

    The floods draw their rows * n uniforms from rng before level 0 and
    hand them to one _spread call from origin.
    """
    n = log_miss.shape[0]
    level = np.full((rows, n), -1, dtype=np.int64)
    _spread(log_miss, origin, np.full(rows, max_level), rng.random((rows, n)),
            level)
    return level


def flood_trial(per: PerMatrix, origin: int, max_level: int,
                rng: np.random.Generator) -> np.ndarray:
    """One simulated flood; returns each node's first-reception level (-1 if none).

    The origin transmits in slot 0; a node that first receives at level r
    retransmits exactly once at level r + 1 while the level budget lasts.
    """
    _check_integer("origin", origin, low=0, high=per.node_count - 1)
    _check_integer("max_level", max_level, low=0)
    return _flood(_log_miss(per), origin, max_level, 1, rng)[0]


def _first_successes(per: PerMatrix, key, plans, tries: int, count: int,
                     seed: int, first_block: int = 0) -> np.ndarray:
    """First successful try of each target in each of count cycles (or
    trials), -1 if none: a (targets, count) array.  The cycles are those of
    the blocks from first_block on.

    plans holds one (target, level per leg) row per target.  Try j of a
    cycle runs its legs in order, each one flood from the master: leg 0
    on _log_miss(per), leg 1 on a copy of its transpose (equal to it
    when per is symmetric).  A target succeeds in try j when every leg's
    flood first reaches it within its level + j; it stops at its first
    success or after tries tries.  A cycle's floods serve all its targets
    at once: they run while any target is pending, each to the largest
    level + j among the targets whose legs so far all arrived.  Leg 1 is
    the uplink by reversal: a flood from the target reaches the master
    within level r exactly when, in the graph of live links reversed, the
    master's flood reaches the target within r (Borgs et al., SODA 2014).
    And a node's first reception does not depend on its own relay, so a
    flood that serves every target reaches each one as its own flood
    would.  The cycles come in blocks of _BLOCK, and block b draws from
    _stream(seed, *key, first_block + b).  Each leg of each try passes
    over the pending cycles in order, in row chunks of at most
    _BATCH_ELEMENTS rows times nodes (at least one row): a chunk draws its
    floods' uniforms before level 0, each block's run of rows from the
    block's stream, and _spread floods them from the master in one call.
    So a block's stream is read in the same order whatever the chunk
    boundaries.
    """
    log_miss, n = _log_miss(per), per.node_count
    targets, *levels = np.asarray(plans, dtype=np.intp).T
    matrices = ((log_miss, np.ascontiguousarray(log_miss.T))
                if len(levels) > 1 else (log_miss,))
    streams = [_stream(seed, *key, first_block + b)
               for b in range(-(-count // _BLOCK))]
    first = np.full((count, targets.size), -1, dtype=np.int64)
    chunk = max(1, _BATCH_ELEMENTS // n)
    for j in range(tries):
        cycles = np.flatnonzero((first < 0).any(axis=1))
        if not cycles.size:
            break
        ok = first[cycles] < 0  # the targets whose legs so far all arrived
        for matrix, reach in zip(matrices, levels):
            budget = np.where(ok, reach + j, -1).max(axis=1)
            for start in range(0, cycles.size, chunk):
                rows = cycles[start:start + chunk]
                blocks, runs = np.unique(rows // _BLOCK, return_counts=True)
                uniforms = np.concatenate([streams[b].random((k, n))
                                           for b, k in zip(blocks, runs)])
                # a node that never receives keeps a level past any reach
                level = np.full((rows.size, n), np.iinfo(np.intp).max)
                _spread(matrix, MASTER, budget[start:start + chunk],
                        uniforms, level)
                ok[start:start + chunk] &= level[:, targets] <= reach + j
        first[cycles] = np.where(ok, j, first[cycles])
    return first.T


def analyze(per: PerMatrix, protocol: str, max_level: int = 4):
    """The cycle analysis of protocol, which is also its simulation's plan;
    max_level caps the DLC1000 repeaters, and SFN takes no cap."""
    if protocol == "dlc1000":
        return dlc.cycle_analysis(per, max_level)
    if protocol == "sfn":
        return sfn.cycle_analysis(per)
    raise ValueError(f"unknown protocol {protocol!r}")


def _plan(per: PerMatrix, cfg: SimConfig, protocol: str, analysis):
    """The cycle analysis that a simulation of protocol polls with, and its
    poll schedule: each slave's (first, step), from the protocol's
    _schedule.

    analyze(per, protocol, cfg.max_level) when none is given.  An analysis
    of the other protocol, or of a matrix with other slaves, is a
    ValueError, and so is a slave's plan that no analysis gives: a DLC1000
    best_level other than the length of its repeater chain, or SFN levels
    outside 0..node_count, the analysis's flood cap.
    """
    if cfg.protocol != protocol:
        raise ValueError(f"config protocol must be {protocol!r}")
    if analysis is None:
        analysis = analyze(per, protocol, cfg.max_level)
    kind = (dlc.DlcCycleAnalysis if protocol == "dlc1000"
            else sfn.SfnCycleAnalysis)
    if not isinstance(analysis, kind):
        raise ValueError(f"a {protocol} simulation cannot poll with a "
                         f"{type(analysis).__name__}")
    got = tuple(a.slave for a in analysis.slaves)
    if got != tuple(per.slaves):
        raise ValueError(f"analysis covers slaves {got}, the matrix has "
                         f"slaves 1..{per.node_count - 1}")
    schedule = []
    for a in analysis.slaves:
        if protocol == "dlc1000":
            _check_level(a, "best_level", len(a.repeaters), len(a.repeaters))
            schedule.append(dlc._schedule(a.best_level))
        else:
            _check_level(a, "r_dl", 0, per.node_count)
            _check_level(a, "r_ul", 0, per.node_count)
            schedule.append(sfn._schedule(a.r_dl, a.r_ul))
    return analysis, schedule


def _check_level(a, name: str, low: int, high: int) -> None:
    """_check_integer of slave analysis a's field name, named after its
    slave; the name is formatted only for a value that fails."""
    value = getattr(a, name)
    if type(value) is not int or not low <= value <= high:
        _check_integer(f"slave {a.slave} {name}", value, low=low, high=high)


def _slots(first, step, tries, squares):
    """Slots of a poll that makes tries tries, try j taking first + step * j
    slots: tries * first + step * tries * (tries - 1) / 2, squares being
    tries * tries.

    That is linear in the tries and their square, so given the sums of
    several cycles' tries and of their squares it is the sum of their
    slots.  Exact in Python ints, and in int64 arrays while twice the
    result fits, the halving's operand being even.
    """
    return tries * first + step * (squares - tries) // 2


def _report(cfg: SimConfig, schedule, live, made) -> SimReport:
    """The report of made, the try counts of the slaves at indices live:
    one (live slaves, cycles) array per block or group of cycles, holding
    the try at which each cycle first succeeds.  A cycle gives up, after
    cap = max_retries + 1 tries, where that try is 0 or above cap, and
    the other slaves give up every cycle.

    Each slave's successes, tries and squared tries are summed in int64
    while no sum can reach 2**63, cycles times the largest square so far,
    and in Python ints from then on.  _slots prices them, give-ups
    included, with the slave's (first, step) of _plan's schedule in
    Python ints, so every count is exact whatever the retry cap.
    """
    cap = cfg.max_retries + 1
    tally = np.zeros((3, live.size), np.int64)  # successes, tries, squares
    for tries in made:
        tries[tries > cap] = 0
        if cfg.cycles * int(tries.max(initial=0)) ** 2 >= 2**63:
            tally = tally.astype(object)  # Python ints from here on
        tries = tries.astype(tally.dtype, copy=False)
        tally += (np.count_nonzero(tries, axis=1), tries.sum(axis=1),
                  (tries * tries).sum(axis=1))
    counts = np.zeros((3, len(schedule)), tally.dtype)
    counts[:, live] = tally
    per_slave = []
    for s, ((first, step), succ, tries, squares) in enumerate(
            zip(schedule, *counts.tolist()), 1):
        give_ups = cfg.cycles - succ
        tries += give_ups * cap
        slots = _slots(first, step, tries, squares + give_ups * cap * cap)
        per_slave.append(SlaveStats(
            slave=s, attempts=tries, successes=succ,
            mean_round_trip_slots=float(slots) / succ if succ else None,
            give_ups=give_ups, slots=slots))
    reached = [s.slots for s in per_slave if s.successes]
    return SimReport(
        protocol=cfg.protocol, cycles=cfg.cycles, per_slave=tuple(per_slave),
        mean_cycle_duration=float(sum(reached)) / cfg.cycles,
        reached_count=len(reached),
        total_slots=sum(s.slots for s in per_slave), seed_echo=cfg.seed)


def simulate_dlc(per: PerMatrix, cfg: SimConfig,
                 analysis: dlc.DlcCycleAnalysis | None = None) -> SimReport:
    """Monte-Carlo polling under dynamic source routing.

    The master polls each slave over the chain the analysis chose for it
    and retries on the same chain, each try at its cost (dlc._schedule).
    A try succeeds exactly when every directed link of its round trip
    does, with probability dlc.round_trip_success, so each cycle draws its
    try count at once: a geometric variable G gives min(G, max_retries +
    1) tries and a success when G <= max_retries + 1, as _report counts
    it.  Unreachable slaves are still polled (at level 0) and consume
    slots.  Cycles come in blocks of _BLOCK, and block b draws the G of
    every slave whose try can succeed from one stream keyed on (0, b) in
    one call, slave by slave and each slave's cycles in order.  A block's
    draws take at most _BLOCK * (n - 1) int64 values, less than the n * n
    PER matrix once n >= _BLOCK - 1.
    """
    analysis, schedule = _plan(per, cfg, "dlc1000", analysis)
    p = dlc._round_trips(per, [a.slave for a in analysis.slaves],
                         [a.repeaters for a in analysis.slaves])
    live = np.flatnonzero(p > 0.0)  # numpy's geometric rejects p = 0
    made = (_stream(cfg.seed, "dlc1000", block).geometric(
        p[live, None], (live.size, min(_BLOCK, cfg.cycles - start)))
        for block, start in enumerate(range(0, cfg.cycles, _BLOCK)))
    return _report(cfg, schedule, live, made)


def _reached(links: np.ndarray) -> np.ndarray:
    """Whether a chain of links (links[i, j]: i to j) leads from the master
    to each node, the master included."""
    seen = frontier = np.arange(links.shape[0]) == MASTER
    while frontier.any():
        frontier = links[frontier].any(axis=0) & ~seen
        seen = seen | frontier
    return seen


def simulate_sfn(per: PerMatrix, cfg: SimConfig,
                 analysis: sfn.SfnCycleAnalysis | None = None) -> SimReport:
    """Monte-Carlo polling under flooding routing.

    Try j for a slave uses allowed levels (r_dl + j, r_ul + j), the first
    transmission levels coming from the analytic per-slave plan.  The
    destination only answers after the full downlink window to avoid
    collisions, so a try occupies both full windows, and each retry two
    slots more than the last (sfn._schedule).  Each try of a cycle runs
    one downlink flood from the master and one uplink flood, from the
    master on the transposed matrix, for all the slaves it still polls
    (see _first_successes).  Slaves the analysis finds unreachable are
    polled with levels (0, 0) and consume slots the same way.  A slave
    with no live route, a chain of PER < 1 links from the master to it and
    one back, can never be polled: it is given up in every cycle without a
    flood or a draw, and still spends the slots of cap tries per cycle.
    Cycles are tallied per slave in groups of whole blocks, at most
    _TALLY_CELLS slaves times cycles a group (and at least one block), so
    memory does not grow with cfg.cycles; block b keeps its stream
    whatever group it falls in, so the report does not depend on the
    grouping.
    """
    analysis, schedule = _plan(per, cfg, "sfn", analysis)
    links = _log_miss(per) < 0  # links[i, j]: i can deliver to j
    live = _reached(links) & _reached(links.T)  # a live route both ways
    plans = np.array([(a.slave, a.r_dl, a.r_ul) for a in analysis.slaves
                      if live[a.slave]], dtype=np.intp).reshape(-1, 3)
    group = _BLOCK * max(1, _TALLY_CELLS // (_BLOCK * len(schedule)))
    # a cycle's first success, or 0 after max_retries + 1 tries
    made = (1 + _first_successes(per, ("sfn",), plans, cfg.max_retries + 1,
                                 min(group, cfg.cycles - start), cfg.seed,
                                 start // _BLOCK)
            for start in range(0, cfg.cycles, group))
    return _report(cfg, schedule, np.flatnonzero(live[per.slaves]), made)


def simulate(per: PerMatrix, cfg: SimConfig, analysis=None) -> SimReport:
    """Simulate cfg.protocol, polling with the plan of the given analysis."""
    if cfg.protocol == "dlc1000":
        return simulate_dlc(per, cfg, analysis)
    return simulate_sfn(per, cfg, analysis)


@dataclass(frozen=True)
class Comparison:
    """A simulation set against the analysis whose plan it polled with.

    relative_difference is (analytic - simulated) / simulated, negative
    when the simulation runs longer, and None when its mean is 0.
    """

    simulation: SimReport
    analytic_total: float  # over the analysis's reachable slaves
    analytic_unreachable: tuple[int, ...]
    relative_difference: float | None


def compare(per: PerMatrix, cfg: SimConfig, analysis) -> Comparison:
    """Simulate cfg.protocol with analysis's plan; set it against analysis."""
    report = simulate(per, cfg, analysis)
    sim = report.mean_cycle_duration
    rel = None if sim == 0 else (analysis.total - sim) / sim
    return Comparison(report, analysis.total, analysis.unreachable, rel)


def sample_first_success_levels(per: PerMatrix, target: int, trials: int,
                                seed: int = 0) -> np.ndarray:
    """Empirical first-success levels of the escalating downlink chain.

    Each trial floods from the master with allowed level 0, 1, 2, ... until
    the target receives, with independent draws per attempt; this is the
    simulated counterpart of the analytic first-success level
    distribution.  Returns one level per trial, -1 if the target is not
    reached by level node_count, the analysis's flood cap.
    """
    _check_integer("target", target, low=MASTER + 1, high=per.node_count - 1)
    _check_integer("trials", trials, low=0)
    _check_seed(seed)
    return _first_successes(per, ("sampler", target), [(target, 0)],
                            per.node_count + 1, trials, seed)[0]
