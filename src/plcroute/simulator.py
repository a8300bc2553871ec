"""Seeded slot-accurate Monte-Carlo simulation of both polling protocols.

Every random stream is a PCG64 generator seeded by
SeedSequence(seed, spawn_key=(purpose, key...)), purpose being the index
in _PURPOSES of what the stream is for: a protocol of PROTOCOLS, or
"sampler".  The seed fills a fixed-width entropy pool before the spawn
key, so no two seeds, purposes or keys share a stream, and each purpose
owns its streams.  A DLC1000 slave draws the geometric try counts of all
its cycles in order from one stream keyed on (0, slave).  SFN cycles are
simulated a block of _BLOCK at a time, each (slave, block) group drawing
from its own stream keyed on (1, slave, block), one flood per
still-failing cycle and try; sample_first_success_levels draws its trials
of target the same way from (2, target, block).  The SFN floods of all
slaves run together: each leg of each try is one kernel call (_spread)
over the still-failing cycles of every slave and block, in batches of
bounded size.  A flood draws its uniforms once, before level 0, one per
row and node, so each group still draws from its own stream exactly the
uniforms, in the same order, that it would draw on its own, however long
its floods run.  So reports are bit-identical across repeats, and no
report depends on the batching.
Slot accounting is exact: a DLC1000 try reserves 2*(level+1) slots
whether or not it succeeds, an SFN try reserves the two full flood
windows, 2 + r_dl + r_ul slots, with both levels incremented by one per
retry.  `analyze` is the one dispatch from a protocol to its cycle
analysis, and `compare` sets a simulation against the analysis whose plan
it polled with.
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

_BLOCK = 256  # SFN cycles (or sampler trials) per keyed random stream
# Rows times nodes of one batch of simulated floods: bounds each (rows, n)
# array of the kernel, and so the memory a batch needs.  Also the most
# DLC1000 cycles whose try counts are drawn at once.
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
        for name, low in (("cycles", 1), ("max_retries", 0),
                          ("max_level", 0)):
            _check_integer(name, getattr(self, name), low=low)
        _check_seed(self.seed)


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


def _blocks(count: int):
    """(block index, rows) pairs that cover count SFN cycles or trials."""
    for block, start in enumerate(range(0, count, _BLOCK)):
        yield block, min(_BLOCK, count - start)


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


def _spread(log_miss: np.ndarray, origin, budget, mute, counts, fills,
            level: np.ndarray | None = None) -> np.ndarray:
    """Floods of several groups of rows at once; whether each row's muted
    nodes received.

    Group g holds counts[g] >= 1 consecutive rows, each an independent
    flood from origin[g] with level budget budget[g] in which the nodes
    mute[g] receive but never relay.  The origin transmits at level 0, and
    a node that first receives at level r retransmits exactly once at
    level r + 1 while the budget lasts.  The origin never first-receives
    its own packet.

    A flood draws its uniforms once, before level 0: fills[g] fills the
    group's (counts[g], n) block from the group's own stream, so a group
    draws exactly what a lone flood of its rows draws, however long its
    rows run.  Each node of a row keeps bar = log1p(-u) against miss, the
    sum of log_miss over every transmitter of the flood so far, and first
    receives at the first level where miss < bar.  The links are
    independent, so given the flood so far that reception has probability
    1 - prod(1 - ok) over the level's transmitters, as with one fresh
    uniform per link (the live-edge view of the independent cascade).  A
    row stops after its budget, or after a level with no fresh relay:
    with no transmitter its miss no longer moves, so it receives nothing
    more.  Stopped rows stay, silent, until at most half of the rows still
    run, and are then dropped.  Returns a (rows, len(mute[g])) bool array;
    given a (rows, n) array level, also writes each node's first-reception
    level there.
    """
    counts = np.asarray(counts)
    group = np.repeat(np.arange(counts.size), counts)  # each row's group
    bar = np.empty((group.size, log_miss.shape[0]))
    for fill, end, count in zip(fills, np.cumsum(counts).tolist(),
                                counts.tolist()):
        fill(out=bar[end - count:end])
    np.log1p(np.negative(bar, out=bar), out=bar)
    ids = np.arange(group.size)  # each current row's row of the result
    budget, mute = np.asarray(budget)[group], np.asarray(mute)[group]
    src = np.asarray(origin)[group]
    bar[ids, src] = -np.inf  # no miss sum falls below it
    miss = log_miss[src]  # level 0: the origin transmits alone
    waiting = np.ones(bar.shape, dtype=bool)  # may still first-receive
    got = np.zeros(mute.shape, dtype=bool)
    tx = np.empty_like(bar)  # 1.0 where a node transmits at the next level
    for r in itertools.count():
        fresh = miss < bar
        fresh &= waiting
        if level is not None:
            hit_row, hit_node = np.nonzero(fresh)
            level[ids[hit_row], hit_node] = r
        waiting ^= fresh
        rows = np.arange(ids.size)[:, None]
        fresh[rows, mute] = False  # the fresh relays
        going = fresh.any(axis=1)
        going &= budget > r
        run = np.count_nonzero(going)
        np.copyto(tx, fresh)
        if 2 * run <= going.size:
            # dropping the stopped rows at every stop instead cost 10% on
            # perfbench sim-small's SFN runs (2 vCPUs; BENCH_sim_draws.json)
            got[ids] = ~waiting[rows, mute]  # final for the dropped rows
            if not run:
                return got
            bar, miss, waiting, tx, ids, mute, budget = (
                a[going] for a in (bar, miss, waiting, tx, ids, mute, budget))
        elif run < going.size:
            tx[~going] = 0.0
        miss += tx @ log_miss


def _flood(log_miss: np.ndarray, origin: int, max_level: int, rows: int,
           rng: np.random.Generator, no_relay) -> np.ndarray:
    """rows independent floods; first-reception level per row and node (-1 if none).

    The one-group case of _spread: the floods draw rows * n uniforms from
    rng, and no_relay (the packet's destination, or a list of nodes)
    receives but never retransmits.
    """
    level = np.full((rows, log_miss.shape[0]), -1, dtype=np.int64)
    if rows:
        _spread(log_miss, [origin], [max_level],
                np.array(no_relay, dtype=np.intp).reshape(1, -1), [rows],
                [rng.random], level)
    return level


def flood_trial(per: PerMatrix, origin: int, max_level: int,
                rng: np.random.Generator, no_relay=()) -> np.ndarray:
    """One simulated flood; returns each node's first-reception level (-1 if none).

    The origin transmits in slot 0; a node that first receives at level r
    retransmits exactly once at level r + 1 while the level budget lasts.
    Nodes in no_relay (the packet's destination) receive but never
    retransmit.
    """
    n = per.node_count
    _check_integer("origin", origin, low=0, high=n - 1)
    _check_integer("max_level", max_level, low=0)
    no_relay = list(no_relay)
    for node in no_relay:
        _check_integer("no_relay node", node, low=0, high=n - 1)
    return _flood(_log_miss(per), origin, max_level, 1, rng, no_relay)[0]


def _first_successes(per: PerMatrix, plans, tries: int, count: int,
                     seed: int) -> np.ndarray:
    """First successful try of each of count cycles (or trials), -1 if none.

    plans holds one ((purpose, key), legs) pair per row of the result.
    Try j runs the legs (origin, level, dest) in order, each a flood from
    origin with allowed level level + j in which dest does not relay; a
    leg runs only in the cycles whose earlier legs reached their
    destination, and the try succeeds when the last one does.  A cycle
    stops at its first success or after tries tries.  Each block of a
    plan's cycles draws from _stream(seed, purpose, key, block), in the
    order a block simulated on its own would.  The (plan, block) groups
    run in batches of at most _BATCH_ELEMENTS rows times nodes (at least
    one group), and each leg of each try floods the still-failing cycles
    of every group of a batch in one _spread call.
    """
    log_miss = _log_miss(per)
    legs = np.array([plan_legs for _, plan_legs in plans], dtype=np.intp)
    first = np.full((len(plans), count), -1, dtype=np.int64)
    batch_rows = max(1, _BATCH_ELEMENTS // per.node_count)
    batches, size = [[]], 0  # (plan, block, rows) groups
    for p in range(len(plans)):
        for block, rows in _blocks(count):
            if batches[-1] and size + rows > batch_rows:
                batches.append([])
                size = 0
            batches[-1].append((p, block, rows))
            size += rows
    for batch in filter(None, batches):
        plan = np.array([p for p, _, _ in batch])
        fills = [_stream(seed, *plans[p][0], block).random
                 for p, block, _ in batch]
        pending = np.concatenate([  # cells of first, grouped by group
            np.arange(rows) + (p * count + block * _BLOCK)
            for p, block, rows in batch])
        group = np.repeat(np.arange(len(batch)), [g[2] for g in batch])
        for j in range(tries):
            ok = np.arange(pending.size)  # rows whose legs all arrived
            for leg in range(legs.shape[1]):
                counts = np.bincount(group[ok], minlength=len(batch))
                live = np.flatnonzero(counts)
                origin, level, dest = legs[plan[live], leg].T
                ok = ok[_spread(log_miss, origin, level + j, dest[:, None],
                                counts[live], [fills[g] for g in live])[:, 0]]
                if not ok.size:
                    break
            first.flat[pending[ok]] = j
            failed = np.ones(pending.size, dtype=bool)
            failed[ok] = False
            pending, group = pending[failed], group[failed]
            if not pending.size:
                break
    return first


def analyze(per: PerMatrix, protocol: str, max_level: int = 4):
    """The cycle analysis of protocol, which is also its simulation's plan;
    max_level caps the DLC1000 repeaters, and SFN takes no cap."""
    if protocol == "dlc1000":
        return dlc.cycle_analysis(per, max_level)
    if protocol == "sfn":
        return sfn.cycle_analysis(per)
    raise ValueError(f"unknown protocol {protocol!r}")


def _plan(per: PerMatrix, cfg: SimConfig, protocol: str, analysis):
    """The cycle analysis that a simulation of protocol polls with.

    analyze(per, protocol, cfg.max_level) when none is given.  An analysis
    of the other protocol, or of a matrix with other slaves, is a
    ValueError.
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
    return analysis


def _report(cfg: SimConfig, counts) -> SimReport:
    """The report of counts, one (attempts, successes, slots) per slave."""
    per_slave = []
    for s, (tries, succ, slots) in enumerate(counts, 1):
        succ, slots = int(succ), int(slots)
        per_slave.append(SlaveStats(
            slave=s,
            attempts=int(tries),
            successes=succ,
            mean_round_trip_slots=float(slots) / succ if succ else None,
            give_ups=cfg.cycles - succ,
            slots=slots,
        ))
    reached = [s.slots for s in per_slave if s.successes]
    return SimReport(
        protocol=cfg.protocol,
        cycles=cfg.cycles,
        per_slave=tuple(per_slave),
        mean_cycle_duration=float(sum(reached)) / cfg.cycles,
        reached_count=len(reached),
        total_slots=sum(s.slots for s in per_slave),
        seed_echo=cfg.seed,
    )


def simulate_dlc(per: PerMatrix, cfg: SimConfig,
                 analysis: dlc.DlcCycleAnalysis | None = None) -> SimReport:
    """Monte-Carlo polling under dynamic source routing.

    The master polls each slave over the chain the analysis chose for it
    and retries on the same chain.  A try succeeds exactly when every
    directed link of its round trip does, with probability
    dlc.round_trip_success, so each cycle draws its try count at once: a
    geometric variable G gives min(G, max_retries + 1) tries and a success
    when G <= max_retries + 1.  Unreachable slaves are still polled (at
    level 0) and consume slots.  A slave draws its cycles' G in order from
    its own stream, keyed on ("dlc1000", slave), at most _BATCH_ELEMENTS
    at a time; geometric reads the stream in order, so the report does
    not depend on that chunk size.
    """
    analysis = _plan(per, cfg, "dlc1000", analysis)
    cap = cfg.max_retries + 1  # most tries a cycle makes
    counts = []
    for a in analysis.slaves:
        try_ok = dlc.round_trip_success(per, a.repeaters, a.slave)
        tries = successes = 0
        if try_ok == 0.0:  # numpy's geometric rejects p = 0
            tries = cfg.cycles * cap
        else:
            rng = _stream(cfg.seed, "dlc1000", a.slave)
            for start in range(0, cfg.cycles, _BATCH_ELEMENTS):
                g = rng.geometric(try_ok,
                                  min(_BATCH_ELEMENTS, cfg.cycles - start))
                tries += int(np.minimum(g, cap).sum())
                successes += int((g <= cap).sum())
        counts.append((tries, successes, 2 * (a.best_level + 1) * tries))
    return _report(cfg, counts)


def simulate_sfn(per: PerMatrix, cfg: SimConfig,
                 analysis: sfn.SfnCycleAnalysis | None = None) -> SimReport:
    """Monte-Carlo polling under flooding routing.

    Try j for a slave uses allowed levels (r_dl + j, r_ul + j), the first
    transmission levels coming from the analytic per-slave plan.  The
    destination only answers after the full downlink window to avoid
    collisions, so try j always occupies 2 + r_dl + r_ul + 2j slots, and a
    cycle that makes t tries spends t * (1 + r_dl + r_ul + t).  The uplink
    flood runs only when the downlink reached the slave.  Slaves the
    analysis finds unreachable are polled with levels (0, 0) and consume
    slots the same way.
    """
    analysis = _plan(per, cfg, "sfn", analysis)
    cap = cfg.max_retries + 1  # most tries a cycle makes
    first = _first_successes(
        per, [(("sfn", a.slave),
               ((MASTER, a.r_dl, a.slave), (a.slave, a.r_ul, MASTER)))
              for a in analysis.slaves], cap, cfg.cycles, cfg.seed)
    made = np.where(first >= 0, first + 1, cap)
    window = np.array([[1 + a.r_dl + a.r_ul] for a in analysis.slaves])
    return _report(cfg, zip(made.sum(axis=1),
                            np.count_nonzero(first >= 0, axis=1),
                            (made * (window + made)).sum(axis=1)))


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
    return _first_successes(
        per, [(("sampler", target), ((MASTER, 0, target),))],
        per.node_count + 1, trials, seed)[0]
