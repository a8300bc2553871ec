"""Seeded slot-accurate Monte-Carlo simulation of both polling protocols.

Every random stream is a PCG64 generator seeded by
SeedSequence(seed, spawn_key=(purpose, key...)), purpose being the index
in _PURPOSES of what the stream is for: a protocol of PROTOCOLS, or
"sampler".  The seed fills a fixed-width entropy pool before the spawn
key, so no two seeds, purposes or keys share a stream, and each purpose
owns its streams.  A DLC1000 slave draws the geometric try counts of all
its cycles in order from one stream keyed on (0, slave).  The SFN cycles
of a slave come in blocks of _BLOCK, and each (slave, block) group draws
from its own stream keyed on (1, slave, block), one flood per
still-failing cycle and try; sample_first_success_levels draws its trials
of target the same way from (2, target, block).  The SFN floods of all
slaves run together: each leg of each try passes over the still-failing
(slave, cycle) cells of every slave and block in order, in row chunks of
at most _BATCH_ELEMENTS rows times nodes, one kernel call (_spread) a
chunk.  The driver (_first_successes) draws each flood's uniforms from
its group's stream before level 0, one per row and node, and _spread
draws nothing, so each group draws from its own stream exactly the
uniforms, in the same order, that it would draw on its own, however long
its floods run.  So reports are bit-identical across repeats, and no
report depends on where the chunks end.  An SFN slave with no live route
to and from the master is given up in every cycle without a flood or a
draw.  Slot accounting is exact: a DLC1000 try reserves 2*(level+1) slots
whether or not it succeeds, an SFN try reserves the two full flood
windows, 2 + r_dl + r_ul slots, with both levels incremented by one per
retry.  Give-ups are counted in Python ints, so no retry cap overflows
a count.  `analyze` is the one dispatch from a protocol to its cycle
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
# Rows times nodes of one kernel call of simulated floods (at least one
# row): bounds each (rows, n) array of the kernel, and so the memory a
# call needs.  Also the most DLC1000 cycles whose try counts are drawn at
# once.
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


def _spread(log_miss: np.ndarray, src, budget, dest, uniforms: np.ndarray,
            level: np.ndarray | None = None) -> np.ndarray:
    """Independent floods, one per row; whether each row's dest received.

    Row i floods from src[i] with level budget budget[i], and dest[i]
    receives but never relays; a flood without a destination passes its
    origin, which never first-receives, so nothing is muted.  The origin
    transmits at level 0, and a node that first receives at level r
    retransmits exactly once at level r + 1 while the budget lasts.

    uniforms is the (rows, n) block of uniforms that the caller drew for
    the floods before level 0; the kernel turns it into bar = log1p(-u) in
    place and draws nothing.  Each node of a row first receives at the
    first level where miss, the sum of log_miss over every transmitter of
    the flood so far, falls below its bar.  The links are independent, so
    given the flood so far that reception has probability
    1 - prod(1 - ok) over the level's transmitters, as with one fresh
    uniform per link (the live-edge view of the independent cascade).  A
    row stops after its budget, or after a level with no fresh relay:
    with no transmitter its miss no longer moves, so it receives nothing
    more.  Stopped rows stay, silent, until at most half of the rows still
    run, and are then dropped.  Given a (rows, n) array level, also writes
    each node's first-reception level there.
    """
    bar = np.log1p(np.negative(uniforms, out=uniforms), out=uniforms)
    ids = np.arange(bar.shape[0])  # each current row's row of the result
    bar[ids, src] = -np.inf  # no miss sum falls below it
    miss = log_miss[src]  # level 0: the origin transmits alone
    waiting = np.ones(bar.shape, dtype=bool)  # may still first-receive
    got = np.zeros(ids.size, dtype=bool)
    tx = np.empty_like(bar)  # 1.0 where a node transmits at the next level
    for r in itertools.count():
        fresh = miss < bar
        fresh &= waiting
        if level is not None:
            hit_row, hit_node = np.nonzero(fresh)
            level[ids[hit_row], hit_node] = r
        waiting ^= fresh
        rows = np.arange(ids.size)
        fresh[rows, dest] = False  # the fresh relays
        going = fresh.any(axis=1)
        going &= budget > r
        run = np.count_nonzero(going)
        np.copyto(tx, fresh)
        if 2 * run <= going.size:
            # dropping the stopped rows at every stop instead cost 10% on
            # perfbench sim-small's SFN runs (2 vCPUs; BENCH_sim_draws.json)
            got[ids] = ~waiting[rows, dest]  # final for the dropped rows
            if not run:
                return got
            bar, miss, waiting, tx, ids, dest, budget = (
                a[going] for a in (bar, miss, waiting, tx, ids, dest, budget))
        elif run < going.size:
            tx[~going] = 0.0
        miss += tx @ log_miss


def _flood(log_miss: np.ndarray, origin: int, max_level: int, rows: int,
           rng: np.random.Generator, dest: int) -> np.ndarray:
    """rows independent floods; first-reception level per row and node (-1 if none).

    The floods draw their rows * n uniforms from rng before level 0 and
    hand them to _spread; dest (the packet's destination, or the origin
    for no destination) receives but never retransmits.
    """
    n = log_miss.shape[0]
    level = np.full((rows, n), -1, dtype=np.int64)
    _spread(log_miss, np.full(rows, origin), np.full(rows, max_level),
            np.full(rows, dest), rng.random((rows, n)), level)
    return level


def flood_trial(per: PerMatrix, origin: int, max_level: int,
                rng: np.random.Generator, dest=None) -> np.ndarray:
    """One simulated flood; returns each node's first-reception level (-1 if none).

    The origin transmits in slot 0; a node that first receives at level r
    retransmits exactly once at level r + 1 while the level budget lasts.
    dest, the packet's destination if given, receives but never
    retransmits.
    """
    n = per.node_count
    _check_integer("origin", origin, low=0, high=n - 1)
    _check_integer("max_level", max_level, low=0)
    if dest is None:
        dest = origin
    _check_integer("dest", dest, low=0, high=n - 1)
    return _flood(_log_miss(per), origin, max_level, 1, rng, dest)[0]


def _first_successes(per: PerMatrix, plans, tries: int, count: int,
                     seed: int) -> np.ndarray:
    """First successful try of each of count cycles (or trials), -1 if none.

    plans holds one ((purpose, key), legs) pair per row of the result.
    Try j runs the legs (origin, level, dest) in order, each a flood from
    origin with allowed level level + j in which dest does not relay; a
    leg runs only in the cycles whose earlier legs reached their
    destination, and the try succeeds when the last one does.  A cycle
    stops at its first success or after tries tries.  This is the one
    place that maps (plan, block) groups to streams: each block of a
    plan's cycles draws from _stream(seed, purpose, key, block), in the
    order a block simulated on its own would.  Each leg of each try
    passes over the still-failing cells of first, across plans and
    blocks, in row chunks of at most _BATCH_ELEMENTS rows times nodes (at
    least one row): a chunk's cells draw their floods' uniforms before
    level 0, each group's run of cells from its own stream, and _spread
    floods them all in one call.  The cells stay in order, so a group's
    stream is read in the same order whatever the chunk boundaries.
    """
    log_miss = _log_miss(per)
    legs = np.array([plan_legs for _, plan_legs in plans], dtype=np.intp)
    blocks = -(-count // _BLOCK)
    streams = [_stream(seed, *key, block)  # group plan * blocks + block
               for key, _ in plans for block in range(blocks)]
    first = np.full((len(plans), count), -1, dtype=np.int64)
    chunk = max(1, _BATCH_ELEMENTS // per.node_count)
    pending = np.arange(first.size)  # the still-failing cells of first
    for j in range(tries):
        if not pending.size:
            break
        ok = pending  # the cells whose legs so far all arrived
        for leg in range(legs.shape[1]):
            arrived = []
            for start in range(0, ok.size, chunk):
                cells = ok[start:start + chunk]
                plan = cells // count
                group = plan * blocks + cells % count // _BLOCK
                runs = (np.flatnonzero(np.diff(group)) + 1).tolist()
                uniforms = np.empty((cells.size, per.node_count))
                for g, lo, hi in zip(group[[0, *runs]].tolist(), [0, *runs],
                                     [*runs, cells.size]):
                    streams[g].random(out=uniforms[lo:hi])
                origin, level, dest = legs[plan, leg].T
                arrived.append(cells[_spread(log_miss, origin, level + j,
                                             dest, uniforms)])
            ok = np.concatenate(arrived)
            if not ok.size:
                break
        first.flat[ok] = j
        pending = pending[first.flat[pending] < 0]
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
    """The report of counts, one (tries, successes, slots, lost) per slave.

    tries and slots are those of the cycles that succeed, and lost is the
    slots of a cycle that gives up after max_retries + 1 tries.  Python
    ints count the give-ups exactly, whatever the retry cap.
    """
    per_slave = []
    for s, (tries, succ, slots, lost) in enumerate(counts, 1):
        succ = int(succ)
        give_ups = cfg.cycles - succ
        slots = int(slots) + give_ups * lost
        per_slave.append(SlaveStats(
            slave=s,
            attempts=int(tries) + give_ups * (cfg.max_retries + 1),
            successes=succ,
            mean_round_trip_slots=float(slots) / succ if succ else None,
            give_ups=give_ups,
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
        if try_ok > 0.0:  # numpy's geometric rejects p = 0
            rng = _stream(cfg.seed, "dlc1000", a.slave)
            for start in range(0, cfg.cycles, _BATCH_ELEMENTS):
                g = rng.geometric(try_ok,
                                  min(_BATCH_ELEMENTS, cfg.cycles - start))
                g = g[g <= cap]  # the tries of the cycles that succeed
                successes += g.size
                # in int64 only where the sum cannot overflow
                tries += (int(g.sum()) if g.size * cap < 2**63
                          else sum(g.tolist()))
        per_try = 2 * (a.best_level + 1)  # slots a try takes
        counts.append((tries, successes, per_try * tries, per_try * cap))
    return _report(cfg, counts)


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
    collisions, so try j always occupies 2 + r_dl + r_ul + 2j slots, and a
    cycle that makes t tries spends t * (1 + r_dl + r_ul + t).  The uplink
    flood runs only when the downlink reached the slave.  Slaves the
    analysis finds unreachable are polled with levels (0, 0) and consume
    slots the same way.  A slave with no live route, a chain of PER < 1
    links from the master to it and one back, can never be polled: it is
    given up in every cycle without a flood or a draw, and still spends
    the slots of cap tries per cycle.
    """
    analysis = _plan(per, cfg, "sfn", analysis)
    cap = cfg.max_retries + 1  # most tries a cycle makes
    links = _log_miss(per) < 0  # links[i, j]: i can deliver to j
    live = _reached(links) & _reached(links.T)  # a live route both ways
    first = np.full((len(analysis.slaves), cfg.cycles), -1, dtype=np.int64)
    first[live[per.slaves]] = _first_successes(
        per, [(("sfn", a.slave),
               ((MASTER, a.r_dl, a.slave), (a.slave, a.r_ul, MASTER)))
              for a in analysis.slaves if live[a.slave]],
        cap, cfg.cycles, cfg.seed)
    made = first + 1  # the tries of a cycle that succeeds, 0 for a give-up
    window = [1 + a.r_dl + a.r_ul for a in analysis.slaves]
    return _report(cfg, zip(
        made.sum(axis=1), np.count_nonzero(made, axis=1),
        (made * (np.array(window)[:, None] + made)).sum(axis=1),
        [cap * (w + cap) for w in window]))


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
