"""Seeded slot-accurate Monte-Carlo simulation of both polling protocols.

Cycles are simulated a block of _BLOCK at a time.  Each slave gets one
counter-based Philox stream per block, keyed on (seed, slave, block), and
the cycles of the block advance by whole-array draws from it (one try
count per DLC1000 cycle, one flood per still-failing SFN cycle and try),
so reports are bit-identical across repeats.  Slot accounting is
exact: a DLC1000 try reserves 2*(level+1) slots whether or not it
succeeds, an SFN try reserves the two full flood windows, 2 + r_dl + r_ul
slots, with both levels incremented by one per retry.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from . import dlc, sfn
from .channel import MASTER, PerMatrix, _check_seed

PROTOCOLS = ("dlc1000", "sfn")

_BLOCK = 256  # cycles (or trials) per keyed random stream
# log-miss of a PER-0 link.  The flood's matrix product multiplies the
# zeros of the transmitter mask by every entry, and 0 * -inf is NaN; exp()
# of anything below about -745 is exactly 0, so the link stays certain.
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
        if self.cycles < 1:
            raise ValueError("cycles must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.max_level < 0:
            raise ValueError("max_level must be >= 0")
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


def _block_rng(seed: int, key: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence([seed, key, block])))


def _blocks(count: int):
    """(block index, rows) pairs that cover count cycles or trials."""
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


def _flood(log_miss: np.ndarray, origin: int, max_level: int, rows: int,
           rng: np.random.Generator, no_relay) -> np.ndarray:
    """rows independent floods; first-reception level per row and node (-1 if none).

    The origin transmits at level 0, and a node that first receives at
    level r retransmits exactly once at level r + 1 while the level budget
    lasts, except no_relay (the packet's destination, or a list of nodes),
    which receives but never retransmits.  A node receives when at least
    one current transmitter gets through; the links are independent, so
    that has probability 1 - prod(1 - ok) = -expm1(sum of log_miss over
    the transmitters), and one uniform per receiver has the same law as
    one uniform per link.  The origin never first-receives its own packet.
    """
    n = log_miss.shape[0]
    level = np.full((rows, n), -1, dtype=np.int64)
    waiting = np.ones((rows, n), dtype=bool)  # may still first-receive
    waiting[:, origin] = False
    tx = np.zeros((rows, n))  # 1.0 where a node transmits at this level
    tx[:, origin] = 1.0
    for r in range(max_level + 1):
        hear = -np.expm1(tx @ log_miss)
        fresh = rng.random((rows, n)) < hear
        fresh &= waiting
        level[fresh] = r
        waiting ^= fresh
        fresh[:, no_relay] = False
        if not np.count_nonzero(fresh):
            break
        tx = fresh.astype(np.float64)
    return level


def flood_trial(per: PerMatrix, origin: int, max_level: int,
                rng: np.random.Generator, no_relay=()) -> np.ndarray:
    """One simulated flood; returns each node's first-reception level (-1 if none).

    The origin transmits in slot 0; a node that first receives at level r
    retransmits exactly once at level r + 1 while the level budget lasts.
    Nodes in no_relay (the packet's destination) receive but never
    retransmit.
    """
    if not (0 <= origin < per.node_count):
        raise ValueError(f"origin {origin} out of range 0..{per.node_count - 1}")
    if max_level < 0:
        raise ValueError("max_level must be >= 0")
    return _flood(_log_miss(per), origin, max_level, 1, rng,
                  list(no_relay))[0]


def _first_successes(per: PerMatrix, legs, tries: int, count: int,
                     seed: int, key: int) -> np.ndarray:
    """First successful try of each of count cycles (or trials), -1 if none.

    Try j runs the legs (origin, level, dest) in order, each a flood from
    origin with allowed level level + j in which dest does not relay; a
    leg runs only in the cycles whose earlier legs reached their
    destination, and the try succeeds when the last one does.  A cycle
    stops at its first success or after tries tries.  Each block of
    cycles draws from the stream keyed on (seed, key, block).
    """
    log_miss = _log_miss(per)
    first = np.full(count, -1, dtype=np.int64)
    for block, rows in _blocks(count):
        rng = _block_rng(seed, key, block)
        pending = np.arange(block * _BLOCK, block * _BLOCK + rows)
        for j in range(tries):
            ok = np.ones(pending.size, dtype=bool)
            for origin, level, dest in legs:
                ok[ok] = _flood(log_miss, origin, level + j,
                                np.count_nonzero(ok), rng, dest)[:, dest] >= 0
            first[pending[ok]] = j
            pending = pending[~ok]
            if pending.size == 0:
                break
    return first


def _plan(per: PerMatrix, cfg: SimConfig, protocol: str, analysis):
    """The cycle analysis that a simulation of protocol polls with.

    Computed with cfg.max_level (dlc1000) or sfn.cycle_analysis when none
    is given.  An analysis of the other protocol, or of a matrix with other
    slaves, is a ValueError.
    """
    if cfg.protocol != protocol:
        raise ValueError(f"config protocol must be {protocol!r}")
    dlc_plan = protocol == "dlc1000"
    if analysis is None:
        analysis = (dlc.cycle_analysis(per, cfg.max_level) if dlc_plan
                    else sfn.cycle_analysis(per))
    kind = dlc.DlcCycleAnalysis if dlc_plan else sfn.SfnCycleAnalysis
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
    level 0) and consume slots.
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
            for block, rows in _blocks(cfg.cycles):
                g = _block_rng(cfg.seed, a.slave, block).geometric(try_ok, rows)
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
    counts = []
    for a in analysis.slaves:
        s = a.slave
        first = _first_successes(
            per, ((MASTER, a.r_dl, s), (s, a.r_ul, MASTER)), cap,
            cfg.cycles, cfg.seed, s)
        made = np.where(first >= 0, first + 1, cap)
        counts.append((made.sum(), np.count_nonzero(first >= 0),
                       (made * (1 + a.r_dl + a.r_ul + made)).sum()))
    return _report(cfg, counts)


def simulate(per: PerMatrix, cfg: SimConfig, analysis=None) -> SimReport:
    """Simulate cfg.protocol, polling with the plan of the given analysis."""
    if cfg.protocol == "dlc1000":
        return simulate_dlc(per, cfg, analysis)
    return simulate_sfn(per, cfg, analysis)


def sample_first_success_levels(per: PerMatrix, target: int, trials: int,
                                seed: int = 0) -> np.ndarray:
    """Empirical first-success levels of the escalating downlink chain.

    Each trial floods from the master with allowed level 0, 1, 2, ... until
    the target receives, with independent draws per attempt; this is the
    simulated counterpart of the analytic first-success level
    distribution.  Returns one level per trial, -1 if the target is not
    reached by level node_count, the analysis's flood cap.
    """
    if not (MASTER < target < per.node_count):
        raise ValueError(f"target {target} out of range 1..{per.node_count - 1}")
    _check_seed(seed)
    return _first_successes(per, ((MASTER, 0, target),), per.node_count + 1,
                            trials, seed, target)
