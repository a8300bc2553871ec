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

import numpy as np

from . import dlc, sfn
from .channel import MASTER, PerMatrix

PROTOCOLS = ("dlc1000", "sfn")

_SEED_MASK = (1 << 64) - 1
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
    slot_time: float = 1.0
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
        if self.slot_time <= 0:
            raise ValueError("slot_time must be positive")


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


def format_report(report: SimReport) -> str:
    """Fixed-width text table of a simulation report."""
    header = (f"{'slave':>5}  {'attempts':>8}  {'successes':>9}  "
              f"{'mean_slots':>10}  {'give_ups':>8}")
    lines = [
        f"protocol {report.protocol}, {report.cycles} cycles, "
        f"seed {report.seed_echo}",
        header,
        "-" * len(header),
    ]
    for s in report.per_slave:
        mean = "-" if s.mean_round_trip_slots is None \
            else f"{s.mean_round_trip_slots:.3f}"
        lines.append(f"{s.slave:>5}  {s.attempts:>8}  {s.successes:>9}  "
                     f"{mean:>10}  {s.give_ups:>8}")
    lines.append(f"mean cycle duration {report.mean_cycle_duration:.4f} "
                 f"({report.reached_count} slaves reached), "
                 f"{report.total_slots} slots total")
    return "\n".join(lines)


def _block_rng(seed: int, key: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence([seed & _SEED_MASK, key, block])))


def _blocks(count: int):
    """(block index, rows) pairs that cover count cycles or trials."""
    for block, start in enumerate(range(0, count, _BLOCK)):
        yield block, min(_BLOCK, count - start)


def _log_miss(per: PerMatrix) -> np.ndarray:
    """log P(link i -> j fails), finite everywhere, zero on the diagonal."""
    with np.errstate(divide="ignore"):
        log_miss = np.log(per.per)
    np.maximum(log_miss, _LOG_CERTAIN, out=log_miss)
    np.fill_diagonal(log_miss, 0.0)  # a node is not its own transmitter
    return log_miss


def _flood(log_miss: np.ndarray, origin: int, max_level: int, rows: int,
           rng: np.random.Generator, relays: np.ndarray) -> np.ndarray:
    """rows independent floods; first-reception level per row and node (-1 if none).

    The origin transmits at level 0, and a node in relays that first
    receives at level r retransmits exactly once at level r + 1 while the
    level budget lasts.  A node receives when at least one current
    transmitter gets through; the links are independent, so that has
    probability 1 - prod(1 - ok) = -expm1(sum of log_miss over the
    transmitters), and one uniform per receiver has the same law as one
    uniform per link.  The origin never first-receives its own packet.
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
        fresh &= relays
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
    relays = np.ones(per.node_count, dtype=bool)
    relays[list(no_relay)] = False
    return _flood(_log_miss(per), origin, max_level, 1, rng, relays)[0]


def _check_slaves(per: PerMatrix, analysis) -> None:
    got = tuple(a.slave for a in analysis.slaves)
    if got != tuple(per.slaves):
        raise ValueError(f"analysis covers slaves {got}, the matrix has "
                         f"slaves 1..{per.node_count - 1}")


def _reduce_report(cfg: SimConfig, node_count: int, slots: np.ndarray,
                   tries: np.ndarray, successes: np.ndarray) -> SimReport:
    per_slave = []
    for k, s in enumerate(range(1, node_count)):
        succ = int(successes[k])
        per_slave.append(SlaveStats(
            slave=s,
            attempts=int(tries[k]),
            successes=succ,
            mean_round_trip_slots=float(slots[k]) / succ if succ else None,
            give_ups=cfg.cycles - succ,
            slots=int(slots[k]),
        ))
    reached = successes > 0
    mean_cycle = cfg.slot_time * float(slots[reached].sum()) / cfg.cycles
    return SimReport(
        protocol=cfg.protocol,
        cycles=cfg.cycles,
        per_slave=tuple(per_slave),
        mean_cycle_duration=mean_cycle,
        reached_count=int(reached.sum()),
        total_slots=int(slots.sum()),
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
    level 0) and consume slots.  Without an analysis, one is computed with
    cfg.max_level and cfg.slot_time.
    """
    if cfg.protocol != "dlc1000":
        raise ValueError("config protocol must be 'dlc1000'")
    if analysis is None:
        analysis = dlc.cycle_analysis(per, cfg.max_level, cfg.slot_time)
    _check_slaves(per, analysis)
    n = per.node_count
    cap = cfg.max_retries + 1  # most tries a cycle makes

    tries = np.zeros(n - 1, dtype=np.int64)
    successes = np.zeros(n - 1, dtype=np.int64)
    for k, a in enumerate(analysis.slaves):
        try_ok = dlc.round_trip_success(per, a.repeaters, a.slave)
        if try_ok == 0.0:  # numpy's geometric rejects p = 0
            tries[k] = cfg.cycles * cap
            continue
        for block, rows in _blocks(cfg.cycles):
            g = _block_rng(cfg.seed, a.slave, block).geometric(try_ok, rows)
            tries[k] += np.minimum(g, cap).sum()
            successes[k] += (g <= cap).sum()
    costs = np.array([2 * (a.best_level + 1) for a in analysis.slaves],
                     dtype=np.int64)
    return _reduce_report(cfg, n, costs * tries, tries, successes)


def simulate_sfn(per: PerMatrix, cfg: SimConfig,
                 analysis: sfn.SfnCycleAnalysis | None = None) -> SimReport:
    """Monte-Carlo polling under flooding routing.

    Try j for a slave uses allowed levels (r_dl + j, r_ul + j), the first
    transmission levels coming from the analytic per-slave plan.  The
    destination only answers after the full downlink window to avoid
    collisions, so a try always occupies (1 + r_dl + j) + (1 + r_ul + j)
    slots.  The uplink flood runs only when the downlink reached the slave.
    Slaves the analysis finds unreachable are polled with levels (0, 0)
    and consume slots the same way.  Without an analysis, one is computed
    with cfg.slot_time and the default horizon.
    """
    if cfg.protocol != "sfn":
        raise ValueError("config protocol must be 'sfn'")
    if analysis is None:
        analysis = sfn.cycle_analysis(per, cfg.slot_time)
    _check_slaves(per, analysis)
    n = per.node_count
    log_miss = _log_miss(per)
    relays = ~np.eye(n, dtype=bool)  # relays[v]: every node but v relays

    tries = np.zeros(n - 1, dtype=np.int64)
    slots = np.zeros(n - 1, dtype=np.int64)
    successes = np.zeros(n - 1, dtype=np.int64)
    for k, a in enumerate(analysis.slaves):
        s = a.slave
        for block, active in _blocks(cfg.cycles):
            rng = _block_rng(cfg.seed, s, block)
            for attempt in range(cfg.max_retries + 1):
                rd, ru = a.r_dl + attempt, a.r_ul + attempt
                tries[k] += active
                slots[k] += active * (2 + rd + ru)
                down = _flood(log_miss, MASTER, rd, active, rng, relays[s])
                heard = int((down[:, s] >= 0).sum())
                up = _flood(log_miss, s, ru, heard, rng, relays[MASTER])
                done = int((up[:, MASTER] >= 0).sum())
                successes[k] += done
                active -= done
                if active == 0:
                    break
    return _reduce_report(cfg, n, slots, tries, successes)


def simulate(per: PerMatrix, cfg: SimConfig, analysis=None) -> SimReport:
    """Simulate cfg.protocol, polling with the plan of the given analysis."""
    if cfg.protocol == "dlc1000":
        return simulate_dlc(per, cfg, analysis)
    return simulate_sfn(per, cfg, analysis)


def sample_first_success_levels(per: PerMatrix, target: int, trials: int,
                                seed: int = 0,
                                level_cap: int | None = None) -> np.ndarray:
    """Empirical first-success levels of the escalating downlink chain.

    Each trial floods from the master with allowed level 0, 1, 2, ... until
    the target receives, with independent draws per attempt; this is the
    simulated counterpart of the analytic first-success level
    distribution.  Returns one level per trial (-1 if the cap is hit).
    """
    if level_cap is None:
        level_cap = per.node_count
    log_miss = _log_miss(per)
    relays = np.arange(per.node_count) != target
    levels = np.full(trials, -1, dtype=np.int64)
    for block, rows in _blocks(trials):
        rng = _block_rng(seed, target, block)
        pending = np.arange(block * _BLOCK, block * _BLOCK + rows)
        for r in range(level_cap + 1):
            got = _flood(log_miss, MASTER, r, pending.size, rng,
                         relays)[:, target] >= 0
            levels[pending[got]] = r
            pending = pending[~got]
            if pending.size == 0:
                break
    return levels
