"""Independent reference implementations used to pin expected values.

Everything here is deliberately written as plain loops over the defining
formulas, sharing no code with the package beyond its public data types.
"""
from __future__ import annotations

import math
from itertools import permutations

import numpy as np

from plcroute.channel import PerMatrix
from plcroute.sfn import FloodProfile


def round_trip_product(per: PerMatrix, repeaters, slave: int) -> float:
    """A chain's round-trip success, multiplied hop by hop from the master,
    each hop contributing its forward link's success times its reverse
    link's."""
    p = per.per
    hops = [0, *repeaters, slave]
    prob = 1.0
    for a, b in zip(hops, hops[1:]):
        prob *= (1.0 - p[a][b]) * (1.0 - p[b][a])
    return float(prob)


def brute_force_best_path(per: PerMatrix, slave: int, level: int):
    """Exhaustive maximum over all ordered sequences of distinct repeaters.

    Chains are ranked by round_trip_product.  Ties go to the first
    (lexicographically smallest) sequence.
    """
    candidates = [v for v in range(1, per.node_count) if v != slave]
    best_prob = -1.0
    best_seq = None
    for seq in permutations(candidates, level):
        prob = round_trip_product(per, seq, slave)
        if prob > best_prob:
            best_prob, best_seq = prob, seq
    return best_seq, best_prob


def forward_best_path(per: PerMatrix, slave: int, level: int):
    """Depth-first chain search from the master, best bound first.

    A second search for `dlc.best_path` to equal bit for bit, fast enough
    for 200-node models: it picks r_1 first and bounds each chain by
    per-slave tables built densely on every call, tail[k][v] being the
    best product of k hops from v to the slave over walks that may repeat
    repeaters.  Chains are ranked by the product multiplied from the
    master, ties go to the lexicographically smallest sequence, and the
    smallest valid sequence is returned with probability 0 when no chain
    can succeed.  Returns (repeaters, success_prob).
    """
    p = per.per
    w = (1.0 - p) * (1.0 - p.T)
    np.fill_diagonal(w, 0.0)
    t = w[:, slave].copy()
    t[[0, slave]] = 0.0  # the master and the slave are never repeaters
    tail = [None, t]
    while len(tail) <= level:
        t = (w * tail[-1]).max(axis=1)
        t[[0, slave]] = 0.0
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
        while True:
            r = int(bound.argmax())
            if bound[r] * margin <= best:
                break
            bound[r] = -1.0  # visited
            prefix.append(r)
            visit(r, step[r])
            prefix.pop()

    visit(0, 1.0)
    return best_seq, float(best)


def flood_reference(per: np.ndarray, origin: int, initial_tx: float,
                    horizon: int):
    """Straight-line transcription of the flood level recursion."""
    n = per.shape[0]
    tx = [[0.0] * (horizon + 1) for _ in range(n)]
    rcv = [[0.0] * (horizon + 1) for _ in range(n)]
    tx[origin][0] = initial_tx
    for r in range(horizon + 1):
        if r >= 1:
            for node in range(n):
                spent = sum(tx[node][i] for i in range(r - 1))
                tx[node][r] = (1.0 - spent) * rcv[node][r - 1]
        for node in range(n):
            if node == origin:
                continue
            all_miss = 1.0
            for other in range(n):
                if other == node:
                    continue
                all_miss *= 1.0 - tx[other][r] * (1.0 - per[other][node])
            prior = sum(rcv[node][v] for v in range(r))
            rcv[node][r] = (1.0 - prior) * (1.0 - all_miss)
    return np.array(tx), np.array(rcv)


def per_origin_flood(per: PerMatrix, origin: int, initial_tx: float = 1.0,
                     horizon: int | None = None) -> FloodProfile:
    """Level-by-level transmit/reception recursion for one flood origin.

    The dense one-flood-at-a-time loop that `sfn.flood` used to run; the
    package's batched kernel must reproduce it bit for bit.

    initial_tx is the origin's level-0 transmit mass, the seed of the
    recursion; it does not scale the profile, whose later levels are not
    linear in it.  An uplink flood is seeded with the probability mass
    that the downlink delivered to its origin.  At level
    r >= 1 a node transmits with the first-reception probability of the
    previous level times its still-unspent transmit mass, and a node first
    receives if it has not received before and at least one current
    transmitter gets through to it.  The origin never first-receives its
    own packet.  Computation stops early once no node has any probability
    left to transmit.
    """
    if not (0 <= origin < per.node_count):
        raise ValueError(f"origin {origin} out of range")
    if not (0.0 < initial_tx <= 1.0):
        raise ValueError("initial_tx must be in (0, 1]")
    if horizon is None:
        horizon = per.node_count
    if horizon < 0:
        raise ValueError("horizon must be >= 0")

    n = per.node_count
    ok = 1.0 - per.per

    tx0 = np.zeros(n)
    tx0[origin] = initial_tx
    tx_cols = [tx0]
    rcv_cols = []
    cum_rcv = np.zeros(n)
    spent_tx = np.zeros(n)  # transmit mass through level r-1 when building level r+1
    tx = tx0

    for r in range(horizon + 1):
        miss = 1.0 - tx[:, None] * ok
        np.fill_diagonal(miss, 1.0)  # a node is not its own transmitter
        col = (1.0 - cum_rcv) * (1.0 - miss.prod(axis=0))
        col[origin] = 0.0
        np.maximum(col, 0.0, out=col)
        rcv_cols.append(col)
        cum_rcv = cum_rcv + col
        if r == horizon:
            break
        if r >= 1:
            spent_tx = spent_tx + tx_cols[r - 1]
        tx = np.maximum(1.0 - spent_tx, 0.0) * col
        if not tx.any():
            break
        tx_cols.append(tx)

    levels = len(rcv_cols)
    tx_mat = np.zeros((n, levels))
    for r, colt in enumerate(tx_cols):
        tx_mat[:, r] = colt
    rcv_mat = np.column_stack(rcv_cols)
    for m in (tx_mat, rcv_mat):
        m.setflags(write=False)
    cumulative = np.cumsum(rcv_mat, axis=1)
    cumulative.setflags(write=False)
    return FloodProfile(origin, initial_tx, tx_mat, rcv_mat, cumulative,
                        levels - 1)


def first_success_loop(attempt_success):
    """The level loop that `sfn.first_success_distribution` used to run.

    pi[r] is attempt r's success times the probability that every earlier
    attempt failed; the second value is the probability that all failed.
    """
    q = np.asarray(attempt_success, dtype=float)
    pi = np.empty_like(q)
    still_failing = 1.0
    for r, qr in enumerate(q):
        pi[r] = qr * still_failing
        still_failing *= 1.0 - qr
    return pi, float(still_failing)


def per_link_flood(per: np.ndarray, origin: int, max_level: int,
                   rng: np.random.Generator) -> list[int]:
    """One flood with an independent draw for every link of every level.

    Returns each node's first-reception level, -1 if it never receives.
    """
    n = per.shape[0]
    level = [-1] * n
    transmitters = [origin]
    for r in range(max_level + 1):
        fresh = []
        for node in range(n):
            if node == origin or level[node] >= 0:
                continue
            if any(rng.random() >= per[t][node] for t in transmitters):
                level[node] = r
                fresh.append(node)
        transmitters = fresh
        if not transmitters:
            break
    return level


def geometric_retry_mean(success_prob: float, terms: int = 10_000) -> float:
    """Partial sum of the expected try count sum((n+1) p (1-p)^n)."""
    total = 0.0
    failing = 1.0
    for n in range(terms):
        total += (n + 1) * success_prob * failing
        failing *= 1.0 - success_prob
    return total


def first_success_mean(cumulative) -> float | None:
    """Mean level at which retries first succeed, an attempt at level r
    succeeding with probability cumulative[r]; normalized over the given
    levels, and None when none of them can succeed."""
    failing = 1.0
    mass, moment = [], []
    for r, c in enumerate(cumulative):
        mass.append(c * failing)
        moment.append(r * c * failing)
        failing *= 1.0 - c
    total = math.fsum(mass)
    return math.fsum(moment) / total if total > 0.0 else None


def random_matrix(rng: np.random.Generator, node_count: int) -> PerMatrix:
    """Asymmetric random PER matrix with a zero diagonal."""
    arr = rng.random((node_count, node_count))
    np.fill_diagonal(arr, 0.0)
    return PerMatrix(arr)
