"""Independent reference implementations used to pin expected values.

Everything here is deliberately written as plain loops over the defining
formulas, sharing no code with the package beyond its public data types.
"""
from __future__ import annotations

from itertools import permutations

import numpy as np

from plcroute.channel import PerMatrix


def brute_force_best_path(per: PerMatrix, slave: int, level: int):
    """Exhaustive maximum over all ordered sequences of distinct repeaters.

    A chain's round-trip success is multiplied hop by hop from the master,
    each hop contributing its forward link's success times its reverse
    link's.  Ties go to the first (lexicographically smallest) sequence.
    """
    p = per.per
    candidates = [v for v in range(1, per.node_count) if v != slave]
    best_prob = -1.0
    best_seq = None
    for seq in permutations(candidates, level):
        hops = [0, *seq, slave]
        prob = 1.0
        for a, b in zip(hops, hops[1:]):
            prob *= (1.0 - p[a][b]) * (1.0 - p[b][a])
        if prob > best_prob:
            best_prob, best_seq = prob, seq
    return best_seq, best_prob


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


def per_link_flood(per: np.ndarray, origin: int, max_level: int,
                   rng: np.random.Generator, no_relay=()) -> list[int]:
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
        transmitters = [v for v in fresh if v not in no_relay]
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


def random_matrix(rng: np.random.Generator, node_count: int) -> PerMatrix:
    """Asymmetric random PER matrix with a zero diagonal."""
    arr = rng.random((node_count, node_count))
    np.fill_diagonal(arr, 0.0)
    return PerMatrix(arr)
