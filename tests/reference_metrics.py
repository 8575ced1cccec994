"""Replaced Wasserstein-1 paths, kept as differential references.

Both solve the textbook augmented problem: each side gets the other
side's diagonal copies, and one ``(n1 + n2)``-square assignment is
solved.  The library now solves a ``max(n1, n2)``-square one with the
diagonal folded into the ground cost, and must reproduce their costs
exactly on half-grid diagrams.

``wasserstein1`` is the dense path: every point of both diagrams enters
the problem, filled entry by entry.  ``wasserstein1_counted`` works on
expanded point lists, counts them back with ``Counter`` and cancels the
shared points first.  Where several matchings are optimal the library
may return another one than either; where the optimum is unique it must
return the same pairing as ``wasserstein1_counted``.  Both are kept
verbatim.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from zigzagst.metrics import MatchingResult

Point = tuple[float, float]


def _ground(a: Point, b: Point) -> float:
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


def _diag_cost(p: Point) -> float:
    return (p[1] - p[0]) / 2.0


def wasserstein1(d1: Sequence[Point], d2: Sequence[Point]) -> MatchingResult:
    """Wasserstein-1 distance with L-infinity ground metric.

    Each diagram is augmented with the other side's diagonal projections
    (a point may only pair with its own projection, whose cost is half
    its persistence); the resulting square assignment problem is solved
    exactly.
    """
    p1 = [(float(b), float(d)) for b, d in d1]
    p2 = [(float(b), float(d)) for b, d in d2]
    n1, n2 = len(p1), len(p2)
    if n1 == 0 and n2 == 0:
        return MatchingResult(0.0, ())
    size = n1 + n2
    cost = np.zeros((size, size), dtype=np.float64)
    for i, a in enumerate(p1):
        for j, b in enumerate(p2):
            cost[i, j] = _ground(a, b)
    finite_total = cost[:n1, :n2].sum() + sum(map(_diag_cost, p1)) + sum(map(_diag_cost, p2))
    big = finite_total + 1.0
    cost[:n1, n2:] = big
    for i, a in enumerate(p1):
        cost[i, n2 + i] = _diag_cost(a)
    cost[n1:, :n2] = big
    for j, b in enumerate(p2):
        cost[n1 + j, j] = _diag_cost(b)
    rows, cols = linear_sum_assignment(cost)
    total = 0.0
    pairing: list[tuple[Point | None, Point | None]] = []
    for r, c in zip(rows, cols):
        if r < n1 and c < n2:
            pairing.append((p1[r], p2[c]))
        elif r < n1:
            pairing.append((p1[r], None))
        elif c < n2:
            pairing.append((None, p2[c]))
        else:
            continue  # diagonal matched to diagonal, free
        total += cost[r, c]
    return MatchingResult(float(total), tuple(pairing))


def wasserstein1_counted(d1: Sequence[Point], d2: Sequence[Point]) -> MatchingResult:
    """Wasserstein-1 distance with L-infinity ground metric.

    Points both diagrams hold (as multisets) are paired with themselves
    at cost 0.  The remainders are augmented with the other side's
    diagonal projections (a point may only pair with its own projection,
    whose cost is half its persistence), and the resulting square
    assignment problem is solved exactly.

    Cancelling shared points is exact: routing a pair through the
    diagonal whenever that is cheaper makes the ground cost the metric
    min(|x - y|_inf, d(x, D) + d(y, D)), and under a metric W1 depends
    only on the difference of the two measures (Kantorovich-Rubinstein),
    so shared mass can stay where it is.
    """
    c1 = Counter((float(b), float(d)) for b, d in d1)
    c2 = Counter((float(b), float(d)) for b, d in d2)
    shared = c1 & c2
    pairing: list[tuple[Point | None, Point | None]] = [(p, p) for p in shared.elements()]
    r1 = list((c1 - shared).elements())
    r2 = list((c2 - shared).elements())
    n1, n2 = len(r1), len(r2)
    if n1 == 0 and n2 == 0:
        return MatchingResult(0.0, tuple(pairing))
    a = np.array(r1, dtype=np.float64).reshape(n1, 2)
    b = np.array(r2, dtype=np.float64).reshape(n2, 2)
    ground = np.abs(a[:, None, :] - b[None, :, :]).max(axis=2)
    diag1 = (a[:, 1] - a[:, 0]) / 2.0
    diag2 = (b[:, 1] - b[:, 0]) / 2.0
    big = ground.sum() + diag1.sum() + diag2.sum() + 1.0
    cost = np.full((n1 + n2, n1 + n2), big)
    cost[:n1, :n2] = ground
    cost[n1:, n2:] = 0.0  # diagonal matched to diagonal, free
    cost[np.arange(n1), n2 + np.arange(n1)] = diag1
    cost[n1 + np.arange(n2), np.arange(n2)] = diag2
    rows, cols = linear_sum_assignment(cost)
    for r, c in zip(rows.tolist(), cols.tolist()):
        if r < n1:
            pairing.append((r1[r], r2[c] if c < n2 else None))
        elif c < n2:
            pairing.append((None, r2[c]))
    return MatchingResult(math.fsum(cost[rows, cols].tolist()), tuple(pairing))


