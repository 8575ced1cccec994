"""Dense-matrix Wasserstein-1, kept as a differential reference.

This is the path ``zigzagst.metrics.wasserstein1`` replaced: every point
of both diagrams enters one ``(n1 + n2)²`` assignment problem, filled
entry by entry.  ``wasserstein1`` is kept verbatim; on half-grid
diagrams the library must reproduce its costs exactly.
"""

from __future__ import annotations

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
