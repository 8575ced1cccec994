"""Distances between persistence diagrams and between rendered images."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .zigzag import check_point_row
from .zpi import ZPIGrid

Point = tuple[float, float]
Row = tuple[float, float, int]  # (birth, death, count)

__all__ = ["MatchingResult", "MatchingSizeError", "MAX_MATCHING_DOUBLES", "wasserstein1",
           "linf_distance"]

# Most cost-matrix entries ``wasserstein1`` may build: max(r1, r2)**2
# doubles for r1 and r2 unshared points, 32 MiB at 2048 points a side,
# whose assignment takes about 0.5 s on random costs (one core).  The
# largest benchmark workload, ``wide``, builds about 1.2 MB over its 12 calls.
MAX_MATCHING_DOUBLES = 2**22


class MatchingSizeError(ValueError):
    """A W1 matching would need more than ``MAX_MATCHING_DOUBLES`` cost entries."""


@dataclass(frozen=True)
class MatchingResult:
    """Optimal pairing; ``None`` on a side means the diagonal."""

    cost: float
    pairing: tuple[tuple[Point | None, Point | None], ...]


def wasserstein1(d1: Sequence[Row], d2: Sequence[Row]) -> MatchingResult:
    """Wasserstein-1 distance with L-infinity ground metric.

    A diagram is ``(birth, death, count)`` rows, as ``ZPD.points`` gives
    them; a row with a time that is not finite, a death before its birth
    or a count that is not a positive integer raises a ``ValueError``
    naming it (``zigzag.check_point_row``).
    Points both diagrams hold (as multisets) are paired with themselves
    at cost 0, and when one side has nothing left the other goes to the
    diagonal at half its persistence, d(p) = (death - birth) / 2.
    Otherwise, with the smaller remainder x_1..x_n1 and the larger
    y_1..y_n2, one n2-square assignment problem is solved exactly: row
    i < n1, column j costs min(|x_i - y_j|_inf, d(x_i) + d(y_j)), and
    each of the n2 - n1 other rows costs d(y_j) in column j.  A pair
    whose ground cost is at most d(x) + d(y) is reported as ``(x, y)``;
    any other pair goes through the diagonal as ``(x, None)`` and
    ``(None, y)``.  The cost is the ``math.fsum`` of the terms the
    pairing shows, so half-grid costs are exact.

    Both reductions are exact.  Routing a pair through the diagonal
    whenever that is cheaper makes the ground cost a metric, and under a
    metric W1 depends only on the difference of the two measures
    (Kantorovich-Rubinstein), so shared mass can stay where it is.  And a
    matching that sends k points of the smaller side to the diagonal
    sends at least k of the larger one there too, so pairing them off
    through the diagonal costs the same: no diagonal copies are needed.

    Raises ``MatchingSizeError`` before expanding any point when the
    n2-square cost matrix would exceed ``MAX_MATCHING_DOUBLES`` entries.
    ``scipy.optimize`` is imported here, on the first call that needs an
    assignment, so that the commands that compute no distance do not pay
    for importing it.
    """
    c1, c2 = Counter(), Counter()
    for counts, rows in ((c1, d1), (c2, d2)):
        for row in rows:
            b, d, m = check_point_row(row)
            counts[b, d] += m
    shared = c1 & c2
    rest1, rest2 = c1 - shared, c2 - shared
    n1, n2 = rest1.total(), rest2.total()
    side = max(n1, n2)
    if n1 and n2 and side**2 > MAX_MATCHING_DOUBLES:
        raise MatchingSizeError(
            f"W1 over {n1} and {n2} unshared points needs a {side}-square cost matrix, "
            f"more than MAX_MATCHING_DOUBLES = {MAX_MATCHING_DOUBLES} entries; "
            "shorter windows (a smaller tau) give fewer bars")
    pairing: list[tuple[Point | None, Point | None]] = [(p, p) for p in shared.elements()]
    r1, r2 = list(rest1.elements()), list(rest2.elements())
    if not (r1 and r2):
        pairing += [(p, None) for p in r1] + [(None, p) for p in r2]
        return MatchingResult(math.fsum((d - b) / 2.0 for b, d in r1 + r2), tuple(pairing))
    swap = n1 > n2
    if swap:
        r1, r2, n1, n2 = r2, r1, n2, n1
    a = np.array(r1, dtype=np.float64)
    b = np.array(r2, dtype=np.float64)
    diag1 = (a[:, 1] - a[:, 0]) / 2.0
    diag2 = (b[:, 1] - b[:, 0]) / 2.0
    cost = np.empty((n2, n2))
    top = cost[:n1]
    np.abs(np.subtract.outer(a[:, 0], b[:, 0]), out=top)
    np.maximum(top, np.abs(np.subtract.outer(a[:, 1], b[:, 1])), out=top)
    np.minimum(top, np.add.outer(diag1, diag2), out=top)
    cost[n1:] = diag2
    from scipy.optimize import linear_sum_assignment

    cols = linear_sum_assignment(cost)[1]
    matched, padded = cols[:n1], cols[n1:]
    ground = np.maximum(np.abs(a[:, 0] - b[matched, 0]), np.abs(a[:, 1] - b[matched, 1]))
    direct = ground <= diag1 + diag2[matched]
    split = ~direct
    terms = [ground[direct], diag1[split], diag2[matched[split]], diag2[padded]]
    pairs: list[tuple[Point | None, Point | None]] = []
    for x, j, keep in zip(r1, matched.tolist(), direct.tolist()):
        pairs += [(x, r2[j])] if keep else [(x, None), (None, r2[j])]
    pairs += [(None, r2[j]) for j in padded.tolist()]
    if swap:
        pairs = [(y, x) for x, y in pairs]
    return MatchingResult(math.fsum(np.concatenate(terms).tolist()), tuple(pairing + pairs))


def linf_distance(z1: ZPIGrid, z2: ZPIGrid) -> float:
    """Max absolute pixel difference of two images on the same grid."""
    if z1.spec != z2.spec:
        raise ValueError(f"grid specs differ: {z1.spec} vs {z2.spec}")
    return float(np.max(np.abs(z1.pixels - z2.pixels)))
