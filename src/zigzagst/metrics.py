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

# Most cost-matrix entries ``wasserstein1`` may build: n1 * n2 doubles
# for n1 and n2 unshared points, 32 MiB at 2048 points a side, whose
# assignment takes about 0.5 s on random costs (one core).  The largest
# benchmark workload, ``wide``, builds 1,010,344 bytes over the 12 calls
# of a seed-0 pass.
MAX_MATCHING_DOUBLES = 2**22


class MatchingSizeError(ValueError):
    """A W1 matching would need an n1 x n2 cost matrix above ``MAX_MATCHING_DOUBLES`` entries."""


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
    y_1..y_n2, one n1 x n2 assignment problem is solved exactly: every
    x_i is assigned a y_j at min(|x_i - y_j|_inf, d(x_i) + d(y_j)) - d(y_j),
    and each y_j left unassigned goes to the diagonal at d(y_j).  A pair
    whose ground cost is at most d(x) + d(y) is reported as ``(x, y)``;
    any other pair goes through the diagonal as ``(x, None)`` and
    ``(None, y)``.  The cost is the ``math.fsum`` of the terms the
    pairing shows, so half-grid costs are exact.

    The reductions are exact.  Routing a pair through the diagonal
    whenever that is cheaper makes the ground cost a metric, and under a
    metric W1 depends only on the difference of the two measures
    (Kantorovich-Rubinstein), so shared mass can stay where it is.  A
    matching that sends k points of the smaller side to the diagonal
    sends at least k of the larger one there too, so pairing them off
    through the diagonal costs the same: no diagonal copies are needed.
    And every y_j costs d(y_j) unless it is assigned, so subtracting
    d(y_j) from its column leaves the rectangle with the same optimal
    assignments as the n2-square problem that sends the spare y_j to the
    diagonal (Crouse, "On implementing 2D rectangular assignment
    algorithms", IEEE TAES 2016, solves the rectangle directly).

    Raises ``MatchingSizeError`` before expanding any point when the
    n1 x n2 cost matrix would exceed ``MAX_MATCHING_DOUBLES`` entries.
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
    if n1 * n2 > MAX_MATCHING_DOUBLES:
        raise MatchingSizeError(
            f"W1 over {n1} and {n2} unshared points needs a {min(n1, n2)} x {max(n1, n2)} "
            f"cost matrix, more than MAX_MATCHING_DOUBLES = {MAX_MATCHING_DOUBLES} entries; "
            "shorter windows (a smaller tau) give fewer bars")
    pairing: list[tuple[Point | None, Point | None]] = [(p, p) for p in shared.elements()]
    r1, r2 = list(rest1.elements()), list(rest2.elements())
    if not (r1 and r2):
        pairing += [(p, None) for p in r1] + [(None, p) for p in r2]
        return MatchingResult(math.fsum((d - b) / 2.0 for b, d in r1 + r2), tuple(pairing))
    swap = n1 > n2
    if swap:
        r1, r2 = r2, r1
    a = np.array(r1, dtype=np.float64)
    b = np.array(r2, dtype=np.float64)
    diag1 = (a[:, 1] - a[:, 0]) / 2.0
    diag2 = (b[:, 1] - b[:, 0]) / 2.0
    cost = np.abs(np.subtract.outer(a[:, 0], b[:, 0]))
    np.maximum(cost, np.abs(np.subtract.outer(a[:, 1], b[:, 1])), out=cost)
    np.minimum(cost, np.add.outer(diag1, diag2), out=cost)
    cost -= diag2
    from scipy.optimize import linear_sum_assignment

    matched = linear_sum_assignment(cost)[1]
    spare = np.ones(len(r2), dtype=bool)
    spare[matched] = False
    ground = np.maximum(np.abs(a[:, 0] - b[matched, 0]), np.abs(a[:, 1] - b[matched, 1]))
    direct = ground <= diag1 + diag2[matched]
    split = ~direct
    terms = [ground[direct], diag1[split], diag2[matched[split]], diag2[spare]]
    pairs: list[tuple[Point | None, Point | None]] = []
    for x, j, keep in zip(r1, matched.tolist(), direct.tolist()):
        pairs += [(x, r2[j])] if keep else [(x, None), (None, r2[j])]
    pairs += [(None, r2[j]) for j in np.flatnonzero(spare).tolist()]
    if swap:
        pairs = [(y, x) for x, y in pairs]
    return MatchingResult(math.fsum(np.concatenate(terms).tolist()), tuple(pairing + pairs))


def linf_distance(z1: ZPIGrid, z2: ZPIGrid) -> float:
    """Max absolute pixel difference of two images on the same grid."""
    if z1.spec != z2.spec:
        raise ValueError(f"grid specs differ: {z1.spec} vs {z2.spec}")
    return float(np.max(np.abs(z1.pixels - z2.pixels)))
