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

# Most cost-matrix entries ``wasserstein1`` may build, (r1 + r2)**2 doubles
# for r1 and r2 unshared points: 32 MiB at r1 + r2 = 2048, whose assignment
# takes about 0.5 s on random costs (one core).  The largest benchmark
# workload, ``wide``, builds about 4 MB over its 12 calls.
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
    at cost 0.  Only the remainders are expanded into points; they are
    augmented with the other side's diagonal projections (a point may only
    pair with its own projection, whose cost is half its persistence), and
    the resulting square assignment problem is solved exactly.

    Cancelling shared points is exact: routing a pair through the
    diagonal whenever that is cheaper makes the ground cost the metric
    min(|x - y|_inf, d(x, D) + d(y, D)), and under a metric W1 depends
    only on the difference of the two measures (Kantorovich-Rubinstein),
    so shared mass can stay where it is.

    Raises ``MatchingSizeError`` before expanding any point when the
    remainders' cost matrix would exceed ``MAX_MATCHING_DOUBLES`` entries.
    ``scipy.optimize`` is imported here, on the first call, so that the
    commands that compute no distance do not pay for importing it.
    """
    c1, c2 = Counter(), Counter()
    for counts, rows in ((c1, d1), (c2, d2)):
        for row in rows:
            b, d, m = check_point_row(row)
            counts[b, d] += m
    shared = c1 & c2
    rest1, rest2 = c1 - shared, c2 - shared
    n1, n2 = rest1.total(), rest2.total()
    if (n1 + n2) ** 2 > MAX_MATCHING_DOUBLES:
        raise MatchingSizeError(
            f"W1 over {n1} and {n2} unshared points needs a {n1 + n2}-square cost matrix, "
            f"more than MAX_MATCHING_DOUBLES = {MAX_MATCHING_DOUBLES} entries; "
            "shorter windows (a smaller tau) give fewer bars")
    pairing: list[tuple[Point | None, Point | None]] = [(p, p) for p in shared.elements()]
    if n1 == 0 and n2 == 0:
        return MatchingResult(0.0, tuple(pairing))
    r1, r2 = list(rest1.elements()), list(rest2.elements())
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
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(cost)
    for r, c in zip(rows.tolist(), cols.tolist()):
        if r < n1:
            pairing.append((r1[r], r2[c] if c < n2 else None))
        elif c < n2:
            pairing.append((None, r2[c]))
    return MatchingResult(math.fsum(cost[rows, cols].tolist()), tuple(pairing))


def linf_distance(z1: ZPIGrid, z2: ZPIGrid) -> float:
    """Max absolute pixel difference of two images on the same grid."""
    if z1.spec != z2.spec:
        raise ValueError(f"grid specs differ: {z1.spec} vs {z2.spec}")
    return float(np.max(np.abs(z1.pixels - z2.pixels)))
