"""Independent oracles and small generators shared across tests.

Everything here deliberately avoids the library's own linear algebra:
components come from union-find, matchings from exhaustive search,
path lengths from Floyd-Warshall.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from zigzagst.dyngraph import Snapshot
from zigzagst.filtration import SimplicialComplex
from zigzagst.zigzag import zigzag_series
from zigzagst.zpi import render_zpi


class TrackedComplex(SimplicialComplex):
    """A complex a ``weakref.WeakSet`` can hold, to count the complexes still alive."""

    __slots__ = ("__weakref__",)


def union_find_components(cx) -> int:
    """Connected components of a complex's 1-skeleton via union-find."""
    parent = {v: v for v in cx.vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (u, v) in cx.edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    return len({find(v) for v in cx.vertices})


def _linf(a, b) -> float:
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


def _diag(p) -> float:
    return (p[1] - p[0]) / 2.0


def brute_force_w1(d1, d2) -> float:
    """Minimum matching cost by exhaustive search over all pairings.

    Every injective partial matching between the two diagrams is tried;
    unmatched points pay their diagonal cost.
    """
    d1, d2 = list(d1), list(d2)
    base = sum(_diag(p) for p in d1) + sum(_diag(p) for p in d2)
    best = base
    n1, n2 = len(d1), len(d2)
    for k in range(1, min(n1, n2) + 1):
        for subset1 in itertools.combinations(range(n1), k):
            for subset2 in itertools.permutations(range(n2), k):
                cost = base
                for i, j in zip(subset1, subset2):
                    cost += _linf(d1[i], d2[j]) - _diag(d1[i]) - _diag(d2[j])
                best = min(best, cost)
    return best


def random_diagram(rng: np.random.Generator, t: int = 12, max_points: int = 10):
    """Random (birth, death) points inside the reachable window triangle."""
    n = int(rng.integers(0, max_points + 1))
    points = []
    for _ in range(n):
        b = float(rng.uniform(1.0, t))
        d = float(rng.uniform(b, t))
        points.append((b, d))
    return points


def rows(points):
    """``(birth, death)`` points as diagram rows ``(birth, death, 1)``, one per point."""
    return [(b, d, 1) for b, d in points]


def persistence_rows(points):
    """``(birth, persistence)`` points as diagram rows ``(birth, birth + persistence, 1)``."""
    return [(b, b + q, 1) for b, q in points]


def expand(rows):
    """Diagram rows ``(birth, death, count)`` as ``(birth, death)`` points, ``count`` times each."""
    return [(b, d) for b, d, m in rows for _ in range(m)]


def perturb_diagram(rng: np.random.Generator, points, t: int = 12):
    """Jitter coordinates and occasionally drop or add a point."""
    out = []
    for b, d in points:
        if rng.random() < 0.15:
            continue
        b2 = float(np.clip(b + rng.uniform(-0.4, 0.4), 1.0, t))
        d2 = float(np.clip(d + rng.uniform(-0.4, 0.4), b2, t))
        out.append((b2, d2))
    if rng.random() < 0.3:
        b = float(rng.uniform(1.0, t))
        out.append((b, float(rng.uniform(b, t))))
    return out


def independent_snapshots(seed: int, n: int, length: int, density: float):
    """Snapshots drawn afresh at every step, as in the ``wide`` benchmark (n=64, density 0.08)."""
    rng = np.random.default_rng(seed)
    pairs = list(itertools.combinations(range(n), 2))
    m = int(round(density * len(pairs)))
    return [
        Snapshot.from_edges(t, n, [(*pairs[i], float(rng.uniform(0.05, 0.45)))
                                   for i in rng.choice(len(pairs), m, replace=False)],
                            nodes=range(n))
        for t in range(1, length + 1)
    ]


def random_dynamic_network(seed: int, n_max: int = 12, t_max: int = 8, edge_prob: float = 0.3):
    """Random snapshot window plus a random scale, for oracle-style tests."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, n_max + 1))
    t = int(rng.integers(1, t_max + 1))
    snaps = []
    for i in range(1, t + 1):
        edges = [
            (u, v, float(rng.uniform(0.05, 1.0)))
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < edge_prob
        ]
        active = {x for u, v, _ in edges for x in (u, v)}
        active |= {u for u in range(n) if rng.random() < 0.2}
        snaps.append(Snapshot.from_edges(i, n, edges, nodes=active))
    return snaps, float(rng.uniform(0.1, 1.0))


def window_image(window, nu_star, mode, grid, weighting, homology_dims=(1,)) -> np.ndarray:
    """ZPD then ZPI for one window; multiple dimensions sum pixelwise."""
    (zpd,) = zigzag_series(window, len(window), nu_star, mode)
    pixels = np.zeros((grid.resolution, grid.resolution))
    for dim in homology_dims:
        pixels += render_zpi(zpd.points(dim), grid, weighting).pixels
    return pixels


def reverse_window(window):
    """Same snapshots in reverse chronological order, reindexed from 1."""
    return [
        Snapshot(i + 1, s.universe_size, s.nodes, dict(s.weights))
        for i, s in enumerate(reversed(window))
    ]


def floyd_warshall(s, length) -> dict:
    """Shortest path lengths between all active nodes of ``s``; edge (u, v) is ``length(w)`` long."""
    dist = {(u, v): 0.0 if u == v else math.inf for u in s.nodes for v in s.nodes}
    for (u, v), w in s.weights.items():
        dist[u, v] = dist[v, u] = length(w)
    for k, i, j in itertools.product(sorted(s.nodes), repeat=3):
        dist[i, j] = min(dist[i, j], dist[i, k] + dist[k, j])
    return dist


def ones_codes(images, index, enc_layers, want_cache=True):
    """A stand-in for ``layers.zpi_encoder`` that gives every layer a code of ones and no cache.

    Patched in, it makes a forward whose every gate is one reach the
    layer loop by the encoder's route rather than by the ablation's.
    """
    width = enc_layers[0].zmap_b.shape
    return [(np.ones(index.shape + width), None) for _ in enc_layers]
