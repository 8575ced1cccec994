"""Simplicial complexes of dimension at most two from weighted snapshots.

A simplex is a sorted tuple of one to three node ids.  Every complex is
the clique (flag) complex of a graph, held as that graph; homology is
computed over GF(2) by boundary-matrix rank, which keeps Betti numbers
in exact integer arithmetic.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import math
from typing import Iterable, Mapping

from . import gf2, textio
from .dyngraph import Snapshot, _node_id, checked

Simplex = tuple[int, ...]

__all__ = [
    "Simplex",
    "SimplicialComplex",
    "MAX_TRIANGLES",
    "TriangleBudgetError",
    "FiltrationMode",
    "build_complex",
    "betti_numbers",
    "check_dim",
    "write_complex_dump",
    "read_complex_dump",
]


# Most triangles one complex may hold.  A clique complex on N vertices can
# hold N(N-1)(N-2)/6 triangles, and the zigzag engine keeps one boundary
# per triangle and reduces them all.  The densest window the tests time
# (N = 192, density 0.2, tau = 2) holds 53.6k triangles in its union; at
# the budget, the triangles of the complete graph on 182 vertices (988k)
# take about 0.4 s and 78 MiB to build, before any homology.
MAX_TRIANGLES = 1_000_000


class TriangleBudgetError(ValueError):
    """A complex would hold more than ``MAX_TRIANGLES`` triangles."""


class SimplicialComplex:
    """Clique (flag) complex of a graph, truncated at dimension 2 (immutable).

    A flag complex is fixed by its vertices and edges: a triangle belongs
    to it exactly when its three edges do.  So membership, inclusion and
    equality read only the vertex and edge sets, and ``triangles`` (sorted,
    as homology reads them) is the one thing derived from them.  Each
    vertex's higher neighbours are held as an integer bitset over vertex
    ranks, so the apexes of an edge (a, b) are the set bits of
    ``up[a] & up[b]``.  ``TriangleBudgetError`` is raised before any
    triangle is built when there are more than ``MAX_TRIANGLES``: a graph
    with m edges holds at most (2m)^1.5 / 6 triangles (Rivin, 2002), and
    only a graph whose bound exceeds the budget has them counted exactly.
    A vertex is a node id (``dyngraph._node_id``): a float such as 1.5, a
    ``bool`` or a string is refused, never truncated.
    """

    __slots__ = ("vertices", "edges", "triangles", "_vset", "_eset")

    def __init__(self, vertices: Iterable[int], edges: Iterable[tuple[int, int]]):
        vs = frozenset(v if type(v) is int else _node_id(v) for v in vertices)
        verts = tuple(sorted(vs))
        bit = {v: 1 << i for i, v in enumerate(verts)}
        up = dict.fromkeys(verts, 0)  # up[a] has bit[b] for every edge (a, b) with a < b
        for u, v in edges:
            try:
                a, b = (u, v) if u < v else (v, u)
                if a != b:
                    up[a] |= bit[b]
            except (KeyError, TypeError):  # a TypeError: an endpoint that does not compare
                raise ValueError(f"edge {(u, v)} endpoint outside vertex set") from None
        m = sum(x.bit_count() for x in up.values())
        if 8 * m**3 > 36 * MAX_TRIANGLES**2:  # the bound (2m)^1.5 / 6 exceeds the budget
            ranked = list(up.values())  # in vertex order: bit i stands for ranked[i]'s vertex
            count = sum((x & ranked[i]).bit_count() for x in ranked for i in gf2.bits_of(x))
            if count > MAX_TRIANGLES:
                raise TriangleBudgetError(
                    f"the clique complex of {len(verts)} vertices has more than "
                    f"MAX_TRIANGLES = {MAX_TRIANGLES} triangles; "
                    "lower nu_star or the graph's density")
        # Walking a, then b and then c from the low bits up emits the edges (a, b)
        # and the triangles (a, b, c) in sorted order; the apexes c > b of (a, b)
        # are a's neighbours above b that are also b's.
        sorted_edges = []
        triangles = []
        for a in verts:
            above = up[a]
            while above:
                low = above & -above
                b = verts[low.bit_length() - 1]
                sorted_edges.append((a, b))
                above ^= low
                apexes = above & up[b]
                while apexes:
                    low = apexes & -apexes
                    triangles.append((a, b, verts[low.bit_length() - 1]))
                    apexes ^= low
        self.vertices: tuple[int, ...] = verts
        self.edges: tuple[Simplex, ...] = tuple(sorted_edges)
        self.triangles: tuple[Simplex, ...] = tuple(triangles)
        self._vset = vs
        self._eset = frozenset(self.edges)

    def __len__(self) -> int:
        return len(self.vertices) + len(self.edges) + len(self.triangles)

    def __iter__(self):
        """Vertices, then edges, then triangles, each in sorted order."""
        return itertools.chain(((v,) for v in self.vertices), self.edges, self.triangles)

    def __contains__(self, simplex: Simplex) -> bool:
        """Whether the simplex on ``simplex``'s vertices, in any order, is in the complex."""
        s = tuple(simplex)
        if len(s) == 1:
            return s[0] in self._vset
        return 2 <= len(s) <= 3 and all((u, v) in self._eset or (v, u) in self._eset
                                        for u, v in itertools.combinations(s, 2))

    def __eq__(self, other) -> bool:
        return (isinstance(other, SimplicialComplex)
                and self._vset == other._vset and self._eset == other._eset)

    def __hash__(self):
        return hash((self._vset, self._eset))

    def is_subcomplex_of(self, other: "SimplicialComplex") -> bool:
        return self._vset <= other._vset and self._eset <= other._eset

    def difference(self, other: "SimplicialComplex") -> set[Simplex]:
        missing: set[Simplex] = {(v,) for v in self._vset - other._vset}
        missing.update(self._eset - other._eset)
        missing.update(t for t in self.triangles if t not in other)
        return missing


class FiltrationMode(enum.Enum):
    """Scale conventions for turning a snapshot into a complex."""

    WEIGHT_SUBLEVEL_CLIQUE = "weight-sublevel-clique"
    VIETORIS_RIPS = "vietoris-rips"
    WEIGHT_RANK_CLIQUE = "weight-rank-clique"
    POWER = "power"
    WEIGHTED_DEGREE_SUBLEVEL = "weighted-degree-sublevel"


def _dijkstra(source: int, adj: Mapping[int, list[tuple[int, float]]], cutoff: float) -> dict[int, float]:
    dist = {source: 0.0}
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist.get(u, math.inf):
            continue
        for v, w in adj[u]:
            nd = d + w
            if nd <= cutoff and nd < dist.get(v, math.inf):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def build_complex(
    s: Snapshot,
    nu_star: float,
    mode: FiltrationMode = FiltrationMode.WEIGHT_SUBLEVEL_CLIQUE,
) -> SimplicialComplex:
    """Complex of the snapshot at scale ``nu_star`` under ``mode``.

    Each mode picks an edge set and clique-expands it up to triangles, so
    the output is face closed and monotone in ``nu_star``.  Vietoris-Rips
    keeps the pairs of active nodes joined by a path of total weight at
    most ``nu_star``; power mode is Vietoris-Rips with every edge of
    length 1.  The active nodes are the 0-simplices, except in the
    weighted-degree mode, which keeps the nodes of weighted degree at
    most ``nu_star`` and the edges between them.  ``nu_star`` must be
    finite, and nonnegative in the weight-rank and power modes.
    """
    if not math.isfinite(nu_star):
        raise ValueError("nu_star must be finite")
    nodes = sorted(s.nodes)

    if mode is FiltrationMode.WEIGHT_SUBLEVEL_CLIQUE:
        kept = [e for e, w in s.weights.items() if w <= nu_star]
        return SimplicialComplex(nodes, kept)

    if mode is FiltrationMode.VIETORIS_RIPS or mode is FiltrationMode.POWER:
        if mode is FiltrationMode.POWER and nu_star < 0:
            raise ValueError("nu_star must be nonnegative in power mode")
        # Sums of 1.0 are exact, so a path of k unit edges is kept exactly when k <= floor(nu_star).
        unit = mode is FiltrationMode.POWER
        adj: dict[int, list[tuple[int, float]]] = {v: [] for v in nodes}
        for (u, v), w in s.weights.items():
            w = 1.0 if unit else w
            adj[u].append((v, w))
            adj[v].append((u, w))
        kept = [(u, v) for u in nodes for v in _dijkstra(u, adj, nu_star) if v > u]
    elif mode is FiltrationMode.WEIGHT_RANK_CLIQUE:
        if nu_star < 0:
            raise ValueError("nu_star must be nonnegative in weight-rank mode")
        distinct = sorted(set(s.weights.values()), reverse=True)
        scale = {w: (r + 1) / len(distinct) for r, w in enumerate(distinct)}
        kept = [e for e, w in s.weights.items() if scale[w] <= nu_star]
    elif mode is FiltrationMode.WEIGHTED_DEGREE_SUBLEVEL:
        degree = s.weighted_degrees()
        nodes = [v for v in nodes if degree[v] <= nu_star]
        kept = [(u, v) for (u, v) in s.weights if max(degree[u], degree[v]) <= nu_star]
    else:
        raise ValueError(f"unknown filtration mode {mode!r}")
    return SimplicialComplex(nodes, kept)


def check_dim(name: str, p) -> int:
    """A homology dimension ``p`` as a plain int: an integer (``checked``), then 0 or 1.

    The ``ValueError`` reads ``{name} must be an integer, got {p!r}`` or
    ``{name} must be 0 or 1, got {p}``.
    """
    p = checked(name, p)
    if p not in (0, 1):
        raise ValueError(f"{name} must be 0 or 1, got {p}")
    return p


def betti_numbers(c: SimplicialComplex, p: int) -> int:
    """Rank of p-th GF(2) homology: dim ker boundary_p - rank boundary_{p+1}."""
    p = check_dim("p", p)
    vpos = {v: i for i, v in enumerate(c.vertices)}
    epos = {e: i for i, e in enumerate(c.edges)}
    d1 = [(1 << vpos[u]) | (1 << vpos[v]) for (u, v) in c.edges]
    if p == 0:
        return len(c.vertices) - gf2.rank_of_columns(d1)
    d2 = [
        gf2.from_indices((epos[(u, v)], epos[(u, w)], epos[(v, w)]))
        for (u, v, w) in c.triangles
    ]
    cycles = len(c.edges) - gf2.rank_of_columns(d1)
    return cycles - gf2.rank_of_columns(d2)


def write_complex_dump(c: SimplicialComplex, path) -> None:
    """Debug dump: one simplex per line, vertices space-separated."""
    textio.write(path, "".join(" ".join(map(str, s)) + "\n" for s in c))


def read_complex_dump(path) -> SimplicialComplex:
    """Read a dump back, checking that it is the flag complex of its own graph.

    Every simplex must be sorted, with distinct vertices and dimension 0
    to 2, every face of a listed simplex must be listed too, and every
    triangle whose three edges are listed must be listed.
    """
    verts: set[Simplex] = set()
    edges: set[Simplex] = set()
    tris: set[Simplex] = set()
    with textio.lines(path) as lines:
        for _, line in lines:
            if not line:
                continue
            s = tuple(int(x) for x in line.split())
            if len(s) > 3:
                raise ValueError(f"simplex {s} has dimension outside 0..2")
            if any(s[i] >= s[i + 1] for i in range(len(s) - 1)):
                raise ValueError(f"simplex {s} is not sorted with distinct vertices")
            (verts, edges, tris)[len(s) - 1].add(s)
    for (u, v) in edges:
        if (u,) not in verts or (v,) not in verts:
            raise ValueError(f"{path}: edge {(u, v)} is missing a vertex face")
    for (u, v, w) in tris:
        for face in ((u, v), (u, w), (v, w)):
            if face not in edges:
                raise ValueError(f"{path}: triangle {(u, v, w)} is missing face {face}")
    cx = SimplicialComplex((v for (v,) in verts), edges)
    for t in cx.triangles:
        if t not in tris:
            raise ValueError(f"{path}: not a flag complex: triangle {t} is missing")
    return cx
