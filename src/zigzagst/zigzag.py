"""Zigzag persistence over alternating snapshot/union complex sequences.

A series of snapshots G_1, G_2, ... yields the complex sequence
C(G_1) -> C(G_1 u G_2) <- C(G_2) -> ...: each snapshot includes into the
union with its successor, so arrows alternate direction.  A window of tau
snapshots is a run of 2*tau - 1 consecutive complexes.

``zigzag_series`` builds each complex, homology basis and arrow map once
per series and computes the interval decomposition of the GF(2)
homology module online, one arrow at a time (Carlsson & de Silva,
"Zigzag persistence", 2010; Maria & Oudot, SODA 2015): one sweep per
homology dimension keeps a basis of the current homology whose classes
each generate one open bar.  Restricting an interval module to a window
only clips its intervals, so every window's diagram is the bars of the
prefix read so far, clipped to the window.  Windows come out in order
as soon as their last snapshot is read.  A complex is dropped once both
its arrows are read, and a bar once no later window can see it, so only
the open bars grow with tau, and nothing with the series length.
``compute_zigzag_persistence`` is the one-window case of the same code;
``build_zigzag`` lists a window's complexes for ``betti_consistency_check``.
Births and deaths land on a half-integer time grid stored exactly as
doubled integers.

Every complex gets its own homology bases, and one formula gives the H1
column of either arrow: the sub complex's forest, weighted by the super
complex's cycle-space bits, gives each vertex a potential, and a
representative edge's cycle projects to its own bit plus its endpoints'
potentials.  The interval decomposition does not depend on the bases
chosen, so neither do the diagrams.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from . import gf2, textio
from .gf2 import echelon_insert
from .dyngraph import Snapshot, checked, is_int, union_graph
from .filtration import (
    FiltrationMode,
    SimplicialComplex,
    betti_numbers,
    build_complex,
    check_dim,
)

__all__ = [
    "ZPD",
    "InclusionError",
    "check_count",
    "check_point_row",
    "zigzag_series",
    "build_zigzag",
    "compute_zigzag_persistence",
    "betti_consistency_check",
    "ConsistencyReport",
    "write_zpd_csv",
    "read_zpd_csv",
]


class InclusionError(ValueError):
    """A complex in the zigzag fails to include into its union."""


Row = tuple[int, int, int, int]  # (dim, twice_birth, twice_death, count)


def _half(twice: int) -> str:
    return str(twice // 2) if twice % 2 == 0 else f"{twice}/2"


def check_count(m) -> int:
    """A diagram row's count as a plain int: an integer of at least 1, and not a ``bool``."""
    if not is_int(m) or m < 1:
        raise ValueError(f"count must be a positive integer, got {m!r}")
    return int(m)


def check_point_row(row) -> tuple[float, float, int]:
    """A ``(birth, death, count)`` row, as ``ZPD.points`` gives them, as two floats and its count.

    Birth and death must be finite, with death >= birth, and the count
    must pass ``check_count``; a ``ValueError`` names the row.
    """
    birth, death, count = row
    b, d = float(birth), float(death)
    if not math.inf > d >= b > -math.inf:
        if math.isfinite(b) and math.isfinite(d):
            raise ValueError(f"diagram row {row!r}: death {d:g} precedes birth {b:g}")
        raise ValueError(f"diagram row {row!r}: birth and death must be finite")
    try:
        check_count(count)
    except ValueError as exc:
        raise ValueError(f"diagram row {row!r}: {exc}") from None
    return b, d, count


def _check_point(dim: int, twice_birth: int, twice_death: int) -> tuple[int, int, int]:
    """One interval of the decomposition, as plain ints: a homology dimension and a grid span.

    All three are integers (``checked``), so the line ``write_zpd_csv``
    gives them reads back as the same point.
    """
    for twice in (twice_birth, twice_death):
        if checked("half-index 2t", twice) < 2:
            raise ValueError(f"half-index 2t = {twice} below the grid start")
    dim, b, d = check_dim("dimension", dim), int(twice_birth), int(twice_death)
    if d < b:
        raise ValueError(f"death {_half(d)} precedes birth {_half(b)}")
    return dim, b, d


@dataclass(frozen=True)
class ZPD:
    """Multiset of (dim, birth, death) points on the half-integer grid.

    Times are stored exactly as doubled integers on the grid {1, 3/2, 2, ...},
    and each distinct point is one row ``(dim, twice_birth, twice_death,
    count)``.  Rows are sorted by point, and rows given for the same point
    are merged into one.
    """

    rows: tuple[Row, ...]

    def __post_init__(self):
        counts: dict[tuple[int, int, int], int] = {}
        for dim, b, d, m in self.rows:
            point = _check_point(dim, b, d)
            counts[point] = counts.get(point, 0) + check_count(m)
        object.__setattr__(self, "rows", _sorted_rows(counts))

    def points(self, dim: int) -> list[tuple[float, float, int]]:
        """``(birth, death, count)`` rows of one homology dimension, in row order."""
        dim = check_dim("dimension", dim)
        return [(b / 2.0, d / 2.0, m) for p, b, d, m in self.rows if p == dim]

    def count_alive(self, dim: int, twice: int) -> int:
        dim = check_dim("dimension", dim)
        return sum(m for p, b, d, m in self.rows if p == dim and b <= twice <= d)

    def __len__(self) -> int:
        return sum(row[3] for row in self.rows)


def _sorted_rows(counts: dict[tuple[int, int, int], int]) -> tuple[Row, ...]:
    return tuple((*k, m) for k, m in sorted(counts.items()))


def _checked_zpd(counts: dict[tuple[int, int, int], int]) -> ZPD:
    """A diagram from points that pass ``_check_point`` and their counts (>= 1), unchecked."""
    zpd = object.__new__(ZPD)
    vars(zpd)["rows"] = _sorted_rows(counts)
    return zpd


def _check_inclusion(sub: SimplicialComplex, sup: SimplicialComplex, name: str) -> None:
    if not sub.is_subcomplex_of(sup):
        missing = sorted(sub.difference(sup), key=lambda s: (len(s), s))[:5]
        raise InclusionError(f"arrow {name} violates inclusion; missing simplices {missing}")


def _series_complexes(
    snapshots: Iterable[Snapshot],
    nu_star: float,
    mode: FiltrationMode,
    unions: bool,
) -> Iterator[SimplicialComplex]:
    """Complexes of the alternating diagram, in order, one snapshot read at a time.

    With ``unions`` each consecutive pair contributes its union complex,
    and both arrows into it are checked once: modes whose complexes are
    not monotone under graph union (possible for rank or degree scales)
    raise InclusionError naming the arrow by the snapshots' own indices.
    """
    prev: Snapshot | None = None
    prev_cx: SimplicialComplex | None = None
    for s in snapshots:
        u = None
        if unions and prev is not None:
            u = build_complex(union_graph(prev, s), nu_star, mode)
        cx = build_complex(s, nu_star, mode)
        if u is not None:
            union = f"C(G_{prev.index} u G_{s.index})"
            _check_inclusion(prev_cx, u, f"C(G_{prev.index}) -> {union}")
            _check_inclusion(cx, u, f"C(G_{s.index}) -> {union}")
            yield u
        yield cx
        prev, prev_cx = s, cx


def build_zigzag(
    window: Sequence[Snapshot],
    nu_star: float,
    mode: FiltrationMode = FiltrationMode.WEIGHT_SUBLEVEL_CLIQUE,
) -> tuple[SimplicialComplex, ...]:
    """The 2T-1 complexes of one window: snapshots at even, unions at odd positions.

    Inclusions are verified on every arrow; see ``_series_complexes``.
    """
    if not window:
        raise ValueError("window must contain at least one snapshot")
    return tuple(_series_complexes(window, nu_star, mode, True))


class _ComplexHom:
    """Homology bases of one complex in cycle-space coordinates.

    A spanning forest grown by union-find over the edges in order splits
    them into tree and non-tree edges.  H0 has one class per component,
    named by its lowest vertex, in vertex order.  A 1-cycle is fixed by
    its non-tree edges, so cycles are bitsets over those, bit k for the
    k-th non-tree edge (|E| - |V| + b0 bits), and ``_bit[u][v]`` is edge
    (u, v)'s projection there (0 on tree edges).  The triangle boundaries,
    projected there, are reduced to an echelon keyed on each vector's
    highest bit, so bit k is a pivot iff some boundary combination has
    highest bit k.  The non-pivot bits, in ascending order, are the H1
    representatives, each standing for its edge's fundamental cycle;
    ``coords`` reads a cycle's homology coordinates over them in one walk
    down its bits.
    """

    __slots__ = ("comp", "reps0", "tree", "reps1", "_bit", "_pivots", "_rank")

    def __init__(self, cx: SimplicialComplex):
        root = {v: v for v in cx.vertices}

        def find(v: int) -> int:
            while root[v] != v:
                root[v] = root[root[v]]
                v = root[v]
            return v

        self.tree: list[tuple[int, int]] = []
        nontree: list[tuple[int, int]] = []
        # keyed by the lower vertex, then the higher: int keys, no tuple per lookup
        bit: dict[int, dict[int, int]] = {v: {} for v in cx.vertices}
        for e in cx.edges:
            u, v = e
            a, b = find(u), find(v)
            if a == b:
                bit[u][v] = 1 << len(nontree)
                nontree.append(e)
            else:
                root[max(a, b)] = min(a, b)  # a component's root is its lowest vertex
                bit[u][v] = 0
                self.tree.append(e)
        self.reps0 = [v for v in cx.vertices if root[v] == v]
        index = {v: i for i, v in enumerate(self.reps0)}
        self.comp = {v: index[find(v)] for v in cx.vertices}

        n = len(nontree)
        pivots: dict[int, int] = {}
        for (u, v, w) in cx.triangles:
            if len(pivots) == n:
                break  # the boundaries span every cycle: b1 = 0
            bu = bit[u]
            echelon_insert(pivots, bu[v] ^ bu[w] ^ bit[v][w])
        free = [k for k in range(n) if k not in pivots]
        self.reps1 = [nontree[k] for k in free]
        self._rank = {k: i for i, k in enumerate(free)}
        self._bit = bit
        self._pivots = pivots

    def betti(self, p: int) -> int:
        return len(self.reps1) if p else len(self.reps0)

    def coords(self, vec: int) -> int:
        """Homology coordinates of a cycle given in cycle-space coordinates.

        Walking down from the highest bit, a pivot bit adds its boundary
        and any other bit is a representative: it is recorded and cleared.
        """
        pivots, rank = self._pivots, self._rank
        out = 0
        while vec:
            top = vec.bit_length() - 1
            hit = pivots.get(top)
            if hit is None:
                out |= 1 << rank[top]
                vec ^= 1 << top
            else:
                vec ^= hit
        return out


def _tree_potentials(
    tree: Sequence[tuple[int, int]], bit: Mapping[int, Mapping[int, int]]
) -> dict[int, int]:
    """Each forest vertex's XOR of ``bit`` over the forest path from its root.

    Over GF(2) the forest path from a to b is the root's path to a plus
    its path to b, so a non-tree edge (a, b) with its forest path
    projects to ``bit[a][b] ^ pot[a] ^ pot[b]``.
    """
    adj: dict[int, list[tuple[int, int]]] = {}
    for u, v in tree:
        b = bit[u][v]
        adj.setdefault(u, []).append((v, b))
        adj.setdefault(v, []).append((u, b))
    pot: dict[int, int] = {}
    for r in adj:
        if r in pot:
            continue
        pot[r] = 0
        stack = [r]
        while stack:
            u = stack.pop()
            for v, b in adj[u]:
                if v not in pot:
                    pot[v] = pot[u] ^ b
                    stack.append(v)
    return pot


def _induced_map(p: int, sub: _ComplexHom, sup: _ComplexHom) -> list[int]:
    """Homology map of the inclusion: one super-coordinate column per sub basis vector.

    An H1 representative of ``sub`` is a non-tree edge with its path in
    ``sub``'s forest; the path's projection into ``sup`` is read off the
    forest's potentials over ``sup``'s bits.
    """
    if p == 0:
        return [1 << sup.comp[v] for v in sub.reps0]
    if not (sub.reps1 and sup.reps1):
        return [0] * len(sub.reps1)
    bit = sup._bit
    pot = _tree_potentials(sub.tree, bit)
    return [sup.coords(bit[a][b] ^ pot[a] ^ pot[b]) for a, b in sub.reps1]


class _Sweep:
    """Interval decomposition of one dimension's module on a prefix of the series.

    ``live`` is a basis of the current homology space, one (vector,
    birth position) class per open bar, and ``closed`` holds the ended
    bars as (birth, death) in order of death.  ``live`` stays sorted by
    an order key: 0 for classes of the first complex, +q for classes born
    at a forward arrow into q and -q for classes born at a backward
    arrow at q.  New classes keep that order by going first (kernel
    classes) or last (forward-born ones), so no key is stored.  Where
    classes become dependent, the one of highest key ends; that choice
    keeps every class the generator of an interval summand (Carlsson &
    de Silva, "Zigzag persistence", 2010).
    """

    __slots__ = ("live", "closed")

    def __init__(self, q: int, m: int):
        self.live = [(1 << i, q) for i in range(m)]
        self.closed: deque[tuple[int, int]] = deque()

    def forward(self, q: int, cols: list[int], m: int) -> None:
        """Cross the forward arrow V_{q-1} -> V_q, given by ``cols``; m = dim V_q.

        A class whose image depends on earlier ones ends.  e_i is independent
        of the images and e_0, ..., e_{i-1} iff bit i is no pivot of the
        images' echelon, so those unit vectors are the classes born at q.
        """
        images: dict[int, int] = {}
        live = []
        for vec, birth in self.live:
            image = gf2.matvec(cols, vec)
            if echelon_insert(images, image):
                live.append((image, birth))
            else:
                self.closed.append((birth, q - 1))
        live += [(1 << i, q) for i in range(m) if i not in images]
        self.live = live

    def backward(self, q: int, cols: list[int], m: int) -> None:
        """Cross the backward arrow V_q -> V_{q-1}, given by ``cols``; m = dim V_q.

        The dependent columns give the kernel, born at q.  A class that
        lies in the image plus the classes below it lifts to V_q through
        the column part of its combination; any other class ends.
        """
        span = gf2.TrackedBasis()
        kernel = []
        for col in cols:
            added, combo = span.insert(col)
            if not added:
                kernel.append((combo, q))
        low = (1 << m) - 1
        lifted = []
        for vec, birth in self.live:
            added, combo = span.insert(vec)
            if added:
                self.closed.append((birth, q - 1))
            else:
                lifted.append((combo & low, birth))
        self.live = kernel + lifted

    def clip(self, p: int, s: int, e: int, rows: Counter) -> None:
        """Count the bars of the window [s, e] into ``rows`` as grid points.

        The window's module is the prefix's restricted to [s, e], so its
        bars are the prefix's clipped there.
        """
        off = s - 2
        for birth, death in self.closed:
            if death >= s:
                rows[p, max(birth, s) - off, death - off] += 1
        for _, birth in self.live:
            rows[p, max(birth, s) - off, e - off] += 1

    def drop_before(self, s: int) -> None:
        """Forget the closed bars no window starting at s or later can see."""
        while self.closed and self.closed[0][1] < s:
            self.closed.popleft()


def _window_diagrams(complexes: Iterable[SimplicialComplex], tau: int) -> Iterator[ZPD]:
    """The diagram of every run of 2*tau - 1 positions starting at a snapshot, in order.

    Each complex gets one homology basis and each arrow one induced map
    per dimension, and one sweep per dimension carries the interval
    decomposition of the prefix read so far.  A window is emitted as soon
    as its last position is in, with the prefix's bars clipped to it;
    bars that ended before the next window's start are then dropped.
    Only the last homology basis is kept, not its complex.  With tau = 1
    there are no arrows and every complex is a window of its own.
    """
    width = 2 * tau - 1
    stride = 2 if width > 1 else 1  # windows start at snapshots
    sweeps: list[_Sweep] = []
    prev: _ComplexHom | None = None
    for q, cx in enumerate(complexes):
        hom = _ComplexHom(cx)
        if prev is None or width == 1:
            sweeps = [_Sweep(q, hom.betti(p)) for p in (0, 1)]
        elif q % 2 == 1:
            for p, sweep in enumerate(sweeps):
                sweep.forward(q, _induced_map(p, prev, hom), hom.betti(p))
        else:
            for p, sweep in enumerate(sweeps):
                sweep.backward(q, _induced_map(p, hom, prev), hom.betti(p))
        prev = hom
        start = q - width + 1
        if start >= 0 and start % stride == 0:
            rows: Counter = Counter()
            for p, sweep in enumerate(sweeps):
                sweep.clip(p, start, q, rows)
                sweep.drop_before(start + stride)
            yield _checked_zpd(rows)  # the sweeps' points are valid by construction


def zigzag_series(
    snapshots: Iterable[Snapshot],
    tau: int,
    nu_star: float,
    mode: FiltrationMode = FiltrationMode.WEIGHT_SUBLEVEL_CLIQUE,
) -> Iterator[ZPD]:
    """The diagram of every window of ``tau`` consecutive snapshots.

    Windows come in chronological order; window k (from 0) is yielded as
    soon as k + tau snapshots have been read, so ``snapshots`` may be a
    lazy iterable.  A series shorter than ``tau`` yields nothing.  The
    diagrams equal ``compute_zigzag_persistence(window, ...)`` window by
    window, and a failing inclusion raises InclusionError when its arrow
    is reached.
    """
    tau = checked("tau", tau, least=1)
    complexes = _series_complexes(snapshots, nu_star, mode, unions=tau > 1)
    return _window_diagrams(complexes, tau)


def compute_zigzag_persistence(
    window: Sequence[Snapshot],
    nu_star: float,
    mode: FiltrationMode = FiltrationMode.WEIGHT_SUBLEVEL_CLIQUE,
) -> ZPD:
    """Interval decomposition of one window's zigzag module over GF(2), dimensions 0 and 1.

    Births and deaths follow the half-grid convention: position 2k-1 of
    the diagram (a snapshot) is time k, position 2k (a union) is time
    k + 1/2; classes alive in the last complex die at time T.  This is
    ``zigzag_series`` with tau = T, so at most three complexes are held.
    """
    if not window:
        raise ValueError("window must contain at least one snapshot")
    (zpd,) = zigzag_series(window, len(window), nu_star, mode)
    return zpd


@dataclass(frozen=True)
class ConsistencyReport:
    """Bar counts versus independently computed Betti numbers."""

    violations: tuple[tuple[int, int, int, int], ...]  # (twice, dim, bars, betti)
    positions_checked: int

    @property
    def ok(self) -> bool:
        return not self.violations


def betti_consistency_check(complexes: Sequence[SimplicialComplex], zpd: ZPD) -> ConsistencyReport:
    """At every position of ``build_zigzag``'s complexes, live bars must equal the Betti number."""
    betti = [(betti_numbers(cx, 0), betti_numbers(cx, 1)) for cx in complexes]
    return _consistency_report(zpd, betti)


def _consistency_report(zpd: ZPD, betti: Sequence[tuple[int, int]]) -> ConsistencyReport:
    """Compare live bars with ``betti[q]``, the (b0, b1) of the complex at position q."""
    violations = []
    for q, per_dim in enumerate(betti):
        twice = q + 2
        for dim in (0, 1):
            bars = zpd.count_alive(dim, twice)
            if bars != per_dim[dim]:
                violations.append((twice, dim, bars, per_dim[dim]))
    return ConsistencyReport(tuple(violations), len(betti))


_ZPD_HEADER = "p,twice_birth,twice_death"


def write_zpd_csv(zpd: ZPD, path) -> None:
    """One line per point: each row is written ``count`` times, in row order."""
    rows = [f"{dim},{b},{d}\n" * m for dim, b, d, m in zpd.rows]
    textio.write(path, _ZPD_HEADER + "\n" + "".join(rows))


def read_zpd_csv(path) -> ZPD:
    """Diagram from a CSV written by ``write_zpd_csv``.

    A diagram repeats few distinct lines many times, so the file's
    stripped lines are counted in one pass (``textio.distinct_lines``),
    and each distinct line is parsed and checked once; lines that name
    the same point (``01,3,7`` and ``1,3,7``) merge.  Blank and header
    lines are skipped.  A bad line raises a ``ValueError`` naming its
    first occurrence, and a non-ASCII byte is reported before any bad line.
    """
    counts: dict[tuple[int, int, int], int] = {}
    with textio.distinct_lines(path) as lines:
        for line, m in lines:
            if not line or line == _ZPD_HEADER:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise ValueError("expected 3 fields")
            point = p, b, d = int(parts[0]), int(parts[1]), int(parts[2])
            if not (p in (0, 1) and 2 <= b <= d):  # a bad point: say why
                _check_point(*point)
            counts[point] = counts.get(point, 0) + m
    return _checked_zpd(counts)
