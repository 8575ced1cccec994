"""Zigzag persistence over alternating snapshot/union complex sequences.

A series of snapshots G_1, G_2, ... yields the complex sequence
C(G_1) -> C(G_1 u G_2) <- C(G_2) -> ...: each snapshot includes into the
union with its successor, so arrows alternate direction.  A window of tau
snapshots is a run of 2*tau - 1 consecutive complexes.  The interval
decomposition of the induced GF(2) homology module is recovered from
generalized ranks r[a, b] of contiguous segments (the rank of the
canonical limit-to-colimit map counts the intervals covering a segment),
which avoids any order-sensitive basis bookkeeping.

r[a, b] depends only on the module restricted to [a, b], not on the
window around it (Carlsson & de Silva, "Zigzag persistence", 2010).  So
``zigzag_series`` builds each complex, homology basis and arrow map once
per series, sweeps each segment once, and reads every window's interval
multiplicities from the shared ranks by inclusion-exclusion inside the
window.  Windows come out in order as soon as their last snapshot is
read, and state older than the current window is dropped, so memory
stays proportional to tau, not to the series length.  A single window
(``build_zigzag`` then ``compute_zigzag_persistence``) is the one-window
case of the same code.  Births and deaths land on a half-integer time
grid stored exactly as doubled integers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from . import gf2
from .dyngraph import Snapshot, union_graph
from .filtration import (
    FiltrationMode,
    SimplicialComplex,
    betti_numbers,
    build_complex,
)

__all__ = [
    "ZPD",
    "ZigzagFiltration",
    "InclusionError",
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


def _check_dim(dim: int) -> None:
    if dim not in (0, 1):
        raise ValueError(f"dimension must be 0 or 1, got {dim}")


def _half(twice: int) -> str:
    return str(twice // 2) if twice % 2 == 0 else f"{twice}/2"


def _check_point(dim: int, twice_birth: int, twice_death: int) -> None:
    """One interval of the decomposition: a homology dimension and a grid span."""
    for twice in (twice_birth, twice_death):
        if twice < 2:
            raise ValueError(f"half-index 2t = {twice} below the grid start")
    _check_dim(dim)
    if twice_death < twice_birth:
        raise ValueError(f"death {_half(twice_death)} precedes birth {_half(twice_birth)}")


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
            _check_point(dim, b, d)
            if m < 1:
                raise ValueError(f"count must be >= 1, got {m}")
            counts[dim, b, d] = counts.get((dim, b, d), 0) + m
        object.__setattr__(self, "rows", tuple((*k, m) for k, m in sorted(counts.items())))

    def pairs(self, dim: int) -> list[tuple[float, float]]:
        """(birth, death) values in one homology dimension, each repeated ``count`` times."""
        _check_dim(dim)
        out: list[tuple[float, float]] = []
        for p, b, d, m in self.rows:
            if p == dim:
                out += [(b / 2.0, d / 2.0)] * m
        return out

    def count_alive(self, dim: int, twice: int) -> int:
        _check_dim(dim)
        return sum(m for p, b, d, m in self.rows if p == dim and b <= twice <= d)

    def __len__(self) -> int:
        return sum(row[3] for row in self.rows)


@dataclass(frozen=True)
class ZigzagFiltration:
    """The 2T-1 complexes of a window: snapshots at even, unions at odd positions."""

    complexes: tuple[SimplicialComplex, ...]

    def __post_init__(self):
        if len(self.complexes) % 2 == 0 or not self.complexes:
            raise ValueError("a zigzag filtration has odd length 2T-1")

    @property
    def window_length(self) -> int:
        return (len(self.complexes) + 1) // 2


def _check_inclusion(sub: SimplicialComplex, sup: SimplicialComplex, name: str) -> None:
    if not sub.is_subcomplex_of(sup):
        missing = sorted(sub.difference(sup), key=lambda s: (len(s), s))[:5]
        raise InclusionError(f"arrow {name} violates inclusion; missing simplices {missing}")


def _series_complexes(
    snapshots: Iterable[Snapshot],
    nu_star: float,
    mode: FiltrationMode,
    node_function: Callable[[int], float] | Mapping[int, float] | None,
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
            u = build_complex(union_graph(prev, s), nu_star, mode, node_function)
        cx = build_complex(s, nu_star, mode, node_function)
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
    node_function: Callable[[int], float] | Mapping[int, float] | None = None,
) -> ZigzagFiltration:
    """Complexes of the alternating diagram for one window.

    Inclusions are verified on every arrow; see ``_series_complexes``.
    """
    if not window:
        raise ValueError("window must contain at least one snapshot")
    return ZigzagFiltration(tuple(_series_complexes(window, nu_star, mode, node_function, True)))


class _ComplexHom:
    """Homology bases of one complex with coordinate bookkeeping.

    Chains are gf2 bitsets over the complex's own sorted vertex/edge
    lists.  ``express`` rewrites a cycle in homology coordinates by
    reducing it against the tracked span of boundaries plus chosen
    representatives.
    """

    __slots__ = ("verts", "edges", "vpos", "epos", "reps", "_tb", "_slots")

    def __init__(self, cx: SimplicialComplex):
        self.verts = cx.vertices
        self.edges = cx.edges
        self.vpos = {v: i for i, v in enumerate(self.verts)}
        self.epos = {e: i for i, e in enumerate(self.edges)}

        tb0 = gf2.TrackedBasis(track=True)
        edge_cycles: list[int] = []
        for (u, v) in self.edges:
            added, combo = tb0.insert((1 << self.vpos[u]) | (1 << self.vpos[v]))
            if not added:
                edge_cycles.append(combo)
        reps0: list[int] = []
        slots0: list[int] = []
        for i in range(len(self.verts)):
            added, _ = tb0.insert(1 << i)
            if added:
                reps0.append(1 << i)
                slots0.append(tb0.n_inserted - 1)

        tb1 = gf2.TrackedBasis(track=True)
        for (u, v, w) in cx.triangles:
            tb1.insert(
                gf2.from_indices(
                    (self.epos[(u, v)], self.epos[(u, w)], self.epos[(v, w)])
                )
            )
        reps1: list[int] = []
        slots1: list[int] = []
        for z in edge_cycles:
            added, _ = tb1.insert(z)
            if added:
                reps1.append(z)
                slots1.append(tb1.n_inserted - 1)

        self.reps = (reps0, reps1)
        self._tb = (tb0, tb1)
        self._slots = (slots0, slots1)

    def betti(self, p: int) -> int:
        return len(self.reps[p])

    def express(self, p: int, chain: int) -> int:
        residual, combo = self._tb[p].reduce(chain)
        if residual:
            raise AssertionError("chain is not a cycle of this complex")
        out = 0
        for r, slot in enumerate(self._slots[p]):
            if (combo >> slot) & 1:
                out |= 1 << r
        return out

    def include_chain(self, p: int, sub: "_ComplexHom", chain: int) -> int:
        """Reindex a p-chain of a subcomplex into this complex's bits."""
        out = 0
        if p == 0:
            for i in gf2.bits_of(chain):
                out |= 1 << self.vpos[sub.verts[i]]
        else:
            for i in gf2.bits_of(chain):
                out |= 1 << self.epos[sub.edges[i]]
        return out


def _induced_map(p: int, sub: _ComplexHom, sup: _ComplexHom) -> list[int]:
    """Homology map of the inclusion: one super-coordinate column per sub basis vector."""
    return [sup.express(p, sup.include_chain(p, sub, rep)) for rep in sub.reps[p]]


def _echelon_insert(ech: dict[int, int], vec: int) -> int:
    """Reduce ``vec`` against a highest-bit-pivot echelon, inserting if independent."""
    while vec:
        pv = vec.bit_length() - 1
        hit = ech.get(pv)
        if hit is None:
            ech[pv] = vec
            return vec
        vec ^= hit
    return 0


class _RankRow:
    """Generalized ranks r[a, b] of one left end a, widened one position at a time.

    ``ranks[j]`` is r[a, a + j]; ranks are monotone under widening, so the
    row closes at the first zero and every later rank is 0.

    Snapshots (even positions) are the sources of the diagram and unions
    (odd positions) the sinks.  While the right end b grows, the row
    keeps the pair space K of (class at a, class at b) joined by a
    compatible chain, and an echelon of the colimit gluing relations.
    Block a takes the lowest bits and each new block is stacked above the
    last; with highest-bit pivots, the echelon rows supported purely on
    block a are exactly those whose pivot falls inside it.  The rank is
    the number of left components of K that are independent modulo those
    rows.
    """

    __slots__ = ("dim_a", "pairs", "relations", "zero_rows", "last_off", "top", "ranks", "open")

    def __init__(self, dim_a: int):
        self.dim_a = dim_a
        self.pairs = [(1 << i, 1 << i) for i in range(dim_a)]
        self.relations: dict[int, int] = {}  # echelon of colimit gluing relations
        self.zero_rows: list[int] = []  # relation rows supported purely on block a
        self.last_off = 0  # first bit of block b - 1
        self.top = dim_a  # first free bit
        self.ranks = [dim_a] if dim_a else []
        self.open = bool(dim_a)

    def widen(self, forward: bool, cols: list[int], m_prev: int, m_b: int) -> None:
        """Extend [a, b - 1] to [a, b] across the arrow between b - 1 and b.

        ``cols`` is the induced map of that arrow, V_{b-1} -> V_b when
        ``forward`` and V_b -> V_{b-1} otherwise; m_prev and m_b are the
        dimensions of V_{b-1} and V_b.
        """
        dim_a = self.dim_a
        if forward:
            # Forward arrow f: V_{b-1} -> V_b; push right components.
            ech: dict[int, int] = {}
            pairs = []
            for u, v in self.pairs:
                comb = _echelon_insert(ech, (u << m_b) | gf2.matvec(cols, v))
                if comb:
                    pairs.append((comb >> m_b, comb & ((1 << m_b) - 1)))
            n_src = m_prev
        else:
            # Backward arrow g: V_b -> V_{b-1}; take preimages of K.
            tb = gf2.TrackedBasis(track=True)
            for u, v in self.pairs:
                tb.insert((u << m_prev) | v)
            n_seed = tb.n_inserted
            pairs = []
            for i in range(dim_a + m_b):
                if i < dim_a:
                    vec = (1 << i) << m_prev
                else:
                    vec = cols[i - dim_a]
                added, combo = tb.insert(vec)
                if not added:
                    units = combo >> n_seed
                    pairs.append((units & ((1 << dim_a) - 1), units >> dim_a))
            n_src = m_b
        self.pairs = pairs
        off_b = self.top
        src_off, dst_off = (self.last_off, off_b) if forward else (off_b, self.last_off)
        for i in range(n_src):
            rel = 1 << (src_off + i)
            for j in gf2.bits_of(cols[i]):
                rel ^= 1 << (dst_off + j)
            row = _echelon_insert(self.relations, rel)
            if row and row.bit_length() <= dim_a:
                self.zero_rows.append(row)
        self.last_off, self.top = off_b, off_b + m_b
        if not pairs:
            self.open = False
            return
        ech = {}
        for z in self.zero_rows:
            _echelon_insert(ech, z)
        r = 0
        for u, _ in pairs:
            if _echelon_insert(ech, u):
                r += 1
        if r == 0:
            self.open = False
            return
        self.ranks.append(r)


def _window_points(rows: Sequence[_RankRow], p: int) -> list[Row]:
    """Diagram rows of one window from the rank rows of its positions.

    ``rows[i]`` is the row of the window's i-th position.  A rank whose
    segment leaves the window counts as 0, so the multiplicity of [a, b]
    is r[a, b] - r[a-1, b] - r[a, b+1] + r[a-1, b+1] with those terms
    dropped at the window's edges.
    """
    width = len(rows)
    points = []
    left: list[int] = []
    for a, row in enumerate(rows):
        ranks = row.ranks
        n_left = len(left)
        for j in range(min(len(ranks), width - a)):
            m = ranks[j]
            if j + 1 < n_left:
                m -= left[j + 1]
            if a + j + 1 < width:
                if j + 1 < len(ranks):
                    m -= ranks[j + 1]
                if j + 2 < n_left:
                    m += left[j + 2]
            if m < 0:
                raise AssertionError("negative interval multiplicity")
            if m:
                points.append((p, a + 2, a + j + 2, m))
        left = ranks
    return points


def _window_diagrams(
    complexes: Iterable[SimplicialComplex], tau: int
) -> Iterator[tuple[ZigzagFiltration, ZPD]]:
    """Every run of 2*tau - 1 positions starting at a snapshot, in order.

    Each complex gets one homology basis, each arrow one induced map per
    dimension, and each position one rank row per dimension.  A new
    position widens every open row that a window can still use; a window
    is emitted as soon as its last position is in, and the rows of its
    first snapshot and union are then dropped.  Only the current window's
    complexes and rows are kept.
    """
    width = 2 * tau - 1
    stride = 2 if width > 1 else 1  # windows start at snapshots
    kept: deque[SimplicialComplex] = deque(maxlen=width)
    rows: tuple[deque[_RankRow], deque[_RankRow]] = (deque(), deque())
    prev: _ComplexHom | None = None
    for q, cx in enumerate(complexes):
        kept.append(cx)
        hom = _ComplexHom(cx)
        for p, row_list in enumerate(rows):
            if prev is not None and any(row.open for row in row_list):
                forward = q % 2 == 1
                cols = _induced_map(p, prev, hom) if forward else _induced_map(p, hom, prev)
                m_prev, m_b = prev.betti(p), hom.betti(p)
                for row in row_list:
                    if row.open:
                        row.widen(forward, cols, m_prev, m_b)
            row_list.append(_RankRow(hom.betti(p)))
        prev = hom
        start = q - width + 1
        if start >= 0 and start % stride == 0:
            points = _window_points(list(rows[0]), 0) + _window_points(list(rows[1]), 1)
            yield ZigzagFiltration(tuple(kept)), ZPD(tuple(points))
            for row_list in rows:
                for _ in range(stride):
                    row_list.popleft()


def zigzag_series(
    snapshots: Iterable[Snapshot],
    tau: int,
    nu_star: float,
    mode: FiltrationMode = FiltrationMode.WEIGHT_SUBLEVEL_CLIQUE,
    node_function: Callable[[int], float] | Mapping[int, float] | None = None,
) -> Iterator[tuple[ZigzagFiltration, ZPD]]:
    """(filtration, diagram) of every window of ``tau`` consecutive snapshots.

    Windows come in chronological order; window k (from 0) is yielded as
    soon as k + tau snapshots have been read, so ``snapshots`` may be a
    lazy iterable.  A
    series shorter than ``tau`` yields nothing.  The diagrams equal
    ``compute_zigzag_persistence(build_zigzag(window, ...))`` window by
    window, and a failing inclusion raises InclusionError when its arrow
    is reached.
    """
    if tau < 1:
        raise ValueError(f"tau must be >= 1, got {tau}")
    complexes = _series_complexes(snapshots, nu_star, mode, node_function, unions=tau > 1)
    return _window_diagrams(complexes, tau)


def compute_zigzag_persistence(zf: ZigzagFiltration) -> ZPD:
    """Interval decomposition of the zigzag module over GF(2), dimensions 0 and 1.

    Births and deaths follow the half-grid convention: position 2k-1 of
    the diagram (a snapshot) is time k, position 2k (a union) is time
    k + 1/2; classes alive in the last complex die at time T.
    """
    ((_, zpd),) = _window_diagrams(zf.complexes, zf.window_length)
    return zpd


@dataclass(frozen=True)
class ConsistencyReport:
    """Bar counts versus independently computed Betti numbers."""

    violations: tuple[tuple[int, int, int, int], ...]  # (twice, dim, bars, betti)
    positions_checked: int

    @property
    def ok(self) -> bool:
        return not self.violations


def betti_consistency_check(zf: ZigzagFiltration, zpd: ZPD) -> ConsistencyReport:
    """At every grid position the number of live bars must equal the Betti number."""
    betti = [(betti_numbers(cx, 0), betti_numbers(cx, 1)) for cx in zf.complexes]
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
    with open(path, "w", encoding="ascii") as fh:
        fh.write(_ZPD_HEADER + "\n")
        for dim, b, d, m in zpd.rows:
            fh.write(f"{dim},{b},{d}\n" * m)


def read_zpd_csv(path) -> ZPD:
    """Diagram from a CSV written by ``write_zpd_csv``.

    A diagram repeats few distinct rows many times, so the distinct
    stripped lines are counted first and each is parsed and validated
    once; an error names the first line holding it.  Blank and header
    lines are skipped.
    """
    lines: dict[str, list[int]] = {}  # stripped line -> [first line number, count]
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            lines.setdefault(raw.strip(), [lineno, 0])[1] += 1
    lines.pop("", None)
    lines.pop(_ZPD_HEADER, None)
    return ZPD(tuple(
        (*_parse_zpd_row(path, lineno, line), count) for line, (lineno, count) in lines.items()
    ))


def _parse_zpd_row(path, lineno: int, line: str) -> tuple[int, int, int]:
    parts = line.split(",")
    if len(parts) != 3:
        raise ValueError(f"{path}: line {lineno}: expected 3 fields")
    try:
        dim, b, d = (int(x) for x in parts)
        _check_point(dim, b, d)
    except ValueError as exc:
        raise ValueError(f"{path}: line {lineno}: {exc}") from exc
    return dim, b, d
