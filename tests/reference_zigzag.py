"""Per-window zigzag persistence, kept as a differential reference.

This is the path the series engine in ``zigzagst.zigzag`` replaced: every
window builds its own complexes, homology bases and arrow maps, and
sweeps every segment rank of its own.  ``_interval_multiplicities`` is
kept verbatim, with the lowest-bit-pivot echelon it relies on, and so are
the tracked edge-coordinate homology bases (``_ComplexHom``) and arrow
maps (``_induced_map``) it reads; nothing here shares the engine's
bases, maps or sweep.  Its tracked eliminations run on the lowest-bit
``reference_gf2.TrackedBasis``, not on the library's highest-bit one.
The engine must reproduce its diagrams exactly.
"""

from __future__ import annotations

from typing import Sequence

from zigzagst import gf2
from zigzagst.dyngraph import Snapshot, union_graph
from zigzagst.filtration import FiltrationMode, SimplicialComplex, build_complex
from zigzagst.zigzag import ZPD, InclusionError
from reference_gf2 import TrackedBasis


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

        tb0 = TrackedBasis(track=True)
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

        tb1 = TrackedBasis(track=True)
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
    """Reduce ``vec`` against a lowest-bit-pivot echelon, inserting if independent."""
    while vec:
        pv = (vec & -vec).bit_length() - 1
        hit = ech.get(pv)
        if hit is None:
            ech[pv] = vec
            return vec
        vec ^= hit
    return 0


def _interval_multiplicities(homs: Sequence[_ComplexHom], p: int) -> dict[tuple[int, int], int]:
    """Interval multiplicities via generalized ranks of segment restrictions.

    For every segment [a, b] of diagram positions, r[a, b] is the rank of
    the canonical limit-to-colimit map of the restricted module, which
    counts the interval summands covering the whole segment.  Interval
    multiplicities then follow by inclusion-exclusion over segment
    endpoints.  Ranks are monotone under widening, so each row stops at
    the first zero.

    Snapshots (even positions) are the sources of the diagram and unions
    (odd positions) the sinks.  For a fixed left end the code maintains,
    while the right end grows: the pair space K of (class at a, class at
    b) joined by a compatible chain, and an echelon of the colimit gluing
    relations laid out so that rows supported purely on position a are
    exposed (block a occupies the top bits).  The rank is then the number
    of left components of K that are independent modulo those rows.
    """
    q_count = len(homs)
    dims = [h.betti(p) for h in homs]
    arrow_maps: list[list[int]] = []
    for q in range(q_count - 1):
        if q % 2 == 0:
            arrow_maps.append(_induced_map(p, homs[q], homs[q + 1]))  # V_q -> V_{q+1}
        else:
            arrow_maps.append(_induced_map(p, homs[q + 1], homs[q]))  # V_{q+1} -> V_q
    ranks: dict[tuple[int, int], int] = {}
    for a in range(q_count):
        if dims[a] == 0:
            continue
        ranks[(a, a)] = dims[a]
        off: dict[int, int] = {}
        acc = 0
        for q in range(a + 1, q_count):
            off[q] = acc
            acc += dims[q]
        off[a] = acc  # block a on top so intersection rows are exposed
        relations: dict[int, int] = {}  # echelon of colimit gluing relations
        zero_rows: list[int] = []  # relation rows supported purely on block a
        pairs: list[tuple[int, int]] = [(1 << i, 1 << i) for i in range(dims[a])]
        for b in range(a + 1, q_count):
            cols = arrow_maps[b - 1]
            m_b = dims[b]
            if b % 2 == 1:
                # Forward arrow f: V_{b-1} -> V_b; push right components.
                ech: dict[int, int] = {}
                new_pairs = []
                for u, v in pairs:
                    comb = _echelon_insert(ech, (u << m_b) | gf2.matvec(cols, v))
                    if comb:
                        new_pairs.append((comb >> m_b, comb & ((1 << m_b) - 1)))
                pairs = new_pairs
                src, dst = b - 1, b
            else:
                # Backward arrow g: V_b -> V_{b-1}; take preimages of K.
                m_prev = dims[b - 1]
                tb = TrackedBasis(track=True)
                for u, v in pairs:
                    tb.insert((u << m_prev) | v)
                n_seed = tb.n_inserted
                new_pairs = []
                for i in range(dims[a] + m_b):
                    if i < dims[a]:
                        vec = (1 << i) << m_prev
                    else:
                        vec = cols[i - dims[a]]
                    added, combo = tb.insert(vec)
                    if not added:
                        units = combo >> n_seed
                        new_pairs.append((units & ((1 << dims[a]) - 1), units >> dims[a]))
                pairs = new_pairs
                src, dst = b, b - 1
            for i in range(dims[src]):
                rel = 1 << (off[src] + i)
                for j in gf2.bits_of(cols[i]):
                    rel ^= 1 << (off[dst] + j)
                row = _echelon_insert(relations, rel)
                if row and (row & -row).bit_length() - 1 >= off[a]:
                    zero_rows.append(row >> off[a])
            if not pairs:
                break
            ech = {}
            for z in zero_rows:
                _echelon_insert(ech, z)
            r = 0
            for u, _ in pairs:
                if _echelon_insert(ech, u):
                    r += 1
            if r == 0:
                break
            ranks[(a, b)] = r
    mult: dict[tuple[int, int], int] = {}
    for (a, b), r in ranks.items():
        m = (
            r
            - ranks.get((a - 1, b), 0)
            - ranks.get((a, b + 1), 0)
            + ranks.get((a - 1, b + 1), 0)
        )
        if m < 0:
            raise AssertionError("negative interval multiplicity")
        if m:
            mult[(a, b)] = m
    return mult


def reference_window_zpd(
    window: Sequence[Snapshot],
    nu_star: float,
    mode: FiltrationMode = FiltrationMode.WEIGHT_SUBLEVEL_CLIQUE,
) -> ZPD:
    """Diagram of one window, built and computed from scratch.

    Builds the window's 2T-1 complexes, checks every arrow's inclusion
    (raising InclusionError), then takes both dimensions' multiplicities.
    """
    complexes = []
    for i, s in enumerate(window):
        complexes.append(build_complex(s, nu_star, mode))
        if i + 1 < len(window):
            complexes.append(build_complex(union_graph(s, window[i + 1]), nu_star, mode))
    for a in range(len(complexes) - 1):
        sub, sup = (complexes[a], complexes[a + 1]) if a % 2 == 0 else (complexes[a + 1], complexes[a])
        if not sub.is_subcomplex_of(sup):
            raise InclusionError(f"arrow {a} violates inclusion")
    homs = [_ComplexHom(cx) for cx in complexes]
    return ZPD(tuple(
        (dim, birth_pos + 2, death_pos + 2, count)
        for dim in (0, 1)
        for (birth_pos, death_pos), count in _interval_multiplicities(homs, dim).items()
    ))
