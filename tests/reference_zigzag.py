"""Per-window zigzag persistence, kept as a differential reference.

This is the path the series engine in ``zigzagst.zigzag`` replaced: every
window builds its own complexes, homology bases and arrow maps, and
sweeps every segment rank of its own.  ``_interval_multiplicities`` is
kept verbatim, with the lowest-bit-pivot echelon it relies on; the engine
must reproduce its diagrams exactly.
"""

from __future__ import annotations

from typing import Sequence

from zigzagst import gf2
from zigzagst.dyngraph import Snapshot, union_graph
from zigzagst.filtration import FiltrationMode, build_complex
from zigzagst.zigzag import (
    ZPD,
    DiagramPoint,
    HalfIndex,
    InclusionError,
    _ComplexHom,
    _induced_map,
)


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
                tb = gf2.TrackedBasis(track=True)
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
    points = []
    for dim in (0, 1):
        for (birth_pos, death_pos), count in sorted(_interval_multiplicities(homs, dim).items()):
            points.extend(
                DiagramPoint(dim, HalfIndex(birth_pos + 2), HalfIndex(death_pos + 2))
                for _ in range(count)
            )
    return ZPD(tuple(points))
