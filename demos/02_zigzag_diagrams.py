"""Track topological features through time with zigzag persistence.

A window of T snapshots produces the alternating inclusion sequence

    C(G1) -> C(G1 u G2) <- C(G2) -> C(G2 u G3) <- C(G3) ...

and the interval decomposition of its homology records when components
(dim 0) and cycles (dim 1) are born and die on the half-integer grid
{1, 3/2, 2, ...}.  A diagram lists each distinct (birth, death) point
once, with the number of bars there: ``zpd.points(dim)`` gives the
``(birth, death, count)`` rows of one dimension.

Run:  python demos/02_zigzag_diagrams.py
"""

from zigzagst import (
    Snapshot,
    betti_consistency_check,
    build_zigzag,
    compute_zigzag_persistence,
)


def snap(index, edges):
    return Snapshot.from_edges(index, 4, [(u, v, 0.2) for u, v in edges])


# A path becomes a square for one step and opens up again.
path = [(0, 1), (1, 2), (2, 3)]
square = path + [(0, 3)]
window = [snap(1, path), snap(2, square), snap(3, path)]

zpd = compute_zigzag_persistence(window, nu_star=0.5)
print("components:", zpd.points(0))   # one component alive the whole window
print("cycles:    ", zpd.points(1))   # the loop exists from 1.5 to 2.5

# The cycle is born in the *union* C(G1 u G2), before G2 itself is
# observed, hence the half-integer birth 1.5; it dies entering G3.

# Two components merging: the younger class dies immediately (1, 1),
# the survivor lives on.
merge = [snap(1, [(0, 1), (2, 3)]), snap(2, [(0, 1), (1, 2), (2, 3)])]
zpd2 = compute_zigzag_persistence(merge, nu_star=0.5)
print("\nmerge example components:", zpd2.points(0))

# A cycle can exist only in a union: two half-squares overlapping.
halves = [snap(1, [(0, 1), (1, 2)]), snap(2, [(2, 3), (0, 3)])]
zpd3 = compute_zigzag_persistence(halves, nu_star=0.5)
print("union-born cycle:", zpd3.points(1))

# Every diagram is validated against an independent Betti-number oracle:
# at each grid position the number of live bars must equal the rank of
# the homology group of the window's complex there, which ``build_zigzag``
# lists in order.
report = betti_consistency_check(build_zigzag(window, nu_star=0.5), zpd)
print("\nbetti consistency over", report.positions_checked, "positions:",
      "ok" if report.ok else report.violations)
