"""Dense GF(2) linear algebra on integer bitsets.

A vector over GF(2) is stored as a Python integer whose bit i holds
coordinate i, so vector addition is XOR and the dimension never has to
be declared.  A matrix is a list of column bitsets.  This representation
keeps boundary-matrix reductions exact and fast at the graph sizes this
package targets.  Eliminations pivot on a vector's highest set bit, which
``int.bit_length`` reads in one call, as standard persistence reductions
do (Bauer, Kerber, Reininghaus & Wagner, "PHAT", 2017).

``echelon_insert`` is the one elimination: the zigzag engine reduces
triangle boundaries and forward images with it, and ``rank_of_columns``
counts its independent inserts.  Only the backward arrow needs to know
which inserts a dependent vector combines, and ``TrackedBasis`` carries
that combination along.
"""

from __future__ import annotations

from typing import Iterable, Iterator

__all__ = [
    "from_indices",
    "bits_of",
    "matvec",
    "echelon_insert",
    "rank_of_columns",
    "TrackedBasis",
]


def from_indices(indices: Iterable[int]) -> int:
    """Build a bitset vector with the given coordinate indices set."""
    v = 0
    for i in indices:
        v |= 1 << i
    return v


def bits_of(v: int) -> Iterator[int]:
    """Yield the set coordinate indices of ``v`` in ascending order."""
    while v:
        low = v & -v
        yield low.bit_length() - 1
        v ^= low


def matvec(columns: list[int], v: int) -> int:
    """Multiply a column-bitset matrix by the coordinate vector ``v``."""
    out = 0
    for i in bits_of(v):
        out ^= columns[i]
    return out


def echelon_insert(pivots: dict[int, int], vec: int) -> bool:
    """Whether ``vec`` is independent of ``pivots`` (highest bit -> vector); keeps its remainder."""
    while vec:
        top = vec.bit_length() - 1
        hit = pivots.get(top)
        if hit is None:
            pivots[top] = vec
            return True
        vec ^= hit
    return False


def rank_of_columns(columns: Iterable[int]) -> int:
    """GF(2) rank of a matrix given as column bitsets."""
    pivots: dict[int, int] = {}
    return sum(echelon_insert(pivots, col) for col in columns)


class TrackedBasis:
    """Echelon basis whose stored vectors remember the inserts that made them.

    Each stored pivot (pivot = highest set bit) carries the combination
    of inserted vectors that produced it, so a dependent insert reports
    an exact kernel element of the inserted family.  Which inserts are
    independent, and the combination of a dependent one over the
    independent inserts, do not depend on the pivot rule: those inserts
    are linearly independent, so that combination is unique.
    """

    __slots__ = ("_pivots", "_label")

    def __init__(self):
        self._pivots: dict[int, tuple[int, int]] = {}
        self._label = 1

    def insert(self, vec: int) -> tuple[bool, int]:
        """Insert a vector; return (was_independent, combination).

        The combination is a bitset over insertion indices, this call
        included.  For a dependent vector it is a kernel element of the
        inserted family.
        """
        combo = self._label
        self._label <<= 1
        pivots = self._pivots
        while vec:
            top = vec.bit_length() - 1
            hit = pivots.get(top)
            if hit is None:
                pivots[top] = (vec, combo)
                return True, combo
            vec ^= hit[0]
            combo ^= hit[1]
        return False, combo
