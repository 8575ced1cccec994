"""Dense GF(2) linear algebra on integer bitsets.

A vector over GF(2) is stored as a Python integer whose bit i holds
coordinate i, so vector addition is XOR and the dimension never has to
be declared.  A matrix is a list of column bitsets.  This representation
keeps boundary-matrix reductions exact and fast at the graph sizes this
package targets.  Eliminations pivot on a vector's highest set bit, which
``int.bit_length`` reads in one call, as standard persistence reductions
do (Bauer, Kerber, Reininghaus & Wagner, "PHAT", 2017).
"""

from __future__ import annotations

from typing import Iterable, Iterator

__all__ = [
    "from_indices",
    "bits_of",
    "matvec",
    "rank_of_columns",
    "nullspace_of_columns",
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


class TrackedBasis:
    """Echelon basis with optional combination tracking.

    Vectors are inserted one at a time and reduced against the stored
    pivots (pivot = highest set bit).  When tracking is on, every stored
    pivot carries the combination of *inserted* vectors that produced it,
    so dependent insertions report an exact kernel element and
    :meth:`reduce` can express an external vector over the insertions.
    Which inserts are independent, and the combination of a dependent or
    in-span vector over the independent inserts, do not depend on the
    pivot rule: those inserts are linearly independent, so that
    combination is unique.
    """

    __slots__ = ("_pivots", "_n_inserted", "track")

    def __init__(self, track: bool = False):
        self._pivots: dict[int, tuple[int, int]] = {}
        self._n_inserted = 0
        self.track = track

    def __len__(self) -> int:
        return len(self._pivots)

    @property
    def n_inserted(self) -> int:
        return self._n_inserted

    def _eliminate(self, vec: int, combo: int) -> tuple[int, int]:
        pivots = self._pivots
        while vec:
            hit = pivots.get(vec.bit_length() - 1)
            if hit is None:
                break
            vec ^= hit[0]
            combo ^= hit[1]
        return vec, combo

    def insert(self, vec: int) -> tuple[bool, int]:
        """Insert a vector; return (was_independent, combination).

        The combination is a bitset over insertion indices (this call
        included) and is only meaningful when tracking is enabled.  For a
        dependent vector it is a kernel element of the inserted family.
        """
        label = (1 << self._n_inserted) if self.track else 0
        self._n_inserted += 1
        vec, combo = self._eliminate(vec, label)
        if vec == 0:
            return False, combo
        self._pivots[vec.bit_length() - 1] = (vec, combo)
        return True, combo

    def reduce(self, vec: int) -> tuple[int, int]:
        """Reduce ``vec`` without inserting it.

        Returns (residual, combination); residual == 0 means ``vec`` lies
        in the span, and the combination names the inserted vectors that
        sum to it (when tracking).
        """
        return self._eliminate(vec, 0)


def rank_of_columns(columns: Iterable[int]) -> int:
    """GF(2) rank of a matrix given as column bitsets."""
    basis = TrackedBasis()
    for col in columns:
        basis.insert(col)
    return len(basis)


def nullspace_of_columns(columns: Iterable[int]) -> list[int]:
    """Kernel basis of a column-bitset matrix.

    Each returned bitset is a combination of column indices that XORs to
    zero; together they span the nullspace.
    """
    basis = TrackedBasis(track=True)
    kernel = []
    for col in columns:
        added, combo = basis.insert(col)
        if not added:
            kernel.append(combo)
    return kernel
