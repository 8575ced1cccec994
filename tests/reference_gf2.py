"""A lowest-bit tracked echelon, kept as the oracles' own elimination.

``zigzagst.gf2.TrackedBasis`` pivots on the highest set bit.  The
references in ``tests/`` eliminate on the lowest set bit instead, so they
share no pivot rule with the engine and library code they check.  Ranks
and the combination of a dependent or in-span vector over the
independent inserts are the same under either rule.
"""

from __future__ import annotations


class TrackedBasis:
    """Echelon basis with optional combination tracking (pivot = lowest set bit).

    ``insert`` returns (was_independent, combination) and ``reduce``
    returns (residual, combination); a combination is a bitset over
    insertion indices and is only meaningful when tracking is on.
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
            low = (vec & -vec).bit_length() - 1
            hit = pivots.get(low)
            if hit is None:
                break
            vec ^= hit[0]
            combo ^= hit[1]
        return vec, combo

    def insert(self, vec: int) -> tuple[bool, int]:
        label = (1 << self._n_inserted) if self.track else 0
        self._n_inserted += 1
        vec, combo = self._eliminate(vec, label)
        if vec == 0:
            return False, combo
        self._pivots[(vec & -vec).bit_length() - 1] = (vec, combo)
        return True, combo

    def reduce(self, vec: int) -> tuple[int, int]:
        return self._eliminate(vec, 0)
