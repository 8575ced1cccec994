import numpy as np
from hypothesis import given, strategies as st

from zigzagst import gf2
from reference_gf2 import TrackedBasis as LowestBitBasis


def test_from_indices_and_bits_roundtrip():
    v = gf2.from_indices([0, 3, 17])
    assert list(gf2.bits_of(v)) == [0, 3, 17]
    assert gf2.from_indices([]) == 0


def test_matvec_xors_selected_columns():
    cols = [0b01, 0b10, 0b11]
    assert gf2.matvec(cols, 0b101) == 0b01 ^ 0b11
    assert gf2.matvec(cols, 0) == 0


def test_rank_small_matrices():
    assert gf2.rank_of_columns([0b1, 0b10, 0b11]) == 2
    assert gf2.rank_of_columns([0, 0]) == 0
    assert gf2.rank_of_columns([0b111]) == 1


def insert_all(vecs):
    basis = gf2.TrackedBasis()
    for vec in vecs:
        basis.insert(vec)
    return basis


def test_tracked_basis_reports_exact_combinations():
    tb = gf2.TrackedBasis()
    vecs = [0b0011, 0b0110, 0b0101]  # third = first XOR second
    added0, _ = tb.insert(vecs[0])
    added1, _ = tb.insert(vecs[1])
    added2, combo = tb.insert(vecs[2])
    assert added0 and added1 and not added2
    assert combo == 0b111
    added, combo = insert_all(vecs).insert(0b0110)  # in the span: dependent, label bit 3
    assert not added
    assert combo == 0b0010 | 1 << 3
    assert gf2.matvec(vecs, combo & 0b111) == 0b0110


@given(st.lists(st.integers(min_value=0, max_value=2**12 - 1), max_size=20))
def test_echelon_insert_flags_match_the_lowest_bit_reference(vecs):
    pivots, low = {}, LowestBitBasis()
    for vec in vecs:
        assert gf2.echelon_insert(pivots, vec) == low.insert(vec)[0]
    assert all(vec.bit_length() - 1 == top for top, vec in pivots.items())
    assert len(pivots) == len(low)


@given(st.lists(st.integers(min_value=0, max_value=2**12 - 1), max_size=20))
def test_rank_matches_numpy_gf2_elimination(cols):
    dense = np.zeros((12, len(cols)), dtype=np.uint8)
    for j, c in enumerate(cols):
        for i in gf2.bits_of(c):
            dense[i, j] = 1
    # plain elimination oracle
    m = dense.copy()
    rank = 0
    for col in range(m.shape[1]):
        rows = np.nonzero(m[rank:, col])[0]
        if rows.size == 0:
            continue
        pivot = rank + rows[0]
        m[[rank, pivot]] = m[[pivot, rank]]
        for r in range(m.shape[0]):
            if r != rank and m[r, col]:
                m[r] ^= m[rank]
        rank += 1
        if rank == m.shape[0]:
            break
    assert gf2.rank_of_columns(cols) == rank


@given(
    st.lists(st.integers(min_value=0, max_value=2**10 - 1), max_size=16),
    st.lists(st.integers(min_value=0, max_value=2**16 - 1), max_size=8),
)
def test_highest_bit_pivots_agree_with_the_lowest_bit_reference(vecs, picks):
    high, low = gf2.TrackedBasis(), LowestBitBasis(track=True)
    rank = 0
    for vec in vecs:
        added, combo = high.insert(vec)
        want_added, want_combo = low.insert(vec)
        assert added == want_added
        if not added:  # over the independent inserts, a dependent vector's combination is unique
            assert combo == want_combo
            assert gf2.matvec(vecs, combo) == 0
        rank += added
        assert rank == len(low)
    label = 1 << len(vecs)
    for pick in picks:  # vectors in the span, as sums of inserted ones
        vec = gf2.matvec(vecs, pick & (label - 1))
        added, combo = insert_all(vecs).insert(vec)
        assert (added, combo) == (False, low.reduce(vec)[1] | label)
        assert gf2.matvec(vecs, combo ^ label) == vec
    pivots = {}
    for vec in vecs:
        gf2.echelon_insert(pivots, vec)
    for vec in range(2**10):
        assert (not gf2.echelon_insert(dict(pivots), vec)) == (low.reduce(vec)[0] == 0)
