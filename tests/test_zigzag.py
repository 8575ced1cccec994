import pickle

import pytest

from zigzagst.dyngraph import Snapshot
from zigzagst.filtration import FiltrationMode
from zigzagst.zigzag import (
    InclusionError,
    ZPD,
    betti_consistency_check,
    build_zigzag,
    compute_zigzag_persistence,
    read_zpd_csv,
    write_zpd_csv,
)
from util import random_dynamic_network, reverse_window, union_find_components


def snap(edges, n=4, index=1, nodes=None):
    return Snapshot.from_edges(index, n, [(u, v, 0.2) for u, v in edges], nodes=nodes)


def golden_cycle_window():
    path = [(0, 1), (1, 2), (2, 3)]
    square = path + [(0, 3)]
    return [snap(path, index=1), snap(square, index=2), snap(path, index=3)]


# --- the ZPD count table ------------------------------------------------------

def test_zpd_table_validates_rows():
    for row, message in [
        ((0, 1, 4, 1), "half-index 2t = 1 below the grid start"),
        ((0, 4, 1, 1), "half-index 2t = 1 below the grid start"),
        ((0, 4, 3, 1), "death 3/2 precedes birth 2"),
        ((2, 2, 3, 1), "dimension must be 0 or 1, got 2"),
        ((1, 2, 3, 0), "count must be >= 1, got 0"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            ZPD(((1, 3, 5, 2), row))


def test_zpd_table_sorts_and_merges_rows():
    zpd = ZPD([(1, 3, 5, 1), (0, 4, 4, 2), (1, 3, 5, 2), (0, 2, 9, 1)])
    assert zpd.rows == ((0, 2, 9, 1), (0, 4, 4, 2), (1, 3, 5, 3))
    assert zpd == ZPD(((0, 2, 9, 1), (1, 3, 5, 3), (0, 4, 4, 1), (0, 4, 4, 1)))
    assert zpd != ZPD(((0, 2, 9, 1), (0, 4, 4, 2), (1, 3, 5, 2)))
    assert len(zpd) == 6 and len(ZPD(())) == 0
    assert pickle.loads(pickle.dumps(zpd)) == zpd
    with pytest.raises(AttributeError):
        zpd.rows = ()


def test_zpd_table_views_keep_counts_in_row_order():
    zpd = ZPD(((1, 3, 5, 2), (0, 2, 9, 1), (1, 2, 6, 1)))
    assert zpd.points(1) == [(1.0, 3.0, 1), (1.5, 2.5, 2)]
    assert zpd.points(0) == [(1.0, 4.5, 1)]
    assert ZPD(()).points(0) == []
    assert [zpd.count_alive(1, t) for t in range(2, 8)] == [1, 3, 3, 3, 1, 0]


@pytest.mark.parametrize("dim", [-1, 2])
def test_zpd_table_rejects_other_dimensions(dim):
    zpd = ZPD(((1, 3, 5, 2),))
    with pytest.raises(ValueError, match=f"dimension must be 0 or 1, got {dim}"):
        zpd.points(dim)
    with pytest.raises(ValueError, match=f"dimension must be 0 or 1, got {dim}"):
        zpd.count_alive(dim, 4)


# --- build_zigzag ----------------------------------------------------------------

def test_build_shapes_and_events():
    zf = build_zigzag(golden_cycle_window(), 0.5)
    assert len(zf.complexes) == 5
    assert zf.window_length == 3
    assert (0, 3) in zf.complexes[1] and (0, 3) not in zf.complexes[0]  # the square edge
    assert zf.complexes[1] == zf.complexes[2]  # union equals the second snapshot


def test_build_single_snapshot():
    zf = build_zigzag([snap([(0, 1)])], 0.5)
    assert len(zf.complexes) == 1


def test_build_unrolls_union_definition():
    g1, g2 = snap([(0, 1)], index=1), snap([(1, 2)], index=2)
    zf = build_zigzag([g1, g2], 0.5)
    union = zf.complexes[1]
    assert (0, 1) in union and (1, 2) in union


def test_inclusion_violation_named():
    # weighted-degree scale is not monotone under graph union
    g1 = snap([(0, 1)], index=1)
    g2 = snap([(0, 2), (0, 3)], index=2)
    with pytest.raises(InclusionError, match="C\\(G_1\\)"):
        build_zigzag([g1, g2], 0.45, FiltrationMode.WEIGHTED_DEGREE_SUBLEVEL)


# --- compute_zigzag_persistence ---------------------------------------------------

def test_golden_cycle_diagram():
    zpd = compute_zigzag_persistence(build_zigzag(golden_cycle_window(), 0.5))
    assert zpd.points(0) == [(1.0, 3.0, 1)]
    assert zpd.points(1) == [(1.5, 2.5, 1)]


def test_golden_merge_diagram():
    g1 = snap([(0, 1), (2, 3)], index=1)
    g2 = snap([(0, 1), (1, 2), (2, 3)], index=2)
    zpd = compute_zigzag_persistence(build_zigzag([g1, g2], 0.5))
    assert zpd.points(0) == [(1.0, 1.0, 1), (1.0, 2.0, 1)]
    assert zpd.points(1) == []


def test_single_complex_all_classes_born_and_die_at_one():
    s = Snapshot(1, 5, frozenset({0, 1, 2, 3}), {(0, 1): 0.2})
    zpd = compute_zigzag_persistence(build_zigzag([s], 0.5))
    assert zpd.points(0) == [(1.0, 1.0, 3)]


def test_isolated_nodes_full_bars():
    window = [Snapshot(i, 3, frozenset({0, 1, 2}), {}) for i in range(1, 5)]
    zpd = compute_zigzag_persistence(build_zigzag(window, 0.5))
    assert zpd.points(0) == [(1.0, 4.0, 3)]


def test_union_born_class():
    # two halves of a square in consecutive snapshots: the cycle exists
    # only in the union, so a dim-1 class is born and dies at 1.5
    g1 = snap([(0, 1), (1, 2)], index=1)
    g2 = snap([(2, 3), (0, 3)], index=2)
    zpd = compute_zigzag_persistence(build_zigzag([g1, g2], 0.5))
    assert zpd.points(1) == [(1.5, 1.5, 1)]


def test_determinism():
    window, nu = random_dynamic_network(123)
    a = compute_zigzag_persistence(build_zigzag(window, nu))
    b = compute_zigzag_persistence(build_zigzag(window, nu))
    assert a == b and a.rows


def test_betti_consistency_oracle_small():
    for seed in range(30):
        window, nu = random_dynamic_network(seed)
        zf = build_zigzag(window, nu)
        zpd = compute_zigzag_persistence(zf)
        report = betti_consistency_check(zf, zpd)
        assert report.ok, report.violations


def test_consistency_check_flags_corruption():
    zf = build_zigzag(golden_cycle_window(), 0.5)
    zpd = compute_zigzag_persistence(zf)
    corrupted = [(p, b, d + 2 if p == 1 else d, m) for p, b, d, m in zpd.rows]
    assert any(p == 1 for p, *_ in zpd.rows)
    report = betti_consistency_check(zf, ZPD(tuple(corrupted)))
    assert not report.ok and len(report.violations) >= 1


def test_dim0_bars_match_union_find_at_every_position():
    for seed in (5, 17, 99):
        window, nu = random_dynamic_network(seed)
        zf = build_zigzag(window, nu)
        zpd = compute_zigzag_persistence(zf)
        for q, cx in enumerate(zf.complexes):
            assert zpd.count_alive(0, q + 2) == union_find_components(cx)


def test_time_reversal_small():
    for seed in range(20):
        window, nu = random_dynamic_network(seed)
        t = len(window)
        fwd = compute_zigzag_persistence(build_zigzag(window, nu))
        rev = compute_zigzag_persistence(build_zigzag(reverse_window(window), nu))
        for dim in (0, 1):
            mapped = sorted((t + 1 - d, t + 1 - b, m) for b, d, m in rev.points(dim))
            assert fwd.points(dim) == mapped


# --- CSV -----------------------------------------------------------------------------

def test_zpd_csv_roundtrip(tmp_path):
    zpd = compute_zigzag_persistence(build_zigzag(golden_cycle_window(), 0.5))
    path = tmp_path / "zpd.csv"
    write_zpd_csv(zpd, path)
    back = read_zpd_csv(path)
    assert back == zpd
    assert path.read_text().splitlines()[0] == "p,twice_birth,twice_death"


def test_zpd_csv_writer_golden(tmp_path):
    zpd = ZPD(((1, 3, 7, 2), (0, 4, 4, 1), (1, 2, 9, 1), (0, 2, 6, 3)))
    path = tmp_path / "zpd.csv"
    write_zpd_csv(zpd, path)
    assert path.read_bytes() == (
        b"p,twice_birth,twice_death\n"
        b"0,2,6\n0,2,6\n0,2,6\n"
        b"0,4,4\n"
        b"1,2,9\n"
        b"1,3,7\n1,3,7\n"
    )
    write_zpd_csv(ZPD(()), path)
    assert path.read_bytes() == b"p,twice_birth,twice_death\n"


def test_zpd_csv_reader_reuses_repeated_rows(tmp_path):
    path = tmp_path / "zpd.csv"
    path.write_text(
        "p,twice_birth,twice_death\n1,3,7\n\n1,3,7\n0,2,9\np,twice_birth,twice_death\n"
        "  1,3,7  \n0,2,9\n1,3,7\n01,3,7"
    )
    assert read_zpd_csv(path) == ZPD(((1, 3, 7, 5), (0, 2, 9, 2)))


@pytest.mark.parametrize(
    "bad, message",
    [("1,3", "expected 3 fields"), ("1,x,7", "invalid literal"), ("1,3,7,9", "expected 3 fields")],
)
def test_zpd_csv_reader_names_the_first_bad_line(tmp_path, bad, message):
    path = tmp_path / "zpd.csv"
    path.write_text(f"p,twice_birth,twice_death\n1,3,7\n1,3,7\n{bad}\n1,3,7\n{bad}\n")
    with pytest.raises(ValueError, match=f"line 4: {message}"):
        read_zpd_csv(path)


def test_zpd_csv_reader_validates_points(tmp_path):
    path = tmp_path / "zpd.csv"
    for bad, message in [
        ("1,7,3", "death 3/2 precedes birth 7/2"),
        ("2,3,7", "dimension must be 0 or 1, got 2"),
        ("0,1,4", "half-index 2t = 1 below the grid start"),
    ]:
        path.write_text(f"p,twice_birth,twice_death\n1,3,7\n\n{bad}\n1,3,7\n{bad}\n")
        with pytest.raises(ValueError, match=f"zpd.csv: line 4: {message}$"):
            read_zpd_csv(path)
