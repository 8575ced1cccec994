import pytest

from zigzagst.dyngraph import Snapshot
from zigzagst.filtration import FiltrationMode
from zigzagst.pipeline import random_dynamic_network
from zigzagst.zigzag import (
    DiagramPoint,
    HalfIndex,
    InclusionError,
    ZPD,
    betti_consistency_check,
    build_zigzag,
    compute_zigzag_persistence,
    read_zpd_csv,
    write_zpd_csv,
)
from util import reverse_window, union_find_components


def snap(edges, n=4, index=1, nodes=None):
    return Snapshot.from_edges(index, n, [(u, v, 0.2) for u, v in edges], nodes=nodes)


def golden_cycle_window():
    path = [(0, 1), (1, 2), (2, 3)]
    square = path + [(0, 3)]
    return [snap(path, index=1), snap(square, index=2), snap(path, index=3)]


# --- HalfIndex / types ---------------------------------------------------------

def test_half_index_grid():
    assert HalfIndex(2).value == 1.0 and not HalfIndex(2).is_union
    assert HalfIndex(3).value == 1.5 and HalfIndex(3).is_union
    assert str(HalfIndex(3)) == "3/2" and str(HalfIndex(4)) == "2"
    with pytest.raises(ValueError):
        HalfIndex(1)


def test_diagram_point_ordering_constraint():
    with pytest.raises(ValueError):
        DiagramPoint(0, HalfIndex(4), HalfIndex(3))
    with pytest.raises(ValueError):
        DiagramPoint(2, HalfIndex(2), HalfIndex(3))


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
    assert zpd.pairs(0) == [(1.0, 3.0)]
    assert zpd.pairs(1) == [(1.5, 2.5)]


def test_golden_merge_diagram():
    g1 = snap([(0, 1), (2, 3)], index=1)
    g2 = snap([(0, 1), (1, 2), (2, 3)], index=2)
    zpd = compute_zigzag_persistence(build_zigzag([g1, g2], 0.5))
    assert sorted(zpd.pairs(0)) == [(1.0, 1.0), (1.0, 2.0)]
    assert zpd.pairs(1) == []


def test_single_complex_all_classes_born_and_die_at_one():
    s = Snapshot(1, 5, frozenset({0, 1, 2, 3}), {(0, 1): 0.2})
    zpd = compute_zigzag_persistence(build_zigzag([s], 0.5))
    assert zpd.pairs(0) == [(1.0, 1.0)] * 3


def test_isolated_nodes_full_bars():
    window = [Snapshot(i, 3, frozenset({0, 1, 2}), {}) for i in range(1, 5)]
    zpd = compute_zigzag_persistence(build_zigzag(window, 0.5))
    assert zpd.pairs(0) == [(1.0, 4.0)] * 3


def test_union_born_class():
    # two halves of a square in consecutive snapshots: the cycle exists
    # only in the union, so a dim-1 class is born and dies at 1.5
    g1 = snap([(0, 1), (1, 2)], index=1)
    g2 = snap([(2, 3), (0, 3)], index=2)
    zpd = compute_zigzag_persistence(build_zigzag([g1, g2], 0.5))
    assert zpd.pairs(1) == [(1.5, 1.5)]


def test_determinism():
    window, nu = random_dynamic_network(123)
    a = compute_zigzag_persistence(build_zigzag(window, nu))
    b = compute_zigzag_persistence(build_zigzag(window, nu))
    assert a.points == b.points


def test_maxdim_restricted():
    with pytest.raises(ValueError):
        compute_zigzag_persistence(build_zigzag(golden_cycle_window(), 0.5), maxdim=2)


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
    corrupted = []
    for p in zpd.points:
        if p.dim == 1:
            corrupted.append(DiagramPoint(1, p.birth, HalfIndex(p.death.twice + 2)))
        else:
            corrupted.append(p)
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
            mapped = sorted((t + 1 - d, t + 1 - b) for b, d in rev.pairs(dim))
            assert sorted(fwd.pairs(dim)) == mapped


# --- CSV -----------------------------------------------------------------------------

def test_zpd_csv_roundtrip(tmp_path):
    zpd = compute_zigzag_persistence(build_zigzag(golden_cycle_window(), 0.5))
    path = tmp_path / "zpd.csv"
    write_zpd_csv(zpd, path)
    back = read_zpd_csv(path)
    assert back.points == zpd.points
    assert path.read_text().splitlines()[0] == "p,twice_birth,twice_death"
