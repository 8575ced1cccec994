import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from zigzagst import filtration, zigzag
from zigzagst.dyngraph import Snapshot, union_graph
from zigzagst.filtration import (
    MAX_TRIANGLES,
    FiltrationMode,
    SimplicialComplex,
    TriangleBudgetError,
    betti_numbers,
    build_complex,
    read_complex_dump,
    write_complex_dump,
)
from util import floyd_warshall, independent_snapshots, union_find_components


def snap(edges, n=6, index=1, nodes=None):
    return Snapshot.from_edges(index, n, edges, nodes=nodes)


def cycle4(w=0.2):
    return snap([(0, 1, w), (1, 2, w), (2, 3, w), (0, 3, w)])


# --- SimplicialComplex ----------------------------------------------------------

def dump(tmp_path, lines):
    path = tmp_path / "complex.txt"
    path.write_text("".join(line + "\n" for line in lines))
    return path


def test_face_closure_enforced(tmp_path):
    with pytest.raises(ValueError, match="edge \\(0, 1\\) is missing a vertex face"):
        read_complex_dump(dump(tmp_path, ["0 1"]))
    with pytest.raises(ValueError, match="triangle \\(0, 1, 2\\) is missing face \\(1, 2\\)"):
        read_complex_dump(dump(tmp_path, ["0", "1", "2", "0 1", "0 2", "0 1 2"]))


def test_simplices_sorted_and_dim_capped(tmp_path):
    with pytest.raises(ValueError, match="line 3: simplex \\(1, 0\\) is not sorted"):
        read_complex_dump(dump(tmp_path, ["0", "1", "1 0"]))
    with pytest.raises(ValueError, match="line 1: simplex \\(0, 1, 2, 3\\) has dimension"):
        read_complex_dump(dump(tmp_path, ["0 1 2 3"]))


def test_dump_must_be_a_flag_complex(tmp_path):
    hollow = ["0", "1", "2", "0 1", "0 2", "1 2"]
    with pytest.raises(ValueError, match="not a flag complex: triangle \\(0, 1, 2\\) is missing"):
        read_complex_dump(dump(tmp_path, hollow))
    with pytest.raises(ValueError, match="triangle \\(0, 1, 2\\) is missing face \\(0, 2\\)"):
        read_complex_dump(dump(tmp_path, ["0", "1", "2", "0 1", "1 2", "0 1 2"]))
    assert read_complex_dump(dump(tmp_path, hollow + ["0 1 2"])).triangles == ((0, 1, 2),)


def test_clique_expansion():
    cx = SimplicialComplex([0, 1, 2], [(0, 1), (1, 2), (0, 2)])
    assert cx.triangles == ((0, 1, 2),)
    assert len(cx) == 3 + 3 + 1


def test_subcomplex_and_difference():
    small = SimplicialComplex([0, 1], [(0, 1)])
    big = SimplicialComplex([0, 1, 2], [(0, 1), (1, 2)])
    assert small.is_subcomplex_of(big)
    assert not big.is_subcomplex_of(small)
    assert big.difference(small) == {(2,), (1, 2)}


def all_simplices(cx):
    """Every simplex of the flag complex of ``cx``'s graph, found by brute force."""
    edges = set(cx.edges)
    tris = {
        t for t in itertools.combinations(cx.vertices, 3)
        if all(e in edges for e in itertools.combinations(t, 2))
    }
    return {(v,) for v in cx.vertices} | edges | tris


@given(st.integers(0, 2**30), st.sampled_from(list(FiltrationMode)))
def test_complex_set_operations_match_all_simplices(seed, mode):
    rng = np.random.default_rng(seed)
    n = 40
    ids = sorted(int(v) for v in rng.choice(n, size=7, replace=False))  # sets iterate unsorted

    def random_snap(index):
        edges = [
            (u, v, float(rng.uniform(0.05, 1.0)))
            for u, v in itertools.combinations(ids, 2)
            if rng.random() < 0.5
        ]
        return snap(edges, n=n, index=index, nodes=ids)

    if mode is FiltrationMode.POWER:
        lo, hi = sorted(rng.integers(0, 4, size=2).astype(float))
    else:
        lo, hi = sorted(rng.uniform(0.0, 1.5, size=2))
    first = random_snap(1)
    complexes = [build_complex(first, float(lo), mode), build_complex(first, float(hi), mode),
                 build_complex(random_snap(2), float(hi), mode)]
    simplices = [all_simplices(cx) for cx in complexes]
    for cx, sx in zip(complexes, simplices):
        assert len(cx) == len(sx)
        assert list(cx) == sorted(sx, key=lambda s: (len(s), s))
        for s in itertools.chain.from_iterable(
            itertools.product(ids + [-1, n], repeat=k) for k in range(5)
        ):  # every tuple of length 0..4 over the ids, sorted or not, repeated or not
            assert (s in cx) == (s in sx), s
    for (a, sa), (b, sb) in itertools.permutations(zip(complexes, simplices), 2):
        assert a.is_subcomplex_of(b) == (sa <= sb)
        assert a.difference(b) == sa - sb
        assert (a == b) == (sa == sb)


def brute_force_triangles(vertices, edges):
    """Every triple of vertices whose three edges are all edges, in sorted order."""
    edges = {tuple(sorted(e)) for e in edges}
    return tuple(t for t in itertools.combinations(sorted(set(vertices)), 3)
                 if all(e in edges for e in itertools.combinations(t, 2)))


@given(st.lists(st.integers(0, 300), min_size=0, max_size=24, unique=True), st.data())
def test_bitset_triangles_equal_brute_force(ids, data):
    pairs = list(itertools.combinations(ids, 2))
    edges = data.draw(st.lists(st.sampled_from(pairs), max_size=80) if pairs else st.just([]))
    edges = [(v, u) if data.draw(st.booleans()) else (u, v) for u, v in edges]  # either orientation
    cx = SimplicialComplex(ids, edges)
    assert cx.vertices == tuple(sorted(ids))
    assert cx.edges == tuple(sorted({tuple(sorted(e)) for e in edges}))
    assert cx.triangles == brute_force_triangles(ids, edges)


@pytest.mark.parametrize("ids", [[], [5], list(range(10)), list(range(60, 75)), [0, 63, 64, 65, 127, 128, 200]])
def test_bitset_triangles_of_empty_and_complete_graphs(ids):
    assert SimplicialComplex(ids, []).triangles == ()
    complete = SimplicialComplex(ids, itertools.combinations(ids, 2))
    assert complete.triangles == brute_force_triangles(ids, itertools.combinations(ids, 2))
    assert len(complete.triangles) == math.comb(len(ids), 3)


def test_triangle_budget_raises_before_homology(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("homology was computed")

    k4 = list(itertools.combinations(range(4), 2))
    monkeypatch.setattr(filtration, "MAX_TRIANGLES", 4)  # K4 has 4 triangles, at the budget
    assert len(SimplicialComplex(range(4), k4).triangles) == 4
    monkeypatch.setattr(filtration, "MAX_TRIANGLES", 3)
    with pytest.raises(TriangleBudgetError, match="more than MAX_TRIANGLES = 3 triangles; "
                                                  "lower nu_star or the graph's density") as info:
        SimplicialComplex(range(4), k4)
    assert isinstance(info.value, ValueError)
    monkeypatch.setattr(zigzag, "_ComplexHom", unreachable)
    snaps = independent_snapshots(0, n=12, length=3, density=0.6)
    with pytest.raises(TriangleBudgetError):
        list(zigzag.zigzag_series(snaps, 2, 0.5))


def test_triangle_budget_raises_before_any_triangle_is_built(monkeypatch):
    k60 = list(itertools.combinations(range(60), 2))  # C(60, 3) = 34,220 triangles
    monkeypatch.setattr(filtration, "MAX_TRIANGLES", 30_000)
    tracemalloc.start()
    try:
        with pytest.raises(TriangleBudgetError):
            SimplicialComplex(range(60), k60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000


@given(st.integers(1, 40), st.floats(0.0, 1.0), st.integers(0, 2**30))
def test_triangle_count_never_exceeds_rivins_bound(n, density, seed):
    # a graph with m edges has at most (2m)^1.5 / 6 triangles: 36 t^2 <= 8 m^3
    pairs = list(itertools.combinations(range(n), 2))
    keep = np.random.default_rng(seed).random(len(pairs)) < density
    edges = [e for e, k in zip(pairs, keep) if k]
    t = len(SimplicialComplex(range(n), edges).triangles)
    assert 36 * t**2 <= 8 * len(edges) ** 3


def test_triangle_budget_holds_the_dense_window():
    # the densest window the engine is timed on: N = 192, density 0.2, tau = 2
    first, second = independent_snapshots(0, n=192, length=2, density=0.2)
    union = build_complex(union_graph(first, second), 0.5)
    assert 50_000 < len(union.triangles) < MAX_TRIANGLES // 10


# --- build_complex per mode -----------------------------------------------------

def test_sublevel_clique_four_cycle_has_no_triangle():
    cx = build_complex(cycle4(), 0.5, FiltrationMode.WEIGHT_SUBLEVEL_CLIQUE)
    assert len(cx.vertices) == 4 and len(cx.edges) == 4 and not cx.triangles


def test_sublevel_clique_triangle_expands():
    s = snap([(0, 1, 0.2), (1, 2, 0.2), (0, 2, 0.2)])
    cx = build_complex(s, 0.5, FiltrationMode.WEIGHT_SUBLEVEL_CLIQUE)
    assert cx.triangles == ((0, 1, 2),)


def test_sublevel_threshold_excludes_heavy_edges():
    s = snap([(0, 1, 0.2), (1, 2, 0.9)])
    cx = build_complex(s, 0.5, FiltrationMode.WEIGHT_SUBLEVEL_CLIQUE)
    assert cx.edges == ((0, 1),)
    assert (2,) in cx  # active node stays as a vertex


def test_vietoris_rips_uses_path_distance():
    # path 0-1-2 with weights 0.3: d(0,2) = 0.6 <= 0.7 connects them
    s = snap([(0, 1, 0.3), (1, 2, 0.3)])
    cx = build_complex(s, 0.7, FiltrationMode.VIETORIS_RIPS)
    assert (0, 2) in cx and cx.triangles == ((0, 1, 2),)
    cx2 = build_complex(s, 0.4, FiltrationMode.VIETORIS_RIPS)
    assert (0, 2) not in cx2


def test_vietoris_rips_unreachable_never_connected():
    s = snap([(0, 1, 0.1)], nodes=[0, 1, 4])
    cx = build_complex(s, 100.0, FiltrationMode.VIETORIS_RIPS)
    assert (4,) in cx
    assert all(4 not in e for e in cx.edges)


def test_weight_rank_ranks_heaviest_first():
    s = snap([(0, 1, 0.9), (1, 2, 0.5), (2, 3, 0.1)])
    # three distinct weights: heaviest gets scale 1/3, lightest 1
    cx = build_complex(s, 1.0 / 3.0, FiltrationMode.WEIGHT_RANK_CLIQUE)
    assert cx.edges == ((0, 1),)
    cx_all = build_complex(s, 1.0, FiltrationMode.WEIGHT_RANK_CLIQUE)
    assert len(cx_all.edges) == 3
    with pytest.raises(ValueError):
        build_complex(s, -0.1, FiltrationMode.WEIGHT_RANK_CLIQUE)


def test_power_mode_hop_counts():
    s = snap([(0, 1, 0.9), (1, 2, 0.9)])
    cx1 = build_complex(s, 1.0, FiltrationMode.POWER)
    assert (0, 2) not in cx1
    cx2 = build_complex(s, 2.0, FiltrationMode.POWER)
    assert (0, 2) in cx2 and cx2.triangles == ((0, 1, 2),)
    with pytest.raises(ValueError):
        build_complex(s, -1.0, FiltrationMode.POWER)


@given(st.integers(2, 8), st.data())
def test_path_modes_keep_the_pairs_floyd_warshall_puts_within_nu_star(n, data):
    # weights are multiples of 1/8 and nu_star of 1/16, so every path sum and comparison is exact
    pairs = data.draw(st.lists(st.sampled_from(list(itertools.combinations(range(n), 2))),
                               unique=True))
    eighths = data.draw(st.lists(st.integers(1, 16), min_size=len(pairs), max_size=len(pairs)))
    isolated = data.draw(st.sets(st.integers(0, n - 1)))
    s = snap([(u, v, k / 8) for (u, v), k in zip(pairs, eighths)], n=n, nodes=isolated)
    nu = data.draw(st.sampled_from([0.5, 1.5, 2.5]) | st.integers(0, 64).map(lambda k: k / 16))
    for mode, length in [(FiltrationMode.VIETORIS_RIPS, float),
                         (FiltrationMode.POWER, lambda w: 1.0)]:
        dist = floyd_warshall(s, length)
        cx = build_complex(s, nu, mode)
        assert cx.vertices == tuple(sorted(s.nodes))
        assert cx.edges == tuple(sorted(e for e, d in dist.items() if e[0] < e[1] and d <= nu))


def test_weighted_degree_sublevel_filters_nodes():
    s = snap([(0, 1, 0.6), (1, 2, 0.2)])
    # weighted degrees: 0 -> 0.6, 1 -> 0.8, 2 -> 0.2
    cx = build_complex(s, 0.7, FiltrationMode.WEIGHTED_DEGREE_SUBLEVEL)
    assert set(cx.vertices) == {0, 2}
    assert not cx.edges  # both kept edges touch node 1
    cx_all = build_complex(s, 1.0, FiltrationMode.WEIGHTED_DEGREE_SUBLEVEL)
    assert len(cx_all.edges) == 2


@given(st.integers(0, 2**30), st.sampled_from(list(FiltrationMode)))
def test_monotone_in_scale_and_face_closed(seed, mode):
    rng = np.random.default_rng(seed)
    edges = [
        (u, v, float(rng.uniform(0.05, 1.0)))
        for u in range(6)
        for v in range(u + 1, 6)
        if rng.random() < 0.45
    ]
    s = snap(edges, n=6, nodes=range(6))
    lo, hi = sorted(rng.uniform(0.0, 1.5, size=2))
    if mode is FiltrationMode.POWER:
        lo, hi = sorted(rng.integers(0, 4, size=2).astype(float))
    small = build_complex(s, float(lo), mode)
    large = build_complex(s, float(hi), mode)
    assert small.is_subcomplex_of(large)
    for s in large:
        assert all(face in large for face in itertools.combinations(s, len(s) - 1) if face)


@given(st.integers(0, 2**30))
def test_union_inclusion_in_sublevel_mode(seed):
    rng = np.random.default_rng(seed)

    def random_snap(index):
        edges = [
            (u, v, float(rng.uniform(0.05, 1.0)))
            for u in range(5)
            for v in range(u + 1, 5)
            if rng.random() < 0.5
        ]
        return snap(edges, n=5, index=index)

    g1, g2 = random_snap(1), random_snap(2)
    nu = float(rng.uniform(0.1, 1.0))
    u = union_graph(g1, g2)
    assert build_complex(g1, nu).is_subcomplex_of(build_complex(u, nu))
    assert build_complex(g2, nu).is_subcomplex_of(build_complex(u, nu))


# --- betti numbers ----------------------------------------------------------------

def test_betti_examples():
    four_cycle = build_complex(cycle4(), 0.5)
    assert betti_numbers(four_cycle, 0) == 1
    assert betti_numbers(four_cycle, 1) == 1
    filled = build_complex(snap([(0, 1, 0.2), (1, 2, 0.2), (0, 2, 0.2)]), 0.5)
    assert betti_numbers(filled, 0) == 1
    assert betti_numbers(filled, 1) == 0
    two_edges = build_complex(snap([(0, 1, 0.2), (2, 3, 0.2)]), 0.5)
    assert betti_numbers(two_edges, 0) == 2
    assert betti_numbers(two_edges, 1) == 0
    with pytest.raises(ValueError):
        betti_numbers(filled, 2)


@given(st.integers(0, 2**30))
def test_betti0_matches_union_find(seed):
    rng = np.random.default_rng(seed)
    edges = [
        (u, v, float(rng.uniform(0.05, 1.0)))
        for u in range(8)
        for v in range(u + 1, 8)
        if rng.random() < 0.25
    ]
    s = snap(edges, n=8, nodes=range(8))
    cx = build_complex(s, float(rng.uniform(0.1, 1.0)))
    assert betti_numbers(cx, 0) == union_find_components(cx)


def test_complex_dump_roundtrip(tmp_path):
    cx = build_complex(snap([(0, 1, 0.2), (1, 2, 0.2), (0, 2, 0.2)]), 0.5)
    path = tmp_path / "complex.txt"
    write_complex_dump(cx, path)
    assert read_complex_dump(path) == cx
    text = path.read_text().splitlines()
    assert text[0] == "0" and text[-1] == "0 1 2"
