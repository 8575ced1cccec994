import math
import os
import re
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, strategies as st

import zigzagst
from zigzagst import metrics
from zigzagst.metrics import MatchingResult, MatchingSizeError, linf_distance, wasserstein1
from zigzagst.zigzag import compute_zigzag_persistence, zigzag_series
from zigzagst.zpi import GridSpec, WeightingSpec, ZPIGrid, render_zpi
from util import (
    brute_force_w1, expand, independent_snapshots, random_diagram, random_dynamic_network, rows,
)
import reference_metrics


# --- wasserstein1 -----------------------------------------------------------------

def test_identical_diagrams_cost_zero():
    d = [(1.0, 3.0, 1), (2.0, 5.0, 2)]
    result = wasserstein1(d, d)
    assert result.cost == 0.0


def test_single_point_to_empty_costs_half_persistence():
    result = wasserstein1([(1.0, 3.0, 1)], [])
    assert result.cost == pytest.approx(1.0)
    assert result.pairing == (((1.0, 3.0), None),)


def test_empty_diagrams():
    assert wasserstein1([], []).cost == 0.0


def test_pairing_is_perfect_and_costs_add_up():
    d1 = [(1.0, 4.0), (2.0, 3.0)]
    d2 = [(1.5, 4.5)]
    result = wasserstein1(rows(d1), rows(d2))
    matched_1 = [a for a, _ in result.pairing if a is not None]
    matched_2 = [b for _, b in result.pairing if b is not None]
    assert sorted(matched_1) == sorted(d1)
    assert sorted(matched_2) == sorted(d2)
    total = 0.0
    for a, b in result.pairing:
        if a is not None and b is not None:
            total += max(abs(a[0] - b[0]), abs(a[1] - b[1]))
        else:
            p = a if a is not None else b
            total += (p[1] - p[0]) / 2.0
    assert result.cost == pytest.approx(total)


@given(st.integers(0, 500))
def test_matches_bruteforce_oracle(seed):
    rng = np.random.default_rng(seed)
    d1 = random_diagram(rng, t=10, max_points=4)
    d2 = random_diagram(rng, t=10, max_points=4)
    assert wasserstein1(rows(d1), rows(d2)).cost == pytest.approx(brute_force_w1(d1, d2), abs=1e-9)


@given(st.integers(0, 400))
def test_symmetry_and_identity(seed):
    rng = np.random.default_rng(seed)
    d1 = rows(random_diagram(rng, max_points=5))
    d2 = rows(random_diagram(rng, max_points=5))
    assert wasserstein1(d1, d2).cost == pytest.approx(wasserstein1(d2, d1).cost, abs=1e-12)
    assert wasserstein1(d1, d1).cost == pytest.approx(0.0, abs=1e-12)


@given(st.integers(0, 300))
def test_triangle_inequality(seed):
    rng = np.random.default_rng(seed)
    a = rows(random_diagram(rng, max_points=6))
    b = rows(random_diagram(rng, max_points=6))
    c = rows(random_diagram(rng, max_points=6))
    ab = wasserstein1(a, b).cost
    bc = wasserstein1(b, c).cost
    ac = wasserstein1(a, c).cost
    assert ac <= ab + bc + 1e-9


@given(st.integers(0, 300))
def test_cost_invariant_under_permutation(seed):
    rng = np.random.default_rng(seed)
    d1 = rows(random_diagram(rng, max_points=6))
    d2 = rows(random_diagram(rng, max_points=6))
    rng.shuffle(d1)
    base = wasserstein1(d1, d2).cost
    rng.shuffle(d1)
    assert wasserstein1(d1, d2).cost == pytest.approx(base, abs=1e-12)


def test_assignment_beats_greedy():
    # a crossing pair where greedy nearest matching is suboptimal
    d1 = [(0.0, 4.0, 1), (0.0, 10.0, 1)]
    d2 = [(0.0, 9.0, 1), (0.0, 3.0, 1)]
    cost = wasserstein1(d1, d2).cost
    greedy = max(abs(0.0), abs(4.0 - 9.0)) + max(0.0, abs(10.0 - 3.0))
    assert cost <= greedy
    assert cost == pytest.approx(2.0)


def _half_grid_pair(rng):
    """Two diagrams drawn with multiplicity from one pool of <= 15 half-grid points."""
    pool = []
    for _ in range(int(rng.integers(1, 16))):
        b = int(rng.integers(2, 24))
        pool.append((b / 2.0, (b + int(rng.integers(0, 12))) / 2.0))

    def draw():
        points = []
        for p in pool:
            if rng.random() < 0.7:
                points += [p] * int(rng.integers(1, 31))
        rng.shuffle(points)
        return points

    return draw(), draw()


def _pairing_cost(pairing):
    costs = []
    for a, b in pairing:
        if a is not None and b is not None:
            costs.append(max(abs(a[0] - b[0]), abs(a[1] - b[1])))
        else:
            p = a if a is not None else b
            costs.append((p[1] - p[0]) / 2.0)
    return math.fsum(costs)


def test_matches_dense_reference_exactly_on_half_grid():
    rng = np.random.default_rng(2024)
    shared_seen = unshared_seen = 0
    for _ in range(250):
        d1, d2 = _half_grid_pair(rng)
        result = wasserstein1(rows(d1), rows(d2))
        assert result.cost == reference_metrics.wasserstein1(d1, d2).cost
        assert sorted(a for a, _ in result.pairing if a is not None) == sorted(d1)
        assert sorted(b for _, b in result.pairing if b is not None) == sorted(d2)
        assert _pairing_cost(result.pairing) == result.cost
        shared = sum((Counter(d1) & Counter(d2)).values())
        shared_seen += shared > 0
        unshared_seen += shared < max(len(d1), len(d2))
    assert shared_seen >= 100 and unshared_seen >= 100


def test_matches_dense_reference_off_the_grid():
    # Off the grid the two paths sum different float terms, so costs agree to rounding.
    rng = np.random.default_rng(7)
    for _ in range(100):
        common = random_diagram(rng, max_points=5)
        d1 = common + random_diagram(rng, max_points=8)
        d2 = common * 2 + random_diagram(rng, max_points=8)
        want = reference_metrics.wasserstein1(d1, d2).cost
        for a, b in [(d1, d2), (d2, d1)]:  # the larger side's d(y) is taken off its columns
            assert wasserstein1(rows(a), rows(b)).cost == pytest.approx(want, abs=1e-9)


def test_shared_points_pair_with_themselves():
    d1 = [(1.0, 3.0, 3), (2.0, 6.0, 1)]
    d2 = [(1.0, 3.0, 2), (2.5, 6.0, 1)]
    result = wasserstein1(d1, d2)
    assert result.cost == 1.0 + 0.5
    assert result.pairing.count(((1.0, 3.0), (1.0, 3.0))) == 2
    assert sorted(wasserstein1(d1, d1).pairing) == sorted((p, p) for p in expand(d1))
    # a point split over several rows counts as one multiset
    assert wasserstein1([(1.0, 3.0, 1)] * 3 + [(2.0, 6.0, 1)], d2) == result


def _check_optimal_pairing(result, a, b):
    """What every optimal matching of rows ``a`` and ``b`` shows, whichever one comes back.

    Each side's points appear exactly once, shared points pair with
    themselves, and the pair costs ``fsum`` to the cost.
    """
    ea, eb = expand(a), expand(b)
    assert Counter(x for x, _ in result.pairing if x is not None) == Counter(ea)
    assert Counter(y for _, y in result.pairing if y is not None) == Counter(eb)
    shared = Counter(ea) & Counter(eb)
    assert Counter(x for x, y in result.pairing if x == y) == shared
    assert _pairing_cost(result.pairing) == result.cost


def _same_as_expanded_references(a, b):
    """Rows cost exactly what the replaced paths give the expanded lists, by a valid matching.

    Where several matchings are optimal, another assignment problem may
    return another one, so the pairing is checked for what every optimal
    matching shows, not compared with the references' pairing.
    """
    result = wasserstein1(a, b)
    ea, eb = expand(a), expand(b)
    assert result.cost == reference_metrics.wasserstein1(ea, eb).cost
    assert result.cost == reference_metrics.wasserstein1_counted(ea, eb).cost
    _check_optimal_pairing(result, a, b)


def test_matches_expanded_references_on_random_windows():
    diagrams = []
    for seed in range(30):
        window, nu = random_dynamic_network(seed)
        diagrams.append(compute_zigzag_persistence(window, nu))
    for za, zb in zip(diagrams, diagrams[1:]):
        for dim in (0, 1):
            _same_as_expanded_references(za.points(dim), zb.points(dim))


def test_matches_expanded_references_on_wide_windows():
    za, = zigzag_series(independent_snapshots(0, n=64, length=12, density=0.08), 12, 0.5)
    zb, = zigzag_series(independent_snapshots(1, n=64, length=12, density=0.08), 12, 0.5)
    for dim in (0, 1):
        _same_as_expanded_references(za.points(dim), zb.points(dim))


@pytest.mark.parametrize("count", [0, -1, 1.5, True])
def test_rejects_a_count_that_is_not_a_positive_integer(count):
    bad = [(1.0, 2.0, 1), (1.0, 3.0, count)]
    for d1, d2 in [(bad, []), ([(1.0, 3.0, 1)], bad)]:
        with pytest.raises(ValueError, match=f"count must be a positive integer, got {count}"):
            wasserstein1(d1, d2)


# rows whose times no diagram holds, and what the refusal says after naming the row
BAD_TIMES = [
    ((2.0, 1.0, 1), "death 1 precedes birth 2"),
    ((1.0, math.inf, 1), "birth and death must be finite"),
    ((-math.inf, 2.0, 1), "birth and death must be finite"),
    ((math.nan, 2.0, 1), "birth and death must be finite"),
    ((1.0, math.nan, 2), "birth and death must be finite"),
]


@pytest.mark.parametrize("row,message", BAD_TIMES)
def test_rejects_a_row_with_bad_times_naming_it(row, message):
    # before this check, a death before the birth gave a negative cost
    for d1, d2 in [([row], []), ([(1.0, 3.0, 1)], [(1.0, 2.0, 1), row])]:
        with pytest.raises(ValueError, match=re.escape(f"diagram row {row!r}: {message}")):
            wasserstein1(d1, d2)


# --- linf_distance -------------------------------------------------------------------

def _grid():
    return GridSpec(6, 0.0, 6.0, 0.0, 6.0, 0.5)


def test_linf_examples():
    g = _grid()
    z1 = render_zpi([(2.0, 4.0, 1)], g, WeightingSpec("constant"))
    assert linf_distance(z1, z1) == 0.0
    zero = render_zpi([], g, WeightingSpec("constant"))
    bumped = ZPIGrid(g, np.where(np.arange(36).reshape(6, 6) == 7, 0.5, 0.0))
    assert linf_distance(zero, bumped) == 0.5
    assert linf_distance(bumped, zero) == 0.5


def test_cli_import_leaves_scipy_optimize_unloaded(tmp_path):
    # only W1 needs scipy (scipy.optimize), and it imports it on its first call,
    # so the CLI loads no scipy module at all
    src = os.path.dirname(os.path.dirname(zigzagst.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, zigzagst.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"


def test_linf_requires_same_spec():
    z1 = render_zpi([], _grid(), WeightingSpec("constant"))
    z2 = render_zpi([], GridSpec(6, 0.0, 5.0, 0.0, 6.0, 0.5), WeightingSpec("constant"))
    with pytest.raises(ValueError):
        linf_distance(z1, z2)


def test_w1_size_guard_fires_before_any_matrix_is_built(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the assignment was entered")

    monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", unreachable)
    # the default bound: 2048 * 2049 > 2**22
    with pytest.raises(MatchingSizeError,
                       match="over 2048 and 2049 unshared points needs a 2048 x 2049 cost matrix"):
        wasserstein1([(0.0, 1.0, 2048)], [(1.0, 3.0, 2049)])
    monkeypatch.setattr(metrics, "MAX_MATCHING_DOUBLES", 5)
    shared = (0.0, 9.0, 100)  # cancelled before sizing, so it counts for nothing
    with pytest.raises(MatchingSizeError,
                       match="over 3 and 2 unshared points needs a 2 x 3 cost matrix") as info:
        wasserstein1([(1.0, 2.0, 3), shared], [(1.0, 3.0, 2), shared])
    assert isinstance(info.value, ValueError)
    monkeypatch.undo()
    monkeypatch.setattr(metrics, "MAX_MATCHING_DOUBLES", 6)  # 3 * 2 is at the bound
    assert wasserstein1([(1.0, 2.0, 3)], [(1.0, 3.0, 2)]).cost == pytest.approx(2.5)


def test_w1_of_one_point_against_4096_is_solved_as_one_row():
    # the square problem it replaced needed 4096**2 > 2**22 entries and was refused
    rng = np.random.default_rng(4096)
    many = [(int(b) / 2.0, int(b + p) / 2.0) for b, p in zip(rng.integers(0, 40, 4096),
                                                             rng.integers(0, 20, 4096))]
    one = [(100.0, 107.0)]
    want = reference_metrics.wasserstein1_counted(one, many).cost  # a 4097-square matrix
    for a, b in [(one, many), (many, one)]:
        result = wasserstein1(rows(a), rows(b))
        assert result.cost == want
        _check_optimal_pairing(result, rows(a), rows(b))


def test_w1_with_an_empty_side_builds_nothing_and_refuses_nothing(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the assignment was entered")

    monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", unreachable)
    monkeypatch.setattr(metrics, "MAX_MATCHING_DOUBLES", 1)
    big = wasserstein1([], [(1.0, 3.0, 2049)])
    assert big.cost == 2049.0
    assert big.pairing == ((None, (1.0, 3.0)),) * 2049
    shared = (0.0, 9.0, 2)  # cancelled, so the other side is empty after it
    result = wasserstein1([(1.0, 2.0, 3), (0.5, 4.0, 1), shared], [shared])
    assert result.cost == 0.5 * 3 + 1.75
    assert Counter(result.pairing) == Counter({((0.0, 9.0), (0.0, 9.0)): 2,
                                               ((1.0, 2.0), None): 3, ((0.5, 4.0), None): 1})


def test_a_pair_that_ties_with_the_diagonal_route_is_reported_as_a_pair():
    # |x - y|_inf = 2 = d(x) + d(y): both routes cost the same, and the pair is shown
    x, y = (0.0, 2.0), (2.0, 4.0)
    assert wasserstein1([(*x, 1)], [(*y, 1)]) == MatchingResult(2.0, ((x, y),))
    assert wasserstein1([(*y, 1)], [(*x, 1)]) == MatchingResult(2.0, ((y, x),))


def _small_half_grid_side(rng):
    """A multiset of at most 5 half-grid points, each held once or twice."""
    points = []
    while len(points) < int(rng.integers(0, 6)):
        b = int(rng.integers(0, 9))
        p = (b / 2.0, (b + int(rng.integers(0, 7))) / 2.0)
        points += [p] * min(int(rng.integers(1, 3)), 5 - len(points))
    return points


def _is_tie(x, y):
    return max(abs(x[0] - y[0]), abs(x[1] - y[1])) == (x[1] - x[0]) / 2.0 + (y[1] - y[0]) / 2.0


def test_square_reduction_matches_every_oracle_on_small_half_grid_multisets():
    rng = np.random.default_rng(26)
    shapes, ties = Counter(), 0
    for _ in range(400):
        d1, d2 = _small_half_grid_side(rng), _small_half_grid_side(rng)
        a, b = rows(d1), rows(d2)
        result = wasserstein1(a, b)
        assert result.cost == brute_force_w1(d1, d2)
        assert result.cost == reference_metrics.wasserstein1(d1, d2).cost
        assert result.cost == reference_metrics.wasserstein1_counted(d1, d2).cost
        assert result.cost == wasserstein1(b, a).cost
        _check_optimal_pairing(result, a, b)
        shared = Counter(d1) & Counter(d2)
        n1, n2 = len(d1) - shared.total(), len(d2) - shared.total()
        shapes[(n1 > n2) - (n1 < n2)] += n1 > 0 and n2 > 0
        ties += any(_is_tie(x, y) for x in set(d1) - set(shared) for y in set(d2) - set(shared))
    assert min(shapes[-1], shapes[0], shapes[1]) >= 20
    assert ties >= 50


def _clustered_pair(rng):
    """Two diagrams whose optimal matching is unique, with a side that has more points.

    Long bars come in pairs, one a side, around centres 10 apart, so each
    pairs with its partner at a ground cost below 1, against at least 9
    elsewhere or 5 through the diagonal.  Bars of persistence below 0.2,
    far from all others, go to the diagonal.
    """
    d1, d2 = [], []
    for k in range(int(rng.integers(0, 4))):
        for side in (d1, d2):
            b = 10.0 * k + rng.uniform(0.0, 0.4)
            side.append((b, b + 5.0 + rng.uniform(0.0, 0.4)))
    for side in (d1, d2):
        for k in range(int(rng.integers(0, 4))):
            b = 100.0 + 10.0 * k + (50.0 if side is d2 else 0.0) + rng.uniform(0.0, 1.0)
            side.append((b, b + rng.uniform(0.0, 0.2)))
    return d1, d2


def test_pairing_follows_the_reference_where_the_optimum_is_unique():
    rng = np.random.default_rng(11)
    for _ in range(100):
        d1, d2 = _clustered_pair(rng)
        for a, b in [(d1, d2), (d2, d1)]:
            got = wasserstein1(rows(a), rows(b))
            want = reference_metrics.wasserstein1_counted(a, b)
            assert Counter(got.pairing) == Counter(want.pairing)
            assert got.cost == pytest.approx(want.cost, abs=1e-9)


def test_assignment_is_min_by_max_n1_n2_rectangle_on_wide_windows(monkeypatch):
    solve = scipy.optimize.linear_sum_assignment
    shapes = []

    def recording(cost):
        shapes.append(cost.shape)
        return solve(cost)

    monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", recording)
    za, = zigzag_series(independent_snapshots(0, n=64, length=12, density=0.08), 12, 0.5)
    zb, = zigzag_series(independent_snapshots(1, n=64, length=12, density=0.08), 12, 0.5)
    want = []
    for a, b in [(za.points(1), zb.points(1)), (zb.points(1), za.points(1))]:
        c1, c2 = Counter(expand(a)), Counter(expand(b))
        n1, n2 = (c1 - c2).total(), (c2 - c1).total()
        assert n1 != n2 and min(n1, n2) > 0
        want.append((min(n1, n2), max(n1, n2)))
        wasserstein1(a, b)
    assert shapes == want
