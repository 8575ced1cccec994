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
from zigzagst.metrics import MatchingSizeError, linf_distance, wasserstein1
from zigzagst.zigzag import build_zigzag, compute_zigzag_persistence, zigzag_series
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
        got = wasserstein1(rows(d1), rows(d2)).cost
        assert got == pytest.approx(reference_metrics.wasserstein1(d1, d2).cost, abs=1e-9)


def test_shared_points_pair_with_themselves():
    d1 = [(1.0, 3.0, 3), (2.0, 6.0, 1)]
    d2 = [(1.0, 3.0, 2), (2.5, 6.0, 1)]
    result = wasserstein1(d1, d2)
    assert result.cost == 1.0 + 0.5
    assert result.pairing.count(((1.0, 3.0), (1.0, 3.0))) == 2
    assert sorted(wasserstein1(d1, d1).pairing) == sorted((p, p) for p in expand(d1))
    # a point split over several rows counts as one multiset
    assert wasserstein1([(1.0, 3.0, 1)] * 3 + [(2.0, 6.0, 1)], d2) == result


def _same_as_expanded_references(a, b):
    """Rows match as the replaced paths match the expanded lists: cost and pairing."""
    result = wasserstein1(a, b)
    ea, eb = expand(a), expand(b)
    assert result.cost == reference_metrics.wasserstein1(ea, eb).cost
    counted = reference_metrics.wasserstein1_counted(ea, eb)
    assert Counter(result.pairing) == Counter(counted.pairing)


def test_matches_expanded_references_on_random_windows():
    diagrams = []
    for seed in range(30):
        window, nu = random_dynamic_network(seed)
        diagrams.append(compute_zigzag_persistence(build_zigzag(window, nu)))
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
    # the default bound: 2049**2 > 2**22
    with pytest.raises(MatchingSizeError, match="over 0 and 2049 unshared points"):
        wasserstein1([], [(1.0, 3.0, 2049)])
    monkeypatch.setattr(metrics, "MAX_MATCHING_DOUBLES", 24)
    shared = (0.0, 9.0, 100)  # cancelled before sizing, so it counts for nothing
    with pytest.raises(MatchingSizeError, match="over 3 and 2 unshared points") as info:
        wasserstein1([(1.0, 2.0, 3), shared], [(1.0, 3.0, 2), shared])
    assert isinstance(info.value, ValueError)
    monkeypatch.undo()
    monkeypatch.setattr(metrics, "MAX_MATCHING_DOUBLES", 25)  # (3 + 2)**2 is at the bound
    assert wasserstein1([(1.0, 2.0, 3)], [(1.0, 3.0, 2)]).cost == pytest.approx(2.5)
