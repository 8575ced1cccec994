"""The series engine against the per-window path it replaced, and its bounds."""

import itertools
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

from zigzagst import gf2, zigzag
from zigzagst.dyngraph import DynamicNetwork, Snapshot, write_snapshot_csv
from zigzagst.filtration import FiltrationMode, SimplicialComplex
from zigzagst.pipeline import RunConfig, cmd_zigzag
from zigzagst.zigzag import InclusionError, write_zpd_csv, zigzag_series
from reference_gf2 import TrackedBasis
from reference_zigzag import reference_window_zpd
from util import independent_snapshots, random_dynamic_network

# Complexes of these modes can fail to include into the union's.
NON_MONOTONE = (FiltrationMode.WEIGHT_RANK_CLIQUE, FiltrationMode.WEIGHTED_DEGREE_SUBLEVEL)


def slowly_changing(seed, n=20, length=12, density=0.15, churn=0.1):
    """One graph whose edge set turns over a ``churn`` share per step."""
    rng = np.random.default_rng(seed)
    pairs = list(itertools.combinations(range(n), 2))
    m = int(round(density * len(pairs)))
    k = int(round(churn * m))
    present = {int(i): float(rng.uniform(0.05, 0.45)) for i in rng.choice(len(pairs), m, replace=False)}
    snaps = []
    for t in range(1, length + 1):
        snaps.append(Snapshot(t, n, frozenset(range(n)), {pairs[i]: w for i, w in present.items()}))
        absent = sorted(set(range(len(pairs))) - set(present))
        for i in rng.choice(sorted(present), k, replace=False):
            del present[int(i)]
        for i in rng.choice(absent, k, replace=False):
            present[int(i)] = float(rng.uniform(0.05, 0.45))
    return snaps


def csv_bytes(zpd, path):
    write_zpd_csv(zpd, path)
    return path.read_bytes()


def assert_matches_reference(snaps, tau, nu, mode, tmp_path):
    """Every window's CSV bytes agree, or both paths raise InclusionError at one window.

    Returns whether the series raised InclusionError.
    """
    windows = [snaps[i : i + tau] for i in range(len(snaps) - tau + 1)]
    engine = zigzag_series(iter(snaps), tau, nu, mode)
    for k, window in enumerate(windows):
        try:
            _, got = next(engine)
        except InclusionError:
            with pytest.raises(InclusionError):
                reference_window_zpd(window, nu, mode)
            return True
        want = reference_window_zpd(window, nu, mode)
        assert csv_bytes(got, tmp_path / "got.csv") == csv_bytes(want, tmp_path / "want.csv"), (
            f"window {k} of {len(windows)}, tau {tau}, mode {mode.value}")
    assert next(engine, None) is None
    return False


def test_series_matches_per_window_reference(tmp_path):
    raised = {mode: 0 for mode in NON_MONOTONE}
    for seed in range(25):
        snaps, nu = random_dynamic_network(seed, n_max=10, t_max=10, edge_prob=0.35)
        for mode in FiltrationMode:
            # Power mode counts hops, floor(nu_star): 2 nu gives 0 or 1 hop, not always 0.
            scale = 2.0 * nu if mode is FiltrationMode.POWER else nu
            for tau in sorted({1, 2, 3, len(snaps)} & set(range(1, len(snaps) + 1))):
                if assert_matches_reference(snaps, tau, scale, mode, tmp_path):
                    assert mode in NON_MONOTONE
                    raised[mode] += 1
    assert all(raised.values()), raised  # the raising branch was exercised


def shaped_snapshot(rng, t, n, kind):
    """One snapshot of a named shape on a random subset of the n nodes.

    ``empty`` has isolated vertices only (possibly none), ``forest`` no
    cycle, ``complete`` a clique whose triangles bound every cycle, ``ring``
    a cycle no triangle fills once it has four nodes, ``random`` anything.
    """
    nodes = [int(v) for v in rng.permutation(n)[: int(rng.integers(0, n + 1))]]
    if kind == "empty":
        pairs = []
    elif kind == "forest":
        pairs = [(nodes[i], nodes[int(rng.integers(0, i))]) for i in range(1, len(nodes))
                 if rng.random() < 0.8]
    elif kind == "complete":
        pairs = list(itertools.combinations(nodes, 2))
    elif kind == "ring":
        pairs = list(zip(nodes, nodes[1:] + nodes[:1])) if len(nodes) >= 3 else []
    else:
        pairs = [pair for pair in itertools.combinations(nodes, 2) if rng.random() < 0.4]
    edges = [(u, v, float(rng.uniform(0.05, 0.45))) for u, v in pairs]
    return Snapshot.from_edges(t, n, edges, nodes=nodes)


SHAPES = ("empty", "forest", "complete", "ring", "random")


def test_series_matches_reference_on_shaped_snapshots(tmp_path):
    shapes_seen = set()
    for seed in range(45):
        rng = np.random.default_rng(seed)
        n, length = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        if seed < len(SHAPES):  # one shape throughout: no arrow mixes shapes
            kinds = [SHAPES[seed]] * length
        else:
            kinds = [SHAPES[int(k)] for k in rng.integers(0, len(SHAPES), length)]
        snaps = [shaped_snapshot(rng, t, n, kind) for t, kind in enumerate(kinds, start=1)]
        shapes_seen.update(kinds)
        for mode in FiltrationMode:
            # One hop in power mode; odd seeds keep every edge in rank mode and
            # most nodes in degree mode, even seeds raise InclusionError more.
            wide = mode is FiltrationMode.POWER or (seed % 2 and mode in NON_MONOTONE)
            scale = 1.0 if wide else 0.5
            for tau in range(1, min(4, length) + 1):
                raised = assert_matches_reference(snaps, tau, scale, mode, tmp_path)
                assert not raised or mode in NON_MONOTONE
    assert shapes_seen == set(SHAPES)


def fundamental_cycles(tree, edges):
    """Each non-tree edge with the forest path joining its endpoints, walked up by depth."""
    adj = {}
    for u, v in tree:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    up, depth = {}, {}
    for r in adj:
        if r in depth:
            continue
        depth[r] = 0
        stack = [r]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in depth:
                    up[v], depth[v] = u, depth[u] + 1
                    stack.append(v)
    cycles = []
    for e in edges:
        cycle = [e]
        a, b = e
        while a != b:
            if depth[a] < depth[b]:
                a, b = b, a
            c = up[a]
            cycle.append((c, a) if c < a else (a, c))
            a = c
        cycles.append(cycle)
    return cycles


def arrows(snaps, nu, mode=FiltrationMode.WEIGHT_SUBLEVEL_CLIQUE):
    """(direction, sub basis, sup basis) for every arrow of the series, in order."""
    homs = [zigzag._ComplexHom(cx) for cx in zigzag._series_complexes(snaps, nu, mode, True)]
    for q in range(1, len(homs)):
        if q % 2:
            yield "forward", homs[q - 1], homs[q]
        else:
            yield "backward", homs[q], homs[q - 1]


def test_h1_columns_equal_projected_fundamental_cycles_on_both_arrows():
    nonzero = {"forward": 0, "backward": 0}
    for seed in range(4):
        snaps = slowly_changing(seed, n=16, length=6, density=0.3, churn=0.3)
        for direction, sub, sup in arrows(snaps, 0.5):
            by_path = []
            for cycle in fundamental_cycles(sub.tree, sub.reps1):
                vec = 0
                for a, b in cycle:
                    vec ^= sup._bit[a][b]
                by_path.append(sup.coords(vec))
            assert zigzag._induced_map(1, sub, sup) == by_path, direction
            nonzero[direction] += sum(1 for col in by_path if col)
    assert all(nonzero.values()), nonzero  # representatives survive both ways


def forward_by_unit_inserts(sweep, q, cols, m):
    """The forward step as a lowest-bit echelon of the images, then every unit vector."""
    images = TrackedBasis()
    live = []
    for vec, birth in sweep.live:
        image = gf2.matvec(cols, vec)
        if images.insert(image)[0]:
            live.append((image, birth))
        else:
            sweep.closed.append((birth, q - 1))
    for i in range(m):
        if images.insert(1 << i)[0]:
            live.append((1 << i, q))
    sweep.live = live


@given(st.integers(0, 8), st.integers(0, 8), st.data())
def test_forward_sweep_equals_unit_inserts_into_a_lowest_bit_basis(n, m, data):
    cols = data.draw(st.lists(st.integers(0, 2**m - 1), min_size=n, max_size=n))
    classes = data.draw(st.lists(st.integers(0, 2**n - 1), max_size=n))
    q = 20
    got, want = zigzag._Sweep(q - 1, 0), zigzag._Sweep(q - 1, 0)
    for sweep in (got, want):
        sweep.live = [(vec, 2 + k) for k, vec in enumerate(classes)]
        sweep.closed.append((2, 3))
    got.forward(q, cols, m)
    forward_by_unit_inserts(want, q, cols, m)
    assert got.live == want.live
    assert got.closed == want.closed


def test_series_matches_reference_on_slowly_changing_graph(tmp_path):
    snaps = slowly_changing(seed=7)
    for mode in (FiltrationMode.WEIGHT_SUBLEVEL_CLIQUE, FiltrationMode.VIETORIS_RIPS):
        for tau in (3, 4, len(snaps)):
            assert not assert_matches_reference(snaps, tau, 0.5, mode, tmp_path)


def arrow_kinds(zpd, twice_end):
    """(birth arrow, death arrow) of each H1 bar that has both inside the window.

    Positions alternate snapshot (even twice) and union (odd twice): a bar
    born at a union came in by a forward arrow and one born at a later
    snapshot by a backward arrow; a bar ending at a snapshot before the
    window's end dies at a forward arrow and one ending at a union at a
    backward arrow.
    """
    kinds = set()
    for dim, b, d, _ in zpd.rows:
        born = "forward" if b % 2 else "backward" if b > 2 else None
        dies = "backward" if d % 2 else "forward" if d < twice_end else None
        if dim == 1 and born and dies:
            kinds.add((born, dies))
    return kinds


def test_series_matches_reference_on_dense_independent_snapshots(tmp_path):
    kinds = set()
    # Unions of density-0.3 clique complexes rarely hold a cycle neither
    # snapshot has; the 0.25 series supplies the union-born bars.
    for seed, (n, length, density) in enumerate([(16, 8, 0.25), (20, 7, 0.3), (24, 6, 0.3)]):
        snaps = independent_snapshots(seed, n, length, density)
        for tau in (2, 3, length):
            assert not assert_matches_reference(
                snaps, tau, 0.5, FiltrationMode.WEIGHT_SUBLEVEL_CLIQUE, tmp_path)
        ((_, whole),) = zigzag_series(snaps, length, 0.5)
        kinds |= arrow_kinds(whole, 2 * length)
    # Both rules for which class ends ran: every birth arrow meets every death arrow.
    assert kinds == set(itertools.product(("forward", "backward"), repeat=2))


def degree_violation_series():
    """Six snapshots whose only failing arrow is C(G_4) -> C(G_4 u G_5)."""
    before = [(0, 1, 0.2)]
    after = [(0, 2, 0.2), (0, 3, 0.2)]
    return [Snapshot.from_edges(t, 4, before if t <= 4 else after) for t in range(1, 7)]


def test_inclusion_violation_names_snapshot_times_mid_series(tmp_path):
    snaps = degree_violation_series()
    mode = FiltrationMode.WEIGHTED_DEGREE_SUBLEVEL
    with pytest.raises(InclusionError, match=r"arrow C\(G_4\) -> C\(G_4 u G_5\) violates"):
        list(zigzag_series(snaps, 2, 0.45, mode))
    path = tmp_path / "snapshots.csv"
    write_snapshot_csv(DynamicNetwork(tuple(snaps), 4), path)
    cfg = RunConfig(snapshots=str(path), outdir=str(tmp_path / "out"), nu_star=0.45, tau=2,
                    filtration=mode.value)
    with pytest.raises(InclusionError, match=r"C\(G_4\) -> C\(G_4 u G_5\)"):
        cmd_zigzag(cfg)


class _TrackedComplex(SimplicialComplex):
    __slots__ = ("__weakref__",)


def test_series_memory_is_bounded(monkeypatch):
    tau, length = 4, 200
    live = weakref.WeakSet()
    build = zigzag.build_complex

    def tracked(*args, **kwargs):
        cx = build(*args, **kwargs)
        tracked_cx = _TrackedComplex(cx.vertices, cx.edges)
        live.add(tracked_cx)
        return tracked_cx

    monkeypatch.setattr(zigzag, "build_complex", tracked)
    consumed = []

    def series():
        rng = np.random.default_rng(0)
        for t in range(1, length + 1):
            consumed.append(t)
            edges = [(u, v, 0.2) for u, v in itertools.combinations(range(6), 2)
                     if rng.random() < 0.4]
            yield Snapshot.from_edges(t, 6, edges, nodes=range(6))

    stale = []
    clip = zigzag._Sweep.clip

    def checked_clip(self, p, s, e, rows):
        stale.extend(bar for bar in self.closed if bar[1] < s)
        return clip(self, p, s, e, rows)

    monkeypatch.setattr(zigzag._Sweep, "clip", checked_clip)
    peak = windows = 0
    for zf, _ in zigzag_series(series(), tau, 0.5):
        assert len(consumed) == windows + tau  # each window needs only its own snapshots
        assert len(zf.complexes) == 2 * tau - 1
        del zf
        peak = max(peak, len(live))
        windows += 1
    assert windows == length - tau + 1
    assert peak <= 2 * tau - 1  # one window's complexes, not the series'
    assert not stale  # no bar that ended before the window's start is still held
