"""The series engine against the per-window path it replaced, and its bounds."""

import itertools
import weakref

import numpy as np
import pytest

from zigzagst import zigzag
from zigzagst.dyngraph import DynamicNetwork, Snapshot, write_snapshot_csv
from zigzagst.filtration import FiltrationMode, SimplicialComplex
from zigzagst.pipeline import RunConfig, cmd_zigzag, random_dynamic_network
from zigzagst.zigzag import InclusionError, write_zpd_csv, zigzag_series
from reference_zigzag import reference_window_zpd

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


def test_series_matches_reference_on_slowly_changing_graph(tmp_path):
    snaps = slowly_changing(seed=7)
    for mode in (FiltrationMode.WEIGHT_SUBLEVEL_CLIQUE, FiltrationMode.VIETORIS_RIPS):
        for tau in (3, 4, len(snaps)):
            assert not assert_matches_reference(snaps, tau, 0.5, mode, tmp_path)


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
        cx = _TrackedComplex(build(*args, **kwargs))
        live.add(cx)
        return cx

    monkeypatch.setattr(zigzag, "build_complex", tracked)
    consumed = []

    def series():
        rng = np.random.default_rng(0)
        for t in range(1, length + 1):
            consumed.append(t)
            edges = [(u, v, 0.2) for u, v in itertools.combinations(range(6), 2)
                     if rng.random() < 0.4]
            yield Snapshot.from_edges(t, 6, edges, nodes=range(6))

    peak = windows = 0
    for zf, _ in zigzag_series(series(), tau, 0.5):
        assert len(consumed) == windows + tau  # each window needs only its own snapshots
        assert len(zf.complexes) == 2 * tau - 1
        del zf
        peak = max(peak, len(live))
        windows += 1
    assert windows == length - tau + 1
    assert peak <= 2 * tau - 1  # one window's complexes, not the series'
