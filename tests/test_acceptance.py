"""Acceptance suite: one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole module is deterministic (fixed seeds throughout).
"""

import math
import time

import numpy as np
from scipy import stats

from zigzagst import net
from zigzagst.dyngraph import Snapshot
from zigzagst.metrics import linf_distance, wasserstein1
from zigzagst.net import (
    Ablation,
    Adam,
    backward,
    forward,
    grad_check,
    init_params,
    mae_loss_and_grad,
    tiny_config,
)
from zigzagst.pipeline import (
    RunConfig,
    assemble_batches,
    gen_synthetic,
)
from zigzagst.zigzag import (
    betti_consistency_check,
    build_zigzag,
    compute_zigzag_persistence,
)
from zigzagst.zpi import (
    GridSpec,
    WeightingSpec,
    default_domain,
    default_theta,
    render_zpi,
)
from util import (
    brute_force_w1,
    ones_codes,
    persistence_rows,
    perturb_diagram,
    random_diagram,
    random_dynamic_network,
    reverse_window,
    rows,
    window_image,
)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {name} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_zigzag_betti_oracle_and_goldens():
    start = time.time()
    violations = 0
    for seed in range(200):
        window, nu = random_dynamic_network(seed, n_max=12, t_max=8, edge_prob=0.3)
        zpd = compute_zigzag_persistence(window, nu)
        violations += len(betti_consistency_check(build_zigzag(window, nu), zpd).violations)

    def snap(index, edges):
        return Snapshot.from_edges(index, 4, [(u, v, 0.2) for u, v in edges])

    path = [(0, 1), (1, 2), (2, 3)]
    square = path + [(0, 3)]
    golden = compute_zigzag_persistence([snap(1, path), snap(2, square), snap(3, path)], 0.5)
    goldens_ok = golden.points(0) == [(1.0, 3.0, 1)] and golden.points(1) == [(1.5, 2.5, 1)]
    merge = compute_zigzag_persistence(
        [snap(1, [(0, 1), (2, 3)]), snap(2, [(0, 1), (1, 2), (2, 3)])], 0.5
    )
    goldens_ok &= merge.points(0) == [(1.0, 1.0, 1), (1.0, 2.0, 1)]
    elapsed = time.time() - start
    _report(
        1,
        "zigzag correctness",
        violations == 0 and goldens_ok and elapsed < 60.0,
        f"0 violations required, got {violations}; goldens {'exact' if goldens_ok else 'WRONG'}; "
        f"{elapsed:.1f}s of 60s budget",
    )


def test_criterion_2_time_reversal():
    failures = 0
    for seed in range(1000, 1100):
        window, nu = random_dynamic_network(seed)
        t = len(window)
        fwd = compute_zigzag_persistence(window, nu)
        rev = compute_zigzag_persistence(reverse_window(window), nu)
        for dim in (0, 1):
            mapped = sorted((t + 1 - d, t + 1 - b, m) for b, d, m in rev.points(dim))
            if fwd.points(dim) != mapped:
                failures += 1
    _report(2, "time-reversal property", failures == 0, f"{failures} mismatches in 100 windows")


def test_criterion_3_wasserstein_vs_bruteforce():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        d1 = random_diagram(rng, t=10, max_points=5)
        d2 = random_diagram(rng, t=10, max_points=5)
        worst = max(worst, abs(wasserstein1(rows(d1), rows(d2)).cost - brute_force_w1(d1, d2)))
    _report(3, "assignment solver vs exhaustive oracle", worst <= 1e-9,
            f"worst deviation {worst:.2e} on 100 pairs")


def test_criterion_4_zpi_properties():
    domain = default_domain(12)
    grid = GridSpec(100, *domain, default_theta(domain, 100))
    weighting = WeightingSpec("linear")

    empty_ok = float(render_zpi([], grid, weighting).pixels.max()) == 0.0

    rng = np.random.default_rng(42)
    d1 = persistence_rows([(float(rng.uniform(1, 12)), float(rng.uniform(0, 4))) for _ in range(6)])
    d2 = persistence_rows([(float(rng.uniform(1, 12)), float(rng.uniform(0, 4))) for _ in range(5)])
    combined = render_zpi(d1 + d2, grid, weighting).pixels
    separate = render_zpi(d1, grid, weighting).pixels + render_zpi(d2, grid, weighting).pixels
    scale = np.maximum(np.abs(separate), 1e-300)
    additivity = float(np.max(np.abs(combined - separate) / scale))

    theta = 0.25
    wide = GridSpec(80, -8 * theta, 8 * theta, -8 * theta, 8 * theta, theta)
    mass = float(render_zpi([(0.0, 0.0, 1)], wide, WeightingSpec("constant")).pixels.sum())
    expected = 2.0 * np.pi * theta * theta
    mass_err = abs(mass - expected) / expected

    def ratios(lo, hi):
        out = []
        for seed in range(lo, hi):
            r = np.random.default_rng(seed)
            a = random_diagram(r, t=12, max_points=10)
            b = perturb_diagram(r, a, t=12) if r.random() < 0.7 else random_diagram(r, t=12, max_points=10)
            w1 = wasserstein1(rows(a), rows(b)).cost
            if w1 < 1e-9:
                continue
            za = render_zpi(rows(a), grid, weighting)
            zb = render_zpi(rows(b), grid, weighting)
            out.append(linf_distance(za, zb) / w1)
        return out

    calibrated = max(ratios(0, 150))
    held_out = max(ratios(1000, 1100))
    stable = held_out <= 1.05 * calibrated

    ok = empty_ok and additivity <= 1e-12 and mass_err <= 1e-3 and stable
    _report(
        4,
        "persistence image properties",
        ok,
        f"empty zero {empty_ok}; additivity {additivity:.1e}; mass rel err {mass_err:.1e}; "
        f"stability held-out/calibrated {held_out / calibrated:.3f} <= 1.05",
    )


def _stability_constant(grid: GridSpec, g_max: float) -> float:
    """L in ``||ZPI(D) - ZPI(D')||_inf <= L * W1(D, D')`` under linear weighting.

    One point (b, q) with weight g = min(q, cap) puts
    F = 2 pi theta^2 g(q) A(b) B(q) in a pixel, where A and B are the normal
    masses of the pixel's x and y sides: A(b) = Phi(u + h_x) - Phi(u) with
    u = (x_lo - b) / theta and h_x the pixel width over theta, and B
    likewise.  Then:

    - A <= P(h_x) = erf(h_x / 2 sqrt 2), the mass of a centred interval;
    - |A'(b)| = |phi(u + h_x) - phi(u)| / theta <= M(h_x) / theta, where
      M(h) = sup_u |phi(u + h) - phi(u)| <= min(h sup|phi'|, sup phi)
      = min(h / sqrt(2 pi e), 1 / sqrt(2 pi)) (mean value theorem, and
      0 < phi <= 1 / sqrt(2 pi));
    - g is 1-Lipschitz, g >= 0 and g(0) = 0.

    So |dF/db| <= 2 pi theta^2 g P(h_y) M(h_x) / theta and
    |dF/dq| <= 2 pi theta^2 P(h_x) (P(h_y) + g M(h_y) / theta).  W1 (L-inf
    ground metric) pairs points at cost c = max(|db|, |dd|), so
    |db| <= c and |dq| = |dd - db| <= 2c; a point paired with the diagonal
    moves to its projection at cost c = q / 2, with db = c, dq = -2c, and
    ends at g = 0, where F = 0.  Along each straight segment g stays at most
    g_max, the larger weight of either diagram, so a pair moves any pixel
    by at most c * L with

        L = 2 pi theta^2 [g_max P(h_y) M(h_x) / theta
                          + 2 P(h_x) (P(h_y) + g_max M(h_y) / theta)],

    and the image is a sum over points, so the pairs' moves add to at most
    W1 * L.  Constant weighting has no such bound: g = 1 on the diagonal.
    """
    h_x = (grid.x_hi - grid.x_lo) / grid.resolution / grid.theta
    h_y = (grid.y_hi - grid.y_lo) / grid.resolution / grid.theta

    def mass(h):
        return math.erf(h / (2.0 * math.sqrt(2.0)))

    def slope(h):
        return min(h / math.sqrt(2.0 * math.pi * math.e), 1.0 / math.sqrt(2.0 * math.pi))

    theta = grid.theta
    return 2.0 * math.pi * theta * theta * (
        g_max * mass(h_y) * slope(h_x) / theta
        + 2.0 * mass(h_x) * (mass(h_y) + g_max * slope(h_y) / theta))


def test_criterion_4_zpi_stability_bound():
    domain = default_domain(12)
    grid = GridSpec(100, *domain, default_theta(domain, 100))
    weighting = WeightingSpec("linear")

    def ratio(a, b):
        w1 = wasserstein1(a, b).cost
        g_max = max((weighting.weight(d - birth) for birth, d, _ in a + b), default=0.0)
        gap = linf_distance(render_zpi(a, grid, weighting), render_zpi(b, grid, weighting))
        if w1 == 0.0:  # the same diagram: the same image
            return 0.0 if gap == 0.0 else math.inf
        return gap / (_stability_constant(grid, g_max) * w1)

    random_ratios = []
    for seed in range(400):
        r = np.random.default_rng(seed)
        a = random_diagram(r, t=12, max_points=10)
        b = perturb_diagram(r, a, t=12) if r.random() < 0.7 else random_diagram(r, t=12, max_points=10)
        random_ratios.append(ratio(rows(a), rows(b)))
    # one point at a pixel's centre pulled out along both axes, (b, d) -> (b - c, d + c),
    # moves its persistence by 2c: the bound's persistence term does most of the work
    step = (grid.x_hi - grid.x_lo) / grid.resolution
    pulled = [ratio([(b, b + q, 1)], [(b - 1e-4, b + q + 1e-4, 1)])
              for b in domain[0] + step * (np.arange(30, 40) + 0.5)
              for q in np.linspace(4.0, 5.0, 21)]

    worst, tight = max(random_ratios), max(pulled)
    ok = worst <= 1.0 and tight <= 1.0
    _report(
        4,
        "persistence image stability bound (linear weighting)",
        ok,
        f"{len(random_ratios)} random pairs: worst |dZPI|/(L W1) {worst:.3f}; "
        f"pulled single points {tight:.3f}; both <= 1",
    )


def test_criterion_5_gradient_check():
    start = time.time()
    worst = max(grad_check(seed=seed) for seed in range(5))
    elapsed = time.time() - start
    _report(5, "gradient check (5 seeds)", worst <= 1e-4 and elapsed < 300.0,
            f"worst relative error {worst:.2e}, {elapsed:.0f}s of 300s budget")


def test_criterion_6_ablation_identity(monkeypatch):
    cfg = tiny_config()
    rng = np.random.default_rng(3)
    params = init_params(cfg, rng)
    x = rng.uniform(0, 1, (1, cfg.window, cfg.n_nodes, cfg.in_features))
    img = rng.uniform(0, 1, (1, cfg.zpi_resolution, cfg.zpi_resolution))
    idx = np.zeros(1, dtype=np.intp)
    flagged = forward(x, img, idx, params, cfg, ablation=Ablation.NO_ZIGZAG)
    # the full model with the encoder giving every layer a code of ones
    monkeypatch.setattr(net.layers, "zpi_encoder", ones_codes)
    ok = np.array_equal(flagged, forward(x, img, idx, params, cfg))
    _report(6, "no-zigzag flag is bit-identical to ones gate", ok,
            "arrays equal bitwise" if ok else "arrays differ")


def test_criterion_7_one_batch_overfit():
    cfg = tiny_config()
    rng = np.random.default_rng(7)
    x = rng.uniform(0, 1, (1, cfg.window, cfg.n_nodes, cfg.in_features))
    img = rng.uniform(0, 1, (1, cfg.zpi_resolution, cfg.zpi_resolution))
    idx = np.zeros(1, dtype=np.intp)
    y = rng.uniform(0, 1, (1, cfg.horizon, cfg.n_nodes, cfg.out_features))
    params = init_params(cfg, np.random.default_rng(cfg.seed))
    adam = Adam()
    for _ in range(500):
        pred, cache = forward(x, img, idx, params, cfg, want_cache=True)
        _, dpred = mae_loss_and_grad(pred, y)
        adam.step(params, backward(cache, dpred), lr=0.01)
    mae, _ = mae_loss_and_grad(forward(x, img, idx, params, cfg), y)
    _report(7, "one-batch overfit", mae < 1e-2, f"training MAE {mae:.2e} after 500 steps")


def _directional_pair(seed: int, delta: float) -> tuple[float, float]:
    data = gen_synthetic(
        n_nodes=16, length=160, period=12, delta=delta, noise=1.0,
        seed=seed, phase_jitter=0.25,
    )
    cfg = RunConfig(nu_star=0.5, tau=8, horizon=4, resolution=32)
    batches = assemble_batches(data.network, data.features, cfg)
    dataset = net.chronological_split(batches, (0.6, 0.2, 0.2))
    model_cfg = net.ModelConfig(
        n_nodes=16, in_features=1, out_features=1, embed_dim=2, laplacian_order=1,
        window=8, horizon=4, hidden=8, num_layers=1, zpi_resolution=32,
        learning_rate=0.008, lr_decay=0.3, plateau_patience=4,
        batch_size=16, epochs=60, seed=seed,
    )
    maes = {}
    for name, flags in (("full", Ablation.NONE), ("ablated", Ablation.NO_ZIGZAG)):
        result = net.train(dataset, model_cfg, flags)
        maes[name] = [row for row in result.history if row[1] == "test"][-1][2]
    return maes["full"], maes["ablated"]


def test_criterion_8_directional_synthetic_claim():
    start = time.time()
    full, ablated = zip(*(_directional_pair(seed, 1.0) for seed in range(10)))
    wins = sum(f < a for f, a in zip(full, ablated))

    full0, ablated0 = zip(*(_directional_pair(seed, 0.0) for seed in range(10)))
    _, pval = stats.ttest_rel(full0, ablated0)
    elapsed = time.time() - start
    ok = wins >= 8 and pval > 0.05 and elapsed < 1200.0
    _report(
        8,
        "planted-cycle gap and null control",
        ok,
        f"delta=1 wins {wins}/10 (need >=8); delta=0 paired t p={pval:.3f} (need >0.05); "
        f"{elapsed:.0f}s of 1200s budget",
    )


def test_criterion_9_zpi_throughput():
    rng = np.random.default_rng(2024)
    n = 50
    window = []
    for i in range(1, 13):
        edges = [
            (u, v, float(rng.uniform(0.05, 0.45)))
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.08
        ]
        window.append(Snapshot.from_edges(i, n, edges, nodes=range(n)))
    cfg = RunConfig(nu_star=0.5, tau=12, resolution=100, homology_dims=(0, 1))
    start = time.time()
    pixels = window_image(
        window, 0.5, cfg.filtration_mode(), cfg.grid_spec(), cfg.weighting(), (0, 1)
    )
    elapsed = time.time() - start
    _report(
        9,
        "window ZPD+ZPI throughput",
        elapsed < 1.0 and pixels.shape == (100, 100),
        f"tau=12, N=50 window in {elapsed:.3f}s of 1.0s budget",
    )
