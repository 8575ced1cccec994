"""End-to-end orchestration: config files, synthetic data, and commands.

Each ``cmd_*`` function implements one CLI subcommand in terms of the
library modules and writes its outputs under ``config.outdir``.  All
commands are deterministic for a fixed config and seed.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import os
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from . import net
from .dyngraph import (
    DynamicNetwork,
    FeatureSeries,
    Snapshot,
    read_feature_csv,
    read_snapshot_csv,
    window_count,
    write_feature_csv,
    write_snapshot_csv,
)
from .filtration import (
    FiltrationMode,
    SimplicialComplex,
    betti_numbers,
    build_complex,
    write_complex_dump,
)
from .metrics import wasserstein1
from .zigzag import (
    ZPD,
    _consistency_report,
    # The one-window API stays importable here: perfbench/tracing.py wraps it by this name.
    build_zigzag,  # noqa: F401
    compute_zigzag_persistence,  # noqa: F401
    read_zpd_csv,
    write_zpd_csv,
    zigzag_series,
)
from .zpi import (
    GridSpec,
    WeightingSpec,
    default_domain,
    default_theta,
    render_zpi,
    transform_diagram,
    write_pgm,
    write_zpi,
)

__all__ = [
    "RunConfig",
    "SyntheticData",
    "gen_synthetic",
    "random_dynamic_network",
    "window_image",
    "assemble_batches",
    "cmd_filtrate",
    "cmd_zigzag",
    "cmd_zpi",
    "cmd_distance",
    "cmd_synth",
    "cmd_train",
    "cmd_forecast",
    "cmd_ablate",
    "cmd_gradcheck",
]

_MODE_NAMES = {m.value: m for m in FiltrationMode}


@dataclass
class RunConfig:
    """Flat key-value run configuration; every key is overridable."""

    snapshots: str = ""
    features: str = ""
    outdir: str = "out"
    universe_size: int = 0          # 0 = infer from data
    filtration: str = "weight-sublevel-clique"
    nu_star: float = math.nan       # required, no default
    tau: int = 12
    horizon: int = 12
    homology_dims: tuple[int, ...] = (1,)
    resolution: int = 100
    theta: float = 0.0              # 0 = default (two birth-axis grid steps)
    weight_kind: str = "linear"
    weight_cap: float = math.inf
    out_features: int = 1
    embed_dim: int = 2
    laplacian_order: int = 2
    hidden: int = 16
    num_layers: int = 2
    learning_rate: float = 0.003
    lr_decay: float = 0.3
    batch_size: int = 16
    epochs: int = 50
    split: tuple[float, ...] = (0.6, 0.2, 0.2)
    ablation: str = "none"
    noise_sigma: float = 0.0
    noise_fraction: float = 0.3
    jobs: int = 1
    check: bool = False
    seed: int = 0
    # synthetic generation
    synth_nodes: int = 16
    synth_length: int = 200
    synth_period: int = 4
    synth_delta: float = 1.0
    synth_noise: float = 0.1

    @classmethod
    def from_file(cls, path: str | None, overrides: dict[str, str] | None = None) -> "RunConfig":
        raw: dict[str, str] = {}
        if path:
            with open(path, "r", encoding="ascii") as fh:
                for lineno, line in enumerate(fh, start=1):
                    line = line.strip()
                    if not line or line.startswith("#"):
                        continue
                    if "=" not in line:
                        raise ValueError(f"{path}: line {lineno}: expected key = value")
                    key, _, value = line.partition("=")
                    raw[key.strip()] = value.strip()
        raw.update(overrides or {})
        cfg = cls()
        valid = {f.name: f for f in fields(cls)}
        parsed = {}
        for key, value in raw.items():
            if key not in valid:
                raise ValueError(f"unknown config key {key!r}")
            parsed[key] = _coerce(key, value, getattr(cfg, key))
        return replace(cfg, **parsed)

    def filtration_mode(self) -> FiltrationMode:
        if self.filtration not in _MODE_NAMES:
            raise ValueError(
                f"unknown filtration {self.filtration!r}; choose from {sorted(_MODE_NAMES)}"
            )
        return _MODE_NAMES[self.filtration]

    def require_nu_star(self) -> float:
        if math.isnan(self.nu_star):
            raise ValueError("nu_star must be set (no default scale parameter)")
        return self.nu_star

    def grid_spec(self) -> GridSpec:
        domain = default_domain(self.tau)
        theta = self.theta if self.theta > 0 else default_theta(domain, self.resolution)
        return GridSpec(self.resolution, *domain, theta)

    def weighting(self) -> WeightingSpec:
        return WeightingSpec(self.weight_kind, self.weight_cap)

    def ablation_flags(self) -> net.Ablation:
        table = {
            "none": net.Ablation(),
            "no-zigzag": net.Ablation(no_zigzag=True),
            "no-spatial": net.Ablation(no_spatial=True),
            "no-temporal": net.Ablation(no_temporal=True),
        }
        if self.ablation not in table:
            raise ValueError(f"unknown ablation {self.ablation!r}; choose from {sorted(table)}")
        return table[self.ablation]


_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _coerce(key: str, value: str, current):
    if isinstance(current, bool):
        if value.lower() not in _BOOLEANS:
            raise ValueError(f"{key} must be one of {sorted(_BOOLEANS)}, got {value!r}")
        return _BOOLEANS[value.lower()]
    if isinstance(current, int):
        return int(value)
    if isinstance(current, float):
        return float(value)
    if isinstance(current, tuple):
        parts = [p for p in value.replace(",", " ").split() if p]
        kind = float if current and isinstance(current[0], float) else int
        return tuple(kind(p) for p in parts)
    return value


# ---------------------------------------------------------------------------
# Data generation


@dataclass(frozen=True)
class SyntheticData:
    network: DynamicNetwork
    features: FeatureSeries
    indicator: np.ndarray  # (T,) 0/1 cycle presence


def gen_synthetic(
    n_nodes: int = 16,
    length: int = 200,
    period: int = 4,
    delta: float = 1.0,
    noise: float = 0.1,
    seed: int = 0,
    phase_jitter: float = 0.0,
) -> SyntheticData:
    """Dynamic network with a planted chordless 4-cycle and dependent signals.

    Nodes 0..3 carry the cycle, present during the first half of each
    period; the remaining nodes form a fixed random tree, so the graph
    has exactly one independent cycle when the indicator is on and none
    otherwise.  Node signals are base + delta * indicator + noise, which
    makes the topological channel predictive by construction (delta = 0
    removes the signal, not the cycle).

    ``phase_jitter`` is the per-step probability that the cycle phase
    stalls, turning the strictly periodic indicator into a quasi-periodic
    one whose timing cannot be extrapolated without reading the recent
    window.
    """
    if n_nodes < 6:
        raise ValueError("need at least 6 nodes (4 cycle nodes plus a tree)")
    if period < 2:
        raise ValueError("period must be >= 2")
    rng = np.random.default_rng(seed)
    tree_nodes = list(range(4, n_nodes))
    tree_edges = []
    for i in range(1, len(tree_nodes)):
        parent = tree_nodes[int(rng.integers(0, i))]
        tree_edges.append((parent, tree_nodes[i], float(rng.uniform(0.1, 0.35))))
    cycle_edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
    phase = 0
    phases = []
    for _ in range(length):
        phases.append(phase)
        if rng.random() >= phase_jitter:
            phase = (phase + 1) % period
    indicator = np.array([1 if p < period // 2 else 0 for p in phases])

    snaps = []
    for t in range(length):
        edges = list(tree_edges)
        if indicator[t]:
            edges.extend((u, v, 0.2) for u, v in cycle_edges)
        snaps.append(Snapshot.from_edges(t + 1, n_nodes, edges, nodes=range(n_nodes)))
    network = DynamicNetwork(tuple(snaps), n_nodes)

    base = rng.uniform(0.5, 1.5, n_nodes)
    phase = rng.uniform(0.0, 2.0 * math.pi, n_nodes)
    tgrid = np.arange(length)[:, None]
    values = (
        base[None, :]
        + 0.25 * np.sin(2.0 * math.pi * tgrid / 29.0 + phase[None, :])
        + delta * indicator[:, None]
        + noise * rng.normal(size=(length, n_nodes))
    )
    return SyntheticData(network, FeatureSeries(values[:, :, None]), indicator)


def random_dynamic_network(
    seed: int,
    n_max: int = 12,
    t_max: int = 8,
    edge_prob: float = 0.3,
) -> tuple[list[Snapshot], float]:
    """Random snapshot window plus a random scale, for oracle-style tests."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, n_max + 1))
    t = int(rng.integers(1, t_max + 1))
    snaps = []
    for i in range(1, t + 1):
        edges = [
            (u, v, float(rng.uniform(0.05, 1.0)))
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < edge_prob
        ]
        active = {x for u, v, _ in edges for x in (u, v)}
        active |= {u for u in range(n) if rng.random() < 0.2}
        snaps.append(Snapshot.from_edges(i, n, edges, nodes=active))
    return snaps, float(rng.uniform(0.1, 1.0))


# ---------------------------------------------------------------------------
# Window features


def _diagram_image(
    zpd: ZPD, grid: GridSpec, weighting: WeightingSpec, homology_dims: tuple[int, ...]
) -> np.ndarray:
    """ZPI of a diagram; multiple dimensions sum pixelwise."""
    pixels = np.zeros((grid.resolution, grid.resolution))
    for dim in homology_dims:
        pixels += render_zpi(transform_diagram(zpd, dim), grid, weighting).pixels
    return pixels


def window_image(
    window,
    nu_star: float,
    mode: FiltrationMode,
    grid: GridSpec,
    weighting: WeightingSpec,
    homology_dims: tuple[int, ...] = (1,),
) -> np.ndarray:
    """ZPD then ZPI for one window; multiple dimensions sum pixelwise."""
    ((_, zpd),) = zigzag_series(window, len(window), nu_star, mode)
    return _diagram_image(zpd, grid, weighting, homology_dims)


def assemble_batches(
    network: DynamicNetwork,
    features: FeatureSeries,
    config: RunConfig,
) -> list[net.Batch]:
    """One batch per forecastable window; images are computed once each.

    The forecastable windows are exactly the windows of the first T - horizon
    snapshots, so the series engine runs on that prefix.
    """
    nu = config.require_nu_star()
    mode = config.filtration_mode()
    grid = config.grid_spec()
    weighting = config.weighting()
    tau, h = config.tau, config.horizon
    t_len = len(network)
    if features.shape[0] != t_len:
        raise ValueError("feature series length does not match the network")
    window_count(t_len, tau)  # rejects tau < 1 and tau > T
    values = features.values
    batches = []
    diagrams = zigzag_series(network.snapshots[: max(t_len - h, 0)], tau, nu, mode)
    for start, (_, zpd) in enumerate(diagrams):
        batches.append(
            net.Batch(
                inputs=values[start : start + tau],
                image=_diagram_image(zpd, grid, weighting, config.homology_dims),
                targets=values[start + tau : start + tau + h, :, : config.out_features],
            )
        )
    return batches


def _model_config(config: RunConfig, n_nodes: int, in_features: int) -> net.ModelConfig:
    return net.ModelConfig(
        n_nodes=n_nodes,
        in_features=in_features,
        out_features=config.out_features,
        embed_dim=config.embed_dim,
        laplacian_order=config.laplacian_order,
        window=config.tau,
        horizon=config.horizon,
        hidden=config.hidden,
        num_layers=config.num_layers,
        zpi_resolution=config.resolution,
        learning_rate=config.learning_rate,
        lr_decay=config.lr_decay,
        batch_size=config.batch_size,
        epochs=config.epochs,
        seed=config.seed,
    )


def _load_data(config: RunConfig) -> tuple[DynamicNetwork, FeatureSeries]:
    if not config.snapshots or not config.features:
        raise ValueError("snapshots and features paths are required")
    network = read_snapshot_csv(config.snapshots, config.universe_size or None)
    features = read_feature_csv(config.features)
    if features.shape[1] < network.universe_size:
        raise ValueError("feature series covers fewer nodes than the network universe")
    return network, features


def _inject_noise(batches: list[net.Batch], n_train: int, config: RunConfig) -> list[net.Batch]:
    """Gaussian noise on a fraction of the training windows (inputs only)."""
    if config.noise_sigma <= 0:
        return batches
    rng = np.random.default_rng(config.seed + 1)
    chosen = rng.permutation(n_train)[: int(round(config.noise_fraction * n_train))]
    noisy = list(batches)
    for idx in chosen:
        b = noisy[idx]
        noisy[idx] = net.Batch(
            b.inputs + rng.normal(0.0, config.noise_sigma, b.inputs.shape),
            b.image,
            b.targets,
        )
    return noisy


# ---------------------------------------------------------------------------
# Commands


def _ensure_outdir(config: RunConfig) -> str:
    os.makedirs(config.outdir, exist_ok=True)
    return config.outdir


def cmd_filtrate(config: RunConfig) -> dict:
    """Complexes and Betti summary for every snapshot."""
    out = _ensure_outdir(config)
    nu = config.require_nu_star()
    mode = config.filtration_mode()
    network = read_snapshot_csv(config.snapshots, config.universe_size or None)
    betti_path = os.path.join(out, "betti.csv")
    dumps = []
    with open(betti_path, "w", encoding="ascii") as fh:
        fh.write("t,b0,b1\n")
        for s in network:
            cx = build_complex(s, nu, mode)
            path = os.path.join(out, f"complex_t{s.index}.txt")
            write_complex_dump(cx, path)
            dumps.append(path)
            fh.write(f"{s.index},{betti_numbers(cx, 0)},{betti_numbers(cx, 1)}\n")
    return {"betti": betti_path, "complexes": dumps}


def _zigzag_block(snapshots, tau: int, nu: float, mode: FiltrationMode, check: bool):
    """(diagram, Betti violations) of every window of a run of snapshots.

    The engine hands overlapping windows the same complex objects, so
    ``check`` computes each complex's Betti numbers once and keeps them
    while a window still holds the complex.
    """
    betti: dict[int, tuple[SimplicialComplex, tuple[int, int]]] = {}
    for zf, zpd in zigzag_series(snapshots, tau, nu, mode):
        violations = 0
        if check:
            betti = {
                id(cx): betti.get(id(cx)) or (cx, (betti_numbers(cx, 0), betti_numbers(cx, 1)))
                for cx in zf.complexes
            }
            report = _consistency_report(zpd, [betti[id(cx)][1] for cx in zf.complexes])
            violations = len(report.violations)
        yield zpd, violations


def _zigzag_worker(args):
    plain, n, tau, nu, mode_name, check = args
    snapshots = [Snapshot.from_edges(t, n, edges, nodes=nodes) for t, edges, nodes in plain]
    return list(_zigzag_block(snapshots, tau, nu, _MODE_NAMES[mode_name], check))


_WINDOW_FILE = re.compile(r"zpd_window_\d{4,}(\.csv|_dim\d+\.(zpi|pgm))")


def _remove_window_files(out: str) -> None:
    """Delete an earlier run's window diagrams and the images rendered from them."""
    for name in os.listdir(out):
        if _WINDOW_FILE.fullmatch(name):
            os.remove(os.path.join(out, name))


def _write_diagrams(out: str, results) -> tuple[list[str], int]:
    """Write one CSV per window as results arrive; returns paths and summed violations."""
    paths = []
    total_violations = 0
    for index, (zpd, violations) in enumerate(results):
        total_violations += violations
        path = os.path.join(out, f"zpd_window_{index:04d}.csv")
        write_zpd_csv(zpd, path)
        paths.append(path)
    return paths, total_violations


def cmd_zigzag(config: RunConfig) -> dict:
    """Persistence diagram CSV per sliding window.

    With ``jobs > 1`` the windows are split into that many contiguous
    blocks, and each worker process runs the series engine on the
    snapshots its block spans.  Window diagrams and images left in
    ``outdir`` by an earlier run are removed first, so ``cmd_zpi`` sees
    only this run's windows.
    """
    out = _ensure_outdir(config)
    nu = config.require_nu_star()
    mode = config.filtration_mode()
    network = read_snapshot_csv(config.snapshots, config.universe_size or None)
    tau, snaps = config.tau, network.snapshots
    n_windows = window_count(len(network), tau)
    n_blocks = min(config.jobs, n_windows)
    _remove_window_files(out)
    if n_blocks > 1:
        bounds = [n_windows * k // n_blocks for k in range(n_blocks + 1)]
        blocks = [
            (
                [
                    (s.index, [(u, v, w) for (u, v), w in s.weights.items()], sorted(s.nodes))
                    for s in snaps[lo : hi + tau - 1]
                ],
                network.universe_size,
                tau,
                nu,
                mode.value,
                config.check,
            )
            for lo, hi in zip(bounds, bounds[1:])
        ]
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=n_blocks, mp_context=context) as pool:
            paths, total_violations = _write_diagrams(
                out, itertools.chain.from_iterable(pool.map(_zigzag_worker, blocks))
            )
    else:
        paths, total_violations = _write_diagrams(
            out, _zigzag_block(snaps, tau, nu, mode, config.check)
        )
    if config.check and total_violations:
        raise AssertionError(f"betti consistency check failed with {total_violations} violations")
    return {"zpd": paths, "windows": len(paths), "violations": total_violations}


def cmd_zpi(config: RunConfig) -> dict:
    """Render every ZPD CSV in outdir into image files."""
    out = _ensure_outdir(config)
    grid = config.grid_spec()
    weighting = config.weighting()
    names = sorted(f for f in os.listdir(out) if f.startswith("zpd_") and f.endswith(".csv"))
    if not names:
        raise FileNotFoundError(f"no zpd_*.csv files in {out}; run the zigzag command first")
    written = []
    for name in names:
        zpd = read_zpd_csv(os.path.join(out, name))
        stem = name[: -len(".csv")]
        for dim in config.homology_dims:
            z = render_zpi(transform_diagram(zpd, dim), grid, weighting)
            base = os.path.join(out, f"{stem}_dim{dim}")
            write_zpi(z, base + ".zpi")
            write_pgm(z, base + ".pgm")
            written.append(base + ".zpi")
    return {"zpi": written}


def cmd_distance(config: RunConfig, path_a: str, path_b: str, dim: int = 1) -> dict:
    """Wasserstein-1 distance between two diagram files."""
    d1 = read_zpd_csv(path_a).pairs(dim)
    d2 = read_zpd_csv(path_b).pairs(dim)
    result = wasserstein1(d1, d2)
    return {"cost": result.cost, "pairing": result.pairing}


def cmd_synth(config: RunConfig) -> dict:
    """Write a synthetic dataset: snapshots, features, and ground truth."""
    out = _ensure_outdir(config)
    data = gen_synthetic(
        n_nodes=config.synth_nodes,
        length=config.synth_length,
        period=config.synth_period,
        delta=config.synth_delta,
        noise=config.synth_noise,
        seed=config.seed,
    )
    snap_path = os.path.join(out, "snapshots.csv")
    feat_path = os.path.join(out, "features.csv")
    truth_path = os.path.join(out, "cycle_truth.csv")
    write_snapshot_csv(data.network, snap_path)
    write_feature_csv(data.features, feat_path)
    with open(truth_path, "w", encoding="ascii") as fh:
        fh.write("t,cycle_present\n")
        for t, flag in enumerate(data.indicator, start=1):
            fh.write(f"{t},{int(flag)}\n")
    return {"snapshots": snap_path, "features": feat_path, "truth": truth_path}


def cmd_train(config: RunConfig) -> dict:
    """Assemble windows, train, and write checkpoint plus metric history."""
    out = _ensure_outdir(config)
    network, features = _load_data(config)
    batches = assemble_batches(network, features, config)
    dataset = net.chronological_split(batches, config.split)
    if config.noise_sigma > 0:
        noisy = _inject_noise(list(dataset.train), len(dataset.train), config)
        dataset = net.Dataset(tuple(noisy), dataset.val, dataset.test)
    model_cfg = _model_config(config, network.universe_size, features.shape[2])
    result = net.train(dataset, model_cfg, config.ablation_flags())
    ckpt = os.path.join(out, "checkpoint.npz")
    hist = os.path.join(out, "history.csv")
    net.save_checkpoint(
        ckpt, model_cfg, result.params, (result.input_lo, result.input_hi, result.image_scale)
    )
    net.write_history_csv(result.history, hist)
    test_rows = [row for row in result.history if row[1] == "test"]
    metrics = test_rows[-1][2:] if test_rows else result.history[-1][2:]
    return {"checkpoint": ckpt, "history": hist, "test_metrics": metrics}


def _require_checkpoint_match(
    model_cfg: net.ModelConfig, n_nodes: int, in_features: int, config: RunConfig
) -> None:
    """Reject data or settings whose shapes differ from the trained model's."""
    pairs = {
        "universe_size": (n_nodes, model_cfg.n_nodes),
        "feature width": (in_features, model_cfg.in_features),
        "tau": (config.tau, model_cfg.window),
        "horizon": (config.horizon, model_cfg.horizon),
        "resolution": (config.resolution, model_cfg.zpi_resolution),
    }
    for name, (got, trained) in pairs.items():
        if got != trained:
            raise ValueError(f"{name} is {got} here but the checkpoint was trained with {trained}")


def cmd_forecast(config: RunConfig, checkpoint: str) -> dict:
    """Predict the test windows with a stored checkpoint and its stored scalers.

    The scalers are the ones training fitted, so a model trained on
    noisy windows sees its inputs scaled as in training.  All test
    windows go to one ``predict`` call.
    """
    out = _ensure_outdir(config)
    model_cfg, params, scalers = net.load_checkpoint(checkpoint)
    network, features = _load_data(config)
    _require_checkpoint_match(model_cfg, network.universe_size, features.shape[2], config)
    result = net.TrainResult(params, model_cfg, [], *scalers)
    batches = assemble_batches(network, features, config)
    dataset = net.chronological_split(batches, config.split)
    preds = []
    if dataset.test:
        preds = net.predict(result, net.Batch.stack(dataset.test), config.ablation_flags())
    path = os.path.join(out, "forecast.csv")
    offset = len(dataset.train) + len(dataset.val)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("window,step,node,feature,value\n")
        for w, pred in enumerate(preds):
            for step in range(pred.shape[0]):
                for node in range(pred.shape[1]):
                    for feat in range(pred.shape[2]):
                        fh.write(
                            f"{offset + w},{step},{node},{feat},{pred[step, node, feat]:.17g}\n"
                        )
    return {"forecast": path, "windows": len(dataset.test)}


def cmd_ablate(config: RunConfig) -> dict:
    """Full model plus the three architecture ablations, on shared data."""
    out = _ensure_outdir(config)
    network, features = _load_data(config)
    batches = assemble_batches(network, features, config)
    dataset = net.chronological_split(batches, config.split)
    if config.noise_sigma > 0:
        noisy = _inject_noise(list(dataset.train), len(dataset.train), config)
        dataset = net.Dataset(tuple(noisy), dataset.val, dataset.test)
    model_cfg = _model_config(config, network.universe_size, features.shape[2])
    rows = []
    for name in ("none", "no-zigzag", "no-spatial", "no-temporal"):
        run_cfg = replace(config, ablation=name)
        result = net.train(dataset, model_cfg, run_cfg.ablation_flags())
        test_rows = [row for row in result.history if row[1] == "test"]
        mae, rmse, mape = test_rows[-1][2:]
        rows.append((name, mae, rmse, mape))
        net.write_history_csv(result.history, os.path.join(out, f"history_{name}.csv"))
    path = os.path.join(out, "ablation.csv")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("ablation,mae,rmse,mape\n")
        for name, mae, rmse, mape in rows:
            fh.write(f"{name},{mae:.17g},{rmse:.17g},{mape:.17g}\n")
    return {"ablation": path, "rows": rows}


def cmd_gradcheck(config: RunConfig) -> dict:
    """Finite-difference check of the full model gradient on a tiny config."""
    worst = net.grad_check(seed=config.seed)
    return {"worst_relative_error": worst, "passed": worst <= 1e-4}
