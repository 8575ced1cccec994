"""End-to-end orchestration: config files, synthetic data, and commands.

Each ``cmd_*`` function implements one CLI subcommand in terms of the
library modules and writes its outputs under ``config.outdir``.  All
commands are deterministic for a fixed config and seed.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, fields, replace

import numpy as np

from . import net, textio
from .dyngraph import (
    DynamicNetwork,
    FeatureSeries,
    Snapshot,
    check_fields,
    is_int,
    is_real,
    read_feature_csv,
    read_snapshot_csv,
    window_count,
    write_feature_csv,
    write_snapshot_csv,
)
from .filtration import (
    FiltrationMode,
    betti_numbers,
    build_complex,
    write_complex_dump,
)
from .metrics import wasserstein1
from .zigzag import (
    _consistency_report,
    _series_complexes,
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
    format_pgm,
    format_zpi,
    image_rows,
    render_zpi,
    write_pgm,
    write_zpi,
)

__all__ = [
    "MAX_IMAGE_DOUBLES",
    "RunConfig",
    "SyntheticData",
    "gen_synthetic",
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

# Most doubles the window images of one ``assemble_batches`` call may take,
# windows * resolution**2: 512 MiB.  It counts windows, so it bounds the
# distinct images a batch holds (windows with equal diagrams share one) from
# above, and it is checked before any image is rendered.  ``np.zeros`` is
# lazy, so a larger batch would fail only once the images fill it.  Training
# held about 1.8 times the batch at its peak (57 windows at resolution 300: a
# 41 MB batch and a 73 MB ``tracemalloc`` peak), so a run stays near 1 GB, an
# eighth of an 8 GB machine.  The benchmark's largest batch, ``train``, is 57
# windows at resolution 100: 570,000 doubles.
MAX_IMAGE_DOUBLES = 2**26

_MODE_NAMES = {m.value: m for m in FiltrationMode}
_ABLATIONS = {a.value: a for a in net.Ablation}


@dataclass(frozen=True)
class RunConfig:
    """Flat key-value run configuration; every key is overridable.

    Construction refuses every setting whose check needs neither the data
    nor the model, and every setting that does not hold its annotation's
    kind (``dyngraph.check_fields``): an ``int`` setting, and each of
    ``homology_dims``, must be an integer (``dyngraph.is_int``); a
    ``float`` setting, and each of ``split``, a real number that is not a
    ``bool`` (``dyngraph.is_real``); ``check`` a boolean; and a ``str``
    setting a string.  So a bad value is refused the same way from a
    file, from ``--set`` or from ``dataclasses.replace``, before any
    command starts.  A file's or ``--set``'s text is parsed by the same
    annotations (``_coerce``).  What stays for
    the commands: ``require_nu_star`` (``nu_star`` has no default, and
    ``zpi``, ``distance``, ``synth`` and ``gradcheck`` run without it), the
    checks against the data (``tau`` and ``horizon`` against the series
    length, the split's test windows, ``out_features`` against the feature
    width, ``universe_size`` against the files), the model fields' values,
    which ``net.ModelConfig`` checks, and the ``synth_*`` fields' values,
    which ``gen_synthetic`` checks.
    """

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
    check: bool = False
    seed: int = 0
    # synthetic generation
    synth_nodes: int = 16
    synth_length: int = 200
    synth_period: int = 4
    synth_delta: float = 1.0
    synth_noise: float = 0.1

    def __post_init__(self):
        check_fields(self)
        for fraction in self.split:
            if not is_real(fraction):
                raise ValueError(f"split: fraction must be a real number, got {fraction!r}")
        if self.filtration not in _MODE_NAMES:
            raise ValueError(
                f"unknown filtration {self.filtration!r}; choose from {sorted(_MODE_NAMES)}"
            )
        if self.ablation not in _ABLATIONS:
            raise ValueError(
                f"unknown ablation {self.ablation!r}; choose from {sorted(_ABLATIONS)}"
            )
        for dim in self.homology_dims:
            if not is_int(dim) or dim not in (0, 1):
                raise ValueError(f"homology_dims: dimension must be 0 or 1, got {dim!r}")
        if not self.homology_dims or len(set(self.homology_dims)) < len(self.homology_dims):
            raise ValueError(
                f"homology_dims must list 0, 1 or both once each, got {self.homology_dims}"
            )
        if math.isinf(self.nu_star):
            raise ValueError(f"nu_star must be finite, got {self.nu_star}")
        self.grid_spec()  # tau, resolution and theta
        self.weighting()
        if not 0.0 <= self.noise_sigma < math.inf:
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if not 0.0 <= self.noise_fraction <= 1.0:
            raise ValueError(f"noise_fraction must lie in [0, 1], got {self.noise_fraction}")
        net.chronological_split(range(0), self.split)  # the split fractions
        for name in ("seed", "universe_size"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")

    @classmethod
    def from_file(cls, path: str | None, overrides: dict[str, str] | None = None) -> "RunConfig":
        """Defaults, then ``path``'s ``key = value`` lines, then ``overrides``.

        Each line's value is checked as read, alone against the defaults,
        so a bad one names the file and line even when ``overrides`` set
        its key again.
        """
        parsed = {}
        if path:
            with textio.lines(path) as lines:
                for _, line in lines:
                    if not line or line.startswith("#"):
                        continue
                    if "=" not in line:
                        raise ValueError("expected key = value")
                    key, _, value = (part.strip() for part in line.partition("="))
                    parsed[key] = _coerce(key, value)
                    cls(**{key: parsed[key]})
        parsed.update((key, _coerce(key, value)) for key, value in (overrides or {}).items())
        return cls(**parsed)

    def filtration_mode(self) -> FiltrationMode:
        return _MODE_NAMES[self.filtration]

    def require_nu_star(self) -> float:
        if math.isnan(self.nu_star):
            raise ValueError("nu_star must be set (no default scale parameter)")
        return self.nu_star

    def grid_spec(self) -> GridSpec:
        if not 0 <= self.theta < math.inf:
            raise ValueError(f"theta must be finite and >= 0 (0 = default), got {self.theta}")
        domain = default_domain(self.tau)
        # a resolution below 1 is GridSpec's to refuse, not a division by zero's
        theta = self.theta or default_theta(domain, max(self.resolution, 1))
        return GridSpec(self.resolution, *domain, theta)

    def weighting(self) -> WeightingSpec:
        if not self.weight_cap > 0.0:
            raise ValueError(f"weight_cap must be positive, got {self.weight_cap}")
        return WeightingSpec(self.weight_kind, self.weight_cap)

    def ablation_flags(self) -> net.Ablation:
        return _ABLATIONS[self.ablation]


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}  # each setting's annotation
_NUMBERS = {"int": int, "float": float, "tuple[int, ...]": int, "tuple[float, ...]": float}
_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _coerce(key: str, value: str):
    """The text ``value`` of setting ``key`` parsed as its annotation declares."""
    if key not in _FIELD_TYPES:
        raise ValueError(f"unknown config key {key!r}")
    annotation = _FIELD_TYPES[key]
    if annotation == "bool":
        if value.lower() not in _BOOLEANS:
            raise ValueError(f"{key} must be one of {sorted(_BOOLEANS)}, got {value!r}")
        return _BOOLEANS[value.lower()]
    if annotation not in _NUMBERS:
        return value
    kind, many = _NUMBERS[annotation], annotation.startswith("tuple")
    try:
        numbers = tuple(map(kind, value.replace(",", " ").split() if many else [value]))
    except ValueError:
        raise ValueError(f"{key} expects {kind.__name__} values, got {value!r}") from None
    return numbers if many else numbers[0]


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


# ---------------------------------------------------------------------------
# Window features


def _forecast_windows(length: int, config: RunConfig) -> range:
    """The windows of ``tau`` snapshots that ``horizon`` more snapshots follow."""
    window_count(length, config.tau)  # rejects tau > T
    if length - config.horizon < config.tau:
        raise ValueError(
            f"no window can be forecast: tau {config.tau} plus horizon {config.horizon} "
            f"exceeds series length {length}"
        )
    return range(length - config.horizon - config.tau + 1)


def _split_windows(length: int, config: RunConfig) -> net.Dataset:
    """The forecastable windows split in time order; the test part must not be empty."""
    every = _forecast_windows(length, config)
    split = net.chronological_split(every, config.split)
    if not split.test:
        raise ValueError(
            f"split {config.split} leaves no test window of the {len(every)} forecastable windows"
        )
    return split


def _batch_windows(
    network: DynamicNetwork, features: FeatureSeries, config: RunConfig, windows: range | None
) -> range:
    """The run ``windows`` (default all) of forecastable windows, checked for ``assemble_batches``.

    The features must have the network's first step, length and universe,
    and the windows' images must fit ``MAX_IMAGE_DOUBLES``.
    """
    tau, p = config.tau, config.resolution
    got = (features.start, *features.shape[:2])
    want = (network.snapshots[0].index, len(network), network.universe_size)
    if got != want:
        raise ValueError(
            f"features (first step, steps, nodes) {got} do not match the snapshots' {want}")
    every = _forecast_windows(len(network), config)
    windows = every if windows is None else windows
    if every[windows.start : windows.stop] != windows:
        raise ValueError(f"{windows} is not a run of the {len(every)} forecastable windows")
    if len(windows) * p * p > MAX_IMAGE_DOUBLES:
        raise ValueError(
            f"{len(windows)} windows of tau {tau} at resolution {p} need {len(windows) * p * p} "
            f"image doubles, more than MAX_IMAGE_DOUBLES = {MAX_IMAGE_DOUBLES}"
        )
    return windows


def assemble_batches(
    network: DynamicNetwork,
    features: FeatureSeries,
    config: RunConfig,
    windows: range | None = None,
) -> net.Batch:
    """The forecastable windows ``windows`` (default all) as one stacked batch.

    Window k reads snapshots k .. k + tau - 1 and predicts the ``horizon``
    after them; ``_batch_windows`` checks the features and the windows.
    The series engine runs only on the snapshots the windows cover.  A
    window's image depends only on its diagram's rows that weigh in the
    image (``zpi.image_rows`` in ``homology_dims``), so each distinct set
    of them is rendered once, in the order windows first show it, and the
    batch indexes it from every window that has it.  ``MAX_IMAGE_DOUBLES``
    bounds the images as if every window's were distinct.
    """
    nu = config.require_nu_star()
    windows = _batch_windows(network, features, config, windows)
    tau, h, p = config.tau, config.horizon, config.resolution
    grid, weighting = config.grid_spec(), config.weighting()
    images, index = np.zeros((len(windows), p, p)), np.empty(len(windows), np.intp)
    distinct: dict[tuple, int] = {}  # a diagram's image rows in homology_dims -> its image
    snapshots = network.snapshots[windows.start : windows.start + len(windows) + tau - 1]
    for k, zpd in enumerate(zigzag_series(snapshots, tau, nu, config.filtration_mode())):
        key = image_rows(zpd, config.homology_dims, weighting)
        if key not in distinct:
            distinct[key] = len(distinct)
            for dim in config.homology_dims:  # multiple dimensions sum pixelwise
                images[distinct[key]] += render_zpi(zpd.points(dim), grid, weighting).pixels
        index[k] = distinct[key]
    # shrunk in place to the distinct images, with no copy; no view of ``images`` exists
    images.resize((len(distinct), p, p), refcheck=False)
    steps = np.arange(windows.start, windows.stop)[:, None]
    values = features.values
    return net.Batch(
        values[steps + np.arange(tau)],
        images,
        index,
        values[steps + tau + np.arange(h), :, : config.out_features],
    )


def _model_config(config: RunConfig, n_nodes: int, in_features: int) -> net.ModelConfig:
    """The network of ``config``: every model field a run setting of the same name sets."""
    shared = {f.name: getattr(config, f.name) for f in fields(net.ModelConfig)
              if f.name in _FIELD_TYPES}
    return net.ModelConfig(n_nodes=n_nodes, in_features=in_features, window=config.tau,
                           zpi_resolution=config.resolution, **shared)


def _load_data(config: RunConfig) -> tuple[DynamicNetwork, FeatureSeries]:
    """Check ``nu_star`` is set, then read the feature file, then the snapshots.

    With ``universe_size`` 0 the feature file's nodes are the snapshots' universe.
    """
    config.require_nu_star()
    if not config.snapshots or not config.features:
        raise ValueError("snapshots and features paths are required")
    features = read_feature_csv(config.features)
    return read_snapshot_csv(config.snapshots, config.universe_size or features.shape[1]), features


def _training_data(config: RunConfig) -> tuple[net.Dataset, net.ModelConfig]:
    """The split windows and the model shape that ``cmd_train`` and ``cmd_ablate`` train.

    With ``noise_sigma > 0``, Gaussian noise is added to the inputs of a
    ``noise_fraction`` of the training windows, drawn from a generator
    seeded ``seed + 1``: first the window order, then the noise of each
    chosen window in that order.  What the data or the model can refuse
    is refused before ``outdir`` is made, and it is made before any
    window is assembled.
    """
    network, features = _load_data(config)
    _split_windows(len(network), config)  # rejects an empty test split before assembly
    model_cfg = _model_config(config, network.universe_size, features.shape[2])  # and a bad shape
    if config.out_features > features.shape[2]:
        raise ValueError(
            f"out_features {config.out_features} exceeds the {features.shape[2]} feature "
            f"column(s) of {config.features}"
        )
    _batch_windows(network, features, config, None)
    _ensure_outdir(config)
    dataset = net.chronological_split(assemble_batches(network, features, config), config.split)
    if config.noise_sigma > 0:
        train = dataset.train
        rng = np.random.default_rng(config.seed + 1)
        chosen = rng.permutation(len(train))[: int(round(config.noise_fraction * len(train)))]
        inputs = train.inputs.copy()
        inputs[chosen] += rng.normal(0.0, config.noise_sigma, inputs[chosen].shape)
        dataset = replace(dataset, train=replace(train, inputs=inputs))
    return dataset, model_cfg


# ---------------------------------------------------------------------------
# Commands


def _ensure_outdir(config: RunConfig) -> str:
    os.makedirs(config.outdir, exist_ok=True)
    return config.outdir


def _snapshot_input(config: RunConfig) -> tuple[float, FiltrationMode, DynamicNetwork]:
    """``nu_star``, the filtration mode and the snapshots."""
    nu = config.require_nu_star()
    if not config.snapshots:
        raise ValueError("snapshots path is required")
    network = read_snapshot_csv(config.snapshots, config.universe_size or None)
    return nu, config.filtration_mode(), network


def cmd_filtrate(config: RunConfig) -> dict:
    """Complexes and Betti summary for every snapshot."""
    nu, mode, network = _snapshot_input(config)
    out = _ensure_outdir(config)
    betti_path = os.path.join(out, "betti.csv")
    dumps, rows = [], ["t,b0,b1\n"]
    for s in network:
        cx = build_complex(s, nu, mode)
        dumps.append(os.path.join(out, f"complex_t{s.index}.txt"))
        write_complex_dump(cx, dumps[-1])
        rows.append(f"{s.index},{betti_numbers(cx, 0)},{betti_numbers(cx, 1)}\n")
    textio.write(betti_path, "".join(rows))
    return {"betti": betti_path, "complexes": dumps}


_WINDOW_FILE = re.compile(r"zpd_window_\d{4,}(\.csv|_dim\d+\.(zpi|pgm))")


def _remove_window_files(out: str) -> None:
    """Delete an earlier run's window diagrams and the images rendered from them."""
    for name in os.listdir(out):
        if _WINDOW_FILE.fullmatch(name):
            os.remove(os.path.join(out, name))


def cmd_zigzag(config: RunConfig) -> dict:
    """Persistence diagram CSV per sliding window, written as each window arrives.

    Window diagrams and images left in ``outdir`` by an earlier run are
    removed first, so ``cmd_zpi`` sees only this run's windows.  With
    ``check``, one more pass over the complexes gives each position's
    Betti numbers once, and each window is compared with its own run.
    """
    nu, mode, network = _snapshot_input(config)
    tau = config.tau
    window_count(len(network), tau)  # rejects tau > T
    out = _ensure_outdir(config)
    _remove_window_files(out)
    complexes = _series_complexes(network.snapshots, nu, mode, tau > 1) if config.check else ()
    betti = [(betti_numbers(cx, 0), betti_numbers(cx, 1)) for cx in complexes]
    paths = []
    total_violations = 0
    for index, zpd in enumerate(zigzag_series(network.snapshots, tau, nu, mode)):
        if config.check:
            start = 2 * index if tau > 1 else index  # a window starts at a snapshot
            report = _consistency_report(zpd, betti[start : start + 2 * tau - 1])
            total_violations += len(report.violations)
        path = os.path.join(out, f"zpd_window_{index:04d}.csv")
        write_zpd_csv(zpd, path)
        paths.append(path)
    if config.check and total_violations:
        raise AssertionError(f"betti consistency check failed with {total_violations} violations")
    return {"zpd": paths, "windows": len(paths), "violations": total_violations}


def cmd_zpi(config: RunConfig) -> dict:
    """Render every ZPD CSV in outdir into image files.

    Every diagram is read before any image is written, and one with a
    death past ``tau``, from a longer window, is refused.  An image
    depends only on its dimension's rows that weigh in it
    (``zpi.image_rows``), so each distinct image is rendered and
    formatted once; its text is written for every window that has it, in
    window order, and dropped after the last of them.
    """
    out = config.outdir
    grid, weighting = config.grid_spec(), config.weighting()
    listed = os.listdir(out) if os.path.isdir(out) else []
    names = sorted(f for f in listed if f.startswith("zpd_") and f.endswith(".csv"))
    if not names:
        raise FileNotFoundError(f"no zpd_*.csv files in {out}; run the zigzag command first")
    diagrams = [read_zpd_csv(os.path.join(out, name)) for name in names]
    for name, zpd in zip(names, diagrams):
        twice_death = max((row[2] for row in zpd.rows), default=0)
        if twice_death > 2 * config.tau:
            raise ValueError(f"{os.path.join(out, name)}: death {twice_death / 2:g} lies past "
                             f"tau = {config.tau}; the diagram is from a longer window")
    keys = [[(dim, image_rows(zpd, (dim,), weighting)) for dim in config.homology_dims]
            for zpd in diagrams]
    last = {key: k for k, window in enumerate(keys) for key in window}
    texts: dict[tuple, tuple[str, str]] = {}  # (dim, image rows) -> .zpi and .pgm text
    written = []
    for k, (name, zpd) in enumerate(zip(names, diagrams)):
        stem = name[: -len(".csv")]
        for dim, key in zip(config.homology_dims, keys[k]):
            if key not in texts:
                z = render_zpi(zpd.points(dim), grid, weighting)
                texts[key] = format_zpi(z), format_pgm(z)
            zpi_text, pgm_text = texts[key] if last[key] > k else texts.pop(key)
            base = os.path.join(out, f"{stem}_dim{dim}")
            write_zpi(zpi_text, base + ".zpi")
            write_pgm(pgm_text, base + ".pgm")
            written.append(base + ".zpi")
    return {"zpi": written}


def cmd_distance(config: RunConfig, path_a: str, path_b: str, dim: int = 1) -> dict:
    """Wasserstein-1 distance between two diagram files."""
    result = wasserstein1(read_zpd_csv(path_a).points(dim), read_zpd_csv(path_b).points(dim))
    return {"cost": result.cost, "pairing": result.pairing}


def cmd_synth(config: RunConfig) -> dict:
    """Write a synthetic dataset: snapshots, features, and ground truth."""
    data = gen_synthetic(
        n_nodes=config.synth_nodes,
        length=config.synth_length,
        period=config.synth_period,
        delta=config.synth_delta,
        noise=config.synth_noise,
        seed=config.seed,
    )
    out = _ensure_outdir(config)
    snap_path = os.path.join(out, "snapshots.csv")
    feat_path = os.path.join(out, "features.csv")
    truth_path = os.path.join(out, "cycle_truth.csv")
    write_snapshot_csv(data.network, snap_path)
    write_feature_csv(data.features, feat_path)
    rows = [f"{t},{int(flag)}\n" for t, flag in enumerate(data.indicator, start=1)]
    textio.write(truth_path, "t,cycle_present\n" + "".join(rows))
    return {"snapshots": snap_path, "features": feat_path, "truth": truth_path}


def cmd_train(config: RunConfig) -> dict:
    """Assemble windows, train, and write checkpoint plus metric history."""
    dataset, model_cfg = _training_data(config)
    result = net.train(dataset, model_cfg, config.ablation_flags())
    ckpt = os.path.join(config.outdir, "checkpoint.npz")
    hist = os.path.join(config.outdir, "history.csv")
    net.save_checkpoint(ckpt, result, _checkpoint_settings(config))
    net.write_history_csv(result.history, hist)
    test_rows = [row for row in result.history if row[1] == "test"]
    return {"checkpoint": ckpt, "history": hist, "test_metrics": test_rows[-1][2:]}


def _checkpoint_settings(config: RunConfig) -> dict:
    """The ablation and the settings that shape a window's image, as a checkpoint stores them."""
    return {
        "ablation": config.ablation,
        "filtration": config.filtration,
        "nu_star": config.nu_star,
        "homology_dims": list(config.homology_dims),
        "theta": config.theta,
        "weight_kind": config.weight_kind,
        "weight_cap": config.weight_cap,
    }


def _require_checkpoint_match(
    model_cfg: net.ModelConfig, settings: dict, n_nodes: int, in_features: int, config: RunConfig
) -> None:
    """Reject data or settings that differ from those the model was trained with."""
    pairs = {
        "universe_size": (n_nodes, model_cfg.n_nodes),
        "feature width": (in_features, model_cfg.in_features),
        "out_features": (config.out_features, model_cfg.out_features),
        "tau": (config.tau, model_cfg.window),
        "horizon": (config.horizon, model_cfg.horizon),
        "resolution": (config.resolution, model_cfg.zpi_resolution),
    }
    pairs.update(
        (name, (got, settings.get(name))) for name, got in _checkpoint_settings(config).items()
    )
    for name, (got, trained) in pairs.items():
        if got != trained:
            raise ValueError(f"{name} is {got} here but the checkpoint was trained with {trained}")


def cmd_forecast(config: RunConfig, checkpoint: str) -> dict:
    """Predict the test windows with a stored checkpoint and its stored scalers.

    The scalers are the ones training fitted, so a model trained on
    noisy windows sees its inputs scaled as in training.  Only the test
    windows are assembled, and they go to one ``predict`` call.
    """
    network, features = _load_data(config)
    result, settings = net.load_checkpoint(checkpoint)
    _require_checkpoint_match(result.config, settings, network.universe_size, features.shape[2],
                              config)
    test = _batch_windows(network, features, config, _split_windows(len(network), config).test)
    out = _ensure_outdir(config)
    batch = assemble_batches(network, features, config, test)
    preds = net.predict(result, batch, config.ablation_flags())
    path = os.path.join(out, "forecast.csv")
    textio.write(path, _forecast_csv_text(preds, test.start))
    return {"forecast": path, "windows": len(test)}


def _forecast_csv_text(preds: np.ndarray, start: int) -> str:
    """``forecast.csv`` for predictions (W, horizon, N, F) of windows start, start+1, ...

    One row ``window,step,node,feature,value`` per entry, values written
    with ``%.17g``.  The rows of one window share their step, node and
    feature columns, so those are formatted once; every value then goes
    through one ``%``.
    """
    cells = [f"{step},{node},{feat},%.17g" for step, node, feat in np.ndindex(preds.shape[1:])]
    rows = "".join(f"{w}," + f"\n{w},".join(cells) + "\n" for w in range(start, start + len(preds)))
    return "window,step,node,feature,value\n" + rows % tuple(preds.ravel().tolist())


def cmd_ablate(config: RunConfig) -> dict:
    """Full model plus the three architecture ablations, on shared data."""
    dataset, model_cfg = _training_data(config)
    out = config.outdir
    rows = []
    for ablation in net.Ablation:
        result = net.train(dataset, model_cfg, ablation)
        test_rows = [row for row in result.history if row[1] == "test"]
        mae, rmse, mape = test_rows[-1][2:]
        rows.append((ablation.value, mae, rmse, mape))
        net.write_history_csv(result.history, os.path.join(out, f"history_{ablation.value}.csv"))
    path = os.path.join(out, "ablation.csv")
    textio.write(path, "ablation,mae,rmse,mape\n" + "".join(
        f"{name},{mae:.17g},{rmse:.17g},{mape:.17g}\n" for name, mae, rmse, mape in rows))
    return {"ablation": path, "rows": rows}


def cmd_gradcheck(config: RunConfig) -> dict:
    """Finite-difference check of the full model gradient on a tiny config."""
    worst = net.grad_check(seed=config.seed)
    return {"worst_relative_error": worst, "passed": worst <= 1e-4}
