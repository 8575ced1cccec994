"""Seeded input generators and the command chain of each workload.

Every workload runs the same CLI chain, ``cmd_zigzag -> cmd_zpi ->
cmd_distance -> cmd_train -> cmd_forecast``, on inputs that make a
different stage dominate (see README.md for why each was chosen).  The
generators live here; the program only ever sees the CSV files they
write.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("series", "wide", "train")

# Seed held out from tuning: a later speed claim must also hold on it.
HELD_OUT_SEED = 4242

NU_STAR = 0.5
SERIES_LENGTH = 23  # 12 windows of tau = 12
WIDE_NODES = 64
WIDE_SERIES = 4
SYNTH_LENGTH = 80
TRAIN_ZIGZAG_NODES = 32  # train's own small windows for zigzag, images and W1
WEIGHT_LO, WEIGHT_HI = 0.05, 0.45


@dataclass(frozen=True)
class Chain:
    """Inputs and RunConfig overrides for one pass of the CLI chain.

    ``zigzag`` lists snapshot CSVs; each gets one ``cmd_zigzag`` and one
    ``cmd_zpi`` into its own output directory.  W1 is taken, in dimensions
    0 and 1, between each consecutive pair of the diagrams written, or
    between every pair of them with ``all_pairs``.
    """

    zigzag: tuple[str, ...]
    zigzag_cfg: dict
    train_snapshots: str
    train_features: str
    train_cfg: dict
    complexes: int  # distinct snapshot and union complexes in the inputs
    all_pairs: bool = False


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _all_pairs(n: int) -> np.ndarray:
    u, v = np.triu_indices(n, k=1)
    return np.stack([u, v], axis=1)


def _write_snapshots(path: str, steps: list[dict[tuple[int, int], float]]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("t,u,v,w\n")
        for t, weights in enumerate(steps, start=1):
            for (u, v), w in sorted(weights.items()):
                fh.write(f"{t},{u},{v},{w:.17g}\n")


def _write_features(path: str, values: np.ndarray) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("t,node,f1\n")
        for t, row in enumerate(values, start=1):
            for node, x in enumerate(row):
                fh.write(f"{t},{node},{x:.17g}\n")


def _random_walk_features(rng: np.random.Generator, length: int, n: int) -> np.ndarray:
    base = rng.uniform(0.5, 1.5, n)
    return base[None, :] + np.cumsum(rng.normal(0.0, 0.1, (length, n)), axis=0)


def slowly_changing(rng, n: int, density: float, churn: float, length: int):
    """One graph whose edge set turns over a ``churn`` share per step."""
    pairs = _all_pairs(n)
    m = int(round(density * len(pairs)))
    k = int(round(churn * m))
    present = {int(i): float(rng.uniform(WEIGHT_LO, WEIGHT_HI))
               for i in rng.choice(len(pairs), m, replace=False)}
    steps = []
    for _ in range(length):
        steps.append({(int(pairs[i][0]), int(pairs[i][1])): w for i, w in present.items()})
        absent = np.setdiff1d(np.arange(len(pairs)), np.fromiter(present, int))
        for i in rng.choice(sorted(present), k, replace=False):
            del present[int(i)]
        for i in rng.choice(absent, k, replace=False):
            present[int(i)] = float(rng.uniform(WEIGHT_LO, WEIGHT_HI))
    return steps


def independent(rng, n: int, density: float, length: int):
    """Snapshots drawn afresh at every step, sharing nothing by design."""
    pairs = _all_pairs(n)
    m = int(round(density * len(pairs)))
    return [
        {(int(pairs[i][0]), int(pairs[i][1])): float(rng.uniform(WEIGHT_LO, WEIGHT_HI))
         for i in sorted(rng.choice(len(pairs), m, replace=False))}
        for _ in range(length)
    ]


def chain(workload: str, workdir: str) -> Chain:
    """File layout and configuration of a workload under ``workdir``."""
    p = functools.partial(os.path.join, workdir)
    if workload == "series":
        return Chain(
            zigzag=(p("series.csv"),),
            zigzag_cfg=dict(tau=12, homology_dims=(0, 1), universe_size=50),
            train_snapshots=p("train_slice.csv"),
            train_features=p("train_features.csv"),
            train_cfg=dict(tau=4, horizon=2, epochs=1, universe_size=50),
            complexes=2 * SERIES_LENGTH - 1,  # the train slice is a prefix
        )
    if workload == "wide":
        return Chain(
            zigzag=tuple(p(f"wide_{k}.csv") for k in range(WIDE_SERIES)),
            zigzag_cfg=dict(tau=12, homology_dims=(0, 1), universe_size=WIDE_NODES),
            train_snapshots=p("train_slice.csv"),
            train_features=p("train_features.csv"),
            train_cfg=dict(tau=3, horizon=1, epochs=1, universe_size=WIDE_NODES),
            complexes=WIDE_SERIES * (2 * 12 - 1),  # the train slice is a prefix of series 0
            all_pairs=True,  # 6 pairs, not 3: W1 time depends on the diagrams' shapes
        )
    if workload == "train":
        return Chain(
            zigzag=tuple(p(f"zigzag_{k}.csv") for k in range(WIDE_SERIES)),
            zigzag_cfg=dict(tau=12, homology_dims=(0, 1), universe_size=TRAIN_ZIGZAG_NODES),
            train_snapshots=p("snapshots.csv"),
            train_features=p("features.csv"),
            train_cfg=dict(tau=12, horizon=12, epochs=3, universe_size=16),
            complexes=2 * SYNTH_LENGTH - 1 + WIDE_SERIES * (2 * 12 - 1),
            all_pairs=True,  # 6 pairs, not 3: W1 time depends on the diagrams' shapes
        )
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def prepare(workload: str, seed: int, workdir: str, pipeline) -> Chain:
    """Write every input file of ``workload`` for ``seed`` into ``workdir``.

    ``pipeline`` is the imported ``zigzagst.pipeline``; only the train
    workload uses it, to run ``cmd_synth`` as a user would.
    """
    os.makedirs(workdir, exist_ok=True)
    spec = chain(workload, workdir)
    rng = _rng(workload, seed)
    if workload == "series":
        steps = slowly_changing(rng, n=50, density=0.08, churn=0.1, length=SERIES_LENGTH)
        _write_snapshots(spec.zigzag[0], steps)
        _write_snapshots(spec.train_snapshots, steps[:16])
        _write_features(spec.train_features, _random_walk_features(rng, 16, 50))
    elif workload == "wide":
        series = [independent(rng, n=WIDE_NODES, density=0.08, length=12) for _ in spec.zigzag]
        for path, steps in zip(spec.zigzag, series):
            _write_snapshots(path, steps)
        _write_snapshots(spec.train_snapshots, series[0][:8])
        _write_features(spec.train_features, _random_walk_features(rng, 8, WIDE_NODES))
    else:
        pipeline.cmd_synth(pipeline.RunConfig(outdir=workdir, seed=seed, synth_length=SYNTH_LENGTH))
        # The synth graphs have 16 nodes and diagrams of 7 to 9 bars, so W1 on
        # them times little more than file opening.  Small windows drawn as in
        # wide give the secondary stages work whose size varies little from
        # seed to seed, and one sample per window.
        for path in spec.zigzag:
            _write_snapshots(path, independent(rng, n=TRAIN_ZIGZAG_NODES, density=0.08, length=12))
    return spec
