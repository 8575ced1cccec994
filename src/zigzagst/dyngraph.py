"""Sequences of weighted graph snapshots over a fixed node universe.

Snapshots store a sparse symmetric nonnegative weight map (absent entry
means weight zero, no self loops) together with the set of nodes active
at that time step.  All values are immutable after construction and all
operations are pure, so snapshots can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

Edge = tuple[int, int]

__all__ = [
    "Edge",
    "Snapshot",
    "DynamicNetwork",
    "FeatureSeries",
    "UniverseMismatchError",
    "rbf_censored_weights",
    "normalize_transaction_weights",
    "reduce_top_edges",
    "union_graph",
    "sliding_windows",
    "window_count",
    "write_snapshot_csv",
    "read_snapshot_csv",
    "write_feature_csv",
    "read_feature_csv",
]


class UniverseMismatchError(ValueError):
    """Two snapshots with different node universes were combined."""


def _canonical(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Snapshot:
    """One weighted graph observation at an integer time step.

    ``weights`` holds only strictly positive entries under canonical
    (u < v) keys, which makes symmetry exact by construction.  ``nodes``
    is the set of active nodes and must cover every weighted endpoint.
    """

    index: int
    universe_size: int
    nodes: frozenset[int]
    weights: Mapping[Edge, float]

    def __post_init__(self):
        if self.index < 1:
            raise ValueError(f"snapshot index must be >= 1, got {self.index}")
        if self.universe_size < 1:
            raise ValueError("universe_size must be >= 1")
        object.__setattr__(self, "nodes", frozenset(self.nodes))
        for v in self.nodes:
            if not 0 <= v < self.universe_size:
                raise ValueError(f"node {v} outside universe of size {self.universe_size}")
        clean: dict[Edge, float] = {}
        for (u, v), w in self.weights.items():
            if u == v:
                raise ValueError(f"self loop on node {u}")
            if (u, v) != _canonical(u, v):
                raise ValueError(f"weight key {(u, v)} is not canonical (u < v)")
            w = float(w)
            if not math.isfinite(w) or w < 0.0:
                raise ValueError(f"weight {(u, v)} = {w} is not finite nonnegative")
            if w == 0.0:
                continue
            if u not in self.nodes or v not in self.nodes:
                raise ValueError(f"edge {(u, v)} references a node outside the active set")
            clean[(u, v)] = w
        object.__setattr__(self, "weights", MappingProxyType(clean))

    @classmethod
    def from_edges(
        cls,
        index: int,
        universe_size: int,
        edges: Iterable[tuple[int, int, float]],
        nodes: Iterable[int] | None = None,
    ) -> "Snapshot":
        """Build a snapshot from (u, v, w) triples in either orientation.

        If the same pair appears twice the weights must agree exactly.
        Active nodes default to the endpoints of positive-weight edges;
        pass ``nodes`` to include isolated active nodes.
        """
        weights: dict[Edge, float] = {}
        for u, v, w in edges:
            key = _canonical(int(u), int(v))
            w = float(w)
            if key in weights and weights[key] != w:
                raise ValueError(f"conflicting weights for edge {key}: {weights[key]} vs {w}")
            weights[key] = w
        active = {n for (u, v), w in weights.items() if w > 0.0 for n in (u, v)}
        if nodes is not None:
            active.update(int(n) for n in nodes)
        return cls(index, universe_size, frozenset(active), weights)

    def weight(self, u: int, v: int) -> float:
        """Symmetric weight lookup; absent pairs have weight zero."""
        if u == v:
            return 0.0
        return self.weights.get(_canonical(u, v), 0.0)

    def edges(self) -> list[Edge]:
        return sorted(self.weights)

    @property
    def n_edges(self) -> int:
        return len(self.weights)

    def weighted_degrees(self) -> dict[int, float]:
        """Sum of incident weights per active node (0.0 when isolated)."""
        deg = {v: 0.0 for v in self.nodes}
        for (u, v), w in self.weights.items():
            deg[u] += w
            deg[v] += w
        return deg

    def neighbors(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {v: set() for v in self.nodes}
        for u, v in self.weights:
            adj[u].add(v)
            adj[v].add(u)
        return adj


@dataclass(frozen=True)
class DynamicNetwork:
    """Nonempty chronological sequence of snapshots on one universe."""

    snapshots: tuple[Snapshot, ...]
    universe_size: int

    def __post_init__(self):
        object.__setattr__(self, "snapshots", tuple(self.snapshots))
        if not self.snapshots:
            raise ValueError("a dynamic network needs at least one snapshot")
        prev = 0
        for s in self.snapshots:
            if s.universe_size != self.universe_size:
                raise UniverseMismatchError(
                    f"snapshot {s.index} has universe {s.universe_size}, expected {self.universe_size}"
                )
            if s.index <= prev:
                raise ValueError("snapshot indices must be strictly increasing")
            prev = s.index

    def __len__(self) -> int:
        return len(self.snapshots)

    def __iter__(self) -> Iterator[Snapshot]:
        return iter(self.snapshots)


@dataclass(frozen=True)
class FeatureSeries:
    """T x N x F array of node features aligned with a DynamicNetwork."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[2] < 1:
            raise ValueError(f"features must have shape (T, N, F), got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("feature values must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.values.shape  # type: ignore[return-value]


def rbf_censored_weights(
    features_at_t: np.ndarray,
    edges: Iterable[tuple[int, int]] | None,
    gamma: float,
    nu_star: float,
    index: int = 1,
) -> Snapshot:
    """Gaussian-kernel edge weights with right censoring at ``nu_star``.

    Each candidate pair (u, v) gets w = exp(-||x_u - x_v||^2 / gamma);
    weights above ``nu_star`` are censored to zero.  When ``edges`` is
    None every pair of the universe is a candidate.  All universe nodes
    are active (sensor semantics: a node exists even when isolated).
    """
    x = np.asarray(features_at_t, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if not np.all(np.isfinite(x)):
        raise ValueError("features must be finite")
    if gamma <= 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    n = x.shape[0]
    if edges is None:
        candidates: Iterable[tuple[int, int]] = ((u, v) for u in range(n) for v in range(u + 1, n))
    else:
        candidates = edges
    weights: dict[Edge, float] = {}
    for u, v in candidates:
        if u == v:
            continue
        key = _canonical(int(u), int(v))
        d2 = float(np.sum((x[key[0]] - x[key[1]]) ** 2))
        w = math.exp(-d2 / gamma)
        if w <= nu_star:
            weights[key] = w
    return Snapshot(index, n, frozenset(range(n)), weights)


def normalize_transaction_weights(
    counts: Mapping[tuple[int, int], int],
    universe_size: int,
    index: int = 1,
) -> Snapshot:
    """Scale symmetric transaction counts into [0, 1] by the maximum count."""
    merged: dict[Edge, int] = {}
    for (u, v), c in counts.items():
        if u == v:
            raise ValueError(f"self loop on node {u}")
        c = int(c)
        if c < 0:
            raise ValueError(f"negative count {c} on edge {(u, v)}")
        key = _canonical(u, v)
        if key in merged and merged[key] != c:
            raise ValueError(f"asymmetric counts for edge {key}")
        merged[key] = c
    top = max(merged.values(), default=0)
    if top == 0:
        return Snapshot(index, universe_size, frozenset(), {})
    weights = {k: c / top for k, c in merged.items() if c > 0}
    return Snapshot.from_edges(index, universe_size, [(u, v, w) for (u, v), w in weights.items()])


def reduce_top_edges(s: Snapshot, m: int) -> Snapshot:
    """Keep the ``m`` heaviest edges and their endpoint nodes.

    Ties break on lexicographic (u, v) order so the result is
    deterministic.  A snapshot with at most ``m`` edges is returned
    unchanged (same object).
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if s.n_edges <= m:
        return s
    ranked = sorted(s.weights.items(), key=lambda item: (-item[1], item[0]))
    kept = dict(ranked[:m])
    active = {n for e in kept for n in e}
    return Snapshot(s.index, s.universe_size, frozenset(active), kept)


def union_graph(g1: Snapshot, g2: Snapshot) -> Snapshot:
    """Union of node and edge sets; shared edges take the minimum weight.

    The minimum is the one weight choice that keeps every sublevel
    threshold inclusion valid: an edge surviving either snapshot's
    threshold also survives the union's.
    """
    if g1.universe_size != g2.universe_size:
        raise UniverseMismatchError(
            f"universe sizes differ: {g1.universe_size} vs {g2.universe_size}"
        )
    weights = dict(g1.weights)
    for e, w in g2.weights.items():
        if e in weights:
            weights[e] = min(weights[e], w)
        else:
            weights[e] = w
    return Snapshot(g1.index, g1.universe_size, g1.nodes | g2.nodes, weights)


def window_count(length: int, tau: int) -> int:
    """Number of runs of ``tau`` consecutive snapshots in a series of ``length``."""
    if tau < 1:
        raise ValueError(f"tau must be >= 1, got {tau}")
    if tau > length:
        raise ValueError(f"window size {tau} exceeds series length {length}")
    return length - tau + 1


def sliding_windows(net: DynamicNetwork, tau: int) -> list[tuple[Snapshot, ...]]:
    """All runs of ``tau`` consecutive snapshots, in chronological order."""
    snaps = net.snapshots
    return [tuple(snaps[i : i + tau]) for i in range(window_count(len(net), tau))]


# ---------------------------------------------------------------------------
# File formats: one edge per row `t,u,v,w`; features as `t,node,f1,...,fF`.

_SNAPSHOT_HEADER = "t,u,v,w"


def write_snapshot_csv(net: DynamicNetwork, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(_SNAPSHOT_HEADER + "\n")
        for s in net:
            for (u, v) in s.edges():
                fh.write(f"{s.index},{u},{v},{s.weights[(u, v)]:.17g}\n")


def read_snapshot_csv(path, universe_size: int | None = None) -> DynamicNetwork:
    """Read an edge-list CSV back into a DynamicNetwork.

    Active nodes are the edge endpoints; time steps between the smallest
    and largest t that have no rows become empty snapshots.
    """
    by_time: dict[int, list[tuple[int, int, float]]] = {}
    max_node = -1
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line == _SNAPSHOT_HEADER:
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise ValueError(f"{path}: line {lineno}: expected 4 fields, got {len(parts)}")
            try:
                t, u, v = int(parts[0]), int(parts[1]), int(parts[2])
                w = float(parts[3])
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from exc
            by_time.setdefault(t, []).append((u, v, w))
            max_node = max(max_node, u, v)
    if not by_time:
        raise ValueError(f"{path}: no edge rows")
    n = universe_size if universe_size is not None else max_node + 1
    t_lo, t_hi = min(by_time), max(by_time)
    snaps = [Snapshot.from_edges(t, n, by_time.get(t, [])) for t in range(t_lo, t_hi + 1)]
    return DynamicNetwork(tuple(snaps), n)


def write_feature_csv(fs: FeatureSeries, path, t0: int = 1) -> None:
    t_len, n, f = fs.shape
    cols = ",".join(f"f{i + 1}" for i in range(f))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"t,node,{cols}\n")
        for t in range(t_len):
            for node in range(n):
                vals = ",".join(f"{x:.17g}" for x in fs.values[t, node])
                fh.write(f"{t + t0},{node},{vals}\n")


def read_feature_csv(path) -> FeatureSeries:
    rows: dict[tuple[int, int], Sequence[float]] = {}
    n_feat = None
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("t,node"):
                continue
            parts = line.split(",")
            if len(parts) < 3:
                raise ValueError(f"{path}: line {lineno}: expected t,node,f1,... row")
            try:
                t, node = int(parts[0]), int(parts[1])
                vals = [float(x) for x in parts[2:]]
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from exc
            if n_feat is None:
                n_feat = len(vals)
            elif len(vals) != n_feat:
                raise ValueError(f"{path}: line {lineno}: inconsistent feature count")
            rows[(t, node)] = vals
    if not rows:
        raise ValueError(f"{path}: no feature rows")
    times = sorted({t for t, _ in rows})
    nodes = sorted({v for _, v in rows})
    t_index = {t: i for i, t in enumerate(times)}
    arr = np.zeros((len(times), nodes[-1] + 1, n_feat), dtype=np.float64)
    for (t, node), vals in rows.items():
        arr[t_index[t], node] = vals
    return FeatureSeries(arr)
