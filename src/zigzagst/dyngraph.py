"""Sequences of weighted graph snapshots over a fixed node universe.

Snapshots store a sparse symmetric nonnegative weight map (absent entry
means weight zero, no self loops) together with the set of nodes active
at that time step.  All values are immutable after construction and all
operations are pure, so snapshots can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import textio

Edge = tuple[int, int]

__all__ = [
    "Edge",
    "Snapshot",
    "DynamicNetwork",
    "FeatureSeries",
    "UniverseMismatchError",
    "SnapshotSpanError",
    "MAX_SNAPSHOT_SPAN",
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


class SnapshotSpanError(ValueError):
    """A snapshot file's time steps span more than ``MAX_SNAPSHOT_SPAN`` snapshots."""


def _canonical(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def is_int(x) -> bool:
    """A Python or numpy integer, and not a ``bool``: the one integer rule of the library."""
    # an int skips the abstract-class test, which costs about 1 us a row
    return type(x) is int or (isinstance(x, Integral) and not isinstance(x, bool))


def _node_id(x, edge: tuple | None = None) -> int:
    """A node id as an int; it must pass ``is_int``.

    Anything else (a float such as 1.9, a ``bool``, a string) is refused,
    never truncated, with a ``ValueError`` naming ``edge`` if given.
    """
    if type(x) is not int:
        if not is_int(x):
            where = "node" if edge is None else f"edge {edge!r}: node id"
            raise ValueError(f"{where} {x!r} is not an integer")
        x = int(x)
    return x


def _node_ids(u, v) -> Edge:
    """Both endpoints of edge ``(u, v)`` through ``_node_id``."""
    return _node_id(u, (u, v)), _node_id(v, (u, v))


def _check_edge(u: int, v: int, w: float) -> None:
    if u == v:
        raise ValueError(f"self loop on node {u}")
    if not math.isfinite(w) or w < 0.0:
        raise ValueError(f"weight {(u, v)} = {w} is not finite nonnegative")


@dataclass(frozen=True)
class Snapshot:
    """One weighted graph observation at an integer time step.

    ``weights`` holds only strictly positive entries under canonical
    (u < v) keys, which makes symmetry exact by construction.  ``nodes``
    is the set of active nodes and must cover every weighted endpoint.
    Node ids, in ``nodes`` and in the weight keys, must be integers
    (``_node_id``), so every snapshot writes a CSV that reads back.
    ``Snapshot(...)`` checks all of this and drops zero weights; the
    library builds snapshots from parts that are already checked (a
    union of two snapshots, rows the reader has checked) through
    ``_checked_snapshot``, which skips those checks.
    """

    index: int
    universe_size: int
    nodes: frozenset[int]
    weights: Mapping[Edge, float]

    def __post_init__(self):
        for name in ("index", "universe_size"):
            if not is_int(getattr(self, name)):
                raise ValueError(f"snapshot {name} must be an integer, got {getattr(self, name)!r}")
        if self.index < 1:
            raise ValueError(f"snapshot index must be >= 1, got {self.index}")
        if self.universe_size < 1:
            raise ValueError("universe_size must be >= 1")
        object.__setattr__(self, "nodes", frozenset(map(_node_id, self.nodes)))
        for v in self.nodes:
            if not 0 <= v < self.universe_size:
                raise ValueError(f"node {v} outside universe of size {self.universe_size}")
        clean: dict[Edge, float] = {}
        for (u, v), w in self.weights.items():
            u, v = _node_ids(u, v)
            if u > v:
                raise ValueError(f"weight key {(u, v)} is not canonical (u < v)")
            w = float(w)
            _check_edge(u, v, w)
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
        Node ids must be integers (``_node_id``).  Active nodes default
        to the endpoints of positive-weight edges; pass ``nodes`` to
        include isolated active nodes.
        """
        weights: dict[Edge, float] = {}
        for u, v, w in edges:
            key = _canonical(*_node_ids(u, v))
            w = float(w)
            if key in weights and weights[key] != w:
                raise ValueError(f"conflicting weights for edge {key}: {weights[key]} vs {w}")
            weights[key] = w
        active = {n for (u, v), w in weights.items() if w > 0.0 for n in (u, v)}
        if nodes is not None:
            active.update(map(_node_id, nodes))
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


def _checked_snapshot(index: int, universe_size: int, nodes: frozenset[int],
                      weights: dict[Edge, float]) -> Snapshot:
    """A snapshot from parts that already pass ``Snapshot.__post_init__``, unchecked.

    ``weights`` must hold only positive finite floats under canonical keys
    whose endpoints are in ``nodes``, inside the universe; it is not copied.
    """
    s = object.__new__(Snapshot)
    vars(s).update(index=index, universe_size=universe_size, nodes=nodes,
                   weights=MappingProxyType(weights))
    return s


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
    """T x N x F array of node features; row 0 is time step ``start``."""

    values: np.ndarray
    start: int = 1

    def __post_init__(self):
        if not is_int(self.start):
            raise ValueError(f"feature start must be an integer, got {self.start!r}")
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
    None every pair of the universe is a candidate; given candidates must
    have integer endpoints (``_node_id``) in [0, n).  ``gamma`` must be
    finite and positive and ``nu_star`` finite.  All universe nodes are
    active (sensor semantics: a node exists even when isolated).
    """
    x = np.asarray(features_at_t, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if not np.all(np.isfinite(x)):
        raise ValueError("features must be finite")
    if not (math.isfinite(gamma) and gamma > 0.0):
        raise ValueError(f"gamma must be finite and positive, got {gamma}")
    if not math.isfinite(nu_star):
        raise ValueError("nu_star must be finite")
    n = x.shape[0]
    if edges is None:
        candidates: Iterable[tuple[int, int]] = ((u, v) for u in range(n) for v in range(u + 1, n))
    else:
        candidates = [_node_ids(u, v) for u, v in edges]
        for u, v in candidates:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"candidate edge {(u, v)} has an endpoint outside [0, {n})")
    weights: dict[Edge, float] = {}
    for u, v in candidates:
        if u == v:
            continue
        key = _canonical(u, v)
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
    """Scale symmetric transaction counts into [0, 1] by the maximum count.

    A count must be an integer (``is_int``) of at least 0, and so must a
    node id; anything else is refused, never rounded.
    """
    merged: dict[Edge, int] = {}
    for (u, v), c in counts.items():
        u, v = _node_ids(u, v)
        if u == v:
            raise ValueError(f"self loop on node {u}")
        if not is_int(c) or c < 0:
            raise ValueError(f"count on edge {(u, v)} must be an integer >= 0, got {c!r}")
        c = int(c)
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
    threshold also survives the union's.  The minimum of two valid
    weights is valid, so the union is not checked again.
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
    return _checked_snapshot(g1.index, g1.universe_size, g1.nodes | g2.nodes, weights)


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

# Most snapshots ``read_snapshot_csv`` builds from one file.  Every step
# between the first and last t becomes a snapshot, empty or not, so the
# span, not the row count, sizes the result: 100,000 empty snapshots take
# about 47 MB, while two rows with t = 1 and t = 10**9 would exhaust memory.
MAX_SNAPSHOT_SPAN = 100_000


def write_snapshot_csv(net: DynamicNetwork, path) -> None:
    """One row per edge, and the row ``t,0,1,0`` for a snapshot without edges, so its step is kept."""
    rows = ["".join(f"{s.index},{u},{v},{s.weights[(u, v)]:.17g}\n" for (u, v) in s.edges())
            or f"{s.index},0,1,0\n" for s in net]
    textio.write(path, _SNAPSHOT_HEADER + "\n" + "".join(rows))


def read_snapshot_csv(path, universe_size: int | None = None) -> DynamicNetwork:
    """Read an edge-list CSV back into a DynamicNetwork.

    Active nodes are the edge endpoints; time steps between the smallest
    and largest t that have no rows become empty snapshots.  Raises
    SnapshotSpanError, before building any snapshot, when that is more
    than ``MAX_SNAPSHOT_SPAN`` snapshots, and then ValueError when the
    smallest t is below 1.  A row with a node outside the universe, a
    self loop, a weight that is not finite nonnegative, or a weight other
    than an earlier row's for the same pair and t raises a ``ValueError``
    naming its line.  A row of weight zero adds no edge, but its t is a
    step of the series.  Every row is checked as it is read, so the
    snapshots are not checked again.
    """
    by_time: dict[int, dict[Edge, float]] = {}
    max_node = -1
    bound = universe_size if universe_size is not None else math.inf
    with textio.lines(path) as lines:
        for _, line in lines:
            if not line or line == _SNAPSHOT_HEADER:
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise ValueError(f"expected 4 fields, got {len(parts)}")
            t, u, v = int(parts[0]), int(parts[1]), int(parts[2])
            w = float(parts[3])
            if u > v:
                u, v = v, u
            if not (0 <= u < v < bound and 0.0 <= w < math.inf):  # a bad row: say why
                if u < 0:
                    raise ValueError(f"negative node id {u}")
                if v >= bound:
                    raise ValueError(f"node {v} outside universe of size {universe_size}")
                _check_edge(u, v, w)
            edges = by_time.setdefault(t, {})
            if edges.setdefault((u, v), w) != w:
                raise ValueError(
                    f"conflicting weights for edge {(u, v)} at t={t}: {edges[u, v]} vs {w}")
            max_node = max(max_node, v)
    if not by_time:
        raise ValueError(f"{path}: no edge rows")
    n = universe_size if universe_size is not None else max_node + 1
    t_lo, t_hi = min(by_time), max(by_time)
    if t_hi - t_lo + 1 > MAX_SNAPSHOT_SPAN:
        raise SnapshotSpanError(
            f"{path}: t runs from {t_lo} to {t_hi}, more than {MAX_SNAPSHOT_SPAN} snapshots")
    if t_lo < 1:
        raise ValueError(f"{path}: snapshot index must be >= 1, got {t_lo}")
    snaps = []
    for t in range(t_lo, t_hi + 1):
        weights = {e: w for e, w in by_time.get(t, {}).items() if w > 0.0}
        active = frozenset(x for e in weights for x in e)
        snaps.append(_checked_snapshot(t, n, active, weights))
    return DynamicNetwork(tuple(snaps), n)


def write_feature_csv(fs: FeatureSeries, path) -> None:
    t_len, n, f = fs.shape
    cols = ",".join(f"f{i + 1}" for i in range(f))
    rows = [f"{t + fs.start},{node}," + ",".join(f"{x:.17g}" for x in fs.values[t, node]) + "\n"
            for t in range(t_len) for node in range(n)]
    textio.write(path, f"t,node,{cols}\n" + "".join(rows))


def read_feature_csv(path) -> FeatureSeries:
    """Read a feature CSV; every ``(t, node)`` cell must have exactly one row.

    The cells are every t from the smallest to the largest and every node
    from 0 to the largest id; a repeated or missing cell raises.  The
    smallest t is the series' ``start``.
    """
    rows: dict[tuple[int, int], Sequence[float]] = {}
    n_feat = None
    with textio.lines(path) as lines:
        for _, line in lines:
            if not line or line.startswith("t,node"):
                continue
            parts = line.split(",")
            if len(parts) < 3:
                raise ValueError("expected t,node,f1,... row")
            t, node = int(parts[0]), int(parts[1])
            vals = [float(x) for x in parts[2:]]
            if not all(map(math.isfinite, vals)):
                raise ValueError("feature values must be finite")
            if n_feat is None:
                n_feat = len(vals)
            elif len(vals) != n_feat:
                raise ValueError("inconsistent feature count")
            if node < 0:
                raise ValueError(f"negative node id {node}")
            if (t, node) in rows:
                raise ValueError(f"repeated row for t={t}, node={node}")
            rows[(t, node)] = vals
    if not rows:
        raise ValueError(f"{path}: no feature rows")
    t_lo = min(t for t, _ in rows)
    t_len = max(t for t, _ in rows) - t_lo + 1
    n = max(node for _, node in rows) + 1
    if len(rows) != t_len * n:
        t, node = next(
            (t, node) for t in range(t_lo, t_lo + t_len) for node in range(n) if (t, node) not in rows
        )
        raise ValueError(f"{path}: no row for t={t}, node={node}")
    arr = np.empty((t_len, n, n_feat), dtype=np.float64)
    for (t, node), vals in rows.items():
        arr[t - t_lo, node] = vals
    return FeatureSeries(arr, t_lo)
