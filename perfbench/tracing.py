"""Outside-in tracing: spans and counters around the program's public calls.

Nothing in ``src/`` is instrumented.  Instead the benchmark replaces a
public function at the name its caller looks it up under (for example
``zigzagst.zigzag.build_complex``, which ``build_zigzag`` calls) with a
wrapper for the length of one pass, and restores it afterwards.

Two kinds of pass use this:

* the traced pass records a span (name, start, end, parent) per wrapped
  call and yields every per-layer ``*_s`` metric as span self time;
* the count pass records exact counts only, including the ~10^6
  ``TrackedBasis.insert`` calls that would swamp span timings.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def span_targets():
    """Span name -> the (owner, attribute) pairs whose calls it times."""
    from zigzagst import net, pipeline, zigzag
    from zigzagst.net import layers

    train_mod = sys.modules["zigzagst.net.train"]  # ``net.train`` is the function
    return {
        "dyngraph.read_snapshot_csv": [(pipeline, "read_snapshot_csv")],
        "dyngraph.union_graph": [(zigzag, "union_graph")],
        "filtration.build_complex": [(zigzag, "build_complex")],
        "zigzag.build_zigzag": [(pipeline, "build_zigzag")],
        "zigzag.persistence": [(pipeline, "compute_zigzag_persistence")],
        "zigzag.csv_io": [(pipeline, "write_zpd_csv"), (pipeline, "read_zpd_csv")],
        "zpi.render": [(pipeline, "render_zpi")],
        "zpi.write": [(pipeline, "write_zpi"), (pipeline, "write_pgm")],
        "metrics.wasserstein1": [(pipeline, "wasserstein1")],
        "pipeline.assemble_batches": [(pipeline, "assemble_batches")],
        "net.train": [(net, "train")],
        "net.forward": [(train_mod, "forward")],
        "net.backward": [(train_mod, "backward")],
        "net.adam_step": [(train_mod.Adam, "step")],
        "net.evaluate": [(train_mod, "evaluate")],
        "net.predict": [(net, "predict")],
        "net.checkpoint_io": [(net, "save_checkpoint"), (net, "load_checkpoint")],
        "net.zpi_encoder": [(layers, "zpi_encoder")],
        "net.zpi_encoder_backward": [(layers, "zpi_encoder_backward")],
        "net.spatial_conv": [(layers, "spatial_conv_window")],
        "net.spatial_conv_backward": [(layers, "spatial_conv_window_backward")],
        "net.temporal_conv": [(layers, "temporal_conv")],
        "net.temporal_conv_backward": [(layers, "temporal_conv_backward")],
        "net.gru_cell": [(layers, "gru_cell")],
        "net.gru_cell_backward": [(layers, "gru_cell_backward")],
    }


@contextmanager
def patched(replacements):
    """Set ``owner.attr = value`` for each triple, restoring on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


class Tracer:
    """In-memory span log of one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name id, start, end, parent index or -1]
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [nid, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()

        return traced

    @contextmanager
    def active(self):
        """Wrap every span target for the duration of the block."""
        replacements = [
            (owner, attr, self.wrap(name, getattr(owner, attr)))
            for name, sites in span_targets().items()
            for owner, attr in sites
        ]
        with patched(replacements):
            yield

    def self_seconds(self) -> dict[str, float]:
        """Per span name: summed duration minus the time child spans cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (nid, start, end, _), child in zip(self.spans, covered):
            totals[self.names[nid]] += end - start - child
        return dict(totals)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh, separators=(",", ":"))


COUNTS = (  # per-layer metrics with unit "count", all taken by Counter
    "dyngraph.union_graph_calls",
    "filtration.build_complex_calls",
    "zigzag.persistence_calls",
    "zigzag.bars_dim0",
    "zigzag.bars_dim1",
    "zigzag.distinct_points_dim1",
    "gf2.insert_calls",
    "gf2.matvec_calls",
    "zpi.render_calls",
    "zpi.points_rendered",
    "metrics.wasserstein1_calls",
    "metrics.points_matched",
    "net.forward_calls",
    "net.gru_cell_calls",
)


class Counter:
    """Exact work counts of one count pass, taken at the same call sites."""

    def __init__(self):
        self.n: dict[str, int] = defaultdict(int)
        self.assembled: list[int] = []  # windows per assemble_batches call

    def _wrap(self, fn, tally):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            tally(args, result)
            return result

        return counted

    def _calls(self, key, fn):
        n = self.n

        def counted(*args, **kwargs):
            n[key] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def active(self):
        from zigzagst import gf2, pipeline, zigzag
        from zigzagst.net import layers

        train_mod = sys.modules["zigzagst.net.train"]
        n = self.n

        def persistence(args, zpd):
            n["zigzag.persistence_calls"] += 1
            for p in zpd.points:
                n[f"zigzag.bars_dim{p.dim}"] += 1
            n["zigzag.distinct_points_dim1"] += len(
                {(p.birth, p.death) for p in zpd.points if p.dim == 1})

        def render(args, z):
            n["zpi.render_calls"] += 1
            n["zpi.points_rendered"] += len(args[0])

        def written(args, _):
            n["zpi.bytes_written"] += os.path.getsize(args[1])

        def w1(args, _):
            n1, n2 = len(args[0]), len(args[1])
            n["metrics.wasserstein1_calls"] += 1
            n["metrics.points_matched"] += n1 + n2
            n["distinct_points_matched"] += len(set(args[0])) + len(set(args[1]))
            n["metrics.cost_matrix_bytes"] += (n1 + n2) ** 2 * 8

        wrap, calls = self._wrap, self._calls
        replacements = [
            (zigzag, "union_graph", calls("dyngraph.union_graph_calls", zigzag.union_graph)),
            (zigzag, "build_complex",
             calls("filtration.build_complex_calls", zigzag.build_complex)),
            (pipeline, "compute_zigzag_persistence",
             wrap(pipeline.compute_zigzag_persistence, persistence)),
            (pipeline, "render_zpi", wrap(pipeline.render_zpi, render)),
            (pipeline, "write_zpi", wrap(pipeline.write_zpi, written)),
            (pipeline, "write_pgm", wrap(pipeline.write_pgm, written)),
            (pipeline, "wasserstein1", wrap(pipeline.wasserstein1, w1)),
            (pipeline, "assemble_batches",
             wrap(pipeline.assemble_batches, lambda a, r: self.assembled.append(len(r)))),
            (train_mod, "forward", calls("net.forward_calls", train_mod.forward)),
            (layers, "gru_cell", calls("net.gru_cell_calls", layers.gru_cell)),
            (gf2.TrackedBasis, "insert", calls("gf2.insert_calls", gf2.TrackedBasis.insert)),
            (gf2, "matvec", calls("gf2.matvec_calls", gf2.matvec)),
        ]
        with patched(replacements):
            yield

    def metrics(self, complexes: int, forecast_windows: int) -> dict:
        """Per-layer count metrics as name -> (value, unit).

        ``complexes`` is the number of distinct snapshot and union complexes
        in the pass's inputs.  ``cmd_train`` assembles first and uses every
        window it assembles; ``cmd_forecast`` then uses only its
        ``forecast_windows`` test windows.
        """
        n = self.n
        out = {k: (n[k], "count") for k in COUNTS}
        used = (self.assembled[0] if self.assembled else 0) + forecast_windows
        out["zpi.bytes_written"] = (n["zpi.bytes_written"], "bytes")
        out["metrics.cost_matrix_bytes"] = (n["metrics.cost_matrix_bytes"], "bytes-computed")
        out["filtration.useful_build_share"] = (
            complexes / max(1, n["filtration.build_complex_calls"]), "ratio")
        out["metrics.distinct_point_share"] = (
            n["distinct_points_matched"] / max(1, n["metrics.points_matched"]), "ratio")
        out["pipeline.useful_window_share"] = (used / max(1, sum(self.assembled)), "ratio")
        return out
