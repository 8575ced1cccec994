"""One row per refusal that no other fast test reaches: what it is called with, and its message.

Each row builds or calls one thing with one bad input, and the refusal
must raise its exception type with exactly the message pinned here.
"""

import math
import re

import numpy as np
import pytest

from zigzagst import net
from zigzagst.dyngraph import (
    DynamicNetwork,
    Snapshot,
    UniverseMismatchError,
    normalize_transaction_weights,
    reduce_top_edges,
    window_count,
)
from zigzagst.filtration import SimplicialComplex, build_complex
from zigzagst.net.config import _param_shapes
from zigzagst.pipeline import RunConfig, _load_data, gen_synthetic
from zigzagst.zigzag import zigzag_series

EDGE = Snapshot(1, 3, frozenset({0, 1}), {(0, 1): 0.5})
TINY_SHAPES = _param_shapes(net.tiny_config())
TINY_SIZE = sum(map(math.prod, TINY_SHAPES))

REFUSALS = {
    "snapshot universe below 1": (lambda: Snapshot(1, 0, frozenset(), {}), ValueError,
                                  "universe_size must be >= 1"),
    "snapshot node outside the universe": (lambda: Snapshot(1, 2, frozenset({0, 2}), {}),
                                           ValueError, "node 2 outside universe of size 2"),
    "snapshot weight key not canonical": (
        lambda: Snapshot(1, 3, frozenset({0, 1}), {(1, 0): 0.5}), ValueError,
        "weight key (1, 0) is not canonical (u < v)"),
    "snapshot edge outside the active set": (
        lambda: Snapshot(1, 3, frozenset({0}), {(0, 1): 0.5}), ValueError,
        "edge (0, 1) references a node outside the active set"),
    "network universe mismatch": (lambda: DynamicNetwork((EDGE,), 4), UniverseMismatchError,
                                  "snapshot 1 has universe 3, expected 4"),
    "transaction self loop": (lambda: normalize_transaction_weights({(1, 1): 2}, 3), ValueError,
                              "self loop on node 1"),
    "transaction counts asymmetric": (
        lambda: normalize_transaction_weights({(0, 1): 2, (1, 0): 3}, 3), ValueError,
        "asymmetric counts for edge (0, 1)"),
    "top edges m below 1": (lambda: reduce_top_edges(EDGE, 0), ValueError, "m must be >= 1, got 0"),
    "window count tau below 1": (lambda: window_count(5, 0), ValueError, "tau must be >= 1, got 0"),
    "zigzag series tau below 1": (lambda: zigzag_series([EDGE], 0, 0.5), ValueError,
                                  "tau must be >= 1, got 0"),
    "complex nu_star NaN": (lambda: build_complex(EDGE, math.nan), ValueError,
                            "nu_star must be finite"),
    "complex nu_star infinite": (lambda: build_complex(EDGE, math.inf), ValueError,
                                 "nu_star must be finite"),
    "complex edge endpoint outside the vertices": (
        lambda: SimplicialComplex([0, 1], [(0, 2)]), ValueError,
        "edge (0, 2) endpoint outside vertex set"),
    # raised a TypeError comparing the endpoints
    "complex edge endpoint a string": (
        lambda: SimplicialComplex([0, 1], [(0, "1")]), ValueError,
        "edge (0, '1') endpoint outside vertex set"),
    "synthetic period below 2": (lambda: gen_synthetic(period=1), ValueError,
                                 "period must be >= 2"),
    "data without a snapshot path": (lambda: _load_data(RunConfig(nu_star=0.5, features="f.csv")),
                                     ValueError, "snapshots and features paths are required"),
    "data without a feature path": (lambda: _load_data(RunConfig(nu_star=0.5, snapshots="s.csv")),
                                    ValueError, "snapshots and features paths are required"),
    # raised numpy's reshape error, naming no vector
    "parameter vector one short": (
        lambda: net.ModelParams.over(np.zeros(TINY_SIZE - 1), TINY_SHAPES), ValueError,
        f"parameter vector has shape ({TINY_SIZE - 1},), expected ({TINY_SIZE},)"),
    "parameter vector one long": (
        lambda: net.ModelParams.over(np.zeros(TINY_SIZE + 1), TINY_SHAPES), ValueError,
        f"parameter vector has shape ({TINY_SIZE + 1},), expected ({TINY_SIZE},)"),
    "loss metrics shape mismatch": (lambda: net.loss_metrics(np.zeros((2, 3)), np.zeros((3, 2))),
                                    ValueError, "shape mismatch (2, 3) vs (3, 2)"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_a_bad_input_is_refused_with_its_message(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
