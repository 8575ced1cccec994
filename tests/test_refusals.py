"""One row per refusal that no other fast test reaches: what it is called with, and its message.

Each row builds or calls one thing with one bad input, and the refusal
must raise its exception type with exactly the message pinned here.
Every integer argument that ``dyngraph.checked`` or
``filtration.check_dim`` checks also has a row that gives it a numpy
integer, which must compute what the plain integer computes.
"""

import math
import re
import sys

import numpy as np
import pytest

from zigzagst import net
from zigzagst.dyngraph import (
    DynamicNetwork,
    Snapshot,
    UniverseMismatchError,
    normalize_transaction_weights,
    reduce_top_edges,
    sliding_windows,
    window_count,
)
from zigzagst.filtration import SimplicialComplex, betti_numbers, build_complex
from zigzagst.net.config import _param_shapes
from zigzagst.pipeline import RunConfig, _load_data, gen_synthetic
from zigzagst.zigzag import ZPD, zigzag_series
from zigzagst.zpi import WeightingSpec, default_domain, image_rows

EDGE = Snapshot(1, 3, frozenset({0, 1}), {(0, 1): 0.5})
PATH = Snapshot.from_edges(1, 4, [(0, 1, 0.5), (1, 2, 0.25), (2, 3, 0.75)])
TABLE = ZPD(((0, 2, 6, 1), (1, 3, 5, 2)))
SERIES = gen_synthetic(n_nodes=6, length=8, seed=1).network.snapshots
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
                                 "period must be >= 2, got 1"),
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
    # each integer argument below took a float or a bool, and ran on it
    "zigzag series tau a float": (lambda: zigzag_series([EDGE] * 6, 2.5, 0.5), ValueError,
                                  "tau must be an integer, got 2.5"),
    "window count tau a float": (lambda: window_count(6, 2.5), ValueError,
                                 "tau must be an integer, got 2.5"),
    "window count length a float": (lambda: window_count(6.0, 2), ValueError,
                                    "length must be an integer, got 6.0"),
    "sliding windows tau a bool": (lambda: sliding_windows(DynamicNetwork((EDGE,), 3), True),
                                   ValueError, "tau must be an integer, got True"),
    "top edges m a bool": (lambda: reduce_top_edges(EDGE, True), ValueError,
                           "m must be an integer, got True"),
    # raised a TypeError from slicing
    "top edges m a float": (lambda: reduce_top_edges(EDGE, 2.5), ValueError,
                            "m must be an integer, got 2.5"),
    "synthetic nodes a float": (lambda: gen_synthetic(n_nodes=8.0), ValueError,
                                "n_nodes must be an integer, got 8.0"),
    "synthetic length a float": (lambda: gen_synthetic(length=6.5), ValueError,
                                 "length must be an integer, got 6.5"),
    "synthetic period a float": (lambda: gen_synthetic(period=2.5), ValueError,
                                 "period must be an integer, got 2.5"),
    "default domain a float": (lambda: default_domain(2.5), ValueError,
                               "window length tau must be an integer, got 2.5"),
    "betti dimension a bool": (lambda: betti_numbers(build_complex(EDGE, 0.5), True), ValueError,
                               "p must be an integer, got True"),
    "diagram points dimension a float": (lambda: ZPD(()).points(1.0), ValueError,
                                         "dimension must be an integer, got 1.0"),
    "diagram alive count dimension a bool": (lambda: ZPD(()).count_alive(True, 2), ValueError,
                                             "dimension must be an integer, got True"),
    "loss metrics shape mismatch": (lambda: net.loss_metrics(np.zeros((2, 3)), np.zeros((3, 2))),
                                    ValueError, "shape mismatch (2, 3) vs (3, 2)"),
    # the bound of each integer argument, its bool, and a numpy integer below the bound,
    # whose message shows its plain value
    "window count length a bool": (lambda: window_count(True, 1), ValueError,
                                   "length must be an integer, got True"),
    "window count numpy tau below 1": (lambda: window_count(6, np.int64(0)), ValueError,
                                       "tau must be >= 1, got 0"),
    "zigzag series tau a bool": (lambda: zigzag_series(SERIES, True, 0.5), ValueError,
                                 "tau must be an integer, got True"),
    "zigzag series numpy tau below 1": (lambda: zigzag_series(SERIES, np.int32(-1), 0.5),
                                        ValueError, "tau must be >= 1, got -1"),
    "default domain below 1": (lambda: default_domain(0), ValueError,
                               "window length tau must be >= 1, got 0"),
    "default domain a bool": (lambda: default_domain(True), ValueError,
                              "window length tau must be an integer, got True"),
    "top edges numpy m below 1": (lambda: reduce_top_edges(PATH, np.uint8(0)), ValueError,
                                  "m must be >= 1, got 0"),
    "synthetic nodes below 6": (lambda: gen_synthetic(n_nodes=5), ValueError,
                                "need at least 6 nodes (4 cycle nodes plus a tree)"),
    "synthetic nodes a bool": (lambda: gen_synthetic(n_nodes=True), ValueError,
                               "n_nodes must be an integer, got True"),
    "synthetic length below 1": (lambda: gen_synthetic(length=0), ValueError,
                                 "a dynamic network needs at least one snapshot"),
    "synthetic length a bool": (lambda: gen_synthetic(length=True), ValueError,
                                "length must be an integer, got True"),
    "synthetic period a bool": (lambda: gen_synthetic(period=True), ValueError,
                                "period must be an integer, got True"),
    "transaction count below 0": (lambda: normalize_transaction_weights({(0, 1): -1}, 3),
                                  ValueError, "count on edge (0, 1) must be >= 0, got -1"),
    "transaction count a bool": (lambda: normalize_transaction_weights({(0, 1): True}, 3),
                                 ValueError, "count on edge (0, 1) must be an integer, got True"),
    "transaction numpy count below 0": (
        lambda: normalize_transaction_weights({(0, 1): np.int16(-2)}, 3), ValueError,
        "count on edge (0, 1) must be >= 0, got -2"),
    "betti dimension 2": (lambda: betti_numbers(build_complex(EDGE, 0.5), 2), ValueError,
                          "p must be 0 or 1, got 2"),
    "betti dimension -1": (lambda: betti_numbers(build_complex(EDGE, 0.5), -1), ValueError,
                           "p must be 0 or 1, got -1"),
    "diagram numpy dimension 2": (lambda: TABLE.points(np.int64(2)), ValueError,
                                  "dimension must be 0 or 1, got 2"),
    "diagram row dimension 2": (lambda: ZPD(((2, 2, 4, 1),)), ValueError,
                                "dimension must be 0 or 1, got 2"),
    "run homology dimension 2": (lambda: RunConfig(homology_dims=(2,)), ValueError,
                                 "homology_dims: dimension must be 0 or 1, got 2"),
    "run homology dimension a bool": (lambda: RunConfig(homology_dims=(True,)), ValueError,
                                      "homology_dims: dimension must be an integer, got True"),
    # returned () for (2,), and the dimension-1 rows for (True,)
    "image rows dimension 2": (lambda: image_rows(TABLE, (2,), WeightingSpec()), ValueError,
                               "dimension must be 0 or 1, got 2"),
    "image rows dimension a bool": (lambda: image_rows(TABLE, (True,), WeightingSpec()),
                                    ValueError, "dimension must be an integer, got True"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_a_bad_input_is_refused_with_its_message(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


# A numpy integer for each argument above, and the plain integer it must compute as:
# results with the same full repr, which names any numpy scalar left in them.
NUMPY_INTEGERS = {
    "window count": (lambda: window_count(np.int64(6), np.int64(3)), lambda: window_count(6, 3)),
    "zigzag series tau": (lambda: list(zigzag_series(SERIES, np.int64(3), 0.5)),
                          lambda: list(zigzag_series(SERIES, 3, 0.5))),
    "default domain": (lambda: default_domain(np.int32(4)), lambda: default_domain(4)),
    "top edges m": (lambda: reduce_top_edges(PATH, np.int64(2)), lambda: reduce_top_edges(PATH, 2)),
    "synthetic sizes": (
        lambda: gen_synthetic(n_nodes=np.int64(6), length=np.uint16(8), period=np.int8(3), seed=1),
        lambda: gen_synthetic(n_nodes=6, length=8, period=3, seed=1)),
    "transaction counts": (
        lambda: normalize_transaction_weights({(0, 1): np.int64(4), (1, 2): np.uint8(2)}, 3),
        lambda: normalize_transaction_weights({(0, 1): 4, (1, 2): 2}, 3)),
    "betti dimension": (lambda: betti_numbers(build_complex(PATH, 1.0), np.int64(0)),
                        lambda: betti_numbers(build_complex(PATH, 1.0), 0)),
    "diagram points dimension": (lambda: TABLE.points(np.int64(1)), lambda: TABLE.points(1)),
    "diagram alive count dimension": (lambda: TABLE.count_alive(np.int64(1), 4),
                                      lambda: TABLE.count_alive(1, 4)),
    "run homology dimensions": (lambda: RunConfig(homology_dims=(np.int64(1), np.uint8(0))),
                                lambda: RunConfig(homology_dims=(1, 0))),
    "image rows dimensions": (lambda: image_rows(TABLE, (np.int64(1),), WeightingSpec()),
                              lambda: image_rows(TABLE, (1,), WeightingSpec())),
}


@pytest.mark.parametrize("case", sorted(NUMPY_INTEGERS))
def test_a_numpy_integer_computes_as_its_plain_value(case):
    given, plain = NUMPY_INTEGERS[case]
    with np.printoptions(threshold=sys.maxsize, floatmode="unique"):
        assert repr(given()) == repr(plain())


def test_a_numpy_tau_gives_diagrams_of_plain_integers():
    # the rows held the numpy tau's type where the engine computed with it
    diagrams = list(zigzag_series(SERIES, np.int64(3), 0.5))
    assert diagrams == list(zigzag_series(SERIES, 3, 0.5))
    assert {type(x) for zpd in diagrams for row in zpd.rows for x in row} == {int}
