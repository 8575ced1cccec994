import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, strategies as st

from zigzagst import dyngraph
from zigzagst.dyngraph import (
    MAX_SNAPSHOT_SPAN,
    DynamicNetwork,
    FeatureSeries,
    Snapshot,
    SnapshotSpanError,
    UniverseMismatchError,
    normalize_transaction_weights,
    rbf_censored_weights,
    read_feature_csv,
    read_snapshot_csv,
    reduce_top_edges,
    sliding_windows,
    union_graph,
    write_feature_csv,
    write_snapshot_csv,
)


def snap(edges, n=6, index=1, nodes=None):
    return Snapshot.from_edges(index, n, edges, nodes=nodes)


# --- Snapshot construction ---------------------------------------------------

def test_weights_are_canonical_and_symmetric():
    s = snap([(3, 1, 0.5), (0, 2, 0.25)])
    assert s.weight(1, 3) == s.weight(3, 1) == 0.5
    assert s.weight(0, 2) == 0.25
    assert s.weight(0, 5) == 0.0
    assert s.nodes == frozenset({0, 1, 2, 3})


def test_zero_weight_edges_are_dropped():
    s = snap([(0, 1, 0.0), (1, 2, 0.3)])
    assert s.edges() == [(1, 2)]
    assert s.nodes == frozenset({1, 2})


def test_self_loop_and_negative_weight_rejected():
    with pytest.raises(ValueError):
        snap([(1, 1, 0.2)])
    with pytest.raises(ValueError):
        snap([(0, 1, -0.1)])


def test_conflicting_duplicate_edge_rejected():
    with pytest.raises(ValueError):
        snap([(0, 1, 0.2), (1, 0, 0.3)])


# node ids that are not integers: int() truncated 2.7 to 2 and read True as node 1
NOT_IDS = [2.7, 1.9, 2.0, True, False, "1", np.float64(1.0), np.bool_(True)]


def _id_message(edge, bad):
    return f"^edge {re.escape(repr(edge))}: node id {re.escape(repr(bad))} is not an integer$"


@pytest.mark.parametrize("bad", NOT_IDS)
def test_from_edges_refuses_a_node_id_that_is_not_an_integer(bad):
    with pytest.raises(ValueError, match=_id_message((0, bad), bad)):
        Snapshot.from_edges(1, 4, [(1, 3, 0.5), (0, bad, 0.5)])
    with pytest.raises(ValueError, match=f"^node {re.escape(repr(bad))} is not an integer$"):
        Snapshot.from_edges(1, 4, [(1, 3, 0.5)], nodes=[0, bad])


# a Snapshot or FeatureSeries field that must be an integer, and a value built from a bad one
INT_FIELDS = {
    "snapshot index": lambda bad: Snapshot(bad, 4, {0, 1}, {(0, 1): 0.2}),
    "snapshot universe_size": lambda bad: Snapshot(1, bad, {0, 1}, {(0, 1): 0.2}),
    "feature start": lambda bad: FeatureSeries(np.zeros((2, 3, 1)), start=bad),
}


@pytest.mark.parametrize("bad", [1.5, *NOT_IDS])
@pytest.mark.parametrize("field", sorted(INT_FIELDS))
def test_snapshot_and_feature_steps_must_be_integers(field, bad):
    # Snapshot(1.5, ...) was built, and its CSV line "1.5,0,1,..." did not read back
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got {re.escape(repr(bad))}$"):
        INT_FIELDS[field](bad)


def test_snapshot_and_feature_steps_take_numpy_integers(tmp_path):
    s = Snapshot(np.int64(2), np.uint8(4), {0, 1}, {(0, 1): 0.2})
    write_snapshot_csv(DynamicNetwork((s,), 4), tmp_path / "s.csv")
    assert list(read_snapshot_csv(tmp_path / "s.csv", universe_size=4)) == [s]
    fs = FeatureSeries(np.zeros((2, 3, 1)), start=np.int32(5))
    write_feature_csv(fs, tmp_path / "f.csv")
    assert read_feature_csv(tmp_path / "f.csv").start == 5


@pytest.mark.parametrize("bad", NOT_IDS)
def test_a_snapshot_refuses_a_node_id_that_is_not_an_integer(bad):
    # Snapshot(1, 4, {0, 1.5}, {(0, 1.5): 0.2}) was built, and its CSV line did not read back
    with pytest.raises(ValueError, match=f"^node {re.escape(repr(bad))} is not an integer$"):
        Snapshot(1, 4, [3, bad], {})
    with pytest.raises(ValueError, match=_id_message((0, bad), bad)):
        Snapshot(1, 4, {0, 1, 2, 3}, {(0, 3): 0.2, (0, bad): 0.2})


def test_the_reported_snapshot_is_refused_and_a_valid_one_reads_back(tmp_path):
    with pytest.raises(ValueError, match="is not an integer"):
        Snapshot(1, 4, {0, 1.5}, {(0, 1.5): 0.2})
    s = Snapshot(1, 4, {np.int64(0), 1, 3}, {(np.int32(0), 1): 0.2, (1, np.uint8(3)): 1 / 3})
    assert all(type(x) is int for x in s.nodes) and all(type(x) is int for e in s.weights for x in e)
    write_snapshot_csv(DynamicNetwork((s,), 4), tmp_path / "s.csv")
    assert list(read_snapshot_csv(tmp_path / "s.csv", universe_size=4)) == [s]


def test_from_edges_refuses_the_truncated_edge_of_the_report():
    # this built edge (0, 2)
    with pytest.raises(ValueError, match=_id_message((0, 2.7), 2.7)):
        Snapshot.from_edges(1, 4, [(0, 2.7, 0.5)])


def test_from_edges_takes_numpy_integer_ids_as_ints():
    got = Snapshot.from_edges(1, 4, [(np.int64(2), np.uint8(0), 0.5)], nodes=np.arange(4))
    assert got == Snapshot.from_edges(1, 4, [(2, 0, 0.5)], nodes=range(4))
    assert all(type(x) is int for e in got.weights for x in e)
    assert all(type(x) is int for x in got.nodes)


def test_dynamic_network_index_ordering():
    s1, s2 = snap([], index=1), snap([], index=2)
    DynamicNetwork((s1, s2), 6)
    with pytest.raises(ValueError):
        DynamicNetwork((s2, s1), 6)
    with pytest.raises(ValueError):
        DynamicNetwork((), 6)


def test_feature_series_validation():
    FeatureSeries(np.zeros((3, 4, 2)))
    with pytest.raises(ValueError):
        FeatureSeries(np.zeros((3, 4)))
    with pytest.raises(ValueError):
        FeatureSeries(np.full((2, 2, 1), np.nan))


# --- rbf_censored_weights ----------------------------------------------------

def test_rbf_identical_features_censored():
    # w = exp(0) = 1 > 0.5 so the edge is censored away
    x = np.zeros((2, 3))
    s = rbf_censored_weights(x, [(0, 1)], gamma=1.0, nu_star=0.5)
    assert s.n_edges == 0


def test_rbf_unit_distance_kept():
    x = np.array([[0.0], [1.0]])
    s = rbf_censored_weights(x, [(0, 1)], gamma=1.0, nu_star=0.5)
    assert s.weight(0, 1) == pytest.approx(math.exp(-1.0))


def test_rbf_complete_graph_default_and_all_nodes_active():
    x = np.array([[0.0], [2.0], [4.0]])
    s = rbf_censored_weights(x, None, gamma=1.0, nu_star=0.5)
    assert s.nodes == frozenset({0, 1, 2})
    assert s.weight(0, 1) == pytest.approx(math.exp(-4.0))


def test_rbf_rejects_bad_inputs():
    with pytest.raises(ValueError):
        rbf_censored_weights(np.array([[np.inf]]), None, 1.0, 0.5)
    with pytest.raises(ValueError):
        rbf_censored_weights(np.zeros((2, 1)), None, 0.0, 0.5)


@pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf, -1.0])
def test_rbf_refuses_a_gamma_that_is_not_finite_and_positive(gamma):
    # a NaN gamma would censor every weight away, and an infinite one make every weight 1
    with pytest.raises(ValueError, match=f"^gamma must be finite and positive, got {gamma}$"):
        rbf_censored_weights(np.zeros((3, 1)), None, gamma, 0.5)


@pytest.mark.parametrize("nu_star", [math.nan, math.inf, -math.inf])
def test_rbf_refuses_a_non_finite_nu_star(nu_star):
    # a NaN nu_star would censor every weight away without a word
    with pytest.raises(ValueError, match="^nu_star must be finite$"):
        rbf_censored_weights(np.array([[0.0], [1.0]]), None, 1.0, nu_star)


@pytest.mark.parametrize("features", [np.zeros((3, 1)), np.array([[0.0], [1.0], [5.0]])])
@pytest.mark.parametrize("bad", [(2, 7), (0, -1), (-1, 0), (3, 1)])
def test_rbf_refuses_a_candidate_endpoint_outside_the_nodes(features, bad):
    # identical features censor every weight, so a negative id would be dropped unseen;
    # spread ones keep it, where it would read node n - 1
    message = rf"^candidate edge \({bad[0]}, {bad[1]}\) has an endpoint outside \[0, 3\)$"
    with pytest.raises(ValueError, match=message):
        rbf_censored_weights(features, [(0, 1), (1, 2), bad], gamma=1.0, nu_star=0.5)


@pytest.mark.parametrize("edge, bad", [((0, 1.9), 1.9), ((True, 2.5), True)]
                         + [((0, bad), bad) for bad in NOT_IDS])
def test_rbf_refuses_a_candidate_id_that_is_not_an_integer(edge, bad):
    # (0, 1.9) gave edge (0, 1) and (True, 2.5) edge (1, 2)
    with pytest.raises(ValueError, match=_id_message(edge, bad)):
        rbf_censored_weights(np.array([[0.0], [1.0], [5.0]]), [(1, 2), edge], 1.0, 0.5)


def test_rbf_takes_numpy_integer_candidates():
    x = np.array([[0.0], [1.0], [5.0]])
    got = rbf_censored_weights(x, [(np.int64(1), np.uint8(0)), (2, 1)], 1.0, 0.5)
    assert got == rbf_censored_weights(x, [(0, 1), (1, 2)], 1.0, 0.5)
    assert got.edges() == [(0, 1), (1, 2)]
    assert all(type(x) is int for e in got.weights for x in e)


@given(st.floats(0.05, 1.0), st.floats(0.1, 4.0))
def test_rbf_outputs_zero_or_in_interval(nu_star, gamma):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, 2))
    s = rbf_censored_weights(x, None, gamma=gamma, nu_star=nu_star)
    for w in s.weights.values():
        assert 0.0 < w <= nu_star


# --- normalize_transaction_weights -------------------------------------------

def test_normalize_counts_examples():
    s = normalize_transaction_weights({(0, 1): 4, (1, 2): 2}, universe_size=4)
    assert s.weight(0, 1) == 1.0
    assert s.weight(1, 2) == 0.5
    assert normalize_transaction_weights({(0, 1): 0}, universe_size=4).n_edges == 0
    single = normalize_transaction_weights({(0, 1): 7}, universe_size=4)
    assert single.weight(0, 1) == 1.0


def test_normalize_counts_rejects_negative():
    with pytest.raises(ValueError):
        normalize_transaction_weights({(0, 1): -2}, universe_size=4)


@pytest.mark.parametrize("count", [2.7, -0.5, 3.0, True, "3", math.nan, math.inf, np.float64(2.0)])
def test_normalize_counts_refuse_what_is_not_a_nonnegative_integer(count):
    # int() would truncate 2.7 to 2 and -0.5 to 0, and count True as 1 and "3" as 3
    message = rf"^count on edge \(1, 2\) must be an integer >= 0, got {re.escape(repr(count))}$"
    with pytest.raises(ValueError, match=message):
        normalize_transaction_weights({(0, 1): 3, (1, 2): count}, universe_size=4)


@pytest.mark.parametrize("count", [3, 0])
@pytest.mark.parametrize("bad", [1.5] + NOT_IDS)
def test_normalize_counts_refuse_a_node_id_that_is_not_an_integer(bad, count):
    # {(0, 1.5): 3} gave edge (0, 1); a count of 0 adds no edge but is no excuse
    with pytest.raises(ValueError, match=_id_message((0, bad), bad)):
        normalize_transaction_weights({(1, 2): 3, (0, bad): count}, universe_size=4)


def test_normalize_counts_take_numpy_integers():
    s = normalize_transaction_weights({(0, 1): np.int64(4), (2, 1): np.uint8(2)}, universe_size=4)
    assert s.weights == {(0, 1): 1.0, (1, 2): 0.5}
    assert all(type(w) is float for w in s.weights.values())


# --- reduce_top_edges ---------------------------------------------------------

def test_reduce_top_edges_keeps_heaviest():
    s = snap([(0, 1, 5.0), (1, 2, 3.0), (2, 3, 1.0)])
    r = reduce_top_edges(s, 2)
    assert r.edges() == [(0, 1), (1, 2)]
    assert r.nodes == frozenset({0, 1, 2})


def test_reduce_top_edges_identity_when_small():
    s = snap([(0, 1, 5.0)])
    assert reduce_top_edges(s, 3) is s


def test_reduce_top_edges_lexicographic_ties():
    s = snap([(0, 3, 1.0), (0, 1, 1.0), (2, 3, 1.0)])
    r = reduce_top_edges(s, 2)
    assert r.edges() == [(0, 1), (0, 3)]


@given(st.integers(1, 8))
def test_reduce_top_edges_bounded_and_deterministic(m):
    rng = np.random.default_rng(7)
    edges = [(u, v, float(rng.integers(1, 5))) for u in range(6) for v in range(u + 1, 6)]
    s = snap(edges, n=6)
    r1, r2 = reduce_top_edges(s, m), reduce_top_edges(s, m)
    assert r1.n_edges <= m
    assert r1.edges() == r2.edges()
    assert dict(r1.weights) == dict(r2.weights)


# --- union_graph ---------------------------------------------------------------

def test_union_disjoint_and_min_rule():
    g1 = snap([(0, 1, 0.2)])
    g2 = snap([(1, 2, 0.4)], index=2)
    u = union_graph(g1, g2)
    assert u.weight(0, 1) == 0.2 and u.weight(1, 2) == 0.4
    shared1 = snap([(0, 1, 0.2)])
    shared2 = snap([(0, 1, 0.4)], index=2)
    assert union_graph(shared1, shared2).weight(0, 1) == 0.2


def test_union_idempotent_and_commutative():
    g1 = snap([(0, 1, 0.2), (2, 3, 0.7)])
    g2 = snap([(0, 1, 0.5), (1, 2, 0.1)], index=2)
    self_union = union_graph(g1, g1)
    assert dict(self_union.weights) == dict(g1.weights)
    assert self_union.nodes == g1.nodes
    u12, u21 = union_graph(g1, g2), union_graph(g2, g1)
    assert dict(u12.weights) == dict(u21.weights)
    assert u12.nodes == u21.nodes


def test_union_universe_mismatch():
    with pytest.raises(UniverseMismatchError):
        union_graph(snap([], n=4), snap([], n=5))


@given(st.floats(0.05, 1.0))
def test_union_preserves_sublevel_edges(nu):
    rng = np.random.default_rng(11)
    g1 = snap([(u, v, float(rng.uniform(0.05, 1))) for u in range(5) for v in range(u + 1, 5) if rng.random() < 0.5])
    g2 = snap([(u, v, float(rng.uniform(0.05, 1))) for u in range(5) for v in range(u + 1, 5) if rng.random() < 0.5], index=2)
    u = union_graph(g1, g2)
    for e, w in g1.weights.items():
        if w <= nu:
            assert u.weights[e] <= nu


# --- sliding_windows -----------------------------------------------------------

def test_sliding_window_counts():
    snaps = tuple(snap([], index=i) for i in range(1, 6))
    network = DynamicNetwork(snaps, 6)
    assert len(sliding_windows(network, 2)) == 4
    assert len(sliding_windows(network, 5)) == 1
    with pytest.raises(ValueError):
        sliding_windows(network, 6)
    windows = sliding_windows(network, 3)
    assert [w[0].index for w in windows] == [1, 2, 3]


# --- CSV round trips ------------------------------------------------------------

def test_snapshot_csv_roundtrip(tmp_path):
    net = DynamicNetwork(
        (snap([(0, 1, 0.125), (2, 3, 1 / 3)], index=1), snap([(1, 2, 0.7)], index=2)), 6
    )
    path = tmp_path / "snaps.csv"
    write_snapshot_csv(net, path)
    back = read_snapshot_csv(path, universe_size=6)
    assert len(back) == 2
    for a, b in zip(net, back):
        assert dict(a.weights) == dict(b.weights)


def test_snapshot_csv_keeps_steps_without_edges(tmp_path):
    # steps 1, 3 and 5 have no edges; each is written as the zero-weight row t,0,1,0
    net = DynamicNetwork(tuple(
        snap([(0, 1, 0.25 * t), (1, 3, 0.5)] if t % 2 == 0 else [], index=t)
        for t in range(1, 6)), 6)
    path = tmp_path / "snaps.csv"
    write_snapshot_csv(net, path)
    assert path.read_text().splitlines()[1] == "1,0,1,0"
    back = read_snapshot_csv(path, universe_size=6)
    assert [s.index for s in back] == [1, 2, 3, 4, 5]
    assert [dict(s.weights) for s in back] == [dict(s.weights) for s in net]
    assert [s.nodes for s in back] == [s.nodes for s in net]


def test_snapshot_csv_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("t,u,v,w\n")
    with pytest.raises(ValueError):
        read_snapshot_csv(empty)
    bad = tmp_path / "bad.csv"
    bad.write_text("t,u,v,w\n1,2,3\n")
    with pytest.raises(ValueError, match="line 2"):
        read_snapshot_csv(bad)


def test_snapshot_csv_span_is_bounded_before_any_snapshot_is_built(tmp_path, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a snapshot was built")

    monkeypatch.setattr(dyngraph.Snapshot, "__post_init__", unreachable)
    monkeypatch.setattr(dyngraph, "_checked_snapshot", unreachable)
    path = tmp_path / "far.csv"
    path.write_text("t,u,v,w\n1,0,1,0.5\n1000000000,1,2,0.5\n")
    with pytest.raises(SnapshotSpanError, match=r"far\.csv: t runs from 1 to 1000000000"):
        read_snapshot_csv(path)
    path.write_text(f"t,u,v,w\n5,0,1,0.5\n{5 + MAX_SNAPSHOT_SPAN},1,2,0.5\n")
    with pytest.raises(SnapshotSpanError, match=rf"from 5 to {5 + MAX_SNAPSHOT_SPAN}"):
        read_snapshot_csv(path)


def test_snapshot_csv_rejects_t_below_one_before_any_snapshot_is_built(tmp_path, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a snapshot was built")

    monkeypatch.setattr(dyngraph.Snapshot, "__post_init__", unreachable)
    monkeypatch.setattr(dyngraph, "_checked_snapshot", unreachable)
    path = tmp_path / "zero.csv"
    for rows in ("2,0,1,0.5\n0,1,2,0.5\n", "-3,0,1,0.5\n"):
        path.write_text("t,u,v,w\n" + rows)
        with pytest.raises(ValueError, match=r"zero\.csv: snapshot index must be >= 1, got -?\d"):
            read_snapshot_csv(path)


def validated(s):
    """The same snapshot built again through every check of ``Snapshot(...)``."""
    return Snapshot(s.index, s.universe_size, s.nodes, dict(s.weights))


@given(st.lists(st.tuples(st.integers(1, 4), st.integers(0, 7), st.integers(0, 7),
                          st.sampled_from([0.0, 0.125, 0.5, 1 / 3, 2.0, 1e-300])), max_size=30),
       st.sampled_from([None, 8, 70]))
def test_read_and_union_snapshots_equal_validated_ones(rows, universe_size):
    rows = [(t, u, v, w) for t, u, v, w in rows if u != v]
    first = {}  # the reader rejects a second weight for the same pair and t
    rows = [r for r in rows if first.setdefault((r[0], min(r[1:3]), max(r[1:3])), r[3]) == r[3]]
    if not rows:
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "snaps.csv")
        with open(path, "w") as fh:
            fh.write("t,u,v,w\n" + "".join(f"{t},{u},{v},{w!r}\n" for t, u, v, w in rows))
        net = read_snapshot_csv(path, universe_size)
    for s in net:
        assert s == validated(s)
        want = {(min(u, v), max(u, v)): w for t, u, v, w in rows if t == s.index and w > 0}
        assert dict(s.weights) == want
        assert s.nodes == {x for e in want for x in e}
    for a, b in zip(net.snapshots, net.snapshots[1:]):
        u = union_graph(a, b)
        assert u == validated(u) == Snapshot(a.index, a.universe_size, a.nodes | b.nodes, {
            e: min(a.weights.get(e, math.inf), b.weights.get(e, math.inf))
            for e in {*a.weights, *b.weights}})
        assert type(u.weights) is type(validated(u).weights)


def test_snapshot_csv_span_at_the_bound_is_read(tmp_path, monkeypatch):
    monkeypatch.setattr(dyngraph, "MAX_SNAPSHOT_SPAN", 3)
    path = tmp_path / "near.csv"
    path.write_text("t,u,v,w\n4,0,1,0.5\n6,1,2,0.5\n")
    assert [s.index for s in read_snapshot_csv(path)] == [4, 5, 6]
    path.write_text("t,u,v,w\n4,0,1,0.5\n7,1,2,0.5\n")
    with pytest.raises(SnapshotSpanError, match="from 4 to 7, more than 3 snapshots"):
        read_snapshot_csv(path)


def test_feature_csv_roundtrip(tmp_path):
    fs = FeatureSeries(np.arange(24, dtype=float).reshape(4, 3, 2) / 7.0)
    path = tmp_path / "features.csv"
    write_feature_csv(fs, path)
    back = read_feature_csv(path)
    assert np.array_equal(back.values, fs.values) and back.start == 1


def test_feature_csv_roundtrip_keeps_the_first_step(tmp_path):
    fs = FeatureSeries(np.arange(24, dtype=float).reshape(4, 3, 2) / 7.0, start=5)
    path = tmp_path / "features.csv"
    write_feature_csv(fs, path)
    assert path.read_text().splitlines()[1].startswith("5,0,")
    back = read_feature_csv(path)
    assert back.start == 5 and np.array_equal(back.values, fs.values)


def test_feature_csv_requires_every_cell_once(tmp_path):
    path = tmp_path / "features.csv"
    path.write_text("t,node,f1\n1,0,0.5\n1,1,0.5\n2,0,0.5\n")
    with pytest.raises(ValueError, match=r"features\.csv: no row for t=2, node=1"):
        read_feature_csv(path)
    path.write_text("t,node,f1\n1,0,0.5\n1,0,0.7\n")
    with pytest.raises(ValueError, match=r"features\.csv: line 3: repeated row for t=1, node=0"):
        read_feature_csv(path)
    # a step without rows is a hole, as it is an empty snapshot in read_snapshot_csv
    path.write_text("t,node,f1\n1,0,0.5\n3,0,0.5\n")
    with pytest.raises(ValueError, match="no row for t=2, node=0"):
        read_feature_csv(path)
    path.write_text("t,node,f1\n1,-1,0.5\n")
    with pytest.raises(ValueError, match="line 2: negative node id -1"):
        read_feature_csv(path)


@pytest.mark.parametrize("reader, rows, message", [
    (read_snapshot_csv, "t,u,v,w\n1,-1,2,0.3\n", "line 2: negative node id -1"),
    (read_snapshot_csv, "t,u,v,w\n1,2,2,0.3\n", "line 2: self loop on node 2"),
    (read_snapshot_csv, "t,u,v,w\n1,0,1,nan\n",
     r"line 2: weight \(0, 1\) = nan is not finite nonnegative"),
    (read_snapshot_csv, "t,u,v,w\n1,0,1,-0.5\n",
     r"line 2: weight \(0, 1\) = -0.5 is not finite nonnegative"),
    (read_snapshot_csv, "t,u,v,w\n1,0,1,0.3\n1,1,0,0.4\n",
     r"line 3: conflicting weights for edge \(0, 1\) at t=1: 0.3 vs 0.4"),
    (read_feature_csv, "t,node,f1\n1,0,nan\n", "line 2: feature values must be finite"),
])
def test_readers_name_the_path_and_line_of_a_bad_row(tmp_path, reader, rows, message):
    path = tmp_path / "bad.csv"
    path.write_text(rows)
    with pytest.raises(ValueError, match=rf"bad\.csv: {message}"):
        reader(path)


def test_snapshot_csv_rejects_a_node_outside_the_given_universe(tmp_path):
    path = tmp_path / "snaps.csv"
    path.write_text("t,u,v,w\n1,0,1,0.3\n2,1,6,0.3\n")
    with pytest.raises(ValueError, match=r"snaps\.csv: line 3: node 6 outside universe of size 6"):
        read_snapshot_csv(path, universe_size=6)
    assert read_snapshot_csv(path, universe_size=7).universe_size == 7
    # the same pair and weight twice is one edge
    path.write_text("t,u,v,w\n1,0,1,0.3\n1,1,0,0.3\n")
    assert dict(read_snapshot_csv(path).snapshots[0].weights) == {(0, 1): 0.3}
