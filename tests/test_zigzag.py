import pickle
import re
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from zigzagst import zigzag
from zigzagst.dyngraph import Snapshot
from zigzagst.filtration import FiltrationMode
from zigzagst.zigzag import (
    _ZPD_HEADER,
    InclusionError,
    ZPD,
    betti_consistency_check,
    build_zigzag,
    compute_zigzag_persistence,
    read_zpd_csv,
    write_zpd_csv,
)
from reference_zigzag import read_zpd_csv_by_line, reference_window_zpd
from util import (
    TrackedComplex,
    independent_snapshots,
    random_dynamic_network,
    reverse_window,
    union_find_components,
)


def snap(edges, n=4, index=1, nodes=None):
    return Snapshot.from_edges(index, n, [(u, v, 0.2) for u, v in edges], nodes=nodes)


def golden_cycle_window():
    path = [(0, 1), (1, 2), (2, 3)]
    square = path + [(0, 3)]
    return [snap(path, index=1), snap(square, index=2), snap(path, index=3)]


# --- the ZPD count table ------------------------------------------------------

def test_zpd_table_validates_rows():
    for row, message in [
        ((0, 1, 4, 1), "half-index 2t = 1 below the grid start"),
        ((0, 4, 1, 1), "half-index 2t = 1 below the grid start"),
        ((0, 4, 3, 1), "death 3/2 precedes birth 2"),
        ((2, 2, 3, 1), "dimension must be 0 or 1, got 2"),
        ((1, 2, 3, 0), "count must be a positive integer, got 0"),
        ((1, 2, 4, 1.5), r"count must be a positive integer, got 1\.5"),
        ((1, 2, 4, True), "count must be a positive integer, got True"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            ZPD(((1, 3, 5, 2), row))


@pytest.mark.parametrize("row, message", [
    ((True, 2, 4, 1), "dimension must be an integer, got True"),
    ((np.bool_(False), 2, 4, 1), "dimension must be an integer, got np.False_"),
    ((1.0, 2, 4, 1), r"dimension must be an integer, got 1\.0"),
    (("0", 2, 4, 1), "dimension must be an integer, got '0'"),
    ((0, 2.0, 4, 1), r"half-index 2t must be an integer, got 2\.0"),
    ((0, 2, 4.0, 1), r"half-index 2t must be an integer, got 4\.0"),
    ((0, True, 4, 1), "half-index 2t must be an integer, got True"),
    ((0, 2, "4", 1), "half-index 2t must be an integer, got '4'"),
])
def test_zpd_table_refuses_rows_its_csv_cannot_hold(row, message):
    # ZPD took the first and the fifth; write_zpd_csv wrote "True,2,4" and "0,2.0,4",
    # which read_zpd_csv refused
    with pytest.raises(ValueError, match=f"^{message}$"):
        ZPD(((1, 3, 5, 2), row))


# what a ZPD row may be handed: only the integers that are not bools survive the table
_DIMS = st.sampled_from([0, 1, True, False, 1.0, np.int64(1), np.uint8(0), np.bool_(True), "1"])
_TWICE = (st.integers(2, 9) | st.integers(2, 9).map(np.int64) | st.integers(2, 9).map(float)
          | st.sampled_from([True, "3"]))
_COUNTS = st.integers(1, 3) | st.sampled_from([np.int64(2), True, 1.0])


@given(rows=st.lists(st.tuples(_DIMS, _TWICE, _TWICE, _COUNTS), max_size=4))
def test_every_table_zpd_accepts_survives_a_write_and_a_read(tmp_path_factory, rows):
    try:
        zpd = ZPD(tuple(rows))
    except ValueError:
        return
    path = tmp_path_factory.getbasetemp() / "roundtrip.csv"
    write_zpd_csv(zpd, path)
    assert read_zpd_csv(path) == zpd


def test_zpd_table_keeps_numpy_integer_rows_that_round_trip(tmp_path):
    zpd = ZPD(((np.int64(1), np.uint8(3), np.int32(7), np.int64(2)), (0, 2, 4, 1)))
    path = tmp_path / "zpd.csv"
    write_zpd_csv(zpd, path)
    assert read_zpd_csv(path) == zpd == ZPD(((1, 3, 7, 2), (0, 2, 4, 1)))


@pytest.mark.parametrize("rows, plain", [
    (((np.int64(1), np.int64(3), 5, 2), (1, 3, 5, 1)), ((1, 3, 5, 3),)),
    (((np.int8(0), np.uint64(3), np.int32(7), np.int16(2)), (0, 2, 4, np.uint8(1))),
     ((0, 2, 4, 1), (0, 3, 7, 2))),
])
def test_zpd_table_stores_numpy_integer_rows_as_plain_ints(rows, plain):
    zpd = ZPD(rows)
    assert all(type(value) is int for row in zpd.rows for value in row), zpd.rows
    assert zpd.rows == plain and repr(zpd) == repr(ZPD(plain))


def test_zpd_table_sorts_and_merges_rows():
    zpd = ZPD([(1, 3, 5, 1), (0, 4, 4, 2), (1, 3, 5, 2), (0, 2, 9, 1)])
    assert zpd.rows == ((0, 2, 9, 1), (0, 4, 4, 2), (1, 3, 5, 3))
    assert zpd == ZPD(((0, 2, 9, 1), (1, 3, 5, 3), (0, 4, 4, 1), (0, 4, 4, 1)))
    assert zpd != ZPD(((0, 2, 9, 1), (0, 4, 4, 2), (1, 3, 5, 2)))
    assert len(zpd) == 6 and len(ZPD(())) == 0
    assert pickle.loads(pickle.dumps(zpd)) == zpd
    with pytest.raises(AttributeError):
        zpd.rows = ()


def test_zpd_table_views_keep_counts_in_row_order():
    zpd = ZPD(((1, 3, 5, 2), (0, 2, 9, 1), (1, 2, 6, 1)))
    assert zpd.points(1) == [(1.0, 3.0, 1), (1.5, 2.5, 2)]
    assert zpd.points(0) == [(1.0, 4.5, 1)]
    assert ZPD(()).points(0) == []
    assert [zpd.count_alive(1, t) for t in range(2, 8)] == [1, 3, 3, 3, 1, 0]


@pytest.mark.parametrize("dim", [-1, 2])
def test_zpd_table_rejects_other_dimensions(dim):
    zpd = ZPD(((1, 3, 5, 2),))
    with pytest.raises(ValueError, match=f"dimension must be 0 or 1, got {dim}"):
        zpd.points(dim)
    with pytest.raises(ValueError, match=f"dimension must be 0 or 1, got {dim}"):
        zpd.count_alive(dim, 4)


# --- build_zigzag ----------------------------------------------------------------

def test_build_shapes_and_events():
    complexes = build_zigzag(golden_cycle_window(), 0.5)
    assert len(complexes) == 5
    assert (0, 3) in complexes[1] and (0, 3) not in complexes[0]  # the square edge
    assert complexes[1] == complexes[2]  # union equals the second snapshot


def test_build_single_snapshot():
    complexes = build_zigzag([snap([(0, 1)])], 0.5)
    assert len(complexes) == 1


def test_build_unrolls_union_definition():
    g1, g2 = snap([(0, 1)], index=1), snap([(1, 2)], index=2)
    union = build_zigzag([g1, g2], 0.5)[1]
    assert (0, 1) in union and (1, 2) in union


def test_inclusion_violation_named():
    # weighted-degree scale is not monotone under graph union
    g1 = snap([(0, 1)], index=1)
    g2 = snap([(0, 2), (0, 3)], index=2)
    with pytest.raises(InclusionError, match="C\\(G_1\\)"):
        build_zigzag([g1, g2], 0.45, FiltrationMode.WEIGHTED_DEGREE_SUBLEVEL)


# --- compute_zigzag_persistence ---------------------------------------------------

def test_golden_cycle_diagram():
    zpd = compute_zigzag_persistence(golden_cycle_window(), 0.5)
    assert zpd.points(0) == [(1.0, 3.0, 1)]
    assert zpd.points(1) == [(1.5, 2.5, 1)]


def test_golden_merge_diagram():
    g1 = snap([(0, 1), (2, 3)], index=1)
    g2 = snap([(0, 1), (1, 2), (2, 3)], index=2)
    zpd = compute_zigzag_persistence([g1, g2], 0.5)
    assert zpd.points(0) == [(1.0, 1.0, 1), (1.0, 2.0, 1)]
    assert zpd.points(1) == []


def test_single_complex_all_classes_born_and_die_at_one():
    s = Snapshot(1, 5, frozenset({0, 1, 2, 3}), {(0, 1): 0.2})
    zpd = compute_zigzag_persistence([s], 0.5)
    assert zpd.points(0) == [(1.0, 1.0, 3)]


def test_isolated_nodes_full_bars():
    window = [Snapshot(i, 3, frozenset({0, 1, 2}), {}) for i in range(1, 5)]
    zpd = compute_zigzag_persistence(window, 0.5)
    assert zpd.points(0) == [(1.0, 4.0, 3)]


def test_union_born_class():
    # two halves of a square in consecutive snapshots: the cycle exists
    # only in the union, so a dim-1 class is born and dies at 1.5
    g1 = snap([(0, 1), (1, 2)], index=1)
    g2 = snap([(2, 3), (0, 3)], index=2)
    zpd = compute_zigzag_persistence([g1, g2], 0.5)
    assert zpd.points(1) == [(1.5, 1.5, 1)]


def test_one_window_call_equals_the_two_call_path_it_replaced():
    # the two-call path: the engine over build_zigzag's tuple of the window's complexes
    raised = {mode: 0 for mode in FiltrationMode}
    for seed in range(200):
        rng = np.random.default_rng(seed)
        window, _ = random_dynamic_network(seed, n_max=11, t_max=6, edge_prob=0.35)
        for mode in FiltrationMode:
            nu = float(rng.uniform(0.2, 2.0))
            try:
                (want,) = zigzag._window_diagrams(build_zigzag(window, nu, mode), len(window))
            except InclusionError as exc:
                with pytest.raises(InclusionError, match=f"^{re.escape(str(exc))}$"):
                    compute_zigzag_persistence(window, nu, mode)
                with pytest.raises(InclusionError):
                    reference_window_zpd(window, nu, mode)
                raised[mode] += 1
                continue
            assert compute_zigzag_persistence(window, nu, mode) == want, (seed, mode)
            assert reference_window_zpd(window, nu, mode) == want, (seed, mode)
    assert raised[FiltrationMode.WEIGHTED_DEGREE_SUBLEVEL], raised  # both branches ran


def test_one_window_call_refuses_an_empty_window():
    for call in (build_zigzag, compute_zigzag_persistence):
        with pytest.raises(ValueError, match="^window must contain at least one snapshot$"):
            call([], 0.5)


def test_one_window_call_holds_at_most_three_complexes(monkeypatch):
    live = weakref.WeakSet()
    peak = 0
    build = zigzag.build_complex

    def tracked(*args, **kwargs):
        nonlocal peak
        cx = build(*args, **kwargs)
        tracked_cx = TrackedComplex(cx.vertices, cx.edges)
        live.add(tracked_cx)
        peak = max(peak, len(live))
        return tracked_cx

    monkeypatch.setattr(zigzag, "build_complex", tracked)
    window = independent_snapshots(0, n=8, length=12, density=0.4)
    zpd = compute_zigzag_persistence(window, 0.5)
    assert peak <= 3  # the last two snapshots' complexes and their union
    peak = 0
    complexes = build_zigzag(window, 0.5)
    assert peak == len(complexes) == 23  # the two-call path held every complex at once
    assert list(zigzag._window_diagrams(complexes, 12)) == [zpd] and zpd.rows


def test_determinism():
    window, nu = random_dynamic_network(123)
    a = compute_zigzag_persistence(window, nu)
    b = compute_zigzag_persistence(window, nu)
    assert a == b and a.rows


def test_betti_consistency_oracle_small():
    for seed in range(30):
        window, nu = random_dynamic_network(seed)
        zpd = compute_zigzag_persistence(window, nu)
        report = betti_consistency_check(build_zigzag(window, nu), zpd)
        assert report.ok, report.violations


def test_consistency_check_flags_corruption():
    window = golden_cycle_window()
    zpd = compute_zigzag_persistence(window, 0.5)
    corrupted = [(p, b, d + 2 if p == 1 else d, m) for p, b, d, m in zpd.rows]
    assert any(p == 1 for p, *_ in zpd.rows)
    report = betti_consistency_check(build_zigzag(window, 0.5), ZPD(tuple(corrupted)))
    assert not report.ok and len(report.violations) >= 1


def test_dim0_bars_match_union_find_at_every_position():
    for seed in (5, 17, 99):
        window, nu = random_dynamic_network(seed)
        zpd = compute_zigzag_persistence(window, nu)
        for q, cx in enumerate(build_zigzag(window, nu)):
            assert zpd.count_alive(0, q + 2) == union_find_components(cx)


def test_time_reversal_small():
    for seed in range(20):
        window, nu = random_dynamic_network(seed)
        t = len(window)
        fwd = compute_zigzag_persistence(window, nu)
        rev = compute_zigzag_persistence(reverse_window(window), nu)
        for dim in (0, 1):
            mapped = sorted((t + 1 - d, t + 1 - b, m) for b, d, m in rev.points(dim))
            assert fwd.points(dim) == mapped


# --- CSV -----------------------------------------------------------------------------

def test_zpd_csv_roundtrip(tmp_path):
    zpd = compute_zigzag_persistence(golden_cycle_window(), 0.5)
    path = tmp_path / "zpd.csv"
    write_zpd_csv(zpd, path)
    back = read_zpd_csv(path)
    assert back == zpd
    assert path.read_text().splitlines()[0] == "p,twice_birth,twice_death"


def test_zpd_csv_writer_golden(tmp_path):
    zpd = ZPD(((1, 3, 7, 2), (0, 4, 4, 1), (1, 2, 9, 1), (0, 2, 6, 3)))
    path = tmp_path / "zpd.csv"
    write_zpd_csv(zpd, path)
    assert path.read_bytes() == (
        b"p,twice_birth,twice_death\n"
        b"0,2,6\n0,2,6\n0,2,6\n"
        b"0,4,4\n"
        b"1,2,9\n"
        b"1,3,7\n1,3,7\n"
    )
    write_zpd_csv(ZPD(()), path)
    assert path.read_bytes() == b"p,twice_birth,twice_death\n"


def test_zpd_csv_reader_reuses_repeated_rows(tmp_path):
    path = tmp_path / "zpd.csv"
    path.write_text(
        "p,twice_birth,twice_death\n1,3,7\n\n1,3,7\n0,2,9\np,twice_birth,twice_death\n"
        "  1,3,7  \n0,2,9\n1,3,7\n01,3,7"
    )
    assert read_zpd_csv(path) == ZPD(((1, 3, 7, 5), (0, 2, 9, 2)))


@pytest.mark.parametrize(
    "bad, message",
    [("1,3", "expected 3 fields"), ("1,x,7", "invalid literal"), ("1,3,7,9", "expected 3 fields")],
)
def test_zpd_csv_reader_names_the_first_bad_line(tmp_path, bad, message):
    path = tmp_path / "zpd.csv"
    path.write_text(f"p,twice_birth,twice_death\n1,3,7\n1,3,7\n{bad}\n1,3,7\n{bad}\n")
    with pytest.raises(ValueError, match=f"line 4: {message}"):
        read_zpd_csv(path)


def test_zpd_csv_reader_validates_points(tmp_path):
    path = tmp_path / "zpd.csv"
    for bad, message in [
        ("1,7,3", "death 3/2 precedes birth 7/2"),
        ("2,3,7", "dimension must be 0 or 1, got 2"),
        ("0,1,4", "half-index 2t = 1 below the grid start"),
    ]:
        path.write_text(f"p,twice_birth,twice_death\n1,3,7\n\n{bad}\n1,3,7\n{bad}\n")
        with pytest.raises(ValueError, match=f"zpd.csv: line 4: {message}$"):
            read_zpd_csv(path)


def test_zpd_csv_reader_names_the_first_line_of_a_repeated_non_ascii_byte(tmp_path):
    path = tmp_path / "zpd.csv"
    path.write_bytes(b"p,twice_birth,twice_death\n1,3,7\n1,3\xe9,7\n1,3,7\n1,3\xe9,7\n")
    with pytest.raises(ValueError, match=r"zpd\.csv: line 3: byte 0xe9 is not ASCII$"):
        read_zpd_csv(path)


# lines no diagram file holds, one kind a list: a wrong field count, a non-integer,
# a bad point, a non-ASCII byte
_BAD_LINES = [
    ["1,3", "1,3,7,9", "137", ",,", "1,3,7,"],
    ["1,x,7", "1,3.0,7", "1,,7", "0x1,3,7", "1,3,7e0"],
    ["2,3,7", "1,7,3", "0,1,4", "-1,3,7", "1,3,-7"],
    ["1,3\xe9,7", "\xe9", "0,2,4 \xff"],
]


def _random_zpd_file(rng, bad: list[str]) -> bytes:
    """Diagram lines with repeats, blanks, headers, padding, leading zeros and mixed line ends.

    Each line of ``bad`` goes in at one to three places.
    """
    pool = [(int(rng.integers(0, 2)), b, b + int(rng.integers(0, 4)))
            for b in rng.integers(2, 7, size=int(rng.integers(1, 6))).tolist()]
    lines = []
    for _ in range(int(rng.integers(0, 40))):
        kind = rng.random()
        if kind < 0.1:
            line = ""
        elif kind < 0.2:
            line = _ZPD_HEADER
        else:
            point = pool[int(rng.integers(len(pool)))]
            line = ",".join(("0" if rng.random() < 0.3 else "") + str(x) for x in point)
        pads = ["", "", " ", "  ", "\t"]
        lines.append(pads[int(rng.integers(5))] + line + pads[int(rng.integers(5))])
    for line in bad:
        for _ in range(int(rng.integers(1, 4))):
            lines.insert(int(rng.integers(0, len(lines) + 1)), line)
    ends = [["\n", "\r\n", "\r"][int(rng.integers(3))] for _ in lines]
    if lines and rng.random() < 0.5:
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends)).encode("latin-1")


def _read_or_refuse(reader, path):
    try:
        return reader(path)
    except ValueError as exc:
        return f"refused: {exc}"


def test_zpd_csv_reader_matches_the_line_by_line_reader_it_replaced(tmp_path):
    rng = np.random.default_rng(28)
    path = tmp_path / "zpd.csv"
    outcomes = Counter()
    for _ in range(600):
        kinds = rng.permutation(len(_BAD_LINES))[:int(rng.integers(0, 3))].tolist()
        bad = [_BAD_LINES[k][int(rng.integers(len(_BAD_LINES[k])))] for k in kinds]
        path.write_bytes(_random_zpd_file(rng, bad))
        got = _read_or_refuse(read_zpd_csv, path)
        assert got == _read_or_refuse(read_zpd_csv_by_line, path)
        assert isinstance(got, str) == bool(bad)
        outcomes[type(got).__name__, len(bad)] += 1
        if isinstance(got, ZPD):
            distinct = {line.strip() for line in path.read_text().splitlines()}
            outcomes["merged"] += len(got.rows) < len(distinct - {"", _ZPD_HEADER})
    assert min(outcomes.values()) >= 50, outcomes
