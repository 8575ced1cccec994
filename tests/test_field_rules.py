"""A field's annotation is its type rule: ``dyngraph.check_fields`` and what it guards.

Every value type with ``int``, ``float``, ``bool`` or ``str`` fields refuses
a value of the wrong kind when it is made, naming the field; the
``key = value`` parser reads the same annotations.  The property tests
draw nearly valid values and check that each is either refused, naming
what it was given for, or written and read back unchanged.
"""

from __future__ import annotations  # check_fields reads annotations as strings

import math
import os
import re
import string
import tempfile
from collections import Counter
from dataclasses import dataclass, fields, replace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from zigzagst import net
from zigzagst.dyngraph import (
    DynamicNetwork,
    FeatureSeries,
    Snapshot,
    check_fields,
    is_real,
    read_feature_csv,
    read_snapshot_csv,
    write_feature_csv,
    write_snapshot_csv,
)
from zigzagst.filtration import SimplicialComplex, read_complex_dump, write_complex_dump
from zigzagst.pipeline import RunConfig, _checkpoint_settings, _model_config
from zigzagst.zigzag import ZPD, read_zpd_csv, write_zpd_csv
from zigzagst.zpi import GridSpec, WeightingSpec, ZPIGrid, read_zpi, write_zpi

# A valid value of each type that checks its fields, and the prefix its messages carry.
BASELINES = {
    "RunConfig": (RunConfig(nu_star=0.5), ""),
    "ModelConfig": (net.tiny_config(), ""),
    "Snapshot": (Snapshot(1, 4, frozenset({0, 1}), {(0, 1): 0.2}), "snapshot "),
    "FeatureSeries": (FeatureSeries(np.zeros((2, 3, 1))), "feature "),
    "GridSpec": (GridSpec(8, 1.0, 3.0, 0.0, 2.0, 0.5), ""),
    "WeightingSpec": (WeightingSpec(), ""),
}
# Values of the wrong kind for each annotation check_fields reads.  Among them are values
# each type took before its fields were checked: RunConfig(check="no"), which turned the
# Betti check on, check=0, outdir=5, ModelConfig(learning_rate=True), GridSpec(10.5, ...),
# GridSpec(True, ...) and WeightingSpec("linear", True); RunConfig(filtration=["x"]) and
# ModelConfig(learning_rate="0.1") failed later with a TypeError.
WRONG_KIND = {
    "int": (True, 10.5, "1"),
    "float": (True, np.bool_(False), "0.1"),
    "bool": (0, 5, "no"),
    "str": (5, True, ["x"]),
}
CHECKED = [(kind, f.name, bad) for kind, (value, _) in BASELINES.items()
           for f in fields(value) if f.type in WRONG_KIND for bad in WRONG_KIND[f.type]]


@pytest.mark.parametrize("kind, name, bad", CHECKED, ids=repr)
def test_every_checked_field_refuses_a_value_of_the_wrong_kind(kind, name, bad):
    value, prefix = BASELINES[kind]
    with pytest.raises(ValueError, match=f"^{prefix}{name} must be a.*, got {re.escape(repr(bad))}$"):
        replace(value, **{name: bad})


def test_every_type_has_a_checked_field():
    assert {kind for kind, _, _ in CHECKED} == set(BASELINES)


# Numpy scalar types each annotation's rule accepts.  A field stores the scalar's Python
# value: a float32 theta was kept, and rendered other images than the same Python float.
NUMPY_TYPES = {"int": (np.int64, np.uint16), "float": (np.float32, np.float64), "bool": (np.bool_,)}
NUMPY_GIVEN = [(kind, f.name, numpy_type) for kind, (value, _) in BASELINES.items()
               for f in fields(value) if f.type in NUMPY_TYPES for numpy_type in NUMPY_TYPES[f.type]]


@pytest.mark.parametrize("kind, name, numpy_type", NUMPY_GIVEN,
                         ids=lambda x: x.__name__ if isinstance(x, type) else x)
def test_every_checked_field_stores_a_numpy_scalar_as_its_python_value(kind, name, numpy_type):
    value, _ = BASELINES[kind]
    given = numpy_type(getattr(value, name))
    stored = getattr(replace(value, **{name: given}), name)
    assert type(stored) is type(given.item()) and stored == given.item()


def test_every_type_stores_a_numpy_scalar_in_some_field():
    assert {kind for kind, _, _ in NUMPY_GIVEN} == set(BASELINES)


@pytest.mark.parametrize("dims, split", [
    ((np.int64(1), np.uint8(0)), (np.float32(0.5), np.float64(0.25), 0.25)),
    ([1], [0.5, np.float16(0.5)]),
    (np.array([0, 1]), np.array([0.75, 0.25], np.float32)),
], ids=["numpy scalars", "lists", "arrays"])
def test_a_run_stores_its_dimensions_and_split_as_tuples_of_python_values(dims, split):
    config = RunConfig(homology_dims=dims, split=split)
    assert config.homology_dims == tuple(np.asarray(dims).tolist())
    assert config.split == tuple(np.asarray(split, np.float64).tolist())
    assert all(type(dim) is int for dim in config.homology_dims)
    assert all(type(fraction) is float for fraction in config.split)


@pytest.mark.parametrize("make, message", [
    # each but the last was built, its value converted to a float; the last raised a TypeError
    (lambda: Snapshot.from_edges(1, 4, [(0, 1, True)]), r"weight \(0, 1\) = True is not a real number"),
    (lambda: Snapshot.from_edges(1, 4, [(1, 0, "0.5")]),
     r"weight \(0, 1\) = '0.5' is not a real number"),
    (lambda: Snapshot(1, 4, {0, 1}, {(0, 1): np.bool_(True)}),
     r"weight \(0, 1\) = (np\.)?True_? is not a real number"),
    (lambda: FeatureSeries(np.array([[["1.5"]]])), "feature values must be real numbers, got <U3"),
    (lambda: FeatureSeries(np.ones((2, 2, 1), bool)), "feature values must be real numbers, got bool"),
    (lambda: FeatureSeries(np.array([[[1.5, None]]])),
     "feature values must be real numbers, got object"),
], ids=lambda x: "" if callable(x) else x)
def test_a_weight_or_feature_value_that_is_not_a_real_number_is_refused(make, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        make()


def test_the_rules_take_numpy_scalars_and_integers_as_real_numbers():
    assert all(map(is_real, [1, 0.5, np.float32(0.5), np.int8(3), np.uint64(2), math.inf]))
    assert not any(map(is_real, [True, np.bool_(False), "1", None, 1j]))
    assert RunConfig(check=np.bool_(True)).check
    assert GridSpec(np.int64(8), 1, 3, 0, 2, np.float32(0.5)).resolution == 8
    s = Snapshot.from_edges(1, 4, [(0, 1, np.float32(0.25)), (1, 2, 1)])
    assert s.weights == {(0, 1): 0.25, (1, 2): 1.0} and all(type(w) is float for w in s.weights.values())
    assert FeatureSeries(np.ones((1, 2, 1), np.uint8)).values.dtype == np.float64


@pytest.mark.parametrize("make, message", [
    # each was built: the vertex through int(), the pixels converted to float64
    (lambda: SimplicialComplex([0, 1.5], []), r"node 1\.5 is not an integer"),
    (lambda: SimplicialComplex([0, True], [(0, True)]), "node True is not an integer"),
    (lambda: SimplicialComplex([0, "1"], []), "node '1' is not an integer"),
    (lambda: SimplicialComplex([np.float64(2.0)], []), r"node (np\.float64\()?2\.0\)? is not"),
    (lambda: ZPIGrid(GridSpec(2, 1, 3, 0, 2, 0.5), np.ones((2, 2), bool)),
     "pixels must be real numbers, got bool values"),
    (lambda: ZPIGrid(GridSpec(2, 1, 3, 0, 2, 0.5), [["1.5", "0"], ["0", "2"]]),
     "pixels must be real numbers, got <U3 values"),
], ids=lambda x: "" if callable(x) else x)
def test_a_vertex_or_pixel_of_another_kind_is_refused_not_converted(make, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        make()


def test_a_numpy_integer_vertex_is_stored_as_an_int():
    cx = SimplicialComplex([np.int64(2), np.uint8(0), 1], [(np.int64(2), 0)])
    assert cx.vertices == (0, 1, 2) and all(type(v) is int for v in cx.vertices)
    assert cx.edges == ((0, 2),)


@dataclass
class _Mixed:
    n: int
    dims: tuple[int, ...]
    values: np.ndarray


def test_check_fields_reads_only_the_four_scalar_annotations():
    check_fields(_Mixed(3, ("x",), None))  # the other fields are the type's own to check
    with pytest.raises(ValueError, match=r"^mixed n must be an integer, got 3\.0$"):
        check_fields(_Mixed(3.0, (), None), "mixed ")


# --- round trips ----------------------------------------------------------------

def _close_to_valid_scalars():
    """Values near what a setting takes: integral floats, bools, numpy scalars, NaN, ±inf, text."""
    small = st.integers(-2, 40)
    return st.one_of(
        small,
        small.map(float),
        st.booleans(),
        small.map(np.int64),
        st.floats(-2.0, 2.0).map(np.float64),
        st.floats(0.0, 1.0, width=32).map(np.float32),
        st.booleans().map(np.bool_),
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([math.nan, math.inf, -math.inf, 0.5, 0.25, 1e-3]),
        st.sampled_from(["", "1", "0.5", "nan", "true", "linear", "constant", "none",
                         "weight-sublevel-clique", "no-zigzag"]),
        # no whitespace: a line's value is stripped when read
        st.text(string.ascii_letters + string.digits + "._-/#=", max_size=8),
    )


def _close_to_valid(annotation):
    if annotation.startswith("tuple"):
        return st.lists(_close_to_valid_scalars(), max_size=3).map(tuple)
    return _close_to_valid_scalars()


def _as_line_value(value, annotation: str) -> str:
    """How a user writes the (already accepted) ``value`` of a setting in a config file."""
    if annotation.startswith("tuple"):
        element = annotation[len("tuple["):].split(",")[0]
        return ",".join(_as_line_value(x, element) for x in value)
    return {"int": lambda x: str(int(x)), "float": lambda x: repr(float(x)),
            "bool": lambda x: str(bool(x)), "str": str}[annotation](value)


def _same(got, want) -> bool:
    """Equal, where NaN equals NaN."""
    if isinstance(want, tuple):
        return len(got) == len(want) and all(map(_same, got, want))
    return got == want or (is_real(want) and math.isnan(want) and math.isnan(got))


# how a message refusing a setting's value may name it, besides by the setting's own name
ALSO_NAMED = {"weight_kind": "weighting kind"}
SETTINGS = {f.name: f.type for f in fields(RunConfig)}


@pytest.mark.parametrize("key", sorted(SETTINGS))
@given(data=st.data())
def test_a_setting_is_refused_by_name_or_reads_back_from_its_line(key, data):
    value = data.draw(_close_to_valid(SETTINGS[key]), label=key)
    try:
        made = RunConfig(**{key: value})
    except ValueError as exc:
        assert key in str(exc) or ALSO_NAMED.get(key, key) in str(exc), str(exc)
        return
    assert _same(getattr(made, key), value)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.cfg")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(f"{key} = {_as_line_value(value, SETTINGS[key])}\n")
        assert _same(getattr(RunConfig.from_file(path), key), value)


PAIRS = [(u, v) for u in range(4) for v in range(u + 1, 4)]


@given(index=_close_to_valid_scalars(),
       weights=st.dictionaries(st.sampled_from(PAIRS), _close_to_valid_scalars(), max_size=4))
def test_a_snapshot_is_refused_by_field_or_edge_or_reads_back_from_its_csv(index, weights):
    try:
        made = Snapshot.from_edges(index, 4, [(v, u, w) for (u, v), w in weights.items()])
    except ValueError as exc:
        named = ["snapshot index"] + [f"{edge!r} = " for edge in weights]
        assert any(name in str(exc) for name in named), str(exc)
        return
    assert made.index == index and made.weights == {e: w for e, w in weights.items() if w != 0.0}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "snapshots.csv")
        write_snapshot_csv(DynamicNetwork((made,), 4), path)
        assert list(read_snapshot_csv(path, universe_size=4)) == [made]


_ARRAY_DTYPES = [np.float64, np.float32, np.int64, np.int8, np.uint16, np.bool_, "U3", object]


@st.composite
def _feature_arrays(draw):
    dtype = draw(st.sampled_from(_ARRAY_DTYPES))
    shape = draw(hnp.array_shapes(min_dims=3, max_dims=3, max_side=3))
    if dtype is object:
        scalars = draw(st.lists(_close_to_valid_scalars(), min_size=1, max_size=4))
        return np.array(scalars, dtype=object).reshape(-1, 1, 1)
    elements = {"U3": st.text(string.digits + ".", max_size=3)}.get(dtype)
    return draw(hnp.arrays(dtype, shape, elements=elements))


@given(values=_feature_arrays(), start=_close_to_valid_scalars())
def test_a_feature_series_is_refused_by_field_or_reads_back_from_its_csv(values, start):
    try:
        made = FeatureSeries(values, start)
    except ValueError as exc:
        assert str(exc).startswith(("feature start ", "feature values ")), str(exc)
        return
    assert made.start == start and np.array_equal(made.values, values.astype(np.float64))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "features.csv")
        write_feature_csv(made, path)
        read = read_feature_csv(path)
    assert read.start == start and read.values.tobytes() == made.values.tobytes()


@st.composite
def _nudged(draw, valid):
    """A valid tuple of integers from ``valid``, now and then with one entry made close to valid."""
    value = list(draw(valid))
    k = draw(st.integers(0, len(value)))  # len(value): leave every entry as drawn
    if k < len(value):
        value[k] = draw(st.one_of(st.just(np.int64(value[k])), _close_to_valid_scalars()))
    return tuple(value)


_ROWS = st.tuples(st.integers(0, 1), st.integers(2, 9), st.integers(2, 9), st.integers(1, 3)).map(
    lambda row: (row[0], min(row[1:3]), max(row[1:3]), row[3]))  # (dim, 2b, 2d, count), b <= d


@given(rows=st.lists(_nudged(_ROWS), max_size=3))
def test_a_diagram_is_refused_by_field_or_reads_back_from_its_csv(rows):
    try:
        made = ZPD(tuple(rows))
    except ValueError as exc:
        assert str(exc).startswith(("dimension ", "half-index ", "death ", "count ")), str(exc)
        return
    points = Counter()
    for dim, b, d, m in rows:
        points[dim, b, d] += m
    assert Counter({row[:3]: row[3] for row in made.rows}) == points
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "zpd.csv")
        write_zpd_csv(made, path)
        read = read_zpd_csv(path)
    assert read == made and all(type(x) is int for row in read.rows for x in row)


@st.composite
def _pixel_arrays(draw):
    """Arrays near a 2 x 2 image: of each dtype in ``_ARRAY_DTYPES``, now and then misshapen."""
    dtype = draw(st.sampled_from(_ARRAY_DTYPES))
    shape = draw(st.sampled_from([(2, 2)] * 4 + [(1, 2), (4,)]))
    if dtype is object:
        size = math.prod(shape)
        scalars = draw(st.lists(_close_to_valid_scalars(), min_size=size, max_size=size))
        return np.array(scalars, dtype=object).reshape(shape)
    elements = {"U3": st.text(string.digits + ".", max_size=3)}.get(dtype)
    if dtype in (np.float64, np.float32) and draw(st.booleans()):  # every pixel valid
        elements = st.floats(0.0, 1e6, width=8 * np.dtype(dtype).itemsize)
    return draw(hnp.arrays(dtype, shape, elements=elements))


@given(pixels=_pixel_arrays())
def test_an_image_is_refused_by_its_pixels_or_reads_back_from_its_file(pixels):
    spec = GridSpec(2, 1.0, 3.0, 0.0, 2.0, 0.5)
    try:
        made = ZPIGrid(spec, pixels)
    except ValueError as exc:
        assert str(exc).startswith(("pixels ", "value ")), str(exc)
        return
    assert pixels.dtype.kind in "iuf" and np.array_equal(made.pixels, pixels)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "image.zpi")
        write_zpi(made, path)
        read = read_zpi(path)
    assert read.spec == spec and read.pixels.tobytes() == made.pixels.tobytes()


@given(vertices=_nudged(st.lists(st.integers(-1, 5), max_size=5)),
       picks=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=6))
def test_a_complex_is_refused_by_vertex_or_edge_or_reads_back_from_its_dump(vertices, picks):
    pool = [*vertices, 9]  # an edge joins two drawn vertices, or one and 9, a vertex of none
    edges = [(pool[i % len(pool)], pool[j % len(pool)]) for i, j in picks]
    try:
        made = SimplicialComplex(vertices, edges)
    except ValueError as exc:
        named = ([f"node {v!r} is not an integer" for v in vertices]
                 + [f"edge {e!r} endpoint outside vertex set" for e in edges])
        assert str(exc) in named, str(exc)
        return
    assert set(made.vertices) == set(vertices) and all(type(v) is int for v in made.vertices)
    assert set(made.edges) == {(min(e), max(e)) for e in edges if e[0] != e[1]}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "complex.txt")
        write_complex_dump(made, path)
        assert read_complex_dump(path) == made


# the run settings a checkpoint stores, in its settings or in its model config
STORED = sorted({*_checkpoint_settings(RunConfig()), "tau", "resolution",
                 *(f.name for f in fields(net.ModelConfig) if f.name in SETTINGS)})
SMALL_RUN = dict(nu_star=0.5, tau=3, resolution=8, hidden=4, num_layers=1, laplacian_order=1)


@pytest.mark.parametrize("key", STORED)
@given(data=st.data())
def test_a_setting_is_refused_by_name_or_reads_back_from_the_checkpoint(key, data):
    value = data.draw(_close_to_valid(SETTINGS[key]), label=key)
    try:
        config = RunConfig(**{**SMALL_RUN, key: value})
        config.require_nu_star()
        model_cfg = _model_config(config, n_nodes=4, in_features=1)
    except ValueError as exc:
        assert key in str(exc) or ALSO_NAMED.get(key, key) in str(exc), str(exc)
        return
    params = net.init_params(model_cfg, np.random.default_rng(0))
    result = net.TrainResult(params, model_cfg, [], np.zeros(1), np.ones(1), 0.5)
    settings = _checkpoint_settings(config)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "checkpoint.npz")
        net.save_checkpoint(path, result, settings)
        read, read_settings = net.load_checkpoint(path)
    assert read.config == model_cfg and read_settings == settings
    assert read.params.flat.tobytes() == params.flat.tobytes()
    assert (read.input_lo, read.input_hi, read.image_scale) == (0.0, 1.0, 0.5)
