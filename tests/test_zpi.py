import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import ndtr

import reference_zpi
from util import expand, independent_snapshots, persistence_rows, random_dynamic_network
from zigzagst.zigzag import build_zigzag, compute_zigzag_persistence, zigzag_series
from zigzagst.zpi import (
    MAX_RESOLUTION,
    GridSpec,
    WeightingSpec,
    ZPIGrid,
    default_domain,
    default_theta,
    read_zpi,
    render_zpi,
    write_pgm,
    write_zpi,
)


def grid(res=20, lo=0.0, hi=10.0, theta=0.5):
    return GridSpec(res, lo, hi, lo, hi, theta)


# --- specs ------------------------------------------------------------------------

def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(0, 0, 1, 0, 1, 0.5)
    with pytest.raises(ValueError):
        GridSpec(10, 0, 0, 0, 1, 0.5)
    with pytest.raises(ValueError):
        GridSpec(10, 0, 1, 0, 1, 0.0)


def test_grid_spec_refuses_an_infinite_domain(tmp_path):
    for bounds in [(-math.inf, 1, 0, 1), (0, math.inf, 0, 1), (0, 1, 0, math.nan)]:
        with pytest.raises(ValueError, match="^domain rectangle must be finite"):
            GridSpec(3, *bounds, 0.5)
    path = tmp_path / "inf.zpi"  # it read back, though no image can be rendered on it
    path.write_text("2 -inf inf 0 1 0.5\n0 0\n0 0\n")
    with pytest.raises(ValueError, match="inf.zpi: line 1: malformed header: domain rectangle"):
        read_zpi(path)


def test_grid_spec_refuses_a_resolution_above_the_bound(tmp_path):
    assert GridSpec(MAX_RESOLUTION, 0, 1, 0, 1, 0.5).resolution == MAX_RESOLUTION
    message = f"resolution {MAX_RESOLUTION + 1} exceeds MAX_RESOLUTION = {MAX_RESOLUTION}$"
    with pytest.raises(ValueError, match=message):
        GridSpec(MAX_RESOLUTION + 1, 0, 1, 0, 1, 0.5)
    path = tmp_path / "huge.zpi"  # a header alone: its rows would be checked only after it
    path.write_text(f"{MAX_RESOLUTION + 1} 0 1 0 1 0.5\n")
    with pytest.raises(ValueError, match=f"huge.zpi: line 1: malformed header: {message}"):
        read_zpi(path)


def test_weighting_spec():
    assert WeightingSpec("constant").weight(3.0) == 1.0
    assert WeightingSpec("linear").weight(3.0) == 3.0
    assert WeightingSpec("linear", cap=2.0).weight(3.0) == 2.0
    assert WeightingSpec("linear").weight(0.0) == 0.0
    with pytest.raises(ValueError):
        WeightingSpec("quadratic")
    with pytest.raises(ValueError):
        WeightingSpec("linear", cap=0.0)


def test_zpigrid_validation():
    with pytest.raises(ValueError):
        ZPIGrid(grid(res=4), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        ZPIGrid(grid(res=2), -np.ones((2, 2)))


# --- default domain -------------------------------------------------------------------

def test_default_domain():
    assert default_domain(12) == (1.0, 12.0, 0.0, 11.0)
    assert default_domain(7) == (1.0, 7.0, 0.0, 6.0)
    assert default_domain(1) == (1.0, 2.0, 0.0, 1.0)  # degenerate axes widened
    with pytest.raises(ValueError):
        default_domain(0)


def test_default_theta_two_grid_steps():
    assert default_theta((1.0, 12.0, 0.0, 11.0), 100) == pytest.approx(2 * 11.0 / 100)


# --- render ----------------------------------------------------------------------------

def test_empty_diagram_renders_zero():
    z = render_zpi([], grid(), WeightingSpec("constant"))
    assert np.all(z.pixels == 0.0)


def test_single_point_total_mass():
    # wide domain: the full Gaussian mass 2*pi*theta^2 is captured
    g = GridSpec(60, -6.0, 6.0, -6.0, 6.0, 0.5)
    z = render_zpi([(0.0, 0.0, 1)], g, WeightingSpec("constant"))
    expected = 2.0 * math.pi * 0.5**2
    assert z.pixels.sum() == pytest.approx(expected, rel=1e-3)


def test_two_identical_points_double():
    g = grid()
    one = render_zpi([(3.0, 5.0, 1)], g, WeightingSpec("constant"))
    two = render_zpi([(3.0, 5.0, 2)], g, WeightingSpec("constant"))
    twice = render_zpi([(3.0, 5.0, 1)] * 2, g, WeightingSpec("constant"))
    assert np.allclose(two.pixels, 2.0 * one.pixels, rtol=1e-12)
    assert np.allclose(twice.pixels, two.pixels, rtol=1e-12)


def _render_per_point(points, g, w):
    """The render with one outer product per listed point, repeats included."""
    ex = np.linspace(g.x_lo, g.x_hi, g.resolution + 1)
    ey = np.linspace(g.y_lo, g.y_hi, g.resolution + 1)
    pixels = np.zeros((g.resolution, g.resolution))
    for bx, pers in points:
        cx = np.diff(ndtr((ex - bx) / g.theta))
        cy = np.diff(ndtr((ey - pers) / g.theta))
        pixels += (w.weight(pers) * 2.0 * math.pi * g.theta ** 2) * np.outer(cy, cx)
    return pixels


WEIGHTINGS = (WeightingSpec("linear"), WeightingSpec("constant"), WeightingSpec("linear", cap=3.0))


@pytest.mark.parametrize("seed", range(6))
def test_row_count_renders_as_repeated_points(seed):
    rng = np.random.default_rng(seed)
    g = grid(res=25, theta=0.7)
    distinct = {(int(b) / 2, int(p) / 2) for b, p in rng.integers(0, 20, (12, 2))}
    points = [pt for pt in distinct for _ in range(int(rng.integers(1, 31)))]
    points = [points[i] for i in rng.permutation(len(points))]
    rows = [(b, b + q, m) for (b, q), m in Counter(points).items()]
    for w in WEIGHTINGS:
        want = _render_per_point(points, g, w)
        got = render_zpi(rows, g, w).pixels
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_linear_weight_scales_by_persistence():
    g = grid()
    const = render_zpi([(3.0, 5.0, 1)], g, WeightingSpec("constant"))
    lin = render_zpi([(3.0, 5.0, 1)], g, WeightingSpec("linear"))
    assert np.allclose(lin.pixels, 2.0 * const.pixels, rtol=1e-12)


def test_zero_persistence_contributes_nothing_under_linear():
    z = render_zpi([(3.0, 3.0, 1)], grid(), WeightingSpec("linear"))
    assert np.all(z.pixels == 0.0)


@given(st.integers(0, 2**30))
def test_additivity_and_monotonicity(seed):
    rng = np.random.default_rng(seed)
    g = grid(res=12)
    d1 = [(float(rng.uniform(0, 10)), float(rng.uniform(0, 5))) for _ in range(int(rng.integers(0, 5)))]
    d2 = [(float(rng.uniform(0, 10)), float(rng.uniform(0, 5))) for _ in range(int(rng.integers(1, 5)))]
    d1, d2 = persistence_rows(d1), persistence_rows(d2)
    w = WeightingSpec("linear")
    combined = render_zpi(d1 + d2, g, w)
    separate = render_zpi(d1, g, w).pixels + render_zpi(d2, g, w).pixels
    assert np.allclose(combined.pixels, separate, rtol=1e-12, atol=1e-300)
    assert np.all(combined.pixels >= render_zpi(d1, g, w).pixels)


def test_render_orientation_row_zero_is_low_persistence():
    g = GridSpec(4, 0.0, 4.0, 0.0, 4.0, 0.3)
    z = render_zpi([(0.5, 1.0, 1)], g, WeightingSpec("constant"))
    assert z.pixels[0, 0] == z.pixels.max()


# --- render against the expanded-point reference ---------------------------------------

def _same_render_as_expanded_reference(zpd, t):
    """Rows render exactly as the replaced path renders the expanded (birth, persistence) list."""
    domain = default_domain(t)
    g = GridSpec(100, *domain, default_theta(domain, 100))
    for dim in (0, 1):
        rows = zpd.points(dim)
        points = [(b, d - b) for b, d in expand(rows)]
        for w in WEIGHTINGS:
            got = render_zpi(rows, g, w).pixels
            assert (got == reference_zpi.render_zpi(points, g, w).pixels).all(), (dim, w)


def test_render_matches_expanded_reference_on_random_windows():
    repeated = 0
    for seed in range(40):
        window, nu = random_dynamic_network(seed)
        zpd = compute_zigzag_persistence(build_zigzag(window, nu))
        repeated += any(row[3] > 1 for row in zpd.rows)
        _same_render_as_expanded_reference(zpd, len(window))
    assert repeated >= 10


@pytest.mark.parametrize("seed", [0, 1])
def test_render_matches_expanded_reference_on_wide_windows(seed):
    window = independent_snapshots(seed, n=64, length=12, density=0.08)
    ((_, zpd),) = zigzag_series(window, len(window), 0.5)
    assert len(zpd) > 5 * len(zpd.rows)  # many bars share a point
    _same_render_as_expanded_reference(zpd, len(window))


@pytest.mark.parametrize("count", [0, -1, 1.5])
def test_render_rejects_a_count_that_is_not_a_positive_integer(count):
    with pytest.raises(ValueError, match=f"count must be a positive integer, got {count}"):
        render_zpi([(1.0, 2.0, 1), (1.0, 3.0, count)], grid(), WeightingSpec())
    render_zpi([(1.0, 3.0, np.int64(2))], grid(), WeightingSpec())  # numpy integers count


# --- files -------------------------------------------------------------------------------

def test_zpi_file_roundtrip(tmp_path):
    g = grid(res=8)
    z = render_zpi([(2.0, 3.0, 1), (7.0, 10.0, 1)], g, WeightingSpec("linear"))
    path = tmp_path / "image.zpi"
    write_zpi(z, path)
    back = read_zpi(path)
    assert back.spec == z.spec
    assert np.array_equal(back.pixels, z.pixels)


def test_pgm_output(tmp_path):
    g = grid(res=4)
    z = render_zpi([(5.0, 10.0, 1)], g, WeightingSpec("constant"))
    path = tmp_path / "image.pgm"
    write_pgm(z, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "P2" and lines[1] == "4 4" and lines[2] == "255"
    values = [int(v) for row in lines[3:] for v in row.split()]
    assert len(values) == 16 and max(values) == 255 and min(values) >= 0


def test_pgm_all_zero(tmp_path):
    z = render_zpi([], grid(res=3), WeightingSpec("constant"))
    path = tmp_path / "zero.pgm"
    write_pgm(z, path)
    values = [int(v) for row in path.read_text().splitlines()[3:] for v in row.split()]
    assert set(values) == {0}


# --- writers against the row-at-a-time reference ------------------------------------------

def test_writers_golden_bytes(tmp_path):
    # 0.1 / 3 * 255 is exactly 8.5, which np.rint rounds to the even 8
    z = ZPIGrid(GridSpec(2, 0.0, 1.0, 0.0, 2.0, 0.5), np.array([[0.0, 0.1], [2.0, 3.0]]))
    write_zpi(z, tmp_path / "g.zpi")
    write_pgm(z, tmp_path / "g.pgm")
    assert (tmp_path / "g.zpi").read_bytes() == b"2 0 1 0 2 0.5\n0 0.10000000000000001\n2 3\n"
    assert (tmp_path / "g.pgm").read_bytes() == b"P2\n2 2\n255\n170 255\n0 8\n"


def _awkward_pixels(rng, p):
    """Pixels drawn from zeros, subnormals, values near 1e300, integers and plain floats."""
    kinds = rng.integers(0, 5, (p, p))
    return np.select(
        [kinds == 0, kinds == 1, kinds == 2, kinds == 3],
        [0.0, 5e-324 * rng.integers(1, 1000, (p, p)), rng.uniform(0.5e300, 1.5e300, (p, p)),
         rng.integers(0, 10**6, (p, p)).astype(np.float64)],
        rng.random((p, p)) * 10.0 ** rng.integers(-30, 30, (p, p)),
    )


def _half_steps(top):
    """Pixels whose scaled value p / top * 255 lands exactly on k + 0.5."""
    candidates = (np.arange(255) + 0.5) / 255.0 * top
    return candidates[candidates / top * 255.0 % 1.0 == 0.5]


def _same_bytes(z, tmp_path):
    for reference, writer in [(reference_zpi.write_zpi, write_zpi),
                              (reference_zpi.write_pgm, write_pgm)]:
        reference(z, tmp_path / "want")
        writer(z, tmp_path / "got")
        assert (tmp_path / "got").read_bytes() == (tmp_path / "want").read_bytes(), writer


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("p", [1, 2, 7, 40])
def test_writers_match_reference_bytes(seed, p, tmp_path):
    rng = np.random.default_rng(seed)
    spec = GridSpec(p, 1.0 / 3.0, 12.0, 0.0, 1e300, 5e-324)
    pixels = _awkward_pixels(rng, p)
    _same_bytes(ZPIGrid(spec, pixels), tmp_path)
    # one pixel at the top scale so the rest span the gray levels
    pixels = np.minimum(pixels, 1.0)
    pixels.flat[rng.integers(p * p)] = 1.0
    _same_bytes(ZPIGrid(spec, pixels), tmp_path)


def test_writers_match_reference_on_zero_and_half_step_images(tmp_path):
    _same_bytes(ZPIGrid(grid(res=5), np.zeros((5, 5))), tmp_path)
    _same_bytes(ZPIGrid(grid(res=1), np.zeros((1, 1))), tmp_path)
    for top in (1.0, 3.0, 1e-300):
        halves = _half_steps(top)
        # both parities of k occur, so round-half-to-even goes both ways
        assert set(np.floor(halves / top * 255.0) % 2) == {0.0, 1.0}
        p = 16
        pixels = np.resize(halves, p * p).reshape(p, p)
        pixels[0, 0] = top
        _same_bytes(ZPIGrid(grid(res=p), pixels), tmp_path)


# --- read_zpi -----------------------------------------------------------------------------

def _zpi_text(*rows):
    """A 3x3 ``.zpi`` file with the given pixel lines."""
    return "3 0 1 0 1 0.5\n" + "".join(row + "\n" for row in rows)


def test_read_zpi_round_trips_awkward_values_bit_exactly(tmp_path):
    z = ZPIGrid(GridSpec(9, 1.0 / 3.0, 12.0, 0.0, 1e300, 5e-324),
                _awkward_pixels(np.random.default_rng(7), 9))
    write_zpi(z, tmp_path / "a.zpi")
    back = read_zpi(tmp_path / "a.zpi")
    assert back.spec == z.spec
    assert np.array_equal(back.pixels.view(np.int64), z.pixels.view(np.int64))


@pytest.mark.parametrize(
    "text, message",
    [
        (_zpi_text("1 2 3", "4 5 6"), r"line 4: expected 3 rows, got 2"),
        (_zpi_text("1 2 3", "4 5", "7 8 9"), r"line 3: expected 3 values, got 2"),
        (_zpi_text("1 2 3", "4 5 6", "7 8 9", "1 2 3"), r"line 5: expected 3 rows, got 4"),
        (_zpi_text("1 2 3", "4 5 6", "7 8 9", ""), r"line 5: expected 3 rows, got 4"),
        (_zpi_text("1 2 3", "4 nan 6", "7 8 9"), r"line 3: value nan is not finite"),
        (_zpi_text("1 2 3", "4 5 6", "7 8 -inf"), r"line 4: value -inf is not finite"),
        (_zpi_text("1 2 3", "4 5 x", "7 8 9"), r"line 3: could not convert"),
        ("3 0 1 0 1\n", r"line 1: malformed header"),
        ("", r"line 1: malformed header"),
    ],
    ids=["missing-row", "short-row", "extra-row", "extra-blank-line", "nan", "inf",
         "not-a-number", "short-header", "empty"],
)
def test_read_zpi_rejects_malformed_files(tmp_path, text, message):
    path = tmp_path / "bad.zpi"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: {message}"):
        read_zpi(path)


def test_zpigrid_rejects_non_finite_pixels():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            ZPIGrid(grid(res=2), np.array([[0.0, bad], [1.0, 2.0]]))
