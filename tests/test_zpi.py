import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from zigzagst.zigzag import ZPD
from zigzagst.zpi import (
    GridSpec,
    WeightingSpec,
    ZPIGrid,
    default_domain,
    default_theta,
    read_zpi,
    render_zpi,
    transform_diagram,
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


# --- transform_diagram ---------------------------------------------------------------

def test_transform_to_birth_persistence():
    zpd = ZPD(((1, 3, 5, 1), (0, 4, 4, 1)))
    assert transform_diagram(zpd, 1) == [(1.5, 1.0)]
    assert transform_diagram(zpd, 0) == [(2.0, 0.0)]
    assert transform_diagram(ZPD(()), 0) == []


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
    z = render_zpi([(0.0, 0.0)], g, WeightingSpec("constant"))
    expected = 2.0 * math.pi * 0.5**2
    assert z.pixels.sum() == pytest.approx(expected, rel=1e-3)


def test_two_identical_points_double():
    g = grid()
    one = render_zpi([(3.0, 2.0)], g, WeightingSpec("constant"))
    two = render_zpi([(3.0, 2.0), (3.0, 2.0)], g, WeightingSpec("constant"))
    assert np.allclose(two.pixels, 2.0 * one.pixels, rtol=1e-12)


def test_linear_weight_scales_by_persistence():
    g = grid()
    const = render_zpi([(3.0, 2.0)], g, WeightingSpec("constant"))
    lin = render_zpi([(3.0, 2.0)], g, WeightingSpec("linear"))
    assert np.allclose(lin.pixels, 2.0 * const.pixels, rtol=1e-12)


def test_zero_persistence_contributes_nothing_under_linear():
    z = render_zpi([(3.0, 0.0)], grid(), WeightingSpec("linear"))
    assert np.all(z.pixels == 0.0)


@given(st.integers(0, 2**30))
def test_additivity_and_monotonicity(seed):
    rng = np.random.default_rng(seed)
    g = grid(res=12)
    d1 = [(float(rng.uniform(0, 10)), float(rng.uniform(0, 5))) for _ in range(int(rng.integers(0, 5)))]
    d2 = [(float(rng.uniform(0, 10)), float(rng.uniform(0, 5))) for _ in range(int(rng.integers(1, 5)))]
    w = WeightingSpec("linear")
    combined = render_zpi(d1 + d2, g, w)
    separate = render_zpi(d1, g, w).pixels + render_zpi(d2, g, w).pixels
    assert np.allclose(combined.pixels, separate, rtol=1e-12, atol=1e-300)
    assert np.all(combined.pixels >= render_zpi(d1, g, w).pixels)


def test_render_orientation_row_zero_is_low_persistence():
    g = GridSpec(4, 0.0, 4.0, 0.0, 4.0, 0.3)
    z = render_zpi([(0.5, 0.5)], g, WeightingSpec("constant"))
    assert z.pixels[0, 0] == z.pixels.max()


# --- files -------------------------------------------------------------------------------

def test_zpi_file_roundtrip(tmp_path):
    g = grid(res=8)
    z = render_zpi([(2.0, 1.0), (7.0, 3.0)], g, WeightingSpec("linear"))
    path = tmp_path / "image.zpi"
    write_zpi(z, path)
    back = read_zpi(path)
    assert back.spec == z.spec
    assert np.array_equal(back.pixels, z.pixels)


def test_pgm_output(tmp_path):
    g = grid(res=4)
    z = render_zpi([(5.0, 5.0)], g, WeightingSpec("constant"))
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
