"""Persistence images of zigzag diagrams.

Diagram points move to birth-persistence coordinates and each deposits a
weighted unnormalized Gaussian; a pixel holds the exact integral of that
mixture over its grid box.  The integral separates per axis, so it is
evaluated in closed form as a product of normal-CDF differences rather
than by quadrature.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import ndtr

from .zigzag import ZPD

__all__ = [
    "GridSpec",
    "WeightingSpec",
    "ZPIGrid",
    "transform_diagram",
    "default_domain",
    "default_theta",
    "render_zpi",
    "write_zpi",
    "read_zpi",
    "write_pgm",
]


@dataclass(frozen=True)
class GridSpec:
    """Raster geometry: p x p boxes over a birth-persistence rectangle."""

    resolution: int
    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float
    theta: float

    def __post_init__(self):
        if self.resolution < 1:
            raise ValueError("resolution must be >= 1")
        if not (self.x_hi > self.x_lo and self.y_hi > self.y_lo):
            raise ValueError("domain rectangle must have positive extent")
        if not (self.theta > 0.0 and math.isfinite(self.theta)):
            raise ValueError(f"bandwidth theta must be positive, got {self.theta}")


@dataclass(frozen=True)
class WeightingSpec:
    """Point weight g: linear in persistence (capped) or constant one."""

    kind: str = "linear"
    cap: float = math.inf

    def __post_init__(self):
        if self.kind not in ("linear", "constant"):
            raise ValueError(f"unknown weighting kind {self.kind!r}")
        if not self.cap > 0.0:
            raise ValueError("cap must be positive")

    def weight(self, persistence: float) -> float:
        if self.kind == "constant":
            return 1.0
        return min(persistence, self.cap)


@dataclass(frozen=True)
class ZPIGrid:
    """Rendered image; ``pixels[iy, ix]`` with row 0 at the lowest persistence."""

    spec: GridSpec
    pixels: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.pixels, dtype=np.float64)
        p = self.spec.resolution
        if arr.shape != (p, p):
            raise ValueError(f"pixels must be {p}x{p}, got {arr.shape}")
        if np.any(arr < 0.0):
            raise ValueError("pixel values must be nonnegative")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "pixels", arr)


def transform_diagram(zpd: ZPD, dim: int) -> list[tuple[float, float]]:
    """Points of one homology dimension in (birth, persistence) coordinates."""
    return [(b, d - b) for b, d in zpd.pairs(dim)]


def default_domain(t: int) -> tuple[float, float, float, float]:
    """Reachable birth/persistence rectangle [1, T] x [0, T-1] for a window.

    Degenerate axes (T = 1) are widened to one unit so the grid keeps
    positive extent.
    """
    if t < 1:
        raise ValueError("window length must be >= 1")
    x_lo, x_hi = 1.0, float(t)
    y_lo, y_hi = 0.0, float(t - 1)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    return x_lo, x_hi, y_lo, y_hi


def default_theta(domain: tuple[float, float, float, float], resolution: int) -> float:
    """Pixel-scale smoothing: two grid steps of the birth axis."""
    x_lo, x_hi = domain[0], domain[1]
    return 2.0 * (x_hi - x_lo) / resolution


def render_zpi(
    points: Sequence[tuple[float, float]],
    grid: GridSpec,
    w: WeightingSpec = WeightingSpec(),
) -> ZPIGrid:
    """Integrate the weighted Gaussian mixture over every grid box.

    Each point contributes g(point) * 2*pi*theta^2 times the product of
    per-axis CDF differences, so the render is additive over points and
    monotone under adding points.  A point repeated m times is rendered
    once with weight m * g, in order of first appearance.
    """
    p = grid.resolution
    ex = np.linspace(grid.x_lo, grid.x_hi, p + 1)
    ey = np.linspace(grid.y_lo, grid.y_hi, p + 1)
    pixels = np.zeros((p, p), dtype=np.float64)
    mass = 2.0 * math.pi * grid.theta * grid.theta
    for (bx, pers), count in Counter((float(b), float(q)) for b, q in points).items():
        g = w.weight(pers)
        if g == 0.0:
            continue
        cx = np.diff(ndtr((ex - bx) / grid.theta))
        cy = np.diff(ndtr((ey - pers) / grid.theta))
        pixels += (count * g * mass) * np.outer(cy, cx)
    return ZPIGrid(grid, pixels)


def write_zpi(z: ZPIGrid, path) -> None:
    """Text format: header `p x_lo x_hi y_lo y_hi theta`, then p rows of p values."""
    s = z.spec
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{s.resolution} {s.x_lo:.17g} {s.x_hi:.17g} {s.y_lo:.17g} {s.y_hi:.17g} {s.theta:.17g}\n")
        for row in z.pixels:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def read_zpi(path) -> ZPIGrid:
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().split()
        if len(header) != 6:
            raise ValueError(f"{path}: malformed header")
        p = int(header[0])
        spec = GridSpec(p, *(float(x) for x in header[1:5]), float(header[5]))
        rows = [[float(x) for x in fh.readline().split()] for _ in range(p)]
    return ZPIGrid(spec, np.array(rows, dtype=np.float64))


def write_pgm(z: ZPIGrid, path) -> None:
    """8-bit grayscale portable graymap; top row shows the highest persistence."""
    top = float(z.pixels.max())
    if top > 0.0:
        img = np.rint(z.pixels / top * 255.0).astype(np.int64)
    else:
        img = np.zeros_like(z.pixels, dtype=np.int64)
    p = z.spec.resolution
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"P2\n{p} {p}\n255\n")
        for row in img[::-1]:
            fh.write(" ".join(str(v) for v in row) + "\n")
