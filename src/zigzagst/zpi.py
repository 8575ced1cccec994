"""Persistence images of zigzag diagrams.

Diagram points move to birth-persistence coordinates and each deposits a
weighted unnormalized Gaussian; a pixel holds the exact integral of that
mixture over its grid box.  The integral separates per axis, so it is
evaluated in closed form as a product of normal-CDF differences rather
than by quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import textio
from .dyngraph import check_fields, checked
from .filtration import check_dim
from .zigzag import ZPD, check_point_row

__all__ = [
    "MAX_RESOLUTION",
    "GridSpec",
    "WeightingSpec",
    "ZPIGrid",
    "default_domain",
    "default_theta",
    "image_rows",
    "render_zpi",
    "format_zpi",
    "write_zpi",
    "read_zpi",
    "format_pgm",
    "write_pgm",
]


# Largest image side p; the encoder's buffers alone take about 89 MB at p = 1000.
MAX_RESOLUTION = 1000


@dataclass(frozen=True)
class GridSpec:
    """Raster geometry: p x p boxes over a birth-persistence rectangle.

    ``resolution`` must be an integer and the rest real numbers, none a
    ``bool`` (``dyngraph.check_fields``).
    """

    resolution: int
    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float
    theta: float

    def __post_init__(self):
        check_fields(self)
        if self.resolution < 1:
            raise ValueError(f"resolution must be >= 1, got {self.resolution}")
        if self.resolution > MAX_RESOLUTION:
            raise ValueError(f"resolution {self.resolution} exceeds "
                             f"MAX_RESOLUTION = {MAX_RESOLUTION}")
        if not (math.inf > self.x_hi > self.x_lo > -math.inf
                and math.inf > self.y_hi > self.y_lo > -math.inf):
            raise ValueError("domain rectangle must be finite with positive extent")
        if not (self.theta > 0.0 and math.isfinite(self.theta)):
            raise ValueError(f"bandwidth theta must be positive, got {self.theta}")


@dataclass(frozen=True)
class WeightingSpec:
    """Point weight g: linear in persistence (capped) or constant one.

    ``kind`` must be a string and ``cap`` a real number that is not a
    ``bool`` (``dyngraph.check_fields``).
    """

    kind: str = "linear"
    cap: float = math.inf

    def __post_init__(self):
        check_fields(self)
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
    """Rendered image; ``pixels[iy, ix]`` with row 0 at the lowest persistence.

    ``pixels`` must be finite nonnegative numbers of an integer or float
    dtype: an array of ``bool``s, strings or objects is refused, not
    converted.  They are stored as a read-only float64 copy.
    """

    spec: GridSpec
    pixels: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.pixels)
        if arr.dtype.kind not in "iuf":
            raise ValueError(f"pixels must be real numbers, got {arr.dtype} values")
        arr = arr.astype(np.float64)  # a copy
        p = self.spec.resolution
        if arr.shape != (p, p):
            raise ValueError(f"pixels must be {p}x{p}, got {arr.shape}")
        _check_pixels(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "pixels", arr)


def _check_pixels(values: np.ndarray) -> None:
    bad = np.flatnonzero(~(values >= 0.0) | (values == math.inf))
    if len(bad):
        x = values.flat[bad[0]]
        raise ValueError(f"value {x} is {'negative' if math.isfinite(x) else 'not finite'}")


def default_domain(t: int) -> tuple[float, float, float, float]:
    """Reachable birth/persistence rectangle [1, T] x [0, T-1] for a window.

    Degenerate axes (T = 1) are widened to one unit so the grid keeps
    positive extent.
    """
    t = checked("window length tau", t, least=1)
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


def image_rows(zpd: ZPD, dims: Sequence[int], w: WeightingSpec) -> tuple:
    """The rows of ``zpd`` in ``dims`` that weigh in its image: those of nonzero weight.

    ``render_zpi`` skips a row of weight 0, a zero-persistence row under
    ``linear`` weighting, so diagrams with the same image rows in a
    dimension have the same image there, bit for bit.  Each of ``dims``
    must pass ``check_dim``.
    """
    dims = [check_dim("dimension", dim) for dim in dims]
    return tuple(row for row in zpd.rows
                 if row[0] in dims and w.weight((row[2] - row[1]) / 2.0) != 0.0)


def render_zpi(
    points: Sequence[tuple[float, float, int]],
    grid: GridSpec,
    w: WeightingSpec = WeightingSpec(),
) -> ZPIGrid:
    """Integrate the weighted Gaussian mixture over every grid box.

    ``points`` are ``(birth, death, count)`` rows, as ``ZPD.points`` gives
    them.  A row contributes count * g(persistence) * 2*pi*theta^2 times
    the product of per-axis CDF differences at (birth, death - birth), so
    the render is additive over rows and monotone under adding rows, up
    to rounding.  A row with a time that is not finite, a death before
    its birth or a count that is not a positive integer raises a
    ``ValueError`` naming it (``zigzag.check_point_row``).

    The CDF differences are tabulated once per distinct birth (``cx``) and
    once per distinct persistence (``cy``).  The weighted ``cx`` rows are
    summed per persistence, and one product with ``cy`` gives the image, so
    no intermediate is larger than (rows + p) * p values.
    """
    p = grid.resolution
    mass = 2.0 * math.pi * grid.theta * grid.theta
    births, perss, weights = [], [], []
    for row in points:
        bx, death, count = check_point_row(row)
        pers = death - bx
        g = w.weight(pers)
        if g != 0.0:
            births.append(bx)
            perss.append(pers)
            weights.append(count * g * mass)
    bu, ix = np.unique(births, return_inverse=True)
    pu, iy = np.unique(perss, return_inverse=True)
    cx = _cdf_steps(np.linspace(grid.x_lo, grid.x_hi, p + 1), bu, grid.theta)
    cy = _cdf_steps(np.linspace(grid.y_lo, grid.y_hi, p + 1), pu, grid.theta)
    acc = np.zeros((len(pu), p))
    np.add.at(acc, iy, np.array(weights)[:, None] * cx[ix])
    return ZPIGrid(grid, cy.T @ acc)


def _cdf_steps(edges: np.ndarray, centres: np.ndarray, theta: float) -> np.ndarray:
    """Normal mass per bin: row i holds the CDF differences over ``edges`` about ``centres[i]``.

    The CDF is ``0.5 * erfc(-z / sqrt(2))``, evaluated value by value with
    ``math.erfc``, which needs no scipy.  ``math.erfc`` is not monotone deep
    in the subnormal range (near 1e-321), so a difference there can come out
    a few subnormals below 0; it is clamped to 0, the nearer value.
    """
    z = (edges[None, :] - centres[:, None]) * (-1.0 / (math.sqrt(2.0) * theta))
    cdf = np.fromiter(map(math.erfc, z.ravel().tolist()), np.float64, z.size)
    steps = np.diff(cdf.reshape(z.shape), axis=1)
    return 0.5 * np.maximum(steps, 0.0, out=steps)


def format_zpi(z: ZPIGrid) -> str:
    """Text format: header `p x_lo x_hi y_lo y_hi theta`, then p rows of p values.

    Every value is written with ``%.17g``, which round-trips a float64
    exactly.  The whole image is formatted by one ``%``.
    """
    s = z.spec
    p = s.resolution
    header = f"{p} {s.x_lo:.17g} {s.x_hi:.17g} {s.y_lo:.17g} {s.y_hi:.17g} {s.theta:.17g}\n"
    rows = (" ".join(["%.17g"] * p) + "\n") * p
    return header + rows % tuple(z.pixels.ravel().tolist())


def write_zpi(z: ZPIGrid | str, path) -> None:
    """Write an image, or its ``format_zpi`` text, as a ``.zpi`` file in one write."""
    textio.write(path, z if isinstance(z, str) else format_zpi(z))


def read_zpi(path) -> ZPIGrid:
    """Read a ``.zpi`` file: the header, then exactly p rows of p finite nonnegative values.

    Anything else raises a ``ValueError`` naming the line.  Rows are checked as
    read and later lines only counted, so nothing p x p precedes the row count.
    """
    rows, n = [], 1
    with textio.lines(path) as lines:
        fields = next(lines, (1, ""))[1].split()
        try:
            if len(fields) != 6:
                raise ValueError(f"expected 6 fields, got {len(fields)}")
            spec = GridSpec(int(fields[0]), *map(float, fields[1:]))
        except ValueError as exc:
            raise ValueError(f"malformed header: {exc}") from exc
        p = spec.resolution
        for n, line in lines:
            if n <= p + 1:
                values = line.split()
                if len(values) != p:
                    raise ValueError(f"expected {p} values, got {len(values)}")
                rows.append(np.array(values, dtype=np.float64))
                _check_pixels(rows[-1])
    if n != p + 1:
        raise ValueError(f"{path}: line {min(n, p + 1) + 1}: expected {p} rows, got {n - 1}")
    return ZPIGrid(spec, np.array(rows))


_GRAY = [str(level) for level in range(256)]


def format_pgm(z: ZPIGrid) -> str:
    """8-bit grayscale portable graymap; top row shows the highest persistence."""
    top = float(z.pixels.max())
    if top > 0.0:
        img = np.rint(z.pixels / top * 255.0).astype(np.int64)
    else:
        img = np.zeros_like(z.pixels, dtype=np.int64)
    p = z.spec.resolution
    body = "\n".join(" ".join([_GRAY[v] for v in row]) for row in img[::-1].tolist())
    return f"P2\n{p} {p}\n255\n{body}\n"


def write_pgm(z: ZPIGrid | str, path) -> None:
    """Write an image, or its ``format_pgm`` text, as a ``.pgm`` file in one write."""
    textio.write(path, z if isinstance(z, str) else format_pgm(z))
