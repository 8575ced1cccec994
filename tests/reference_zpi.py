"""Replaced image paths, kept as differential references.

``render_zpi`` is the render that ``zigzagst.zpi.render_zpi`` replaced:
it takes expanded ``(birth, persistence)`` points and counts them back
with ``Counter``.  The writers are the ones ``zigzagst.zpi.write_zpi``
and ``zigzagst.zpi.write_pgm`` replaced: every pixel is formatted on its
own and every row is written on its own.  All are kept verbatim; the
library must produce the same pixels and the same bytes.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Sequence

import numpy as np
from scipy.special import ndtr

from zigzagst.zpi import GridSpec, WeightingSpec, ZPIGrid


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
