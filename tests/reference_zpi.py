"""Row-at-a-time image writers, kept as a differential reference.

These are the writers that ``zigzagst.zpi.write_zpi`` and
``zigzagst.zpi.write_pgm`` replaced: every pixel is formatted on its
own and every row is written on its own.  They are kept verbatim; the
library writers must produce the same bytes.
"""

from __future__ import annotations

import numpy as np

from zigzagst.zpi import ZPIGrid


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
