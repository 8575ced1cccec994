"""Rasterize zigzag diagrams into persistence images.

Each diagram row (birth, death, count) moves to (birth, persistence)
coordinates and deposits a Gaussian weighted by its count and its
persistence; pixels hold the exact integral of the mixture over their
grid box.

Run:  python demos/03_persistence_images.py
"""

import numpy as np

from zigzagst import (
    GridSpec,
    Snapshot,
    WeightingSpec,
    compute_zigzag_persistence,
    default_domain,
    default_theta,
    render_zpi,
)
from zigzagst.zpi import write_pgm, write_zpi


def snap(index, edges):
    return Snapshot.from_edges(index, 4, [(u, v, 0.2) for u, v in edges])


path = [(0, 1), (1, 2), (2, 3)]
square = path + [(0, 3)]
window = [snap(1, path), snap(2, square), snap(3, path), snap(4, square), snap(5, square)]

zpd = compute_zigzag_persistence(window, nu_star=0.5)
print("cycle bars:", zpd.points(1))

# The default domain covers every reachable (birth, persistence) pair of
# a length-T window; the default bandwidth is two grid steps.
domain = default_domain(len(window))
grid = GridSpec(64, *domain, default_theta(domain, 64))
image = render_zpi(zpd.points(1), grid, WeightingSpec("linear"))
print("image shape:", image.pixels.shape, " total mass:", round(float(image.pixels.sum()), 4))

# Rendering is additive and monotone: adding a bar never darkens a pixel.
more = render_zpi(zpd.points(1) + [(2.0, 4.0, 1)], grid, WeightingSpec("linear"))
print("monotone under extra point:", bool(np.all(more.pixels >= image.pixels)))

# Constant weighting is available for ablations; linear weighting places
# zero mass on zero-persistence points.
flat = render_zpi([(2.0, 2.0, 1)], grid, WeightingSpec("linear"))
print("zero-persistence point contributes nothing:", float(flat.pixels.sum()) == 0.0)

write_zpi(image, "demo_dim1.zpi")
write_pgm(image, "demo_dim1.pgm")
print("wrote demo_dim1.zpi and demo_dim1.pgm")
