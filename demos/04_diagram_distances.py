"""Wasserstein-1 matchings between diagrams and image-space stability.

Diagrams are (birth, death, count) rows, the form ``ZPD.points(dim)``
returns; a point held by both diagrams pairs with itself at no cost.

Run:  python demos/04_diagram_distances.py
"""

import numpy as np

from zigzagst import (
    GridSpec,
    WeightingSpec,
    default_domain,
    default_theta,
    linf_distance,
    render_zpi,
    wasserstein1,
)

# Points may match points of the other diagram or slide to the diagonal
# at half their persistence.
d1 = [(1.0, 3.0, 1), (2.0, 6.0, 1)]
d2 = [(1.2, 3.1, 1)]
result = wasserstein1(d1, d2)
print("cost:", round(result.cost, 4))
for a, b in result.pairing:
    print("  ", a if a else "diagonal", "<->", b if b else "diagonal")

# A diagram against the empty diagram pays every point's diagonal cost.
print("\nto empty:", wasserstein1(d1, []).cost, "= (3-1)/2 + (6-2)/2")

# Image-space distances move continuously with diagram perturbations;
# the ratio linf(images) / w1(diagrams) stays bounded, which is the
# empirical face of the stability guarantee.
domain = default_domain(12)
grid = GridSpec(100, *domain, default_theta(domain, 100))
weighting = WeightingSpec("linear")
rng = np.random.default_rng(0)
worst = 0.0
for _ in range(50):
    base = [(b, b + p, 1) for b, p in zip(rng.uniform(1, 11, 6), rng.uniform(0, 3, 6))]
    shifted = [(b + rng.uniform(-0.3, 0.3), d + rng.uniform(0.0, 0.3), m) for b, d, m in base]
    shifted = [(b, max(b, d), m) for b, d, m in shifted]
    cost = wasserstein1(base, shifted).cost
    if cost < 1e-9:
        continue
    za = render_zpi(base, grid, weighting)
    zb = render_zpi(shifted, grid, weighting)
    worst = max(worst, linf_distance(za, zb) / cost)
print(f"\nworst image/diagram distance ratio over 50 perturbations: {worst:.3f}")
