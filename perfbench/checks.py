"""Output checks of one benchmark run; every failure counts in ``failed``.

Checks run after the timed passes.  Those that need no stored data hold
for any seed: Betti consistency on sampled windows, every image against
an independent render, every W1 cost against an independent transport
solve, and finite forecasts.  For the seeds in ``reference.json`` the
diagram bytes, W1 costs and test MAE must also equal the stored values.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import traceback
from collections import Counter

import numpy as np
from scipy import sparse
from scipy.optimize import linprog
from scipy.special import ndtr

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

IMAGE_RTOL = 1e-12  # images: |pixel - reference| <= IMAGE_RTOL * max(1, max |reference|)
MAE_RTOL = 1e-6  # test MAE against the stored value; allows a different BLAS


class Checks:
    """Tally of attempted and failed checks, with the failures' messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, name: str, fn, *args) -> None:
        """Run ``fn(*args)``, which returns an error message or None."""
        self.attempted += 1
        try:
            error = fn(*args)
        except Exception:  # a crashing check is a failed check, not a crashed run
            error = traceback.format_exc(limit=3)
        if error:
            self.failed += 1
            self.failures.append(f"{name}: {error}")
            print(f"check failed: {name}: {error}", file=sys.stderr)


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="ascii") as fh:
        return json.load(fh)


def digest(paths) -> str:
    """SHA-256 over each file's base name and bytes, in order."""
    h = hashlib.sha256()
    for path in paths:
        h.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def read_points(zpd_path: str, dim: int) -> list[tuple[float, float]]:
    """(birth, death) pairs of one dimension, parsed without the library."""
    rows = np.loadtxt(zpd_path, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
    return [(b / 2.0, d / 2.0) for p, b, d in rows.tolist() if p == dim]


def reference_image(points, grid, weight_cap=math.inf) -> np.ndarray:
    """Persistence image as one product ``CY^T diag(g m) CX`` (linear weighting)."""
    p = grid.resolution
    pix = np.zeros((p, p))
    if not points:
        return pix
    arr = np.asarray(points, dtype=np.float64)
    birth, pers = arr[:, 0], arr[:, 1] - arr[:, 0]
    ex = np.linspace(grid.x_lo, grid.x_hi, p + 1)
    ey = np.linspace(grid.y_lo, grid.y_hi, p + 1)
    cx = np.diff(ndtr((ex[None, :] - birth[:, None]) / grid.theta), axis=1)
    cy = np.diff(ndtr((ey[None, :] - pers[:, None]) / grid.theta), axis=1)
    g = np.minimum(pers, weight_cap) * (2.0 * math.pi * grid.theta ** 2)
    return (cy * g[:, None]).T @ cx


def reference_w1(d1, d2) -> float:
    """Exact W1 (L-infinity ground) as a transport problem over distinct points.

    Each side gets one diagonal node that can absorb every point of the
    other side.  The dual simplex returns a vertex, which is integral for
    integral supplies, so the cost is summed exactly from rounded flows.
    """
    if not d1 and not d2:
        return 0.0
    a, b = Counter(d1), Counter(d2)
    src, dst = sorted(a), sorted(b)
    supply = [a[x] for x in src] + [len(d2)]
    demand = [b[y] for y in dst] + [len(d1)]
    m, k = len(supply), len(demand)
    cost = np.zeros((m, k))
    for i, (xb, xd) in enumerate(src):
        for j, (yb, yd) in enumerate(dst):
            cost[i, j] = max(abs(xb - yb), abs(xd - yd))
        cost[i, k - 1] = (xd - xb) / 2.0
    for j, (yb, yd) in enumerate(dst):
        cost[m - 1, j] = (yd - yb) / 2.0
    rows = sparse.kron(sparse.eye(m), np.ones((1, k)))
    cols = sparse.kron(np.ones((1, m)), sparse.eye(k))
    res = linprog(cost.ravel(), A_eq=sparse.vstack([rows, cols]).tocsr(),
                  b_eq=supply + demand, bounds=(0, None), method="highs-ds",
                  options={"presolve": False})  # presolve alone takes seconds here
    if res.status != 0:
        raise RuntimeError(f"transport solve failed: {res.message}")
    flow = np.rint(res.x).astype(np.int64).reshape(m, k)
    if flow.sum(axis=1).tolist() != supply or flow.sum(axis=0).tolist() != demand:
        raise RuntimeError("transport solution is not integral")
    return math.fsum(float(f) * c for f, c in zip(flow.ravel(), cost.ravel()) if f)


def _betti(snapshots, tau, nu, zpd_path, window, universe):
    from zigzagst import dyngraph, zigzag

    network = dyngraph.read_snapshot_csv(snapshots, universe)
    zf = zigzag.build_zigzag(dyngraph.sliding_windows(network, tau)[window], nu)
    report = zigzag.betti_consistency_check(zf, zigzag.read_zpd_csv(zpd_path))
    return None if report.ok else f"violations {report.violations[:3]}"


def _image(zpi_path, zpd_path, dim, grid):
    with open(zpi_path, encoding="ascii") as fh:
        header = [float(x) for x in fh.readline().split()]
    got = np.loadtxt(zpi_path, skiprows=1, ndmin=2)
    want_header = [grid.resolution, grid.x_lo, grid.x_hi, grid.y_lo, grid.y_hi, grid.theta]
    if header != want_header:
        return f"header {header} != {want_header}"
    want = reference_image(read_points(zpd_path, dim), grid)
    err = float(np.max(np.abs(got - want)))
    tol = IMAGE_RTOL * max(1.0, float(np.max(np.abs(want))))
    return None if err <= tol else f"max error {err:.3e} > {tol:.3e}"


def _w1(cost, path_a, path_b, dim):
    if cost * 4 != math.floor(cost * 4):
        return f"cost {cost!r} is off the quarter grid"
    want = reference_w1(read_points(path_a, dim), read_points(path_b, dim))
    return None if cost == want else f"cost {cost!r} != reference {want!r}"


def _forecast(path, expected_rows):
    values = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if values.shape[0] != expected_rows:
        return f"{values.shape[0]} rows, expected {expected_rows}"
    return None if np.all(np.isfinite(values)) else "non-finite forecast values"


def _equal(name, got, want):
    return None if got == want else f"{name} {got!r} != stored {want!r}"


def _close(name, got, want, rtol):
    ok = math.isfinite(got) and abs(got - want) <= rtol * abs(want)
    return None if ok else f"{name} {got!r} != stored {want!r} within {rtol}"


def check_run(tally: Checks, spec, passes, config, stored: dict | None) -> None:
    """All output checks for the passes of one run.

    ``passes`` are the run's pass outcomes; the last one's files are on
    disk.  ``config`` is the zigzag RunConfig of the chain; ``stored`` is
    this seed's entry of ``reference.json`` or None.
    """
    last = passes[-1]
    outputs = {p.fingerprint for p in passes}
    tally.check("outputs repeat across passes", lambda: None if len(outputs) == 1
                else f"{len(outputs)} distinct outputs over {len(passes)} passes")

    for k, snapshots in enumerate(spec.zigzag):
        paths = last.zpd_by_series[k]
        for window in sorted({0, len(paths) // 2, len(paths) - 1}):
            tally.check(f"betti series {k} window {window}", _betti, snapshots, config.tau,
                        config.nu_star, paths[window], window, config.universe_size)
    grid = config.grid_spec()
    for zpi_path, zpd_path, dim in last.images:
        tally.check(f"image {os.path.basename(zpi_path)}", _image, zpi_path, zpd_path, dim, grid)
    for (path_a, path_b, dim), cost in zip(last.pairs, last.costs):
        tally.check(f"w1 {os.path.basename(path_a)} {os.path.basename(path_b)} dim {dim}",
                    _w1, cost, path_a, path_b, dim)
    tally.check("forecast", _forecast, last.forecast_path, last.forecast_rows)

    if stored is not None:
        tally.check("diagram digest", _equal, "digest", digest(last.zpd), stored["diagrams_sha256"])
        tally.check("w1 costs", _equal, "costs", last.costs, stored["w1"])
        tally.check("test mae", _close, "test MAE", last.test_mae, stored["test_mae"], MAE_RTOL)
