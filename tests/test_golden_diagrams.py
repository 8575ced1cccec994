"""Diagram bytes in all five filtration modes, pinned by one SHA-256 per mode.

``tests/test_bench_reference.py`` pins the benchmark's diagrams, which
all come from the weight-sublevel mode.  Here every mode runs the series
engine over the same seeded series, small graphs with isolated active
nodes and tied weights, at a few scales (power mode at integer and
half-integer hop counts) and at tau 1, 2 and the series length.  A
mode's digest covers the ``write_zpd_csv`` bytes of every window and
the text of every ``InclusionError`` its arrows raise, so a change of
any diagram, or of where and why a mode breaks inclusion, fails here.
"""

import hashlib
import itertools

import numpy as np
import pytest

from zigzagst.dyngraph import Snapshot
from zigzagst.filtration import FiltrationMode
from zigzagst.zigzag import InclusionError, write_zpd_csv, zigzag_series

SCALES = {
    FiltrationMode.WEIGHT_SUBLEVEL_CLIQUE: (0.3, 0.6, 1.0),
    FiltrationMode.VIETORIS_RIPS: (0.3, 0.6, 1.0, 1.5),
    FiltrationMode.WEIGHT_RANK_CLIQUE: (0.25, 0.5, 1.0),
    FiltrationMode.POWER: (0.0, 1.0, 1.5, 2.0, 2.5),
    FiltrationMode.WEIGHTED_DEGREE_SUBLEVEL: (0.5, 1.0, 2.0),
}

DIGESTS = {
    FiltrationMode.WEIGHT_SUBLEVEL_CLIQUE:
        "6102dde83b233637290b0dccebd3eb782165a0c06d5e9a036750e07751870b65",
    FiltrationMode.VIETORIS_RIPS:
        "b2c9342c01407ebdf00239b6e3dcfd991f56d74d05ff9c77abb3a009ba90f423",
    FiltrationMode.WEIGHT_RANK_CLIQUE:
        "f3061c9961874256010f4602406d2c774788285f9fee07f139502f7401b509d8",
    FiltrationMode.POWER:
        "b806bbcb7e5c8f3eed6bbb3b41f38de015cc3e7b45e789fdc78f1ded8a493299",
    FiltrationMode.WEIGHTED_DEGREE_SUBLEVEL:
        "00af88181539b6b3775f5dcb0c5af0c114993977dd81c92698301adc3f9e447a",
}


def seeded_series(seed: int) -> list[Snapshot]:
    """3 to 8 nodes over 2 to 5 steps; half the weights are multiples of 1/8, so some tie."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    pairs = list(itertools.combinations(range(n), 2))
    snaps = []
    for t in range(1, int(rng.integers(2, 6)) + 1):
        density = rng.uniform(0.2, 0.7)
        edges = [(u, v, int(rng.integers(1, 10)) / 8 if rng.random() < 0.5
                  else float(rng.uniform(0.05, 1.2)))
                 for u, v in pairs if rng.random() < density]
        isolated = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
        snaps.append(Snapshot.from_edges(t, n, edges, nodes=isolated.tolist()))
    return snaps


SERIES = [seeded_series(seed) for seed in range(30)]


def mode_digest(mode: FiltrationMode, path) -> str:
    digest = hashlib.sha256()
    for snaps, nu in itertools.product(SERIES, SCALES[mode]):
        for tau in sorted({1, 2, len(snaps)}):
            try:
                for zpd in zigzag_series(snaps, tau, nu, mode):
                    write_zpd_csv(zpd, path)
                    digest.update(path.read_bytes())
            except InclusionError as exc:
                digest.update(str(exc).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("mode", list(FiltrationMode), ids=lambda mode: mode.value)
def test_every_mode_writes_the_stored_diagram_bytes(tmp_path, mode):
    assert mode_digest(mode, tmp_path / "zpd.csv") == DIGESTS[mode]
