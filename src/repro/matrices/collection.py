"""A named matrix collection mimicking the paper's UFL selection.

The paper filters the University of Florida collection down to 76
square, pattern-symmetric matrices with 20k-2M rows and >= 2.5 nnz/row.
Offline we assemble an analogous spread of structures at four scales
(``tiny`` for unit tests, ``small`` for the benchmark suite, ``medium``
for the full experiment run, ``large`` for the parallel batch pipeline):
regular meshes, bands of several widths, random patterns of several
densities, and power-law graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from . import generators as gen

__all__ = ["MatrixInstance", "default_collection", "SCALES"]


@dataclass(frozen=True)
class MatrixInstance:
    """A named matrix of the synthetic collection."""

    name: str
    matrix: sp.csr_matrix

    @property
    def n(self) -> int:
        """Number of rows."""
        return int(self.matrix.shape[0])


#: scale name -> characteristic problem size (grid side, band length...).
SCALES: dict[str, int] = {"tiny": 8, "small": 24, "medium": 48, "large": 96}


def default_collection(scale: str = "small", seed: int = 2013) -> list[MatrixInstance]:
    """Build the synthetic collection at the requested scale.

    The same seed always yields the same matrices, making every
    experiment reproducible bit-for-bit.
    """
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; pick one of {sorted(SCALES)}")
    k = SCALES[scale]
    rng = np.random.default_rng(seed)
    # Random patterns fill in heavily under elimination, which makes the
    # minimum-degree ordering superlinearly expensive; cap their sizes so
    # the ``large`` tier stays tractable (the caps are above every
    # smaller scale's k*k, so tiny/small/medium are unaffected). The
    # structured matrices (grids, bands) scale to the full size.
    r3 = min(k * k, 4096)
    r6 = min(k * k, 2304)
    g3 = max(3, min(k // 3, 20))  # 3D fill-in is the worst md offender
    builders: list[tuple[str, Callable[[], sp.csr_matrix]]] = [
        (f"grid2d-{k}", lambda: gen.grid2d(k)),
        (f"grid2d-{2 * k}", lambda: gen.grid2d(2 * k)),
        (f"grid3d-{g3}", lambda: gen.grid3d(g3)),
        (f"banded-{k * k}-w2", lambda: gen.banded(k * k, 2)),
        (f"banded-{k * k}-w8", lambda: gen.banded(k * k, min(8, k * k - 1))),
        (
            f"random-{r3}-d3",
            lambda: gen.random_symmetric(r3, 3.0, rng),
        ),
        (
            f"random-{r6}-d6",
            lambda: gen.random_symmetric(r6, 6.0, rng),
        ),
        (f"scalefree-{r3}", lambda: gen.scale_free(r3, 2, rng)),
    ]
    return [MatrixInstance(name, build()) for name, build in builders]
