"""Dense tile linear algebra (Chameleon-like substrate).

The paper's MVN implementation stores the covariance matrix and the SOV
work matrices (``A``, ``B``, ``R``, ``Y``) as tiles managed through
Chameleon descriptors and operates on them with tile kernels (POTRF, TRSM,
SYRK, GEMM) submitted to the runtime.  This subpackage provides:

* :class:`~repro.tile.layout.TileMatrix` — a tile descriptor over NumPy
  storage with 2D block-cyclic ownership maps for the distributed simulator.
* :func:`~repro.tile.cholesky.tiled_cholesky` — the right-looking tile
  Cholesky factorization expressed as runtime tasks (its codelets are the
  task bodies; :mod:`repro.tile.dense_kernels` holds their flop counts).
"""

from repro.tile.layout import TileMatrix, tile_ranges
from repro.tile.cholesky import tiled_cholesky

__all__ = [
    "TileMatrix",
    "tile_ranges",
    "tiled_cholesky",
]
