"""The QMC tile kernel (Algorithm 3 of the paper).

``qmc_kernel_tile`` advances a block of MC chains through one diagonal tile
of the Cholesky factor: for each row of the tile it standardizes the limits
with the contributions of the rows already processed, multiplies the running
per-chain probability by the interval probability, and draws the transformed
sample ``y`` used by the rows below.

The row loop is inherently sequential (each row depends on the ``y`` of the
previous ones), but every row update is vectorized across the chains of the
block — this is exactly the granularity at which the paper parallelizes:
different chain blocks (and, across tiles, different row blocks through the
GEMM propagation) run as independent tasks.

This module is the thin dispatch layer: argument validation (including one
vectorized positive-diagonal pre-check, so callers never observe a
half-updated ``p_seg`` from a bad tile) happens once per tile, then the row
recursion runs on a pluggable backend from
:mod:`repro.core.kernel_backend` — the fused allocation-free ``"numpy"``
backend by default, or the original ``"reference"`` loop for parity
baselines.

Note on the paper's pseudo-code: line 5/12 of Algorithm 3 writes
``y = Phi^{-1}(R * (Phi(b') - Phi(a')))``; the correct Genz recursion (and
what the reference tlrmvnmvt implementation computes) is
``y = Phi^{-1}(Phi(a') + R * (Phi(b') - Phi(a')))``, which is what the
kernel implements.
"""

from __future__ import annotations

import numpy as np

from repro.core.kernel_backend import KernelBackend, KernelWorkspace, get_backend

__all__ = ["qmc_kernel_tile"]


def qmc_kernel_tile(
    l_tile: np.ndarray,
    r_tile: np.ndarray,
    a_tile: np.ndarray,
    b_tile: np.ndarray,
    p_seg: np.ndarray,
    y_tile: np.ndarray,
    prefix_sum: np.ndarray | None = None,
    prefix_sumsq: np.ndarray | None = None,
    *,
    segments: list[tuple[int, int]] | None = None,
    workspace: KernelWorkspace | None = None,
    backend: KernelBackend | str | None = None,
) -> None:
    """Advance one (row-tile, chain-block) pair of the SOV recursion in place.

    Parameters
    ----------
    l_tile : ndarray (m, m)
        Dense lower-triangular diagonal tile of the Cholesky factor.  Every
        diagonal entry is validated up front; a non-positive entry raises
        ``LinAlgError`` before any chain state is mutated.
    r_tile : ndarray (m, c)
        Uniform (QMC) variates for the ``m`` rows and ``c`` chains of the block.
    a_tile, b_tile : ndarray (m, c)
        Lower/upper limit blocks.  On entry they must already include the
        ``- L[r, r'] Y[r']`` contributions of all previous row tiles (the GEMM
        propagation of Algorithm 2).
    p_seg : ndarray (c,)
        Running per-chain probability product, updated in place.
    y_tile : ndarray (m, c)
        Output block of transformed samples, written in place.
    prefix_sum, prefix_sumsq : ndarray (m,) or (s, m), optional
        When provided, row ``i`` receives the sum (and sum of squares) over
        the block's chains of the running product after processing row ``i``.
        This is what turns one PMVN sweep into the whole confidence function
        of Algorithm 1 (joint probabilities of every prefix of the ordered
        locations).  The kernel keeps each row's running product in the
        workspace and takes the sums after the row loop, one row of the
        accumulator per column segment.
    segments : list of (c0, c1), optional
        Column ranges summed separately, one per accumulator row (shape
        ``(len(segments), m)``); by default one ``(m,)`` accumulator sums
        every chain of the block.
    workspace : KernelWorkspace, optional
        Reusable scratch buffers; pass one per worker thread to make the
        sweep allocation-free.  A transient workspace is created when omitted.
    backend : KernelBackend or str, optional
        Row-recursion implementation; ``None`` follows the
        ``REPRO_KERNEL_BACKEND`` environment variable and defaults to the
        fused (bit-identical) ``"numpy"`` backend.
    """
    m = l_tile.shape[0]
    if l_tile.shape[1] != m:
        raise ValueError("diagonal tile must be square")
    n_chains = r_tile.shape[1]
    for tile in (r_tile, a_tile, b_tile, y_tile):
        if tile.shape != (m, n_chains):
            raise ValueError(
                f"work tiles must have shape {(m, n_chains)}, got {tile.shape}"
            )
    if p_seg.shape != (n_chains,):
        raise ValueError(f"probability segment must have shape ({n_chains},)")

    if segments is None:
        segments = [(0, n_chains)]
        prefix_sum = None if prefix_sum is None else prefix_sum[None, :]
        prefix_sumsq = None if prefix_sumsq is None else prefix_sumsq[None, :]
    prefix = prefix_sum is not None or prefix_sumsq is not None
    for acc in (prefix_sum, prefix_sumsq):
        if acc is not None and acc.shape != (len(segments), m):
            raise ValueError(f"prefix accumulators must have shape {(len(segments), m)}, got {acc.shape}")

    if workspace is None:
        workspace = KernelWorkspace()
    workspace.ensure(m, n_chains)
    # vectorized positive-diagonal pre-check: fail before touching p_seg/y
    workspace.bind_tile(l_tile)
    if not isinstance(backend, KernelBackend):
        backend = get_backend(backend)
    products = workspace.row_products(m, n_chains) if prefix else None
    backend.run(l_tile, r_tile, a_tile, b_tile, p_seg, y_tile, products, workspace)
    if not prefix:
        return None
    # per row the same pairwise sum and BLAS dot as ``p.sum()`` and
    # ``np.dot(p, p)`` over that row's segment, bit for bit
    for s, (c0, c1) in enumerate(segments):
        seg = products[:, c0:c1]
        if prefix_sum is not None:
            prefix_sum[s] += seg.sum(axis=1)
        if prefix_sumsq is not None:
            prefix_sumsq[s] += np.vecdot(seg, seg)
    return None
