"""Pluggable backends for the QMC tile kernel (the SOV hot path).

Once the session API amortizes factorization, every ``Model.probability*``
call spends most of its time inside :func:`repro.core.qmc_kernel.qmc_kernel_tile`
— ``n`` rows of ``Phi``/``Phi^{-1}`` evaluations per chain block.  This module
makes that inner loop allocation-free and swappable:

* :class:`KernelWorkspace` owns the per-row scratch vectors (``shift``, the
  standardized-limit buffers, ``phi``, ``width``) plus the per-tile diagonal
  and its precomputed reciprocal, so a worker thread validates and allocates
  once per tile instead of once per row.
* ``"reference"`` is the original (pre-optimization) row loop, kept verbatim
  as the parity and benchmark baseline.
* ``"numpy"`` (the default) is a fused rewrite: every row update writes into
  workspace buffers with ``out=``, the two one-sided special cases
  (``a_i = -inf`` / ``b_i = +inf``, where ``Phi`` is exactly ``0.0`` / ``1.0``)
  skip the corresponding CDF evaluation entirely, and adjacent lo/hi buffers
  share single ``ndtr`` calls.  Its outputs are **bit-identical** to the
  reference backend — only dead work is removed, no floating-point operation
  that reaches an output is reordered or rewritten.
* ``"numba"`` is an optional ``@njit``-compiled scalar recursion using the
  precomputed reciprocal diagonal (multiplication instead of division) and a
  self-contained erfc-based ``Phi`` / Halley-refined ``Phi^{-1}``.  It is
  registered only when :mod:`numba` imports; requesting it without numba
  installed falls back to ``"numpy"`` with a warning.  Accurate to ~1e-12
  but *not* bit-identical to the numpy path.
* ``"numba-parallel"`` compiles the same scalar recursion with
  ``parallel=True`` and a ``prange`` over the *chains* of a tile: every MC
  chain's row recursion is independent, so threads split the chain dimension
  with no synchronization inside the tile, and per-chain results are
  **bit-identical to the serial "numba" backend for any thread count**.
  The thread count comes from :func:`resolve_kernel_threads` (explicit
  setting > ``$REPRO_KERNEL_THREADS`` > numba's default, i.e. all cores).
  Requesting it without numba falls back ``numba-parallel`` → ``numba`` →
  ``numpy`` with a one-time warning.
* ``"auto"`` resolves to the fastest available backend:
  ``numba-parallel`` > ``numba`` > ``numpy``.

Selection precedence: explicit ``backend=`` argument (or
``SolverConfig.backend`` / the CLI ``--backend`` flag) > the
``REPRO_KERNEL_BACKEND`` environment variable > ``"numpy"``.  Unknown names
— from either source — raise ``ValueError`` listing
:func:`available_backends` instead of failing mid-sweep.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.stats.normal import PPF_EPS, norm_cdf, norm_ppf
from repro.utils.validation import check_count

__all__ = [
    "KernelBackend",
    "KernelWorkspace",
    "available_backends",
    "get_backend",
    "register_backend",
    "resolve_backend_name",
    "resolve_kernel_threads",
    "set_kernel_threads",
    "BACKEND_ENV_VAR",
    "DEFAULT_BACKEND",
    "KERNEL_THREADS_ENV_VAR",
]

#: environment variable consulted when no explicit backend is requested
BACKEND_ENV_VAR = "REPRO_KERNEL_BACKEND"

#: the backend used when neither an argument nor the env var selects one
DEFAULT_BACKEND = "numpy"

#: environment variable consulted when no explicit thread count is set
KERNEL_THREADS_ENV_VAR = "REPRO_KERNEL_THREADS"

#: names that are always recognized even when their import is absent —
#: resolution errors distinguish "unknown name" from "known but unavailable"
_OPTIONAL_BACKENDS = ("numba", "numba-parallel")


# ---------------------------------------------------------------------------
# kernel thread-count control (used by the numba-parallel backend)
# ---------------------------------------------------------------------------

_KERNEL_THREADS: int | None = None


def set_kernel_threads(n: int | None) -> int | None:
    """Set the process-wide kernel thread count; returns the previous setting.

    ``None`` clears the setting (back to ``$REPRO_KERNEL_THREADS`` or the
    numba default).  The setting is read at *kernel run* time, so it applies
    to sweeps already in flight on their next tile — like numba's own
    ``set_num_threads`` this is deliberately a process-wide knob.
    """
    global _KERNEL_THREADS
    prev = _KERNEL_THREADS
    _KERNEL_THREADS = None if n is None else check_count(n, "kernel_threads")
    return prev


def resolve_kernel_threads(explicit: int | None = None) -> int | None:
    """Resolve the kernel thread count (explicit > setting > env > None).

    ``None`` means "let the backend decide" (numba uses all cores).  The
    single-threaded backends ignore the value entirely.
    """
    if explicit is not None:
        return check_count(explicit, "kernel_threads")
    if _KERNEL_THREADS is not None:
        return _KERNEL_THREADS
    env = os.environ.get(KERNEL_THREADS_ENV_VAR)
    if env:
        try:
            value = float(env)
        except ValueError:
            value = env  # not a number: the count rule rejects it by name
        return check_count(value, f"${KERNEL_THREADS_ENV_VAR}")
    return None


class KernelWorkspace:
    """Reusable scratch buffers for one worker thread's kernel calls.

    The buffers grow monotonically to the largest ``(rows, chains)`` tile the
    thread has seen and are sliced per call, so a sweep allocates each vector
    once instead of ~10 fresh arrays per row.  ``bind_tile`` validates the
    diagonal of a tile in one vectorized check (callers never observe a
    partially-updated chain state from a bad tile) and precomputes its
    reciprocal for backends that standardize by multiplication.
    """

    def __init__(self) -> None:
        self._chains = 0
        self._rows = 0
        self.shift = np.empty(0)
        self.lohi = np.empty(0)   # standardized a'/b' rows, adjacent halves
        self.phi = np.empty(0)    # Phi(a') / Phi(b'), adjacent halves
        self.width = np.empty(0)
        self.diag = np.empty(0)
        self.inv_diag = np.empty(0)

    def ensure(self, rows: int, chains: int) -> None:
        """Grow the buffers to cover an ``(rows, chains)`` tile."""
        if chains > self._chains:
            self._chains = chains
            self.shift = np.empty(chains)
            self.lohi = np.empty(2 * chains)
            self.phi = np.empty(2 * chains)
            self.width = np.empty(chains)
        if rows > self._rows:
            self._rows = rows
            self.diag = np.empty(rows)
            self.inv_diag = np.empty(rows)

    def bind_tile(self, l_tile: np.ndarray) -> np.ndarray:
        """Validate the tile diagonal once and cache it (plus its reciprocal).

        Raises ``LinAlgError`` *before* any chain state is touched, replacing
        the reference kernel's mid-sweep per-row check.
        """
        m = l_tile.shape[0]
        self.ensure(m, self._chains or 1)
        diag = self.diag[:m]
        np.copyto(diag, np.diagonal(l_tile))
        if not np.all(diag > 0.0):
            bad = int(np.argmin(diag > 0.0))
            raise np.linalg.LinAlgError(
                f"non-positive diagonal entry L[{bad},{bad}]={diag[bad]} in QMC kernel"
            )
        np.divide(1.0, diag, out=self.inv_diag[:m])
        return diag


@dataclass(frozen=True)
class KernelBackend:
    """A named implementation of the QMC tile row recursion.

    ``run`` has the signature
    ``run(l_tile, r_tile, a_tile, b_tile, p_seg, y_tile, prefix_sum,
    prefix_sumsq, workspace)`` and must update ``p_seg`` / ``y_tile`` (and the
    prefix accumulators when given) in place.  The workspace arrives sized
    (``ensure``) and bound to the tile (``bind_tile``) by the dispatcher
    (:func:`repro.core.qmc_kernel.qmc_kernel_tile`), so backends read
    ``workspace.diag`` / ``workspace.inv_diag`` without re-validating.
    ``bit_identical`` records whether the backend reproduces the reference
    recursion bit for bit.
    """

    name: str
    run: Callable = field(repr=False)
    bit_identical: bool = True


# ---------------------------------------------------------------------------
# reference backend: the original row loop, kept verbatim for parity checks
# and as the benchmark baseline ("the pre-PR kernel")
# ---------------------------------------------------------------------------

def _reference_kernel(l_tile, r_tile, a_tile, b_tile, p_seg, y_tile,
                      prefix_sum, prefix_sumsq, workspace) -> None:
    m = l_tile.shape[0]
    for i in range(m):
        diag = l_tile[i, i]
        if diag <= 0.0:
            raise np.linalg.LinAlgError(
                f"non-positive diagonal entry L[{i},{i}]={diag} in QMC kernel"
            )
        if i:
            shift = l_tile[i, :i] @ y_tile[:i, :]
            ai = (a_tile[i] - shift) / diag
            bi = (b_tile[i] - shift) / diag
        else:
            ai = a_tile[i] / diag
            bi = b_tile[i] / diag
        phi_a = norm_cdf(ai)
        phi_b = norm_cdf(bi)
        width = np.maximum(phi_b - phi_a, 0.0)
        p_seg *= width
        y_tile[i] = norm_ppf(phi_a + r_tile[i] * width)
        if prefix_sum is not None:
            prefix_sum[i] += float(p_seg.sum())
        if prefix_sumsq is not None:
            prefix_sumsq[i] += float(np.dot(p_seg, p_seg))
    return None


# ---------------------------------------------------------------------------
# numpy backend: fused, allocation-free, bit-identical to the reference
# ---------------------------------------------------------------------------

def _numpy_kernel(l_tile, r_tile, a_tile, b_tile, p_seg, y_tile,
                  prefix_sum, prefix_sumsq, workspace) -> None:
    """Fused row recursion writing only into workspace buffers.

    Bit-identity notes (each special case removes work without changing any
    value that reaches an output):

    * ``Phi(-inf)`` is exactly ``+0.0`` and ``Phi(+inf)`` exactly ``1.0``, and
      ``-inf`` / ``+inf`` limits stay infinite under the (finite) GEMM shifts,
      so rows with one-sided limits skip the standardize+CDF of that side;
      ``width - 0.0``, ``max(width, 0.0)`` for ``width = Phi(b') >= 0``, and
      ``phi_a + x`` for ``phi_a = 0`` are all exact no-ops and are dropped.
    * ``x * 1.0 == x`` exactly, so fully unbounded rows copy the uniforms and
      leave ``p_seg`` untouched.
    * the final clip-and-invert goes through ``norm_ppf(..., out=yr)``, whose
      ``out=`` path spells ``np.clip`` as its definition
      ``minimum(maximum(x, lo), hi)`` — cheaper than the ``np.clip`` wrapper,
      identical elementwise.
    * adjacent lo/hi halves of one buffer share single ``divide``/``norm_cdf``
      calls — elementwise ufuncs, so per-element results are unchanged.
    """
    m = l_tile.shape[0]
    c = r_tile.shape[1]
    # the dispatcher has already sized and bound the workspace (ensure +
    # bind_tile); direct callers of this private function must do the same
    diag = workspace.diag[:m]
    shift = workspace.shift[:c]
    width = workspace.width[:c]
    lohi = workspace.lohi
    phi = workspace.phi
    # one bool per row, exact: a row takes a one-sided fast path only when
    # *every* chain's limit is infinite (the row max/min is -inf/+inf).  The
    # PMVN sweep replicates one box limit across the chains of a row, but the
    # kernel is public API and must stay correct for heterogeneous columns —
    # mixed rows fall through to the general path, whose elementwise ops
    # handle infinities exactly like the reference loop.
    lo_inf = np.isneginf(a_tile.max(axis=1)).tolist()
    hi_inf = np.isposinf(b_tile.min(axis=1)).tolist()
    for i in range(m):
        d = diag[i]
        np.dot(l_tile[i, :i], y_tile[:i, :], out=shift)
        yr = y_tile[i]
        if lo_inf[i]:
            if hi_inf[i]:
                # (-inf, +inf): width == 1.0 exactly; p_seg * 1.0 == p_seg
                np.copyto(yr, r_tile[i])
            else:
                # (-inf, b]: Phi(a') == 0.0 exactly
                np.subtract(b_tile[i], shift, out=width)
                np.divide(width, d, out=width)
                norm_cdf(width, out=width)
                p_seg *= width
                np.multiply(r_tile[i], width, out=yr)
        elif hi_inf[i]:
            # [a, +inf): Phi(b') == 1.0 exactly
            lo = lohi[:c]
            phi_a = phi[:c]
            np.subtract(a_tile[i], shift, out=lo)
            np.divide(lo, d, out=lo)
            norm_cdf(lo, out=phi_a)
            np.subtract(1.0, phi_a, out=width)
            p_seg *= width
            np.multiply(r_tile[i], width, out=yr)
            yr += phi_a
        else:
            buf = lohi[: 2 * c]
            pbuf = phi[: 2 * c]
            np.subtract(a_tile[i], shift, out=buf[:c])
            np.subtract(b_tile[i], shift, out=buf[c:])
            np.divide(buf, d, out=buf)
            norm_cdf(buf, out=pbuf)
            phi_a = pbuf[:c]
            np.subtract(pbuf[c:], phi_a, out=width)
            np.maximum(width, 0.0, out=width)
            p_seg *= width
            np.multiply(r_tile[i], width, out=yr)
            yr += phi_a
        norm_ppf(yr, out=yr)
        if prefix_sum is not None:
            prefix_sum[i] += float(p_seg.sum())
        if prefix_sumsq is not None:
            prefix_sumsq[i] += float(np.dot(p_seg, p_seg))
    return None


# ---------------------------------------------------------------------------
# numba backends: scalar recursion, self-contained special functions so the
# whole body compiles under @njit (and stays testable as plain Python)
# ---------------------------------------------------------------------------

_SQRT1_2 = 0.7071067811865476      # 1/sqrt(2)
_INV_SQRT_2PI = 0.3989422804014327  # 1/sqrt(2*pi)
# module-level floats so @njit freezes the same clip bounds the numpy and
# reference backends take from repro.stats.normal
_PPF_LO = PPF_EPS
_PPF_HI = 1.0 - PPF_EPS

try:  # pragma: no cover - exercised only with numba installed
    from numba import prange
except ImportError:
    # plain-Python alias so _numba_parallel_kernel_py stays importable and
    # testable without numba (prange degrades to a sequential range)
    prange = range


def _numba_kernel_py(l_tile, r_tile, a_tile, b_tile, p_seg, y_tile,
                     inv_diag, prefix_sum, prefix_sumsq, do_prefix) -> None:
    """Scalar SOV recursion; every call is ``math.*`` so ``@njit`` compiles it.

    ``Phi`` is ``erfc``-based; ``Phi^{-1}`` starts from the Abramowitz-Stegun
    26.2.23 rational tail approximation (a linear guess in the center) and
    polishes with Halley steps on ``Phi`` — accurate to ~1e-12, which is the
    documented accuracy budget of this (non-bit-identical) backend.
    Standardization multiplies by the precomputed reciprocal diagonal.
    """
    m, c = r_tile.shape
    for i in range(m):
        row_sum = 0.0
        row_sumsq = 0.0
        inv_d = inv_diag[i]
        for k in range(c):
            shift = 0.0
            for j in range(i):
                shift += l_tile[i, j] * y_tile[j, k]
            ai = (a_tile[i, k] - shift) * inv_d
            bi = (b_tile[i, k] - shift) * inv_d
            phi_a = 0.5 * math.erfc(-ai * _SQRT1_2)
            phi_b = 0.5 * math.erfc(-bi * _SQRT1_2)
            width = phi_b - phi_a
            if width < 0.0:
                width = 0.0
            p = p_seg[k] * width
            p_seg[k] = p
            u = phi_a + r_tile[i, k] * width
            if u < _PPF_LO:
                u = _PPF_LO
            elif u > _PPF_HI:
                u = _PPF_HI
            # --- inverse normal CDF (inlined so @njit sees one closed body)
            q = u - 0.5
            if q < -0.425 or q > 0.425:
                r = u if q < 0.0 else 1.0 - u
                t = math.sqrt(-2.0 * math.log(r))
                x = t - (2.515517 + t * (0.802853 + t * 0.010328)) / (
                    1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308))
                )
                if q < 0.0:
                    x = -x
            else:
                x = q * 2.5066282746310002
            for _ in range(4):
                err = 0.5 * math.erfc(-x * _SQRT1_2) - u
                pdf = math.exp(-0.5 * x * x) * _INV_SQRT_2PI
                if pdf <= 0.0:
                    break
                step = err / pdf
                x = x - step / (1.0 + 0.5 * x * step)
            y_tile[i, k] = x
            row_sum += p
            row_sumsq += p * p
        if do_prefix:
            prefix_sum[i] += row_sum
            prefix_sumsq[i] += row_sumsq
    return None


def _numba_parallel_kernel_py(l_tile, r_tile, a_tile, b_tile, p_seg, y_tile,
                              inv_diag, prefix_sum, prefix_sumsq,
                              do_prefix) -> None:
    """Chain-parallel SOV recursion: ``prange`` over the chain dimension.

    Every MC chain ``k`` is an independent row recursion (the shift for row
    ``i`` reads only ``y_tile[:i, k]`` of the *same* chain), so the outer
    ``prange`` splits the chains across threads with no synchronization
    inside the tile — and no floating-point reassociation, so per-chain
    results are bit-identical to the serial :func:`_numba_kernel_py` at any
    thread count.  The prefix accumulators are the only cross-chain state;
    they are staged into a per-(row, chain) scratch inside the parallel
    region and reduced afterwards in ascending chain order, matching the
    serial backend's summation order exactly.
    """
    m, c = r_tile.shape
    if do_prefix:
        pp = np.empty((m, c))
    else:
        pp = np.empty((0, 0))
    for k in prange(c):
        for i in range(m):
            shift = 0.0
            for j in range(i):
                shift += l_tile[i, j] * y_tile[j, k]
            inv_d = inv_diag[i]
            ai = (a_tile[i, k] - shift) * inv_d
            bi = (b_tile[i, k] - shift) * inv_d
            phi_a = 0.5 * math.erfc(-ai * _SQRT1_2)
            phi_b = 0.5 * math.erfc(-bi * _SQRT1_2)
            width = phi_b - phi_a
            if width < 0.0:
                width = 0.0
            p = p_seg[k] * width
            p_seg[k] = p
            if do_prefix:
                pp[i, k] = p
            u = phi_a + r_tile[i, k] * width
            if u < _PPF_LO:
                u = _PPF_LO
            elif u > _PPF_HI:
                u = _PPF_HI
            q = u - 0.5
            if q < -0.425 or q > 0.425:
                r = u if q < 0.0 else 1.0 - u
                t = math.sqrt(-2.0 * math.log(r))
                x = t - (2.515517 + t * (0.802853 + t * 0.010328)) / (
                    1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308))
                )
                if q < 0.0:
                    x = -x
            else:
                x = q * 2.5066282746310002
            for _ in range(4):
                err = 0.5 * math.erfc(-x * _SQRT1_2) - u
                pdf = math.exp(-0.5 * x * x) * _INV_SQRT_2PI
                if pdf <= 0.0:
                    break
                step = err / pdf
                x = x - step / (1.0 + 0.5 * x * step)
            y_tile[i, k] = x
    if do_prefix:
        for i in range(m):
            row_sum = 0.0
            row_sumsq = 0.0
            for k in range(c):
                p = pp[i, k]
                row_sum += p
                row_sumsq += p * p
            prefix_sum[i] += row_sum
            prefix_sumsq[i] += row_sumsq
    return None


def _make_numba_run(compiled) -> Callable:
    def run(l_tile, r_tile, a_tile, b_tile, p_seg, y_tile,
            prefix_sum, prefix_sumsq, workspace) -> None:
        m = l_tile.shape[0]
        # the dispatcher has already bound the workspace (inv_diag is valid)
        do_prefix = prefix_sum is not None or prefix_sumsq is not None
        compiled(
            np.ascontiguousarray(l_tile), r_tile, a_tile, b_tile, p_seg, y_tile,
            workspace.inv_diag[:m],
            prefix_sum if prefix_sum is not None else np.zeros(m),
            prefix_sumsq if prefix_sumsq is not None else np.zeros(m),
            do_prefix,
        )
    return run


def _make_numba_parallel_run(compiled, numba_mod) -> Callable:
    def run(l_tile, r_tile, a_tile, b_tile, p_seg, y_tile,
            prefix_sum, prefix_sumsq, workspace) -> None:
        m = l_tile.shape[0]
        threads = resolve_kernel_threads()
        if threads is not None:
            numba_mod.set_num_threads(
                max(1, min(threads, numba_mod.config.NUMBA_NUM_THREADS))
            )
        do_prefix = prefix_sum is not None or prefix_sumsq is not None
        compiled(
            np.ascontiguousarray(l_tile), r_tile, a_tile, b_tile, p_seg, y_tile,
            workspace.inv_diag[:m],
            prefix_sum if prefix_sum is not None else np.zeros(m),
            prefix_sumsq if prefix_sumsq is not None else np.zeros(m),
            do_prefix,
        )
    return run


def _build_numba_backend() -> KernelBackend | None:
    try:
        import numba
    except ImportError:
        return None
    compiled = numba.njit(nogil=True, cache=False)(_numba_kernel_py)
    return KernelBackend(name="numba", run=_make_numba_run(compiled), bit_identical=False)


def _build_numba_parallel_backend() -> KernelBackend | None:
    try:
        import numba
    except ImportError:
        return None
    try:
        compiled = numba.njit(nogil=True, cache=False, parallel=True)(
            _numba_parallel_kernel_py
        )
    except Exception:  # pragma: no cover - e.g. no threading layer available
        return None
    return KernelBackend(
        name="numba-parallel",
        run=_make_numba_parallel_run(compiled, numba),
        bit_identical=False,
    )


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, KernelBackend] = {
    "reference": KernelBackend(name="reference", run=_reference_kernel),
    "numpy": KernelBackend(name="numpy", run=_numpy_kernel),
}

_NUMBA_PROBED = False
_FALLBACK_WARNED = False


def register_backend(backend: KernelBackend) -> None:
    """Add (or replace) a named kernel backend."""
    if not isinstance(backend, KernelBackend):
        raise TypeError(f"backend must be a KernelBackend, got {type(backend).__name__}")
    _REGISTRY[backend.name] = backend


def _probe_numba() -> None:
    global _NUMBA_PROBED
    if _NUMBA_PROBED:
        return
    _NUMBA_PROBED = True
    for build in (_build_numba_backend, _build_numba_parallel_backend):
        built = build()
        if built is not None:
            _REGISTRY[built.name] = built


def available_backends() -> list[str]:
    """Names of the backends usable in this environment (sorted)."""
    _probe_numba()
    return sorted(_REGISTRY)


def resolve_backend_name(name: str | None, *, require_available: bool = False) -> str:
    """Canonicalize a requested backend name and reject unknown ones early.

    ``None`` falls back to ``$REPRO_KERNEL_BACKEND`` and then to
    ``"numpy"``; ``"auto"`` is kept symbolic (resolved by
    :func:`get_backend`).  A name that is neither registered nor a known
    optional backend raises ``ValueError`` listing
    :func:`available_backends` — whether it came from an argument,
    ``SolverConfig``, or the environment variable — so typos surface at
    configuration time instead of deep inside a sweep.  The numba names
    keep their graceful fallback unless ``require_available`` is set.
    """
    from_env = False
    if name is None:
        env = os.environ.get(BACKEND_ENV_VAR)
        from_env = bool(env)
        name = env or DEFAULT_BACKEND
    name = str(name).lower()
    if name != "auto" and name not in (*_OPTIONAL_BACKENDS, *_REGISTRY):
        known = ", ".join(sorted({"auto", *_OPTIONAL_BACKENDS, *_REGISTRY}))
        source = f" (from ${BACKEND_ENV_VAR})" if from_env else ""
        raise ValueError(
            f"unknown kernel backend {name!r}{source}; known names: {known}; "
            f"available on this install: {', '.join(available_backends())}"
        )
    if require_available and name in _OPTIONAL_BACKENDS:
        if name not in available_backends():
            source = f" (from ${BACKEND_ENV_VAR})" if from_env else ""
            raise ValueError(
                f"kernel backend {name!r}{source} is not available on this "
                f"install; available: {', '.join(available_backends())}"
            )
    return name


def get_backend(name: str | None = None) -> KernelBackend:
    """Resolve a backend name (see module docstring for precedence rules).

    ``"auto"`` prefers the fastest available CPU backend
    (``numba-parallel`` > ``numba`` > ``numpy``); asking for a numba backend
    when numba is missing falls back down the same chain with a one-time
    warning instead of failing — kernels must keep working on minimal
    installs.
    """
    global _FALLBACK_WARNED
    name = resolve_backend_name(name)
    if name in ("auto", "numba", "numba-parallel"):
        _probe_numba()
        if name == "auto":
            for candidate in ("numba-parallel", "numba"):
                if candidate in _REGISTRY:
                    return _REGISTRY[candidate]
            return _REGISTRY["numpy"]
        if name in _REGISTRY:
            return _REGISTRY[name]
        # fallback chain: numba-parallel -> numba -> numpy (whatever exists)
        fallback = _REGISTRY.get("numba", _REGISTRY["numpy"])
        if not _FALLBACK_WARNED:
            _FALLBACK_WARNED = True
            warnings.warn(
                f"kernel backend {name!r} requested but numba is not installed; "
                f"falling back to the {fallback.name!r} backend",
                RuntimeWarning,
                stacklevel=2,
            )
        return fallback
    return _REGISTRY[name]
