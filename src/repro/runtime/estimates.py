"""Information modes: what a scheduler knows about task durations.

Scheduler surveys (estee being the canonical one) show that a policy's
ranking depends heavily on its *information mode* — whether the scheduler
sees exact task durations, model-based estimates, or nothing at all.  The
runtime makes that axis explicit: every scheduler carries a
:class:`TaskEstimator`, and duration-aware policies (``blevel``) consult it
instead of reading ``Task.cost`` directly.

Three modes are provided:

``"exact"`` — :class:`ExactEstimator`
    Trust ``Task.cost`` (seconds).  This is the mode of the simulator-driven
    benchmarks, where symbolic graphs carry known costs, and the optimistic
    upper bound for real executions.

``"estimated"`` — :class:`ModelEstimator`
    Predict per-task durations from the task *tag* (``potrf``, ``trsm``,
    ``syrk``, ``gemm``, ``qmc``, ``sweep_gemm`` and their rank-``k``
    counterparts) with the closed-form kernel models of
    :mod:`repro.perf.models`, anchored either to analytic default
    rates or to a measured :class:`repro.perf.calibration.CalibrationResult`.
    This is what a production scheduler actually has before running a task.

``"blind"`` — :class:`BlindEstimator`
    Unit cost per task; reduces ``blevel`` to plain graph depth.
"""

from __future__ import annotations

from repro.runtime.task import Task

__all__ = [
    "INFORMATION_MODES",
    "TaskEstimator",
    "ExactEstimator",
    "ModelEstimator",
    "BlindEstimator",
    "make_estimator",
]

#: the recognized information modes, in decreasing order of knowledge
INFORMATION_MODES = ("exact", "estimated", "blind")

#: duration assumed for a task the mode has no information about (seconds);
#: only the *relative* magnitudes matter to the priority policies
_FALLBACK_SECONDS = 1e-3


class TaskEstimator:
    """Base class: predicts the duration (seconds) of a not-yet-run task."""

    #: the information mode this estimator implements
    mode: str = "base"

    def duration(self, task: Task) -> float:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(mode={self.mode!r})"


class ExactEstimator(TaskEstimator):
    """Exact durations: trust ``Task.cost`` (falls back when unset)."""

    mode = "exact"

    def duration(self, task: Task) -> float:
        return task.cost if task.cost > 0.0 else _FALLBACK_SECONDS


class BlindEstimator(TaskEstimator):
    """No duration information: every task counts one unit."""

    mode = "blind"

    def duration(self, task: Task) -> float:
        return 1.0


class ModelEstimator(TaskEstimator):
    """Model-based estimates from the calibrated kernel rates.

    Parameters
    ----------
    rates : repro.distributed.pmvn_model.KernelRates, optional
        Per-core kernel rates; defaults to the analytic defaults.  Build one
        from a measured calibration with
        ``KernelRates.from_calibration(calibrate())`` to anchor the
        estimates to the local machine.
    tile_size, chain_block : int
        Tile/chain-block extents assumed by the per-tag cost formulas.
    mean_rank : float
        Mean off-diagonal rank assumed for TLR-tagged kernels.

    Notes
    -----
    The estimator never reads ``Task.cost`` — it predicts from the task tag
    alone, exactly the situation of a scheduler placing a task it has not
    run yet.  Unknown tags get a small constant fallback.
    """

    mode = "estimated"

    def __init__(
        self,
        rates=None,
        tile_size: int = 128,
        chain_block: int = 256,
        mean_rank: float = 12.0,
    ) -> None:
        if rates is None:
            from repro.distributed.pmvn_model import KernelRates

            rates = KernelRates()
        if tile_size < 1 or chain_block < 1:
            raise ValueError("tile_size and chain_block must be >= 1")
        self.rates = rates
        self.tile_size = int(tile_size)
        self.chain_block = int(chain_block)
        self.mean_rank = float(mean_rank)
        from repro.tlr.compression import QB_BLOCK

        nb, cb, k = self.tile_size, self.chain_block, max(int(self.mean_rank), 1)
        self._by_tag = {
            "potrf": rates.potrf_seconds(nb),
            "trsm": rates.trsm_seconds(nb, nb),
            "syrk": rates.gemm_seconds(nb, nb, nb),
            "gemm": rates.gemm_seconds(nb, nb, nb),
            "qmc": rates.qmc_seconds(nb, cb),
            "sweep_gemm": rates.gemm_seconds(nb, cb, nb),
            # the rank-k counterparts of a TLR factorization and sweep, and
            # the sketch that compresses one tile (rank plus one QB block)
            "compress": 2.0 * rates.gemm_seconds(nb, nb, k + QB_BLOCK),
            "lr_trsm": rates.gemm_seconds(nb, k, nb),
            "lr_syrk": rates.gemm_seconds(nb, nb, k) + rates.gemm_seconds(nb, k, k),
            "lr_gemm": 3.0 * rates.gemm_seconds(nb, k, k),
            "lr_sweep_gemm": 2.0 * rates.gemm_seconds(nb, cb, k),
        }

    @classmethod
    def from_calibration(cls, calibration, cores_used: int = 1, **kwargs) -> "ModelEstimator":
        """Anchor the per-tag estimates to a measured local calibration."""
        from repro.distributed.pmvn_model import KernelRates

        return cls(rates=KernelRates.from_calibration(calibration, cores_used), **kwargs)

    def price(self, tag: str) -> float:
        """Predicted seconds of one task tagged ``tag``."""
        return self._by_tag.get(tag, _FALLBACK_SECONDS)

    def duration(self, task: Task) -> float:
        return self.price(task.tag)


def make_estimator(mode: str = "exact", calibration=None, **kwargs) -> TaskEstimator:
    """Factory mapping an information-mode name to an estimator.

    Parameters
    ----------
    mode : {"exact", "estimated", "blind"}
        Information mode (see the module docstring).
    calibration : repro.perf.calibration.CalibrationResult, optional
        Only meaningful for ``"estimated"``: anchor the cost model to
        measured local kernel rates.
    **kwargs
        Extra :class:`ModelEstimator` parameters (``tile_size``,
        ``chain_block``, ``mean_rank``) for the ``"estimated"`` mode.
    """
    mode = str(mode).lower()
    if mode == "exact":
        return ExactEstimator()
    if mode == "blind":
        return BlindEstimator()
    if mode == "estimated":
        if calibration is not None:
            return ModelEstimator.from_calibration(calibration, **kwargs)
        return ModelEstimator(**kwargs)
    raise ValueError(
        f"unknown information mode {mode!r}; expected one of {INFORMATION_MODES}"
    )
