"""Workload ``crd_tlr``: the paper's job, TLR confidence-region detection.

One caller runs :meth:`repro.Model.confidence_region` (Algorithm 1, prefix
sweep) with ``method="tlr"`` at accuracy 1e-3 and N = 1000 QMC samples on
a fixed n = 1024 (32 x 32) exponential field at the paper's strong range
0.234.  Every op binds a distinct seeded smooth mean, so every op reorders
the field, hashes the reordered correlation matrix and TLR-factorizes it
afresh.

Why: it is the paper's headline job, and the only workload with TLR
compression and Cholesky on the critical path.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro import MVNSolver, SolverConfig
from repro.kernels import ExponentialKernel, Geometry, build_covariance

GRID = 32
RANGE = 0.234
NUGGET = 1e-6
N_SAMPLES = 1000
ACCURACY = 1e-3
#: runtime workers: with two, the GIL handoffs between them doubled the
#: run-to-run spread on a 2-core VM (interquartile range 19% against 10% of
#: the median, runs interleaved) and made each detection 8% slower
WORKERS = 1
THRESHOLD = 0.0
ALPHA = 0.1
#: ops per second of ``--seconds`` on a 2-core x86 box (fixes the op count)
NOMINAL_OPS_PER_S = 1.6
WARMUP_OPS = 2
#: every CHECK_EVERY-th timed op is compared with a dense reference
CHECK_EVERY = 16
REF_SAMPLES = 4000
#: allowed prefix deviation from the reference, in combined reported errors,
#: plus an absolute allowance for the bias of TLR truncation at ACCURACY
REF_Z = 8.0
REF_ABS = 10 * ACCURACY


def smooth_mean(locations: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A few Gaussian bumps above a mildly sloped background."""
    centers = rng.uniform(0.15, 0.85, size=(3, 2))
    heights = rng.uniform(2.0, 3.5, size=3)
    width = rng.uniform(0.07, 0.11)
    dist2 = ((locations[:, None, :] - centers[None, :, :]) ** 2).sum(axis=-1)
    slope = rng.normal(0.0, 0.3, size=2)
    return (heights * np.exp(-dist2 / (2 * width**2))).sum(axis=1) - 1.0 + locations @ slope


class Workload:
    name = "crd_tlr"

    def __init__(self, seed: int, n_timed: int) -> None:
        self.seed = seed
        self.n_warmup = WARMUP_OPS
        self.n_timed = n_timed
        self.solver = None
        #: largest share of its allowance a reference comparison used
        self.worst_share = 0.0

    @staticmethod
    def timed_ops(seconds: float) -> int:
        return max(4, round(seconds * NOMINAL_OPS_PER_S))

    def inputs(self) -> None:
        locations = Geometry.regular_grid(GRID, GRID).locations
        self.sigma = build_covariance(ExponentialKernel(1.0, RANGE), locations, nugget=NUGGET)
        self.means = [smooth_mean(locations, np.random.default_rng([self.seed, op]))
                      for op in range(self.n_warmup + self.n_timed)]

    def setup(self) -> None:
        self.solver = MVNSolver(
            SolverConfig(method="tlr", n_samples=N_SAMPLES, accuracy=ACCURACY), n_workers=WORKERS
        )

    def op(self, index: int):
        model = self.solver.model(self.sigma, mean=self.means[index])
        result = model.confidence_region(THRESHOLD, rng=self.seed * 1000 + index)
        return {
            "cf": result.confidence_function,
            "pm": result.marginal_probabilities,
            "order": result.order,
            "prob": result.details["prefix_probabilities"],
            "err": result.details["prefix_errors"],
        }

    def teardown(self) -> None:
        if self.solver is not None:
            self.solver.close()

    # -- checks (off the clock) --------------------------------------------------------
    def check(self, index: int, out) -> str | None:
        cf, pm, order, err = out["cf"], out["pm"], out["order"], out["err"]
        if not np.all(np.isfinite(cf)) or cf.min() < 0.0 or cf.max() > 1.0:
            return "confidence function outside [0, 1]"
        if np.any(np.diff(cf[order]) > 1e-12):
            return "confidence function increases along the order"
        # the joint exceedance of a prefix never beats its last marginal;
        # the estimate may, by its own sampling error
        inside = cf >= 1.0 - ALPHA
        slack = np.empty_like(cf)
        slack[order] = 4.0 * err
        if np.any(inside & (pm < 1.0 - ALPHA - slack)):
            return "confidence region leaves the marginal region"
        return None

    @staticmethod
    def corrupt(out) -> None:
        """Self-test hook: shift one detection's prefix probabilities."""
        out["prob"] = out["prob"] + 0.1

    def reference_ops(self) -> list[int]:
        return list(range(self.n_warmup, self.n_warmup + self.n_timed, CHECK_EVERY))

    def check_reference(self, index: int, out) -> str | None:
        config = SolverConfig(method="dense", n_samples=REF_SAMPLES)
        with MVNSolver(config, n_workers=WORKERS) as solver:
            model = solver.model(self.sigma, mean=self.means[index])
            ref = model.confidence_region(THRESHOLD, rng=10**6 + index)
        if not np.array_equal(ref.order, out["order"]):
            return "reference ordering differs"
        ref_prob = ref.details["prefix_probabilities"]
        ref_err = ref.details["prefix_errors"]
        gap = np.abs(out["prob"] - ref_prob)
        allowed = REF_Z * np.hypot(out["err"], ref_err) + REF_ABS
        share = gap / allowed
        worst = int(np.argmax(share))
        self.worst_share = max(self.worst_share, float(share[worst]))
        if share[worst] > 1.0:
            return (f"prefix {worst + 1}: |{out['prob'][worst]:.4g} - {ref_prob[worst]:.4g}| "
                    f"> {allowed[worst]:.3g}")
        return None

    def digest(self, outputs: dict) -> str:
        digest = hashlib.sha256()
        for index in sorted(outputs):
            digest.update(np.ascontiguousarray(outputs[index]["cf"]).tobytes())
        return digest.hexdigest()

    def summary(self, outputs: dict) -> dict:
        sizes = [int(np.count_nonzero(out["cf"] >= 1.0 - ALPHA)) for out in outputs.values()]
        return {"region_cells_min": min(sizes, default=0), "region_cells_max": max(sizes, default=0),
                "ref_worst_share": self.worst_share}
