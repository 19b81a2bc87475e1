"""Workload ``update_stream``: rank-k covariance updates beside queries.

One caller holds a dense n = 1024 root model, factorized at set-up.  Each
op is a rank-4 :meth:`repro.Model.update` -- alternately an up-date and the
down-date that undoes it -- followed by one single-box
:meth:`~repro.Model.probability` with N = 256 on the child.  Chains have a
fixed depth and then restart from the root.

Why: it is the only workload with writes beside reads, the only one on the
single-query path (``Model.query``), and it exposes retained memory: every
child keeps its parent's factor alive through its lazy-covariance closure.
"""

from __future__ import annotations

import hashlib

import numpy as np

from common import current_rss_mb
from repro import MVNSolver, SolverConfig
from repro.kernels import ExponentialKernel, Geometry, build_covariance

GRID = 32
RANGE = 0.1
NUGGET = 1e-6
N_SAMPLES = 256
RANK = 4
UPDATE_SCALE = 0.05
#: steps per chain before restarting from the root (even: every chain ends
#: on the down-date that closes its last pair)
DEPTH = 8
LEVEL = 2.8
NOMINAL_OPS_PER_S = 11.0
WARMUP_OPS = DEPTH
#: drift budget of a checked step against its reference, as a share of the
#: reference estimate's own standard error: the two share their box and QMC
#: seed, so only the factor's rounding separates them (about 1e-13 of the
#: error today), while a lost update moves the answer by about one error
DRIFT_SHARE = 0.05


class Workload:
    name = "update_stream"

    def __init__(self, seed: int, n_timed: int) -> None:
        self.seed = seed
        self.n_warmup = WARMUP_OPS
        self.n_timed = n_timed
        self.solver = None
        #: resident-set growth per step of each chain, in MB
        self.rss_steps: list[float] = []
        #: largest share of the drift budget a checked step used
        self.worst_share = 0.0

    @staticmethod
    def timed_ops(seconds: float) -> int:
        ops = max(2 * DEPTH, round(seconds * NOMINAL_OPS_PER_S))
        return ops - ops % DEPTH

    def inputs(self) -> None:
        locations = Geometry.regular_grid(GRID, GRID).locations
        self.sigma = build_covariance(ExponentialKernel(1.0, RANGE), locations, nugget=NUGGET)
        n = self.sigma.shape[0]
        total = self.n_warmup + self.n_timed
        rng = np.random.default_rng([self.seed, 1])
        self.updates = [UPDATE_SCALE * rng.standard_normal((n, RANK)) for _ in range(total // 2 + 1)]
        self.uppers = [LEVEL + 0.2 * rng.standard_normal(n) for _ in range(total)]
        self.lower = np.full(n, -np.inf)

    def setup(self) -> None:
        self.solver = MVNSolver(SolverConfig(method="dense", n_samples=N_SAMPLES))
        self.root = self.solver.model(self.sigma)
        self.root.factorize()
        self.model = self.root
        self.chain_rss = None

    def op(self, index: int):
        step = index % DEPTH
        if step == 0:
            self.model = self.root
            self.chain_rss = current_rss_mb()
        self.model = self.model.update(self.updates[index // 2], downdate=bool(step % 2))
        result = self.model.probability(self.lower, self.uppers[index], rng=self.seed + index)
        if step == DEPTH - 1:
            self.rss_steps.append((current_rss_mb() - self.chain_rss) / DEPTH)
        return {"p": result.probability, "err": result.error}

    def teardown(self) -> None:
        self.model = self.root = None
        if self.solver is not None:
            self.solver.close()

    # -- checks (off the clock) --------------------------------------------------------
    def check(self, index: int, out) -> str | None:
        if not (np.isfinite(out["p"]) and 0.0 <= out["p"] <= 1.0 and out["err"] >= 0.0):
            return f"probability {out['p']!r} +/- {out['err']!r} is not a probability estimate"
        return None

    @staticmethod
    def corrupt(out) -> None:
        """Self-test hook: a one-sigma shift, the size of a lost update."""
        out["p"] += out["err"]

    def reference_ops(self) -> list[int]:
        """Per timed chain: its deepest up-date and the down-date closing it."""
        ends = range(self.n_warmup + DEPTH, self.n_warmup + self.n_timed + 1, DEPTH)
        return [index for end in ends for index in (end - 2, end - 1)]

    def check_reference(self, index: int, out) -> str | None:
        box = (self.lower, self.uppers[index])
        if index % 2:  # a closing down-date: the covariance is the root's again
            label = "closing down-date vs root"
            ref = self.root.probability(*box, rng=self.seed + index)
        else:  # an up-date: a fresh dense model of sigma + U U^T
            label = "up-date vs fresh model"
            u = self.updates[index // 2]
            with MVNSolver(SolverConfig(method="dense", n_samples=N_SAMPLES)) as solver:
                ref = solver.model(self.sigma + u @ u.T).probability(*box, rng=self.seed + index)
        drift = abs(out["p"] - ref.probability)
        share = drift / (DRIFT_SHARE * ref.error) if ref.error > 0 else float(drift > 0)
        self.worst_share = max(self.worst_share, share)
        if share > 1.0:
            return f"{label}: {out['p']:.6g} vs {ref.probability:.6g} (err {ref.error:.2g})"
        return None

    def digest(self, outputs: dict) -> str:
        digest = hashlib.sha256()
        for index in sorted(outputs):
            digest.update(np.array([outputs[index]["p"], outputs[index]["err"]]).tobytes())
        return digest.hexdigest()

    def summary(self, outputs: dict) -> dict:
        probs = [out["p"] for out in outputs.values()]
        return {"p_min": min(probs, default=0.0), "p_max": max(probs, default=0.0),
                "drift_worst_share": self.worst_share,
                # the first chain runs on fresh pages; later chains recycle
                # the memory the previous chain released
                "retained_mb_per_step": self.rss_steps[0] if self.rss_steps else 0.0}
