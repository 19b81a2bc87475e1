"""repro: parallel approximations for high-dimensional multivariate normal
probability computation in confidence region detection applications.

A from-scratch Python reproduction of the IPDPS 2024 paper by Zhang,
Abdulah, Cao, Ltaief, Sun, Genton and Keyes.  The package provides:

* a task-based runtime (:mod:`repro.runtime`) standing in for StarPU,
* dense tile linear algebra (:mod:`repro.tile`) standing in for Chameleon,
* Tile Low-Rank algebra (:mod:`repro.tlr`) standing in for HiCMA,
* the statistical substrate (:mod:`repro.kernels`, :mod:`repro.stats`,
  :mod:`repro.fields`),
* the paper's contribution — parallel SOV/PMVN and confidence region
  detection (:mod:`repro.core`, :mod:`repro.excursion`),
* the session-oriented solver front door — config + runtime + factor cache
  bound into long-lived ``MVNSolver`` / ``Model`` objects
  (:mod:`repro.solver`),
* the declarative query layer — validated ``MVNQuery`` specs, the
  cost-model planner behind ``method="auto"``, and adaptive accuracy
  targeting (:mod:`repro.query`),
* batched many-query evaluation with a factorization cache
  (:mod:`repro.batch`),
* concurrent query serving — a micro-batching ``QueryBroker`` over sharded
  warm solvers (:mod:`repro.serve`),
* datasets, a simulated distributed-memory cluster and the performance
  models behind the Table II/III and Figure 4/7 extrapolations
  (:mod:`repro.datasets`, :mod:`repro.distributed`, :mod:`repro.perf`).

The measured perf gates are not part of the package: each is one
``benchmarks/bench_*.py`` file that appends its record to
``BENCH_history.jsonl``.

Quick start
-----------
The session API is the canonical entry point: an :class:`MVNSolver` owns
the runtime and the factor cache, and a :class:`Model` binds a covariance
to a (lazily) pre-factorized representation shared by all its queries:

>>> import numpy as np
>>> from repro import MVNSolver, SolverConfig
>>> sigma = np.array([[1.0, 0.5], [0.5, 1.0]])
>>> with MVNSolver(SolverConfig(method="dense", n_samples=2000)) as solver:
...     model = solver.model(sigma)
...     result = model.probability([-np.inf, -np.inf], [0.0, 0.0], rng=0)
>>> abs(result.probability - 1/3) < 0.02
True

One-shot calls can use the functional wrappers (same results, rebuilt
machinery per call):

>>> from repro import mvn_probability
>>> result = mvn_probability([-np.inf, -np.inf], [0.0, 0.0], sigma,
...                          method="sov", n_samples=2000, rng=0)
>>> abs(result.probability - 1/3) < 0.02
True

``method="auto"`` delegates the estimator choice to the query planner and
``target_error=`` escalates the sample count until the standard error meets
the target (the decision trail lands in ``details["plan"]``):

>>> result = mvn_probability([-np.inf, -np.inf], [0.0, 0.0], sigma,
...                          method="auto", n_samples=500, rng=0,
...                          target_error=2e-3)
>>> result.details["plan"]["method"]
'dense'
>>> result.error <= 2e-3
True

Many boxes against one covariance, factorized once:

>>> from repro import mvn_probability_batch
>>> boxes = [([-np.inf, -np.inf], [0.0, 0.0]),
...          ([-np.inf, -np.inf], [1.0, 1.0])]
>>> results = mvn_probability_batch(boxes, sigma, method="dense",
...                                 n_samples=500, rng=0)
>>> results[0].probability < results[1].probability
True
"""

from repro.core.api import mvn_probability, mvn_probability_batch
from repro.core.crd import ConfidenceRegionResult, confidence_region, confidence_region_from_posterior
from repro.core.pmvn import pmvn_integrate, pmvn_integrate_batch, PMVNOptions
from repro.core.factor import factorize
from repro.core.update import DowndateError, FactorLineage, lineage_fingerprint, update_factor
from repro.batch import FactorCache
from repro.mvn import MVNResult, mvn_mc, mvn_sov, mvn_sov_vectorized
from repro.query import MVNQuery, QueryPlan, QueryPlanner, plan_query
from repro.runtime import Runtime
from repro.serve import QueryBroker, ServeConfig
from repro.solver import Model, MVNSolver, SolverConfig

__version__ = "1.4.0"

__all__ = [
    "MVNSolver",
    "Model",
    "SolverConfig",
    "MVNQuery",
    "QueryPlan",
    "QueryPlanner",
    "plan_query",
    "QueryBroker",
    "ServeConfig",
    "mvn_probability",
    "mvn_probability_batch",
    "FactorCache",
    "ConfidenceRegionResult",
    "confidence_region",
    "confidence_region_from_posterior",
    "pmvn_integrate",
    "pmvn_integrate_batch",
    "PMVNOptions",
    "factorize",
    "DowndateError",
    "FactorLineage",
    "lineage_fingerprint",
    "update_factor",
    "MVNResult",
    "mvn_mc",
    "mvn_sov",
    "mvn_sov_vectorized",
    "Runtime",
    "__version__",
]
