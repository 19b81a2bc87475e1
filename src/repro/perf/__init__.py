"""Performance modelling: machine specs, kernel calibration, cost models.

The paper's quantitative evaluation spans four shared-memory architectures
and a Cray XC40.  None of that hardware is available to the reproduction, so
this subpackage provides the layer that maps measured single-node Python/BLAS
kernel rates onto modelled architectures and cluster sizes:

* :mod:`repro.perf.machines` — named machine specifications matching the
  paper's testbeds (core counts, clock, per-core flop rates).
* :mod:`repro.perf.calibration` — micro-benchmarks measuring the local GEMM,
  POTRF and QMC-kernel rates that anchor the models (``repro calibrate``).
* :mod:`repro.perf.models` — closed-form cost models of the dense and TLR
  PMVN phases (Cholesky + integration sweep) used by the distributed
  simulator and the Figure 4 / Table II / Figure 7 benches.

The package ships no benchmark harness: the measured perf gates live one
file each under ``benchmarks/`` and append their records to
``BENCH_history.jsonl``.
"""

from repro.perf.machines import MachineSpec, MACHINES, get_machine
from repro.perf.calibration import CalibrationResult, calibrate
from repro.perf.models import PMVNCostModel, sweep_flops

__all__ = [
    "MachineSpec",
    "MACHINES",
    "get_machine",
    "CalibrationResult",
    "calibrate",
    "PMVNCostModel",
    "sweep_flops",
]
