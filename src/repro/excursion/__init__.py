"""Excursion-set (confidence region) application layer.

Builds on :mod:`repro.core` to provide the application-level outputs the
paper reports: marginal probability maps, excursion maps, the Monte Carlo
validation of detected regions (the ``1 - alpha - p_hat(alpha)`` curves of
Figure 1), and dense-vs-TLR comparison utilities (Figures 1 right column
and 3).
"""

from repro.excursion.maps import (
    excursion_map,
    marginal_probability_map,
    region_overlap,
)
from repro.excursion.sets import (
    ExcursionAnalysis,
    excursion_analysis,
    excursion_threshold_sweep,
    negative_confidence_region,
)
from repro.excursion.validation import (
    MCValidationResult,
    mc_validate_regions,
    compare_confidence_functions,
)

__all__ = [
    "excursion_map",
    "marginal_probability_map",
    "region_overlap",
    "ExcursionAnalysis",
    "excursion_analysis",
    "excursion_threshold_sweep",
    "negative_confidence_region",
    "MCValidationResult",
    "mc_validate_regions",
    "compare_confidence_functions",
]
