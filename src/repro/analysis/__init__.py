"""Analysis layer: comparisons, ablations, reliability, report generation."""

from repro.analysis.comparison import (
    ComparisonRow,
    comparison_base2,
    comparison_basem,
    se_comparison,
)
from repro.analysis.reliability import (
    bare_survival_probability,
    expected_faults_to_failure,
    monte_carlo_survival,
    reliability_table,
    survival_probability,
)
from repro.analysis.spares import (
    SpareSearchResult,
    WindowResult,
    extra_spare_search,
    generalized_ft_graph,
    window_necessity,
)
from repro.analysis.degree_profile import (
    DegreeProfile,
    bound_attainment_frontier,
    degree_profile,
)
from repro.analysis.dilation import DilationProfile, dilation_profile
from repro.analysis.reporting import (
    Report,
    all_experiment_ids,
    run_experiment,
)
from repro.reports.tables import format_table

__all__ = [
    "ComparisonRow",
    "comparison_base2",
    "comparison_basem",
    "se_comparison",
    "bare_survival_probability",
    "expected_faults_to_failure",
    "monte_carlo_survival",
    "reliability_table",
    "survival_probability",
    "SpareSearchResult",
    "WindowResult",
    "extra_spare_search",
    "generalized_ft_graph",
    "window_necessity",
    "Report",
    "all_experiment_ids",
    "format_table",
    "run_experiment",
    "DilationProfile",
    "dilation_profile",
    "DegreeProfile",
    "degree_profile",
    "bound_attainment_frontier",
]
