"""Field-normalised citation indicator with ratio confidence intervals.

The indicator divides a group's mean log-transformed citation count by the
same mean over the whole journal-year, so 1.0 is the field average. The
package computes it with Fieller-type 95% confidence intervals, estimates
the no-change coverage baseline by split-half resampling, runs the temporal
stability experiment (how often later values fall inside earlier intervals),
and generates synthetic citation data under a latent-capability model to
validate all of it.
"""

__version__ = "0.1.0"

from .bootstrap import (
    Lag0Result,
    coverage_probability_sim,
    lag0_batch,
    lag0_coverage,
)
from .counting import RankedCountries, select_group, top_countries
from .dataio import ingest, write_records_csv
from .errors import (
    DegenerateField,
    DomainError,
    IngestError,
    InsufficientData,
    MalformedCountry,
    MnlcsError,
    NegativeCitations,
    NoValidReplicates,
    UnparseableYear,
    ValidationError,
)
from .experiment import ExperimentConfig, ExperimentResult, run_experiment
from .fieller import CiSettings, estimate, t_quantile
from .indicator import log_stats, log_stats_from_logs, mnlcs
from .model import (
    CitationRecord,
    Cohort,
    EstimateStatus,
    GroupSelection,
    LogStats,
    MnlcsEstimate,
    Scheme,
    validate_record,
)
from .stability import (
    CellGrid,
    CellResult,
    CoverageCurve,
    CurvePoint,
    ExclusionRecord,
    SeriesPoint,
    compute_cells,
    coverage_curve,
    lag0_curve_points,
    series_report,
    whole_journal_estimate,
)
from .synth import (
    GroupSpec,
    IndependentResample,
    LinearDrift,
    RandomWalk,
    ScenarioSpec,
    Static,
    generate,
    sample_citations,
)

__all__ = [
    "CellGrid",
    "CellResult",
    "CiSettings",
    "CitationRecord",
    "Cohort",
    "CoverageCurve",
    "CurvePoint",
    "DegenerateField",
    "DomainError",
    "EstimateStatus",
    "ExclusionRecord",
    "ExperimentConfig",
    "ExperimentResult",
    "GroupSelection",
    "GroupSpec",
    "IndependentResample",
    "IngestError",
    "InsufficientData",
    "Lag0Result",
    "LinearDrift",
    "LogStats",
    "MalformedCountry",
    "MnlcsError",
    "MnlcsEstimate",
    "NegativeCitations",
    "NoValidReplicates",
    "RandomWalk",
    "RankedCountries",
    "ScenarioSpec",
    "Scheme",
    "SeriesPoint",
    "Static",
    "UnparseableYear",
    "ValidationError",
    "compute_cells",
    "coverage_curve",
    "coverage_probability_sim",
    "estimate",
    "generate",
    "ingest",
    "lag0_batch",
    "lag0_coverage",
    "lag0_curve_points",
    "log_stats",
    "log_stats_from_logs",
    "mnlcs",
    "run_experiment",
    "sample_citations",
    "select_group",
    "series_report",
    "t_quantile",
    "top_countries",
    "validate_record",
    "whole_journal_estimate",
    "write_records_csv",
]
