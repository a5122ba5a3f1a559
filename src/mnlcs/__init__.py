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

from types import ModuleType as _ModuleType

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
    CellTable,
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

# every name imported above; the submodules the imports bind stay out
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
