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

from .bootstrap import coverage_probability_sim, lag0_coverage
from .counting import select_group
from .dataio import ingest
from .errors import MnlcsError
from .experiment import ExperimentConfig, run_experiment
from .fieller import CiSettings, estimate
from .indicator import log_stats
from .model import CitationRecord, Cohort, Scheme
from .stability import CellGrid, compute_cells, coverage_curve, series_report
from .synth import generate

# every name imported above; the submodules the imports bind stay out
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
