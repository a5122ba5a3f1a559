"""Run one experiment in a fresh interpreter and write its measurements.

Usage: python3 child.py SPEC.json RESULT.json

SPEC holds the ``mnlcs run`` config, the bundle directory and whether to
trace. RESULT gets wall and CPU seconds of ``run_experiment``, the peak RSS
of this process and, when traced, the per-hook span summary, the hook
names with no target left (absent) and every hook target that is missing.
mnlcs must be importable (run.py puts the checkout's ``src`` on PYTHONPATH).
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

from spans import Hook, Tracer, absent_names, summarize, target

_WRITERS = (
    "write_cells_csv", "write_curves_csv", "write_scheme_curves_csv", "write_series_csv",
    "write_exclusions_csv", "write_records_csv", "write_manifest",
)

# Each target is the attribute its caller looks up at call time.
# counting.record_in_group is left out on purpose: it runs about 8M times
# on the paper shape, and a per-call wrapper would distort the traced run.
HOOKS = (
    Hook("experiment.run_experiment", "mnlcs.experiment", "run_experiment"),
    Hook("synth.generate", "mnlcs.synth", "generate"),
    Hook("dataio.ingest", "mnlcs.experiment", "ingest", rss=True),
    Hook("counting.top_countries", "mnlcs.experiment", "top_countries"),
    Hook("stability.compute_cells", "mnlcs.experiment", "compute_cells", rss=True),
    Hook("fieller.estimate", "mnlcs.stability", "estimate"),
    Hook("bootstrap.lag0_curve_points", "mnlcs.experiment", "lag0_curve_points", rss=True),
    Hook("bootstrap.lag0_batch", "mnlcs.stability", "lag0_batch"),
    Hook("rngtools.stream", "mnlcs.bootstrap", "stream"),
    Hook("stability.coverage_curve", "mnlcs.experiment", "coverage_curve"),
    Hook("stability.series_report", "mnlcs.experiment", "series_report"),
    *(Hook("dataio.write", "mnlcs.experiment", name) for name in _WRITERS),
)


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main(spec_path: str, result_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    from mnlcs import experiment

    tracer = Tracer() if spec["trace"] else None
    missing = tracer.install(HOOKS) if tracer else []
    config = experiment.ExperimentConfig.from_dict(spec["config"])

    cpu0, t0 = _cpu_s(), time.perf_counter()
    experiment.run_experiment(config, spec["out_dir"])
    run_s = time.perf_counter() - t0
    cpu_s = _cpu_s() - cpu0

    result = {
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        result["hooks"] = summarize(tracer.spans)
        result["absent"] = absent_names(HOOKS, missing)
        result["missing_targets"] = [target(h) for h in missing]
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(*sys.argv[1:])
