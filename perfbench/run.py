"""Benchmark of ``mnlcs.experiment.run_experiment``, end to end and per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload paper --seed 0 --seconds 50 --trace 0

One client, closed loop: this process starts one fresh interpreter per run
(perfbench/child.py), one run at a time, so every run's set-up, CPU and
peak RSS are its own. mnlcs is imported from the checkout's ``src``.

--trace 0 reports the end-to-end metrics over untraced runs. run_adj_s and
cpu_adj_s are the run's wall and CPU seconds divided by the machine's speed
factor, which a frozen probe (probe.py) measures in this process just
before and just after each untraced run: the shared host's speed drifts by
tens of percent between minutes, and the raw times would carry that drift.
The raw medians and the speed factor are printed above the JSON line.
--trace 1 makes one untraced run and then traced runs, which wrap the
pipeline's stage functions (see child.HOOKS), and reports the per-layer
metrics. Every run's bundle goes through check.problems; a run that raises
or fails the check counts as failed. The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import check
from probe import probe, speed
from workloads import WORKLOADS, Workload, config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 5
MIN_RUNS = 3  # with --trace 1: one untraced run, then at least two traced
DEADLINE_S = 165.0  # every run of this command must end within 180 s

END_TO_END = {
    "run_adj_s": "s", "cpu_adj_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
    "success_rate": "fraction",
}
PER_LAYER = {
    "synth.generate_s": "s",
    "synth.records": "count",
    "dataio.ingest_s": "s",
    "dataio.ingest_rows_per_s": "1/s",
    "dataio.rss_rise_mb": "MB",
    "dataio.write_s": "s",
    "dataio.rows_written": "count",
    "dataio.bytes_written": "bytes",
    "counting.top_countries_s": "s",
    "stability.compute_cells_s": "s",
    "stability.cells_per_s": "1/s",
    "stability.rss_rise_mb": "MB",
    "stability.cells_ok": "count",
    "stability.cells_unbounded": "count",
    "stability.cells_insufficient": "count",
    "fieller.estimate_calls": "count",
    "fieller.estimate_s": "s",
    "stability.coverage_curve_s": "s",
    "stability.series_report_s": "s",
    "stability.pairs": "count",
    "stability.series_points": "count",
    "bootstrap.lag0_s": "s",
    "bootstrap.lag0_share": "fraction",
    "bootstrap.lag0_batch_s": "s",
    "bootstrap.lag0_batch_calls": "count",
    "bootstrap.replicate_targets": "count",
    "bootstrap.replicate_targets_per_s": "1/s",
    "bootstrap.replicates_valid": "count",
    "bootstrap.replicates_excluded": "count",
    "bootstrap.valid_ratio": "fraction",
    "bootstrap.rss_rise_mb": "MB",
    "rngtools.stream_calls": "count",
    "rngtools.stream_s": "s",
    "experiment.self_s": "s",
    "exclusions.cells": "count",
    "exclusions.curve": "count",
    "exclusions.lag0": "count",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
}
# hook call counts that must repeat exactly, like the bundle counts
EXACT_CALLS = {
    "fieller.estimate_calls": "fieller.estimate",
    "bootstrap.lag0_batch_calls": "bootstrap.lag0_batch",
    "rngtools.stream_calls": "rngtools.stream",
}


class SetupError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Run:
    traced: bool
    timing: dict | None = None  # child.py's result, None if the child failed
    problems: list[str] = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    files: dict = field(default_factory=dict)  # bundle file -> sha256

    @property
    def failed(self) -> bool:
        return self.timing is None or bool(self.problems)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "mnlcs").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(env: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = git.stdout.strip() or None

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "source_sha256": source_digest(),
        **{k: env.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def time_setup(env: dict, cwd: Path, timeout: float) -> float:
    """Wall seconds from starting a fresh interpreter to ``import mnlcs`` done.

    The child reads the clock right after the import, so the interpreter's
    shutdown is not counted.
    """
    t0 = time.time()
    proc = subprocess.run([sys.executable, "-c", "import mnlcs, time; print(repr(time.time()))"],
                          env=env, cwd=cwd, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise SetupError(f"import mnlcs failed:\n{proc.stderr.strip()}")
    return float(proc.stdout.split()[-1]) - t0


def run_child(cfg: dict, out_dir: Path, traced: bool, env: dict, timeout: float) -> dict | None:
    """Run one experiment in a fresh interpreter; its timing, or None if it failed."""
    spec = out_dir.with_suffix(".spec.json")
    result = out_dir.with_suffix(".result.json")
    spec.write_text(json.dumps({"config": cfg, "out_dir": str(out_dir), "trace": traced}),
                    encoding="utf-8")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(spec), str(result)],
                              env=env, cwd=out_dir.parent, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        print(f"run timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not result.exists():
        print(f"run failed (exit {proc.returncode}):\n{proc.stderr.strip()[-2000:]}", file=sys.stderr)
        return None
    return json.loads(result.read_text(encoding="utf-8"))


def file_digests(bundle: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(bundle.iterdir())}


def check_run(run: Run, bundle: Path, w: Workload, expected: dict | None,
              reference: dict | None) -> None:
    """Check a finished run's bundle; a bundle that cannot be read fails the run."""
    try:
        run.problems = check.problems(bundle, replicates=w.replicates, cohorts=w.cohorts,
                                      expected=expected, reference=reference)
        run.counts = check.counts(bundle)
        run.files = file_digests(bundle)
    except Exception as exc:  # a malformed bundle is a failed run, not a crash
        run.problems, run.counts, run.files = [f"check raised: {exc!r}"], {}, {}


def load_reference(w: Workload, seed: int) -> dict | None:
    table = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    return table[w.reference].get(str(seed))


def check_repeats(runs: list[Run]) -> None:
    """Add to each run's problems where its bundle is not byte-identical to the
    first run's, or its hook call counts differ from the first traced run's.
    Runs whose bundle could not be read are failed already and left out."""
    done = [r for r in runs if r.files]
    traced = [r for r in done if r.traced]
    for r in done[1:]:
        diff = sorted(k for k in r.files.keys() | done[0].files.keys()
                      if r.files.get(k) != done[0].files.get(k))
        if diff:
            r.problems.append(f"bundle not byte-identical to the first run: {diff}")
    for r in traced[1:]:
        for metric, hook in EXACT_CALLS.items():
            calls = [t.timing["hooks"].get(hook, {}).get("calls", 0) for t in (traced[0], r)]
            if calls[0] != calls[1]:
                r.problems.append(f"{metric} {calls[1]} differs from the first traced run's {calls[0]}")


def check_against_earlier(key: str, exact: dict) -> list[str]:
    """Exact counters must equal those of earlier invocations with the same
    source, workload and seed (``key`` hashes the three)."""
    path = WORK / "counts" / f"{key}.json"
    earlier = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    found = [f"{k} = {v}, an earlier run of this source gave {earlier[k]}"
             for k, v in exact.items() if k in earlier and earlier[k] != v]
    if not found:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**earlier, **exact}, sort_keys=True), encoding="utf-8")
    return found


def rate(n: float, seconds: float | None) -> float | None:
    if seconds is None:
        return None
    return n / seconds if seconds > 0 else 0.0


# per-layer metrics read from one hook's spans: metric -> (hook, summary field)
SPANS = {
    "synth.generate_s": ("synth.generate", "total_s"),
    "dataio.ingest_s": ("dataio.ingest", "total_s"),
    "dataio.rss_rise_mb": ("dataio.ingest", "rss_rise_mb"),
    "dataio.write_s": ("dataio.write", "total_s"),
    "counting.top_countries_s": ("counting.top_countries", "total_s"),
    "stability.compute_cells_s": ("stability.compute_cells", "total_s"),
    "stability.rss_rise_mb": ("stability.compute_cells", "rss_rise_mb"),
    "fieller.estimate_s": ("fieller.estimate", "total_s"),
    "stability.coverage_curve_s": ("stability.coverage_curve", "total_s"),
    "stability.series_report_s": ("stability.series_report", "total_s"),
    "bootstrap.lag0_s": ("bootstrap.lag0_curve_points", "total_s"),
    "bootstrap.lag0_batch_s": ("bootstrap.lag0_batch", "self_s"),
    "bootstrap.rss_rise_mb": ("bootstrap.lag0_curve_points", "rss_rise_mb"),
    "rngtools.stream_s": ("rngtools.stream", "total_s"),
    "experiment.self_s": ("experiment.run_experiment", "self_s"),
}


def missing_by_metric(missing_targets: list[str]) -> dict[str, list[str]]:
    """Hook targets (``name:module.attr``) missing behind each span metric.

    A metric whose hook name lost every target is absent; one that lost only
    some (dataio.write wraps seven writers) still has a value, which these
    lists flag as partial.
    """
    hooks = {metric: hook for metric, (hook, _) in SPANS.items()}
    hooks.update({metric: hook for metric, hook in EXACT_CALLS.items()})
    out = {}
    for metric, hook in hooks.items():
        lost = [t for t in missing_targets if t.split(":", 1)[0] == hook]
        if lost:
            out[metric] = lost
    return out


def layer_metrics(traced: list[dict], untraced_run_s: float, counts: dict, w: Workload) -> dict:
    """Per-layer values; None marks a metric whose hooks are all absent."""
    absent = set(traced[0]["absent"])

    def span(hook: str, key: str) -> float | None:
        if hook in absent:
            return None
        return statistics.median(t["hooks"].get(hook, {}).get(key, 0.0) for t in traced)

    run_s = statistics.median(t["run_s"] for t in traced)
    valid, excluded = counts["bootstrap.replicates_valid"], counts["bootstrap.replicates_excluded"]
    n_cells = sum(counts[f"stability.cells_{s}"] for s in ("ok", "unbounded", "insufficient"))
    m = {k: counts[k] for k in PER_LAYER if k in counts}
    m.update({metric: span(hook, key) for metric, (hook, key) in SPANS.items()})
    lag0_s = m["bootstrap.lag0_s"]
    m.update({
        "dataio.ingest_rows_per_s": rate(w.rows if w.from_csv else 0, m["dataio.ingest_s"]),
        "stability.cells_per_s": rate(n_cells, m["stability.compute_cells_s"]),
        "bootstrap.lag0_share": None if lag0_s is None else lag0_s / run_s,
        "bootstrap.replicate_targets": valid + excluded,
        "bootstrap.replicate_targets_per_s": rate(valid + excluded, lag0_s),
        "bootstrap.valid_ratio": valid / (valid + excluded) if valid + excluded else 0.0,
        "trace.run_s": run_s,
        "trace.overhead_s": run_s - untraced_run_s,
    })
    for metric, hook in EXACT_CALLS.items():
        m[metric] = None if hook in absent else traced[0]["hooks"].get(hook, {}).get("calls", 0)
    return m


def measure(w: Workload, seed: int, seconds: int,
            trace: bool) -> tuple[dict, dict, list[Run], list[str], dict]:
    """Set up, run and check; returns (metrics, missing hook targets by metric,
    runs, problems outside runs, env)."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    if not (SRC / "mnlcs" / "__init__.py").is_file():
        raise SetupError(f"no mnlcs package under {SRC}; run from the root of a checkout")
    work = WORK / f"{w.name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env()
    env_record = environment(env)
    setup = [time_setup(env, work, deadline - time.monotonic()) for _ in range(SETUP_SAMPLES)]
    reference = load_reference(w, seed)

    # The prep run generates the data without split-half. Every timed run must
    # reproduce its digests: for csv_cells this cross-checks the CSV path
    # against the generated one, whose data.csv is the csv_cells input. A
    # generated workload on a seed with a reference skips it, as the
    # reference holds the same digests.
    expected = csv_path = None
    if w.from_csv or reference is None:
        prep = run_child(config(w, seed, replicates=0), work / "prep", False, env,
                         deadline - time.monotonic())
        if prep is None:
            raise SetupError("the prep run on generated data failed")
        expected = check.digests(work / "prep")
        if w.from_csv:
            csv_path = str(work / "prep" / "data.csv")

    runs: list[Run] = []
    measured = 0.0
    while True:
        traced = trace and len(runs) >= 1
        bundle = work / f"run{len(runs)}"
        t0 = time.perf_counter()
        before = None if traced else probe()
        timing = run_child(config(w, seed, csv_path=csv_path), bundle, traced, env,
                           deadline - time.monotonic())
        if timing is not None and before is not None:
            timing["speed"] = speed(before, probe())
        wall = time.perf_counter() - t0
        run = Run(traced, timing)
        runs.append(run)
        measured += wall
        if timing is not None:
            check_run(run, bundle, w, expected, reference)
        if time.monotonic() + 1.5 * wall > deadline:
            break
        if len(runs) >= MIN_RUNS and measured + wall > seconds:
            break

    check_repeats(runs)
    for i, r in enumerate(runs):
        for p in r.problems:
            print(f"run {i}: {p}", file=sys.stderr)
    done = [r for r in runs if r.timing is not None]
    if not done:
        raise SetupError("every run failed")
    untraced = [r.timing for r in done if not r.traced]
    if not untraced:
        raise SetupError("the untraced run failed")
    untraced_run_s = statistics.median(t["run_s"] for t in untraced)
    counted = [r.counts for r in runs if r.counts]
    exact = dict(counted[0]) if counted else {}
    missing = {}
    if trace:
        traced = [r.timing for r in done if r.traced]
        if not traced:
            raise SetupError("every traced run failed")
        if not counted:
            raise SetupError("no run left a bundle that could be read")
        metrics = layer_metrics(traced, untraced_run_s, counted[0], w)
        exact.update({k: metrics[k] for k in EXACT_CALLS if metrics[k] is not None})
        missing = missing_by_metric(traced[0]["missing_targets"])
        for t in traced[0]["missing_targets"]:
            print(f"hook target missing: {t}", file=sys.stderr)
    else:
        failed = sum(r.failed for r in runs)
        metrics = {
            "run_adj_s": statistics.median(t["run_s"] / t["speed"] for t in untraced),
            "cpu_adj_s": statistics.median(t["cpu_s"] / t["speed"] for t in untraced),
            "peak_rss_mb": statistics.median(t["peak_rss_mb"] for t in untraced),
            "setup_s": statistics.median(setup),
            "success_rate": 1.0 - failed / len(runs),
        }
    key = hashlib.sha256(json.dumps([env_record["source_sha256"], w.name, config(w, seed)],
                                    sort_keys=True).encode()).hexdigest()[:24]
    extra = check_against_earlier(key, exact)
    for p in extra:
        print(p, file=sys.stderr)
    return metrics, missing, runs, extra, env_record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=50, help="length of the measurement")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]
    try:
        metrics, missing, runs, extra, env_record = measure(w, args.seed, args.seconds, bool(args.trace))
    except (SetupError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK / f"{w.name}-{args.seed}", ignore_errors=True)

    failed = sum(r.failed for r in runs)
    print("env " + json.dumps(env_record, sort_keys=True))
    walls = ", ".join(
        f"{r.timing['run_s']:.3f}{'*' if r.traced else ''}" if r.timing else "failed" for r in runs)
    print(f"workload {w.name}, seed {args.seed}: {len(runs)} runs, {failed} failed, "
          f"error_rate {failed / len(runs):.4f} fraction; run_s per run (* traced): {walls}")
    untraced = [r.timing for r in runs if r.timing and not r.traced]
    for name, unit in (("run_s", "s"), ("cpu_s", "s"), ("speed", "x reference")):
        print(f"  {name:34s} {statistics.median(t[name] for t in untraced):>14.6g} {unit}"
              "  (raw median over untraced runs)")
    units = PER_LAYER if args.trace else END_TO_END
    for name, unit in units.items():
        value = metrics[name]
        partial = f"  (missing: {', '.join(missing[name])})" if name in missing else ""
        print(f"  {name:34s} {'absent' if value is None else format(value, '.6g'):>14s} {unit}{partial}")
    print(json.dumps({
        "correct": failed == 0 and not extra,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            | ({"absent": True} if metrics[name] is None else {})
            | ({"missing_targets": missing[name]} if name in missing else {})
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
