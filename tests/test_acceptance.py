"""Acceptance suite: one test per release criterion.

Each test prints a pass/fail line with the measured quantity (visible with
pytest -s; the assertion message carries the same detail either way). The
slow Monte Carlo criteria share module-scoped fixtures so the whole suite
stays within a few minutes.
"""

import numpy as np
import pytest

from _oracles import spearman
from conftest import rec
from mnlcs.bootstrap import coverage_probability_sim, lag0_coverage
from mnlcs.counting import select_group
from mnlcs.dataio import ingest, write_records_csv
from mnlcs.experiment import ExperimentConfig, run_experiment
from mnlcs.fieller import CiSettings, estimate
from mnlcs.indicator import log_stats, log_stats_from_logs, mnlcs
from mnlcs.model import Cohort, EstimateStatus, Scheme
from mnlcs.rngtools import stream
from mnlcs.stability import whole_journal_estimate
from mnlcs.synth import (
    GroupSpec,
    IndependentResample,
    LinearDrift,
    ScenarioSpec,
    Static,
    generate,
    sample_citations,
)


def report(name: str, passed: bool, detail: str):
    line = f"[acceptance] {name}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    assert passed, line


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_identity(simple_cohort):
    cohorts = [simple_cohort] + generate(
        ScenarioSpec(
            n_journals=3,
            year_start=2000,
            year_end=2004,
            field_size_per_year=500,
            groups=(GroupSpec("AA", 0.4, 1.0, 1.2),),
            rng_seed=1,
        )
    )
    worst = max(abs(whole_journal_estimate(c).value - 1.0) for c in cohorts)
    report("1 whole-journal identity", worst <= 1e-12, f"max |value-1| = {worst:.2e}")


# ---------------------------------------------------------------- criterion 2


def test_criterion_2_golden_ratio():
    value = mnlcs(log_stats([1, 7]), log_stats([0, 1, 3, 7]))
    err = abs(value - 4.0 / 3.0)
    report("2 golden ratio 4/3", err <= 1e-12, f"value = {value!r}, |err| = {err:.2e}")


# ---------------------------------------------------------------- criterion 3


def test_criterion_3_pair_arithmetic(tmp_path):
    spec = ScenarioSpec(
        n_journals=36,
        year_start=1996,
        year_end=2014,
        field_size_per_year=120,
        groups=tuple(
            GroupSpec(country, 0.06, 1.0, 1.0)
            for country in ("AA", "BB", "CC", "DD", "EE", "FF", "GG", "HH", "II", "KK")
        ),
        collab_fraction=0.0,
        rng_seed=33,
    )
    config = ExperimentConfig(
        scenario=spec,
        countries=tuple(g.country for g in spec.groups),
        schemes=(Scheme.INCLUSIVE, Scheme.EXCLUSIVE),
        max_offset=18,
        lag0_replicates=0,
        seed=33,
    )
    result = run_experiment(config, tmp_path / "full-shape")

    assert result.n_cells == 36 * 19 * 10 * 2
    assert len(result.curves) == 10 * 2
    by_offset_counts = {}
    total = 0
    ok = True
    for curve in result.curves:
        counts = {p.offset_years: p.n_comparisons for p in curve.points}
        ok = ok and counts.get(1) == 648 and counts.get(18) == 36
        total += sum(counts.values())
        by_offset_counts.setdefault("offset1", set()).add(counts.get(1))
        by_offset_counts.setdefault("offset18", set()).add(counts.get(18))
    ok = ok and total == 123120
    report(
        "3 pair arithmetic",
        ok,
        f"offset1 counts {by_offset_counts['offset1']}, "
        f"offset18 counts {by_offset_counts['offset18']}, total {total}",
    )


# ------------------------------------------------------------ criteria 4 and 6


def fieller_coverage(replicates: int, group_n: int, field_n: int, seed: int) -> float:
    """Coverage of the true ratio 1 when group and field share one
    discretised lognormal (mu=1, sigma=1) and the group sits inside the field."""
    inside = 0
    valid = 0
    settings = CiSettings()
    for rep in range(replicates):
        rng = stream(seed, "acceptance-coverage", rep)
        counts = sample_citations(1.0, 1.0, field_n, rng)
        logs = np.log1p(counts.astype(float))
        field_stats = log_stats_from_logs(logs)
        if field_stats.mean <= 0.0:
            continue
        group_stats = log_stats_from_logs(logs[:group_n])
        est = estimate(group_stats, field_stats, settings)
        if est.status is not EstimateStatus.OK:
            continue
        valid += 1
        if est.contains(1.0):
            inside += 1
    assert valid == replicates
    return inside / valid


@pytest.fixture(scope="module")
def criterion4_coverage():
    return fieller_coverage(10_000, group_n=50, field_n=1000, seed=404)


def test_criterion_4_ci_coverage(criterion4_coverage):
    ok = 0.935 <= criterion4_coverage <= 0.965
    report(
        "4 interval coverage (n=50 in 1000, 10k reps)",
        ok,
        f"coverage = {criterion4_coverage:.4f}, band [0.935, 0.965]",
    )


def test_criterion_6_split_half_penalty(criterion4_coverage):
    counts = sample_citations(1.0, 1.0, 2000, stream(606, "lag0-data"))
    records = tuple(
        rec("J1", 2000, int(c), ("US",) if i < 400 else ())
        for i, c in enumerate(counts)
    )
    big = Cohort("J1", 2000, records)
    res = lag0_coverage(big, "US", Scheme.INCLUSIVE, replicates=1000, rng_seed=66)
    ok = 0.85 <= res.fraction <= 0.95 and res.fraction < criterion4_coverage
    report(
        "6 split-half penalty",
        ok,
        f"lag0 = {res.fraction:.4f} (excluded {res.n_excluded}), band [0.85, 0.95], "
        f"full-size coverage = {criterion4_coverage:.4f}",
    )


# ---------------------------------------------------------------- criterion 5


def test_criterion_5_two_sample_extremes():
    tiny = coverage_probability_sim(10_000, 1, replicates=10_000, rng_seed=505)
    near_nominal = coverage_probability_sim(10, 10_000, replicates=10_000, rng_seed=506)
    ok = tiny < 0.10 and 0.90 <= near_nominal <= 0.96
    report(
        "5 mean-coverage extremes",
        ok,
        f"huge-first/single-second = {tiny:.4f} (< 0.10), "
        f"small-first/huge-second = {near_nominal:.4f} (in [0.90, 0.96])",
    )


# ---------------------------------------------------------------- criterion 7


def _scenario(mode, seed):
    # group shares stay well below the field so the denominator is anchored
    # by unlabeled articles; otherwise a scenario-wide capability change
    # would largely cancel out of the ratio
    return ScenarioSpec(
        n_journals=36,
        year_start=1996,
        year_end=2014,
        field_size_per_year=300,
        groups=(
            GroupSpec("AA", 0.15, 1.6, 1.0),
            GroupSpec("BB", 0.15, 1.4, 1.0),
            GroupSpec("CC", 0.15, 1.2, 1.0),
        ),
        capability_mode=mode,
        collab_fraction=0.3,
        rng_seed=seed,
    )


def _run_scenario(mode, seed, tmp_dir):
    config = ExperimentConfig(
        scenario=_scenario(mode, seed),
        countries=("AA", "BB", "CC"),
        schemes=(Scheme.INCLUSIVE, Scheme.EXCLUSIVE),
        max_offset=12,
        lag0_replicates=200,
        seed=seed,
    )
    return run_experiment(config, tmp_dir)


def _pooled(curves):
    """Comparison-weighted fractions pooled over countries and schemes."""
    inside = {}
    totals = {}
    for curve in curves:
        for p in curve.points:
            inside[p.offset_years] = inside.get(p.offset_years, 0.0) + p.inside_fraction * p.n_comparisons
            totals[p.offset_years] = totals.get(p.offset_years, 0) + p.n_comparisons
    return {k: inside[k] / totals[k] for k in totals}


@pytest.fixture(scope="module")
def scenario_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("scenarios")
    return {
        "static": _pooled(_run_scenario(Static(), 700, base / "static").curves),
        "resample": _pooled(
            _run_scenario(IndependentResample(spread=0.3), 701, base / "resample").curves
        ),
        "drift": _pooled(
            _run_scenario(LinearDrift(slope=-0.05), 702, base / "drift").curves
        ),
    }


def _level(pooled):
    return sum(v for k, v in pooled.items() if k >= 1) / len(
        [k for k in pooled if k >= 1]
    )


def test_criterion_7a_static_flat_at_lag0(scenario_runs):
    pooled = scenario_runs["static"]
    lag0 = pooled[0]
    offsets = sorted(k for k in pooled if k >= 1)
    worst = max(abs(pooled[k] - lag0) for k in offsets)
    ok = len(offsets) == 12 and worst <= 0.03
    report(
        "7a static scenario flat at offset-0 level",
        ok,
        f"lag0 = {lag0:.4f}, max |deviation| = {worst:.4f} (<= 0.03)",
    )


def test_criterion_7b_memoryless_level_drop(scenario_runs):
    static_level = _level(scenario_runs["static"])
    resample_level = _level(scenario_runs["resample"])
    pooled = scenario_runs["resample"]
    offsets = sorted(k for k in pooled if k >= 1)
    rho = spearman(offsets, [pooled[k] for k in offsets])
    # rank correlation of a flat noisy 12-point curve is pure noise
    # (sd ~ 0.3), so flatness gets a loose cut; the level is the sharp check
    ok = static_level - resample_level >= 0.15 and abs(rho) < 0.75
    report(
        "7b memoryless capability drops the level",
        ok,
        f"static level = {static_level:.4f}, resample level = {resample_level:.4f}, "
        f"drop = {static_level - resample_level:.4f} (>= 0.15), spearman = {rho:.2f}",
    )


def test_criterion_7c_drift_slopes_down(scenario_runs):
    pooled = scenario_runs["drift"]
    offsets = sorted(k for k in pooled if k >= 1)
    rho = spearman(offsets, [pooled[k] for k in offsets])
    ok = rho <= -0.5
    report(
        "7c drift scenario declining curve",
        ok,
        f"spearman(offset, fraction) = {rho:.3f} (<= -0.5)",
    )


# ---------------------------------------------------------------- criterion 8


def test_criterion_8_exclusive_subset_of_inclusive(tmp_path):
    generated = generate(_scenario(Static(), 800))
    path = tmp_path / "data.csv"
    write_records_csv(path, generated[:60])
    ingested, _report_obj = ingest(path)

    checked = 0
    ok = True
    for cohorts in (generated, ingested):
        for c in cohorts:
            countries = sorted({code for r in c.records for code in r.countries})
            for country in countries:
                exclusive = set(select_group(c, country, Scheme.EXCLUSIVE).member_indices)
                inclusive = set(select_group(c, country, Scheme.INCLUSIVE).member_indices)
                ok = ok and exclusive <= inclusive
                checked += 1
    report(
        "8 exclusive subset of inclusive",
        ok and checked > 0,
        f"{checked} (cohort, country) selections checked on generated + ingested data",
    )


# ---------------------------------------------------------------- criterion 9


def test_criterion_9_byte_identical_reruns(tmp_path):
    spec = ScenarioSpec(
        n_journals=4,
        year_start=2000,
        year_end=2006,
        field_size_per_year=150,
        groups=(GroupSpec("AA", 0.3, 1.2, 1.0), GroupSpec("BB", 0.2, 1.0, 1.0)),
        collab_fraction=0.25,
        rng_seed=900,
    )
    config = ExperimentConfig(
        scenario=spec,
        countries=("AA", "BB"),
        schemes=(Scheme.INCLUSIVE, Scheme.EXCLUSIVE),
        max_offset=5,
        lag0_replicates=100,
        seed=900,
    )
    r1 = run_experiment(config, tmp_path / "run1")
    r2 = run_experiment(config, tmp_path / "run2")
    # every file in either bundle: same names, same bytes
    first, second = (
        {p.name: p.read_bytes() for p in r.out_dir.iterdir()} for r in (r1, r2)
    )
    names = sorted(set(first) | set(second))
    expected = set(r1.outputs) | {"manifest.json", "resolved.json"}
    mismatched = [name for name in names if first.get(name) != second.get(name)]
    missing = sorted(expected - set(first))
    report(
        "9 determinism",
        not mismatched and not missing,
        f"compared {names}, mismatches: {mismatched or 'none'}, missing: {missing or 'none'}",
    )
