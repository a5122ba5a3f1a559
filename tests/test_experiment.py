import csv
import json
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from _oracles import oracle_bundle
from mnlcs import experiment
from mnlcs.dataio import config_hash, write_records_csv
from mnlcs.errors import ValidationError
from mnlcs.fieller import FIELLER_FORMS, CiSettings
from mnlcs.experiment import ExperimentConfig, run_experiment, scenario_from_dict
from mnlcs.model import Scheme
from mnlcs.stability import lag0_curve_points
from mnlcs.synth import (
    GroupSpec,
    IndependentResample,
    LinearDrift,
    RandomWalk,
    ScenarioSpec,
    Static,
    generate,
)


def scenario(seed=17):
    return ScenarioSpec(
        n_journals=3,
        year_start=2000,
        year_end=2005,
        field_size_per_year=120,
        groups=(GroupSpec("AA", 0.3, 1.0, 1.0), GroupSpec("BB", 0.2, 1.2, 1.0)),
        collab_fraction=0.2,
        rng_seed=seed,
    )


def config(**overrides):
    base = dict(
        scenario=scenario(),
        countries=("AA", "BB"),
        schemes=(Scheme.INCLUSIVE, Scheme.EXCLUSIVE),
        max_offset=4,
        lag0_replicates=30,
        seed=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.mark.parametrize(
    "mode",
    [Static(), RandomWalk(0.1), LinearDrift(-0.02), IndependentResample(0.3)],
)
def test_capability_mode_round_trip(mode):
    cfg = config(scenario=replace(scenario(), capability_mode=mode))
    spec = cfg.to_dict()["input"]["scenario"]
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
    assert scenario_from_dict(spec).capability_mode == mode
    # JSON integers take the field's float type, so "step": 1 reads as 1.0
    as_ints = {k: v if k == "mode" else round(v) for k, v in spec["capability_mode"].items()}
    coerced = config(scenario=scenario_from_dict({**spec, "capability_mode": as_ints})).to_dict()
    coerced = coerced["input"]["scenario"]["capability_mode"]
    assert coerced == as_ints
    assert all(type(v) is float for k, v in coerced.items() if k != "mode")


# config_sha256 of one JSON config per capability mode, with integers where
# the scenario has float fields; a change here changes every such manifest
MODE_CONFIG_HASHES = {
    "static": (
        {"mode": "static"},
        "e4af5acfbf0ec74ed51aeb88361b6d0795bf31a6c72c4431e2e40f26258d26b6",
    ),
    "random_walk": (
        {"mode": "random_walk", "step": 1},
        "219c69d1f0403148c29e92696b6a49f5c8eff635d0b59ce2eef57c2ea2a621e7",
    ),
    "linear_drift": (
        {"mode": "linear_drift", "slope": -0.02},
        "2d363597ab2722c8a841e0b01942180d1d12248542644b200cb2593f86eba623",
    ),
    "independent_resample": (
        {"mode": "independent_resample", "spread": 0.3},
        "9537892e4942b532d7ae5cb7e2fe293cdf9375bc7b8f47a3b564a180743307f4",
    ),
}


@pytest.mark.parametrize("name", sorted(MODE_CONFIG_HASHES))
def test_manifest_config_hash_per_capability_mode(name):
    mode, expected = MODE_CONFIG_HASHES[name]
    cfg = ExperimentConfig.from_dict({
        "input": {"scenario": {
            "n_journals": 3, "year_start": 2000, "year_end": 2005, "field_size_per_year": 120,
            "groups": [{"country": "AA", "share": 0.3, "mu": 1, "sigma": 1},
                       {"country": "BB", "share": 0.2, "mu": 1.2, "sigma": 1.0}],
            "capability_mode": mode, "collab_fraction": 0.2, "rng_seed": 17}},
        "countries": ["AA", "BB"], "max_offset": 4, "lag0_replicates": 30, "seed": 5,
    })
    assert config_hash(cfg.to_dict()) == expected
    assert ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


def test_scenario_round_trip():
    spec = scenario()
    assert scenario_from_dict(config(scenario=spec).to_dict()["input"]["scenario"]) == spec


def test_json_reader_rejects_non_scalar_fields():
    # a field without a scalar conversion is a TypeError, not a "missing key"
    d = config().to_dict()["input"]["scenario"]
    with pytest.raises(TypeError, match="ScenarioSpec.groups"):
        experiment._from_json(ScenarioSpec, d)
    with pytest.raises(ValidationError, match="missing key"):
        scenario_from_dict({k: v for k, v in d.items() if k != "n_journals"})


def test_int_settings_take_integral_values_only():
    # a value that int() would round or read as 0 or 1 is an error; the
    # CLI tests cover the config's own int fields
    base = {"input": {"csv": "data.csv"}, "countries": ["AA"]}
    for bad in ({"year_max": "2001.0"}, {"countries": {"top": True}}):
        with pytest.raises(ValidationError, match="expected an integer"):
            ExperimentConfig.from_dict({**base, **bad})
    with pytest.raises(ValidationError, match="ScenarioSpec.rng_seed"):
        scenario_from_dict({**config().to_dict()["input"]["scenario"], "rng_seed": 9.5})


def test_parse_schemes():
    base = {"input": {"csv": "data.csv"}, "countries": ["AA"]}
    both = (Scheme.INCLUSIVE, Scheme.EXCLUSIVE)
    assert ExperimentConfig.from_dict({**base, "schemes": "both"}).schemes == both
    assert ExperimentConfig.from_dict(base).schemes == both
    assert ExperimentConfig.from_dict({**base, "schemes": "inclusive"}).schemes == (Scheme.INCLUSIVE,)
    assert ExperimentConfig.from_dict({**base, "schemes": ["exclusive"]}).schemes == (Scheme.EXCLUSIVE,)


def test_config_round_trip():
    cfg = config()
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg


def test_config_requires_one_input():
    with pytest.raises(ValidationError):
        ExperimentConfig(countries=("AA",))
    with pytest.raises(ValidationError):
        ExperimentConfig(
            input_csv="x.csv", scenario=scenario(), countries=("AA",)
        )


def test_config_requires_country_selection():
    with pytest.raises(ValidationError):
        ExperimentConfig(scenario=scenario())


def test_config_rejects_year_min_above_year_max():
    with pytest.raises(ValidationError, match="year_min 2004 exceeds year_max 2003"):
        config(year_min=2004, year_max=2003)
    assert config(year_min=2003, year_max=2003).year_max == 2003


def test_run_experiment_writes_bundle(tmp_path):
    result = run_experiment(config(), tmp_path / "out")
    for name in ("cells.csv", "curves.csv", "series.csv", "exclusions.csv",
                 "data.csv", "manifest.json", "resolved.json"):
        assert (result.out_dir / name).exists(), name
    manifest = json.loads((result.out_dir / "manifest.json").read_text())
    assert manifest["outputs"]["cells.csv"] == result.n_cells
    assert len(manifest["config_sha256"]) == 64
    # offset-0 points present and flagged simulated
    curves_text = (result.out_dir / "curves.csv").read_text().splitlines()
    zero_rows = [line for line in curves_text if ",0," in line and line.endswith("true")]
    assert zero_rows


def test_run_experiment_deterministic(tmp_path):
    r1 = run_experiment(config(), tmp_path / "a")
    r2 = run_experiment(config(), tmp_path / "b")
    for name in r1.outputs:
        assert (r1.out_dir / name).read_bytes() == (r2.out_dir / name).read_bytes(), name
    assert (r1.out_dir / "manifest.json").read_bytes() == (
        r2.out_dir / "manifest.json"
    ).read_bytes()


def test_offsets_past_the_year_span_add_no_rows(tmp_path):
    # scenario() spans 2000-2005, so offsets past 5 have no pairs to attempt
    span = run_experiment(config(max_offset=5), tmp_path / "span").out_dir
    start = time.perf_counter()
    far = run_experiment(config(max_offset=20000), tmp_path / "far").out_dir
    assert time.perf_counter() - start < 30.0
    for name in ("curves.csv", "exclusions.csv"):
        assert (far / name).read_bytes() == (span / name).read_bytes(), name


def test_import_and_run_leave_scipy_unloaded(tmp_path):
    # scipy is a test dependency only; a fresh interpreter keeps it out
    code = (
        "import json, sys\n"
        "import mnlcs\n"
        "from mnlcs.experiment import ExperimentConfig, run_experiment\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')\n"
        "print(loaded())\n"
        "run_experiment(ExperimentConfig.from_dict(json.loads(sys.argv[1])), sys.argv[2])\n"
        "print(loaded())\n"
    )
    cfg = json.dumps(config(lag0_replicates=3, max_offset=2).to_dict())
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code, cfg, str(tmp_path / "out")], env=env,
                         capture_output=True, text=True, check=True, timeout=120).stdout
    assert out.splitlines() == ["[]", "[]"]
    assert (tmp_path / "out" / "manifest.json").exists()


def test_capability_scenarios_script_prints_an_offset_0_row(tmp_path):
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(
        [sys.executable, str(root / "scripts" / "run_capability_scenarios.py"), "--out", str(tmp_path),
         "--journals", "2", "--year-start", "2000", "--year-end", "2003", "--field-size", "80",
         "--max-offset", "2", "--lag0-replicates", "5"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    rows = [line.split() for line in run.stdout.splitlines() if line.startswith("     0 ")]
    assert len(rows) == 1 and rows[0][4:] == ["(split-half", "baseline)"]
    assert all(0.0 <= float(x) <= 1.0 for x in rows[0][1:4])
    for name in ("static", "resample", "drift"):
        assert (tmp_path / name / "manifest.json").exists()


def test_failed_run_leaves_no_manifest(tmp_path, monkeypatch):
    out = tmp_path / "out"
    run_experiment(config(), out)
    assert (out / "manifest.json").exists()

    def fail(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(experiment, "write_series_csv", fail)
    with pytest.raises(OSError, match="disk full"):
        run_experiment(config(), out)
    assert not (out / "manifest.json").exists()
    assert not (out / "resolved.json").exists()


def test_run_experiment_seed_changes_lag0(tmp_path):
    r1 = run_experiment(config(seed=5), tmp_path / "a")
    r2 = run_experiment(config(seed=6), tmp_path / "b")
    assert (r1.out_dir / "curves.csv").read_bytes() != (r2.out_dir / "curves.csv").read_bytes()
    # cells do not depend on the lag0 seed
    assert (r1.out_dir / "cells.csv").read_bytes() == (r2.out_dir / "cells.csv").read_bytes()


def test_run_experiment_from_csv_with_top_k(tmp_path):
    data = tmp_path / "data.csv"
    write_records_csv(data, generate(scenario()))
    cfg = ExperimentConfig(
        input_csv=str(data),
        top_k=2,
        schemes=(Scheme.INCLUSIVE,),
        max_offset=3,
        lag0_replicates=0,
        seed=1,
    )
    result = run_experiment(cfg, tmp_path / "out")
    # AA has the larger share; ZZ collaborations outnumber BB exclusives here
    assert result.countries[0] == "AA"
    assert result.countries_complete
    assert result.n_cells > 0
    # with lag0 disabled no offset-0 rows appear
    curves_text = (result.out_dir / "curves.csv").read_text().splitlines()[1:]
    assert all(not line.split(",")[2] == "0" for line in curves_text)


def test_run_experiment_rejects_empty_input(tmp_path):
    data = tmp_path / "data.csv"
    data.write_text("journal_id,year,citations,countries\n", encoding="utf-8")
    cfg = ExperimentConfig(
        input_csv=str(data), countries=("AA",), lag0_replicates=0
    )
    with pytest.raises(ValidationError):
        run_experiment(cfg, tmp_path / "out")


def _column(path, name):
    header, *rows = path.read_text().splitlines()
    col = header.split(",").index(name)
    return [row.split(",")[col] for row in rows]


def test_scenario_input_respects_year_bounds(tmp_path):
    # the scenario spans 2000-2005; the run keeps 2001-2003, as ingest does
    out = run_experiment(config(year_min=2001, year_max=2003), tmp_path / "gen").out_dir
    for name in ("cells.csv", "series.csv", "data.csv"):
        assert set(_column(out / name, "year")) == {"2001", "2002", "2003"}, name

    # the offset-0 points pool the replicates of the kept cohorts only
    kept = [c for c in generate(scenario()) if 2001 <= c.year <= 2003]
    targets = [(c, s) for c in ("AA", "BB") for s in (Scheme.INCLUSIVE, Scheme.EXCLUSIVE)]
    lag0 = lag0_curve_points(kept, targets, 30, 5, CiSettings())
    n_zero = [n for offset, n in zip(_column(out / "curves.csv", "offset_years"),
                                     _column(out / "curves.csv", "n_comparisons"))
              if offset == "0"]
    assert sorted(map(int, n_zero)) == sorted(p.n_comparisons for p in lag0.values())
    assert sum(map(int, n_zero)) <= 30 * len(kept) * len(targets)

    # the same data through CSV ingest with the same bounds gives the same bundle
    data = tmp_path / "data.csv"
    write_records_csv(data, generate(scenario()))
    csv_cfg = config(scenario=None, input_csv=str(data), year_min=2001, year_max=2003)
    from_csv = run_experiment(csv_cfg, tmp_path / "csv").out_dir
    for name in ("cells.csv", "curves.csv", "series.csv", "exclusions.csv"):
        assert (from_csv / name).read_bytes() == (out / name).read_bytes(), name


def test_scenario_input_respects_one_sided_year_bound(tmp_path):
    out = run_experiment(config(year_min=2004), tmp_path / "out").out_dir
    assert set(_column(out / "series.csv", "year")) == {"2004", "2005"}
    assert set(_column(out / "data.csv", "year")) == {"2004", "2005"}


def test_config_countries_follow_the_csv_rule(tmp_path):
    spec = config().to_dict()["input"]["scenario"]
    spec["groups"] = [{"country": "US", "share": 0.3, "mu": 1.0, "sigma": 1.0},
                      {"country": "JP", "share": 0.2, "mu": 1.2, "sigma": 1.0}]
    cfg = ExperimentConfig.from_dict({"input": {"scenario": spec}, "countries": ["us", "Japan"],
                                      "max_offset": 3, "lag0_replicates": 0})
    assert cfg.countries == ("US", "JP")
    result = run_experiment(cfg, tmp_path / "out")
    assert result.countries == ("US", "JP")
    assert "empty_group" not in _column(result.out_dir / "exclusions.csv", "reason")


@pytest.mark.parametrize("countries", [("US", "us"), ("US", "United States"), ("GB", "AA", "Great Britain")])
def test_config_rejects_duplicate_countries(countries):
    with pytest.raises(ValidationError, match="duplicate"):
        config(countries=countries)


@pytest.mark.parametrize("override", [{"max_offset": "x"}, {"countries": {"top": "ten"}},
                                      {"schemes": ["both"]}, {"min_group_n": 1},
                                      {"schemes": ["exclusive", "exclusive"]},
                                      {"year_min": "x"}, {"year_max": [2001]}])
def test_from_dict_raises_validation_error_on_bad_settings(override):
    d = {**config().to_dict(), **override}
    with pytest.raises(ValidationError):
        ExperimentConfig.from_dict(d)


def test_from_dict_converts_year_bounds_as_other_int_settings():
    d = config().to_dict()
    as_int = ExperimentConfig.from_dict({**d, "year_min": 2001, "year_max": 2004})
    as_text = ExperimentConfig.from_dict({**d, "year_min": "2001", "year_max": "2004"})
    assert as_text == as_int and (as_text.year_min, as_text.year_max) == (2001, 2004)
    as_float = ExperimentConfig.from_dict({**d, "year_min": 2001.0, "year_max": 2004.0})
    assert as_float == as_int
    assert config_hash(as_text.to_dict()) == config_hash(as_int.to_dict())
    assert config_hash(as_float.to_dict()) == config_hash(as_int.to_dict())
    with pytest.raises(ValidationError, match="year_min"):
        ExperimentConfig.from_dict({**d, "year_min": 2001.5})
    assert ExperimentConfig.from_dict({**d, "year_min": None}).year_min is None


def with_one_article_journal_year(data_csv, path):
    """``data_csv`` with journal J2 renamed J"2, a journal id csv.writer quotes,
    and one more journal, JX, holding a single article in 2001."""
    with open(data_csv, encoding="utf-8", newline="") as f:
        header, *rows = csv.reader(f)
    rows = [['J"2' if row[0] == "J2" else row[0], *row[1:]] for row in rows]
    with open(path, "w", encoding="utf-8", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows([header, *rows, ["JX", "2001", "4", "AA"]])
    return path


def test_lag0_accounts_for_every_replicate_of_every_cohort(tmp_path):
    # valid + excluded = replicates x cohorts x targets, the one-article JX 2001 included
    data = tmp_path / "data.csv"
    write_records_csv(data, generate(scenario()))
    cfg = config(scenario=None, input_csv=str(with_one_article_journal_year(data, data)))
    out = run_experiment(cfg, tmp_path / "out").out_dir
    excluded = [int(n) for stage, n in zip(_column(out / "exclusions.csv", "stage"),
                                           _column(out / "exclusions.csv", "count"))
                if stage == "lag0"]
    valid = [int(n) for offset, n in zip(_column(out / "curves.csv", "offset_years"),
                                         _column(out / "curves.csv", "n_comparisons"))
             if offset == "0"]
    with open(out / "exclusions.csv", encoding="utf-8", newline="") as f:
        single = [row for row in csv.DictReader(f) if row["journal_id"] == "JX"]
    assert [(r["stage"], r["count"]) for r in single if r["stage"] == "lag0"] == [("lag0", "30")] * 4
    assert sum(excluded) + sum(valid) == 30 * (3 * 6 + 1) * 4


def test_run_experiment_writes_the_oracle_bundle(tmp_path):
    # every file of the bundle, byte for byte, against one composed from the
    # slow per-stage oracles: a scenario at 0 and 5 replicates, then its
    # data.csv with a quoted journal id and a one-article journal-year
    small = replace(scenario(), n_journals=2, year_end=2003, field_size_per_year=40)
    runs = {
        "scenario_0": config(scenario=small, lag0_replicates=0, countries=None, top_k=3),
        "scenario_5": config(scenario=small, lag0_replicates=5, max_offset=6),
    }
    run_experiment(runs["scenario_0"], tmp_path / "seed")
    data = with_one_article_journal_year(tmp_path / "seed" / "data.csv", tmp_path / "data.csv")
    runs["csv_5"] = config(scenario=None, input_csv=str(data), lag0_replicates=5, min_group_n=2,
                           fieller_form="printed", year_min=1999, year_max=2002)
    for name, cfg in runs.items():
        check_oracle_bundle(cfg, tmp_path / name)


@hyp_settings(max_examples=24, deadline=None)
@given(
    st.integers(2, 3),
    st.integers(3, 5),
    st.integers(20, 60),
    st.integers(0, 4),
    st.sampled_from([{"countries": ("AA", "BB")}, {"countries": ("ZZ", "BB")},
                     {"countries": None, "top_k": 1}, {"countries": None, "top_k": 4}]),
    st.sampled_from(FIELLER_FORMS),
    st.integers(2, 5),
    st.integers(0, 2**16),
    st.sampled_from(["scenario", "csv", "csv_quoted"]),
    st.sampled_from([None, -2, 1]),
    st.sampled_from([None, 2, -1]),
    st.integers(1, 7),
)
def test_run_experiment_writes_the_oracle_bundle_on_drawn_configs(
    journals, years, articles, replicates, countries, form, min_group_n, seed, source,
    low, high, max_offset,
):
    # input: the scenario, or its data.csv re-ingested, with J1 as J"1 (a
    # field csv.writer quotes) or not; year bounds unset, wider or narrower
    # than the data at either end; max_offset up to past the year span
    small = replace(scenario(seed), n_journals=journals, year_end=2000 + years - 1,
                    field_size_per_year=articles)
    bounds = {"year_min": None if low is None else small.year_start + low,
              "year_max": None if high is None else small.year_end + high}
    with tempfile.TemporaryDirectory() as out:
        inputs = {"scenario": small}
        if source != "scenario":
            data = Path(out) / "data.csv"
            write_records_csv(data, generate(small))
            if source == "csv_quoted":
                with open(data, encoding="utf-8", newline="") as f:
                    rows = [['J"1' if row[0] == "J1" else row[0], *row[1:]] for row in csv.reader(f)]
                with open(data, "w", encoding="utf-8", newline="") as f:
                    csv.writer(f, lineterminator="\n").writerows(rows)
            inputs = {"scenario": None, "input_csv": str(data)}
        cfg = config(**inputs, lag0_replicates=replicates, fieller_form=form,
                     min_group_n=min_group_n, seed=seed, max_offset=max_offset,
                     **bounds, **countries)
        check_oracle_bundle(cfg, Path(out))


def check_oracle_bundle(cfg, out):
    """run_experiment's bundle equals oracle_bundle's, every file byte for byte."""
    oracle_bundle(cfg, out / "oracle")
    run_experiment(cfg, out / "run")
    files = sorted(p.name for p in (out / "oracle").iterdir())
    assert sorted(p.name for p in (out / "run").iterdir()) == files
    for file in files:
        assert (out / "run" / file).read_bytes() == (out / "oracle" / file).read_bytes(), file
