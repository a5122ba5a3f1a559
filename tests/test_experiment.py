import json

import pytest

from mnlcs import experiment
from mnlcs.dataio import write_records_csv
from mnlcs.errors import ValidationError
from mnlcs.experiment import (
    ExperimentConfig,
    mode_from_dict,
    mode_to_dict,
    parse_schemes,
    run_experiment,
    scenario_from_dict,
    scenario_to_dict,
)
from mnlcs.model import Scheme
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
    assert mode_from_dict(mode_to_dict(mode)) == mode
    # JSON integers take the field's float type, so "step": 1 reads as 1.0
    as_ints = {k: v if k == "mode" else round(v) for k, v in mode_to_dict(mode).items()}
    coerced = mode_to_dict(mode_from_dict(as_ints))
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
    assert experiment.experiment_hash(cfg) == expected
    assert ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


def test_scenario_round_trip():
    spec = scenario()
    assert scenario_from_dict(scenario_to_dict(spec)) == spec


def test_json_reader_rejects_non_scalar_fields():
    # a field without a scalar conversion is a TypeError, not a "missing key"
    d = scenario_to_dict(scenario())
    with pytest.raises(TypeError, match="ScenarioSpec.groups"):
        experiment._from_json(ScenarioSpec, d)
    with pytest.raises(ValidationError, match="missing key"):
        scenario_from_dict({k: v for k, v in d.items() if k != "n_journals"})


def test_parse_schemes():
    assert parse_schemes("both") == (Scheme.INCLUSIVE, Scheme.EXCLUSIVE)
    assert parse_schemes("inclusive") == (Scheme.INCLUSIVE,)
    assert parse_schemes(["exclusive"]) == (Scheme.EXCLUSIVE,)


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
