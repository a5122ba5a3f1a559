import json

import pytest

from mnlcs.cli import main
from mnlcs.dataio import write_records_csv
from mnlcs.synth import GroupSpec, ScenarioSpec, generate

SCENARIO = {
    "n_journals": 2,
    "year_start": 2000,
    "year_end": 2003,
    "field_size_per_year": 80,
    "field_mu": 1.0,
    "field_sigma": 1.0,
    "groups": [
        {"country": "AA", "share": 0.3, "mu": 1.0, "sigma": 1.0},
        {"country": "BB", "share": 0.2, "mu": 1.3, "sigma": 1.0},
    ],
    "capability_mode": {"mode": "static"},
    "collab_fraction": 0.2,
    "rng_seed": 9,
}


@pytest.fixture
def data_csv(tmp_path):
    path = tmp_path / "data.csv"
    spec = ScenarioSpec(
        n_journals=2,
        year_start=2000,
        year_end=2003,
        field_size_per_year=80,
        groups=(GroupSpec("AA", 0.3, 1.0, 1.0), GroupSpec("BB", 0.2, 1.3, 1.0)),
        collab_fraction=0.2,
        rng_seed=9,
    )
    write_records_csv(path, generate(spec))
    return path


def test_ingest_check(data_csv, capsys):
    assert main(["ingest-check", "--input", str(data_csv)]) == 0
    out = capsys.readouterr().out
    assert "cohorts: 8" in out
    assert "years: 2000..2003" in out


def test_ingest_check_bad_rows_fail(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text(
        "journal_id,year,citations,countries\nJ1,2000,-1,US\n", encoding="utf-8"
    )
    code = main(["ingest-check", "--input", str(path)])
    assert code != 0
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "IngestError"


def test_missing_file_reports_json_error(capsys):
    code = main(["ingest-check", "--input", "/nonexistent/file.csv"])
    assert code != 0
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FileNotFound"


def test_simulate_round_trips_through_ingest_check(tmp_path, capsys):
    config_path = tmp_path / "scenario.json"
    config_path.write_text(json.dumps(SCENARIO), encoding="utf-8")
    out_csv = tmp_path / "sim.csv"
    assert main(["simulate", "--config", str(config_path), "--out", str(out_csv)]) == 0
    assert main(["ingest-check", "--input", str(out_csv)]) == 0

    # same config, same bytes
    out2 = tmp_path / "sim2.csv"
    assert main(["simulate", "--config", str(config_path), "--out", str(out2)]) == 0
    assert out_csv.read_bytes() == out2.read_bytes()


def test_simulate_seed_override(tmp_path):
    config_path = tmp_path / "scenario.json"
    config_path.write_text(json.dumps(SCENARIO), encoding="utf-8")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["simulate", "--config", str(config_path), "--out", str(a)])
    main(["simulate", "--config", str(config_path), "--out", str(b), "--seed", "1234"])
    assert a.read_bytes() != b.read_bytes()


def test_indicator_stdout(data_csv, capsys):
    code = main(
        ["indicator", "--input", str(data_csv), "--countries", "AA",
         "--scheme", "inclusive", "--min-group-n", "5"]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("journal_id,year,country,scheme,value")
    assert len(lines) == 1 + 8  # 2 journals x 4 years


def test_indicator_to_file(data_csv, tmp_path, capsys):
    out = tmp_path / "cells.csv"
    code = main(
        ["indicator", "--input", str(data_csv), "--countries", "AA,BB", "--out", str(out)]
    )
    assert code == 0
    assert out.exists()
    assert "wrote" in capsys.readouterr().out


def test_bootstrap_csv(data_csv, tmp_path):
    out = tmp_path / "lag0.csv"
    code = main(
        ["bootstrap", "--input", str(data_csv), "--countries", "AA",
         "--scheme", "inclusive", "--replicates", "25", "--seed", "3",
         "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "journal_id,year,country,scheme,fraction,n_valid,n_excluded"
    assert len(lines) == 1 + 8


def test_stability_command(data_csv, tmp_path, capsys):
    out_dir = tmp_path / "res"
    code = main(
        ["stability", "--input", str(data_csv), "--countries", "AA,BB",
         "--max-offset", "3", "--lag0-replicates", "10", "--seed", "2",
         "--out", str(out_dir)]
    )
    assert code == 0
    for name in ("cells.csv", "curves.csv", "series.csv", "exclusions.csv", "manifest.json"):
        assert (out_dir / name).exists()


def test_run_command_with_scenario_config(tmp_path, capsys):
    config = {
        "input": {"scenario": SCENARIO},
        "countries": ["AA", "BB"],
        "schemes": ["inclusive", "exclusive"],
        "max_offset": 3,
        "lag0_replicates": 10,
        "seed": 4,
        "out": str(tmp_path / "res"),
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["run", "--config", str(config_path)]) == 0
    out = capsys.readouterr().out
    assert "countries: AA,BB" in out
    assert (tmp_path / "res" / "manifest.json").exists()
    assert (tmp_path / "res" / "data.csv").exists()


def test_run_bad_json_config(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text("{not json", encoding="utf-8")
    code = main(["run", "--config", str(config_path)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "BadConfig"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["--version"])
    assert exc_info.value.code == 0


def test_stability_and_run_print_the_same_summary(data_csv, tmp_path, capsys):
    args = ["--countries", "AA,BB", "--max-offset", "3", "--lag0-replicates", "10"]
    assert main(["stability", "--input", str(data_csv), *args, "--out", str(tmp_path / "a")]) == 0
    summary = "countries: AA,BB\ncells: 32\ncurves: 4\n"
    assert capsys.readouterr().out == f"{summary}outputs in {tmp_path / 'a'}\n"

    config = {"input": {"csv": str(data_csv)}, "countries": ["AA", "BB"], "max_offset": 3,
              "lag0_replicates": 10}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "b")]) == 0
    rows = {"cells.csv": 32, "curves.csv": 16, "curves_exclusive.csv": 8,
            "curves_inclusive.csv": 8, "exclusions.csv": 5, "series.csv": 32}
    assert capsys.readouterr().out == summary + "".join(
        f"{name}: {n} rows\n" for name, n in rows.items()
    ) + f"outputs in {tmp_path / 'b'}\n"
