import csv
import io
import json

import numpy as np
import pytest

from _oracles import ingest_oracle, scalar_decisions
from test_dataio import HEADER_LINE, TOKENIZER_FILES
from mnlcs import dataio
from mnlcs.cli import main
from mnlcs.dataio import fmt, ingest, write_cells_csv, write_records_csv
from mnlcs.errors import ValidationError
from mnlcs.experiment import ExperimentConfig
from mnlcs.fieller import FIELLER_FORMS, CiSettings
from mnlcs.model import Scheme
from mnlcs.stability import compute_cells
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


@pytest.mark.parametrize("body, where", [
    # the reader decodes ahead, so the header's read meets the byte on line 3
    ("J1,2000,5,US\nJ\xe9,2000,5,US\n".encode("latin-1"), "unreadable from line 1: 'utf-8' codec"),
    (TOKENIZER_FILES["field over the csv limit in a later chunk"].encode(),
     "unreadable from line 6: field larger than field limit"),
    (b"J1,2000,5,US\nJ1,2000,99999999999999999999,US\n", "(line 3: citations beyond int64"),
], ids=["latin-1 byte", "field over the csv limit", "count beyond int64"])
def test_unreadable_input_fails_with_one_json_error(tmp_path, capsys, body, where):
    path = tmp_path / "data.csv"
    path.write_bytes(HEADER_LINE.encode() + body)
    code = main(["ingest-check", "--input", str(path)])
    err = capsys.readouterr().err
    assert code == 1 and "Traceback" not in err
    error = json.loads(err)  # one object, nothing else
    assert set(error) == {"error", "message"} and error["error"] == "IngestError"
    assert error["message"].startswith(f"{path}: ") and where in error["message"]


def test_bytes_not_utf8_name_a_line_of_the_block_that_holds_them(tmp_path, capsys):
    path = tmp_path / "data.csv"
    path.write_bytes((HEADER_LINE + "J1,2000,5,US\n" * 5000 + "J\xe9,2000,5,US\n").encode("latin-1"))
    assert main(["ingest-check", "--input", str(path)]) == 1
    line = int(json.loads(capsys.readouterr().err)["message"].split("unreadable from line ")[1].split(":")[0])
    # past the first block, and not past the line with the byte
    assert 2 + dataio._BLOCK // len("J1,2000,5,US\n") <= line <= 5002


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


def test_indicator_stdout(data_csv, tmp_path, capsys):
    args = ["indicator", "--input", str(data_csv), "--countries", "AA",
            "--scheme", "inclusive", "--min-group-n", "5"]
    code = main(args)
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("journal_id,year,country,scheme,value")
    assert len(lines) == 1 + 8  # 2 journals x 4 years
    # the printed cells are the cells file's, in its order, with its columns;
    # the second selection leaves the 13-article BB exclusive groups without intervals
    shown = ("journal_id", "year", "country", "scheme", "value", "ci_low", "ci_high", "status")
    mixed = [*args[:3], "--countries", "BB,AA", "--min-group-n", "16"]
    for selection, n_cells, n_insufficient in ((args, 8, 0), (mixed, 32, 8)):
        assert main(selection) == 0
        printed = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        out = tmp_path / "cells.csv"
        assert main([*selection, "--out", str(out)]) == 0
        assert capsys.readouterr().out.startswith(f"wrote {n_cells} cells")
        with open(out, encoding="utf-8", newline="") as f:
            written = list(csv.DictReader(f))
        assert len(printed) == n_cells
        assert sum(r["status"] == "insufficient_data" for r in printed) == n_insufficient
        assert [[r[k] for k in shown] for r in printed] == [[r[k] for k in shown] for r in written]


@pytest.mark.parametrize("form", FIELLER_FORMS)
@pytest.mark.parametrize("scheme", [*(s.value for s in Scheme), "both"])
def test_indicator_prints_the_shown_columns_of_its_out_file(data_csv, tmp_path, capsys, form,
                                                            scheme):
    argv = ["indicator", "--input", str(data_csv), "--countries", "BB,AA", "--scheme", scheme,
            "--fieller-form", form, "--min-group-n", "2"]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "cells.csv"
    assert main([*argv, "--out", str(out)]) == 0
    # the file holds the cells of the chosen form and schemes
    schemes = list(Scheme) if scheme == "both" else [Scheme(scheme)]
    expected = io.StringIO()
    write_cells_csv(expected, compute_cells(ingest(data_csv)[0], ["BB", "AA"], schemes,
                                            CiSettings(form=form, min_group_n=2)))
    assert out.read_text(encoding="utf-8") == expected.getvalue()
    with open(out, encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    assert {r[3] for r in rows[1:]} == {s.value for s in schemes}
    shown = ("journal_id", "year", "country", "scheme", "value", "ci_low", "ci_high", "status")
    columns = [rows[0].index(name) for name in shown]
    assert printed == "".join(",".join(r[k] for k in columns) + "\n" for r in rows)


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


def test_bootstrap_prints_a_one_article_cohort_as_all_excluded(data_csv, capsys):
    with open(data_csv, "a", encoding="utf-8") as f:
        f.write("JX,2001,4,AA\n")
    assert main(["bootstrap", "--input", str(data_csv), "--countries", "AA",
                 "--replicates", "25"]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert len(rows) == 2 * (8 + 1)
    assert [(r["fraction"], r["n_valid"], r["n_excluded"]) for r in rows
            if r["journal_id"] == "JX"] == [("", "0", "25")] * 2


def test_bootstrap_rows_match_the_scalar_route(data_csv, capsys):
    with open(data_csv, "a", encoding="utf-8") as f:
        f.write("JX,2001,4,AA\n")
    assert main(["bootstrap", "--input", str(data_csv), "--countries", "BB,AA",
                 "--replicates", "25", "--seed", "3"]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    # rows per journal-year in (country, scheme name) order
    targets = [(country, scheme) for country in ("AA", "BB")
               for scheme in (Scheme.EXCLUSIVE, Scheme.INCLUSIVE)]
    expected = []
    for c in ingest_oracle(data_csv)[0]:
        valid = inside = np.zeros((25, len(targets)), dtype=bool)
        if c.size > 1:
            valid, inside = scalar_decisions(c, targets, 25, 3, CiSettings())
        for (country, scheme), val, ins in zip(targets, valid.sum(axis=0).tolist(),
                                               inside.sum(axis=0).tolist()):
            expected.append([c.journal_id, str(c.year), country, scheme.value,
                             fmt(ins / val) if val else "", str(val), str(25 - val)])
    assert rows[1:] == expected
    assert len(expected) == 4 * (8 + 1)
    assert ["JX", "2001", "AA", "inclusive", "", "0", "25"] in expected
    assert any(row[4] not in ("", "1") for row in expected)


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


def test_run_prints_the_summary_and_row_counts(data_csv, tmp_path, capsys):
    config = {"input": {"csv": str(data_csv)}, "countries": ["AA", "BB"], "max_offset": 3,
              "lag0_replicates": 10}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "b")]) == 0
    # the lag0 exclusion rows depend on the split-half RNG layout
    rows = {"cells.csv": 32, "curves.csv": 16, "curves_exclusive.csv": 8,
            "curves_inclusive.csv": 8, "exclusions.csv": 4, "series.csv": 32}
    assert capsys.readouterr().out == "countries: AA,BB\ncells: 32\ncurves: 4\n" + "".join(
        f"{name}: {n} rows\n" for name, n in rows.items()
    ) + f"outputs in {tmp_path / 'b'}\n"


@pytest.mark.parametrize("command, flags", [
    ("bootstrap", ["--countries", "AA", "--replicates", "0"]),
    ("indicator", ["--top-k", "0"]),
    ("run", {"countries": {"top": 0}}),
    ("indicator", ["--min-group-n", "1"]),
    ("indicator", ["--countries", "US,us"]),
    ("run", {"max_offset": "x"}),
    ("run", {"schemes": ["inclusive", "inclusive"]}),
    ("run", {"year_min": "x"}),
    ("run", {"max_offset": 2.5}),
    ("run", {"seed": 1.9}),
    ("run", {"lag0_replicates": True}),
    ("run", {"year_min": 2001.5}),
    ("run", {"year_min": 2003, "year_max": 2001}),
    ("indicator", ["--year-min", "2003", "--year-max", "2001"]),
    ("run", {"alpha": 0.0}),
    ("run", {"fieller_form": "nope"}),
    ("run", {"schemes": ["nope"]}),
])
def test_bad_settings_fail_with_one_json_error(data_csv, tmp_path, capsys, command, flags):
    if command == "run":
        config_path = tmp_path / "config.json"
        config = {"input": {"csv": str(data_csv)}, "countries": ["AA"], **flags}
        config_path.write_text(json.dumps(config), encoding="utf-8")
        argv = ["run", "--config", str(config_path)]
    else:
        argv = [command, "--input", str(data_csv), *flags]
    code = main([*argv, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code != 0
    assert "Traceback" not in err
    error = json.loads(err)
    assert set(error) == {"error", "message"}  # one object, nothing else
    assert "Error(" not in error["message"]  # the exception's text, not its repr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field", ["countries", "schemes"])
def test_run_rejects_an_empty_selection(data_csv, tmp_path, capsys, field):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"input": {"csv": str(data_csv)}, "countries": ["AA"],
                                       field: []}), encoding="utf-8")
    assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 1
    error = json.loads(capsys.readouterr().err)  # one object, nothing else
    assert error["error"] == "ValidationError" and field in error["message"]
    assert not (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize("command", ["run", "indicator", "bootstrap"])
def test_top_k_over_data_without_countries_fails(tmp_path, capsys, command):
    data = tmp_path / "data.csv"
    data.write_text("journal_id,year,citations,countries\n" + "".join(
        f"J{j},{year},{j + year % 3},\n" for j in (1, 2) for year in (2000, 2001, 2002)
    ), encoding="utf-8")
    out = tmp_path / "out"
    if command == "run":
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"input": {"csv": str(data)}, "countries": {"top": 3}}),
                               encoding="utf-8")
        argv = ["run", "--config", str(config_path)]
    else:
        argv = [command, "--input", str(data), "--top-k", "3"]
    assert main([*argv, "--out", str(out)]) == 1
    error = json.loads(capsys.readouterr().err)  # one object, nothing else
    assert error["error"] == "ValidationError" and "countries" in error["message"]
    assert not (out / "manifest.json").exists() and not out.is_file()


@pytest.mark.parametrize("via, where, key", [
    (via, where, key)
    for where, key in [((), "max_ofset"), (("input",), "scenaro"), (("input", "scenario"), "n_journal"),
                       (("input", "scenario", "groups", 0), "shar"),
                       (("input", "scenario", "capability_mode"), "slop")]
    for via in ("from_dict", "run", "simulate")
    if via != "simulate" or where[:2] == ("input", "scenario")
])
def test_unknown_config_keys_fail_naming_the_key(tmp_path, capsys, via, where, key):
    scenario = {**SCENARIO, "groups": [dict(g) for g in SCENARIO["groups"]],
                "capability_mode": {"mode": "linear_drift", "slope": 0.1}}
    config = {"input": {"scenario": scenario}, "countries": ["AA"], "lag0_replicates": 2}
    node = config
    for step in where:
        node = node[step]
    node[key] = 1
    if via == "from_dict":
        with pytest.raises(ValidationError, match=key):
            ExperimentConfig.from_dict(config)
        return
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config if via == "run" else scenario), encoding="utf-8")
    assert main([via, "--config", str(config_path), "--out", str(tmp_path / "out")]) == 1
    error = json.loads(capsys.readouterr().err)  # one object, nothing else
    assert error["error"] == "ValidationError" and key in error["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["indicator", "bootstrap"])
def test_stdout_and_out_file_share_one_csv_form(data_csv, tmp_path, capsys, command):
    # csv.writer must quote this journal id, on stdout as in the file
    quoted = tmp_path / "quoted.csv"
    quoted.write_text(data_csv.read_text(encoding="utf-8").replace("\nJ1,", '\n"J""1",'),
                      encoding="utf-8")
    argv = [command, "--input", str(quoted), "--countries", "AA,BB"]
    argv += ["--replicates", "5"] if command == "bootstrap" else []
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert '\n"J""1",2000,AA,' in printed
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == 0
    if command == "bootstrap":
        assert printed.encode("utf-8") == out.read_bytes()
        return
    with open(out, encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    columns = [rows[0].index(name) for name in printed.split("\n", 1)[0].split(",")]
    expected = io.StringIO()
    csv.writer(expected, lineterminator="\n").writerows([[r[k] for k in columns] for r in rows])
    assert printed.encode("utf-8") == expected.getvalue().encode("utf-8")


def test_run_rejects_an_out_that_is_not_a_path(data_csv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps(
        {"input": {"csv": str(data_csv)}, "countries": ["AA"], "out": 5}), encoding="utf-8")
    for out_flag in ([], ["--out", "res"]):
        assert main(["run", "--config", "config.json", *out_flag]) == 1
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "ValidationError" and "out" in error["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "data.csv"]


@pytest.mark.parametrize("command, kind", [
    ("run --out file", "FileExistsError"),
    ("run --out file/sub", "NotADirectoryError"),
    ("simulate --out dir", "IsADirectoryError"),
    ("indicator --input dir", "IsADirectoryError"),
])
def test_file_system_errors_fail_with_one_json_error(data_csv, tmp_path, capsys, command, kind):
    (tmp_path / "file").write_text("", encoding="utf-8")
    (tmp_path / "dir").mkdir()
    name, flag, path = command.split()
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SCENARIO if name == "simulate" else
                                 {"input": {"csv": str(data_csv)}, "countries": ["AA"]}),
                      encoding="utf-8")
    argv = [name, flag, str(tmp_path / path)]
    argv += ["--countries", "AA"] if name == "indicator" else ["--config", str(config)]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1 and "Traceback" not in err
    error = json.loads(err)  # one object, nothing else
    assert set(error) == {"error", "message"} and error["error"] == kind


@pytest.mark.parametrize("command, config, flags, named", [
    ("run", {"input": "data.csv", "countries": ["AA"]}, [], "input"),
    ("run", {"input": "scenario.csv", "countries": ["AA"]}, ["--seed", "3"], "input"),
    ("run", {"input": {"scenario": [SCENARIO]}, "countries": ["AA"]}, [], "input"),
    ("run", {"input": {"scenario": {**SCENARIO, "capability_mode": "static"}}, "countries": ["AA"]},
     [], "capability_mode"),
    ("run", [SCENARIO], [], "JSON object"),
    ("run", [SCENARIO], ["--seed", "3"], "JSON object"),
    ("simulate", [SCENARIO], [], "JSON object"),
    ("simulate", {**SCENARIO, "groups": [1]}, [], "GroupSpec"),
    ("simulate", {**SCENARIO, "groups": 1}, [], "ScenarioSpec.groups"),
    ("simulate", {**SCENARIO, "capability_mode": "static"}, [], "capability_mode"),
    ("simulate", {**SCENARIO, "field_mu": "x"}, [], "ScenarioSpec.field_mu"),
    ("simulate", {**SCENARIO, "groups": [{**SCENARIO["groups"][0], "share": "x"}]}, [],
     "GroupSpec.share"),
    ("simulate", {**SCENARIO, "field_sigma": None}, [], "ScenarioSpec.field_sigma"),
])
def test_malformed_json_fails_with_one_json_error(tmp_path, capsys, command, config, flags, named):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    code = main([command, "--config", str(config_path), "--out", str(tmp_path / "out"), *flags])
    err = capsys.readouterr().err
    assert code == 1
    error = json.loads(err)  # one object, nothing else
    assert set(error) == {"error", "message"} and named in error["message"]


@pytest.mark.parametrize("command, config, flags, named", [
    ("run", {"countries": ["AA"], "seed": -1}, [], "seed"),
    ("run", {"countries": ["AA"]}, ["--seed", "-1"], "seed"),
    ("run", {"input": {"scenario": {**SCENARIO, "rng_seed": -1}}, "countries": ["AA"]}, [],
     "rng_seed"),
    ("run", {"input": {"scenario": SCENARIO}, "countries": ["AA"]}, ["--seed", "-1"], "seed"),
    ("simulate", SCENARIO, ["--seed", "-1"], "rng_seed"),
    ("simulate", {**SCENARIO, "rng_seed": -1}, [], "rng_seed"),
    ("bootstrap", None, ["--countries", "AA", "--seed", "-1"], "seed"),
])
def test_negative_seed_fails_with_one_json_error_before_any_output(
    data_csv, tmp_path, capsys, command, config, flags, named
):
    out = tmp_path / "out"
    if command == "bootstrap":
        argv = [command, "--input", str(data_csv)]
    else:
        if command == "run":
            config = {"input": {"csv": str(data_csv)}, **config}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        argv = [command, "--config", str(config_path)]
    code = main([*argv, "--out", str(out), *flags])
    err = capsys.readouterr().err
    assert code == 1
    error = json.loads(err)  # one object, nothing else
    assert error["error"] == "ValidationError" and named in error["message"]
    assert not out.exists()


@pytest.mark.parametrize("countries", ["US", 5, None, {"of": 4}, {"top": 3, "tpo": 3}])
def test_countries_other_than_a_list_or_top_k_fail_naming_the_field(
    data_csv, tmp_path, capsys, countries
):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"input": {"csv": str(data_csv)}, "countries": countries}),
                           encoding="utf-8")
    code = main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")])
    error = json.loads(capsys.readouterr().err)
    assert code == 1
    assert error["error"] == "ValidationError" and "countries" in error["message"]
    assert not (tmp_path / "out").exists()


def test_run_flags_override_the_config_in_the_manifest(data_csv, tmp_path):
    config = {"input": {"csv": str(data_csv)}, "countries": ["AA", "BB"], "schemes": "both",
              "fieller_form": "standard", "min_group_n": 5, "lag0_replicates": 0}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out), "--scheme", "exclusive",
                 "--fieller-form", "printed", "--min-group-n", "3"]) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"]["schemes"] == ["exclusive"]
    assert manifest["config"]["fieller_form"] == "printed"
    assert manifest["config"]["min_group_n"] == 3
    with open(out / "cells.csv", encoding="utf-8", newline="") as f:
        assert {row["scheme"] for row in csv.DictReader(f)} == {"exclusive"}


@pytest.mark.parametrize("countries", [["AA"], {"top": 3}])
def test_countries_list_or_top_k_run(data_csv, tmp_path, countries):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"input": {"csv": str(data_csv)}, "countries": countries}),
                           encoding="utf-8")
    assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "manifest.json").exists()
