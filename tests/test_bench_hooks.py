"""The benchmark's hooks against the program: every attribute that
``perfbench/child.py`` wraps exists, a traced run of the child writes a
result with no absent hook, no missing target and no non-JSON number, and
every hook but ``fieller.estimate`` fires in a generated run or a CSV run."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


@pytest.fixture
def child(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("child")


def test_every_hook_target_is_callable(child):
    for hook in child.HOOKS:
        module = importlib.import_module(hook.module)
        assert callable(getattr(module, hook.attr, None)), f"{hook.module}.{hook.attr}"


def _traced_run(tmp_path, config, name):
    """The result of a traced child run of ``config``, with its bundle in tmp_path/name."""
    spec, result_path = tmp_path / f"{name}.json", tmp_path / f"{name}-result.json"
    spec.write_text(json.dumps({"config": config, "out_dir": str(tmp_path / name), "trace": True}))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, str(PERFBENCH / "child.py"), str(spec), str(result_path)],
                   env=env, cwd=tmp_path, check=True, timeout=120)
    return json.loads(result_path.read_text())


def test_traced_child_run_reports_every_hook_as_json(tmp_path, child):
    scenario = {
        "n_journals": 2, "year_start": 2000, "year_end": 2003, "field_size_per_year": 60,
        "groups": [{"country": "AA", "share": 0.3, "mu": 1.0, "sigma": 1.0},
                   {"country": "BB", "share": 0.2, "mu": 1.2, "sigma": 1.0}],
        "collab_fraction": 0.2, "rng_seed": 3,
    }
    config = {"input": {"scenario": scenario}, "countries": {"top": 2}, "max_offset": 3,
              "lag0_replicates": 5, "seed": 3}
    result = _traced_run(tmp_path, config, "out")
    assert result["absent"] == [] and result["missing_targets"] == []
    assert result["hooks"]["bootstrap.lag0_batch"]["calls"] > 0
    json.dumps(result, allow_nan=False)  # raises on a NaN or an infinity

    # the same run on its own data.csv reaches the ingest hook instead of generate
    from_csv = _traced_run(tmp_path, {**config, "input": {"csv": str(tmp_path / "out" / "data.csv")}},
                           "csv")
    assert from_csv["absent"] == [] and from_csv["missing_targets"] == []
    fired = {name for run in (result, from_csv) for name, hook in run["hooks"].items()
             if hook["calls"] > 0}
    # every hook fires in one of the two runs, except fieller.estimate: it wraps
    # mnlcs.stability.estimate, which a run never calls (the cells take one
    # interval_columns call instead)
    assert fired == {hook.name for hook in child.HOOKS} - {"fieller.estimate"}
