"""The benchmark's hooks against the program: every attribute that
``perfbench/child.py`` wraps exists, and a traced run of the child writes a
result with no absent hook, no missing target and no non-JSON number."""

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


def test_traced_child_run_reports_every_hook_as_json(tmp_path):
    scenario = {
        "n_journals": 2, "year_start": 2000, "year_end": 2003, "field_size_per_year": 60,
        "groups": [{"country": "AA", "share": 0.3, "mu": 1.0, "sigma": 1.0},
                   {"country": "BB", "share": 0.2, "mu": 1.2, "sigma": 1.0}],
        "collab_fraction": 0.2, "rng_seed": 3,
    }
    config = {"input": {"scenario": scenario}, "countries": {"top": 2}, "max_offset": 3,
              "lag0_replicates": 5, "seed": 3}
    spec, result_path = tmp_path / "spec.json", tmp_path / "result.json"
    spec.write_text(json.dumps({"config": config, "out_dir": str(tmp_path / "out"), "trace": True}))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, str(PERFBENCH / "child.py"), str(spec), str(result_path)],
                   env=env, cwd=tmp_path, check=True, timeout=120)
    result = json.loads(result_path.read_text())
    assert result["absent"] == [] and result["missing_targets"] == []
    assert result["hooks"]["bootstrap.lag0_batch"]["calls"] > 0
    json.dumps(result, allow_nan=False)  # raises on a NaN or an infinity
