"""Self-tests of the benchmark's own code; they need no mnlcs import.

Run from the root of a checkout: python3 -m pytest perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
from spans import Hook, Span, Tracer, absent_names, summarize, target  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_self_time_on_synthetic_span_tree():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("leaf", 2.0, 3.0, 1),
        Span("b", 5.0, 6.0, 0),
        Span("b", 6.5, 7.5, 0),
    ]
    s = summarize(spans)
    assert s["root"]["self_s"] == pytest.approx(10.0 - 3.0 - 1.0 - 1.0)
    assert s["a"]["self_s"] == pytest.approx(2.0)
    assert s["leaf"]["self_s"] == pytest.approx(1.0)
    assert s["b"] == pytest.approx({"calls": 2, "total_s": 2.0, "self_s": 2.0, "rss_rise_mb": 0.0})


def test_overlapping_children_are_covered_once():
    spans = [Span("p", 0.0, 10.0, -1), Span("c", 1.0, 5.0, 0), Span("c", 3.0, 12.0, 0)]
    assert summarize(spans)["p"]["self_s"] == pytest.approx(1.0)


def test_tracer_records_nesting_and_reports_absent_hooks():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: inner() or inner())
    outer()
    s = summarize(tracer.spans)
    assert s["outer"]["calls"] == 1 and s["inner"]["calls"] == 2
    assert s["outer"]["total_s"] == 5.0 and s["outer"]["self_s"] == 3.0
    hooks = [
        Hook("gone.attr", "json", "no_such_function"),
        Hook("gone.module", "no_such_module_here", "f"),
        Hook("json.dumps", "json", "dumps"),
        Hook("json.dumps", "json", "no_such_writer"),
    ]
    missing = tracer.install(hooks)
    try:
        assert absent_names(hooks, missing) == ["gone.attr", "gone.module"]
        # a name that keeps one target is not absent, but its lost target is reported
        assert [target(h) for h in missing] == [
            "gone.attr:json.no_such_function", "gone.module:no_such_module_here.f",
            "json.dumps:json.no_such_writer"]
        json.dumps({})
        assert summarize(tracer.spans)["json.dumps"]["calls"] == 1
    finally:
        json.dumps = json.dumps.__wrapped__


def test_partly_missing_hook_flags_its_metric():
    found = run.missing_by_metric(["dataio.write:mnlcs.experiment.write_series_csv",
                                   "rngtools.stream:mnlcs.bootstrap.stream"])
    assert found == {"dataio.write_s": ["dataio.write:mnlcs.experiment.write_series_csv"],
                     "rngtools.stream_s": ["rngtools.stream:mnlcs.bootstrap.stream"],
                     "rngtools.stream_calls": ["rngtools.stream:mnlcs.bootstrap.stream"]}


def write_bundle(path: Path, *, value: str = "1.1", fraction: str = "0.8") -> Path:
    """A two-cohort, one-country bundle: 500 replicates x 2 cohorts x 2 targets."""
    path.mkdir()
    files = {
        "cells.csv": [
            "journal_id,year,country,scheme,n_group,n_field,value,ci_low,ci_high,h,se_mnlcs,status",
            f"J1,2000,AA,exclusive,7,30,{value},0.5,1.9,0.01,0.3,ok",
            "J1,2000,AA,inclusive,10,30,1.2,0.7,1.8,0.01,0.25,ok",
            "J1,2001,AA,exclusive,3,30,0.9,,,,,insufficient_data",
            "J1,2001,AA,inclusive,9,30,1.0,0.6,1.5,0.01,0.2,ok",
        ],
        "curves.csv": [
            "country,scheme,offset_years,inside_fraction,n_comparisons,simulated",
            f"AA,exclusive,0,{fraction},900,true",
            "AA,exclusive,1,1,1,false",
            "AA,inclusive,0,0.85,1000,true",
            "AA,inclusive,1,1,1,false",
        ],
        "series.csv": [
            "journal_id,country,scheme,year,value,ci_low,ci_high,status",
            "J1,AA,inclusive,2000,1.2,0.7,1.8,ok",
        ],
        "exclusions.csv": [
            "stage,reason,count,journal_id,year,country,scheme,offset",
            "lag0,replicates_excluded,100,J1,2000,AA,exclusive,0",
        ],
    }
    for name, lines in files.items():
        (path / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    outputs = {name: len(lines) - 1 for name, lines in files.items()}
    (path / "manifest.json").write_text(json.dumps(
        {"config": {"schemes": ["inclusive", "exclusive"]}, "outputs": outputs}))
    (path / "resolved.json").write_text(json.dumps({"countries": ["AA"]}))
    return path


def test_check_passes_reference_and_a_small_offset0_shift(tmp_path):
    reference = check.reference_entry(write_bundle(tmp_path / "ref"))
    kw = {"replicates": 500, "cohorts": 2, "reference": reference}
    assert check.problems(tmp_path / "ref", **kw) == []
    # a different random-stream layout moves the estimate a little
    assert check.problems(write_bundle(tmp_path / "near", fraction="0.82"), **kw) == []


def test_check_rejects_altered_cell_and_out_of_band_offset0(tmp_path):
    reference = check.reference_entry(write_bundle(tmp_path / "ref"))
    bad = write_bundle(tmp_path / "bad", value="1.2", fraction="0.99")
    found = check.problems(bad, replicates=500, cohorts=2, reference=reference,
                           expected=check.digests(tmp_path / "ref"))
    assert "cells.csv differs from the reference" in found
    assert "cells.csv differs from the run without split-half" in found
    assert any(p.startswith("offset-0 AA/exclusive") for p in found)
    assert len(found) == 3


def test_check_invariants_without_reference(tmp_path):
    bundle = write_bundle(tmp_path / "b")
    assert check.problems(bundle, replicates=500, cohorts=2) == []
    assert any("accounting" in p for p in check.problems(bundle, replicates=600, cohorts=2))
    cells = bundle / "cells.csv"
    cells.write_text(cells.read_text().replace("AA,exclusive,7,", "AA,exclusive,11,"))
    assert any("exceeds inclusive" in p for p in check.problems(bundle, replicates=500, cohorts=2))


def test_unreadable_bundle_fails_the_run_instead_of_the_command(tmp_path):
    bundle = write_bundle(tmp_path / "b")
    (bundle / "exclusions.csv").unlink()
    r = run.Run(traced=False, timing={"run_s": 1.0})
    run.check_run(r, bundle, WORKLOADS["paper"], None, None)
    assert r.failed and r.problems[0].startswith("check raised: FileNotFoundError")
    assert r.counts == {} and r.files == {}


def test_speed_factor_is_geometric_mean_over_parts_of_mean_over_probes():
    ref = probe.REFERENCE_S
    assert probe.speed(ref) == pytest.approx(1.0)
    slow = {"python": 2 * ref["python"], "numpy": 8 * ref["numpy"]}
    assert probe.speed(slow) == pytest.approx(4.0)
    assert probe.speed(ref, {k: 3 * v for k, v in ref.items()}) == pytest.approx(2.0)
    assert set(probe.probe()) == set(ref)


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
