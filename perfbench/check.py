"""Correctness check of one result bundle, and the exact counts read from it.

The parts of a bundle that do not depend on the split-half random streams
must be byte-identical to those of a run on the generated data without
split-half (so a CSV run is checked against the generated path), and, on
seeds with a stored reference, to the reference: cells.csv, series.csv, the
curves.csv rows at offset >= 1 and the exclusions.csv rows of the cells and
curve stages.

The offset-0 rows are split-half estimates. They must be flagged simulated,
and on reference seeds each inside_fraction must lie within a binomial band
around the reference, so a declared change of the random-stream layout
passes while a broken split-half fails.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import Counter
from pathlib import Path

# Half-width of the offset-0 band in binomial standard deviations of the
# difference of two independent estimates. Unequal valid counts across
# cohorts make the real variance about 1.5x the binomial one on the paper
# shape, so 6 binomial sd are about 5 real ones.
BAND_Z = 6.0


def _rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as f:
        return list(csv.reader(f))


def _sha256(rows: list[list[str]]) -> str:
    text = "".join(",".join(row) + "\n" for row in rows)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _where(rows: list[list[str]], column: str, keep) -> list[list[str]]:
    j = rows[0].index(column)
    return [rows[0]] + [r for r in rows[1:] if keep(r[j])]


def digests(bundle: Path) -> dict[str, str]:
    """SHA-256 of the parts of a bundle the split-half streams cannot change."""
    return {
        "cells.csv": hashlib.sha256((bundle / "cells.csv").read_bytes()).hexdigest(),
        "series.csv": hashlib.sha256((bundle / "series.csv").read_bytes()).hexdigest(),
        "curves.csv offset>=1": _sha256(
            _where(_rows(bundle / "curves.csv"), "offset_years", lambda v: v != "0")),
        "exclusions.csv cells+curve": _sha256(
            _where(_rows(bundle / "exclusions.csv"), "stage", lambda v: v in ("cells", "curve"))),
    }


def offset0(bundle: Path) -> dict[str, dict]:
    """Offset-0 curve rows keyed by country/scheme."""
    rows = _rows(bundle / "curves.csv")
    header = rows[0]
    out = {}
    for row in rows[1:]:
        r = dict(zip(header, row))
        if r["offset_years"] == "0":
            out[f"{r['country']}/{r['scheme']}"] = {
                "fraction": float(r["inside_fraction"]),
                "n": int(r["n_comparisons"]),
                "simulated": r["simulated"] == "true",
            }
    return out


def reference_entry(bundle: Path) -> dict:
    return {
        "digests": digests(bundle),
        "offset0": {k: [v["fraction"], v["n"]] for k, v in offset0(bundle).items()},
    }


def band(fraction: float, n: int) -> float:
    """Allowed |difference| of an offset-0 fraction from a reference over n trials."""
    p = min(max(fraction, 1.0 / (n + 2)), 1.0 - 1.0 / (n + 2))
    return BAND_Z * math.sqrt(2.0 * p * (1.0 - p) / n)


def counts(bundle: Path) -> dict[str, int]:
    """Exact counters of a bundle; they must repeat on every run of one commit."""
    manifest = json.loads((bundle / "manifest.json").read_text(encoding="utf-8"))
    cells = _rows(bundle / "cells.csv")
    status = Counter(r[cells[0].index("status")] for r in cells[1:])
    curves = _rows(bundle / "curves.csv")
    off, n = curves[0].index("offset_years"), curves[0].index("n_comparisons")
    excl = _rows(bundle / "exclusions.csv")
    by_stage = Counter()
    for r in excl[1:]:
        by_stage[r[0]] += int(r[2])
    return {
        "synth.records": manifest["outputs"].get("data.csv", 0),
        "stability.cells_ok": status["ok"],
        "stability.cells_unbounded": status["unbounded_fieller"],
        "stability.cells_insufficient": status["insufficient_data"],
        "stability.pairs": sum(int(r[n]) for r in curves[1:] if r[off] != "0"),
        "stability.series_points": len(_rows(bundle / "series.csv")) - 1,
        "bootstrap.replicates_valid": sum(int(r[n]) for r in curves[1:] if r[off] == "0"),
        "bootstrap.replicates_excluded": by_stage["lag0"],
        "exclusions.cells": by_stage["cells"],
        "exclusions.curve": by_stage["curve"],
        "exclusions.lag0": by_stage["lag0"],
        "dataio.rows_written": sum(manifest["outputs"].values()),
        "dataio.bytes_written": sum(p.stat().st_size for p in bundle.iterdir()),
    }


def problems(bundle: Path, *, replicates: int, cohorts: int,
             expected: dict[str, str] | None = None,
             reference: dict | None = None) -> list[str]:
    """Everything wrong with a bundle; an empty list means it passes.

    ``expected`` holds the digests of a run on the generated data without
    split-half, ``reference`` the stored entry for this seed (None when
    there is none).
    """
    found = []
    got = digests(bundle)
    for name, want in (expected or {}).items():
        if got[name] != want:
            found.append(f"{name} differs from the run without split-half")
    if reference is not None:
        for name, want in reference["digests"].items():
            if got[name] != want:
                found.append(f"{name} differs from the reference")

    points = offset0(bundle)
    if replicates == 0 and points:
        found.append("offset-0 rows without split-half replicates")
    for key, p in sorted(points.items()):
        if not p["simulated"]:
            found.append(f"offset-0 row {key} is not flagged simulated")
    if reference is not None and replicates > 0:
        ref = reference["offset0"]
        if set(points) != set(ref):
            found.append(f"offset-0 targets {sorted(points)} differ from reference {sorted(ref)}")
        for key in sorted(set(points) & set(ref)):
            f_ref, n_ref = ref[key]
            width = band(f_ref, min(n_ref, points[key]["n"]))
            if abs(points[key]["fraction"] - f_ref) > width:
                found.append(
                    f"offset-0 {key}: inside_fraction {points[key]['fraction']:.6f} "
                    f"outside {f_ref:.6f} +/- {width:.6f}")

    resolved = json.loads((bundle / "resolved.json").read_text(encoding="utf-8"))
    manifest = json.loads((bundle / "manifest.json").read_text(encoding="utf-8"))
    targets = len(resolved["countries"]) * len(manifest["config"]["schemes"])
    c = counts(bundle)
    attempted = c["bootstrap.replicates_valid"] + c["bootstrap.replicates_excluded"]
    if attempted != replicates * cohorts * targets:
        found.append(f"split-half accounting: valid + excluded = {attempted}, "
                     f"expected {replicates} x {cohorts} x {targets}")

    cells = _rows(bundle / "cells.csv")
    h = {name: cells[0].index(name) for name in ("journal_id", "year", "country", "scheme", "n_group")}
    n_group = {(r[h["journal_id"]], r[h["year"]], r[h["country"]], r[h["scheme"]]): int(r[h["n_group"]])
               for r in cells[1:]}
    for (journal, year, country, scheme), n in n_group.items():
        if scheme == "exclusive" and n > n_group.get((journal, year, country, "inclusive"), -1):
            found.append(f"exclusive n_group {n} exceeds inclusive for {journal}/{year}/{country}")
            break
    return found
