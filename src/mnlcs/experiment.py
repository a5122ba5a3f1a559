"""End-to-end experiment driver.

Takes a declarative configuration (data from a CSV file or a synthetic
scenario, countries, counting schemes, offsets, interval settings, seed),
computes all indicator cells, coverage curves with their split-half offset-0
anchors, and per-journal time series, and persists everything alongside a
manifest. Identical configuration and seed reproduce identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path
from typing import Sequence

from . import synth
from .counting import top_countries
from .dataio import (
    config_hash,
    ingest,
    write_cells_csv,
    write_curves_csv,
    write_exclusions_csv,
    write_manifest,
    write_records_csv,
    write_scheme_curves_csv,
    write_series_csv,
)
from .errors import ValidationError
from .fieller import CiSettings
from .model import Cohort, Scheme
from .stability import (
    CellGrid,
    CoverageCurve,
    compute_cells,
    coverage_curve,
    lag0_curve_points,
    series_report,
)


CAPABILITY_MODES = {
    "static": synth.Static,
    "random_walk": synth.RandomWalk,
    "linear_drift": synth.LinearDrift,
    "independent_resample": synth.IndependentResample,
}
_MODE_NAMES = {cls: name for name, cls in CAPABILITY_MODES.items()}
# synth uses postponed annotations, so field types arrive as these strings
_SCALARS = {"int": int, "float": float, "str": str}


def _from_json(cls, d: dict, **built):
    """Dataclass ``cls`` from JSON ``d``: the fields in ``built`` as given,
    every other field present in ``d`` converted to its annotated scalar
    type (so "step": 1 becomes 1.0); a missing field without a default
    raises KeyError, a field of any other type TypeError."""
    for f in fields(cls):
        required = f.default is MISSING and f.default_factory is MISSING
        if f.name not in built and (f.name in d or required):
            if f.type not in _SCALARS:
                raise TypeError(f"no JSON conversion for {cls.__name__}.{f.name}: {f.type!r}")
            built[f.name] = _SCALARS[f.type](d[f.name])
    return cls(**built)


def mode_to_dict(mode: synth.CapabilityMode) -> dict:
    if type(mode) not in _MODE_NAMES:
        raise ValidationError(f"unknown capability mode {mode!r}")
    return {"mode": _MODE_NAMES[type(mode)], **asdict(mode)}


def mode_from_dict(d: dict) -> synth.CapabilityMode:
    if d.get("mode") not in CAPABILITY_MODES:
        raise ValidationError(f"unknown capability mode name {d.get('mode')!r}")
    return _from_json(CAPABILITY_MODES[d["mode"]], d)


def scenario_to_dict(spec: synth.ScenarioSpec) -> dict:
    return {**asdict(spec), "capability_mode": mode_to_dict(spec.capability_mode)}


def scenario_from_dict(d: dict) -> synth.ScenarioSpec:
    try:
        return _from_json(
            synth.ScenarioSpec,
            d,
            groups=tuple(_from_json(synth.GroupSpec, g) for g in d["groups"]),
            capability_mode=mode_from_dict(d.get("capability_mode", {"mode": "static"})),
        )
    except KeyError as exc:
        raise ValidationError(f"scenario config missing key: {exc}") from None


def parse_schemes(value: str | Sequence[str]) -> tuple[Scheme, ...]:
    if isinstance(value, str):
        if value == "both":
            return (Scheme.INCLUSIVE, Scheme.EXCLUSIVE)
        value = [value]
    return tuple(Scheme(v) for v in value)


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved experiment parameters; ``to_dict`` is the canonical form that
    gets hashed into the manifest."""

    input_csv: str | None = None
    scenario: synth.ScenarioSpec | None = None
    countries: tuple[str, ...] | None = None
    top_k: int | None = None
    schemes: tuple[Scheme, ...] = (Scheme.INCLUSIVE, Scheme.EXCLUSIVE)
    year_min: int | None = None
    year_max: int | None = None
    max_offset: int = 18
    min_group_n: int = 5
    alpha: float = 0.025
    fieller_form: str = "standard"
    lag0_replicates: int = 1000
    seed: int = 0

    def __post_init__(self):
        if (self.input_csv is None) == (self.scenario is None):
            raise ValidationError("config needs exactly one of input_csv or scenario")
        if self.countries is None and self.top_k is None:
            raise ValidationError("config needs countries or top_k")
        if self.max_offset < 1:
            raise ValidationError("max_offset must be >= 1")
        if self.lag0_replicates < 0:
            raise ValidationError("lag0_replicates must be >= 0")

    def to_dict(self) -> dict:
        if self.scenario is not None:
            input_part: dict = {"scenario": scenario_to_dict(self.scenario)}
        else:
            input_part = {"csv": self.input_csv}
        return {
            "input": input_part,
            "countries": list(self.countries) if self.countries is not None else {"top": self.top_k},
            "schemes": [s.value for s in self.schemes],
            "year_min": self.year_min,
            "year_max": self.year_max,
            "max_offset": self.max_offset,
            "min_group_n": self.min_group_n,
            "alpha": self.alpha,
            "fieller_form": self.fieller_form,
            "lag0_replicates": self.lag0_replicates,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        input_part = d.get("input", {})
        countries_part = d.get("countries")
        countries: tuple[str, ...] | None = None
        top_k: int | None = None
        if isinstance(countries_part, dict):
            top_k = int(countries_part["top"])
        elif countries_part is not None:
            countries = tuple(str(c) for c in countries_part)
        return cls(
            input_csv=input_part.get("csv"),
            scenario=(
                scenario_from_dict(input_part["scenario"])
                if "scenario" in input_part
                else None
            ),
            countries=countries,
            top_k=top_k,
            schemes=parse_schemes(d.get("schemes", "both")),
            year_min=d.get("year_min"),
            year_max=d.get("year_max"),
            max_offset=int(d.get("max_offset", 18)),
            min_group_n=int(d.get("min_group_n", 5)),
            alpha=float(d.get("alpha", 0.025)),
            fieller_form=str(d.get("fieller_form", "standard")),
            lag0_replicates=int(d.get("lag0_replicates", 1000)),
            seed=int(d.get("seed", 0)),
        )


@dataclass
class ExperimentResult:
    out_dir: Path
    countries: tuple[str, ...]
    countries_complete: bool
    years: range
    n_cells: int
    curves: list[CoverageCurve]
    outputs: dict[str, int]


def load_cohorts(config: ExperimentConfig) -> list[Cohort]:
    """The run's cohorts, kept by ingest's inclusive year bounds (None is open)."""
    low, high = config.year_min, config.year_max
    if config.input_csv is not None:
        return ingest(config.input_csv, year_min=low, year_max=high)[0]
    return [c for c in synth.generate(config.scenario)
            if (low is None or c.year >= low) and (high is None or c.year <= high)]


def run_experiment(config: ExperimentConfig, out_dir: str | Path) -> ExperimentResult:
    """Run the full pipeline and write the results bundle into ``out_dir``.

    Writes cells.csv, curves.csv, per-scheme plot views, series.csv,
    exclusions.csv, data.csv (for scenario inputs, so the generated dataset
    itself is inspectable and re-ingestable), resolved.json and, last of
    all, manifest.json, so a bundle holding a manifest is complete; one left
    by an earlier run is deleted before anything else happens.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name in ("manifest.json", "resolved.json"):
        (out / name).unlink(missing_ok=True)

    cohorts = load_cohorts(config)
    if not cohorts:
        raise ValidationError("no cohorts to analyse (empty input after filters)")

    if config.year_min is not None and config.year_max is not None:
        years = range(config.year_min, config.year_max + 1)
    else:
        cohort_years = [c.year for c in cohorts]
        years = range(min(cohort_years), max(cohort_years) + 1)

    if config.countries is not None:
        countries = config.countries
        complete = True
    else:
        ranked = top_countries(cohorts, config.top_k)
        countries = ranked.countries
        complete = ranked.complete

    settings = CiSettings(
        alpha=config.alpha, form=config.fieller_form, min_group_n=config.min_group_n
    )

    exclusions = []
    cells = compute_cells(cohorts, countries, config.schemes, settings, exclusions)

    targets = [(country, scheme) for country in countries for scheme in config.schemes]
    lag0_points: dict = {t: None for t in targets}
    if config.lag0_replicates > 0:
        lag0_points = lag0_curve_points(
            cohorts,
            targets,
            replicates=config.lag0_replicates,
            rng_seed=config.seed,
            settings=settings,
            exclusions=exclusions,
        )

    grid = CellGrid(cells, years)
    curves = []
    for country, scheme in targets:
        curve = coverage_curve(
            grid,
            country=country,
            scheme=scheme,
            max_offset=config.max_offset,
            lag0_point=lag0_points[(country, scheme)],
            exclusions=exclusions,
        )
        if curve.points:
            curves.append(curve)

    # lazy: write_series_csv builds each series as it writes it, one at a time
    series = (
        (journal_id, country, scheme.value,
         series_report(grid, journal_id=journal_id, country=country, scheme=scheme))
        for journal_id in sorted({c.journal_id for c in cohorts})
        for country in countries
        for scheme in config.schemes
    )

    outputs = {
        "cells.csv": write_cells_csv(out / "cells.csv", cells),
        "curves.csv": write_curves_csv(out / "curves.csv", curves),
        "series.csv": write_series_csv(out / "series.csv", series),
        "exclusions.csv": write_exclusions_csv(out / "exclusions.csv", exclusions),
    }
    for scheme in config.schemes:
        name = f"curves_{scheme.value}.csv"
        outputs[name] = write_scheme_curves_csv(
            out / name, [c for c in curves if c.scheme is scheme]
        )
    if config.scenario is not None:
        outputs["data.csv"] = write_records_csv(out / "data.csv", cohorts)

    # manifest.json holds config + hash + output sizes; derived values go to
    # a sibling file so the hash covers exactly the reproduction inputs
    resolved = {
        "countries": list(countries),
        "countries_complete": complete,
        "years": [years.start, years[-1]],
    }
    with open(out / "resolved.json", "w", encoding="utf-8", newline="") as f:
        json.dump(resolved, f, sort_keys=True, indent=2)
        f.write("\n")
    write_manifest(out / "manifest.json", config.to_dict(), outputs)

    return ExperimentResult(
        out_dir=out,
        countries=tuple(countries),
        countries_complete=complete,
        years=years,
        n_cells=len(cells),
        curves=curves,
        outputs=outputs,
    )


def experiment_hash(config: ExperimentConfig) -> str:
    return config_hash(config.to_dict())
