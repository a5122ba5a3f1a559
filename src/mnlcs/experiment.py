"""End-to-end experiment driver.

Takes a declarative configuration (data from a CSV file or a synthetic
scenario, countries, counting schemes, offsets, interval settings, seed),
computes all indicator cells, coverage curves with their split-half offset-0
anchors, and per-journal time series, and persists everything alongside a
manifest. Identical configuration and seed reproduce identical bytes.
"""

from __future__ import annotations

from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path

from . import synth
from .counting import RankedCountries, top_countries
from .dataio import (
    ingest,
    write_cells_csv,
    write_curves_csv,
    write_exclusions_csv,
    write_json,
    write_manifest,
    write_records_csv,
    write_scheme_curves_csv,
    write_series_csv,
)
from .errors import ValidationError
from .fieller import CiSettings
from .model import Cohort, Scheme, normalize_country_token
from .stability import (
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


def _int(v) -> int:
    """An int (not a bool), an integral float or an integer string as int;
    ValidationError for anything else, which int() would round or accept."""
    try:
        if type(v) in (int, str) or type(v) is float and v.is_integer():
            return int(v)
    except ValueError:  # a string that is not an integer
        pass
    raise ValidationError(f"expected an integer, got {v!r}")


# synth and this module use postponed annotations, so field types arrive as these strings
_SCALARS = {
    "int": _int, "float": float, "str": str,
    "int | None": lambda v: None if v is None else _int(v),
}


def _from_json(cls, d: dict, keys=(), **built):
    """Dataclass ``cls`` from the JSON object ``d``: the fields in ``built``
    as given, every other field present in ``d`` converted to its annotated
    scalar type (so "step": 1 becomes 1.0; ints by ``_int``). ``d`` may hold
    only those fields and the ``keys`` its caller reads. A ``d`` that is not
    an object, an unknown key, or a value that does not convert raises
    ValidationError naming ``cls`` or ``Class.field``; a missing field
    without a default raises KeyError, a field of any other type TypeError."""
    if not isinstance(d, dict):
        raise ValidationError(f"{cls.__name__}: expected a JSON object, got {d!r}")
    known = {f.name for f in fields(cls) if f.name not in built}.union(keys)
    for key in d:
        if key not in known:
            raise ValidationError(f"{cls.__name__}: unknown key {key!r}")
    for f in fields(cls):
        required = f.default is MISSING and f.default_factory is MISSING
        if f.name not in built and (f.name in d or required):
            if f.type not in _SCALARS:
                raise TypeError(f"no JSON conversion for {cls.__name__}.{f.name}: {f.type!r}")
            try:
                built[f.name] = _SCALARS[f.type](d[f.name])
            except (ValidationError, ValueError, TypeError) as exc:
                raise ValidationError(f"{cls.__name__}.{f.name}: {exc}") from None
    return cls(**built)


def scenario_from_dict(d: dict) -> synth.ScenarioSpec:
    """The scenario of the JSON object ``d``, as ``ExperimentConfig.to_dict``
    writes it; a missing key or a bad value raises ValidationError."""
    mode = d.get("capability_mode", {"mode": "static"})
    if not isinstance(mode, dict) or mode.get("mode") not in CAPABILITY_MODES:
        raise ValidationError(f"ScenarioSpec.capability_mode: unknown capability mode {mode!r}")
    if not isinstance(d.get("groups", []), (list, tuple)):
        raise ValidationError(f"ScenarioSpec.groups: expected a JSON list, got {d['groups']!r}")
    try:
        return _from_json(
            synth.ScenarioSpec,
            d,
            ("groups", "capability_mode"),
            groups=tuple(_from_json(synth.GroupSpec, g) for g in d["groups"]),
            capability_mode=_from_json(CAPABILITY_MODES[mode["mode"]], mode, ("mode",)),
        )
    except KeyError as exc:
        raise ValidationError(f"scenario config missing key: {exc}") from None


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved experiment parameters; ``to_dict`` is the canonical form that
    gets hashed into the manifest. Explicit countries are normalised by the
    CSV's rule (``model.normalize_country_token``); they must be
    distinct and at least one, as must the schemes."""

    input_csv: str | None = None
    scenario: synth.ScenarioSpec | None = None
    countries: tuple[str, ...] | None = None
    top_k: int | None = None
    schemes: tuple[Scheme, ...] = (Scheme.INCLUSIVE, Scheme.EXCLUSIVE)
    year_min: int | None = None
    year_max: int | None = None
    max_offset: int = 18
    min_group_n: int = CiSettings.min_group_n
    alpha: float = CiSettings.alpha
    fieller_form: str = CiSettings.form
    lag0_replicates: int = 1000
    seed: int = 0

    def __post_init__(self):
        if (self.input_csv is None) == (self.scenario is None):
            raise ValidationError("config needs exactly one of input_csv or scenario")
        if self.countries is None and (self.top_k is None or self.top_k < 1):
            raise ValidationError("config needs countries or top_k >= 1")
        if self.countries is not None:
            codes = tuple(normalize_country_token(c) for c in self.countries)
            if not codes:
                raise ValidationError("countries must not be empty")
            if len(set(codes)) < len(codes):
                raise ValidationError(f"duplicate countries: {list(self.countries)}")
            object.__setattr__(self, "countries", codes)
        if not self.schemes:
            raise ValidationError("schemes must not be empty")
        if len(set(self.schemes)) < len(self.schemes):
            raise ValidationError(f"duplicate schemes: {[s.value for s in self.schemes]}")
        if None not in (self.year_min, self.year_max) and self.year_min > self.year_max:
            raise ValidationError(f"year_min {self.year_min} exceeds year_max {self.year_max}")
        if self.max_offset < 1:
            raise ValidationError("max_offset must be >= 1")
        if self.lag0_replicates < 0:
            raise ValidationError("lag0_replicates must be >= 0")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")
        self.settings  # CiSettings checks alpha, form and min_group_n

    @property
    def settings(self) -> CiSettings:
        return CiSettings(alpha=self.alpha, form=self.fieller_form, min_group_n=self.min_group_n)

    def to_dict(self) -> dict:
        if self.scenario is not None:
            mode = self.scenario.capability_mode
            names = [name for name, cls in CAPABILITY_MODES.items() if type(mode) is cls]
            if not names:
                raise ValidationError(f"unknown capability mode {mode!r}")
            input_part: dict = {"scenario": {
                **asdict(self.scenario), "capability_mode": {"mode": names[0], **asdict(mode)}}}
        else:
            input_part = {"csv": self.input_csv}
        return {
            "input": input_part,
            "countries": list(self.countries) if self.countries is not None else {"top": self.top_k},
            "schemes": [s.value for s in self.schemes],
            **{name: getattr(self, name) for name in _PLAIN},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """The config of ``to_dict`` output; absent settings take their defaults.
        A setting that does not convert, or a key that ``to_dict`` does not
        write, raises ValidationError."""
        input_part, countries = d.get("input", {}), d.get("countries")
        if not (isinstance(input_part, dict) and input_part.keys() <= {"csv", "scenario"}
                and isinstance(input_part.get("scenario", {}), dict)):
            raise ValidationError(f"input must be a csv or scenario object, got {input_part!r}")
        top = isinstance(countries, dict) and countries.keys() == {"top"}
        if not (top or isinstance(countries, list)):
            raise ValidationError(f'countries must be a JSON list or {{"top": k}}, got {countries!r}')
        schemes = d.get("schemes", "both")
        if isinstance(schemes, str):
            schemes = tuple(Scheme) if schemes == "both" else (schemes,)
        try:
            return _from_json(
                cls, d, ("input", "countries", "schemes"),
                input_csv=input_part.get("csv"),
                scenario=scenario_from_dict(input_part["scenario"]) if "scenario" in input_part else None,
                countries=None if top else tuple(str(c) for c in countries),
                top_k=_int(countries["top"]) if top else None,
                schemes=tuple(Scheme(s) for s in schemes),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"bad config: {exc}") from None


# the fields written to JSON as they are; a field added to the config enters
# the manifest and its hash only by being listed here
_PLAIN = (
    "year_min", "year_max", "max_offset", "min_group_n", "alpha", "fieller_form",
    "lag0_replicates", "seed",
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


def resolve_countries(config: ExperimentConfig, cohorts: list[Cohort]) -> RankedCountries:
    """The config's own countries, or its ``top_k`` ranked over ``cohorts``;
    ValidationError when no article of ``cohorts`` names a country."""
    if config.countries is not None:
        return RankedCountries(config.countries, requested=len(config.countries))
    ranked = top_countries(cohorts, config.top_k)
    if not ranked.countries:
        raise ValidationError(f"countries: top {config.top_k} selects none, no article names a country")
    return ranked


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

    ranked = resolve_countries(config, cohorts)
    countries, complete, settings = ranked.countries, ranked.complete, config.settings

    years = None  # the cohorts' span unless both bounds are set
    if config.year_min is not None and config.year_max is not None:
        years = range(config.year_min, config.year_max + 1)
    exclusions = []
    grid = compute_cells(cohorts, countries, config.schemes, settings, exclusions, years)
    years = grid.years

    targets = list(grid.targets)
    lag0_points = lag0_curve_points(
        cohorts,
        targets,
        replicates=config.lag0_replicates,
        rng_seed=config.seed,
        settings=settings,
        exclusions=exclusions,
    )

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
        for journal_id in grid.journals
        for country, scheme in targets
    )

    outputs = {
        "cells.csv": write_cells_csv(out / "cells.csv", grid),
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
    write_json(out / "resolved.json", {
        "countries": list(countries),
        "countries_complete": complete,
        "years": [years.start, years[-1]],
    })
    write_manifest(out / "manifest.json", config.to_dict(), outputs)

    return ExperimentResult(
        out_dir=out,
        countries=tuple(countries),
        countries_complete=complete,
        years=years,
        n_cells=outputs["cells.csv"],
        curves=curves,
        outputs=outputs,
    )
