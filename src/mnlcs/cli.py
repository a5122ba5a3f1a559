"""Command-line interface.

Subcommands:

    ingest-check   validate an input CSV and print an ingestion summary
    simulate       generate a synthetic dataset from a scenario config
    indicator      compute indicator cells (value + interval) from a CSV
    bootstrap      split-half offset-0 coverage per journal-year
    run            full experiment from a JSON config, with a manifest

Exit code 0 on success; failures print a machine-readable JSON object on
stderr and return a nonzero code.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .bootstrap import lag0_batch
from .dataio import fmt, ingest, quote_field, write_cells_csv, write_records_csv, write_table
from .errors import MnlcsError, ValidationError
from .experiment import (
    ExperimentConfig,
    load_cohorts,
    resolve_countries,
    run_experiment,
    scenario_from_dict,
)
from .fieller import FIELLER_FORMS
from .model import Scheme
from .stability import compute_cells
from .synth import generate


def _fail(kind: str, message: str, code: int = 1) -> int:
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)
    return code


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as f:
        config = json.load(f)
    if not isinstance(config, dict):
        raise ValidationError(f"the config in {path} must be a JSON object")
    return config


def _config(args, **extra) -> ExperimentConfig:
    """The ``mnlcs run`` config of a CSV command's selection and interval
    flags, plus the settings in ``extra``; an interval flag left unset
    takes the config's default."""
    countries = [c for c in (args.countries or "").split(",") if c.strip()]
    interval = {"min_group_n": args.min_group_n, "alpha": args.alpha, "fieller_form": args.fieller_form}
    return ExperimentConfig.from_dict({
        **extra,
        "input": {"csv": args.input},
        "countries": countries or {"top": args.top_k},
        "schemes": args.scheme,
        "year_min": args.year_min,
        "year_max": args.year_max,
        **{key: value for key, value in interval.items() if value is not None},
    })


def _countries(config: ExperimentConfig, cohorts) -> tuple[str, ...]:
    ranked = resolve_countries(config, cohorts)
    if not ranked.complete:
        print(
            f"note: only {len(ranked.countries)} distinct countries available "
            f"(requested {ranked.requested})",
            file=sys.stderr,
        )
    return ranked.countries


def cmd_ingest_check(args) -> int:
    cohorts, report = ingest(
        args.input,
        journals=args.journals.split(",") if args.journals else None,
        year_min=args.year_min,
        year_max=args.year_max,
        max_bad_rows=args.max_bad_rows,
    )
    years = sorted({c.year for c in cohorts})
    print(f"rows: {report.n_rows} (kept {report.n_kept}, filtered {report.n_filtered}, bad {report.n_bad})")
    print(f"cohorts: {len(cohorts)}")
    print(f"journals: {len({c.journal_id for c in cohorts})}")
    if years:
        print(f"years: {years[0]}..{years[-1]}")
    for line_no, msg in report.row_errors:
        print(f"bad row at line {line_no}: {msg}")
    return 0


def cmd_simulate(args) -> int:
    config = _load_json(args.config)
    if args.seed is not None:
        config = {**config, "rng_seed": args.seed}
    cohorts = generate(scenario_from_dict(config))
    n = write_records_csv(args.out, cohorts)
    print(f"wrote {n} records ({len(cohorts)} cohorts) to {args.out}")
    return 0


def cmd_indicator(args) -> int:
    config = _config(args)
    cohorts = load_cohorts(config)
    grid = compute_cells(cohorts, _countries(config, cohorts), config.schemes, config.settings)
    if args.out:
        n = write_cells_csv(args.out, grid)
        print(f"wrote {n} cells to {args.out}")
    else:
        fields = ["journal_id", "year", "country", "scheme", "value", "ci_low", "ci_high", "status"]
        write_cells_csv(sys.stdout, grid, fields)
    return 0


def cmd_bootstrap(args) -> int:
    config = _config(args, seed=args.seed)
    cohorts = load_cohorts(config)
    targets = sorted((c, s) for c in _countries(config, cohorts) for s in config.schemes)
    # every cohort before --out is opened, so a failure leaves no file
    n_valid, n_inside = lag0_batch(cohorts, targets, args.replicates, config.seed, config.settings)
    lines = (
        f"{head}{country},{scheme.value},{fmt(inside / valid) if valid else ''},{valid},"
        f"{args.replicates - valid}"
        for cohort, valids, insides in zip(cohorts, n_valid.tolist(), n_inside.tolist())
        for head in [f"{quote_field(cohort.journal_id)},{cohort.year},"]
        for (country, scheme), valid, inside in zip(targets, valids, insides)
    )
    header = ["journal_id", "year", "country", "scheme", "fraction", "n_valid", "n_excluded"]
    write_table(args.out or sys.stdout, header, lines)
    return 0


def cmd_run(args) -> int:
    config_dict = _load_json(args.config)
    if args.seed is not None:
        config_dict["seed"] = args.seed
        input_part = config_dict.get("input")
        if isinstance(input_part, dict) and isinstance(input_part.get("scenario"), dict):
            input_part["scenario"]["rng_seed"] = args.seed
    if args.scheme is not None:
        config_dict["schemes"] = args.scheme
    if args.min_group_n is not None:
        config_dict["min_group_n"] = args.min_group_n
    if args.fieller_form is not None:
        config_dict["fieller_form"] = args.fieller_form
    out_dir = config_dict.pop("out", None)
    if not isinstance(out_dir, (str, type(None))):
        raise ValidationError(f"out must be a path string, got {out_dir!r}")
    out_dir = args.out or out_dir or "results"

    result = run_experiment(ExperimentConfig.from_dict(config_dict), out_dir)
    print(f"countries: {','.join(result.countries)}")
    print(f"cells: {result.n_cells}")
    print(f"curves: {len(result.curves)}")
    for name, count in sorted(result.outputs.items()):
        print(f"{name}: {count} rows")
    print(f"outputs in {result.out_dir}")
    return 0


def _add_ci_flags(p: argparse.ArgumentParser) -> None:
    """The interval flags; each defaults to None, which leaves the config's default."""
    p.add_argument("--min-group-n", type=int, help="smallest group size given an interval")
    p.add_argument("--alpha", type=float, help="per-tail alpha (0.025 = 95%% two-sided)")
    p.add_argument("--fieller-form", choices=FIELLER_FORMS,
                   help="interval curvature form; 'printed' is the comparison variant")


def _add_selection_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--countries", help="comma-separated ISO alpha-2 codes")
    p.add_argument("--top-k", type=int, default=10, help="rank countries by article count when --countries absent")
    p.add_argument("--scheme", choices=(*(s.value for s in Scheme), "both"), default="both")
    p.add_argument("--year-min", type=int, default=None)
    p.add_argument("--year-max", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mnlcs",
        description="Field-normalised citation indicator with ratio confidence intervals",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest-check", help="validate an input CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--journals", help="comma-separated journal ids to keep")
    p.add_argument("--year-min", type=int, default=None)
    p.add_argument("--year-max", type=int, default=None)
    p.add_argument("--max-bad-rows", type=int, default=0)
    p.set_defaults(func=cmd_ingest_check)

    p = sub.add_parser("simulate", help="generate a synthetic dataset")
    p.add_argument("--config", required=True, help="scenario JSON")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("indicator", help="indicator cells from a CSV")
    p.add_argument("--input", required=True)
    _add_selection_flags(p)
    _add_ci_flags(p)
    p.add_argument("--out", help="cells CSV path (stdout if omitted)")
    p.set_defaults(func=cmd_indicator)

    p = sub.add_parser("bootstrap", help="split-half offset-0 coverage per journal-year")
    p.add_argument("--input", required=True)
    _add_selection_flags(p)
    _add_ci_flags(p)
    p.add_argument("--replicates", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output CSV path (stdout if omitted)")
    p.set_defaults(func=cmd_bootstrap)

    p = sub.add_parser("run", help="full experiment from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--out", help="output directory (overrides config)")
    p.add_argument("--scheme", choices=(*(s.value for s in Scheme), "both"), default=None)
    p.add_argument("--min-group-n", type=int, default=None)
    p.add_argument("--fieller-form", choices=FIELLER_FORMS, default=None)
    p.set_defaults(func=cmd_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MnlcsError as exc:
        return _fail(type(exc).__name__, str(exc), code=1)
    except FileNotFoundError as exc:
        return _fail("FileNotFound", str(exc), code=1)
    except OSError as exc:  # any other file-system error, named by its class
        return _fail(type(exc).__name__, str(exc), code=1)
    except json.JSONDecodeError as exc:
        return _fail("BadConfig", f"invalid JSON: {exc}", code=2)
    except UnicodeDecodeError as exc:  # a config file that is not UTF-8
        return _fail("BadInput", str(exc), code=1)


if __name__ == "__main__":
    sys.exit(main())
