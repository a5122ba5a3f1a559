"""Command-line interface.

Subcommands:

    ingest-check   validate an input CSV and print an ingestion summary
    simulate       generate a synthetic dataset from a scenario config
    indicator      compute indicator cells (value + interval) from a CSV
    bootstrap      split-half offset-0 coverage per journal-year
    stability      cells + coverage curves + series for a CSV dataset
    run            full experiment from a JSON config, with a manifest

Exit code 0 on success; failures print a machine-readable JSON object on
stderr and return a nonzero code.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import __version__
from .bootstrap import lag0_batch
from .counting import top_countries
from .dataio import fmt, ingest, write_cells_csv, write_records_csv
from .errors import MnlcsError
from .experiment import (
    ExperimentConfig,
    parse_schemes,
    run_experiment,
    scenario_from_dict,
)
from .fieller import CiSettings
from .stability import compute_cells
from .synth import generate


def _fail(kind: str, message: str, code: int = 1) -> int:
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)
    return code


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def _resolve_countries(args, cohorts) -> tuple[str, ...]:
    if args.countries:
        return tuple(c.strip().upper() for c in args.countries.split(",") if c.strip())
    ranked = top_countries(cohorts, args.top_k)
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
    cohorts, _report = ingest(args.input, year_min=args.year_min, year_max=args.year_max)
    countries = _resolve_countries(args, cohorts)
    settings = CiSettings(alpha=args.alpha, form=args.fieller_form, min_group_n=args.min_group_n)
    cells = compute_cells(cohorts, countries, parse_schemes(args.scheme), settings)
    if args.out:
        n = write_cells_csv(args.out, cells)
        print(f"wrote {n} cells to {args.out}")
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["journal_id", "year", "country", "scheme", "value", "ci_low", "ci_high", "status"])
        for cell in cells:
            est = cell.estimate
            writer.writerow([
                cell.journal_id, cell.year, cell.country, cell.scheme.value,
                fmt(est.value), fmt(est.ci_low_reported), fmt(est.ci_high), est.status.value,
            ])
    return 0


def cmd_bootstrap(args) -> int:
    cohorts, _report = ingest(args.input, year_min=args.year_min, year_max=args.year_max)
    countries = _resolve_countries(args, cohorts)
    schemes = parse_schemes(args.scheme)
    settings = CiSettings(alpha=args.alpha, form=args.fieller_form, min_group_n=args.min_group_n)
    targets = [(c, s) for c in countries for s in schemes]

    out = open(args.out, "w", encoding="utf-8", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["journal_id", "year", "country", "scheme", "fraction", "n_valid", "n_excluded"])
        for cohort in cohorts:
            if cohort.size < 2:
                continue
            table = lag0_batch(cohort, targets, args.replicates, args.seed, settings)
            for (country, scheme), res in sorted(
                table.items(), key=lambda kv: (kv[0][0], kv[0][1].value)
            ):
                writer.writerow([
                    cohort.journal_id, cohort.year, country, scheme.value,
                    fmt(res.fraction) if res.n_valid else "",
                    res.n_valid, res.n_excluded,
                ])
    finally:
        if args.out:
            out.close()
    return 0


def _experiment_config_from_args(args) -> ExperimentConfig:
    return ExperimentConfig(
        input_csv=args.input,
        countries=_resolve_countries(args, cohorts=()) if args.countries else None,
        top_k=None if args.countries else args.top_k,
        schemes=parse_schemes(args.scheme),
        year_min=args.year_min,
        year_max=args.year_max,
        max_offset=args.max_offset,
        min_group_n=args.min_group_n,
        alpha=args.alpha,
        fieller_form=args.fieller_form,
        lag0_replicates=args.lag0_replicates,
        seed=args.seed,
    )


def _print_result(result, row_counts: bool) -> int:
    print(f"countries: {','.join(result.countries)}")
    print(f"cells: {result.n_cells}")
    print(f"curves: {len(result.curves)}")
    if row_counts:
        for name, count in sorted(result.outputs.items()):
            print(f"{name}: {count} rows")
    print(f"outputs in {result.out_dir}")
    return 0


def cmd_stability(args) -> int:
    result = run_experiment(_experiment_config_from_args(args), args.out)
    return _print_result(result, row_counts=False)


def cmd_run(args) -> int:
    config_dict = _load_json(args.config)
    if args.seed is not None:
        config_dict["seed"] = args.seed
        if "scenario" in config_dict.get("input", {}):
            config_dict["input"]["scenario"]["rng_seed"] = args.seed
    if args.scheme is not None:
        config_dict["schemes"] = args.scheme
    if args.min_group_n is not None:
        config_dict["min_group_n"] = args.min_group_n
    if args.fieller_form is not None:
        config_dict["fieller_form"] = args.fieller_form
    out_dir = args.out or config_dict.get("out") or "results"
    config_dict.pop("out", None)

    result = run_experiment(ExperimentConfig.from_dict(config_dict), out_dir)
    return _print_result(result, row_counts=True)


def _add_ci_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--min-group-n", type=int, default=5, help="smallest group size given an interval")
    p.add_argument("--alpha", type=float, default=0.025, help="per-tail alpha (0.025 = 95%% two-sided)")
    p.add_argument(
        "--fieller-form",
        choices=("standard", "printed"),
        default="standard",
        help="interval curvature form; 'printed' is the comparison variant",
    )


def _add_selection_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--countries", help="comma-separated ISO alpha-2 codes")
    p.add_argument("--top-k", type=int, default=10, help="rank countries by article count when --countries absent")
    p.add_argument("--scheme", choices=("inclusive", "exclusive", "both"), default="both")
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

    p = sub.add_parser("stability", help="full stability analysis of a CSV dataset")
    p.add_argument("--input", required=True)
    _add_selection_flags(p)
    _add_ci_flags(p)
    p.add_argument("--max-offset", type=int, default=18)
    p.add_argument("--lag0-replicates", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("run", help="full experiment from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--out", help="output directory (overrides config)")
    p.add_argument("--scheme", choices=("inclusive", "exclusive", "both"), default=None)
    p.add_argument("--min-group-n", type=int, default=None)
    p.add_argument("--fieller-form", choices=("standard", "printed"), default=None)
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
    except json.JSONDecodeError as exc:
        return _fail("BadConfig", f"invalid JSON: {exc}", code=2)


if __name__ == "__main__":
    sys.exit(main())
