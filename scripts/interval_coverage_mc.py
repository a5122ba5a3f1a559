#!/usr/bin/env python3
"""Monte Carlo check of ratio-interval coverage on synthetic citation data.

Draws a field of discretised-lognormal citation counts with the group as a
subset of it, so the true mean ratio is exactly 1, then measures how often
the 95% interval contains 1. A correct interval construction should land
near 0.95; the --form printed variant is exposed for comparison.
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np

try:
    import mnlcs  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mnlcs.fieller import FIELLER_FORMS, OK, CiSettings, interval_columns
from mnlcs.indicator import log_stats_from_logs
from mnlcs.rngtools import streams
from mnlcs.synth import sample_citations


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--group-n", type=int, default=50)
    parser.add_argument("--field-n", type=int, default=1000)
    parser.add_argument("--mu", type=float, default=1.0)
    parser.add_argument("--sigma", type=float, default=1.0)
    parser.add_argument("--replicates", type=int, default=10000)
    parser.add_argument("--seed", type=int, default=404)
    parser.add_argument("--alpha", type=float, default=0.025)
    parser.add_argument("--form", choices=FIELLER_FORMS, default="standard")
    args = parser.parse_args()

    settings = CiSettings(alpha=args.alpha, form=args.form)
    groups, fields, degenerate = [], [], 0
    for rng in streams(args.seed, [("coverage-mc", rep) for rep in range(args.replicates)]):
        counts = sample_citations(args.mu, args.sigma, args.field_n, rng)
        logs = np.log1p(counts.astype(float))
        field = log_stats_from_logs(logs)
        if field.mean <= 0.0:
            degenerate += 1
            continue
        groups.append(log_stats_from_logs(logs[: args.group_n]))
        fields.append(field)

    # one interval call on the columns of every replicate with a usable field
    _, low, high, _, _, status = interval_columns(
        *([getattr(s, k) for s in stats] for stats in (groups, fields) for k in ("n", "mean", "se")),
        settings,
    )
    ok = status == OK
    valid, inside = int(ok.sum()), int((ok & (low <= 1.0) & (1.0 <= high)).sum())
    unbounded = len(groups) - valid

    coverage = inside / valid if valid else float("nan")
    se = math.sqrt(coverage * (1 - coverage) / valid) if valid else float("nan")
    print(f"form={args.form} group_n={args.group_n} field_n={args.field_n} "
          f"mu={args.mu} sigma={args.sigma}")
    print(f"replicates={args.replicates} valid={valid} "
          f"unbounded_or_small={unbounded} degenerate_field={degenerate}")
    print(f"coverage of true ratio 1: {coverage:.4f} (mc se {se:.4f}, "
          f"two-sided level {1 - 2 * args.alpha:.3f})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
