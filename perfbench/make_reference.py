"""Regenerate perfbench/reference.json from the code in the checkout's src.

Usage (from the root of a checkout): python3 perfbench/make_reference.py

For each seed in SEEDS it runs the paper workload once and stores what
check.problems compares against: digests of the parts of the bundle the
split-half streams cannot change, and the offset-0 fractions with their
n_comparisons. csv_cells shares the paper entries. Only regenerate when a change to the outputs is intended.
"""

from __future__ import annotations

import json
import shutil
import sys

import check
from run import HERE, WORK, child_env, run_child
from workloads import WORKLOADS, config

SEEDS = range(20)


def main() -> None:
    env = child_env()
    w = WORKLOADS["paper"]
    table = {w.name: {}}
    for seed in SEEDS:
        out = WORK / "reference" / f"{w.name}-{seed}"
        shutil.rmtree(out, ignore_errors=True)
        out.parent.mkdir(parents=True, exist_ok=True)
        if run_child(config(w, seed), out, False, env, 600.0) is None:
            sys.exit(f"{w.name} seed {seed} failed")
        table[w.name][str(seed)] = check.reference_entry(out)
        shutil.rmtree(out)
        print(f"{w.name} seed {seed} done", file=sys.stderr)
    (HERE / "reference.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                                         encoding="utf-8")


if __name__ == "__main__":
    main()
