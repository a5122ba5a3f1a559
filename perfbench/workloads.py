"""The benchmark's workloads: experiment configs made from a workload seed.

Every workload runs the same scenario: 10 synthetic groups with shares from
0.10 down to 0.01, a 0.3 collaboration fraction with partner ZZ, and the
top 10 countries by inclusive count. ZZ outranks every single group, so it
joins the set and the smallest group drops out, which gives 10 countries x
2 schemes = 20 targets. The small groups yield cells without intervals and
split-half replicates that are excluded, so every status and exclusion path
runs.

The seed sets both the scenario's data seed and the split-half seed, as
``mnlcs run --seed`` does. The program receives only the config (and, for
``csv_cells``, the CSV that the benchmark generates during its set-up).
"""

from __future__ import annotations

from dataclasses import dataclass

YEAR_START = 1996
TOP_K = 10
SCHEMES = ("inclusive", "exclusive")
MAX_OFFSET = 18


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    journals: int
    years: int
    articles: int  # per journal-year
    replicates: int  # split-half replicates of the timed run
    from_csv: bool  # the timed run ingests a CSV instead of generating
    reference: str  # key of the reference entries in reference.json

    @property
    def cohorts(self) -> int:
        return self.journals * self.years

    @property
    def rows(self) -> int:
        return self.cohorts * self.articles


WORKLOADS = {
    w.name: w
    for w in (
        # Sizes keep three to four paper runs within one 50 s measurement
        # on 2 cores. At 1000 replicates the paper shape takes about 55 s a
        # run; at 80 the split-half stage is still the largest stage.
        Workload(
            "paper",
            "paper shape (36 journals x 19 years x 300 articles) with split-half; "
            "many small cohorts, so per-replicate and per-cohort fixed costs dominate",
            36, 19, 300, 80, False, "paper",
        ),
        Workload(
            "csv_cells",
            "same 205,200 articles read from CSV, no split-half: ingest, cells, "
            "curves and series only, so a split-half change must not move it",
            36, 19, 300, 0, True, "paper",
        ),
    )
}


def scenario(w: Workload, seed: int) -> dict:
    return {
        "n_journals": w.journals,
        "year_start": YEAR_START,
        "year_end": YEAR_START + w.years - 1,
        "field_size_per_year": w.articles,
        "field_mu": 1.0,
        "field_sigma": 1.0,
        "groups": [
            {"country": code * 2, "share": round(0.10 - 0.01 * i, 2), "mu": 0.6 + 0.1 * i,
             "sigma": 1.0}
            for i, code in enumerate("ABCDEFGHIJ")
        ],
        "capability_mode": {"mode": "static"},
        "collab_fraction": 0.3,
        "collab_partner": "ZZ",
        "rng_seed": seed,
    }


def config(w: Workload, seed: int, *, csv_path: str | None = None,
           replicates: int | None = None) -> dict:
    """The ``mnlcs run`` config: generated input unless ``csv_path`` is given."""
    return {
        "input": {"csv": csv_path} if csv_path else {"scenario": scenario(w, seed)},
        "countries": {"top": TOP_K},
        "schemes": list(SCHEMES),
        "max_offset": MAX_OFFSET,
        "lag0_replicates": w.replicates if replicates is None else replicates,
        "seed": seed,
    }
