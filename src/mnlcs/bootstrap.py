"""Split-half resampling: the no-change coverage baseline.

Splitting one journal-year at random into two halves and asking how often
the second half's indicator lands inside the first half's 95% interval
estimates coverage under genuinely unchanged conditions. The halving shrinks
every sample, so this baseline sits below what full-size samples would give;
it is the offset-0 anchor for the stability curves.

Each replicate's split is shared by every country and scheme, mirroring how
the journal and its national subsets must be halved together. Articles with
the same citation count and the same author-country set are interchangeable
in every sum the test takes, so the articles fall into bins sorted by (set,
citations) and a split is how many articles of each bin half A takes.
half_a_counts draws these multivariate hypergeometric counts with numpy's
"count" method from one stream per cohort, keyed (seed, "lag0-split-v2",
journal, year). Neither input row order, the targets nor the other cohorts
change a split.

A "count" call draws its rows in sequence but starts afresh, so rows depend
on where calls begin. Every call but the last draws _rows_per_call(bins)
rows, ROWS or fewer so that a call holds at most CELLS counts. That never
depends on the replicate total, so the first k replicates are the same
whatever the total, and memory grows with neither replicates nor bins.

Cohorts are binned a block at a time: consecutive cohorts of at most
ARTICLES articles together (a larger cohort alone) go through one sort on
(block set code, citation rank). Each cohort's sets take their own range of
block codes, so its bins, their order and sizes are the cohort's own. The
product of a call's counts with the cohort's [bins, 4 x (targets + 1)]
table, taken PRODUCT_ROWS rows at a time so that OpenBLAS starts no threads
at the paper's shape, gives half A's sums, sums of squares, cited and
member counts for the field and every target. Half B's sums come the same
way from the rest of each bin; its cited and member counts are the cohort's
minus half A's. Values are centred on the cohort mean first, so sums of
squares do not cancel when citation counts are large and close together.

Each draw call writes its rows into buffers of BATCH rows shared by
consecutive cohorts. The decision tail runs once per full buffer on a
targets-major copy, [values, rows], so every elementwise loop runs over the
rows; each cohort's cited and member totals, centre and n // 2 - 1 (for the
t index) are kept once and gathered by row owner. One fieller_interval
call, the code every indicator cell goes through, and t from one
fieller.t_memo read per call decide the batch. Every value is the one a
cohort on its own would give: the products' row slices are set by the draw
call alone and everything after them works element by element. lag0_batch
returns [cohorts, targets] counts.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .counting import set_membership
from .errors import DomainError, InsufficientData, NoValidReplicates
from .fieller import DEFAULT_SETTINGS, CiSettings, fieller_interval, t_memo, t_quantile
from .model import Cohort, Scheme
from .rngtools import stream, streams

ROWS = 256  # replicates per draw call
CELLS = 2**16  # at most this many bin counts per draw call, unless one row holds more
ARTICLES = 8192  # articles binned at once, unless one cohort holds more
BATCH = 1024  # rows per decision batch, unless one draw call holds more
PRODUCT_ROWS = 64  # rows per product; at the paper's ~100 bins OpenBLAS keeps these on one thread


def _rows_per_call(n_bins: int) -> int:
    return max(1, min(ROWS, CELLS // n_bins))


def half_a_counts(
    cohort: Cohort, sizes: np.ndarray, replicates: int, rng_seed: int
) -> Iterator[np.ndarray]:
    """Yield half A's per-bin article counts, int64 [rows, bins], one array
    per draw call; row i of the arrays taken together is replicate i.

    ``sizes`` holds the article count of each of the cohort's bins; half A
    takes n // 2 articles and half B the rest.
    """
    if cohort.size < 2:
        raise InsufficientData("cannot split a cohort of size < 2")
    rng = stream(rng_seed, "lag0-split-v2", cohort.journal_id, cohort.year)
    rows = _rows_per_call(len(sizes))
    for start in range(0, replicates, rows):
        yield rng.multivariate_hypergeometric(
            sizes, cohort.size // 2, size=min(rows, replicates - start), method="count"
        )


class Lag0Result(NamedTuple):
    """Coverage over valid replicates plus the exclusion tally."""

    fraction: float
    n_inside: int
    n_valid: int
    n_excluded: int


def blocks(cohorts: Sequence[Cohort], singles: bool) -> Iterator[list[tuple[int, Cohort]]]:
    """Consecutive (index, cohort) pairs of at most ARTICLES articles, or one
    larger cohort; cohorts of one article, which cannot be halved, are left
    out unless ``singles``."""
    block: list[tuple[int, Cohort]] = []
    articles = 0
    for i, cohort in enumerate(cohorts):
        if cohort.size < 2 and not singles:
            continue
        if block and articles + cohort.size > ARTICLES:
            yield block
            block, articles = [], 0
        block.append((i, cohort))
        articles += cohort.size
    if block:
        yield block


def _binned(
    block: list[tuple[int, Cohort]], targets: tuple[tuple[str, Scheme], ...]
) -> Iterator[tuple[int, Cohort, float, np.ndarray, np.ndarray, np.ndarray]]:
    """Yield (index, cohort, centre, sizes, table, table_b) for each cohort
    of a block: its mean ln(1+c), its bins' article counts, their [bins, 4 x
    (targets + 1)] table of centred sums, squares, cited and member counts,
    and a contiguous copy of the table's sums for half B's product."""
    offsets = np.cumsum([0] + [len(c.sets) for _, c in block])
    codes = np.concatenate([c.codes + offset for (_, c), offset in zip(block, offsets)])
    citations = np.concatenate([c.citations for _, c in block])
    # bins in (set, citations) order: a bin starts wherever the sorted key
    # changes; ranking the citations keeps the key clear of int64 overflow
    _, rank = np.unique(citations, return_inverse=True)
    key = codes * (rank.max() + 1) + rank
    order = np.argsort(key)
    key = key[order]
    bounds = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1], [True])))
    sizes, first = np.diff(bounds), order[bounds[:-1]]  # first: one article of each bin
    codes, citations = codes[first], citations[first]
    centres = np.array([c.log_citations.mean() for _, c in block])
    # a cohort's bins are those whose codes lie in its range
    edges = np.searchsorted(codes, offsets)
    x = np.concatenate([c.log_citations for _, c in block])[first]
    x -= np.repeat(centres, np.diff(edges))
    per_bin = np.stack([x, x * x, citations > 0, np.ones_like(x)], axis=1)
    # 0/1 weights [bins, targets + 1]: column 0 is the field
    member = np.hstack([set_membership(c.sets, targets) for _, c in block])[:, codes]
    weights = np.vstack([np.ones(len(first)), member]).T
    # [bins, 4 x (targets + 1)]: sums, sums of squares, cited and member counts
    table = (per_bin[:, :, None] * weights[:, None, :]).reshape(len(first), -1)
    table_b = table[:, :weights.shape[1]].copy()
    for (i, cohort), centre, lo, hi in zip(block, centres, edges[:-1], edges[1:]):
        yield i, cohort, centre, sizes[lo:hi], table[lo:hi], table_b[lo:hi]


def replicate_decisions(
    cohorts: Sequence[Cohort],
    targets: Iterable[tuple[str, Scheme]],
    replicates: int = 1000,
    rng_seed: int = 0,
    settings: CiSettings = DEFAULT_SETTINGS,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield (owner, valid, inside) for each batch of rows: owner [rows] is
    the index in ``cohorts`` of each row's cohort, valid and inside are bool
    [rows, targets]. A cohort's rows are its replicates in order, cohorts in
    input order; a cohort of one article has no rows.

    A replicate is invalid for a target when half A cannot produce a bounded
    interval (group under the size threshold, or curvature h >= 1) or half B
    has no group members; a degenerate field mean in either half invalidates
    it for every target.
    """
    targets = tuple(targets)
    k = len(targets) + 1
    # half A's t on n_g + n_a - 2 df at index n_g + n_a - 1, n_g of its n_a = n // 2
    # articles in the group; counts under 2 are never valid, so their t stays 0
    halves = [c.size // 2 for c in cohorts if c.size > 1] or [1]
    t_at = np.zeros(2 * max(halves))
    t_at[min(halves) + 1:] = t_memo(np.arange(min(halves), 2 * max(halves) - 1), settings.alpha)
    # per cohort, gathered by owner once per batch: its cited and member
    # counts [2 x (targets + 1), cohorts], its centre and n // 2 - 1
    totals, centres = np.zeros((2 * k, len(cohorts))), np.zeros(len(cohorts))
    constants = totals, centres, np.array([c.size // 2 - 1 for c in cohorts], dtype=np.intp), t_at
    size = max(BATCH, ROWS)
    sums_a, sums_b = np.empty((size, 4 * k)), np.empty((size, k))
    owner = np.empty(size, dtype=np.intp)
    filled = 0
    for block in blocks(cohorts, singles=False):
        for i, cohort, centre, sizes, table, table_b in _binned(block, targets):
            totals[:, i], centres[i] = (sizes.astype(np.float64) @ table)[2 * k:], centre
            for drawn in half_a_counts(cohort, sizes, replicates, rng_seed):
                if filled + len(drawn) > size:
                    yield _decide(owner[:filled].copy(), sums_a, sums_b, constants, settings)
                    filled = 0
                for lo in range(0, len(drawn), PRODUCT_ROWS):
                    part = drawn[lo:lo + PRODUCT_ROWS]
                    rows = slice(filled + lo, filled + lo + len(part))
                    np.matmul(part.astype(np.float64), table, out=sums_a[rows])
                    # half B's sums from its own articles: total minus half A's
                    # rounds off a ratio of 1
                    np.matmul((sizes - part).astype(np.float64), table_b, out=sums_b[rows])
                owner[filled:filled + len(drawn)] = i
                filled += len(drawn)
    if filled:
        yield _decide(owner[:filled].copy(), sums_a, sums_b, constants, settings)


def _decide(owner, sums_a, sums_b, constants, settings):
    """(owner, valid, inside) of a batch: the first len(owner) rows of the
    buffers, copied targets-major so every elementwise loop runs over the
    rows, then transposed back to bool [rows, targets]."""
    rows, (totals, centres, half, t_at) = len(owner), constants
    # each [targets + 1, rows]; half B needs only its means and counts
    sums, squares, cited, counts = np.split(sums_a[:rows].T.copy(), 4)
    sums_b = sums_b[:rows].T.copy()
    cited_b, counts_b = np.split(totals[:, owner], 2)
    cited_b, counts_b = cited_b - cited, counts_b - counts
    centre = centres[owner]
    with np.errstate(divide="ignore", invalid="ignore"):
        # a half with no cited article has mean and SE exactly 0, as a direct
        # sum would; the clamp guards tiny negative residue from cancellation
        mean = np.where(cited > 0.0, centre + sums / counts, 0.0)
        var = np.maximum((squares - sums * sums / counts) / (counts - 1.0), 0.0)
        se = np.where(cited > 0.0, np.sqrt(var / counts), 0.0)
        mean_b = np.where(cited_b > 0.0, centre + sums_b / counts_b, 0.0)
        value_b = mean_b[1:] / mean_b[:1]
    field_a, counts_a = mean[:1], counts[1:]
    t = t_at[counts_a.astype(np.intp) + half[owner]]
    _, low, high, h, _ = fieller_interval(mean[1:], se[1:], field_a, se[:1], t, settings.form)
    valid = (field_a > 0.0) & (mean_b[:1] > 0.0) & (counts_a >= settings.min_group_n)
    valid &= (counts_b[1:] >= 1.0) & (h < 1.0)
    return owner, valid.T, (valid & (low <= value_b) & (value_b <= high)).T


def lag0_batch(
    cohorts: Sequence[Cohort],
    targets: Iterable[tuple[str, Scheme]],
    replicates: int = 1000,
    rng_seed: int = 0,
    settings: CiSettings = DEFAULT_SETTINGS,
) -> tuple[np.ndarray, np.ndarray]:
    """(n_valid, n_inside), int64 [cohorts, targets]: split-half counts for
    several (country, scheme) targets at once, added up batch by batch, so
    memory does not grow with replicates. Exclusion rules are those of
    replicate_decisions; every replicate of a one-article cohort is excluded.
    """
    if replicates < 1:
        raise DomainError("replicates must be >= 1")
    targets = list(targets)
    n_valid, n_inside = np.zeros((2, len(cohorts), len(targets)), dtype=np.int64)
    for owner, valid, inside in replicate_decisions(cohorts, targets, replicates, rng_seed, settings):
        # a cohort's rows are consecutive, so each run of one owner is its share
        starts = np.flatnonzero(np.diff(owner, prepend=-1))
        n_valid[owner[starts]] += np.add.reduceat(valid, starts)
        n_inside[owner[starts]] += np.add.reduceat(inside, starts)
    return n_valid, n_inside


def lag0_coverage(
    cohort: Cohort,
    country: str,
    scheme: Scheme,
    replicates: int = 1000,
    rng_seed: int = 0,
    settings: CiSettings = DEFAULT_SETTINGS,
) -> Lag0Result:
    """Fraction of splits where half B's value lies in half A's interval.

    Raises NoValidReplicates when every replicate was excluded; see
    lag0_batch for the exclusion rules.
    """
    n_valid, n_inside = (a.item() for a in lag0_batch([cohort], [(country, scheme)], replicates,
                                                       rng_seed, settings))
    if n_valid == 0:
        raise NoValidReplicates(
            f"all {replicates} replicates excluded for {country}/{scheme.value} "
            f"in ({cohort.journal_id}, {cohort.year})"
        )
    return Lag0Result(n_inside / n_valid, n_inside, n_valid, replicates - n_valid)


def coverage_probability_sim(
    n_first: int,
    n_second: int,
    mu0: float = 0.0,
    sigma0: float = 1.0,
    replicates: int = 10000,
    rng_seed: int = 0,
) -> float:
    """P(second-sample mean falls in the first sample's 95% CI for the mean).

    Both samples are drawn from Normal(mu0, sigma0^2); the interval is the
    usual t interval, mean -/+ t * s / sqrt(n). Depending on the two sample
    sizes the result ranges from near 0 (huge first sample, single-draw
    second sample) up to about 0.95 (small first sample, huge second one).
    """
    if n_first < 2:
        raise ValueError("n_first must be >= 2")
    if n_second < 1:
        raise ValueError("n_second must be >= 1")
    if sigma0 <= 0:
        raise ValueError("sigma0 must be > 0")
    if replicates < 100:
        raise ValueError("replicates must be >= 100")
    t = t_quantile(n_first - 1, 0.025)
    inside = 0
    for rng in streams(rng_seed, [("coverage-sim", rep) for rep in range(replicates)]):
        first = rng.normal(mu0, sigma0, size=n_first)
        m, half = first.mean(), t * first.std(ddof=1) / np.sqrt(n_first)
        inside += m - half <= rng.normal(mu0, sigma0, size=n_second).mean() <= m + half
    return inside / replicates
