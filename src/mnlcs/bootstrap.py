"""Split-half resampling: the no-change coverage baseline.

Splitting one journal-year at random into two halves and asking how often
the second half's indicator lands inside the first half's 95% interval
estimates coverage under genuinely unchanged conditions. The halving shrinks
every sample, so this baseline sits below what full-size samples would give;
it is the offset-0 anchor for the stability curves.

Each replicate's split is shared by every country and scheme, mirroring how
the journal and its national subsets must be halved together. Replicates
come in blocks of BLOCK: block b draws its permutations from the stream
keyed (seed, "lag0-split", journal, year, b), one row per replicate, so the
first k * BLOCK replicates do not depend on how many are asked for. Records
are canonically sorted before the permutation is applied so results do not
depend on input row order.

Each article falls in bin 2 x pattern + cited, where a pattern is a distinct
column of counting's set table, so articles in one bin are interchangeable
in every sum. A cohort's blocks go through the engine in chunks of
max(1, CHUNK // (BLOCK x max(n // 2, BLOCK))) blocks: at most 16 blocks and
about CHUNK half-A draws, whatever the replicate count, so memory does not
grow with replicates (nor with sets). Three bincounts reduce a chunk's half
A to per-row, per-bin counts, sums and sums of squares, and the 0/1 pattern
weights turn these into field and target sums; half B is the cohort total
minus half A. Values are centred on the cohort mean before they are summed,
so sums of squares do not cancel when citation counts are large and close
together. Half A's intervals then come from one fieller_interval call per
chunk on the [rows, targets] means and SEs, the same code every indicator
cell goes through, with t looked up per half-A group count. Every step is
per row, so no decision depends on where a chunk ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import Iterable, Iterator

import numpy as np

from .counting import set_membership
from .errors import DomainError, InsufficientData, NoValidReplicates
from .fieller import DEFAULT_SETTINGS, CiSettings, fieller_interval, t_quantile
from .model import Cohort, Scheme, _frozen
from .rngtools import stream

BLOCK = 64
CHUNK = 2**16  # about how many half-A draws (rows x n // 2) one chunk of whole blocks holds


def _canonical_order(cohort: Cohort) -> np.ndarray:
    """Record indices by (citations, author-country set), stable on ties.

    Set codes follow the sets' sorted country tuples, so this is the order
    of sorting records by (citations, tuple(sorted(countries))).
    """
    return np.lexsort((cohort.codes, cohort.citations))


def half_a_blocks(cohort: Cohort, replicates: int, rng_seed: int) -> Iterator[np.ndarray]:
    """Yield the half-A record indices of every replicate, block by block.

    Each block is an int array [r, n // 2] with r <= BLOCK; row i of block b
    belongs to replicate b * BLOCK + i and half B is the rest of the cohort.
    Deterministic given the seed and the cohort's journal/year identity,
    regardless of record order in the input.
    """
    if cohort.size < 2:
        raise InsufficientData("cannot split a cohort of size < 2")
    if replicates < 1:
        raise DomainError("replicates must be >= 1")
    n = cohort.size
    order = _canonical_order(cohort)
    for block, start in enumerate(range(0, replicates, BLOCK)):
        # the shuffle moves positions whatever they hold, so permuting the
        # tiled order gives the same halves as indexing order by a permutation
        perms = np.tile(order, (min(BLOCK, replicates - start), 1))
        rng = stream(rng_seed, "lag0-split", cohort.journal_id, cohort.year, block)
        rng.permuted(perms, axis=1, out=perms)
        yield perms[:, : n // 2]


@dataclass(frozen=True)
class Lag0Result:
    """Coverage over valid replicates plus the exclusion tally."""

    fraction: float
    n_inside: int
    n_valid: int
    n_excluded: int


@lru_cache(maxsize=256)
def _t_table(n: int, alpha: float) -> np.ndarray:
    """t critical value for each possible half-A group count on n_g + n_a - 2 df.

    Counts under 2 never give a valid replicate (min_group_n >= 2); they
    take count 2's value so that every df is positive.
    """
    return _frozen(t_quantile(np.maximum(np.arange(n // 2 + 1), 2) + n // 2 - 2, alpha))


@lru_cache(maxsize=128)
def _pattern_weights(sets, targets) -> tuple[np.ndarray, np.ndarray]:
    """0/1 weights [2 x patterns, targets + 1] of bin 2 x pattern + cited
    (column 0 is the field) and each set's pattern, its distinct column."""
    patterns, of_set = np.unique(set_membership(sets, targets).T, axis=0, return_inverse=True)
    weights = np.repeat(np.hstack([np.ones((len(patterns), 1)), patterns]), 2, axis=0)
    return _frozen(weights), _frozen(of_set)


def _chunk_decisions(cohort, targets, replicates, rng_seed, settings):
    """Yield (valid, inside) bool arrays [rows, targets] for each chunk of
    blocks from half_a_blocks, in replicate order."""
    centre = cohort.log_citations.mean()
    x = cohort.log_citations - centre
    weights, pattern_of_set = _pattern_weights(cohort.sets, tuple(targets))
    n_bins = len(weights)
    bins = 2 * pattern_of_set[cohort.codes] + (cohort.citations > 0)

    def half_sums(idx):
        # [rows, 4, targets + 1]: sums, sums of squares, cited and member counts
        rows, size, xs = len(idx), len(idx) * n_bins, x[idx].ravel()
        keys = (bins[idx] + n_bins * np.arange(rows)[:, None]).ravel()
        count = np.bincount(keys, minlength=size).reshape(rows, n_bins)
        sums = np.bincount(keys, xs, size).reshape(rows, n_bins)
        squares = np.bincount(keys, xs * xs, size).reshape(rows, n_bins)
        cited = count * (np.arange(n_bins) % 2)
        return np.stack([sums, squares, cited, count], axis=1) @ weights

    total = half_sums(np.arange(cohort.size)[None, :])
    t_table = _t_table(cohort.size, settings.alpha)
    per_chunk = max(1, CHUNK // (BLOCK * max(cohort.size // 2, BLOCK)))
    blocks = half_a_blocks(cohort, replicates, rng_seed)
    while chunk := list(islice(blocks, per_chunk)):
        sums_a = half_sums(np.concatenate(chunk))
        # each [rows, targets + 1]; half B needs only its means and counts
        sums, squares, cited, counts = np.moveaxis(sums_a, 1, 0)
        sums_b, _, cited_b, counts_b = np.moveaxis(total - sums_a, 1, 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            # a half with no cited article has mean and SE exactly 0, as a direct
            # sum would; the clamp guards tiny negative residue from cancellation
            mean = np.where(cited > 0.0, centre + sums / counts, 0.0)
            var = np.maximum((squares - sums * sums / counts) / (counts - 1.0), 0.0)
            se = np.where(cited > 0.0, np.sqrt(var / counts), 0.0)
            mean_b = np.where(cited_b > 0.0, centre + sums_b / counts_b, 0.0)
            value_b = mean_b[:, 1:] / mean_b[:, :1]
        field_a, counts_a = mean[:, :1], counts[:, 1:]
        t = t_table[counts_a.astype(np.intp)]
        _, low, high, h, _ = fieller_interval(
            mean[:, 1:], se[:, 1:], field_a, se[:, :1], t, settings.form
        )
        valid = (field_a > 0.0) & (mean_b[:, :1] > 0.0) & (counts_a >= settings.min_group_n)
        valid &= (counts_b[:, 1:] >= 1.0) & (h < 1.0)
        yield valid, valid & (low <= value_b) & (value_b <= high)


def replicate_decisions(
    cohort: Cohort,
    targets: Iterable[tuple[str, Scheme]],
    replicates: int = 1000,
    rng_seed: int = 0,
    settings: CiSettings = DEFAULT_SETTINGS,
) -> tuple[np.ndarray, np.ndarray]:
    """(valid, inside) bool arrays [replicates, targets], one row per replicate.

    A replicate is invalid for a target when half A cannot produce a bounded
    interval (group under the size threshold, or curvature h >= 1) or half B
    has no group members; a degenerate field mean in either half invalidates
    it for every target.
    """
    valid, inside = map(np.concatenate, zip(*_chunk_decisions(
        cohort, targets, replicates, rng_seed, settings)))
    return valid, inside


def lag0_batch(
    cohort: Cohort,
    targets: Iterable[tuple[str, Scheme]],
    replicates: int = 1000,
    rng_seed: int = 0,
    settings: CiSettings = DEFAULT_SETTINGS,
) -> dict[tuple[str, Scheme], Lag0Result]:
    """Split-half coverage for several (country, scheme) targets at once.

    Exclusion rules are those of replicate_decisions; the per-target counts
    are added up chunk by chunk, so memory does not grow with replicates.
    Targets that never produce a valid replicate come back with n_valid == 0
    rather than raising.
    """
    targets = list(targets)
    n_valid, n_inside = np.zeros((2, len(targets)), dtype=np.int64)
    for valid, inside in _chunk_decisions(cohort, targets, replicates, rng_seed, settings):
        n_valid += valid.sum(axis=0)
        n_inside += inside.sum(axis=0)
    return {
        target: Lag0Result(
            fraction=ins / val if val else float("nan"),
            n_inside=ins,
            n_valid=val,
            n_excluded=replicates - val,
        )
        for target, val, ins in zip(targets, n_valid.tolist(), n_inside.tolist())
    }


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
    (result,) = lag0_batch(cohort, [(country, scheme)], replicates, rng_seed, settings).values()
    if result.n_valid == 0:
        raise NoValidReplicates(
            f"all {replicates} replicates excluded for {country}/{scheme.value} "
            f"in ({cohort.journal_id}, {cohort.year})"
        )
    return result


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
    for rep in range(replicates):
        rng = stream(rng_seed, "coverage-sim", rep)
        first = rng.normal(mu0, sigma0, size=n_first)
        second = rng.normal(mu0, sigma0, size=n_second)
        m = first.mean()
        half = t * first.std(ddof=1) / np.sqrt(n_first)
        m2 = second.mean()
        if m - half <= m2 <= m + half:
            inside += 1
    return inside / replicates
