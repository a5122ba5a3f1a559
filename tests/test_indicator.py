import math
from math import fsum

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from mnlcs.errors import DegenerateField, InsufficientData
from mnlcs.indicator import log_stats, log_stats_from_logs, mnlcs, segment_fsums, segment_moments


def test_single_uncited_article():
    stats = log_stats([0])
    assert stats.n == 1
    assert stats.mean == 0.0
    assert stats.se is None


def test_two_article_mean_against_direct_evaluation():
    stats = log_stats([1, 7])
    # independent evaluation: (ln 2 + ln 8) / 2
    expected = (math.log(2) + math.log(8)) / 2
    assert stats.mean == pytest.approx(expected, abs=1e-15)
    assert stats.mean == pytest.approx(1.386294361119891, abs=1e-12)


def test_constant_sample_has_zero_se():
    stats = log_stats([3, 3, 3])
    assert stats.mean == pytest.approx(math.log(4), abs=1e-15)
    assert stats.se == 0.0


def test_se_matches_direct_formula():
    values = [0, 1, 3, 7, 2]
    logs = [math.log1p(v) for v in values]
    mean = sum(logs) / len(logs)
    var = sum((x - mean) ** 2 for x in logs) / (len(logs) - 1)
    stats = log_stats(values)
    assert stats.se == pytest.approx(math.sqrt(var / len(logs)), rel=1e-12)


def test_empty_sample_rejected():
    with pytest.raises(InsufficientData):
        log_stats([])


def test_negative_counts_rejected():
    with pytest.raises(ValueError):
        log_stats([1, -2])


def test_group_equal_to_field_gives_exactly_one():
    field = log_stats([0, 1, 3, 7, 12, 4])
    assert abs(mnlcs(field, field) - 1.0) <= 1e-12


def test_golden_ratio_four_thirds():
    value = mnlcs(log_stats([1, 7]), log_stats([0, 1, 3, 7]))
    assert abs(value - 4.0 / 3.0) <= 1e-12


def test_all_zero_group_gives_zero():
    assert mnlcs(log_stats([0, 0]), log_stats([0, 1, 3])) == 0.0


def test_all_zero_field_is_degenerate():
    with pytest.raises(DegenerateField):
        mnlcs(log_stats([1]), log_stats([0, 0, 0]))


counts = st.lists(st.integers(min_value=0, max_value=10**5), min_size=1, max_size=50)


@given(counts.filter(lambda c: any(c)))
def test_identity_ratio_property(field_counts):
    stats = log_stats(field_counts)
    assert abs(mnlcs(stats, stats) - 1.0) <= 1e-12


@given(
    counts.filter(lambda c: any(c)),
    st.lists(st.integers(min_value=0, max_value=10**5), min_size=1, max_size=20),
)
def test_duplicating_every_record_leaves_ratio_unchanged(field_counts, group_counts):
    base = mnlcs(log_stats(group_counts), log_stats(field_counts))
    doubled = mnlcs(log_stats(group_counts * 2), log_stats(field_counts * 2))
    assert doubled == pytest.approx(base, rel=1e-12)


@given(
    st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=20),
    st.integers(min_value=0, max_value=19),
)
def test_adding_a_citation_never_decreases_group_mean(group_counts, idx):
    before = log_stats(group_counts).mean
    bumped = list(group_counts)
    bumped[idx % len(bumped)] += 1
    after = log_stats(bumped).mean
    assert after >= before


def test_fast_path_agrees_with_raw_counts_path():
    counts_list = [0, 1, 3, 7, 2, 9]
    a = log_stats(counts_list)
    b = log_stats_from_logs(np.log1p(np.asarray(counts_list, dtype=float)))
    assert a == b


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


# a segment is runs of one citation count, small or near 2**63 - 1
segment = st.lists(
    st.tuples(st.one_of(st.integers(0, 60), st.integers(2**63 - 2**12, 2**63 - 1)), st.integers(1, 12)),
    min_size=1,
    max_size=6,
).map(lambda runs: [count for count, repeat in runs for _ in range(repeat)])


@given(st.lists(segment, min_size=1, max_size=8))
@example([[0], [7], [2**63 - 1], [3, 3]])  # one-element segments
@example([[0, 5, 35]])  # squares that two passes leave a remainder of
def test_segment_fsums_equal_fsum_bit_for_bit(segments):
    # the sums of compute_cells: ln(1+c), then its squares about the mean;
    # the centred values themselves add cancellation
    lengths = [len(s) for s in segments]
    starts = np.cumsum([0] + lengths[:-1])
    logs = np.log1p(np.array([c for s in segments for c in s], dtype=np.float64))
    centred = logs - np.repeat(segment_fsums(logs, starts) / lengths, lengths)
    for values in (logs, centred, centred * centred):
        want = [fsum(values[a:a + k].tolist()) for a, k in zip(starts, lengths)]
        np.testing.assert_array_equal(bits(segment_fsums(values, starts)), bits(want))


def fsum_moments(logs: list[float]) -> tuple[float, float]:
    """Mean and SE of ln(1+c) values from math.fsum and Python floats; SE NaN at n == 1."""
    n = len(logs)
    mean = fsum(logs) / n
    if n == 1:
        return mean, math.nan
    return mean, math.sqrt(fsum((x - mean) * (x - mean) for x in logs) / (n - 1) / n)


@given(st.lists(segment, min_size=1, max_size=6))
@example([[0]])
@example([[2**63 - 1], [2**63 - 1] * 3, [2**63 - 2, 2**63 - 1]])
@example([[3] * 40, [0, 5, 35]])
def test_moments_are_the_fsum_mean_and_se_bit_for_bit(segments):
    logs = [np.log1p(np.array(s, dtype=np.float64)) for s in segments]
    want = np.array([fsum_moments(x.tolist()) for x in logs]).T
    got = segment_moments(np.concatenate(logs), np.array([len(s) for s in segments]))
    # any NaN (se at n == 1) as one NaN: 0 / 0 in numpy sets the sign bit
    np.testing.assert_array_equal(*(bits(np.where(np.isnan(a), math.nan, a)) for a in (got, want)))
    for x, (mean, se) in zip(logs, want.T.tolist()):  # the scalar path: one segment
        stats = log_stats_from_logs(x)
        assert (stats.n, bits(stats.mean)) == (len(x), bits(mean))
        assert stats.se is None if len(x) == 1 else bits(stats.se) == bits(se)


def test_segment_fsums_hand_a_remainder_to_fsum(monkeypatch):
    # ln 1, ln 6 and ln 36 have mean ln 6 to within rounding, so the middle
    # square is tiny beside the others: two passes leave a remainder there,
    # and only there
    logs = np.log1p(np.array([0.0, 5.0, 35.0]))
    centred = logs - fsum(logs.tolist()) / 3
    witness = (centred * centred).tolist()
    called = []

    def spy(values):
        called.append(values)
        return fsum(values)

    monkeypatch.setattr(math, "fsum", spy)
    plain = np.log1p([1.0, 2.0, 3.0]).tolist()  # two passes sum these exactly
    got = segment_fsums(np.array(plain + witness), np.array([0, 3]))
    assert called == [witness]
    np.testing.assert_array_equal(bits(got), bits([fsum(plain), fsum(witness)]))
