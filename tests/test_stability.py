import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _oracles import CellRow, coverage_curve_oracle, enumerate_pairs, grid_of, series_oracle
from conftest import cohort
from mnlcs.fieller import OK, CiSettings
from mnlcs.model import EstimateStatus, MnlcsEstimate, Scheme
from mnlcs.stability import (
    CoverageCurve,
    CurvePoint,
    compute_cells,
    coverage_curve,
    lag0_curve_points,
    series_report,
    whole_journal_estimate,
)
from mnlcs.synth import GroupSpec, ScenarioSpec, generate
from mnlcs.errors import DegenerateField, ValidationError


def make_cell(journal, year, value, lo, hi, country="US", scheme=Scheme.INCLUSIVE,
              status=EstimateStatus.OK):
    est = MnlcsEstimate(
        value=value,
        ci_low=lo if status is EstimateStatus.OK else None,
        ci_high=hi if status is EstimateStatus.OK else None,
        h=0.01 if status is EstimateStatus.OK else None,
        se_mnlcs=0.1 if status is EstimateStatus.OK else None,
        n_group=20,
        n_field=200,
        status=status,
    )
    return CellRow(journal, year, country, scheme, est)


def test_enumerate_pairs_nineteen_year_range():
    years = range(1996, 2015)
    assert len(enumerate_pairs(years, 1)) == 18
    assert len(enumerate_pairs(years, 18)) == 1
    assert enumerate_pairs(years, 19) == []
    assert enumerate_pairs(years, 5)[0] == (1996, 2001)


def test_enumerate_pairs_rejects_nonpositive_offset():
    with pytest.raises(ValueError):
        enumerate_pairs(range(2000, 2010), 0)


def test_total_pairs_arithmetic():
    years = range(1996, 2015)
    assert sum(len(enumerate_pairs(years, k)) for k in range(1, 19)) == 171


def test_curve_counts_and_fractions():
    years = range(2000, 2004)
    cells = [
        make_cell("J1", 2000, 1.00, 0.8, 1.2),
        make_cell("J1", 2001, 1.10, 0.9, 1.3),
        make_cell("J1", 2002, 1.25, 1.0, 1.5),
        make_cell("J1", 2003, 0.70, 0.5, 0.9),
    ]
    curve = coverage_curve(
        grid_of(cells, years), country="US", scheme=Scheme.INCLUSIVE, max_offset=3
    )
    by_offset = {p.offset_years: p for p in curve.points}
    # offset 1: 1.10 in [0.8,1.2]; 1.25 not in [0.9,1.3]... it is (1.25 <= 1.3);
    # 0.70 not in [1.0,1.5]
    assert by_offset[1].n_comparisons == 3
    assert by_offset[1].inside_fraction == pytest.approx(2 / 3)
    # offset 2: 1.25 in [0.8,1.2]? no; 0.70 in [0.9,1.3]? no
    assert by_offset[2].n_comparisons == 2
    assert by_offset[2].inside_fraction == 0.0
    # offset 3: 0.70 in [0.8,1.2]? no
    assert by_offset[3].n_comparisons == 1
    assert by_offset[3].inside_fraction == 0.0


def test_curve_endpoint_membership_is_closed():
    cells = [
        make_cell("J1", 2000, 1.0, 0.8, 1.2),
        make_cell("J1", 2001, 1.2, 0.9, 1.5),
    ]
    curve = coverage_curve(
        grid_of(cells, range(2000, 2002)), country="US", scheme=Scheme.INCLUSIVE, max_offset=1
    )
    assert curve.points[0].inside_fraction == 1.0


def test_curve_excludes_unbounded_base_and_counts_it():
    cells = [
        make_cell("J1", 2000, 1.0, None, None, status=EstimateStatus.UNBOUNDED_FIELLER),
        make_cell("J1", 2001, 1.0, 0.9, 1.1),
        make_cell("J1", 2002, 1.0, 0.9, 1.1),
    ]
    exclusions = []
    curve = coverage_curve(
        grid_of(cells, range(2000, 2003)),
        country="US",
        scheme=Scheme.INCLUSIVE,
        max_offset=2,
        exclusions=exclusions,
    )
    by_offset = {p.offset_years: p for p in curve.points}
    assert by_offset[1].n_comparisons == 1  # only 2001 -> 2002
    assert 2 not in by_offset  # 2000 -> 2002 base unusable, no pairs left
    reasons = {(e.offset, e.reason): e.count for e in exclusions}
    assert reasons[(1, "base_interval_unusable")] == 1
    assert reasons[(2, "base_interval_unusable")] == 1
    assert reasons[(2, "no_valid_pairs")] == 1


def test_curve_uses_point_values_from_interval_less_later_cells():
    cells = [
        make_cell("J1", 2000, 1.0, 0.8, 1.2),
        make_cell("J1", 2001, 1.1, None, None, status=EstimateStatus.INSUFFICIENT_DATA),
    ]
    curve = coverage_curve(
        grid_of(cells, range(2000, 2002)), country="US", scheme=Scheme.INCLUSIVE, max_offset=1
    )
    assert curve.points[0].n_comparisons == 1
    assert curve.points[0].inside_fraction == 1.0


def test_curve_counts_missing_later_values():
    cells = [make_cell("J1", 2000, 1.0, 0.8, 1.2)]
    exclusions = []
    curve = coverage_curve(
        grid_of(cells, range(2000, 2002)),
        country="US",
        scheme=Scheme.INCLUSIVE,
        max_offset=1,
        exclusions=exclusions,
    )
    assert curve.points == ()
    assert any(e.reason == "later_value_missing" and e.count == 1 for e in exclusions)


# a few values and bounds, so that later values often sit on a bound
GRID_VALUES = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.25, 2.0])
GRID_BOUNDS = st.sampled_from([-0.5, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0])


@st.composite
def cell_sets(draw):
    """(cells, years): every status, missing years and distinct keys inside
    ``years``."""
    years = range(2000, 2000 + draw(st.integers(1, 5)))
    keys = st.tuples(st.sampled_from(["J1", "J2", "J3"]), st.sampled_from(years),
                     st.sampled_from(["AA", "BB"]), st.sampled_from(list(Scheme)))
    cells = []
    for journal, year, country, scheme in draw(st.lists(keys, max_size=40, unique=True)):
        lo, hi = sorted((draw(GRID_BOUNDS), draw(GRID_BOUNDS)))
        cells.append(make_cell(
            journal, year, draw(GRID_VALUES), lo, hi, country=country, scheme=scheme,
            status=draw(st.sampled_from(list(EstimateStatus))),
        ))
    return cells, years


@settings(max_examples=150, deadline=None)
@given(cell_sets())
def test_grid_curves_and_series_match_per_pair_oracle(drawn):
    cells, years = drawn
    grid = grid_of(cells, years, journals=["JX"])  # JX has no cells
    lag0 = CurvePoint(0, 0.5, 10, simulated=True)
    for country in ("AA", "BB", "US", "CC"):
        for scheme in Scheme:
            got, want = [], []
            # offsets up to len(years) + 1: the last two lie past the year span
            curve = coverage_curve(grid, country=country, scheme=scheme,
                                   max_offset=len(years) + 1, lag0_point=lag0, exclusions=got)
            assert curve == coverage_curve_oracle(
                cells, country=country, scheme=scheme, years=years,
                max_offset=len(years) + 1, lag0_point=lag0, exclusions=want,
            )
            assert got == want
            for journal_id in ("J1", "J2", "J3", "JX", "JZ"):
                assert series_report(
                    grid, journal_id=journal_id, country=country, scheme=scheme
                ) == series_oracle(
                    cells, journal_id=journal_id, country=country, scheme=scheme, years=years
                )


def test_grid_without_cells():
    grid = grid_of([], range(2000, 2003))
    exclusions = []
    curve = coverage_curve(grid, country="US", scheme=Scheme.INCLUSIVE, max_offset=4,
                           exclusions=exclusions)
    assert curve.points == ()
    # offsets 3 and 4 lie past the 3-year span: nothing attempted, nothing excluded
    assert [(e.offset, e.reason, e.count) for e in exclusions] == [
        (k, "no_valid_pairs", 1) for k in range(1, 3)
    ]
    series = series_report(grid, journal_id="J1", country="US", scheme=Scheme.INCLUSIVE)
    assert [(p.year, p.status) for p in series] == [(y, "missing") for y in range(2000, 2003)]


def test_grid_holds_arrays_not_cells():
    grid = grid_of([make_cell("J1", 2000, 1.0, 0.8, 1.2)], range(2000, 2002))
    arrays = [v for v in vars(grid).values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 12
    assert all(a.dtype != object for a in arrays)
    assert not any(isinstance(v, (list, CellRow, MnlcsEstimate)) for v in vars(grid).values())


def test_compute_cells_fills_the_grid():
    grid = compute_cells(generate(scenario()), ["AA", "BB"], list(Scheme))
    assert grid.years == range(2000, 2010)
    assert grid.journals == {"J1": 0, "J2": 1, "J3": 2, "J4": 3}
    assert list(grid.targets) == [(c, s) for c in ("AA", "BB") for s in Scheme]
    for name in ("n_group", "n_field", "value", "ci_low", "ci_high", "h", "se", "status"):
        column = getattr(grid, name)
        assert isinstance(column, np.ndarray) and column.dtype != object
        assert column.shape == (4, 4, 10)
    assert grid.present.all() and grid.has_cells.all()


def test_compute_cells_on_a_wider_year_axis():
    cohorts = generate(scenario(year_start=2002, year_end=2004))
    grid = compute_cells(cohorts, ["AA"], [Scheme.INCLUSIVE], years=range(2000, 2007))
    assert grid.present.shape == (1, 4, 7)
    assert grid.present.any(axis=(0, 1)).tolist() == [False] * 2 + [True] * 3 + [False] * 2
    assert np.isnan(grid.value[:, :, [0, 1, 5, 6]]).all()


def test_compute_cells_of_no_cohorts():
    exclusions = []
    grid = compute_cells([], ["AA"], list(Scheme), exclusions=exclusions)
    assert grid.present.shape == (2, 0, 0) and grid.years == range(0) and exclusions == []


@pytest.mark.parametrize("case", ["duplicate cohort", "duplicate target", "year outside",
                                  "years step"])
def test_compute_cells_rejects_inputs_without_one_grid_place(case):
    cohorts = generate(scenario())
    countries, schemes, years = ["AA", "BB"], list(Scheme), None
    if case == "duplicate cohort":
        cohorts = [*cohorts, cohorts[3]]
    elif case == "duplicate target":
        countries = ["AA", "BB", "AA"]
    elif case == "year outside":
        years = range(2000, 2009)
    else:
        years = range(2000, 2010, 2)
    exclusions = []
    with pytest.raises(ValidationError):
        compute_cells(cohorts, countries, schemes, exclusions=exclusions, years=years)
    assert exclusions == []


def test_curve_validation():
    with pytest.raises(ValidationError):
        CoverageCurve("US", Scheme.INCLUSIVE, (CurvePoint(1, 0.5, 0),))
    with pytest.raises(ValidationError):
        CoverageCurve(
            "US", Scheme.INCLUSIVE, (CurvePoint(2, 0.5, 1), CurvePoint(1, 0.5, 1))
        )


def scenario(mode_kwargs=None, **overrides):
    base = dict(
        n_journals=4,
        year_start=2000,
        year_end=2009,
        field_size_per_year=200,
        groups=(GroupSpec("AA", 0.3, 1.0, 1.0), GroupSpec("BB", 0.2, 1.3, 1.0)),
        collab_fraction=0.25,
        rng_seed=11,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def test_compute_cells_covers_grid():
    cohorts = generate(scenario())
    grid = compute_cells(cohorts, ["AA", "BB"], list(Scheme))
    # every journal-year has both groups under both schemes here
    assert np.count_nonzero(grid.present) == 4 * 10 * 2 * 2
    assert (grid.status == OK).all()
    for country in ("AA", "BB"):
        inclusive = grid.n_group[grid.targets[(country, Scheme.INCLUSIVE)]]
        exclusive = grid.n_group[grid.targets[(country, Scheme.EXCLUSIVE)]]
        assert (exclusive <= inclusive).all()


def test_compute_cells_tallies_empty_groups():
    cohorts = generate(scenario())
    exclusions = []
    grid = compute_cells(cohorts, ["AA", "XX"], [Scheme.INCLUSIVE], exclusions=exclusions)
    assert grid.present[grid.targets[("AA", Scheme.INCLUSIVE)]].all()
    assert not grid.present[grid.targets[("XX", Scheme.INCLUSIVE)]].any()
    empty = [e for e in exclusions if e.reason == "empty_group"]
    assert len(empty) == 4 * 10  # XX never appears


def test_compute_cells_memory_does_not_grow_with_cohorts():
    # the moments come a block of at most ARTICLES articles at a time, so the
    # peak stays flat in the cohort count but for the per-cohort moments and
    # the cells
    groups = tuple(GroupSpec(code * 2, round(0.10 - 0.01 * i, 2), 0.6 + 0.1 * i, 1.0)
                   for i, code in enumerate("ABCDEFGHIJ"))
    cohorts = generate(scenario(field_size_per_year=10**4, groups=groups, rng_seed=5))
    countries = [g.country for g in groups]
    compute_cells(cohorts, countries, list(Scheme))  # fills the t memo and each log_citations
    peaks = []
    for n in (10, 40):
        tracemalloc.start()
        try:
            grid = compute_cells(cohorts[:n], countries, list(Scheme))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert np.count_nonzero(grid.present) == n * len(countries) * 2
    assert peaks[1] <= 5 * 2**20
    assert peaks[1] - peaks[0] <= 2**18


def test_lag0_curve_point_pools_journal_years():
    cohorts = generate(scenario())
    target = ("AA", Scheme.INCLUSIVE)
    point = lag0_curve_points(cohorts, [target], replicates=40, rng_seed=5)[target]
    assert point.simulated
    assert point.offset_years == 0
    assert 0.0 <= point.inside_fraction <= 1.0
    assert point.n_comparisons <= 40 * len(cohorts)


def test_full_curve_on_static_scenario_is_flat_near_lag0():
    cohorts = generate(scenario())
    grid = compute_cells(cohorts, ["AA"], [Scheme.INCLUSIVE])
    target = ("AA", Scheme.INCLUSIVE)
    lag0 = lag0_curve_points(cohorts, [target], replicates=60, rng_seed=9)[target]
    curve = coverage_curve(
        grid,
        country="AA",
        scheme=Scheme.INCLUSIVE,
        max_offset=5,
        lag0_point=lag0,
    )
    assert curve.points[0].offset_years == 0
    later = [p for p in curve.points if p.offset_years >= 1]
    assert len(later) == 5
    # loose smoke check; the calibrated version is an acceptance criterion
    for p in later:
        assert abs(p.inside_fraction - lag0.inside_fraction) < 0.12


def test_series_report_marks_gaps():
    cells = [
        make_cell("J1", 2000, 1.0, 0.8, 1.2),
        make_cell("J1", 2002, 1.1, None, None, status=EstimateStatus.INSUFFICIENT_DATA),
    ]
    series = series_report(
        grid_of(cells, range(2000, 2003)), journal_id="J1", country="US",
        scheme=Scheme.INCLUSIVE,
    )
    assert [p.year for p in series] == [2000, 2001, 2002]
    assert series[0].status == "ok"
    assert series[1].status == "missing" and series[1].value is None
    assert series[2].status == "insufficient_data"
    assert series[2].value == pytest.approx(1.1)
    assert series[2].ci_low is None


def test_series_single_year():
    cells = [make_cell("J1", 2000, 1.0, 0.8, 1.2)]
    series = series_report(
        grid_of(cells, range(2000, 2001)), journal_id="J1", country="US",
        scheme=Scheme.INCLUSIVE,
    )
    assert len(series) == 1


def test_series_lower_bound_clamped_in_report():
    cells = [make_cell("J1", 2000, 0.1, -0.05, 0.25)]
    series = series_report(
        grid_of(cells, range(2000, 2001)), journal_id="J1", country="US",
        scheme=Scheme.INCLUSIVE,
    )
    assert series[0].ci_low == 0.0


def test_whole_journal_is_always_one():
    for c in generate(scenario()):
        est = whole_journal_estimate(c, CiSettings())
        assert abs(est.value - 1.0) <= 1e-12


def test_whole_journal_of_uncited_cohort_is_a_degenerate_field():
    with pytest.raises(DegenerateField, match=r"^field mean of ln\(1\+c\) is zero$"):
        whole_journal_estimate(cohort([(0, ("US",)), (0, ())] * 5), CiSettings())


def test_series_of_all_field_group_is_constant_one():
    # a group spanning the entire field is its own baseline
    spec = scenario(groups=(GroupSpec("AA", 1.0, 1.1, 1.0),), collab_fraction=0.0)
    cohorts = generate(spec)
    assert all(all("AA" in r.countries for r in c.records) for c in cohorts)
    series = series_report(
        compute_cells(cohorts, ["AA"], [Scheme.INCLUSIVE]), journal_id="J1", country="AA",
        scheme=Scheme.INCLUSIVE,
    )
    assert all(p.value == pytest.approx(1.0, abs=1e-12) for p in series)
