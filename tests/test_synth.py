import math

import numpy as np
import pytest

from _oracles import expected_log1p_count, generate_oracle, prob_zero_count
from mnlcs.errors import MalformedCountry, ValidationError
from mnlcs.rngtools import stream
from mnlcs.synth import (
    GroupSpec,
    IndependentResample,
    LinearDrift,
    RandomWalk,
    ScenarioSpec,
    Static,
    capability_path,
    generate,
    sample_citations,
)


def test_zero_sigma_is_deterministic():
    counts = sample_citations(math.log(4), 0.0, 50, stream(0, "t"))
    assert (counts == 3).all()


def test_log_transform_recovers_generating_level():
    # the zero clamp biases E[ln(1+c)] upward at low mu; the series oracle
    # gives the exact expectation there, and above mu ~ 3 the generating mu
    # itself is recovered
    rng = stream(7, "sample")
    counts = sample_citations(1.0, 1.0, 100_000, rng)
    mean = np.log1p(counts).mean()
    assert mean == pytest.approx(expected_log1p_count(1.0, 1.0), abs=0.02)

    rng = stream(8, "sample")
    counts = sample_citations(3.0, 1.0, 100_000, rng)
    assert np.log1p(counts).mean() == pytest.approx(3.0, abs=0.02)


def test_very_low_capability_gives_uncited_mass():
    # oracle: P(c = 0) = Phi((ln 1.5 - mu) / sigma), essentially 1 at mu = -5
    assert prob_zero_count(-5.0, 1.0) > 1 - 1e-6
    counts = sample_citations(-5.0, 1.0, 10_000, stream(3, "low"))
    assert (counts == 0).mean() >= 0.9995


def test_sample_mean_within_three_ses_of_mu_in_faithful_regime():
    n = 10_000
    rng = stream(5, "sanity")
    counts = sample_citations(4.0, 0.8, n, rng)
    logs = np.log1p(counts)
    assert abs(logs.mean() - 4.0) <= 3 * 0.8 / math.sqrt(n)


def _spec(**overrides):
    base = dict(
        n_journals=3,
        year_start=2000,
        year_end=2004,
        field_size_per_year=60,
        groups=(
            GroupSpec("AA", 0.25, 1.2, 1.0),
            GroupSpec("BB", 0.2, 0.8, 1.0),
        ),
        collab_fraction=0.3,
        rng_seed=99,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def test_generate_shapes_and_labels():
    spec = _spec()
    cohorts = generate(spec)
    assert len(cohorts) == 3 * 5
    assert [c.journal_id for c in cohorts[:5]] == ["J1"] * 5
    # one canonical label set, shared by every cohort
    assert all(c.codes is cohorts[0].codes and c.sets is cohorts[0].sets for c in cohorts)
    for c in cohorts:
        assert c.size == 60
        aa = [r for r in c.records if "AA" in r.countries]
        assert len(aa) == 15  # floor(0.25 * 60)
        collab = [r for r in aa if spec.collab_partner in r.countries]
        assert len(collab) == 5  # round(15 * 0.3)
        unlabeled = [r for r in c.records if not r.countries]
        assert len(unlabeled) == 60 - 15 - 12


@pytest.mark.parametrize("mode", [Static(), RandomWalk(0.3), LinearDrift(0.1), IndependentResample(0.4)])
@pytest.mark.parametrize("collab_fraction", [0.0, 0.3, 1.0])
def test_generate_matches_the_per_group_oracle(mode, collab_fraction):
    # CC's share gives it no article
    groups = (GroupSpec("AA", 0.25, 1.2, 1.0), GroupSpec("CC", 0.01, 1.0, 1.0), GroupSpec("BB", 0.2, 0.8, 0.5))
    spec = _spec(capability_mode=mode, collab_fraction=collab_fraction, groups=groups, n_journals=2)
    assert generate(spec) == generate_oracle(spec)


def test_generate_matches_the_per_group_oracle_without_field_rest_or_spread():
    spec = _spec(groups=(GroupSpec("AA", 0.5, 1.2, 1.0), GroupSpec("BB", 0.5, 0.8, 1.0)), rng_seed=2**130)
    assert generate(spec) == generate_oracle(spec)
    assert all(c.size == 60 and all(r.countries for r in c.records) for c in generate(spec))
    # validation rejects sigma 0, but a group without spread must still get
    # the counts of sample_citations' sigma-0 branch
    object.__setattr__(spec.groups[1], "sigma", 0.0)
    assert generate(spec) == generate_oracle(spec)


def test_generate_is_deterministic():
    a = generate(_spec())
    b = generate(_spec())
    assert a == b


def test_different_seed_changes_data():
    a = generate(_spec())
    b = generate(_spec(rng_seed=100))
    assert a != b


def test_static_capability_is_constant():
    spec = _spec(capability_mode=Static())
    path = capability_path(spec, "J1", spec.groups[0])
    assert set(path.values()) == {1.2}


def test_linear_drift_path():
    spec = _spec(capability_mode=LinearDrift(slope=-0.05))
    path = capability_path(spec, "J1", spec.groups[0])
    assert path[2000] == pytest.approx(1.2)
    assert path[2004] == pytest.approx(1.2 - 0.05 * 4)


def test_independent_resample_redraws_each_year():
    spec = _spec(capability_mode=IndependentResample(spread=0.5))
    path = capability_path(spec, "J1", spec.groups[0])
    assert len(set(path.values())) == len(path)
    # and the path differs between journals
    other = capability_path(spec, "J2", spec.groups[0])
    assert path != other


def test_random_walk_accumulates():
    spec = _spec(capability_mode=RandomWalk(step=0.1))
    path = capability_path(spec, "J1", spec.groups[0])
    assert path[2000] == pytest.approx(1.2)
    diffs = np.diff([path[y] for y in sorted(path)])
    assert (diffs != 0).all()


def test_linear_drift_recovered_by_regression():
    # pooled per-year means across journals; slope fitted by least squares
    slope = -0.02
    spec = _spec(
        n_journals=8,
        year_start=1996,
        year_end=2014,
        field_size_per_year=300,
        groups=(GroupSpec("AA", 0.3, 3.0, 1.0),),
        collab_fraction=0.0,
        capability_mode=LinearDrift(slope=slope),
        rng_seed=21,
    )
    cohorts = generate(spec)
    years = sorted({c.year for c in cohorts})
    means = []
    for y in years:
        logs = np.concatenate(
            [
                np.log1p([r.citations for r in c.records if "AA" in r.countries])
                for c in cohorts
                if c.year == y
            ]
        )
        means.append(logs.mean())
    fitted = np.polyfit(years, means, 1)[0]
    assert fitted == pytest.approx(slope, abs=0.005)


def test_spec_validation():
    with pytest.raises(ValidationError):
        _spec(groups=(GroupSpec("AA", 0.7, 1.0, 1.0), GroupSpec("BB", 0.4, 1.0, 1.0)))
    with pytest.raises(ValidationError):
        GroupSpec("AA", 0.0, 1.0, 1.0)
    with pytest.raises(ValidationError):
        GroupSpec("AA", 0.5, 1.0, 0.0)
    with pytest.raises(ValidationError):
        _spec(year_end=1999)
    with pytest.raises(ValidationError):
        _spec(groups=(GroupSpec("AA", 0.2, 1.0, 1.0), GroupSpec("AA", 0.2, 1.0, 1.0)))


def test_malformed_group_country_is_rejected():
    with pytest.raises(MalformedCountry):
        generate(_spec(groups=(GroupSpec("AA", 0.25, 1.2, 1.0), GroupSpec("bb", 0.2, 0.8, 1.0))))
    with pytest.raises(MalformedCountry):
        generate(_spec(collab_partner="Z"))


def test_journal_ids_zero_padded_for_sorting():
    spec = _spec(n_journals=12)
    ids = spec.journal_ids
    assert ids[0] == "J01" and ids[-1] == "J12"
    assert list(ids) == sorted(ids)
