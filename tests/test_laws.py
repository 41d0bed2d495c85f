"""Tests for probability law construction, evaluation, sampling, truncation."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from ipmaps.laws import (
    Bernoulli, BetaI, FiniteTable, Gamma, Geometric, GIG, LawError, Normal,
    ParityGeom, ShiftGeom, ThreePoint, TruncGeom, UniformUnit,
    gig_markov_sample, gig_norm_const, law_from_spec, tail_box, truncate,
)
from ipmaps.rng import RandomStream
from ipmaps.stat_tests import chi2_gof, ks_two_sample


# ---------------------------------------------------------------------------
# density / cdf / quantile point values
# ---------------------------------------------------------------------------

def test_geometric_density_at_zero():
    assert Geometric(0.4).density(0) == pytest.approx(0.6, abs=1e-15)


def test_trunc_geom_density_outside_support():
    assert TruncGeom(0.5, 2).density(3) == 0.0
    assert TruncGeom(0.5, 2).density(-3) == 0.0


def test_uniform_cdf():
    assert UniformUnit().cdf(0.3) == pytest.approx(0.3, abs=1e-15)


def test_normal_cdf_at_mean():
    assert Normal(0, 1).cdf(0.0) == pytest.approx(0.5, abs=1e-15)


def test_geometric_cdf():
    assert Geometric(0.4).cdf(1) == pytest.approx(0.84, abs=1e-15)


def test_uniform_quantile():
    assert UniformUnit().quantile(0.7) == pytest.approx(0.7, abs=1e-15)


def test_normal_quantile_median():
    assert Normal(0, 1).quantile(0.5) == pytest.approx(0.0, abs=1e-12)


def test_geometric_quantile_generalized_inverse():
    law = Geometric(0.4)
    assert law.quantile(0.59) == 0
    assert law.quantile(0.61) == 1


def test_quantile_rejects_bad_u():
    for law in (UniformUnit(), Geometric(0.4), Normal(0, 1)):
        with pytest.raises(LawError):
            law.quantile(0.0)
        with pytest.raises(LawError):
            law.quantile(1.5)


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------

def test_parameter_range_errors():
    with pytest.raises(LawError):
        Gamma(0, 1)
    with pytest.raises(LawError):
        Geometric(1.0)
    with pytest.raises(LawError):
        TruncGeom(0.5, 3)       # odd ell
    with pytest.raises(LawError):
        ThreePoint(0.5, 0.5, 0.5)
    with pytest.raises(LawError):
        ParityGeom(1.2, 0.5)
    with pytest.raises(LawError):
        FiniteTable([0, 1], [0.7, 0.7])


# ---------------------------------------------------------------------------
# GIG: normalizing constant, reciprocal symmetry, sampling
# ---------------------------------------------------------------------------

def _gig_integral(alpha, lam):
    """Independent quadrature of the unnormalized density on (0, inf)."""
    val, _ = integrate.quad(
        lambda x: x ** (-alpha - 1.0) * math.exp(-lam * (x + 1.0 / x)),
        0.0, np.inf, limit=400)
    return val


def test_gig_norm_const_matches_direct_quadrature():
    assert gig_norm_const(2, 1) == pytest.approx(
        1.0 / _gig_integral(2, 1), rel=1e-10)


def test_gig_density_integrates_to_one():
    law = GIG(2, 1)
    val, _ = integrate.quad(law.density, 0.0, np.inf, limit=400)
    assert val == pytest.approx(1.0, abs=1e-9)


def test_gig_constant_invariant_under_reciprocal_substitution():
    # the integrals for alpha and -alpha coincide after x -> 1/x
    assert _gig_integral(3, 2) == pytest.approx(_gig_integral(-3, 2), rel=1e-9)


def test_gig_reciprocal_symmetry_pointwise():
    # density * x^(alpha+1) * exp(lam (x + 1/x)) must be constant in x
    law = GIG(2, 1)
    xs = np.array([0.1, 0.5, 1.0, 2.0, 5.0])
    vals = law.density(xs) * xs ** 3.0 * np.exp(xs + 1.0 / xs)
    assert np.max(np.abs(vals / vals[0] - 1.0)) <= 1e-10


def test_gig_mean_matches_quadrature():
    law = GIG(2, 1)
    mean, _ = integrate.quad(lambda x: x * law.density(x), 0.0, np.inf,
                             limit=400)
    var, _ = integrate.quad(lambda x: (x - mean) ** 2 * law.density(x),
                            0.0, np.inf, limit=400)
    n = 1_000_000
    draws = law.sample(RandomStream(7), n)
    se = math.sqrt(var / n)
    assert abs(draws.mean() - mean) <= 3.0 * se


def test_gig_rejection_vs_markov_chain_sampler():
    rng = RandomStream(11)
    r1, r2 = rng.split(2)
    a = GIG(2, 1).sample(r1, 20_000)
    b = gig_markov_sample(2, 1, 20_000, r2)
    assert ks_two_sample(a, b).passed


def test_gig_quantile_cdf_roundtrip():
    law = GIG(2, 1)
    for u in (0.05, 0.5, 0.95):
        assert law.cdf(law.quantile(u)) == pytest.approx(u, abs=1e-10)


# ---------------------------------------------------------------------------
# sampling sanity
# ---------------------------------------------------------------------------

def test_bernoulli_one_is_degenerate():
    assert Bernoulli(1.0).sample(RandomStream(0)) == 1


def test_gamma_mean():
    draws = Gamma(2, 1).sample(RandomStream(3), 1_000_000)
    assert abs(draws.mean() - 2.0) <= 0.01


def test_sampling_is_reproducible():
    a = Gamma(2, 1).sample(RandomStream(5), 100)
    b = Gamma(2, 1).sample(RandomStream(5), 100)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("law", [
    Geometric(0.4),
    ThreePoint(0.2, 0.5, 0.3),
    TruncGeom(0.5, 2),
    ShiftGeom(0.5, 2),
    ParityGeom(0.5, 0.3),
    Bernoulli(0.3),
])
def test_discrete_sampler_gof(law):
    draws = np.asarray(law.sample(RandomStream(13), 100_000))
    lo = min(int(draws.min()), law.support_lo)
    hi = int(draws.max())
    values = np.arange(lo, hi + 1)
    probs = np.array([law.pmf(int(v)) for v in values])
    counts = np.array([(draws == v).sum() for v in values], dtype=float)
    counts = np.append(counts, len(draws) - counts.sum())
    probs = np.append(probs, law.mass_outside(lo, hi))
    assert chi2_gof(counts, probs / probs.sum()).passed


@pytest.mark.parametrize("law", [
    Gamma(2, 1), BetaI(2, 3), UniformUnit(), Normal(1, 4), GIG(2, 1),
])
def test_continuous_sampler_gof(law):
    draws = np.asarray(law.sample(RandomStream(17), 100_000))
    res = stats.kstest(draws, law.cdf)
    assert res.pvalue > 0.001


@pytest.mark.parametrize("law", [
    Gamma(2, 1), BetaI(2, 3), UniformUnit(), Normal(1, 4),
])
def test_continuous_quantile_cdf_identities(law):
    us = np.linspace(0.001, 0.999, 25)
    xs = law.quantile(us)
    assert np.max(np.abs(law.cdf(xs) - us)) <= 1e-10
    assert np.max(np.abs(law.quantile(law.cdf(xs)) - xs)
                  / np.maximum(1.0, np.abs(xs))) <= 1e-8


# ---------------------------------------------------------------------------
# truncation
# ---------------------------------------------------------------------------

def test_truncate_shift_geom_tail_is_exact():
    _, tail = truncate(ShiftGeom(0.5, 2), -2, 60)
    assert tail == 2.0 ** -63


def test_truncate_geometric_at_zero():
    table, tail = truncate(Geometric(0.4), 0, 0)
    assert list(table.support) == [0]
    assert table.probs[0] == 1.0
    assert tail == pytest.approx(0.4, abs=1e-15)


def test_truncate_trunc_geom_identity():
    law = TruncGeom(0.3, 4)
    table, tail = truncate(law, -4, 4)
    assert tail == 0.0
    for k in range(-4, 5):
        assert table.pmf(k) == pytest.approx(law.pmf(k), abs=1e-15)


@pytest.mark.parametrize("law,box", [
    (Geometric(0.4), (0, 40)),
    (ShiftGeom(0.5, 2), (-2, 50)),
    (ParityGeom(0.6, 0.3), (0, 80)),
])
def test_truncation_mass_accounting(law, box):
    lo, hi = box
    raw = sum(law.pmf(k) for k in range(lo, hi + 1))
    assert raw + law.mass_outside(lo, hi) == pytest.approx(1.0, abs=1e-14)


def test_truncate_rejects_continuous():
    with pytest.raises(LawError):
        truncate(Gamma(2, 1), 0, 10)


@pytest.mark.parametrize("law,target,box", [
    (Geometric(0.4), 1e-14, (0, 64)),
    (Geometric(0.4), 1e-13, (0, 32)),
    (ThreePoint(0.2, 0.5, 0.3), 1e-14, (-1, 1)),
    (ShiftGeom(0.5, 2), 1e-14, (-2, 48)),
])
def test_tail_box_keeps_the_doubling_box(law, target, box):
    assert tail_box(law, target) == box


@pytest.mark.parametrize("ell", [8, 10])
def test_tail_box_steps_past_nonpositive_start(ell):
    # support_lo + 8 <= 0, so doubling alone would never make hi positive
    law = ShiftGeom(0.5, ell)
    lo, hi = tail_box(law, 1e-14)
    assert lo == -ell and hi > 0
    assert law.mass_outside(lo, hi) <= 1e-14


def test_tail_box_raises_when_mass_never_drops():
    class Stuck(Geometric):
        def mass_outside(self, lo, hi):
            return 1.0

    with pytest.raises(LawError):
        tail_box(Stuck(0.5), 1e-14)


# ---------------------------------------------------------------------------
# law specs
# ---------------------------------------------------------------------------

def test_law_from_spec_roundtrip():
    law = law_from_spec({"kind": "geometric", "params": {"theta": 0.4}})
    assert isinstance(law, Geometric) and law.theta == 0.4


def test_law_from_spec_product():
    pair = law_from_spec({"kind": "product", "components": [
        {"kind": "bernoulli", "params": {"p": 0.4}},
        {"kind": "beta", "params": {"a": 1, "b": 5}},
    ]})
    assert isinstance(pair, tuple) and len(pair) == 2


def test_law_from_spec_errors():
    with pytest.raises(LawError):
        law_from_spec({"kind": "no_such_law"})
    with pytest.raises(LawError):
        law_from_spec({"kind": "gamma", "params": {"shape": 2}})
    with pytest.raises(LawError):
        law_from_spec({"kind": "gamma",
                       "params": {"shape": 2, "rate": 1, "extra": 3}})
    with pytest.raises(LawError):
        law_from_spec("gamma")
