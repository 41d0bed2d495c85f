"""Tests for the quantile/conditional-cdf involution construction."""

import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtr, ndtri

from ipmaps.augmentation import augment
from ipmaps.involutions import (
    REAL_LINE, UNIQUE, UNIT_INTERVAL, InvolutionPair, catalog_get,
    check_involution, sample_points,
)
from ipmaps.laws import Normal, UniformUnit
from ipmaps.rng import RandomStream
from ipmaps.skorokhod import (
    CdfFamily, SkorokhodError, check_monotone, gaussian_family, rosenblatt_g,
    skorokhod_f,
)


# ---------------------------------------------------------------------------
# point values
# ---------------------------------------------------------------------------

def test_gaussian_median_at_mean():
    fam = gaussian_family(0.5, 1.0)
    assert skorokhod_f(fam, 0.0, 0.5) == pytest.approx(0.0, abs=1e-10)
    assert skorokhod_f(fam, 2.0, 0.5) == pytest.approx(1.0, abs=1e-10)


def test_gaussian_rosenblatt_point():
    fam = gaussian_family(0.5, 1.0)
    assert rosenblatt_g(fam, 0.0, 0.5) == pytest.approx(0.5, abs=1e-10)


def test_uniform_family_is_trivial():
    # the state-independent family F_x(y) = y: f(x,u) = u, g(x,u) = x
    fam = CdfFamily(name="uniform", interval=(0.0, 1.0),
                    F=lambda x, y: np.asarray(y, dtype=float)
                    + 0.0 * np.asarray(x, dtype=float))
    assert skorokhod_f(fam, 0.3, 0.7) == pytest.approx(0.7, abs=1e-10)
    assert rosenblatt_g(fam, 0.3, 0.7) == pytest.approx(0.3, abs=1e-10)


def test_u_must_be_interior():
    fam = gaussian_family(0.5, 1.0)
    with pytest.raises(SkorokhodError):
        skorokhod_f(fam, 0.0, 0.0)
    with pytest.raises(SkorokhodError):
        skorokhod_f(fam, 0.0, 1.0)


def test_sigma_must_be_positive():
    with pytest.raises(SkorokhodError):
        gaussian_family(0.5, 0.0)


# ---------------------------------------------------------------------------
# numeric inversion against the closed form
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("beta,sigma", [(0.5, 1.0), (-0.5, 1.0), (0.9, 2.0)])
def test_numeric_matches_closed_form(beta, sigma):
    numeric = gaussian_family(beta, sigma)
    catalog = catalog_get("gaussian_rosenblatt", {"beta": beta, "sigma": sigma})
    xs = np.linspace(-3 * sigma, 3 * sigma, 40)
    us = np.linspace(0.005, 0.995, 40)
    xg, ug = np.meshgrid(xs, us)
    xg, ug = xg.ravel(), ug.ravel()
    assert np.max(np.abs(skorokhod_f(numeric, xg, ug)
                         - catalog.f(xg, ug))) <= 1e-8
    assert np.max(np.abs(rosenblatt_g(numeric, xg, ug)
                         - catalog.g(xg, ug))) <= 1e-8


def test_rosenblatt_matches_formula_at_point():
    beta, sigma = 0.5, 1.0
    numeric = gaussian_family(beta, sigma)
    expected = ndtr((1 - beta ** 2) * 1.0 / sigma - beta * ndtri(0.3))
    assert rosenblatt_g(numeric, 1.0, 0.3) == pytest.approx(expected, abs=1e-8)


def test_bracket_failure_is_reported():
    # a defective "cdf" capped at 1/2 cannot reach large u
    fam = CdfFamily("capped", (-math.inf, math.inf),
                    lambda x, y: 0.5 * ndtr(np.asarray(y, dtype=float)))
    with pytest.raises(SkorokhodError):
        skorokhod_f(fam, 0.0, 0.9)


# ---------------------------------------------------------------------------
# involution and distributional properties
# ---------------------------------------------------------------------------

def test_built_gaussian_pair_is_involution():
    # the quantile transform augmented through its solver, the cdf
    pair = augment(catalog_get("gaussian_rosenblatt",
                               {"beta": 0.5, "sigma": 1.0}))
    xs, us = sample_points(pair, 10_000, RandomStream(163))
    report = check_involution(pair, xs, us, 1e-8)
    assert report.passed


def test_non_reversible_family_still_gives_an_involution():
    """F_x = N(0.8 sin x + 0.3 x^2 / (1 + x^2), 0.49): a Gaussian kernel
    whose mean is not linear in x is reversible with respect to no law.
    Yet every strictly increasing family gives an involution; reversibility
    decides only whether mu (x) UniformUnit is preserved."""
    def mean(x):
        return 0.8 * np.sin(x) + 0.3 * x * x / (1.0 + x * x)

    fam = CdfFamily("nonreversible", (-math.inf, math.inf),
                    lambda x, y: ndtr((np.asarray(y, dtype=float)
                                       - mean(np.asarray(x, dtype=float)))
                                      / 0.7))
    spec = InvolutionPair(
        fam.name, REAL_LINE, UNIT_INTERVAL,
        lambda x, u: skorokhod_f(fam, x, u), None,
        solver=lambda x, y: (fam.F(x, y), np.full(np.shape(y), UNIQUE)))
    pair = augment(spec)
    xs, us = sample_points(pair, 2_000, RandomStream(0))
    assert check_involution(pair, xs, us, 1e-8).passed


def test_beta_zero_decouples_coordinates():
    fam = gaussian_family(0.0, 2.0)
    gen = RandomStream(167).gen
    x = gen.normal(0, 2, 100)
    u = gen.uniform(0.01, 0.99, 100)
    y = skorokhod_f(fam, x, u)
    v = rosenblatt_g(fam, x, u)
    assert np.max(np.abs(y - 2.0 * ndtri(u))) <= 1e-10
    assert np.max(np.abs(v - ndtr(x / 2.0))) <= 1e-10


def test_rosenblatt_output_is_uniform():
    beta, sigma = 0.5, 1.0
    fam = gaussian_family(beta, sigma)
    mu = Normal(0.0, sigma ** 2 / (1 - beta ** 2))
    rng = RandomStream(173)
    r1, r2 = rng.split(2)
    x = np.asarray(mu.sample(r1, 50_000))
    u = np.asarray(UniformUnit().sample(r2, 50_000))
    v = rosenblatt_g(fam, x, u)
    assert stats.kstest(v, lambda t: t).pvalue > 0.001


def test_gaussian_linear_forms_are_uncorrelated():
    beta, sigma = 0.5, 1.0
    gen = RandomStream(179).gen
    n = 200_000
    x = gen.normal(0.0, math.sqrt(sigma ** 2 / (1 - beta ** 2)), n)
    z = ndtri(gen.uniform(1e-12, 1 - 1e-12, n))
    a = beta * x + sigma * z
    b = (1 - beta ** 2) * x / sigma - beta * z
    prod = (a - a.mean()) * (b - b.mean())
    cov = prod.mean()
    se = prod.std() / math.sqrt(n)
    assert abs(cov) <= 4 * se


# ---------------------------------------------------------------------------
# monotonicity probes
# ---------------------------------------------------------------------------

def test_gaussian_family_is_monotone():
    fam = gaussian_family(0.5, 1.0)
    assert check_monotone(fam, np.linspace(-3, 3, 11)).passed


def test_non_monotone_family_is_flagged():
    fam = CdfFamily("wiggly", (0.0, 1.0),
                    lambda x, y: np.clip(
                        np.asarray(y, dtype=float)
                        - 0.2 * np.sin(4.0 * np.pi * np.asarray(y, dtype=float)),
                        0.0, 1.0))
    report = check_monotone(fam, [0.5])
    assert not report.passed
