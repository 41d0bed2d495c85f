"""Tests for generated kernels: stepping, chains, reversibility checks."""

from fractions import Fraction

import numpy as np
import pytest

from ipmaps.involutions import catalog_get
from ipmaps.kernels import (
    GeneratedKernel, KernelError, _gof_against_law,
    check_detailed_balance_exact, check_ip_statistical,
    check_reversibility_statistical, kernel_step, pushforward,
    simulate_chain, stationary_sample,
)
from ipmaps.laws import (
    BetaI, Gamma, Geometric, GIG, ShiftGeom, ThreePoint, TruncGeom,
    UniformUnit, truncate,
)
from ipmaps.rng import RandomStream
from ipmaps.stat_tests import independence_test


class ConstLaw:
    """Degenerate stub law: every draw returns the same value."""

    is_discrete = False

    def __init__(self, value):
        self.value = value

    def sample(self, rng, size=None):
        if size is None:
            return self.value
        return np.full(size, self.value)


# ---------------------------------------------------------------------------
# kernel_step
# ---------------------------------------------------------------------------

def test_rrw_step_with_forced_down_move():
    kernel = GeneratedKernel(catalog_get("reflecting_rw"), ConstLaw(-1))
    assert kernel_step(kernel, 0, RandomStream(0)) == 0


def test_my_step_with_forced_noise():
    kernel = GeneratedKernel(catalog_get("matsumoto_yor"), ConstLaw(1.0))
    assert kernel_step(kernel, 1.0, RandomStream(0)) == pytest.approx(0.5)


def test_step_frequencies_match_three_point_noise():
    pair = catalog_get("reflecting_rw")
    noise = ThreePoint(0.2, 0.5, 0.3)
    n = 100_000
    ys = pair.f(3, noise.sample(RandomStream(67), n))
    for y, p in ((4, 0.2), (2, 0.5), (3, 0.3)):
        freq = (ys == y).mean()
        se = np.sqrt(p * (1 - p) / n)
        assert abs(freq - p) <= 3 * se


# ---------------------------------------------------------------------------
# simulate_chain
# ---------------------------------------------------------------------------

def test_deterministic_my_iterates():
    kernel = GeneratedKernel(catalog_get("matsumoto_yor"), ConstLaw(1.0))
    path = simulate_chain(kernel, 1.0, 3, RandomStream(0))
    assert np.allclose(path.states, [1.0, 0.5, 2.0 / 3.0, 0.6])


def test_chain_structural_invariants():
    kernel = GeneratedKernel(catalog_get("reflecting_rw"),
                             ThreePoint(0.2, 0.5, 0.3))
    path = simulate_chain(kernel, Geometric(0.4), 500, RandomStream(71))
    pair = kernel.pair
    assert np.array_equal(path.states[1:],
                          pair.f(path.states[:-1], path.drivers))
    assert np.array_equal(path.codrivers,
                          pair.g(path.states[:-1], path.drivers))


def test_stationary_chain_marginal_gof():
    kernel = GeneratedKernel(catalog_get("reflecting_rw"),
                             ThreePoint(0.2, 0.5, 0.3))
    path = simulate_chain(kernel, Geometric(0.4), 100_000, RandomStream(73))
    # consecutive states are dependent; thin far past the correlation length
    thinned = path.states[::50]
    assert _gof_against_law(thinned, Geometric(0.4)).passed


def test_codrivers_are_iid_noise():
    kernel = GeneratedKernel(catalog_get("reflecting_rw"),
                             ThreePoint(0.2, 0.5, 0.3))
    path = simulate_chain(kernel, Geometric(0.4), 100_000, RandomStream(79))
    v = path.codrivers
    assert _gof_against_law(v, ThreePoint(0.2, 0.5, 0.3)).passed
    assert independence_test(np.column_stack([v[:-1], v[1:]])).passed


def test_chain_requires_positive_length():
    kernel = GeneratedKernel(catalog_get("matsumoto_yor"), Gamma(2, 1))
    with pytest.raises(KernelError):
        simulate_chain(kernel, 1.0, 0, RandomStream(0))


def test_stationary_sample_matches_direct_sampler():
    kernel = GeneratedKernel(catalog_get("matsumoto_yor"), Gamma(2, 1))
    rng = RandomStream(83)
    r1, r2 = rng.split(2)
    burned = stationary_sample(kernel, 20_000, r1, burn_in=1000)
    from ipmaps.stat_tests import ks_two_sample
    direct = GIG(2, 1).sample(r2, 20_000)
    assert ks_two_sample(burned, direct).passed


# ---------------------------------------------------------------------------
# exact detailed balance
# ---------------------------------------------------------------------------

def _rrw_kernel():
    return GeneratedKernel(catalog_get("reflecting_rw"),
                           ThreePoint(0.2, 0.5, 0.3))


def test_detailed_balance_holds_for_forced_law():
    table, _ = truncate(Geometric(0.4), 0, 200)
    report = check_detailed_balance_exact(_rrw_kernel(), table)
    assert report.passed
    assert report.details["residual"] <= 1e-15


def test_detailed_balance_fails_for_wrong_law():
    table, _ = truncate(Geometric(0.5), 0, 200)
    report = check_detailed_balance_exact(_rrw_kernel(), table)
    assert not report.passed
    assert report.details["residual"] >= 0.01


def test_detailed_balance_kdv():
    kernel = GeneratedKernel(catalog_get("kdv_g1"), ShiftGeom(0.5, 2))
    table, tail = truncate(TruncGeom(0.5, 2), -2, 2)
    assert tail == 0.0
    report = check_detailed_balance_exact(kernel, table)
    assert report.passed
    assert report.details["residual"] <= report.details["threshold"]


def test_pushforward_fraction_and_float_cells_agree():
    pair = catalog_get("reflecting_rw")
    mu = [(k, Fraction(3, 5) * Fraction(2, 5) ** k) for k in range(20)]
    nu = [(1, Fraction(1, 5)), (-1, Fraction(1, 2)), (0, Fraction(3, 10))]
    exact = pushforward(pair, mu, nu)
    mu_f = [(x, float(w)) for x, w in mu]
    nu_f = [(u, float(w)) for u, w in nu]
    approx = pushforward(pair, mu_f, nu_f)
    assert list(exact) == list(approx)
    assert all(isinstance(w, Fraction) for w in exact.values())
    # reference: one scalar evaluation per cell, summed in grid order
    loop = {}
    for x, px in mu_f:
        for u, pu in nu_f:
            key = (int(pair.f(x, u)), int(pair.g(x, u)))
            loop[key] = loop.get(key, 0.0) + px * pu
    assert list(approx.items()) == list(loop.items())
    for key, w in exact.items():
        assert approx[key] == pytest.approx(float(w), rel=1e-12)


def test_detailed_balance_requires_table():
    with pytest.raises(KernelError):
        check_detailed_balance_exact(_rrw_kernel(), Geometric(0.4))


# ---------------------------------------------------------------------------
# statistical reversibility / independence preservation
# ---------------------------------------------------------------------------

def test_my_kernel_is_gig_reversible():
    kernel = GeneratedKernel(catalog_get("matsumoto_yor"), Gamma(2, 1))
    report = check_reversibility_statistical(kernel, GIG(2, 1), 50_000,
                                             RandomStream(89))
    assert report.passed


def test_my_kernel_not_reversible_with_uniform_noise():
    kernel = GeneratedKernel(catalog_get("matsumoto_yor"), UniformUnit())
    report = check_reversibility_statistical(kernel, GIG(2, 1), 50_000,
                                             RandomStream(89))
    assert not report.passed
    assert report.details["exchangeability"]["p_value"] < 1e-10


def test_beta_map_reversibility():
    kernel = GeneratedKernel(catalog_get("beta_map"), BetaI(3, 2))
    report = check_reversibility_statistical(kernel, BetaI(2, 1), 50_000,
                                             RandomStream(97))
    assert report.passed


def test_reversibility_needs_enough_samples():
    kernel = GeneratedKernel(catalog_get("matsumoto_yor"), Gamma(2, 1))
    with pytest.raises(KernelError):
        check_reversibility_statistical(kernel, GIG(2, 1), 500,
                                        RandomStream(0))


def test_ip_matches_reversibility_for_my():
    # the two checks agree on the same map and laws
    pair = catalog_get("matsumoto_yor")
    kernel = GeneratedKernel(pair, Gamma(2, 1))
    rng = RandomStream(101)
    r1, r2 = rng.split(2)
    ip = check_ip_statistical(pair, GIG(2, 1), Gamma(2, 1), 50_000, r1)
    rev = check_reversibility_statistical(kernel, GIG(2, 1), 50_000, r2)
    assert ip.passed and rev.passed


def test_ip_with_product_noise_reports_components():
    pair = catalog_get("beta_walk")
    # Sethuraman laws with the Bernoulli weight a0/(a0+a1)
    mu = BetaI(2, 3)
    from ipmaps.laws import Bernoulli
    nu = (Bernoulli(0.4), BetaI(1, 5))
    report = check_ip_statistical(pair, mu, nu, 50_000, RandomStream(103))
    details = report.details
    assert details["y_marginal"]["passed"]
    assert not details["v_marginal_0"]["passed"]
    assert not report.passed
