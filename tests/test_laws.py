"""Tests for probability law construction, quantiles, sampling, truncation.

Each law is checked against a reference outside the package: scipy.stats
for the continuous kinds, with GIG(alpha, lam) = geninvgauss(p=-alpha,
b=2 lam), adaptive quadrature for the GIG quantile, and Fraction pmfs for
the discrete kinds.
"""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, stats

from ipmaps import laws
from ipmaps.involutions import BLOCK
from ipmaps.laws import (
    Bernoulli, BetaI, FiniteTable, Gamma, Geometric, GIG, LawError, Normal,
    ParityGeom, ShiftGeom, ThreePoint, TruncGeom, UniformUnit,
    _KIND_MAP, _geometric_factors, _multiply_out, gig_norm_const,
    law_from_spec, truncate,
)
from ipmaps.rng import RandomStream
from ipmaps.stat_tests import chi2_gof, ks_two_sample
from test_exact_discrete import _ref_pmf


# ---------------------------------------------------------------------------
# continuous quantile point values
# ---------------------------------------------------------------------------

def test_uniform_quantile():
    assert UniformUnit().quantile(0.7) == pytest.approx(0.7, abs=1e-15)


def test_normal_quantile_median():
    assert Normal(0, 1).quantile(0.5) == pytest.approx(0.0, abs=1e-12)


def test_quantile_rejects_bad_u():
    for law in (UniformUnit(), Normal(0, 1)):
        with pytest.raises(LawError):
            law.quantile(0.0)
        with pytest.raises(LawError):
            law.quantile(1.5)


# ---------------------------------------------------------------------------
# gamma and beta from scipy.special, against scipy.stats bit for bit
# ---------------------------------------------------------------------------

def _hex(values):
    return [float.hex(v) for v in np.ravel(values).astype(float).tolist()]


# 2e5 random u, and the continuous-GOF edge grids for 20 and 50 cells
U_GRIDS = (RandomStream(11).gen.random(200_000),
           np.linspace(0.0, 1.0, 21)[1:-1], np.linspace(0.0, 1.0, 51)[1:-1])
GAMMA_PARAMS = ((2.0, 1.0), (0.5, 3.0), (7.3, 0.2), (1.0, 1.0))
BETA_PARAMS = ((2.0, 1.0), (3.0, 2.0), (0.5, 0.5), (1.0, 5.0), (4.0, 0.7))


@pytest.mark.parametrize("shape, rate", GAMMA_PARAMS)
def test_gamma_matches_scipy_stats_bits(shape, rate):
    law, ref = Gamma(shape, rate), stats.gamma(a=shape, scale=1.0 / rate)
    for u in U_GRIDS:
        assert _hex(law.quantile(u)) == _hex(ref.ppf(u))


@pytest.mark.parametrize("a, b", BETA_PARAMS)
def test_beta_matches_scipy_stats_bits(a, b):
    law, ref = BetaI(a, b), stats.beta(a, b)
    for u in U_GRIDS:
        assert _hex(law.quantile(u)) == _hex(ref.ppf(u))


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
    for podd in (0.0, 1.0):
        with pytest.raises(LawError, match="podd in"):
            ParityGeom(0.5, podd)
    for p in (-0.1, 1.5):
        with pytest.raises(LawError, match="p in"):
            Bernoulli(p)
    for theta in (0.0, 1.0):
        with pytest.raises(LawError, match="theta in"):
            ShiftGeom(theta, 2)
    with pytest.raises(LawError, match="even ell"):
        ShiftGeom(0.5, 3)
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


@pytest.mark.parametrize("alpha, lam", [
    (2, 1), (1, 1), (0.5, 0.5), (3, 2), (1.5, 0.7), (2, 3), (0.2, 5)])
def test_gig_norm_const_matches_direct_quadrature(alpha, lam):
    assert gig_norm_const(alpha, lam) == pytest.approx(
        1.0 / _gig_integral(alpha, lam), rel=1e-10)


def test_gig_norm_const_keeps_the_benchmark_value():
    # the value the quadrature gave for the GIG(2, 1) of every workload
    assert gig_norm_const(2, 1).hex() == "0x1.f86a02eb1dd97p+0"


def test_gig_norm_const_raises_where_the_bessel_function_underflows():
    with pytest.raises(LawError):
        gig_norm_const(2, 400)


def _gig_density(law, x):
    """The density the sampler and the quantile table read: the law's
    constant times exp of its log kernel."""
    return law.norm_const * np.exp(law._log_h(x))


def test_gig_density_integrates_to_one():
    law = GIG(2, 1)
    val, _ = integrate.quad(lambda x: _gig_density(law, x), 0.0, np.inf,
                            limit=400)
    assert val == pytest.approx(1.0, abs=1e-9)


def test_gig_constant_invariant_under_reciprocal_substitution():
    # the integrals for alpha and -alpha coincide after x -> 1/x
    assert _gig_integral(3, 2) == pytest.approx(_gig_integral(-3, 2), rel=1e-9)


def test_gig_reciprocal_symmetry_pointwise():
    # density * x^(alpha+1) * exp(lam (x + 1/x)) must be constant in x
    law = GIG(2, 1)
    xs = np.array([0.1, 0.5, 1.0, 2.0, 5.0])
    vals = _gig_density(law, xs) * xs ** 3.0 * np.exp(xs + 1.0 / xs)
    assert np.max(np.abs(vals / vals[0] - 1.0)) <= 1e-10


def test_gig_mean_matches_quadrature():
    law = GIG(2, 1)
    pdf = stats.geninvgauss(p=-law.alpha, b=2.0 * law.lam).pdf
    mean, _ = integrate.quad(lambda x: x * pdf(x), 0.0, np.inf, limit=400)
    var, _ = integrate.quad(lambda x: (x - mean) ** 2 * pdf(x),
                            0.0, np.inf, limit=400)
    n = 1_000_000
    draws = law.sample(RandomStream(7), n)
    se = math.sqrt(var / n)
    assert abs(draws.mean() - mean) <= 3.0 * se


def gig_markov_sample(alpha, lam, n, rng, burn_in=1000):
    """Draw n approximate GIG(alpha, lam) values by iterating
    x -> 1/(x + G), G ~ Gamma(alpha, lam), whose stationary law is GIG: an
    independent mechanism to cross-validate the rejection sampler."""
    x = np.full(n, 1.0)
    for _ in range(burn_in):
        x = 1.0 / (x + rng.gen.gamma(alpha, 1.0 / lam, n))
    return x


def test_gig_rejection_vs_markov_chain_sampler():
    rng = RandomStream(11)
    r1, r2 = rng.split(2)
    a = GIG(2, 1).sample(r1, 20_000)
    b = gig_markov_sample(2, 1, 20_000, r2)
    assert ks_two_sample(a, b).passed


def whole_batch_gig_sample(law, rng, size):
    """GIG.sample as it ran before it tested its proposals a block at a
    time: each round's ratio-of-uniforms test on all m proposals at once."""
    n = int(size)
    out = np.empty(n)
    filled = 0
    while filled < n:
        m = max(2 * (n - filled), 64)
        v = rng.gen.random(m)
        w = rng.gen.random(m) * law._w_max
        x = w / v
        accept = 2.0 * np.log(v) <= law._log_h(x) - law._log_h_mode
        xs = x[accept]
        take = min(len(xs), n - filled)
        out[filled:filled + take] = xs[:take]
        filled += take
    return out


# (1, 20) accepts about one proposal in five, so it takes several rounds;
# at n = 400,000 (2, 1) fills n two blocks before its round ends
@pytest.mark.parametrize("alpha, lam", [(2, 1), (1, 20)])
@pytest.mark.parametrize("n", [1, 64, (1 << 16) + 3, 100_000, 400_000])
def test_gig_draws_keep_the_bits_of_the_whole_batch_sampler(alpha, lam, n):
    law = GIG(alpha, lam)
    blocked, whole = RandomStream(13), RandomStream(13)
    assert np.array_equal(law.sample(blocked, n),
                          whole_batch_gig_sample(law, whole, n))
    # the stream is used as far: its next draws agree as well
    assert np.array_equal(blocked.gen.random(4), whole.gen.random(4))


@pytest.mark.parametrize("offset", [1, 2, 3, 4])
def test_gig_draws_keep_their_bits_from_every_buffer_offset(offset):
    # the proposals are read in place from wherever the stream stands
    law = GIG(2, 1)
    blocked, whole = RandomStream(17), RandomStream(17)
    blocked.gen.random(offset)
    whole.gen.random(offset)
    assert np.array_equal(law.sample(blocked, 100_000),
                          whole_batch_gig_sample(law, whole, 100_000))
    assert np.array_equal(blocked.gen.random(4), whole.gen.random(4))


BLOCKWISE_LAWS = [Gamma(2, 1), BetaI(2, 3), BetaI(1, 5), UniformUnit(),
                  Normal(0.0, 4.0 / 3.0), Bernoulli(0.4), Geometric(0.4),
                  ShiftGeom(0.5, 2), TruncGeom(0.5, 2),
                  ThreePoint(0.2, 0.5, 0.3),
                  FiniteTable([-2, 0, 3], [0.25, 0.5, 0.25]),
                  ParityGeom(3 / 7, 0.3)]


def whole_batch_draws(law, gen, n):
    """One whole batch of numpy draws: ParityGeom's n parities, then its
    n geometric values; ThreePoint's n uniforms through two nested
    `np.where`; every other law's `_draws` into one n-point array."""
    if isinstance(law, ParityGeom):
        parity = (gen.random(n) < law.podd).astype(np.int64)
        return 2 * (gen.geometric(1.0 - law.rho ** 2, n) - 1) + parity
    if isinstance(law, ThreePoint):
        u = gen.random(n)
        return np.where(u < law.p, 1, np.where(u < law.p + law.q, -1, 0))
    out = np.empty(n, np.int64 if law.is_discrete else float)
    law._draws(gen, out)
    return out


@pytest.mark.parametrize("law", BLOCKWISE_LAWS, ids=repr)
def test_blockwise_draws_are_the_whole_batch(law):
    """A block at a time, into a new array or a given float one, a law
    draws the bits that one whole batch of numpy draws gives, and leaves
    its stream where that batch does."""
    n = 3 * BLOCK + 5
    whole, blocked, into = (RandomStream(19) for _ in range(3))
    expected = whole_batch_draws(law, whole.gen, n)
    drawn = law.sample(blocked, n)
    out = np.empty(n)
    assert law.sample(into, n, out) is out
    assert drawn.dtype == (np.int64 if law.is_discrete else np.float64)
    assert np.array_equal(drawn, expected)
    assert out.tobytes() == expected.astype(float).tobytes()   # no -0.0
    after = [stream.gen.random(4) for stream in (whole, blocked, into)]
    assert np.array_equal(after[0], after[1])
    assert np.array_equal(after[0], after[2])


@pytest.mark.parametrize("n", [1, 5, 3 * BLOCK + 7])
@pytest.mark.parametrize("offset", [1, 2, 3])
def test_parity_geom_draws_keep_their_bits_from_every_buffer_offset(offset,
                                                                    n):
    # the parities are read in place from wherever the stream stands
    law = ParityGeom(0.8, 0.6)
    blocked, whole = RandomStream(23), RandomStream(23)
    blocked.gen.random(offset)
    whole.gen.random(offset)
    assert np.array_equal(law.sample(blocked, n),
                          whole_batch_draws(law, whole.gen, n))
    assert np.array_equal(blocked.gen.random(4), whole.gen.random(4))


def _finite_400():
    w = 0.99 ** np.arange(400)
    return FiniteTable(np.arange(-200, 200), w / w.sum())


# sha256 of the 200,000 draws from RandomStream(79), taken when the table
# was made again for every block of draws
@pytest.mark.parametrize("make, digest", [
    (_finite_400,
     "bc9c6304204cb890f406f0ea48f589dc5586c559d285899b5d67c0eef065925f"),
    (lambda: TruncGeom(0.5, 8),
     "5f65cf1d59848c4ae0e52be44b345f767b603529f510032f5fb10d334dbb2307")],
    ids=["finite_table", "trunc_geom"])
def test_a_finite_law_makes_its_table_once(make, digest, monkeypatch):
    calls = []
    monkeypatch.setattr(laws, "truncate",
                        lambda *a: calls.append(a) or truncate(*a))
    law = make()
    n = 200_000   # four blocks
    assert n > 3 * BLOCK
    draws = law.sample(RandomStream(79), n)
    assert hashlib.sha256(draws.tobytes()).hexdigest() == digest
    law.sample(RandomStream(83), n)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# GIG quantile table against adaptive quadrature and root finding
# ---------------------------------------------------------------------------

GIG_GRID = [(0.1, 0.01), (0.5, 0.5), (2, 1), (0.1, 5), (1, 20)]
# the quantile edges of the chi-square GOF at n < 10^5 and n >= 10^5
GOF_EDGES = [np.linspace(0.0, 1.0, k + 1)[1:-1] for k in (20, 50)]


def _gig_quad_cdf(law, x):
    """The cdf by `quad` over t = log x in [-30, min(log x, 30)]."""
    if x <= 0.0 or math.log(x) <= -30.0:
        return 0.0

    def integrand(t):
        e = -law.alpha * t - 2.0 * law.lam * math.cosh(t)
        return math.exp(e) if e > -745.0 else 0.0

    val, _ = integrate.quad(integrand, -30.0, min(math.log(x), 30.0),
                            epsabs=1e-300, epsrel=1e-12, limit=400)
    return min(val * law.norm_const, 1.0)


@pytest.mark.parametrize("alpha, lam", GIG_GRID)
def test_gig_cdf_matches_quadrature(alpha, lam):
    """The cumulative table the quantile reads, at every 5th panel edge
    t = log x in [-12, 12]."""
    law = GIG(alpha, lam)
    k = np.flatnonzero(np.abs(law._edges) <= 12.0)[::5]
    ref = np.array([_gig_quad_cdf(law, x) for x in np.exp(law._edges[k])])
    assert len(k) == 97
    assert np.max(np.abs(law.norm_const * law._cum[k] - ref)) <= 1e-12


@pytest.mark.parametrize("alpha, lam", GIG_GRID)
def test_gig_cdf_is_monotone(alpha, lam):
    """The cumulative table never falls, and the quantile read from it
    rises with u."""
    law = GIG(alpha, lam)
    assert np.all(np.diff(law._cum) >= 0.0)
    assert np.all(np.diff(law.quantile(np.linspace(0.0, 1.0, 2_001)[1:-1]))
                  > 0.0)


@pytest.mark.parametrize("alpha, lam", GIG_GRID)
def test_gig_quantile_matches_root_of_quadrature(alpha, lam):
    law = GIG(alpha, lam)
    for us in GOF_EDGES:
        ref = np.array([math.exp(optimize.brentq(
            lambda t: _gig_quad_cdf(law, math.exp(t)) - u, -30.0, 30.0,
            xtol=1e-15)) for u in us])
        assert np.max(np.abs(law.quantile(us) / ref - 1.0)) <= 1e-12


def test_gig_scalars_stay_scalar_and_arrays_keep_their_shape():
    law = GIG(2, 1)
    assert type(law.quantile(0.5)) is float
    assert law.quantile(np.full((2, 3), 0.5)).shape == (2, 3)


def test_gig_quantile_cdf_roundtrip():
    law = GIG(2, 1)
    us = GOF_EDGES[1]
    xs = law.quantile(us)
    assert np.max(np.abs([_gig_quad_cdf(law, x) for x in xs] - us)) <= 1e-14


def test_gig_raises_when_the_cdf_table_misses_the_constant(monkeypatch):
    monkeypatch.setattr(laws, "gig_norm_const",
                        lambda alpha, lam: gig_norm_const(alpha, lam) * (1 + 1e-11))
    with pytest.raises(LawError, match="does not sum to 1"):
        GIG(2, 1)


# ---------------------------------------------------------------------------
# sampling sanity
# ---------------------------------------------------------------------------

def test_bernoulli_one_is_degenerate():
    assert (Bernoulli(1.0).sample(RandomStream(0), 100) == 1).all()


def test_finite_table_draws_from_its_exact_table():
    # the exact cumulative table [1/2, 3/4, 1] draws as the float rule
    # support[searchsorted(cumsum(probs), u, "left")] did, draw for draw
    law = FiniteTable([3, -1, 0], [0.25, 0.5, 0.25])
    draws = law.sample(RandomStream(43), 100_000)
    u = RandomStream(43).gen.random(100_000)
    old = law.support[np.searchsorted(np.cumsum(law.probs), u, "left")]
    assert set(np.unique(draws).tolist()) == {-1, 0, 3}
    assert np.array_equal(draws, old)


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
    assert int(draws.min()) >= law.support_lo
    hi = int(draws.max())
    values = np.arange(law.support_lo, hi + 1)
    nums, den, tail = truncate(law, hi)
    probs = [Fraction(nums.get(int(v), 0), den) for v in values]
    probs.append(Fraction(tail, den))
    assert sum(probs) == 1
    counts = np.array([(draws == v).sum() for v in values], dtype=float)
    counts = np.append(counts, len(draws) - counts.sum())
    assert chi2_gof(counts, [float(p) for p in probs]).passed


def _geninvgauss_cdf(law):
    """scipy.stats' geninvgauss cdf of a GIG law at sorted points: its `cdf`
    at the first, then 8-node Gauss-Legendre integrals of its `pdf` over
    each gap. Its `cdf` alone takes one `quad` per point, some 10 s for
    10^5 draws."""
    ref = stats.geninvgauss(p=-law.alpha, b=2.0 * law.lam)
    nodes, weights = np.polynomial.legendre.leggauss(8)

    def cdf(xs):
        half = 0.5 * np.diff(xs)
        gaps = ref.pdf(xs[:-1, None] + half[:, None] * (nodes + 1.0)) @ weights
        return ref.cdf(xs[0]) + np.append(0.0, np.cumsum(half * gaps))
    return cdf


def _ref_cdf(law):
    """The law's cdf from scipy.stats; GIG's only at sorted points."""
    if isinstance(law, GIG):
        return _geninvgauss_cdf(law)
    if isinstance(law, Gamma):
        return stats.gamma(a=law.shape, scale=1.0 / law.rate).cdf
    if isinstance(law, BetaI):
        return stats.beta(law.a, law.b).cdf
    if isinstance(law, Normal):
        return stats.norm(law.mean, law.std).cdf
    return stats.uniform().cdf


@pytest.mark.parametrize("law", [
    Gamma(2, 1), BetaI(2, 3), UniformUnit(), Normal(1, 4), GIG(2, 1),
])
def test_continuous_sampler_gof(law):
    draws = np.sort(law.sample(RandomStream(17), 100_000))
    res = stats.kstest(draws, _ref_cdf(law))
    assert res.pvalue > 0.001


@pytest.mark.parametrize("law", [
    Gamma(2, 1), BetaI(2, 3), UniformUnit(), Normal(1, 4),
])
def test_continuous_quantile_cdf_identities(law):
    cdf = _ref_cdf(law)
    us = np.linspace(0.001, 0.999, 25)
    xs = law.quantile(us)
    assert np.max(np.abs(cdf(xs) - us)) <= 1e-10
    assert np.max(np.abs(law.quantile(cdf(xs)) - xs)
                  / np.maximum(1.0, np.abs(xs))) <= 1e-8


# ---------------------------------------------------------------------------
# truncation
# ---------------------------------------------------------------------------

def test_truncate_shift_geom_tail_is_exact():
    nums, den, tail = truncate(ShiftGeom(0.5, 2), 60)
    assert Fraction(tail, den) == Fraction(1, 2 ** 63)
    assert sum(nums.values()) + tail == den


def _geometric_table(theta, lo, hi):
    """The geometric table `_geometric_factors` states, multiplied out:
    ({k: numerator}, den)."""
    k, atoms, exps = _geometric_factors(theta, lo, hi)
    nums = _multiply_out(atoms, exps).tolist() if len(k) else []
    return (dict(zip(k.tolist(), nums)),
            theta.denominator ** max(hi - lo + 1, 1))


def _closed_form_geometric_table(theta, lo, hi):
    """The geometric table as a closed form: numerators
    (b - a) a^(k - lo) b^(hi - k) over b^(hi - lo + 1), theta = a / b, or
    no state over b when hi < lo."""
    a, b = theta.numerator, theta.denominator
    apow, bpow = [1], [1]
    for _ in range(hi - lo):
        apow.append(apow[-1] * a)
        bpow.append(bpow[-1] * b)
    return ({k: (b - a) * apow[k - lo] * bpow[hi - k]
             for k in range(lo, hi + 1)}, bpow[-1] * b)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10 ** 9).flatmap(
           lambda b: st.tuples(st.integers(0, b - 1), st.just(b))),
       st.integers(-40, 40), st.integers(-60, 200))
def test_geometric_table_equals_its_closed_form(ab, lo, hi):
    theta = Fraction(*ab)
    assert _geometric_table(theta, lo, hi) == \
        _closed_form_geometric_table(theta, lo, hi)


def test_geometric_table_below_its_first_state_is_empty_over_b():
    assert _geometric_table(Fraction(2, 7), 5, 4) == ({}, 7)
    assert _geometric_table(Fraction(2, 7), 5, -30) == ({}, 7)
    assert _geometric_table(Fraction(0), 0, 2) == ({0: 1, 1: 0, 2: 0}, 1)


def test_truncate_geometric_at_zero():
    nums, den, tail = truncate(Geometric(0.4), 0)
    assert {k: Fraction(w, den) for k, w in nums.items()} == \
        {0: Fraction(3, 5)}
    assert Fraction(tail, den) == Fraction(2, 5)


def _parity_pmf(rho2, podd):
    return lambda k: (podd if k % 2 else 1 - podd) * (1 - rho2) * \
        rho2 ** (k // 2)


F = Fraction


@pytest.mark.parametrize("make, pmf", [
    # a Fraction is kept as it is, where its float would be read back as
    # its shortest decimal: 1/6 as 0.16666666666666666
    (lambda: Geometric(F(1, 6)), lambda k: F(5, 6) * F(1, 6) ** k),
    (lambda: ThreePoint(F(1, 7), F(5, 7), F(1, 7)),
     {-1: F(5, 7), 0: F(1, 7), 1: F(1, 7)}.get),
    (lambda: ParityGeom(None, F(2, 7), rho2=F(1, 6)),
     _parity_pmf(F(1, 6), F(2, 7))),
    # rho^2 = p p' / (q q') of the walk at (0.3, 0.7, 0, 0.15)
    (lambda: ParityGeom(None, F(3, 20), rho2=F(9, 119)),
     _parity_pmf(F(9, 119), F(3, 20))),
    # a config float is read as its shortest decimal, as it always was
    (lambda: Geometric(0.1), lambda k: F(9, 10) * F(1, 10) ** k),
    (lambda: ThreePoint(0.2, 0.5, 0.3),
     {-1: F(1, 2), 0: F(3, 10), 1: F(1, 5)}.get),
    (lambda: ParityGeom(0.6, 0.3), _parity_pmf(F(9, 25), F(3, 10))),
], ids=["geometric-1/6", "three_point-sevenths", "parity_geom-rho2-1/6",
        "parity_geom-rho2-9/119", "geometric-0.1", "three_point-0.2-0.5",
        "parity_geom-0.6-0.3"])
def test_a_discrete_law_keeps_its_exact_parameters(make, pmf):
    law = make()
    hi = 40 if law.support_hi == math.inf else law.support_hi
    nums, den, tail = truncate(law, hi)
    assert {k: F(w, den) for k, w in nums.items()} == \
        {k: pmf(k) for k in range(law.support_lo, hi + 1)}
    assert F(tail, den) == 1 - sum(map(pmf, range(law.support_lo, hi + 1)))


def test_truncate_trunc_geom_identity():
    law = TruncGeom(0.3, 4)
    nums, den, tail = truncate(law, 4)
    assert tail == 0 and den == sum(nums.values())
    theta = Fraction(3, 10)
    z = sum(theta ** k for k in range(-4, 5))
    assert {k: Fraction(w, den) for k, w in nums.items()} == \
        {k: theta ** k / z for k in range(-4, 5)}


# every discrete kind of the spec table; box is [support_lo, last hi checked]
@pytest.mark.parametrize("law,box", [
    (Geometric(0.4), (0, 40)),
    (ShiftGeom(0.5, 2), (-2, 50)),
    (ParityGeom(0.6, 0.3), (0, 80)),
    (Bernoulli(0.4), (0, 3)),
    (TruncGeom(0.3, 4), (-4, 7)),
    (ThreePoint(0.2, 0.5, 0.3), (-1, 3)),
    (ThreePoint(0.3, 0.7, 0.0), (-1, 3)),
    (FiniteTable([3, -1, 0], [0.25, 0.5, 0.25]), (-1, 5)),
])
def test_truncation_mass_accounting(law, box):
    lo, last = box
    assert lo == law.support_lo
    for hi in range(lo, last + 1):
        nums, den, tail = truncate(law, hi)
        assert sum(nums.values()) + tail == den
        box = range(lo, min(hi, law.support_hi) + 1)
        pmf = _ref_pmf(law)
        # only positive-mass states: ThreePoint with r = 0 has no state 0
        assert list(nums) == [k for k in box if pmf(k) > 0]
        for k, w in nums.items():
            assert Fraction(w, den) == pmf(k)
        assert (tail == 0) == (hi >= law.support_hi)
    if law.support_hi is not math.inf:
        assert last > law.support_hi


# one spec of every discrete kind of the spec table
DISCRETE_SPECS = {
    "bernoulli": {"p": 0.4},
    "geometric": {"theta": 0.4},
    "trunc_geom": {"theta": 0.3, "ell": 4},
    "shift_geom": {"theta": 0.3, "ell": 4},
    "three_point": {"p": 0.2, "q": 0.5, "r": 0.3},
    "parity_geom": {"rho": 0.6, "podd": 0.3},
    "finite_table": {"support": [3, -1, 0], "probs": [0.25, 0.5, 0.25]},
}


def test_discrete_specs_cover_every_discrete_kind():
    discrete = {kind for kind, (cls, _) in _KIND_MAP.items()
                if cls.is_discrete}
    assert discrete == set(DISCRETE_SPECS)


@pytest.mark.parametrize("kind", sorted(DISCRETE_SPECS))
def test_pmf_is_zero_outside_the_support(kind):
    """The exact table keeps no state outside [support_lo, support_hi],
    and gives positive mass to each finite end."""
    law = law_from_spec({"kind": kind, "params": DISCRETE_SPECS[kind]})
    finite = law.support_hi is not math.inf
    nums, den, tail = truncate(law, law.support_hi + 5 if finite else 40)
    assert min(nums) == law.support_lo and nums[law.support_lo] > 0
    if finite:
        assert max(nums) == law.support_hi and nums[law.support_hi] > 0
        assert tail == 0
    with pytest.raises(LawError):
        truncate(law, law.support_lo - 1)


def test_truncate_rejects_continuous():
    with pytest.raises(LawError):
        truncate(Gamma(2, 1), 10)


def test_truncate_rejects_a_box_below_the_support():
    with pytest.raises(LawError):
        truncate(ShiftGeom(0.5, 2), -3)


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


@pytest.mark.parametrize("value", [float("nan"), float("inf"), True, "0.5"],
                         ids=repr)
def test_law_from_spec_takes_only_finite_numbers(value):
    for kind, params in (("three_point", {"p": value, "q": 0.5, "r": 0.3}),
                         ("bernoulli", {"p": value}),
                         ("finite_table", {"support": [0, 1],
                                           "probs": [value, 0.5]})):
        with pytest.raises(LawError, match="must hold finite numbers only"):
            law_from_spec({"kind": kind, "params": params})


@pytest.mark.parametrize("make", [
    lambda nan: Gamma(nan, 1.0), lambda nan: BetaI(2.0, nan),
    lambda nan: Normal(0.0, nan), lambda nan: GIG(nan, 1.0),
    lambda nan: FiniteTable([0, 1], [nan, 0.5]),
    lambda nan: ThreePoint(0.2, nan, 0.3)])
def test_laws_reject_nan_parameters(make):
    with pytest.raises(LawError):
        make(float("nan"))


@pytest.mark.parametrize("support", [[-1, 0.5, 1], [-1, -1, 1]], ids=str)
def test_finite_table_needs_distinct_integer_support(support):
    # 0.5 once loaded as 0; a repeated -1 gave pmf(-1) = 0.3 while the
    # sampler drew -1 with probability 0.6
    with pytest.raises(LawError, match="distinct integer support"):
        FiniteTable(support, [0.3, 0.3, 0.4])
