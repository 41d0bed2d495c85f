"""Probability laws: evaluation, sampling, and exact truncated tabulation.

Continuous kinds expose ``density``/``cdf``/``quantile``/``sample``; discrete
kinds additionally support exact truncation to a finite table with the dropped
tail mass in closed form where one exists.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special, stats

from .rng import RandomStream


class LawError(ValueError):
    pass


class Law:
    """Base class for probability laws. Immutable; safe to share."""

    is_discrete = False

    def density(self, x):
        raise NotImplementedError

    def cdf(self, x):
        raise NotImplementedError

    def quantile(self, u):
        raise NotImplementedError

    def sample(self, rng: RandomStream, size=None):
        raise NotImplementedError

    def _check_u(self, u):
        u = np.asarray(u, dtype=float)
        if np.any((u <= 0.0) | (u >= 1.0)):
            raise LawError("quantile argument must lie in (0,1)")
        return u


# ---------------------------------------------------------------------------
# continuous kinds
# ---------------------------------------------------------------------------

class Gamma(Law):
    def __init__(self, shape, rate):
        if shape <= 0 or rate <= 0:
            raise LawError("Gamma requires shape>0 and rate>0")
        self.shape = float(shape)
        self.rate = float(rate)
        self._dist = stats.gamma(a=self.shape, scale=1.0 / self.rate)

    def density(self, x):
        return self._dist.pdf(x)

    def cdf(self, x):
        return self._dist.cdf(x)

    def quantile(self, u):
        return self._dist.ppf(self._check_u(u))

    def sample(self, rng, size=None):
        return rng.gen.gamma(self.shape, 1.0 / self.rate, size)

    def __repr__(self):
        return f"Gamma(shape={self.shape}, rate={self.rate})"


class BetaI(Law):
    def __init__(self, a, b):
        if a <= 0 or b <= 0:
            raise LawError("BetaI requires a>0 and b>0")
        self.a = float(a)
        self.b = float(b)
        self._dist = stats.beta(self.a, self.b)

    def density(self, x):
        return self._dist.pdf(x)

    def cdf(self, x):
        return self._dist.cdf(x)

    def quantile(self, u):
        return self._dist.ppf(self._check_u(u))

    def sample(self, rng, size=None):
        return rng.gen.beta(self.a, self.b, size)

    def __repr__(self):
        return f"BetaI({self.a}, {self.b})"


class UniformUnit(Law):
    def density(self, x):
        x = np.asarray(x, dtype=float)
        return np.where((x > 0.0) & (x < 1.0), 1.0, 0.0)

    def cdf(self, x):
        return np.clip(np.asarray(x, dtype=float), 0.0, 1.0)

    def quantile(self, u):
        return self._check_u(u)

    def sample(self, rng, size=None):
        return rng.gen.random(size)

    def __repr__(self):
        return "UniformUnit()"


class Normal(Law):
    def __init__(self, mean=0.0, variance=1.0):
        if variance <= 0:
            raise LawError("Normal requires variance>0")
        self.mean = float(mean)
        self.variance = float(variance)
        self.std = math.sqrt(self.variance)

    def density(self, x):
        z = (np.asarray(x, dtype=float) - self.mean) / self.std
        return np.exp(-0.5 * z * z) / (self.std * math.sqrt(2.0 * math.pi))

    def cdf(self, x):
        return special.ndtr((np.asarray(x, dtype=float) - self.mean) / self.std)

    def quantile(self, u):
        return self.mean + self.std * special.ndtri(self._check_u(u))

    def sample(self, rng, size=None):
        return rng.gen.normal(self.mean, self.std, size)

    def __repr__(self):
        return f"Normal(mean={self.mean}, variance={self.variance})"


def gig_norm_const(alpha, lam):
    """Normalizing constant of the density x^(-alpha-1) exp(-lam(x+1/x)) on (0,inf).

    Computed by adaptive quadrature after the substitution x=e^t, which turns
    the integrand into exp(-alpha*t - 2*lam*cosh(t)) with double-exponential
    decay. Relative error <= 1e-10 or a LawError is raised.
    """
    if alpha <= 0 or lam <= 0:
        raise LawError("gig_norm_const requires alpha>0 and lam>0")

    def integrand(t):
        if abs(t) > 30.0:
            return 0.0
        e = -alpha * t - 2.0 * lam * math.cosh(t)
        return math.exp(e) if e > -745.0 else 0.0

    val, err = integrate.quad(integrand, -30.0, 30.0, points=[0.0],
                              epsabs=1e-300, epsrel=1e-12, limit=400)
    if not np.isfinite(val) or val <= 0.0 or err > 1e-10 * val:
        raise LawError(f"quadrature failed for GIG constant at ({alpha}, {lam})")
    return 1.0 / val


class GIG(Law):
    """Law with density C(alpha,lam) x^(-alpha-1) exp(-lam(x+1/x)), x>0.

    Sampling uses a ratio-of-uniforms rejection scheme against the
    unnormalized density; the mode and the maximizer of x^2*h(x) have closed
    forms, so the bounding box is exact.
    """

    def __init__(self, alpha, lam):
        if alpha <= 0 or lam <= 0:
            raise LawError("GIG requires alpha>0 and lam>0")
        self.alpha = float(alpha)
        self.lam = float(lam)
        self.norm_const = gig_norm_const(self.alpha, self.lam)
        a, l = self.alpha, self.lam
        # argmax of h(x) = x^(-a-1) exp(-l(x+1/x))
        self._x_mode = (-(a + 1.0) + math.sqrt((a + 1.0) ** 2 + 4.0 * l * l)) / (2.0 * l)
        # argmax of x^2 h(x)
        x_w = ((1.0 - a) + math.sqrt((1.0 - a) ** 2 + 4.0 * l * l)) / (2.0 * l)
        self._log_h_mode = self._log_h(self._x_mode)
        self._w_max = x_w * math.exp(0.5 * (self._log_h(x_w) - self._log_h_mode))

    def _log_h(self, x):
        return -(self.alpha + 1.0) * np.log(x) - self.lam * (x + 1.0 / x)

    def density(self, x):
        xs = np.asarray(x, dtype=float)
        scalar = xs.ndim == 0
        xs = np.atleast_1d(xs)
        out = np.zeros_like(xs)
        pos = xs > 0.0
        out[pos] = self.norm_const * np.exp(self._log_h(xs[pos]))
        return float(out[0]) if scalar else out

    def cdf(self, x):
        def one(xv):
            if xv <= 0.0:
                return 0.0

            def integrand(t):
                e = -self.alpha * t - 2.0 * self.lam * math.cosh(t)
                return math.exp(e) if e > -745.0 else 0.0

            upper = min(math.log(xv), 30.0)
            if upper <= -30.0:
                return 0.0
            val, _ = integrate.quad(integrand, -30.0, upper,
                                    epsabs=1e-300, epsrel=1e-12, limit=400)
            return min(val * self.norm_const, 1.0)

        if np.ndim(x) == 0:
            return one(float(x))
        return np.array([one(float(v)) for v in np.ravel(x)]).reshape(np.shape(x))

    def quantile(self, u):
        from scipy.optimize import brentq

        def one(uv):
            lo, hi = self._x_mode, self._x_mode
            while self.cdf(lo) > uv:
                lo /= 2.0
            while self.cdf(hi) < uv:
                hi *= 2.0
            return brentq(lambda x: self.cdf(x) - uv, lo, hi, xtol=1e-14, rtol=1e-12)

        u = self._check_u(u)
        if np.ndim(u) == 0:
            return one(float(u))
        return np.array([one(float(v)) for v in np.ravel(u)]).reshape(np.shape(u))

    def sample(self, rng, size=None):
        n = 1 if size is None else int(size)
        out = np.empty(n)
        filled = 0
        while filled < n:
            m = max(2 * (n - filled), 64)
            v = rng.gen.random(m)
            w = rng.gen.random(m) * self._w_max
            x = w / v
            accept = 2.0 * np.log(v) <= self._log_h(x) - self._log_h_mode
            xs = x[accept]
            take = min(len(xs), n - filled)
            out[filled:filled + take] = xs[:take]
            filled += take
        return float(out[0]) if size is None else out

    def __repr__(self):
        return f"GIG(alpha={self.alpha}, lam={self.lam})"


def gig_markov_sample(alpha, lam, n, rng, burn_in=1000):
    """Draw n approximate GIG(alpha,lam) values by iterating x -> 1/(x+G),
    G ~ Gamma(alpha,lam); the iteration's stationary law is the GIG law.

    Independent mechanism used to cross-validate the rejection sampler.
    """
    x = np.full(n, 1.0)
    for _ in range(burn_in):
        x = 1.0 / (x + rng.gen.gamma(alpha, 1.0 / lam, n))
    return x


# ---------------------------------------------------------------------------
# discrete kinds
# ---------------------------------------------------------------------------

class DiscreteLaw(Law):
    is_discrete = True

    #: (lo, hi) integer support bounds; hi may be math.inf
    support_lo = 0
    support_hi = math.inf

    def pmf(self, k):
        raise NotImplementedError

    def density(self, x):
        x = np.asarray(x)
        flat = np.ravel(x)
        out = np.array([self._pmf_checked(v) for v in flat]).reshape(np.shape(x))
        return float(out) if out.ndim == 0 else out

    def _pmf_checked(self, v):
        fv = float(v)
        if fv != int(fv):
            return 0.0
        k = int(fv)
        if k < self.support_lo or k > self.support_hi:
            return 0.0
        return self.pmf(k)

    def cdf(self, x):
        def one(v):
            m = math.floor(float(v))
            if m < self.support_lo:
                return 0.0
            return self._cdf_int(min(m, self._cdf_cap(m)))

        if np.ndim(x) == 0:
            return one(x)
        return np.array([one(v) for v in np.ravel(x)]).reshape(np.shape(x))

    def _cdf_cap(self, m):
        return m if self.support_hi is math.inf else min(m, self.support_hi)

    def _cdf_int(self, m):
        # fallback: direct summation from the lower support bound
        return min(1.0, sum(self.pmf(k) for k in range(self.support_lo, m + 1)))

    def quantile(self, u):
        def one(uv):
            # generalized inverse inf{k: F(k) >= u}
            k = self.support_lo
            acc = 0.0
            while True:
                acc += self.pmf(k)
                if acc >= uv or (self.support_hi is not math.inf and k >= self.support_hi):
                    return k
                k += 1

        u = self._check_u(u)
        if np.ndim(u) == 0:
            return one(float(u))
        return np.array([one(float(v)) for v in np.ravel(u)]).reshape(np.shape(u))

    def sample(self, rng, size=None):
        u = rng.gen.random(size)
        q = self.quantile(np.clip(u, 1e-16, 1.0 - 1e-16))
        return q

    def _sf_int(self, m):
        """P(X > m); overridden with a closed form where one exists."""
        return 1.0 - self._cdf_int(m)

    def mass_outside(self, lo, hi):
        """Exact probability outside [lo, hi]; closed form where available."""
        below = self.cdf(lo - 1) if lo - 1 >= self.support_lo else 0.0
        above = 0.0 if (self.support_hi is not math.inf and hi >= self.support_hi) \
            else self._sf_int(hi)
        return float(below + above)


class Bernoulli(DiscreteLaw):
    support_lo, support_hi = 0, 1

    def __init__(self, p):
        if not 0.0 <= p <= 1.0:
            raise LawError("Bernoulli requires p in [0,1]")
        self.p = float(p)

    def pmf(self, k):
        return self.p if k == 1 else 1.0 - self.p

    def _cdf_int(self, m):
        return 1.0 - self.p if m == 0 else 1.0

    def sample(self, rng, size=None):
        draws = rng.gen.random(size) < self.p
        return int(draws) if size is None else draws.astype(np.int64)

    def __repr__(self):
        return f"Bernoulli({self.p})"


class Geometric(DiscreteLaw):
    """geo(theta) on {0,1,...}: pmf (1-theta) theta^k."""

    def __init__(self, theta):
        if not 0.0 < theta < 1.0:
            raise LawError("Geometric requires theta in (0,1)")
        self.theta = float(theta)

    def pmf(self, k):
        return (1.0 - self.theta) * self.theta ** k

    def _cdf_int(self, m):
        return 1.0 - self.theta ** (m + 1)

    def _sf_int(self, m):
        return self.theta ** (m + 1)

    def quantile(self, u):
        def one(uv):
            k = int(math.ceil(math.log1p(-uv) / math.log(self.theta) - 1.0))
            k = max(k, 0)
            while self._cdf_int(k) < uv:
                k += 1
            while k > 0 and self._cdf_int(k - 1) >= uv:
                k -= 1
            return k

        u = self._check_u(u)
        if np.ndim(u) == 0:
            return one(float(u))
        return np.array([one(float(v)) for v in np.ravel(u)], dtype=np.int64).reshape(np.shape(u))

    def sample(self, rng, size=None):
        draws = rng.gen.geometric(1.0 - self.theta, size) - 1
        return int(draws) if size is None else draws

    def __repr__(self):
        return f"Geometric({self.theta})"


class TruncGeom(DiscreteLaw):
    """pmf proportional to theta^x on {-ell, ..., ell} (ell even)."""

    def __init__(self, theta, ell):
        if not 0.0 < theta < 1.0:
            raise LawError("TruncGeom requires theta in (0,1)")
        if ell <= 0 or ell % 2 != 0:
            raise LawError("TruncGeom requires even ell >= 2")
        self.theta = float(theta)
        self.ell = int(ell)
        self.support_lo, self.support_hi = -self.ell, self.ell
        self._z = sum(self.theta ** i for i in range(-self.ell, self.ell + 1))

    def pmf(self, k):
        return self.theta ** k / self._z

    def sample(self, rng, size=None):
        support = np.arange(-self.ell, self.ell + 1)
        probs = np.array([self.pmf(int(k)) for k in support])
        cum = np.cumsum(probs)
        cum[-1] = 1.0
        idx = np.searchsorted(cum, rng.gen.random(size), side="right")
        out = support[idx]
        return int(out) if size is None else out

    def __repr__(self):
        return f"TruncGeom({self.theta}, {self.ell})"


class ShiftGeom(DiscreteLaw):
    """pmf proportional to theta^u on {-ell, -ell+1, ...} (ell even)."""

    def __init__(self, theta, ell):
        if not 0.0 < theta < 1.0:
            raise LawError("ShiftGeom requires theta in (0,1)")
        if ell <= 0 or ell % 2 != 0:
            raise LawError("ShiftGeom requires even ell >= 2")
        self.theta = float(theta)
        self.ell = int(ell)
        self.support_lo = -self.ell

    def pmf(self, k):
        # theta^k (1-theta) theta^ell = (1-theta) theta^(k+ell)
        return (1.0 - self.theta) * self.theta ** (k + self.ell)

    def _cdf_int(self, m):
        return 1.0 - self.theta ** (m + self.ell + 1)

    def _sf_int(self, m):
        return self.theta ** (m + self.ell + 1)

    def sample(self, rng, size=None):
        draws = rng.gen.geometric(1.0 - self.theta, size) - 1 - self.ell
        return int(draws) if size is None else draws

    def __repr__(self):
        return f"ShiftGeom({self.theta}, {self.ell})"


class ThreePoint(DiscreteLaw):
    """Law on {-1,0,1} with P(1)=p, P(-1)=q, P(0)=r."""

    support_lo, support_hi = -1, 1

    def __init__(self, p, q, r):
        if min(p, q, r) < 0 or abs(p + q + r - 1.0) > 1e-12:
            raise LawError("ThreePoint requires p,q,r >= 0 with p+q+r=1")
        self.p, self.q, self.r = float(p), float(q), float(r)

    def pmf(self, k):
        return {1: self.p, -1: self.q, 0: self.r}.get(k, 0.0)

    def _cdf_int(self, m):
        if m < -1:
            return 0.0
        if m == -1:
            return self.q
        if m == 0:
            return self.q + self.r
        return 1.0

    def sample(self, rng, size=None):
        u = rng.gen.random(size)
        out = np.where(u < self.p, 1, np.where(u < self.p + self.q, -1, 0))
        return int(out) if size is None else out.astype(np.int64)

    def __repr__(self):
        return f"ThreePoint({self.p}, {self.q}, {self.r})"


class ParityGeom(DiscreteLaw):
    """Law on {0,1,...} with P(odd)=podd and geometric(rho^2) conditional
    laws on each parity class."""

    def __init__(self, rho, podd):
        if not 0.0 < rho < 1.0:
            raise LawError("ParityGeom requires rho in (0,1)")
        if not 0.0 < podd < 1.0:
            raise LawError("ParityGeom requires podd in (0,1)")
        self.rho = float(rho)
        self.podd = float(podd)
        self._rho2 = self.rho ** 2

    def pmf(self, k):
        if k < 0:
            return 0.0
        w = self.podd if k % 2 == 1 else 1.0 - self.podd
        return w * (1.0 - self._rho2) * self._rho2 ** (k // 2)

    def _cdf_int(self, m):
        if m < 0:
            return 0.0
        ke = m // 2                       # last even index 2*ke <= m
        even = (1.0 - self.podd) * (1.0 - self._rho2 ** (ke + 1))
        ko = (m - 1) // 2                 # last odd index 2*ko+1 <= m
        odd = self.podd * (1.0 - self._rho2 ** (ko + 1)) if ko >= 0 else 0.0
        return even + odd

    def _sf_int(self, m):
        if m < 0:
            return 1.0
        ke, ko = m // 2, (m - 1) // 2
        even = (1.0 - self.podd) * self._rho2 ** (ke + 1)
        odd = self.podd * (self._rho2 ** (ko + 1) if ko >= 0 else 1.0)
        return even + odd

    def sample(self, rng, size=None):
        parity = (rng.gen.random(size) < self.podd).astype(np.int64)
        k = rng.gen.geometric(1.0 - self._rho2, size) - 1
        out = 2 * k + parity
        return int(out) if size is None else out

    def __repr__(self):
        return f"ParityGeom(rho={self.rho}, podd={self.podd})"


class FiniteTable(DiscreteLaw):
    """Explicit finite table of (integer support value, probability)."""

    def __init__(self, support, probs, check=True):
        support = np.asarray(support, dtype=np.int64)
        probs = np.asarray(probs, dtype=float)
        order = np.argsort(support)
        self.support = support[order]
        self.probs = probs[order]
        if check:
            if np.any(self.probs < 0):
                raise LawError("FiniteTable probabilities must be nonnegative")
            if abs(self.probs.sum() - 1.0) > 1e-12:
                raise LawError("FiniteTable probabilities must sum to 1")
        self.support_lo = int(self.support[0])
        self.support_hi = int(self.support[-1])
        self._cum = np.cumsum(self.probs)
        self._index = {int(k): float(p) for k, p in zip(self.support, self.probs)}

    def pmf(self, k):
        return self._index.get(int(k), 0.0)

    def _cdf_int(self, m):
        i = np.searchsorted(self.support, m, side="right")
        return float(self._cum[i - 1]) if i > 0 else 0.0

    def quantile(self, u):
        u = self._check_u(u)
        idx = np.searchsorted(self._cum, u, side="left")
        idx = np.minimum(idx, len(self.support) - 1)
        out = self.support[idx]
        return int(out) if np.ndim(u) == 0 else out

    def sample(self, rng, size=None):
        u = rng.gen.random(size)
        idx = np.searchsorted(self._cum, u, side="left")
        idx = np.minimum(idx, len(self.support) - 1)
        out = self.support[idx]
        return int(out) if size is None else out

    def __repr__(self):
        return f"FiniteTable(n={len(self.support)}, lo={self.support_lo}, hi={self.support_hi})"


def truncate(law, lo, hi):
    """Restrict a discrete law to the integer box [lo, hi].

    Returns (renormalized FiniteTable, dropped tail mass). The tail mass uses
    the law's closed-form cdf, so e.g. a geometric tail is exact.
    """
    if not law.is_discrete:
        raise LawError("truncate requires a discrete law")
    lo = max(int(lo), law.support_lo)
    hi = int(hi) if law.support_hi is math.inf else min(int(hi), law.support_hi)
    if hi < lo:
        raise LawError("empty truncation box")
    support = np.arange(lo, hi + 1)
    raw = np.array([law.pmf(int(k)) for k in support])
    tail = law.mass_outside(lo, hi)
    keep = raw > 0.0
    support, raw = support[keep], raw[keep]
    table = FiniteTable(support, raw / raw.sum(), check=False)
    return table, tail


def tail_box(law, tail_target):
    """Smallest box [support_lo, hi] of the doubling sequence whose outside
    mass is <= tail_target.

    A finite support is taken whole; otherwise hi starts at support_lo + 8
    and doubles, stepping by 8 while it is not yet positive.
    """
    lo = law.support_lo
    hi = law.support_hi if law.support_hi is not math.inf else lo + 8
    while law.mass_outside(lo, hi) > tail_target:
        hi = 2 * hi if hi > 0 else hi + 8
        if hi > 10 ** 9:
            raise LawError(f"truncation of {law!r} did not converge")
    return lo, hi


_KIND_MAP = {
    "gamma": (Gamma, ("shape", "rate")),
    "gig": (GIG, ("alpha", "lam")),
    "beta": (BetaI, ("a", "b")),
    "bernoulli": (Bernoulli, ("p",)),
    "uniform": (UniformUnit, ()),
    "normal": (Normal, ("mean", "variance")),
    "geometric": (Geometric, ("theta",)),
    "trunc_geom": (TruncGeom, ("theta", "ell")),
    "shift_geom": (ShiftGeom, ("theta", "ell")),
    "three_point": (ThreePoint, ("p", "q", "r")),
    "parity_geom": (ParityGeom, ("rho", "podd")),
    "finite_table": (FiniteTable, ("support", "probs")),
}


def law_from_spec(spec):
    """Build a law (or tuple of laws for product noise) from a config dict."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise LawError(f"invalid law spec: {spec!r}")
    kind = spec["kind"]
    params = spec.get("params", {})
    if kind == "product":
        return tuple(law_from_spec(c) for c in spec["components"])
    if kind not in _KIND_MAP:
        raise LawError(f"unknown law kind: {kind!r}")
    cls, names = _KIND_MAP[kind]
    unknown = set(params) - set(names)
    if unknown:
        raise LawError(f"unknown parameters for {kind}: {sorted(unknown)}")
    missing = set(names) - set(params)
    if missing:
        raise LawError(f"missing parameters for {kind}: {sorted(missing)}")
    return cls(**{n: params[n] for n in names})
