"""Probability laws: sampling, quantiles, and exact truncated tabulation.

A law keeps what a verdict reads. Continuous kinds expose `quantile` and
`sample`. A discrete kind has `sample` and one exact table, in factored
form (`factors`), which the product-law cell identity reads and
`truncate` multiplies out for every verdict that sums masses.

Of scipy, this module uses scipy.special alone, imported in the functions
that call it, so the discrete laws of the exact stanzas load no scipy. The
gamma and beta quantiles call the functions that scipy.stats calls for
them, so they give the same bits: `gammaincinv` and `betaincinv`. The
normal law uses `ndtri`, the GIG constant `kv`, and the GIG quantile a
Gauss-Legendre table in numpy (see `GIG`).
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

from .involutions import BLOCK, blocks


class LawError(ValueError):
    pass


class Law:
    """Base class for probability laws. Immutable; safe to share.

    `sample(rng, size, out=None)` returns an array of draws in the closed
    interval [support_lo, support_hi], written into `out` if given; a
    discrete law's draws are also integers. Every law fills a batch a block
    at a time (`_draws(gen, out)`; GIG and ParityGeom read theirs in place),
    so a helper thread may make them (`involutions.concurrently`).
    """

    is_discrete = False
    support_lo, support_hi = -math.inf, math.inf

    def sample(self, rng, size, out=None):
        if out is None:
            out = np.empty(int(size), np.int64 if self.is_discrete else float)
        for s in blocks(len(out)):
            self._draws(rng.gen, out[s])
        return out

    def _check_u(self, u):
        u = np.asarray(u, dtype=float)
        if np.any((u <= 0.0) | (u >= 1.0)):
            raise LawError("quantile argument must lie in (0,1)")
        return u


# ---------------------------------------------------------------------------
# continuous kinds
# ---------------------------------------------------------------------------

class Gamma(Law):
    support_lo = 0.0

    def __init__(self, shape, rate):
        if not (shape > 0 and rate > 0):
            raise LawError("Gamma requires shape>0 and rate>0")
        self.shape = float(shape)
        self.rate = float(rate)
        self._scale = 1.0 / self.rate

    def quantile(self, u):
        from scipy.special import gammaincinv
        return gammaincinv(self.shape, self._check_u(u)) * self._scale

    def _draws(self, gen, out):
        out[...] = gen.gamma(self.shape, self._scale, len(out))

    def __repr__(self):
        return f"Gamma(shape={self.shape}, rate={self.rate})"


class BetaI(Law):
    support_lo, support_hi = 0.0, 1.0

    def __init__(self, a, b):
        if not (a > 0 and b > 0):
            raise LawError("BetaI requires a>0 and b>0")
        self.a = float(a)
        self.b = float(b)

    def quantile(self, u):
        from scipy.special import betaincinv
        return betaincinv(self.a, self.b, self._check_u(u))

    def _draws(self, gen, out):
        out[...] = gen.beta(self.a, self.b, len(out))

    def __repr__(self):
        return f"BetaI({self.a}, {self.b})"


class UniformUnit(Law):
    support_lo, support_hi = 0.0, 1.0

    def quantile(self, u):
        return self._check_u(u)

    def _draws(self, gen, out):
        out[...] = gen.random(len(out))

    def __repr__(self):
        return "UniformUnit()"


class Normal(Law):
    def __init__(self, mean=0.0, variance=1.0):
        if not variance > 0:
            raise LawError("Normal requires variance>0")
        self.mean = float(mean)
        self.variance = float(variance)
        self.std = math.sqrt(self.variance)

    def quantile(self, u):
        from scipy.special import ndtri
        return self.mean + self.std * ndtri(self._check_u(u))

    def _draws(self, gen, out):
        out[...] = gen.normal(self.mean, self.std, len(out))

    def __repr__(self):
        return f"Normal(mean={self.mean}, variance={self.variance})"


def gig_norm_const(alpha, lam):
    """Normalizing constant of the density x^(-alpha-1) exp(-lam(x+1/x)) on (0,inf).

    The integral is 2 K_alpha(2 lam), with K the modified Bessel function of
    the second kind. A LawError is raised where it is not a positive finite
    float (kv underflows to 0 from lam of about 349).
    """
    if alpha <= 0 or lam <= 0:
        raise LawError("gig_norm_const requires alpha>0 and lam>0")
    from scipy.special import kv
    k = kv(alpha, 2.0 * lam)
    if not np.isfinite(k) or k <= 0.0:
        raise LawError(f"GIG constant out of float range at ({alpha}, {lam})")
    return float(1.0 / (2.0 * k))


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


class GIG(Law):
    """Law with density C(alpha,lam) x^(-alpha-1) exp(-lam(x+1/x)), x>0.

    Sampling uses a ratio-of-uniforms rejection scheme against the
    unnormalized density; the mode and the maximizer of x^2*h(x) have closed
    forms, so the bounding box is exact. A round's m v and then m w are
    read in place a block at a time (`RandomStream.ahead`) and tested up to
    the block that fills n; the stream then moves past all 2m.

    The quantile reads a cumulative table of the density in t = log x over
    1200 panels of [-30, 30], built at construction and checked to total 1:
    it finds u's panel and bisects within it on an 8-node Gauss-Legendre
    sum over part of the panel.
    """

    support_lo = 0.0

    def __init__(self, alpha, lam):
        if not (alpha > 0 and lam > 0):
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
        self._edges = np.linspace(-30.0, 30.0, 1201)
        self._cum = np.append(0.0, np.cumsum(self._mass(self._edges[:-1], self._edges[1:])))
        if not abs(self._cum[-1] * self.norm_const - 1.0) <= 1e-12:
            raise LawError(f"GIG cdf table does not sum to 1 at ({alpha}, {lam})")

    def _log_h(self, x):
        return -(self.alpha + 1.0) * np.log(x) - self.lam * (x + 1.0 / x)

    def _mass(self, lo, hi):
        """Gauss-Legendre integral of exp(-alpha t - 2 lam cosh t) over each [lo, hi]."""
        half = 0.5 * (hi - lo)
        t = (lo + half)[..., None] + half[..., None] * _GL_NODES
        return half * (np.exp(-self.alpha * t - 2.0 * self.lam * np.cosh(t)) @ _GL_WEIGHTS)

    def quantile(self, u):
        target = self._check_u(u) / self.norm_const
        k = np.searchsorted(self._cum[:-1], target) - 1
        lo, hi = self._edges[k], self._edges[k + 1]
        # 60 halvings narrow the 0.05 panel to 4e-20 in t: x = e^t to well under an ulp
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            below = self._cum[k] + self._mass(self._edges[k], mid) < target
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        out = np.exp(0.5 * (lo + hi))
        return float(out) if out.ndim == 0 else out

    def sample(self, rng, size, out=None):
        n = int(size)
        out = np.empty(n) if out is None else out
        filled = 0
        while filled < n:
            m = max(2 * (n - filled), 64)
            vs, ws = rng.ahead(0), rng.ahead(m)   # the round's m v, its m w
            for s in blocks(m):
                if filled == n:
                    break
                v = vs.random(min(BLOCK, m - s.start))
                w = ws.random(len(v))
                x = np.divide(w * self._w_max, v, out=w)
                accept = self._log_h(x) - self._log_h_mode >= 2.0 * np.log(v)
                take = min(int(np.count_nonzero(accept)), n - filled)
                out[filled:filled + take] = x[accept][:take]
                filled += take
            rng.skip(2 * m)
        return out

    def __repr__(self):
        return f"GIG(alpha={self.alpha}, lam={self.lam})"


# ---------------------------------------------------------------------------
# discrete kinds
# ---------------------------------------------------------------------------

def _frac(x):
    """x as a Fraction, a float read as its shortest decimal."""
    return Fraction(x if isinstance(x, (int, Fraction)) else str(float(x)))


def _integer_weights(weights):
    """A few {key: Fraction} weights as ({key: int}, den) over the lcm of
    their denominators."""
    den = math.lcm(*(w.denominator for w in weights.values()))
    return ({k: w.numerator * (den // w.denominator)
             for k, w in weights.items()}, den)


def _geometric_factors(theta, lo, hi):
    """The law P(k) = (1 - theta) theta^(k - lo) on {lo, lo+1, ...} cut at
    hi, for a Fraction theta = a/b, factored: the states lo..hi, atoms
    (b - a, a, b) and exponent rows (1, k - lo, hi - k), over
    b^(hi - lo + 1). The dropped mass is theta^(hi - lo + 1)."""
    a, b = theta.numerator, theta.denominator
    k = np.arange(lo, hi + 1)
    return k, (b - a, a, b), np.array([np.ones_like(k), k - lo, hi - k]).T


def _weight_atoms(weights):
    """{key: Fraction} weights factored, each positive one an atom."""
    nums, _ = _integer_weights(weights)
    keys = sorted(k for k, w in nums.items() if w)
    return np.array(keys, np.int64), tuple(nums[k] for k in keys), None


def _multiply_out(atoms, exps):
    """The weight of each row of exps, the atoms to its powers (each atom
    where exps is None), in an object array: each from the last over the
    atoms whose exponents fall, times those that rise, the two made once
    per distinct step and applied along a run of equal steps in one loop."""
    if exps is None:
        return np.array(atoms, dtype=object)
    steps, made = np.diff(exps, axis=0), {}
    ends = [*np.flatnonzero((steps[1:] != steps[:-1]).any(1)) + 1, len(steps)]
    weights = [math.prod(map(pow, atoms, exps[0].tolist()))]
    for start, end in zip([0, *ends], ends) if len(steps) else ():
        step = tuple(steps[start].tolist())
        if step not in made:   # the atoms to the powers that fall, that rise
            made[step] = [math.prod(a ** (d * e) for a, e in zip(atoms, step)
                                    if d * e > 0) for d in (-1, 1)]
        (down, up), w = made[step], weights[-1]
        for _ in range(start, end):
            w = w // down * up
            weights.append(w)
    return np.array(weights, dtype=object)


class DiscreteLaw(Law):
    is_discrete = True

    #: (lo, hi) integer support bounds; hi may be math.inf
    support_lo = 0
    support_hi = math.inf

    def _factors(self, end):
        """(states, atoms, exps) on [support_lo, end], the states those of
        positive weight; geometric kinds use this one."""
        return _geometric_factors(_frac(self.theta), self.support_lo, end)

    def _den(self, end):
        """An infinite kind's denominator through end; geometric kinds'."""
        return _frac(self.theta).denominator ** (end - self.support_lo + 1)

    def _draws(self, gen, out):
        """Inverse-cdf draws of a finite law from its exact table."""
        cum, values = self._cdf_table
        out[...] = values[np.searchsorted(cum, gen.random(len(out)), "right")]

    @functools.cached_property
    def _cdf_table(self):
        """(cum, values) of a finite law's exact table, made once, as a law
        is immutable: each exact partial sum over den, correctly rounded,
        the last being 1, and the state it ends at."""
        nums, den, _ = truncate(self, self.support_hi)
        cum = np.array([c / den for c in itertools.accumulate(nums.values())])
        return cum, np.array(list(nums))


class Bernoulli(DiscreteLaw):
    support_lo, support_hi = 0, 1

    def __init__(self, p):
        if not 0.0 <= p <= 1.0:
            raise LawError("Bernoulli requires p in [0,1]")
        self.p = float(p)

    def _factors(self, end):
        return _weight_atoms({0: 1 - _frac(self.p), 1: _frac(self.p)})

    def _draws(self, gen, out):
        out[...] = gen.random(len(out)) < self.p

    def __repr__(self):
        return f"Bernoulli({self.p})"


class Geometric(DiscreteLaw):
    """geo(theta) on {0,1,...}: pmf (1-theta) theta^k."""

    def __init__(self, theta):
        if not 0.0 < theta < 1.0:
            raise LawError("Geometric requires theta in (0,1)")
        self.theta = float(theta)

    def _draws(self, gen, out):
        out[...] = gen.geometric(1.0 - self.theta, len(out)) - 1

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

    def _draws(self, gen, out):
        out[...] = gen.geometric(1.0 - self.theta, len(out)) - 1 - self.ell

    def __repr__(self):
        return f"ShiftGeom({self.theta}, {self.ell})"


class ThreePoint(DiscreteLaw):
    """Law on {-1,0,1} with P(1)=p, P(-1)=q, P(0)=r."""

    support_lo, support_hi = -1, 1

    def __init__(self, p, q, r):
        if min(p, q, r) < 0 or abs(p + q + r - 1.0) > 1e-12:
            raise LawError("ThreePoint requires p,q,r >= 0 with p+q+r=1")
        self.p, self.q, self.r = float(p), float(q), float(r)

    def _factors(self, end):
        return _weight_atoms({-1: _frac(self.q), 0: _frac(self.r),
                              1: _frac(self.p)})

    def _draws(self, gen, out):
        # -1 below p + q, else 0, then 1 below p: the uniforms and a mask
        u = gen.random(len(out))
        np.subtract(0, np.less(u, self.p + self.q, out=out), out=out)
        out[u < self.p] = 1

    def __repr__(self):
        return f"ThreePoint({self.p}, {self.q}, {self.r})"


class ParityGeom(DiscreteLaw):
    """Law on {0,1,...} with P(odd)=podd and geometric(rho^2) conditional
    laws on each parity class; a batch reads its n parity doubles in place
    (`RandomStream.ahead`) beside its geometric draws, a block at a time."""

    def __init__(self, rho, podd):
        if not 0.0 < rho < 1.0:
            raise LawError("ParityGeom requires rho in (0,1)")
        if not 0.0 < podd < 1.0:
            raise LawError("ParityGeom requires podd in (0,1)")
        self.rho = float(rho)
        self.podd = float(podd)
        self._rho2 = self.rho ** 2

    def _factors(self, end):
        # P(k) = w (1 - rho^2) rho^(2 (k // 2)), w the weight of k's parity
        w, _ = _integer_weights({0: 1 - _frac(self.podd), 1: _frac(self.podd)})
        _, atoms, pairs = _geometric_factors(_frac(self.rho) ** 2, 0, end // 2)
        k = np.arange(end + 1)
        return k, (w[0], w[1], *atoms), np.column_stack(
            [1 - k % 2, k % 2, pairs[k // 2]])

    def _den(self, end):   # the parity weights' den, podd's, times rho^2's
        return _frac(self.podd).denominator * (
            _frac(self.rho) ** 2).denominator ** (end // 2 + 1)

    def sample(self, rng, size, out=None):
        out = np.empty(int(size), np.int64) if out is None else out
        odd = rng.ahead(0)
        rng.skip(len(out))
        for s in blocks(len(out)):   # 2 (k - 1) + parity, in out and k
            k = rng.gen.geometric(1.0 - self._rho2, len(out[s]))
            np.multiply(np.subtract(k, 1, out=k), 2, out=out[s])
            out[s] += np.less(odd.random(len(k)), self.podd, out=k)
        return out

    def __repr__(self):
        return f"ParityGeom(rho={self.rho}, podd={self.podd})"


class FiniteTable(DiscreteLaw):
    """Explicit finite table of (integer support value, probability)."""

    def __init__(self, support, probs):
        values = np.asarray(support, dtype=float)
        support = values.astype(np.int64)
        probs = np.asarray(probs, dtype=float)
        if np.any(support != values) or \
                len(np.unique(support)) < len(support):
            raise LawError("FiniteTable needs distinct integer support values")
        if probs.shape != support.shape or \
                not np.all((probs >= 0) & (probs <= 1)):
            raise LawError("FiniteTable needs one probability in [0, 1] for"
                           " each value")
        order = np.argsort(support)
        self.support = support[order]
        self.probs = probs[order]
        if abs(self.probs.sum() - 1.0) > 1e-12:
            raise LawError("FiniteTable probabilities must sum to 1")
        self.support_lo = int(self.support[0])
        self.support_hi = int(self.support[-1])

    def _factors(self, end):
        return _weight_atoms(dict(zip(self.support.tolist(),
                                      map(_frac, self.probs.tolist()))))

    def __repr__(self):
        return f"FiniteTable(n={len(self.support)}, lo={self.support_lo}, hi={self.support_hi})"


def factors(law, hi):
    """A discrete law's exact table through hi, or whole if finite, as
    (states, atoms, exps): its states of positive weight, increasing; a few
    positive integer atoms; and an int64 row of exponents per state, its
    weight the atoms to those powers (exps None: each weight an atom)."""
    if not law.is_discrete:
        raise LawError("truncate requires a discrete law")
    if hi < law.support_lo:
        raise LawError("empty truncation box")
    return law._factors(hi if law.support_hi == math.inf else law.support_hi)


def truncate(law, hi):
    """A discrete law on [support_lo, hi], exactly: (nums, den, tail), the
    positive integer weights of its states in increasing order over one
    den, and tail = den P(X > hi), `factors` multiplied out. A finite law
    is over the sum of its weights, so no mass lies past support_hi. A
    probability is then one correctly rounded int division `num / den`."""
    states, atoms, exps = factors(law, hi)
    weights = _multiply_out(atoms, exps)
    den = sum(weights) if law.support_hi < math.inf else law._den(hi)
    nums = {k: w for k, w in zip(states.tolist(), weights) if k <= hi}
    return nums, den, den - sum(nums.values())


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
    keys = ("kind", "components") if kind == "product" else ("kind", "params")
    extra = [k for k in spec if k not in keys and k[:1] != "_"]
    if extra:
        raise LawError(f"unknown keys in the {kind!r} law spec: {extra}")
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
    for n in names:
        values = params[n] if isinstance(params[n], list) else [params[n]]
        if not all(type(v) in (int, float) and math.isfinite(v)
                   for v in values):
            raise LawError(f"{kind} parameter {n!r} must hold finite numbers"
                           f" only, not {params[n]!r}")
    return cls(**{n: params[n] for n in names})
