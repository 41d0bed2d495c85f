"""Quantile and conditional-cdf transforms of a cdf family, by bisection.

For a family of cdfs F_x on an interval (a, b), strictly increasing in the
second argument, the quantile transform f(x, u) = F_x^{-1}(u) is solved for
u by F_x(y), so `augmentation.augment` makes it the involution (f, g_f)
with g_f(x, u) = F_{f(x,u)}(x), the conditional-cdf transform, whatever the
family. It preserves mu (x) UniformUnit exactly when the family is the
kernel of a chain reversible with respect to mu. A `skorokhod-gaussian`
stanza checks the catalog's closed forms against the numeric ones here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .involutions import gaussian_cdf
from .reports import verdict


class SkorokhodError(ValueError):
    pass


@dataclass(frozen=True)
class CdfFamily:
    """Conditional cdfs y -> F(x, y) on a common open interval.

    `F` must be vectorized over numpy arrays. Quantiles are found by
    bisection in a compactified coordinate, so infinite intervals need no
    special casing.
    """

    name: str
    interval: tuple
    F: callable


def to_interval(s, lo, hi):
    """Map s in (0,1) onto (lo, hi), handling infinite endpoints.

    Elementwise over arrays; a scalar s gives a Python float.
    """
    s = np.asarray(s, dtype=float)
    lo_fin, hi_fin = math.isfinite(lo), math.isfinite(hi)
    if lo_fin and hi_fin:
        y = lo + s * (hi - lo)
    elif lo_fin:
        y = lo + s / (1.0 - s)
    elif hi_fin:
        y = hi - (1.0 - s) / s
    else:
        y = np.tan(np.pi * (s - 0.5))
    return y if np.ndim(y) else float(y)


def skorokhod_f(fam, x, u):
    """Quantile transform F_x^{-1}(u), the random-function form of the kernel."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise SkorokhodError("u must lie strictly inside (0,1)")
    lo, hi = fam.interval
    a = np.full(np.broadcast(x, u).shape, 1e-14)
    b = np.full_like(a, 1.0 - 1e-14)
    fa = fam.F(x, to_interval(a, lo, hi)) - u
    fb = fam.F(x, to_interval(b, lo, hi)) - u
    if np.any(fa > 0.0) or np.any(fb < 0.0):
        raise SkorokhodError(
            f"{fam.name}: bracket failure; F_x does not sweep (0,1)")
    for _ in range(200):
        m = 0.5 * (a + b)
        fm = fam.F(x, to_interval(m, lo, hi)) - u
        if np.max(np.abs(fm)) <= 1e-12:
            return to_interval(m, lo, hi)
        below = fm < 0.0
        a = np.where(below, m, a)
        b = np.where(below, b, m)
    raise SkorokhodError(f"{fam.name}: bisection did not reach 1e-12")


def rosenblatt_g(fam, x, u):
    """Conditional-cdf transform F_{f(x,u)}(x); uniform and independent of
    f(x,u) when the family's kernel is reversible."""
    y = skorokhod_f(fam, x, u)
    out = fam.F(np.asarray(y, dtype=float), np.asarray(x, dtype=float))
    out = np.asarray(out)
    return out if out.ndim else float(out)


def check_monotone(fam, states):
    """Probe that y -> F_x(y) is strictly increasing for each given state."""
    lo, hi = fam.interval
    s = np.linspace(0.0, 1.0, 1002)[1:-1]
    ys = to_interval(s, lo, hi)
    bad = []
    for x in states:
        vals = fam.F(np.full_like(ys, float(x)), ys)
        d = np.diff(vals)
        # strict increase is only checkable away from floating-point
        # saturation at the cdf's tails
        interior = (vals[:-1] > 1e-12) & (vals[1:] < 1.0 - 1e-12)
        if np.any(d < 0.0) or not np.all(d[interior] > 0.0):
            bad.append(float(x))
    return verdict(f"monotone:{fam.name}", passed=not bad, n_grid=len(s),
                   n_states=len(states), violating_states=bad[:10])


def gaussian_family(beta, sigma):
    """The autoregressive Gaussian kernel x -> N(beta x, sigma^2), its
    quantile left to bisection: what the agreement checks compare against
    the catalog's gaussian_rosenblatt."""
    beta, sigma = float(beta), float(sigma)
    if sigma <= 0.0:
        raise SkorokhodError("sigma must be positive")

    def F(x, y):
        return gaussian_cdf(x, y, beta, sigma)

    return CdfFamily(name=f"gaussian(beta={beta},sigma={sigma})",
                     interval=(-math.inf, math.inf), F=F)
