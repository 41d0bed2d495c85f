"""Generic involution construction from a kernel's conditional cdf family.

For a family of cdfs F_x on an interval (a, b), strictly increasing in the
second argument, the quantile transform f(x, u) = F_x^{-1}(u) together with
the conditional-cdf transform g(x, u) = F_{f(x,u)}(x) forms an involution on
(a, b) x (0, 1). When the family belongs to a reversible kernel, the pair
also preserves mu (x) UniformUnit; for non-reversible families the pair is
still built, and the involution check is expected to fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .involutions import (
    POSITIVE_REAL, REAL_LINE, UNIT_INTERVAL, InvolutionPair, catalog_get,
)
from .reports import VerificationReport


class SkorokhodError(ValueError):
    pass


@dataclass(frozen=True)
class CdfFamily:
    """Conditional cdfs y -> F(x, y) on a common open interval.

    `F` must be vectorized over numpy arrays. `quantile(x, u)` is an
    optional closed form; without it, quantiles are found by bisection in a
    compactified coordinate, so infinite intervals need no special casing.
    """

    name: str
    interval: tuple
    F: callable
    quantile: callable = None


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


def skorokhod_f(fam, x, u, tol=1e-12, max_iter=200):
    """Quantile transform F_x^{-1}(u), the random-function form of the kernel."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise SkorokhodError("u must lie strictly inside (0,1)")
    if fam.quantile is not None:
        y = fam.quantile(x, u)
        return y if y.ndim else float(y)
    lo, hi = fam.interval
    a = np.full(np.broadcast(x, u).shape, 1e-14)
    b = np.full_like(a, 1.0 - 1e-14)
    fa = fam.F(x, to_interval(a, lo, hi)) - u
    fb = fam.F(x, to_interval(b, lo, hi)) - u
    if np.any(fa > 0.0) or np.any(fb < 0.0):
        raise SkorokhodError(
            f"{fam.name}: bracket failure; F_x does not sweep (0,1)")
    for _ in range(max_iter):
        m = 0.5 * (a + b)
        fm = fam.F(x, to_interval(m, lo, hi)) - u
        if np.max(np.abs(fm)) <= tol:
            return to_interval(m, lo, hi)
        below = fm < 0.0
        a = np.where(below, m, a)
        b = np.where(below, b, m)
    raise SkorokhodError(f"{fam.name}: bisection did not reach {tol}")


def rosenblatt_g(fam, x, u):
    """Conditional-cdf transform F_{f(x,u)}(x); uniform and independent of
    f(x,u) when the family's kernel is reversible."""
    y = skorokhod_f(fam, x, u)
    out = fam.F(np.asarray(y, dtype=float), np.asarray(x, dtype=float))
    out = np.asarray(out)
    return out if out.ndim else float(out)


def _state_space(interval):
    lo, hi = interval
    if (lo, hi) == (0.0, 1.0):
        return UNIT_INTERVAL
    if lo == 0.0 and math.isinf(hi):
        return POSITIVE_REAL
    return REAL_LINE


def build_involution(fam):
    """Wrap the quantile/conditional-cdf transforms as an involution pair."""

    def f(x, u):
        return skorokhod_f(fam, x, u)

    def g(x, u):
        return rosenblatt_g(fam, x, u)

    return InvolutionPair(f"skorokhod:{fam.name}", _state_space(fam.interval),
                          UNIT_INTERVAL, f, g)


def check_monotone(fam, states, n_grid=1000):
    """Probe that y -> F_x(y) is strictly increasing for each given state."""
    lo, hi = fam.interval
    s = np.linspace(0.0, 1.0, n_grid + 2)[1:-1]
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
    return VerificationReport(
        name=f"monotone:{fam.name}",
        passed=not bad,
        details={"n_grid": n_grid, "n_states": len(states),
                 "violating_states": bad[:10]},
    )


def gaussian_family(beta, sigma, closed_form=True):
    """The autoregressive Gaussian kernel x -> N(beta x, sigma^2).

    With `closed_form`, the quantile is the catalog's gaussian_rosenblatt f;
    otherwise it is left to numeric bisection, which is what the agreement
    checks compare against the analytic map.
    """
    beta, sigma = float(beta), float(sigma)
    if sigma <= 0.0:
        raise SkorokhodError("sigma must be positive")

    def F(x, y):
        return ndtr((np.asarray(y, dtype=float) - beta * np.asarray(x, dtype=float)) / sigma)

    quantile = None
    if closed_form:
        quantile = catalog_get("gaussian_rosenblatt",
                               {"beta": beta, "sigma": sigma}).f

    return CdfFamily(name=f"gaussian(beta={beta},sigma={sigma})",
                     interval=(-math.inf, math.inf), F=F, quantile=quantile)


def uniform_family():
    """The state-independent family F_x(y) = y on (0,1): f(x,u)=u, g(x,u)=x."""

    def F(x, y):
        return np.asarray(y, dtype=float) + 0.0 * np.asarray(x, dtype=float)

    return CdfFamily(name="uniform", interval=(0.0, 1.0), F=F)
