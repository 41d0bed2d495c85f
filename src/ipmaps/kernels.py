"""Markov kernels generated by random functions, and reversibility /
independence-preservation checks.

The kernel of a catalog pair H = (f, g) and a noise law nu is
K(x,.) = law of f(x,U), U ~ nu; every check takes the pair and nu. Exact
checks enumerate discrete noise; statistical checks draw Monte Carlo
samples and delegate to `stat_tests`.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from . import laws, stat_tests
from .exact_discrete import _sums, _tally, cell_report, cells
from .involutions import concurrently, map_blocks
from .reports import verdict
from .stat_tests import DEFAULT_LEVEL


class KernelError(ValueError):
    pass


# ---------------------------------------------------------------------------
# exact detailed balance on discrete spaces
# ---------------------------------------------------------------------------

def check_detailed_balance_exact(pair, mu, nu, box):
    """mu(x) K(x,y) = mu(y) K(y,x), K(x,.) the law of pair.f(x, U), U ~ nu,
    as one integer equality per pair x != y up to mu's support_lo + box with
    flux either way (mu is 0 below support_lo, so such pairs are exact).
    A move's flux mu(x) K(x, y) sums the masses (`_sums`) of its `cells`,
    mu's states by nu's states of positive weight: a finite nu whole, an
    unbounded one cut at max(support_lo, -mu.support_lo) with its exact
    tail on the next state, exact where f is constant in u from the cut on
    (kdv's f = min(u, -x) is, from u = -x on)."""
    lo = mu.support_lo
    mu_w, _, _ = laws.truncate(mu, lo + box)
    hi = nu.support_hi if nu.support_hi < np.inf else max(nu.support_lo, -lo)
    nums, _, tail = laws.truncate(nu, hi)
    noise = {u: w for u, w in {**nums, hi + 1: tail}.items() if w}
    xs, us = cells(list(mu_w), list(noise))
    ys = pair.f(xs, us)
    # each move's flux from a state of positive mass, keyed by one integer,
    # (x - low) span + (y - low): the keys sort x-major, y ascending
    low = min(xs.min(), ys.min())
    span = max(xs.max(), ys.max()) - low + 1
    mass = np.multiply.outer(*(np.array([*t.values()], dtype=object)
                               for t in (mu_w, noise)))
    keys, w = _sums((xs - low) * span + ys - low, mass.ravel())
    x, y = np.divmod(keys, span)   # each less low
    at = np.minimum(np.searchsorted(keys, y * span + x), len(keys) - 1)
    back = keys[at] == y * span + x   # the move (y, x) carries flux too
    # each pair once: from x < y when both directions carry flux
    pairs = (x != y) & (y <= lo + box - low) & ((x < y) | ~back)
    unequal = w != np.where(back, w[at], 0)   # 0: no flux back
    tally = cell_report(_tally(x[pairs] + low, y[pairs] + low,
                               unequal[pairs]), "pair")
    return verdict(f"detailed_balance:{pair.name}",
                   passed=tally["failing_pairs"] == 0, **tally,
                   n_states=len(mu_w))


# ---------------------------------------------------------------------------
# statistical checks
# ---------------------------------------------------------------------------

def _inside(v, law):
    """Which values v are finite points of the law's support interval, and
    integers if the law is discrete."""
    inside = np.isfinite(v) & (v >= law.support_lo) & (v <= law.support_hi)
    return inside & (v == np.round(v)) if law.is_discrete else inside


def _gof_against_law(s, law, level=DEFAULT_LEVEL):
    """Chi-square GOF of s, the draws' SortedColumn, against a law.

    A draw outside the law's support interval, or a non-integer draw of a
    discrete law, fails the test outright. A discrete law's cells are its
    exact table (`laws.truncate`) from support_lo to the largest draw, and
    its exact tail; continuous laws use equiprobable quantile bins.
    """
    n = s.n
    inside = partial(_inside, law=law)
    # sorted with NaNs last, the ends bound every draw of a continuous law
    outside = (n - s.count(inside)
               if law.is_discrete or not inside(s[[0, -1]]).all() else 0)
    if outside:
        # a structural failure: no chi-square can pass it
        return stat_tests.TestResult(
            np.inf, 0.0, (n,), "chi2_gof", False, level,
            {"outside_support": outside,
             "reason": f"{outside} of {n} draws outside the support of "
                       f"{law!r}"})
    if law.is_discrete:
        lo, hi = law.support_lo, int(s[-1])
        nums, den, tail = laws.truncate(law, hi)
        probs = [nums.get(k, 0) / den for k in range(lo, hi + 1)]
        # every draw is an integer in [lo, hi]: cell k holds [k, k + 1)
        counts = stat_tests.bin_counts(s, np.arange(lo + 1, hi + 1))
        counts = np.append(counts, n - counts.sum())
        return stat_tests.chi2_gof(counts, probs + [tail / den], level=level)
    k = 50 if n >= 100_000 else 20
    edges = np.asarray(law.quantile(np.linspace(0.0, 1.0, k + 1)[1:-1]))
    counts = stat_tests.bin_counts(s, edges)
    probs = np.full(k, 1.0 / k)
    return stat_tests.chi2_gof(counts, probs, level=level)


# the least n of each statistical check; ip's is independence_test's floor
MIN_N = {"reversibility": 10_000, "ip": 200}


def require_n(kind, n):
    """Raise KernelError unless n, the sample size of a statistical `kind`
    check, is at least MIN_N[kind]."""
    if int(n) < MIN_N[kind]:
        raise KernelError(f"need n >= {MIN_N[kind]} for the statistical "
                          f"{kind} check")


def _draw(kind, pair, mu, nu, n, rng):
    """(xs, us) of a statistical `kind` check: n draws X ~ mu and U ~ nu,
    one stream each (and one per product component), made at once into
    arrays allocated here, of int64 for a discrete law, else of floats, so
    an integer map writes Y and V over them: the last law draws on this
    thread, each other one on a helper (`concurrently`)."""
    require_n(kind, n)
    mu_rng, nu_rng = rng.split(2)
    product = isinstance(nu, tuple)
    drawn = (mu, *nu) if product else (mu, nu)
    streams = [mu_rng, *(nu_rng.split(len(nu)) if product else [nu_rng])]
    outs = [np.empty(n, np.int64 if law.is_discrete else float)
            for law in drawn]
    concurrently(n, *(partial(law.sample, stream, n, out)
                      for law, stream, out in zip(drawn, streams, outs)))
    xs, *us = outs
    return xs, tuple(us) if product else us[0]


def check_reversibility_statistical(pair, mu, nu, n, rng,
                                    level=DEFAULT_LEVEL):
    """Exchangeability of (X, f(X,U)) for X ~ mu independent of U ~ nu."""
    xs, us = _draw("reversibility", pair, mu, nu, n, rng)
    ys = map_blocks(pair.f, xs, us,   # over U's array
                    into=us if isinstance(us, tuple) else (us,))[0]
    del us
    res = stat_tests.exchangeability_test(xs, ys, level=level)
    return verdict(f"reversibility:{pair.name}", {"exchangeability": res},
                   n=n)


def check_ip_statistical(pair, mu, nu, n, rng, level=DEFAULT_LEVEL):
    """Does H preserve mu (x) nu?  Tests Y ~ mu, V ~ nu, and Y independent of V."""
    xs, us = _draw("ip", pair, mu, nu, n, rng)
    product = isinstance(nu, tuple)

    def h(x, u):   # H(x, u) with the noise parts flattened
        y, v = pair(x, u)
        return (y, *v) if product else (y, v)

    # Y and each V in one pass, over the arrays of X and each U
    columns = map_blocks(h, xs, us, into=(xs, *us) if product else (xs, us))
    del xs, us
    drawn = [mu, *nu] if product else [mu, nu]

    def marginal(i):
        # GOF and labels of column i, which is freed here: the integer ones
        # (tables) first, so that each is freed before a float one is sorted
        column, columns[i] = columns[i], None
        s = stat_tests.SortedColumn(column)
        return (_gof_against_law(s, drawn[i], level=level),
                stat_tests.binned(s, column))

    done = {i: marginal(i) for i in sorted(
        range(len(drawn)), key=lambda i: columns[i].dtype.kind != "i")}
    checks = {}
    checks["y_marginal"], y = done[0]
    for i in range(1, len(drawn)):
        key = f"_{i - 1}" if product else ""
        checks["v_marginal" + key], v = done[i]
        checks["independence" + key] = stat_tests.independence_test(
            y, v, level=level)

    return verdict(f"ip:{pair.name}", checks, n=n)
