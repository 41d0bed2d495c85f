"""Markov kernels generated by random functions, chain simulation, and
reversibility / independence-preservation checks.

Exact checks enumerate discrete noise; statistical checks draw Monte Carlo
samples and delegate to `stat_tests`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import stat_tests
from .laws import FiniteTable, Law, tail_box
from .reports import VerificationReport
from .stat_tests import DEFAULT_LEVEL


class KernelError(ValueError):
    pass


@dataclass(frozen=True)
class GeneratedKernel:
    """Kernel K(x,.) = law of f(x,U), U ~ noise; `pair` carries (f, g_f)."""

    pair: object          # InvolutionPair
    noise: object         # Law, or tuple of Laws for product noise


@dataclass
class ChainPath:
    states: np.ndarray      # X^0 .. X^T
    drivers: np.ndarray     # U^0 .. U^{T-1}
    codrivers: np.ndarray   # V^t = g_f(X^t, U^t)


def _sample_noise(noise, rng, size=None):
    if isinstance(noise, tuple):
        streams = rng.split(len(noise))
        return tuple(c.sample(s, size) for c, s in zip(noise, streams))
    return noise.sample(rng, size)


def kernel_step(kernel, x, rng):
    """One transition: f(x, u) with u drawn from the noise law."""
    return kernel.pair.f(x, _sample_noise(kernel.noise, rng))


def simulate_chain(kernel, init, T, rng):
    """Simulate X^{t+1} = f(X^t, U^t) and record V^t = g_f(X^t, U^t)."""
    if T < 1:
        raise KernelError("need at least one step")
    init_rng, noise_rng = rng.split(2)
    x = init.sample(init_rng) if isinstance(init, Law) else init
    us = _sample_noise(kernel.noise, noise_rng, T)
    states = [x]
    for t in range(T):
        u = tuple(c[t] for c in us) if isinstance(us, tuple) else us[t]
        x = kernel.pair.f(x, u)
        states.append(x)
    states = np.asarray(states)
    vs = kernel.pair.g(states[:-1], us)
    return ChainPath(states=states, drivers=us, codrivers=np.asarray(vs))


def stationary_sample(kernel, n, rng, burn_in=1000, x0=None):
    """Approximate stationary draws by running n parallel chains.

    Used when the stationary law has no direct sampler; chains start at the
    noise mean (or x0) and burn in for `burn_in` steps.
    """
    if x0 is None:
        probe = _sample_noise(kernel.noise, rng.child(), 256)
        x0 = float(np.mean(probe)) if not isinstance(probe, tuple) else 0.5
    x = np.full(n, x0)
    for _ in range(burn_in):
        x = kernel.pair.f(x, _sample_noise(kernel.noise, rng, n))
    return x


# ---------------------------------------------------------------------------
# exact detailed balance on discrete spaces
# ---------------------------------------------------------------------------

def pushforward(h, mu_cells, nu_cells):
    """Exact law of h(X, U) for independent X ~ mu_cells and U ~ nu_cells.

    Cells are (integer point, weight) pairs; weights may be floats or
    Fractions. `h` must be vectorized, as catalog maps are: it is evaluated
    once on the x-major grid of all point pairs, and a tuple result gives
    tuple keys. Weights are summed per key in grid order starting from 0, so
    Fraction laws are exact and float sums match a cell-by-cell loop bit for
    bit. Keys keep the order in which the grid first reaches them.
    """
    mu_cells, nu_cells = list(mu_cells), list(nu_cells)
    xs = np.repeat([x for x, _ in mu_cells], len(nu_cells))
    us = np.tile([u for u, _ in nu_cells], len(mu_cells))
    image = h(xs, us)
    if isinstance(image, tuple):
        keys = zip(*(np.asarray(c).tolist() for c in image))
    else:
        keys = np.asarray(image).tolist()
    weights = (px * pu for _, px in mu_cells for _, pu in nu_cells)
    law = {}
    for key, w in zip(keys, weights):
        law[key] = law.get(key, 0) + w
    return law


def _discrete_noise_table(noise, tail_target=1e-14):
    """Truncate a discrete noise law so the dropped mass is <= tail_target."""
    if not noise.is_discrete:
        raise KernelError("exact checks need discrete noise")
    lo, hi = tail_box(noise, tail_target)
    cells = [(u, noise.pmf(u)) for u in range(lo, hi + 1) if noise.pmf(u) > 0.0]
    return cells, noise.mass_outside(lo, hi)


def check_detailed_balance_exact(kernel, mu, tol=1e-12):
    """Max |mu(x)K(x,y) - mu(y)K(y,x)| by exact enumeration of noise outcomes.

    `mu` must be a FiniteTable; the noise law is truncated to tail <= 1e-14
    and the pass threshold is tol + 10 * tail.
    """
    if not isinstance(mu, FiniteTable):
        raise KernelError("mu must be a FiniteTable (truncate first)")
    noise_cells, tail = _discrete_noise_table(kernel.noise)
    f = kernel.pair.f
    flux = pushforward(lambda x, u: (x, f(x, u)),
                       zip(mu.support.tolist(), mu.probs.tolist()), noise_cells)
    residual = 0.0
    worst = None
    for (x, y), w in flux.items():
        back = flux.get((y, x), 0.0)
        if abs(w - back) > residual:
            residual = abs(w - back)
            worst = (x, y)
    threshold = tol + 10.0 * tail
    return VerificationReport(
        name=f"detailed_balance:{kernel.pair.name}",
        passed=residual <= threshold,
        details={"residual": residual, "threshold": threshold,
                 "noise_tail": tail, "worst_pair": worst,
                 "n_states": len(mu.support)},
    )


# ---------------------------------------------------------------------------
# statistical checks
# ---------------------------------------------------------------------------

def _gof_against_law(samples, law, level=DEFAULT_LEVEL):
    """Chi-square GOF of samples against an analytic law.

    Discrete laws are tabulated over the observed range plus a tail cell;
    continuous laws use equiprobable quantile bins.
    """
    samples = np.asarray(samples)
    n = len(samples)
    if law.is_discrete:
        lo = min(int(samples.min()), law.support_lo)
        hi = int(samples.max())
        values = np.arange(lo, hi + 1)
        probs = np.array([law.pmf(int(v)) for v in values])
        tailp = law.mass_outside(lo, hi)
        counts = np.array([(samples == v).sum() for v in values], dtype=float)
        counts = np.append(counts, n - counts.sum())
        probs = np.append(probs, tailp)
        if probs.sum() <= 0:
            raise KernelError("law has no mass on the observed range")
        probs = probs / probs.sum()
        return stat_tests.chi2_gof(counts, probs, level=level)
    k = 50 if n >= 100_000 else 20
    edges = np.asarray(law.quantile(np.linspace(0.0, 1.0, k + 1)[1:-1]))
    idx = np.searchsorted(edges, samples.astype(float), side="right")
    counts = np.bincount(idx, minlength=k).astype(float)
    probs = np.full(k, 1.0 / k)
    return stat_tests.chi2_gof(counts, probs, level=level)


def check_reversibility_statistical(kernel, mu, n, rng, level=DEFAULT_LEVEL):
    """Exchangeability of (X, f(X,U)) for X ~ mu independent of U ~ noise."""
    if n < 10_000:
        raise KernelError("need n >= 10^4 for the statistical check")
    mu_rng, noise_rng = rng.split(2)
    xs = np.asarray(mu.sample(mu_rng, n), dtype=float)
    us = _sample_noise(kernel.noise, noise_rng, n)
    ys = np.asarray(kernel.pair.f(xs, us), dtype=float)
    res = stat_tests.exchangeability_test(np.column_stack([xs, ys]), level=level)
    return VerificationReport(
        name=f"reversibility:{kernel.pair.name}",
        passed=res.passed,
        details={"exchangeability": res.to_dict(), "n": n},
    )


def check_ip_statistical(pair, mu, nu, n, rng, level=DEFAULT_LEVEL):
    """Does H preserve mu (x) nu?  Tests Y ~ mu, V ~ nu, and Y independent of V."""
    mu_rng, nu_rng = rng.split(2)
    xs = np.asarray(mu.sample(mu_rng, n), dtype=float)
    us = _sample_noise(nu, nu_rng, n)
    ys = np.asarray(pair.f(xs, us), dtype=float)
    vs = pair.g(xs, us)

    checks = {"y_marginal": _gof_against_law(ys, mu, level=level)}
    if isinstance(nu, tuple):
        for i, (v_comp, nu_comp) in enumerate(zip(vs, nu)):
            checks[f"v_marginal_{i}"] = _gof_against_law(
                np.asarray(v_comp), nu_comp, level=level)
        for i, v_comp in enumerate(vs):
            checks[f"independence_{i}"] = stat_tests.independence_test(
                np.column_stack([ys, np.asarray(v_comp, dtype=float)]),
                level=level)
    else:
        checks["v_marginal"] = _gof_against_law(np.asarray(vs), nu, level=level)
        checks["independence"] = stat_tests.independence_test(
            np.column_stack([ys, np.asarray(vs, dtype=float)]), level=level)

    passed = all(c.passed for c in checks.values())
    return VerificationReport(
        name=f"ip:{pair.name}",
        passed=passed,
        details={k: c.to_dict() for k, c in checks.items()} | {"n": n},
    )
