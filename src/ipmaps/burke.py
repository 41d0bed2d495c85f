"""Lattice random field driven by an involution, and checks of Burke's
property: rows i.i.d. from the state law, columns stationary Markov.

The field lives on a finite rectangle. States X[n][t] (n = 1..N, t = 0..T)
evolve by (X[n][t+1], U[n][t]) = H(X[n][t], U[n-1][t]) with the boundary
column X[.][0] i.i.d. from mu and the boundary noise row U[0][.] i.i.d.
from nu.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import laws, stat_tests
from .kernels import (
    KernelError, _discrete_noise_table, _gof_against_law, pushforward,
)
from .reports import VerificationReport
from .rng import RandomStream
from .stat_tests import DEFAULT_LEVEL

# fixed stream for the Monte Carlo null calibration of the chain-likelihood
# test; independent of the data, and constant so reports stay deterministic
_MC_SEED = 78130631


@dataclass
class LatticeField:
    """X has shape (N, T+1), rows n = 1..N; U has shape (N+1, T), row 0
    being the boundary noise."""

    X: np.ndarray
    U: np.ndarray
    pair: object
    mu: object
    nu: object

    @property
    def shape(self):
        n, t1 = self.X.shape
        return n, t1 - 1


def simulate_field(pair, mu, nu, N, T, rng):
    """Fill the rectangle by the recursion, injecting i.i.d. boundaries.

    Raises on any state escaping the involution's x-space, reporting the
    lattice coordinates of the first violation.
    """
    mu_rng, nu_rng = rng.split(2)
    X = np.empty((N, T + 1))
    U = np.empty((N + 1, T))
    X[:, 0] = np.asarray(mu.sample(mu_rng, N), dtype=float)
    U[0, :] = np.asarray(nu.sample(nu_rng, T), dtype=float)
    for n in range(N):
        for t in range(T):
            y = pair.f(X[n, t], U[n, t])
            if not pair.x_space.contains(y):
                raise KernelError(
                    f"state left the space at (n={n + 1}, t={t + 1}): {y!r}")
            X[n, t + 1] = y
            U[n + 1, t] = pair.g(X[n, t], U[n, t])
    return LatticeField(X=X, U=U, pair=pair, mu=mu, nu=nu)


def check_recursion(field, tol=1e-9):
    """Recompute every interior site and report the worst deviation."""
    X, U, pair = field.X, field.U, field.pair
    N, T = field.shape
    worst = 0.0
    for n in range(N):
        y = pair.f(X[n, :-1], U[n, :])
        v = pair.g(X[n, :-1], U[n, :])
        scale = np.maximum(1.0, np.maximum(np.abs(y), np.abs(X[n, 1:])))
        worst = max(worst,
                    float(np.max(np.abs(y - X[n, 1:]) / scale)),
                    float(np.max(np.abs(v - U[n + 1, :]))))
    if pair.x_space.is_integer:
        tol = 0.0
    return VerificationReport(
        name=f"recursion:{pair.name}",
        passed=worst <= tol,
        details={"worst_deviation": worst, "tol": tol, "shape": [N, T]},
    )


def _transition_gof(froms, tos, row_law, level, min_visits=10):
    """Chi-square of observed transitions against analytic kernel rows.

    `row_law(state)` returns the transition row as a {next: prob} dict.
    One GOF per sufficiently visited from-state; the per-state statistics
    sum to a chi-square with summed degrees of freedom because the draws
    are conditionally independent given the from-state sequence.
    """
    froms = np.asarray(froms)
    tos = np.asarray(tos)
    stat, dof, states = 0.0, 0, 0
    for x in np.unique(froms):
        nxt = tos[froms == x]
        support = row_law(x)
        values = sorted(support)
        probs = np.array([support[v] for v in values])
        probs = probs / probs.sum()
        counts = np.array([(nxt == v).sum() for v in values], dtype=float)
        if counts.sum() != len(nxt):
            # a transition outside the kernel's support: structural failure
            return stat_tests.TestResult(np.inf, 0.0, (len(froms),),
                                         "transition_chi2", False, level,
                                         {"impossible_transition_from": x})
        if len(nxt) < min_visits or len(values) < 2:
            continue
        r = stat_tests.chi2_gof(counts, probs, level=level)
        stat += r.statistic
        dof += r.flags["dof"]
        states += 1
    from scipy import stats as sps
    p = float(sps.chi2.sf(stat, dof)) if dof > 0 else 1.0
    return stat_tests.TestResult(stat, p, (len(froms),), "transition_chi2",
                                 p > level, level,
                                 {"dof": dof, "states": states})


def _chain_loglik(states, row_cache):
    total = 0.0
    for a, b in zip(states[:-1], states[1:]):
        p = row_cache(int(a)).get(int(b), 0.0)
        if p <= 0.0:
            return -np.inf
        total += np.log(p)
    return total


def _loglik_mc_test(chain, pair, nu, row_law, level, n_sims=2000):
    """Monte Carlo misfit test of one chain against the generated kernel.

    The observed transition log-likelihood is ranked against chains simulated
    from the kernel itself (same start, same length); an atypically low
    likelihood means the path does not come from the kernel. The rank
    p-value is exact under the null regardless of how often states recur,
    which the per-state transition GOF cannot offer on a drifting path.
    """
    cache = {}

    def row(x):
        if x not in cache:
            cache[x] = row_law(x)
        return cache[x]

    T = len(chain) - 1
    obs = _chain_loglik(chain, row)
    stream = RandomStream(_MC_SEED)
    us = np.asarray(nu.sample(stream, (n_sims, T)))
    x = np.full(n_sims, int(chain[0]))
    sims = np.zeros(n_sims)
    for t in range(T):
        y = pair.f(x, us[:, t])
        for i in range(n_sims):
            sims[i] += np.log(row(int(x[i]))[int(y[i])])
        x = y
    p = (1.0 + float((sims <= obs).sum())) / (n_sims + 1.0)
    return stat_tests.TestResult(float(obs), p, (T,), "chain_loglik_mc",
                                 p > level, level,
                                 {"n_sims": n_sims,
                                  "null_mean": float(sims.mean())})


def _kernel_row(pair, nu):
    """Transition row of the state chain: y = f(x, u) with u ~ nu."""
    noise_cells, _ = _discrete_noise_table(nu)
    return lambda x: pushforward(pair.f, [(int(x), 1)], noise_cells)


def _dual_kernel_row(pair, mu, tail_target=1e-13):
    """Transition row of the noise chain: v = g(x, u) with x ~ mu."""
    table, _ = laws.truncate(mu, *laws.tail_box(mu, tail_target))
    cells = list(zip(table.support.tolist(), table.probs.tolist()))
    return lambda u: pushforward(pair.g, cells, [(int(u), 1)])


def _thinned_slices(T, stride=10):
    return list(range(stride, T + 1, stride))


def verify_burke(field, level=DEFAULT_LEVEL):
    """Burke's property on the simulated rectangle.

    The field is heavily dependent along chains and along down-right
    diagonals, so each sub-test pools only cells that are (nearly)
    independent under the null:

    (a) x_marginal: states are mu-distributed, tested on the final time
        slice, whose entries are i.i.d.;
    (b) row_independence: disjoint same-slice neighbour pairs are
        independent, same thinned slices;
    (c) column_kernel: the time evolution follows the generated kernel.
        Discrete states: transition GOF of the first chain, whose driving
        noise is the i.i.d. boundary row, so transition draws are exactly
        conditionally independent; a Monte Carlo likelihood rank test
        (column_loglik) covers drifting paths whose states never recur.
        Continuous states: exchangeability of
        consecutive states (reversibility), halves split by chain so they
        are independent;
    (d) u_marginal: generated noise is nu-distributed, tested on the last
        noise row, which is i.i.d. along time;
    (e) dual_column_kernel: the transposed statement, the noise evolves as
        a stationary Markov chain in the row direction. Discrete: transition
        GOF of one noise column against the enumerated dual kernel.
        Continuous: exchangeability of neighbour noise pairs with halves
        from well-separated column groups.
    """
    X, U = field.X, field.U
    N, T = field.shape
    if N < 30 or T < 30:
        raise KernelError("need at least a 30 x 30 field")
    discrete = field.pair.x_space.is_integer
    slices = _thinned_slices(T)
    checks = {}

    checks["x_marginal"] = _gof_against_law(X[:, T], field.mu, level=level)

    even = np.arange(0, N - 1, 2)
    row_pairs = np.column_stack([X[even][:, slices].ravel(),
                                 X[even + 1][:, slices].ravel()])
    checks["row_independence"] = stat_tests.independence_test(
        row_pairs, bins=5, level=level, min_n=100)

    if discrete:
        kernel_row = _kernel_row(field.pair, field.nu)
        chain0 = X[0, :].astype(int)
        checks["column_kernel"] = _transition_gof(
            chain0[:-1], chain0[1:], kernel_row, level)
        checks["column_loglik"] = _loglik_mc_test(
            chain0, field.pair, field.nu, kernel_row, level)
    else:
        ts = np.arange(0, T - 1, 5)
        half = N // 2
        a = np.column_stack([X[:half][:, ts].ravel(),
                             X[:half][:, ts + 1].ravel()])
        b = np.column_stack([X[half:2 * half][:, ts].ravel(),
                             X[half:2 * half][:, ts + 1].ravel()])
        # exchangeability_test swaps its second half internally, so the
        # halves are passed unswapped and must have equal length
        checks["column_kernel"] = stat_tests.exchangeability_test(
            np.vstack([a, b]), level=level, min_n=100)

    checks["u_marginal"] = _gof_against_law(U[N, :], field.nu, level=level)

    if discrete:
        checks["dual_column_kernel"] = _transition_gof(
            U[:-1, 0].astype(int), U[1:, 0].astype(int),
            _dual_kernel_row(field.pair, field.mu), level)
    else:
        even = np.arange(0, N, 2)
        ta = list(range(0, T // 2, 5))
        tb = list(range(T // 2, T, 5))
        a = np.column_stack([U[even][:, ta].ravel(),
                             U[even + 1][:, ta].ravel()])
        b = np.column_stack([U[even][:, tb].ravel(),
                             U[even + 1][:, tb].ravel()])
        checks["dual_column_kernel"] = stat_tests.exchangeability_test(
            np.vstack([a, b]), level=level, min_n=100)

    passed = all(c.passed for c in checks.values())
    return VerificationReport(
        name=f"burke:{field.pair.name}",
        passed=passed,
        details={k: c.to_dict() for k, c in checks.items()}
        | {"shape": [N, T]},
    )


def field_rows(field):
    """Flatten to (n, t, x, u) records for CSV export; the boundary noise
    row appears with n=0 and x recorded as nan."""
    N, T = field.shape
    rows = []
    for t in range(T):
        rows.append((0, t, float("nan"), float(field.U[0, t])))
    for n in range(1, N + 1):
        for t in range(T + 1):
            u = float(field.U[n, t]) if t < T else float("nan")
            rows.append((n, t, float(field.X[n - 1, t]), u))
    return rows
