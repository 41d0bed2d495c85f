"""Lattice random field driven by an involution, and checks of Burke's
property: rows i.i.d. from the state law, columns stationary Markov.

The field lives on a finite rectangle. States X[n][t] (n = 1..N, t = 0..T)
evolve by (X[n][t+1], U[n][t]) = H(X[n][t], U[n-1][t]) with the boundary
column X[.][0] i.i.d. from mu and the boundary noise row U[0][.] i.i.d.
from nu.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import stat_tests
from .involutions import _deviations
from .kernels import KernelError, _gof_against_law, law_cells, pushforward
from .reports import VerificationReport
from .rng import RandomStream
from .stat_tests import DEFAULT_LEVEL

# fixed stream and chain count of the chain-likelihood test's Monte Carlo
# null; independent of the data, and constant so reports stay deterministic
_MC_SEED = 78130631
_MC_SIMS = 2000


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

    Site (n, t) reads only X[n, t] and U[n, t], so the sites of one
    anti-diagonal n + t = d are independent and are filled by one
    vectorized step each. Raises on any state escaping the involution's
    x-space, reporting the lattice coordinates of the first violation in
    row-major order, which are those of the row-major scalar recursion:
    every input of a site precedes it in that order.
    """
    mu_rng, nu_rng = rng.split(2)
    X = np.empty((N, T + 1))
    U = np.empty((N + 1, T))
    X[:, 0] = np.asarray(mu.sample(mu_rng, N), dtype=float)
    U[0, :] = np.asarray(nu.sample(nu_rng, T), dtype=float)
    with np.errstate(all="ignore"):
        for d in range(N + T - 1):
            n = np.arange(max(0, d - T + 1), min(N - 1, d) + 1)
            t = d - n
            x, u = X[n, t], U[n, t]
            X[n, t + 1] = pair.f(x, u)
            U[n + 1, t] = pair.g(x, u)
    if not pair.x_space.contains(X[:, 1:]):
        _raise_first_escape(pair, X, U)
    return LatticeField(X=X, U=U, pair=pair, mu=mu, nu=nu)


def _raise_first_escape(pair, X, U):
    """Raise for the row-major first state outside the x-space."""
    space = pair.x_space
    n = next(n for n in range(len(X)) if not space.contains(X[n, 1:]))
    t = next(t for t in range(1, X.shape[1]) if not space.contains(X[n, t]))
    y = pair.f(X[n, t - 1], U[n, t - 1])
    raise KernelError(f"state left the space at (n={n + 1}, t={t}): {y!r}")


def check_recursion(field):
    """Recompute every interior site and report the worst deviation; a nan
    deviation is the worst, so a field holding a nan fails."""
    X, U, pair = field.X, field.U, field.pair
    N, T = field.shape
    y = pair.f(X[:, :-1], U[:-1])
    v = pair.g(X[:, :-1], U[:-1])
    # np.maximum and np.max propagate nan, where Python's max may skip it
    worst = float(np.max(np.maximum(_deviations(y, X[:, 1:], pair.x_space),
                                    _deviations(v, U[1:], pair.u_space)),
                         initial=0.0))
    tol = 0.0 if pair.x_space.is_integer else 1e-9
    return VerificationReport(
        name=f"recursion:{pair.name}",
        passed=worst <= tol,
        details={"worst_deviation": worst, "tol": tol, "shape": [N, T]},
    )


def _transition_gof(froms, tos, row_law, level):
    """Chi-square of observed transitions against exact kernel rows.

    `row_law(state)` returns the exact row ({next: integer weight}, den).
    One GOF per from-state with 10 or more visits; the per-state statistics
    sum to a chi-square with summed degrees of freedom because the draws
    are conditionally independent given the from-state sequence. With no
    such state the result passes with p = 1, and its `reason` flag says
    that nothing was tested.
    """
    froms = np.asarray(froms)
    tos = np.asarray(tos)
    stat, dof, states = 0.0, 0, 0
    for x in np.unique(froms):
        nxt = tos[froms == x]
        support, den = row_law(x)
        values = sorted(support)
        probs = np.array([support[v] / den for v in values])
        counts = np.array([(nxt == v).sum() for v in values], dtype=float)
        if counts.sum() != len(nxt):
            # a transition outside the kernel's support: structural failure
            flags = {"impossible_transition_from": x,
                     "reason": f"impossible transition from {x}"}
            return stat_tests.TestResult(np.inf, 0.0, (len(froms),),
                                         "transition_chi2", False, level,
                                         flags)
        if len(nxt) < 10 or len(values) < 2:
            continue
        r = stat_tests.chi2_gof(counts, probs, level=level)
        stat += r.statistic
        dof += r.flags["dof"]
        states += 1
    flags = {"dof": dof, "states": states}
    if not states:
        flags["reason"] = ("nothing tested: no from-state with two or more"
                           " next states reached 10 transitions")
    p = stat_tests.chi2_sf(stat, dof) if dof > 0 else 1.0
    return stat_tests.TestResult(stat, p, (len(froms),), "transition_chi2",
                                 p > level, level, flags)


def _loglik_mc_test(chain, pair, nu, row_law, level):
    """Monte Carlo misfit test of one chain against the generated kernel.

    The observed transition log-likelihood is ranked against chains simulated
    from the kernel itself (same start, same length); an atypically low
    likelihood means the path does not come from the kernel. The rank
    p-value is exact under the null regardless of how often states recur,
    which the per-state transition GOF cannot offer on a drifting path.

    The observed chain and the simulated paths are scored through one dense
    table of the exact rows' logs over the states they visit, accumulated
    step by step in time order. A transition a row lacks reads -inf: the
    observed chain may take one, a simulated path may not.

    Float sums of T logs err in their last bits, so a simulated sum within
    1e-9 relative of the observed one is ranked by its exact probability,
    its rows' weights over their dens, and an exact tie counts as <=.
    """
    T = len(chain) - 1
    stream = RandomStream(_MC_SEED)
    us = np.asarray(nu.sample(stream, (_MC_SIMS, T)))
    paths = np.empty((T + 1, _MC_SIMS), dtype=np.int64)
    paths[0] = int(chain[0])
    for t in range(T):
        paths[t + 1] = pair.f(paths[t], us[:, t])
    lo = int(min(paths.min(), chain.min()))
    size = int(max(paths.max(), chain.max())) - lo + 1
    # the exact rows: integer weights, 0 off a row, and one den per state
    weight = np.zeros((size, size), dtype=object)
    dens = np.ones(size, dtype=object)
    logp = np.full((size, size), -np.inf)
    for a in set(np.unique(paths[:-1]).tolist()) | set(chain[:-1].tolist()):
        weights, dens[a - lo] = row_law(a)
        for b, w in weights.items():
            if 0 <= b - lo < size:
                weight[a - lo, b - lo] = w
                logp[a - lo, b - lo] = np.log(w / dens[a - lo])
    sims = np.zeros(_MC_SIMS)
    for t in range(T):
        sims += logp[paths[t] - lo, paths[t + 1] - lo]
    if np.isneginf(sims).any():
        raise KernelError("a simulated transition is missing from its "
                          "kernel row")
    # cumsum adds in time order, as the paths are summed
    obs = float(np.cumsum(logp[chain[:-1] - lo, chain[1:] - lo])[-1])
    close = np.isclose(sims, obs, rtol=1e-9, atol=0.0)
    steps = np.column_stack([chain, paths[:, close]]) - lo
    num = np.prod(weight[steps[:-1], steps[1:]], axis=0)
    den = np.prod(dens[steps[:-1]], axis=0)
    # sign of P(path) - P(observed chain), for each close simulated path
    sides = num[1:] * den[0] - num[0] * den[1:]
    below = (sims[~close] <= obs).sum() + (sides <= 0).sum()
    p = (1.0 + float(below)) / (_MC_SIMS + 1.0)
    return stat_tests.TestResult(obs, p, (T,), "chain_loglik_mc",
                                 p > level, level,
                                 {"n_sims": _MC_SIMS,
                                  "null_mean": float(sims.mean()),
                                  "exact_ties": int((sides == 0).sum())})


def _kernel_row(pair, nu):
    """Exact transition row of the state chain, y = f(x, u) with u ~ nu, as
    ({y: integer weight}, den): nu's `law_cells` cut at -x, built once."""
    @functools.cache
    def row(x):
        cells, den = law_cells(nu, -int(x))
        return pushforward(pair.f, [(int(x), 1)], cells), den
    return row


def _dual_kernel_row(pair, mu, x_max):
    """Exact transition row of the noise chain, v = g(x, u) with x ~ mu, as
    ({v: integer weight}, den): mu's `law_cells` cut at max(-u, x_max + 1),
    x_max the largest x the chain reads. kdv's g is nondecreasing in x and
    takes each value at no more than two adjacent x, so each state the
    chain reaches keeps its exact mass there too. Built once per u."""
    @functools.cache
    def row(u):
        cells, den = law_cells(mu, max(-int(u), x_max + 1))
        return pushforward(pair.g, cells, [(int(u), 1)]), den
    return row


def _thinned_slices(T):
    return list(range(10, T + 1, 10))


# pairs each independence and exchangeability sub-test of verify_burke needs
_MIN_PAIRS = 100


def require_field_shape(N, T):
    """Raise KernelError unless `verify_burke` can test an N x T field: at
    least 30 x 30, with (N // 2) * (T // 10) >= 100 row pairs, the pairs of
    rows (0, 1), (2, 3), ... on every thinned slice."""
    pairs = (N // 2) * len(_thinned_slices(T))
    if N < 30 or T < 30 or pairs < _MIN_PAIRS:
        raise KernelError(
            f"a {N} x {T} field is too small: need at least 30 x 30 and "
            f"(N // 2) * (T // 10) >= {_MIN_PAIRS} row pairs, not {pairs}")


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
    require_field_shape(N, T)
    discrete = field.pair.x_space.is_integer
    slices = _thinned_slices(T)
    checks = {}

    checks["x_marginal"] = _gof_against_law(np.sort(X[:, T]), field.mu,
                                            level=level)

    even = np.arange(0, N - 1, 2)
    a, b = X[even][:, slices].ravel(), X[even + 1][:, slices].ravel()
    checks["row_independence"] = stat_tests.independence_test(
        a, b, np.sort(a), np.sort(b), bins=5, level=level, min_n=_MIN_PAIRS)

    if discrete:
        kernel_row = _kernel_row(field.pair, field.nu)
        chain0 = X[0, :].astype(int)
        checks["column_kernel"] = _transition_gof(
            chain0[:-1], chain0[1:], kernel_row, level)
        checks["column_loglik"] = _loglik_mc_test(
            chain0, field.pair, field.nu, kernel_row, level)
    else:
        ts = np.arange(0, T - 1, 5)
        chains = X[:N // 2 * 2]
        # exchangeability_test swaps its second half internally, so the
        # halves, rows :N // 2 and N // 2:, are passed unswapped
        checks["column_kernel"] = stat_tests.exchangeability_test(
            chains[:, ts].ravel(), chains[:, ts + 1].ravel(), level=level,
            min_n=_MIN_PAIRS)

    checks["u_marginal"] = _gof_against_law(np.sort(U[N, :]), field.nu,
                                            level=level)

    if discrete:
        checks["dual_column_kernel"] = _transition_gof(
            U[:-1, 0].astype(int), U[1:, 0].astype(int),
            _dual_kernel_row(field.pair, field.mu, int(X[:, 0].max())), level)
    else:
        even = np.arange(0, N, 2)
        ta, tb = list(range(0, T // 2, 5)), list(range(T // 2, T, 5))
        # the pairs at times ta, then those at times tb
        a, b = (np.concatenate([U[r][:, ta].ravel(), U[r][:, tb].ravel()])
                for r in (even, even + 1))
        checks["dual_column_kernel"] = stat_tests.exchangeability_test(
            a, b, level=level, min_n=_MIN_PAIRS)

    passed = all(c.passed for c in checks.values())
    return VerificationReport(
        name=f"burke:{field.pair.name}",
        passed=passed,
        details={k: c.to_dict() for k, c in checks.items()}
        | {"shape": [N, T]},
    )


def field_rows(field):
    """The field as CSV text: one chunk of CRLF-ended n,t,x,u lines per
    lattice row n, floats written as their repr. The boundary noise row
    appears with n=0 and x written as nan, and the last site of every row
    with u written as nan.

    Each chunk joins one list of six pieces per line, n ",t," x "," u
    "\r\n", whose constant pieces are made once per field. On an integer
    x-space the fields hold few distinct floats, so each distinct float64
    bit pattern is formatted once; keying on bits keeps -0.0 apart from
    0.0."""
    X, U = field.X, field.U
    N, T = field.shape
    if field.pair.x_space.is_integer:
        bits = np.unique(np.concatenate([X.ravel(), U.ravel()])
                         .view(np.int64))
        table = dict(zip(bits.tolist(),
                         map(repr, bits.view(np.float64).tolist())))

        def text(row):
            return map(table.__getitem__, row.view(np.int64).tolist())
    else:
        def text(row):
            return map(repr, row.tolist())

    line = []
    for t in range(T + 1):
        line += ["0", f",{t},", "nan", ",", "nan", "\r\n"]
    line[4:6 * T:6] = text(U[0])
    rows = ["".join(line[:6 * T])]
    for n in range(1, N + 1):
        line[0::6] = [str(n)] * (T + 1)
        line[2::6] = text(X[n - 1])
        line[4:6 * T:6] = text(U[n])
        rows.append("".join(line))
    return rows
