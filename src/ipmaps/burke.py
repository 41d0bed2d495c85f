"""Lattice random field driven by an involution, and checks of Burke's
property: rows i.i.d. from the state law, columns stationary Markov.

The field lives on a finite rectangle. States X[n][t] (n = 1..N, t = 0..T)
evolve by (X[n][t+1], U[n][t]) = H(X[n][t], U[n-1][t]) with the boundary
column X[.][0] i.i.d. from mu and the boundary noise row U[0][.] i.i.d.
from nu.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import exact_discrete, stat_tests
from .involutions import _deviations, involution_tolerance, usable_cores
from .kernels import KernelError, _gof_against_law
from .reports import VerificationReport
from .stat_tests import DEFAULT_LEVEL


@dataclass
class LatticeField:
    """X has shape (N, T+1), rows n = 1..N; U has shape (N+1, T), row 0
    being the boundary noise, and is a view of an (N+1, T+1) array, whose
    last column `simulate_field` leaves unset."""

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
    anti-diagonal n + t = d are independent and are filled in place by one
    vectorized step each. In the row-major X, site (n, d - n) lies d + n T
    items in, so anti-diagonal d is one slice of step T of the flattened X;
    U's rows are padded to T + 1 items, so it is the same slice of U. The
    step's X outputs, one step on in t, lie 1 item further on, and its U
    outputs, one step on in n, T + 1 items further on.
    Raises on any state escaping the involution's x-space, reporting the
    lattice coordinates of the first violation in row-major order, which
    are those of the row-major scalar recursion: every input of a site
    precedes it in that order.
    """
    mu_rng, nu_rng = rng.split(2)
    X = np.empty((N, T + 1))
    buf = np.empty((N + 1, T + 1))
    U = buf[:, :T]
    X[:, 0] = np.asarray(mu.sample(mu_rng, N), dtype=float)
    U[0, :] = np.asarray(nu.sample(nu_rng, T), dtype=float)
    x, u = X.reshape(-1), buf.reshape(-1)
    with np.errstate(all="ignore"):
        for d in range(N + T - 1 if T else 0):
            lo, hi = max(0, d - T + 1), min(N - 1, d) + 1   # the sites' n
            a, b = d + lo * T, d + hi * T
            xs, us = x[a:b:T], u[a:b:T]
            x[a + 1:b + 1:T] = pair.f(xs, us)
            u[a + T + 1:b + T + 1:T] = pair.g(xs, us)
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
    tol = involution_tolerance(pair)
    return VerificationReport(
        name=f"recursion:{pair.name}",
        passed=worst <= tol,
        details={"worst_deviation": worst, "tol": tol, "shape": [N, T]},
    )


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
    (c) u_marginal: generated noise is nu-distributed, tested on the last
        noise row, which is i.i.d. along time.

    On an integer map the rest is exact. The flip argument gives Burke's
    rows and columns once H#(mu (x) nu) = mu (x) nu holds and the
    boundaries are i.i.d. from mu and nu, so the `exact` block checks the
    cell identity mu(y) nu(v) = mu(x) nu(u) at every cell x in
    [mu.support_lo, max X], u in [nu.support_lo, max U]
    (`exact_discrete.pushforward_cells`), reporting `checked_cells`,
    `failing_cells` and `witness_cell` as `kdv-tv` does, and two GOFs test
    the boundaries: x_boundary, X[., 0] against mu, and u_boundary,
    U[0, .] against nu. Chain 0 and noise column 0 cannot test the map:
    they are driven by the i.i.d. boundaries, so they follow the kernel
    of f and its dual kernel of g for every H, preserving the product law
    or not.

    On a continuous map the columns are tested by exchangeability:
    (d) column_kernel: consecutive states (reversibility), halves split by
        chain so they are independent;
    (e) dual_column_kernel: neighbour noise pairs, with halves from
        well-separated column groups.
    """
    X, U = field.X, field.U
    N, T = field.shape
    require_field_shape(N, T)
    mu, nu = field.mu, field.nu
    slices = _thinned_slices(T)
    checks = {
        "x_marginal": _gof_against_law(np.sort(X[:, T]), mu, level=level),
        "u_marginal": _gof_against_law(np.sort(U[N, :]), nu, level=level),
    }

    even = np.arange(0, N - 1, 2)
    a, b = X[even][:, slices].ravel(), X[even + 1][:, slices].ravel()
    checks["row_independence"] = stat_tests.independence_test(
        a, b, np.sort(a), np.sort(b), bins=5, level=level, min_n=_MIN_PAIRS)

    failing, exact = 0, {}
    if field.pair.x_space.is_integer:
        checks["x_boundary"] = _gof_against_law(np.sort(X[:, 0]), mu,
                                                level=level)
        checks["u_boundary"] = _gof_against_law(np.sort(U[0, :]), nu,
                                                level=level)
        exact["exact"] = exact_discrete.cell_report(
            exact_discrete.pushforward_cells(field.pair, mu, nu,
                                             int(X.max()), int(U.max())))
        failing = exact["exact"]["failing_cells"]
    else:
        ts = np.arange(0, T - 1, 5)
        chains = X[:N // 2 * 2]
        # exchangeability_test swaps its second half internally, so the
        # halves, rows :N // 2 and N // 2:, are passed unswapped
        checks["column_kernel"] = stat_tests.exchangeability_test(
            chains[:, ts].ravel(), chains[:, ts + 1].ravel(), level=level,
            min_n=_MIN_PAIRS)
        even = np.arange(0, N, 2)
        ta, tb = list(range(0, T // 2, 5)), list(range(T // 2, T, 5))
        # the pairs at times ta, then those at times tb
        a, b = (np.concatenate([U[r][:, ta].ravel(), U[r][:, tb].ravel()])
                for r in (even, even + 1))
        checks["dual_column_kernel"] = stat_tests.exchangeability_test(
            a, b, level=level, min_n=_MIN_PAIRS)

    return VerificationReport(
        name=f"burke:{field.pair.name}",
        passed=failing == 0 and all(c.passed for c in checks.values()),
        details={k: c.to_dict() for k, c in checks.items()}
        | {"shape": [N, T]} | exact,
    )


def field_rows(field, out):
    """Write the field as CSV into the open binary file `out`: the header
    n,t,x,u, then one chunk of CRLF-ended n,t,x,u lines per lattice row n,
    floats written as their repr. The boundary noise row appears with n=0
    and x written as nan, and the last site of every row with u written as
    nan.

    Each chunk joins one list of six pieces per line, n ",t," x "," u
    "\r\n", whose constant pieces are made once per field. On an integer
    x-space the fields hold few distinct floats, so each distinct float64
    bit pattern is formatted once into a table, and each row gathers its
    reprs from it at `np.searchsorted` of the row's bits; keying on bits
    keeps -0.0 apart from 0.0. A continuous field is written by two
    processes where `os.fork` exists and more than one core is usable: a
    forked child writes the lower half of the rows into `out` itself while
    this process formats the upper half, then writes it where the child's
    half ended, the two sharing the file's offset. The bytes are the same
    either way."""
    X, U = field.X, field.U
    N = len(X)
    out.write(b"n,t,x,u\r\n")
    integer = field.pair.x_space.is_integer
    if integer:
        bits = np.union1d(np.unique(X.view(np.int64)),
                          np.unique(U.view(np.int64)))
        table = np.array(list(map(repr, bits.view(np.float64).tolist())),
                         dtype=object)

        def text(row):
            return table[np.searchsorted(bits, row.view(np.int64))].tolist()
    else:
        def text(row):
            return map(repr, row.tolist())
    # an integer field, formatted through its table, is slower forked
    if not integer and hasattr(os, "fork") and usable_cores() > 1:
        split = (N + 1) // 2
        out.flush()
        pid = os.fork()
        if pid == 0:
            # the child: every path ends in os._exit, so it never returns
            # into the caller's stack, nor runs exit handlers or closes `out`
            status = 1
            try:
                out.writelines(row.encode("ascii")
                               for row in _rows(field, text, 0, split))
                out.flush()
                status = 0
            except BaseException:
                import traceback   # only here: nothing else in burke needs it

                traceback.print_exc()
            finally:
                os._exit(status)
        try:
            rows = list(_rows(field, text, split, N + 1))
        finally:
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if status != 0:   # else every write of the child returned
            raise RuntimeError(
                f"the process writing field rows 0..{split - 1} exited with "
                f"status {status}")
        out.seek(os.lseek(out.fileno(), 0, os.SEEK_CUR))
    else:
        rows = _rows(field, text, 0, N + 1)
    out.writelines(row.encode("ascii") for row in rows)


def _rows(field, text, lo, hi):
    """The chunks of `field_rows` for lattice rows lo, ..., hi - 1, row 0
    being the boundary noise row; `text` gives the reprs of an array."""
    X, U = field.X, field.U
    T = U.shape[1]
    line = []
    for t in range(T + 1):
        line += ["0", f",{t},", "nan", ",", "nan", "\r\n"]
    for n in range(lo, hi):
        if n == 0:
            line[4:6 * T:6] = text(U[0])
            yield "".join(line[:6 * T])
            continue
        line[0::6] = [str(n)] * (T + 1)
        line[2::6] = text(X[n - 1])
        line[4:6 * T:6] = text(U[n])
        yield "".join(line)
