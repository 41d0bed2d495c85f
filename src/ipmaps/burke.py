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

from . import exact_discrete, stat_tests
from .involutions import BLOCK, _deviations, involution_tolerance
from .kernels import KernelError, _gof_against_law
from .reports import verdict
from .stat_tests import DEFAULT_LEVEL, SortedColumn


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
    """Recompute every interior site, a band of rows at a time, and report
    the worst deviation; a nan deviation is the worst, so a field holding a
    nan fails."""
    X, U, pair = field.X, field.U, field.pair
    N, T = field.shape
    rows = max(1, BLOCK // 8 // (T + 1))
    worst = 0.0
    for lo in range(0, N, rows):
        x, u = X[lo:lo + rows], U[lo:lo + rows + 1]   # u: one row more
        dev = np.maximum(
            _deviations(pair.f(x[:, :-1], u[:-1]), x[:, 1:], pair.x_space),
            _deviations(pair.g(x[:, :-1], u[:-1]), u[1:], pair.u_space))
        # np.maximum and np.max propagate nan, where Python's max may skip it
        worst = float(np.maximum(worst, np.max(dev, initial=0.0)))
    tol = involution_tolerance(pair)
    return verdict(f"recursion:{pair.name}", passed=worst <= tol,
                   worst_deviation=worst, tol=tol, shape=[N, T])


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
        "x_marginal": _gof_against_law(SortedColumn(X[:, T]), mu, level=level),
        "u_marginal": _gof_against_law(SortedColumn(U[N, :]), nu, level=level),
    }

    even = np.arange(0, N - 1, 2)
    a, b = X[even][:, slices].ravel(), X[even + 1][:, slices].ravel()
    checks["row_independence"] = stat_tests.independence_test(
        *(stat_tests.binned(SortedColumn(c), c, bins=5) for c in (a, b)),
        level=level, min_n=_MIN_PAIRS)

    name = f"burke:{field.pair.name}"
    if field.pair.x_space.is_integer:
        checks["x_boundary"] = _gof_against_law(SortedColumn(X[:, 0]), mu,
                                                level=level)
        checks["u_boundary"] = _gof_against_law(SortedColumn(U[0, :]), nu,
                                                level=level)
        exact = exact_discrete.cell_report(exact_discrete.pushforward_cells(
            field.pair, mu, nu, int(X.max()), int(U.max())), "cell")
        return verdict(name, checks, passed=exact["failing_cells"] == 0,
                       shape=[N, T], exact=exact)

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

    return verdict(name, checks, shape=[N, T])


def field_rows(field, out):
    """Write the field as CSV into the open binary file `out`: the header
    n,t,x,u, then one CRLF-ended n,t,x,u line per lattice site, row by row,
    floats written as their repr. The boundary noise row appears with n=0
    and x written as nan, and the last site of every row with u written as
    nan. A block of rows is made as words, one row of words a line, and
    written at once; `_table_words` formats its values."""
    X, U = field.X, field.U
    N, T = len(X), U.shape[1]
    out.write(b"n,t,x,u\r\n")
    table = _integer_table(X, U) if field.pair.x_space.is_integer else None
    ts = _words(f",{t}" for t in range(T + 1))
    rows = max(1, BLOCK // 16 // (T + 1))   # temporaries that fit a cache
    xu = np.empty((min(rows, N + 1), 2, T + 1))   # x, then u, by row
    xu[:, 1, T] = xu[0, 0] = np.nan   # no u leaves t = T; row 0 is noise
    for lo in range(0, N + 1, rows):
        m = min(rows, N + 1 - lo)
        v = xu[:m]
        v[max(1 - lo, 0):, 0] = X[max(lo - 1, 0):lo + m - 1]
        v[:, 1, :T] = U[lo:lo + m]
        words = _table_words(table, v.reshape(-1)).reshape(m, 2, T + 1, -1)
        parts = (_words(map(str, range(lo, lo + m)))[:, None], ts,
                 words[:, 0], words[:, 1], np.full(1, 0x0A0D, "<u4"))
        ends = np.cumsum([0] + [p.shape[-1] for p in parts])
        line = np.empty((m, T + 1, ends[-1]), "<u4")
        for p, a, b in zip(parts, ends, ends[1:]):
            line[..., a:b] = p
        if lo == 0:
            line[0, T] = 0   # the noise row has no site t = T
        out.write(line.tobytes().translate(None, b"\0"))
        del words, parts, line   # so the next block reuses their memory


def _integer_table(X, U):
    """(lo, the texts of nan, -0.0 and lo..hi as rows of words, NUL-padded
    to the longest) if the values of X and U but nan lie in [lo, hi], lo an
    integer, and hi - lo is below their count."""
    lo = float(min(np.fmin.reduce(a, None, initial=np.inf) for a in (X, U)))
    hi = max(np.fmax.reduce(a, None, initial=-np.inf) for a in (X, U))
    if lo.is_integer() and hi - lo < X.size + U.size:
        values = [np.nan, -0.0, *np.arange(lo, hi + 1).tolist()]
        return lo, _words(f",{v!r}" for v in values)


def _table_words(table, v):
    """repr_words(v), taken from an `_integer_table` if it holds them."""
    if table is not None:
        k = np.fmax(v - (table[0] - 2), 0.0)   # nan's row is 0
        k[v.view(np.int64) == np.iinfo(np.int64).min] = 1   # and -0.0's 1
        i = k.astype(np.intp)
        if (i == k).all():
            return table[1].take(i, axis=0)
    return repr_words(v)


def _words(texts):
    """The ASCII `texts` as rows of words, NUL-padded to the longest."""
    texts = np.array(list(texts), "S")
    width = -(-texts.itemsize // 4) * 4
    return texts.astype(f"S{width}").view("<u4").reshape(len(texts), -1)


# ---------------------------------------------------------------------------
# float64 values written as repr writes them, in numpy: the digits Schubfach
# finds (R. Giulietti, "The Schubfach way to render doubles", 2020), as the
# JDK's DoubleToDecimal does, laid out as repr does for 1e-4 <= |v| < 1e16,
# in rows of uint32 words whose bytes, with the NULs removed, are the text

_M32, _M63 = (1 << 32) - 1, (1 << 63) - 1
# the words "0000".."9999", then from _LEAD with leading zeros as NULs, from
# _TRAIL with trailing ones; from _POINT "000.".."999.", from _LEAD_POINT with
# leading zeros as NULs but the units digit's; at _ZERO "0"
_LEAD, _TRAIL, _POINT, _LEAD_POINT, _ZERO = 10000, 20000, 30000, 31000, 32000


@functools.cache
def _text_tables():
    """The words; by d + 3 for decpt d = -3..16, 10**(17 - max(d, 0)),
    10**max(13 - d, 0), 10**max(d - 13, 0) and 10**min(d + 3, 16); and for
    k = -324..292 the JDK's g1 and g0 of 10**-k, g1 2**63 + g0 =
    floor(10**-k 2**-r) + 1 in [2**125, 2**126)."""
    digits = [f"{i:04}" for i in range(10000)]
    words = (digits + [d.lstrip("0").rjust(4, "\0") for d in digits]
             + [d.rstrip("0").ljust(4, "\0") for d in digits]
             + [f"{i:03}." for i in range(1000)]
             + [f"{i}.".rjust(4, "\0") for i in range(1000)] + ["0\0\0\0"])
    d = np.arange(-3, 17)
    g = []
    for k in range(-324, 293):
        r = (-k * 913124641741 >> 38) - 125   # floor(log2(10**-k)) - 125
        g1, g0 = divmod((10 ** max(-k, 0) << max(-r, 0))
                        // (10 ** max(k, 0) << max(r, 0)) + 1, 1 << 63)
        g.append((g1, g0))
    return (np.frombuffer("".join(words).encode("ascii"), "<u4"),
            10 ** np.array([17 - np.maximum(d, 0), np.maximum(13 - d, 0),
                            np.maximum(d - 13, 0), np.minimum(d + 3, 16)]),
            np.array(g, np.uint64).T.copy())


def _rop(y1, y0h, x1, out, z):
    """out = the JDK's rop(g1, g0, cp): floor(g cp / 2**127), its last bit
    set if inexact, given g1 cp = y1 2**64 + y0, y0h = y0 >> 1 and x1 =
    g0 cp >> 64; z is a work array."""
    np.add(y0h, x1, out=z)
    np.add(y1, z >> 63, out=out)
    z &= _M63
    z += _M63
    out |= z >> 63


def _shortest_digits(bits, bq, w):
    """(f, decpt): 0.f 10**decpt, f of 17 digits, is the shortest decimal
    that rounds to each float64 bit pattern (uint64) of biased exponent bq
    that repr writes positionally; f is w[0] of the 19 work arrays w. Each
    rounding interval is taken as symmetric: for the powers of two in that
    range the asymmetric one gives the same digits (test_every_power_of_two
    tries them all)."""
    s, c, h, ch, cl, vb, vbl, vbr, t = w[:9]
    g, hi, lo, u, v = w[9:11], w[11:13], w[13:15], w[15:17], w[17:19]
    q = np.subtract(bq, 1075, out=t).view(np.int64)
    k = q * 661971961083 >> 41   # floor(log10(2**q)), as the JDK's MathUtils
    _text_tables()[2].take(k + 324, axis=1, out=g, mode="clip")   # g1, g0
    np.add(k * -913124641741 >> 38, q + 2, out=h.view(np.int64))   # in 1..4
    np.bitwise_or(bits & (1 << 52) - 1, 1 << 52, out=c)
    c <<= h + 2   # cp
    np.right_shift(np.multiply(g, c, out=lo), 1, out=lo)
    # the high 64 bits of g cp, from the 32-bit limbs of g < 2**63 and
    # cp < 2**59, so that no sum of partial products overflows
    np.right_shift(c, 32, out=ch)
    np.bitwise_and(c, _M32, out=cl)
    np.bitwise_and(g, _M32, out=u)
    np.right_shift(np.multiply(u, cl, out=hi), 32, out=hi)
    hi += np.multiply(u, ch, out=u)
    np.right_shift(g, 32, out=u)
    hi += np.multiply(u, cl, out=v)
    hi >>= 32
    hi += np.multiply(u, ch, out=u)
    _rop(hi[0], lo[0], hi[1], vb, t)
    # the interval's ends are at cp + 2**(h + 1) and cp - 2**(h + 1): each
    # g << h is added to, or taken from, a halved product as a high part
    # and a low 63-bit one, whose sum's bit 63 is the carry or the borrow
    np.right_shift(g, 63 - h, out=v)
    g <<= h
    g &= _M63
    for add, end in ((np.add, vbr), (np.subtract, vbl)):
        add(lo, g, out=u)
        np.bitwise_and(u[0], _M63, out=c)
        u >>= 63
        u += v
        _rop(add(hi, u, out=u)[0], c, u[1], end, t)
    vbr -= bits & 1
    vbl += bits & 1
    np.right_shift(vb, 2, out=s)
    np.multiply(s // 10, 40, out=t)
    upin, wpin = vbl <= t, t + 40 <= vbr   # sp10 << 2, and tp10 << 2
    uin, win = vbl <= s << 2, (s << 2) + 4 <= vbr
    # sp10 or tp10 if just one is in the interval (closed for an even c);
    # else s or s + 1 if just one is; else the nearer, ties to even
    up = (vb & 3) + (s & 1) > 2
    s += win ^ (uin == win) & (up ^ win)
    s += ((t >> 2) + wpin * np.uint64(10) - s) * (upin ^ wpin)
    short = s - 10**16 >> 63
    k -= short.view(np.int64) - 17
    s *= short * 9 + 1
    return s, k


def _split(v, p, q):
    """q = v // p, and v its remainder (numpy's % has no fast path)."""
    np.floor_divide(v, p, out=q)
    v -= q * p
    return q, v


def repr_words(x):
    """(len(x), W) words, row i the text b"," + repr(x[i]): the comma and
    sign, the integer part and the point, and the fraction, each in as few
    words as its longest takes. Values that `repr` writes with an exponent,
    subnormals and infinities are written by `repr`. The work is done in
    place, in 20 arrays made at once, and a word of every value at a time,
    so the rows are a view of the transposed words."""
    words, powers, _ = _text_tables()
    bits = np.ascontiguousarray(x, np.float64).view(np.uint64)
    w = np.empty((20, len(bits)), np.uint64)
    bq = np.bitwise_and(bits >> 52, 0x7FF, out=w[19])
    f, decpt = _shortest_digits(bits, bq, w)
    decpt += 3
    fixed = (bq - 1 < 0x7FE) & (decpt.view(np.uint64) < 20)
    # zeros, and the values written by repr, are laid out as 0.0 here
    f *= fixed
    ints, frac, hi, lo, *p = w[1:9].view(np.int64)
    for row, pi in zip(powers, p):
        row.take(decpt, out=pi, mode="clip")
    np.divmod(f.view(np.int64), p[0], out=(ints, frac))
    np.divmod(frac, p[1], out=(hi, lo))
    hi *= p[2]
    lo *= p[3]
    a, b = _split(lo, 10**8, p[0])
    frac = [hi, *_split(a, 10000, p[1]), *_split(b, 10000, p[2])]
    # after[j]: all digits after word j are zeros, so word j is written
    # with its trailing zeros as NULs, and the later words as NULs
    after = [True]
    for v in frac[:0:-1]:
        after.insert(0, after[0] & (v == 0))
    wf = 1 + sum(not a.all() for a in after[:-1])
    wi = (len(str(ints.max(initial=0))) + 4) // 4
    other = np.flatnonzero(~fixed & (bits << 1 != 0))
    nan = (bits[other] << 12 != 0) & (bq[other] == 0x7FF)
    if not nan.all():
        wi = max(wi, 6 - wf)   # room for "," and a repr of 24 bytes
    out = np.empty((1 + wi + wf, len(bits)), "<u4")
    out[0] = 0x2C + (bits >> 63) * 0x2D00   # "," or ",-"
    # the integer part: words of 4 digits, then 3 digits and the point;
    # leading zeros as NULs, but the units digit's
    lead = True
    thousands, units = _split(ints, 1000, p[3])
    for j in range(wi - 1):
        v = thousands // 10 ** (4 * (wi - 2 - j)) % 10000
        words.take(v + _LEAD * lead, out=out[1 + j], mode="clip")
        lead &= v == 0
    units += _POINT + (_LEAD_POINT - _POINT) * lead
    words.take(units, out=out[wi], mode="clip")
    for j in range(wf):
        frac[j] += _TRAIL * after[j]
        words.take(frac[j], out=out[1 + wi + j], mode="clip")
    out[1 + wi] += (frac[0] == _TRAIL) * words[_ZERO]
    out[:, other] = 0
    out[0, other[nan]] = 0x6E616E2C   # ",nan"
    for i in other[~nan]:
        out[:7, i] = np.frombuffer((b",%r" % float(x[i])).ljust(28, b"\0"),
                                   "<u4")
    return out.T
