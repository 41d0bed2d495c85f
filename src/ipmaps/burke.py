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
    n,t,x,u, then one CRLF-ended n,t,x,u line per lattice site, row by row,
    floats written as their repr. The boundary noise row appears with n=0
    and x written as nan, and the last site of every row with u written as
    nan. A block of rows is made as words (`repr_words`), one row of words a
    line, and written at once. An integer field's distinct float64 bit
    patterns are formatted once, into a table its blocks take rows of at
    `np.searchsorted` of their bits; keying on bits keeps -0.0 apart."""
    X, U = field.X, field.U
    N, T = len(X), U.shape[1]
    out.write(b"n,t,x,u\r\n")
    integer = field.pair.x_space.is_integer
    if integer:
        bits = np.union1d(np.unique(X.view(np.int64)), np.unique(np.append(
            U.view(np.int64), np.float64(np.nan).view(np.int64))))
        table = repr_words(bits.view(np.float64))
    ts = _words(f",{t}" for t in range(T + 1))
    crlf = np.full((1, 1), 0x0A0D, "<u4")   # "\r\n"
    rows = max(1, BLOCK // 16 // (T + 1))   # temporaries that fit a cache
    for lo in range(0, N + 1, rows):
        hi = min(lo + rows, N + 1)
        xu = np.full((2, hi - lo, T + 1), np.nan)   # x, then u
        xu[0, max(1 - lo, 0):] = X[max(lo - 1, 0):hi - 1]
        xu[1, :, :T] = U[lo:hi]
        xu = xu.reshape(-1)
        xu = table.take(np.searchsorted(bits, xu.view(np.int64)), axis=0) \
            if integer else repr_words(xu)
        xu = xu.reshape(2, hi - lo, T + 1, -1)
        line = np.concatenate([
            np.broadcast_to(p, xu.shape[1:3] + p.shape[-1:]) for p in
            (_words(map(str, range(lo, hi)))[:, None], ts, *xu, crlf)], -1)
        if lo == 0:
            line[0, T] = 0   # the noise row has no site t = T
        out.write(line.tobytes().translate(None, b"\0"))


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
    """The words; 10**0..10**18; and for k = -324..292 the JDK's g1 and g0
    of 10**-k, g1 2**63 + g0 = floor(10**-k 2**-r) + 1 in [2**125, 2**126)."""
    digits = [f"{i:04}" for i in range(10000)]
    words = (digits + [d.lstrip("0").rjust(4, "\0") for d in digits]
             + [d.rstrip("0").ljust(4, "\0") for d in digits]
             + [f"{i:03}." for i in range(1000)]
             + [f"{i}.".rjust(4, "\0") for i in range(1000)] + ["0\0\0\0"])
    g = []
    for k in range(-324, 293):
        r = (-k * 913124641741 >> 38) - 125   # floor(log2(10**-k)) - 125
        g1, g0 = divmod((10 ** max(-k, 0) << max(-r, 0))
                        // (10 ** max(k, 0) << max(r, 0)) + 1, 1 << 63)
        g.append((g1, g0))
    return (np.frombuffer("".join(words).encode("ascii"), "<u4"),
            10 ** np.arange(19), np.array(g, np.uint64).T.copy())


def _mulhi(ah, al, bh, bl):
    """The high 64 bits of a b, from the 32-bit limbs of a and b."""
    t = ah * bl + (al * bl >> 32)
    return ah * bh + (t >> 32) + ((t & _M32) + al * bh >> 32)


def _rop(y0, y1, x1):
    """The JDK's rop(g1, g0, cp), given y1 2**64 + y0 = g1 cp and x1 = g0 cp
    >> 64: floor(cp g / 2**127), its last bit set if inexact."""
    z = (y0 >> 1) + x1
    return y1 + (z >> 63) | ((z & _M63) + _M63) >> 63


def _shortest_digits(bits):
    """(f, decpt): 0.f 10**decpt, f of 17 digits, is the shortest decimal
    that rounds to each normal float64 bit pattern (uint64), else nothing."""
    G = _text_tables()[2]
    bq = bits >> 52 & 0x7FF
    c = bits & (1 << 52) - 1 | 1 << 52
    q = bq.astype(np.int64) - 1075
    irregular = (c == 1 << 52) & (bq > 1)   # nearer its lower neighbour
    # floor(log10(2**q)), of 3/4 2**q if irregular, as the JDK's MathUtils
    k = q * 661971961083 - irregular * 274743187321 >> 41
    g1, g0 = (row.take(k + 324) for row in G)
    g1h, g1l, g0h, g0l = g1 >> 32, g1 & _M32, g0 >> 32, g0 & _M32
    h = (q + (-k * 913124641741 >> 38) + 2).astype(np.uint64)
    cp = c << h + 2
    ch, cl = cp >> 32, cp & _M32
    y0, y1 = g1 * cp, _mulhi(g1h, g1l, ch, cl)
    x0, x1 = g0 * cp, _mulhi(g0h, g0l, ch, cl)
    vb = _rop(y0, y1, x1)
    # the ends of the rounding interval are at cp + 2**s and cp - 2**s,
    # whose products with g are cp's plus or minus g << s
    s = h + 1
    ly, lx = g1 << s, g0 << s
    vbr = _rop(y0 + ly, y1 + (g1 >> 64 - s) + (y0 + ly < ly),
               x1 + (g0 >> 64 - s) + (x0 + lx < lx)) - (c & 1)
    s -= irregular
    ly, lx = g1 << s, g0 << s
    vbl = _rop(y0 - ly, y1 - (g1 >> 64 - s) - (y0 < ly),
               x1 - (g0 >> 64 - s) - (x0 < lx)) + (c & 1)
    s = vb >> 2
    sp, s4 = s // 10 * 10, s << 2
    # sp or sp + 10 if just one is in the interval (closed for an even c);
    # else s or s + 1 if just one is; else the nearer, ties to even
    upin, wpin = vbl <= sp << 2, (sp << 2) + 40 <= vbr
    uin, win = vbl <= s4, s4 + 4 <= vbr
    f = s + (win & ~uin | (uin == win) & ((vb > s4 + 2)
                                          | (vb == s4 + 2) & (s & 1 == 1)))
    f += (sp + wpin * np.uint64(10) - f) * (upin != wpin)
    short = f < 10**16
    return f + f * 9 * short, k + 17 - short


def _split(w, p):
    q = w // p   # numpy's % has no fast path for one divisor
    return [q, w - q * p]


def repr_words(x):
    """(len(x), W) words, row i the text b"," + repr(x[i]): the comma and
    sign, the integer part and the point, and the fraction, each in as few
    words as its longest takes. Values that `repr` writes with an exponent,
    subnormals and infinities are written by `repr`."""
    words, pow10, _ = _text_tables()
    bits = np.ascontiguousarray(x, np.float64).view(np.uint64)
    bq = bits >> 52 & 0x7FF
    f, decpt = _shortest_digits(bits)
    fixed = (bq - 1 < 0x7FE) & ((decpt + 3).view(np.uint64) < 20)
    # zeros, and the values written by repr, are laid out as 0.0 here
    f = (f * fixed).view(np.int64)
    d = np.clip(decpt, -3, 16)
    ints, frac = np.divmod(f, pow10.take(17 - np.maximum(d, 0)))
    hi, lo = np.divmod(frac, pow10.take(np.maximum(13 - d, 0)))
    frac = [hi * pow10.take(np.maximum(d - 13, 0))]   # 4 digits of 20
    for w in _split(lo * pow10.take(np.minimum(d + 3, 16)), 10**8):   # 16
        frac += _split(w, 10000)
    # after[j]: all digits after word j are zeros, so word j is written
    # with its trailing zeros as NULs, and the later words as NULs
    after = [True]
    for w in frac[:0:-1]:
        after.insert(0, after[0] & (w == 0))
    wf = 1 + sum(bool((~a).any()) for a in after[:-1])
    wi = (len(str(ints.max(initial=0))) + 4) // 4
    other = np.flatnonzero(~fixed & (bits << 1 != 0))
    nan = (bits[other] << 12 != 0) & (bq[other] == 0x7FF)
    if not nan.all():
        wi = max(wi, 6 - wf)   # room for "," and a repr of 24 bytes
    out = np.empty((len(bits), 1 + wi + wf), "<u4")
    out[:, 0] = 0x2C + (bits >> 63) * 0x2D00   # "," or ",-"
    # the integer part: words of 4 digits, then 3 digits and the point;
    # leading zeros as NULs, but the units digit's
    lead = True
    thousands, units = _split(ints, 1000)
    for j in range(wi - 1):
        w = _split(thousands // 10 ** (4 * (wi - 2 - j)), 10000)[1]
        out[:, 1 + j] = words.take(w + _LEAD * lead)
        lead &= w == 0
    out[:, wi] = words.take(units + _POINT + (_LEAD_POINT - _POINT) * lead)
    for j in range(wf):
        out[:, 1 + wi + j] = words.take(frac[j] + _TRAIL * after[j])
    out[:, 1 + wi] += ((frac[0] == 0) & after[0]) * words[_ZERO]
    out[other] = 0
    out[other[nan], 0] = 0x6E616E2C   # ",nan"
    for i in other[~nan]:
        text = b"," + repr(float(x[i])).encode("ascii")
        out.view(np.uint8)[i, :len(text)] = np.frombuffer(text, np.uint8)
    return out
