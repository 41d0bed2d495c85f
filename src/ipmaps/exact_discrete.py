"""Exact enumeration on integer maps: the reflecting random walk's
characterization, the ultra-discrete KdV product law, Burke's integer
fields and exact detailed balance.

Probabilities are exact rationals (floats are read as their shortest
decimal). One cell identity, `product_defect_tv`, decides the product law
of an integer map (`pushforward_cells`, for `kdv-tv` and Burke's integer
fields) on int64 exponent vectors of the laws' factored tables
(`laws.factors`), or on their weights for tables of many atoms. What sums
masses reads big-integer numerators over one denominator
(`laws.truncate`): detailed balance's fluxes, and `rrw_characterize`, the
walk's verdict on one joint table whose cell masses its cell identity and
proof identities read. `_sums`, the one pushforward, gives the laws of Y
and V and detailed balance's flux. Each verdict enumerates its cells in
x-major order (`cells`); `cell_report` puts a tally in a report. The mass
of X > box is summed once, and no truncation tail enters a verdict. A
reported probability is `num / den` of two ints, correctly rounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import laws
from .involutions import blocks, catalog_get
from .laws import (Geometric, LawError, ParityGeom, ShiftGeom, TruncGeom,
                   _frac, _geometric_factors, _integer_weights,
                   _multiply_out)
from .reports import verdict


@dataclass(frozen=True)
class RRWParams:
    """Reflecting-random-walk step law: P(U=1)=p, P(U=-1)=q, P(U=0)=r.

    `pprime` is P(V=1), stored in every case: set in the boundary case r=0,
    and p' = p for r>0, where V has the law of U. q' = p + q - p' is implied.
    """

    p: Fraction
    q: Fraction
    r: Fraction
    pprime: Fraction

    @staticmethod
    def make(p, q, r, pprime=None):
        p, q, r = _frac(p), _frac(q), _frac(r)
        if not (0 < p < 1 and 0 < q < 1 and r >= 0):
            raise LawError("need p,q in (0,1) and r >= 0")
        if p + q + r != 1:
            raise LawError("p + q + r must equal 1")
        if p >= q:
            raise LawError("the characterization requires p < q")
        pp = p
        if r == 0:
            if pprime is None:
                raise LawError("case r=0 needs pprime = P(V=1)")
            pp = _frac(pprime)
            if not 0 < pp < q:
                raise LawError("case r=0 needs pprime in (0, q)")
        elif pprime is not None:
            raise LawError("pprime is set only in the case r=0: for r > 0"
                           " V has the law of U")
        return RRWParams(p, q, r, pp)

    @property
    def qprime(self):
        return self.p + self.q - self.pprime

    @property
    def rho2(self):
        return self.p * self.pprime / (self.q * self.qprime)


# ---------------------------------------------------------------------------
# forced laws
# ---------------------------------------------------------------------------

def rrw_forced_law(params):
    """The X-law forced by independence of Y=(X+U)^+ and V=-U-2(X+U)^-.

    r>0: geometric with failure rate p/q. r=0: parity-conditional geometric
    with rate rho^2 = p p' / (q q') and P(X odd) = p'; for p'=p this table
    collapses to the plain geometric law.
    """
    if params.r > 0:
        return Geometric(float(params.p / params.q))
    rho = math.sqrt(float(params.rho2))
    return ParityGeom(rho, float(params.pprime))


def rrw_forced_table(params, box):
    """Exact pmfs on {0..box} of the forced law of X and of the law of
    Y = (X + U)^+ it gives, (x, y, den): dense object arrays of numerators
    indexed by the state over one den, multiplied out from the factored
    geometric table (`laws._geometric_factors`). At r>0 both are the
    geometric law, one array; at r=0, in one multiply, the weight of k's
    pair times its parity weight (P(k even), P(k odd)), (q', p') for X and
    (q, p) for Y, one row where p' = p."""
    if params.r > 0:
        theta = params.p / params.q
        x = _multiply_out(*_geometric_factors(theta, 0, box)[1:])
        return x, x, theta.denominator ** (box + 1)
    # P(k) = w (1 - rho^2) rho^(2 (k // 2)), w one of the parity weights;
    # where p' = p, (q', p') = (q, p) and Y has X's law and row
    w, dw = _integer_weights(dict(enumerate((params.qprime, params.pprime) + (
        params.q, params.p) * (params.pprime != params.p))))
    pairs = _multiply_out(*_geometric_factors(params.rho2, 0, box // 2)[1:])
    k = np.arange(box + 1)
    xy = pairs[k // 2] * np.array(
        list(w.values()), dtype=object).reshape(-1, 2)[:, k % 2]
    return xy[0], xy[-1], dw * params.rho2.denominator ** (box // 2 + 1)


# ---------------------------------------------------------------------------
# cells, the pushforward, the joint law and the cell identity
# ---------------------------------------------------------------------------

def cells(xs, us):
    """The x-major cells of two value sequences: every (x, u) with x from
    xs and u from us, as two arrays, all of one x's cells before the next's."""
    return np.repeat(xs, len(us)), np.tile(us, len(xs))


def _step_tables(params):
    """The laws of U, (p, q, r), and of V, (p', q', r), as numerators over
    one denominator: U's a table on its steps, the step 0 only when r>0,
    and V's an array on -1, 0, 1, indexed by v + 1."""
    w, den = _integer_weights(dict(enumerate((
        params.q, params.r, params.p,
        params.qprime, params.r, params.pprime))))
    steps = (-1, 0, 1) if params.r > 0 else (-1, 1)
    return ({s: w[s + 1] for s in steps},
            np.array([w[3], w[4], w[5]], dtype=object), den)


def rrw_joint_table(params, box):
    """(cells, (mu, den), mu_y, (nu, nu_v, du)), read by both the cell
    check and the proof identities: the cells (xs, us, ys, vs), x in
    [0, box] times the step support in x-major order, with (ys, vs) from
    one evaluation of reflecting_rw; the forced arrays mu of X and mu_y of
    Y over den, on 0..box+1, the largest image y; and the laws nu of U and
    nu_v of V over du (`_step_tables`). Cell (x, u) has mass
    mu(x) nu(u) / (den du).
    """
    mu, mu_y, den = rrw_forced_table(params, box + 1)
    nu, nu_v, du = _step_tables(params)
    xs, us = cells(np.arange(box + 1), list(nu))
    grid = (xs, us, *catalog_get("reflecting_rw")(xs, us))
    return grid, (mu, den), mu_y, (nu, nu_v, du)


def rrw_cell_fails(joint):
    """(mass, fails) on the x-major cells of `joint` (`rrw_joint_table`):
    each mass mu(x) nu(u), one outer product of the X array and the step
    weights, and where mu'(y) nu'(v) = mass fails, mu' and nu' by index."""
    (xs, _, ys, vs), (mu, _), mu_y, (nu, nu_v, _) = joint
    mass = np.multiply.outer(mu[:len(xs) // len(nu)], [*nu.values()]).ravel()
    return mass, _unequal(mu_y[ys], nu_v[vs + 1], mass)


def product_defect_tv(xs, us, ys, vs, mu, nu, mu_out, nu_out):
    """The cells (xs, us), in x-major order, at which
    mu_out(y) nu_out(v) = mu(x) nu(u) fails, with (ys, vs) = H(xs, us).

    H is an involution, hence a bijection, so H#(mu (x) nu) = mu_out (x)
    nu_out holds exactly when the identity holds at every cell. The laws
    are factored tables (`laws.factors`), each side's products over one
    denominator; a state off a table has weight 0. Over one pairwise
    coprime base of their atoms a weight has one exponent vector, its code
    one int64 in a mixed radix above any digit of a side's sum of codes: a
    side is below top, or -1 where a state is off its table. Where no int64
    holds that, or the tables have 40 atoms or more (a finite table of
    many states), a code is the weight itself and a side their product.
    Returns the number of cells, the number that fail and the first
    failing cell (None when none fails).
    """
    tables = {id(t): t for t in (mu, nu, mu_out, nu_out)}
    atoms = {a for t in tables.values() for a in t[1]}
    top = 2 ** 63   # past an int64, unless a base is found
    if len(atoms) < 40:
        base = _coprime_base(atoms)
        exps = {}
        for i, (_, own, e) in tables.items():
            v = np.array([[_power_of(a, p)[0] for p in base] for a in own],
                         np.int64).reshape(len(own), len(base))
            exps[i] = v if e is None else e @ v
        radix = [2 * max(c) + 1 for c in zip(*(
            e.max(0, initial=0).tolist() for e in exps.values()))]
        place = [math.prod(radix[:j]) for j in range(len(base) + 1)]
        top = place[-1]
    if 2 * top < 2 ** 63:
        codes = {i: e @ np.array(place[:-1], np.int64)
                 for i, e in exps.items()}
        off, join = -int(top), lambda a, b: np.maximum(a + b, -1)
    else:
        codes, off, join = ({i: _multiply_out(*t[1:])
                             for i, t in tables.items()}, 0, np.multiply)
    left, right = (join(_lookup(a[0], codes[id(a)], ka, off),
                        _lookup(b[0], codes[id(b)], kb, off))
                   for a, ka, b, kb in ((mu, xs, nu, us),
                                        (mu_out, ys, nu_out, vs)))
    return _tally(xs, us, left != right)


def _coprime_base(atoms):
    """Pairwise coprime integers above 1 whose products are the atoms
    (factor refinement): an atom coprime to the base's product joins it;
    else it and a member with a common factor g give way to g and to each
    over its powers of g."""
    base, product, todo = [], 1, sorted(set(atoms) - {1})
    while todo:
        a = todo.pop()
        if math.gcd(a, product) == 1:
            base.append(a)
            product *= a
            continue
        b = next(b for b in base if math.gcd(a, b) > 1)
        base.remove(b)
        product //= b
        g = math.gcd(a, b)
        todo += {g, _power_of(a, g)[1], _power_of(b, g)[1]} - {1}
    return base


def _power_of(a, g):
    """(k, a / g^k) for the largest k with g^k dividing a, in some log2 k
    divisions: the powers of g^2 are divided out first."""
    if a % g:
        return 0, a
    k, a = _power_of(a // g, g * g)
    return (2 * k + 2, a // g) if a % g == 0 else (2 * k + 1, a)


def _lookup(states, values, keys, off):
    """The values of the sorted states at the keys, `off` elsewhere, read
    from one array over their range if short."""
    if len(states):
        lo, hi = keys.min(initial=states[0]), keys.max(initial=states[-1])
        if hi - lo < 2 * len(states) + len(keys):
            dense = np.full(hi - lo + 1, off, values.dtype)
            dense[states - lo] = values
            return dense[keys - lo]
    at = np.searchsorted(states, keys)
    at[np.append(states, 0)[at] != keys] = len(states)
    return np.append(values, off)[at]


def _unequal(wy, wv, mass, scale=1):
    """Per cell, whether wy wv != mass scale. The products are made a block
    of cells at a time, so that of the big integers only the masses are
    held whole."""
    fails = np.empty(len(mass), dtype=bool)
    for s in blocks(len(mass), 1 << 9):   # holds 0.3 MB of products at box 1000
        fails[s] = wy[s] * wv[s] != (mass[s] if scale == 1 else
                                      mass[s] * scale)
    return fails


def _sums(keys, mass):
    """The distinct keys in increasing order and the mass of each one's
    cells, one `np.add.reduceat` over a stable sort of the keys."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    return keys[starts], np.add.reduceat(mass[order], starts)


def _tally(xs, us, fails):
    """(cells, failing cells, first failing cell or None) of a fails mask."""
    failing = np.flatnonzero(fails)
    first = [(xs[i].item(), us[i].item()) for i in failing[:1]]
    return len(xs), len(failing), first[0] if first else None


def cell_report(result, unit):
    """A `_tally` result (checked, failing, witness), as `product_defect_tv`
    returns it, as a report's `checked_<unit>s`, `failing_<unit>s` and
    `witness_<unit>`, the witness a list: `unit` is "cell", or "pair" for
    detailed balance's state pairs."""
    checked, failing, witness = result
    return {f"checked_{unit}s": checked, f"failing_{unit}s": failing,
            f"witness_{unit}": list(witness) if witness else None}


# ---------------------------------------------------------------------------
# proof identities
# ---------------------------------------------------------------------------

_TALLY = ("checked", "failing", "first_failing")


def _count(checks):
    """The `_TALLY` of a list of (state, the identity holds there)."""
    failing = [state for state, holds in checks if not holds]
    return dict(zip(_TALLY, (len(checks), len(failing),
                             failing[0] if failing else None)))


def rrw_verify_proof_identities(params, joint, beyond, mass, fails):
    """The event identities that drive the characterization proof, as exact
    integer equalities on the X table of `joint` (`rrw_joint_table`), with
    Y = (X+U)^+ and V = -U - 2(X+U)^-. The cells of [0, box] give Y's
    marginal exactly on y <= box - 1, and V's law once `beyond`, the mass
    of X > box over the X table's denominator, where V = -U, is added.

    Per state, P(X=x) nu(u) = P(Y=y) nu'(v) at each cell (x, u) -> (y, v)
    with y <= box - 1:
      boundary   (0, -1) -> (0, -1)      zero_step  (k, 0) -> (k, 0), r > 0
      down_up    (k+1, -1) -> (k, 1)     up_down    (k, 1) -> (k+1, -1)
    Mass:
      total_up   p' = P(X >= 1) q, at the state v = 1
      v_law      P(V = v) = nu'(v), at each v
    At r = 0, summed over the parity pairs {0, 1}, ..., {2n, 2n+1} for each
    of the box // 2 pairs 2n + 1 <= box - 1, at the pair (2n, 2n+1):
      parity_down     P(X odd) q = P(Y even) p'
      parity_up       P(X even) p = P(Y odd) q'
      x_odd_mass      P(X odd | pairs) = p'
      y_even_mass     P(Y even | pairs) = q
      parity_balance  P(X odd | pairs) + q = P(Y even | pairs) + p'
    Each identity reports the states it checked, how many fail and the
    first that fails.

    All read each cell's mass mu(x) nu(u) and verdict (`rrw_cell_fails`):
    Y's and V's laws are the masses' sums. A per-state identity,
    mass du = my(y) nu'(v), is the cell identity mass = mu'(y) nu'(v) at a
    state where my(y) = mu'(y) du, so it reads the verdict there and is
    multiplied out at the other states. A parity identity is a prefix sum
    over the pairs of its terms, 0 where it holds.
    """
    (xs, us, ys, vs), (mu, dx), mu_y, (nu, nu_v, du) = joint
    box = int(xs[-1])
    (_, my), mv = _sums(ys, mass), dict(zip(*_sums(vs, mass)))  # over dx du
    kinds = {"boundary": (xs == 0) & (us == -1), "zero_step": us == 0,
             "down_up": (xs > 0) & (us == -1), "up_down": us == 1}
    if params.r == 0:
        del kinds["zero_step"]
    # the kinds are disjoint: one pass over the cells of them all, split
    # after; mu(x) nu(u) du = my(y) nu'(v), both sides over dx du^2
    at = np.flatnonzero(np.logical_or.reduce(list(kinds.values()))
                        & (ys <= box - 1))
    fails, off = fails[at], (my[:box] != mu_y[:box] * du)[ys[at]]
    d = at[off]
    fails[off] = _unequal(my[ys[d]], nu_v[vs[d] + 1], mass[d], du)
    xs, us = xs[at], us[at]
    report = {}
    for name, kind in kinds.items():
        mine = kind[at]
        report[name] = dict(zip(_TALLY, _tally(xs[mine], us[mine],
                                               fails[mine])))

    p, q, pp, qp = nu[1], nu[-1], nu_v[2], nu_v[0]
    report["total_up"] = _count([(1, pp * dx == (dx - mu[0]) * q)])
    report["v_law"] = _count([   # at each v of U's support, which is V's
        (v, mv[v] + beyond * nu[-v] == nu_v[v + 1] * dx) for v in nu])

    if params.r == 0:
        # over the pairs {0, 1}, ..., {2n, 2n+1}, X over dx and Y over dx du:
        # q du xo = p' ye, p du xe = q' yo, xo / (xe + xo) = p' (a = 0),
        # ye / (ye + yo) = q (b = 0) and a (ye + yo) = b (xe + xo), whose
        # products are made only where a or b is not 0
        mx, my = (t[:2 * (box // 2)] for t in (mu, my))
        xe, xo, ye, yo = (m[i::2] for m in (mx, my) for i in (0, 1))
        down, up, a, b = (np.add.accumulate(t) for t in (
            q * du * xo - pp * ye, p * du * xe - qp * yo,
            (du - pp) * xo - pp * xe, (du - q) * ye - q * yo))
        balance = (a == 0) & (b == 0)
        nz = np.flatnonzero(~balance)
        if len(nz):
            tx, ty = (np.add.accumulate(m)[1::2][nz] for m in (mx, my))
            balance[nz] = a[nz] * ty == b[nz] * tx
        pairs = np.arange(0, len(mx), 2)
        for name, holds in (("parity_down", down == 0), ("parity_up", up == 0),
                            ("x_odd_mass", a == 0), ("y_even_mass", b == 0),
                            ("parity_balance", balance)):
            report[name] = dict(zip(_TALLY, _tally(pairs, pairs + 1, ~holds)))

    return verdict("rrw_proof_identities",
                   passed=not any(r["failing"] for r in report.values()),
                   **report)


def rrw_characterize(params, box):
    """The `rrw-characterize` verdict on x in [0, box]: the cell identity
    (`rrw_cell_fails`) at every cell of one `rrw_joint_table`, with the
    forced laws of X and Y and the laws of U and V, and the proof identities
    on the same table, which read its masses and cell verdicts. The mass of
    X > box is summed once, for the truncation tail and V's law.
    """
    joint = rrw_joint_table(params, box)
    (xs, us, _, _), (mu, den), _, _ = joint
    mass, fails = rrw_cell_fails(joint)
    cell_check = cell_report(_tally(xs, us, fails), "cell")
    beyond = den - mu[:-1].sum()   # X > box; mu is on 0..box+1
    ids = rrw_verify_proof_identities(params, joint, beyond, mass, fails)
    return verdict(
        f"rrw_characterize(p={float(params.p)},q={float(params.q)},"
        f"r={float(params.r)})", {"identities": ids},
        passed=cell_check["failing_cells"] == 0,
        forced_law=type(rrw_forced_law(params)).__name__,
        forced_pmf_head={str(k): mu[k] / den for k in range(min(12, box + 1))},
        truncation_tail=beyond / den, **cell_check)


# ---------------------------------------------------------------------------
# ultra-discrete KdV product law, cell by cell
# ---------------------------------------------------------------------------

def kdv_box(theta, ell, M):
    """Check theta and ell as the KdV laws do, and that the box [-ell, ell]
    x [-ell, M] has a cell with x + u > 0, where kdv_g1 and kdv_g2 differ."""
    TruncGeom(theta, ell)
    if M <= -ell:
        raise LawError(f"M={M} <= -ell leaves no cell with x + u > 0")


def pushforward_cells(pair, mu, nu, x_hi, u_hi):
    """H#(mu (x) nu) = mu (x) nu, checked by `product_defect_tv` at every
    cell x in [mu.support_lo, x_hi], u in [nu.support_lo, u_hi] of the
    integer map `pair`, each range clipped to its law's support. Each
    law's table is one `laws.factors` reaching the largest state of its
    range and of its image (y or v), so no image falls off it. Returns
    what `product_defect_tv` returns.
    """
    xs, us = cells(np.arange(mu.support_lo, min(x_hi, mu.support_hi) + 1),
                   np.arange(nu.support_lo, min(u_hi, nu.support_hi) + 1))
    ys, vs = pair(xs, us)
    mu_w = laws.factors(mu, int(ys.max(initial=x_hi)))
    nu_w = laws.factors(nu, int(vs.max(initial=u_hi)))
    return product_defect_tv(xs, us, ys, vs, mu_w, nu_w, mu_w, nu_w)


def kdv_pushforward_tv(theta, ell, variant, M):
    """H#(mu (x) nu) = mu (x) nu for mu = TruncGeom(theta, ell) and
    nu = ShiftGeom(theta, ell), checked by `pushforward_cells` at every
    cell x in [-ell, ell], u in [-ell, M] of the box `kdv_box` checks."""
    kdv_box(theta, ell, M)
    return pushforward_cells(catalog_get("kdv_" + variant),
                             TruncGeom(theta, ell), ShiftGeom(theta, ell),
                             ell, M)
