"""Exact enumeration checks for the reflecting random walk and the
ultra-discrete KdV maps.

Probabilities are exact rationals (floats are read as their shortest
decimal), so identities that hold exactly report a residual of literally
zero. Every table is one pair (nums, den) of plain integer numerators over
one integer denominator, so sums and differences of cells are integer
arithmetic. Every geometric table (the walk's forced laws and both KdV
laws) comes from one integer tabulation of theta^k. One cell identity,
`product_defect_tv`, decides the product law of both integer maps cell by
cell, so no truncation tail enters either verdict. A reported number is
`num / den` of two ints, which Python rounds correctly: the same float as
`float(Fraction(num, den))`, whatever denominator the table is over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .involutions import catalog_get
from .kernels import pushforward
from .laws import Geometric, LawError, ParityGeom, TruncGeom
from .reports import VerificationReport


def _frac(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return Fraction(str(float(x)))


@dataclass(frozen=True)
class RRWParams:
    """Reflecting-random-walk step law: P(U=1)=p, P(U=-1)=q, P(U=0)=r.

    `pprime` is P(V=1), set only in the boundary case r=0; then
    q' = p + q - p' is implied. For r>0, V has the law of U.
    """

    p: Fraction
    q: Fraction
    r: Fraction
    pprime: Fraction = None

    @staticmethod
    def make(p, q, r, pprime=None):
        p, q, r = _frac(p), _frac(q), _frac(r)
        if not (0 < p < 1 and 0 < q < 1 and r >= 0):
            raise LawError("need p,q in (0,1) and r >= 0")
        if p + q + r != 1:
            raise LawError("p + q + r must equal 1")
        if p >= q:
            raise LawError("the characterization requires p < q")
        pp = None
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
        return self.p + self.q - self.pprime if self.pprime is not None else self.q

    @property
    def rho2(self):
        if self.r > 0:
            return (self.p / self.q) ** 2
        return self.p * self.pprime / (self.q * self.qprime)


def _integer_weights(weights):
    """A few {key: Fraction} weights as ({key: int}, den) over the lcm of
    their denominators."""
    den = math.lcm(*(w.denominator for w in weights.values()))
    return ({k: w.numerator * (den // w.denominator)
             for k, w in weights.items()}, den)


def _geometric_table(theta, lo, hi):
    """The law P(k) = (1 - theta) theta^(k - lo) on {lo, lo+1, ...} cut at
    hi, for a Fraction theta = a/b: numerators (b - a) a^(k - lo) b^(hi - k)
    over b^(hi - lo + 1). The dropped mass is theta^(hi - lo + 1)."""
    a, b = theta.numerator, theta.denominator
    apow, bpow = [1], [1]
    for _ in range(hi - lo):
        apow.append(apow[-1] * a)
        bpow.append(bpow[-1] * b)
    return ({k: (b - a) * apow[k - lo] * bpow[hi - k]
             for k in range(lo, hi + 1)}, bpow[-1] * b)


@dataclass
class JointTable:
    """Finite joint law over (y, v) cells: cell (y, v) has probability
    nums[(y, v)] / den; state x of the X-law it was pushed from has
    probability xs[x] / dx."""

    nums: dict           # (y, v) -> int
    den: int
    tail: Fraction
    xs: dict             # x -> int
    dx: int

    def marginals(self):
        """Numerators of the y and v marginals, over `den`."""
        my, mv = {}, {}
        for (y, v), w in self.nums.items():
            my[y] = my.get(y, 0) + w
            mv[v] = mv.get(v, 0) + w
        return my, mv


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


def rrw_forced_table(params, box=200, y=False):
    """Exact pmf of the forced law of X on {0..box} as a table (nums, den),
    or with `y` the law of Y = (X + U)^+ it gives, over the same den. At
    r>0 both are the geometric law; at r=0 their parity weights
    (P(k even), P(k odd)) are (q', p') for X and (q, p) for Y."""
    if params.r > 0:
        return _geometric_table(params.p / params.q, 0, box)
    # P(k) = w (1 - rho^2) rho^(2 (k // 2)), w one of the parity weights
    pairs, dp = _geometric_table(params.rho2, 0, box // 2)
    w, dw = _integer_weights({0: params.qprime, 1: params.pprime,
                              2: params.q, 3: params.p})
    parity = 2 if y else 0
    nums = {k: w[k % 2 + parity] * pairs[k // 2] for k in range(box + 1)}
    return nums, dw * dp


# ---------------------------------------------------------------------------
# joint law and the cell identity
# ---------------------------------------------------------------------------

def _step_tables(params):
    """The laws of U, (p, q, r), and of V, (p', q', r), as numerator tables
    over one denominator; the step 0 only when r>0."""
    w, den = _integer_weights(dict(enumerate((
        params.q, params.r, params.p,
        params.qprime, params.r, params.pprime or params.p))))
    steps = (-1, 0, 1) if params.r > 0 else (-1, 1)
    return {s: w[s + 1] for s in steps}, {s: w[s + 4] for s in steps}, den


def rrw_joint_table(law_x, params):
    """Exact joint law of (Y, V) = H(X, U) under the catalog's reflecting_rw.

    `law_x` is a table (nums, den) of X whose mass may be < 1; the deficit
    is carried as tail. The cells are numerators over den Du, with Du the
    denominator of the step law.
    """
    xs, dx = law_x
    us, _, du = _step_tables(params)
    nums = pushforward(catalog_get("reflecting_rw"), xs.items(), us.items())
    return JointTable(nums=nums, den=dx * du,
                      tail=Fraction(dx - sum(xs.values()), dx), xs=xs, dx=dx)


def product_defect_tv(xs, us, ys, vs, mu, nu, mu_out, nu_out):
    """The cells (xs, us), in x-major order, at which
    mu_out(y) nu_out(v) = mu(x) nu(u) fails, with (ys, vs) = H(xs, us).

    H is an involution, hence a bijection, so H#(mu (x) nu) = mu_out (x)
    nu_out holds exactly when the identity holds at every cell. The laws
    are integer numerator tables, mu_out over mu's denominator and nu_out
    over nu's, so each cell is one integer comparison; a state off mu_out
    or nu_out has weight 0. Returns the number of cells, the number that
    fail and the first failing cell (None when none fails).
    """
    failing = [(x, u) for x, u, y, v in zip(xs.tolist(), us.tolist(),
                                            ys.tolist(), vs.tolist())
               if mu_out.get(y, 0) * nu_out.get(v, 0) != mu[x] * nu[u]]
    return len(xs), len(failing), failing[0] if failing else None


def rrw_pushforward_cells(params, box):
    """H#(mu (x) nu) = mu' (x) nu' under reflecting_rw, checked by
    `product_defect_tv` at every cell x in [0, box], u in the step support:
    mu and mu' are the forced laws of X and Y, reaching the largest image
    y = box + 1, and nu and nu' those of U and V."""
    mu, _ = rrw_forced_table(params, box + 1)
    mu_y, _ = rrw_forced_table(params, box + 1, y=True)
    nu, nu_v, _ = _step_tables(params)
    xs = np.repeat(np.arange(box + 1), len(nu))
    us = np.tile(list(nu), box + 1)
    ys, vs = catalog_get("reflecting_rw")(xs, us)
    return product_defect_tv(xs, us, ys, vs, mu, nu, mu_y, nu_v)


# ---------------------------------------------------------------------------
# proof identities
# ---------------------------------------------------------------------------

def rrw_verify_proof_identities(params, joint, tol=1e-12):
    """Residuals of the event identities that drive the characterization proof.

    `joint` is `rrw_joint_table(law_x, params)`. Checks, with Y=(X+U)^+ and
    V the co-driver and all quantities computed exactly from the joint table
    and the X-law it carries:
      boundary      P(X=0) q  = P(Y=0) q'
      zero-step     P(X=k) r  = P(Y=k) P(V=0)
      down-up       P(X=k+1) q = P(Y=k) p'
      up-down       P(X=k) p  = P(Y=k+1) q'
      total-up      p' = P(X>=1) q
      parity sums   P(X odd) q = P(Y even) p',  P(X even) p = P(Y odd) q'
      balance       P(X odd) + q = P(Y even) + p'
      parity mass   P(Y even) = q   (case r=0)
    """
    xs, dx = joint.xs, joint.dx
    my, mv = joint.marginals()
    dj = joint.den
    # numerators of P(X=k) over dx and of P(Y=k) over dj
    nX = lambda k: xs.get(k, 0)
    nY = lambda k: my.get(k, 0)
    pprime = Fraction(mv.get(1, 0), dj)
    qprime = Fraction(mv.get(-1, 0), dj)
    v0 = Fraction(mv.get(0, 0), dj)
    kmax = max(xs)

    def worst(pairs, s, t):
        """max |(x/dx) s - (y/dj) t| over numerator pairs (x, y), as a float:
        one multiplication by a constant on either side of each pair."""
        cx = s.numerator * t.denominator * dj
        cy = t.numerator * s.denominator * dx
        g = math.gcd(cx, cy) or 1     # short constants, short products
        cx, cy = cx // g, cy // g
        top = max((abs(x * cx - y * cy) for x, y in pairs), default=0)
        return top * g / (s.denominator * t.denominator * dx * dj)

    residuals = {}
    residuals["boundary"] = worst([(nX(0), nY(0))], params.q, qprime)
    residuals["zero_step"] = worst(
        ((nX(k), nY(k)) for k in range(kmax)), params.r, v0)
    residuals["down_up"] = worst(
        ((nX(k + 1), nY(k)) for k in range(kmax - 1)), params.q, pprime)
    residuals["up_down"] = worst(
        ((nX(k), nY(k + 1)) for k in range(kmax - 1)), params.p, qprime)
    mass_x = Fraction(sum(xs.values()), dx)
    residuals["total_up"] = float(
        abs(pprime - (mass_x - Fraction(nX(0), dx)) * params.q))

    if params.r == 0:
        # the parity identities are derived under p + q = 1
        x_odd = Fraction(sum(w for k, w in xs.items() if k % 2 == 1), dx)
        x_even = mass_x - x_odd
        y_odd = Fraction(sum(w for k, w in my.items() if k % 2 == 1), dj)
        y_even = Fraction(sum(my.values()), dj) - y_odd
        residuals["parity_down"] = float(abs(x_odd * params.q - y_even * pprime))
        residuals["parity_up"] = float(abs(x_even * params.p - y_odd * qprime))
        residuals["parity_balance"] = float(
            abs((x_odd + params.q) - (y_even + pprime)))
        residuals["y_even_mass"] = float(abs(y_even - params.q))
        residuals["x_odd_mass"] = float(abs(x_odd - params.pprime))

    tail = float(joint.tail)
    threshold = tol + 10.0 * tail
    passed = all(v <= threshold for v in residuals.values())
    return VerificationReport(
        name="rrw_proof_identities",
        passed=passed,
        details={"residuals": residuals, "threshold": threshold,
                 "tail": tail,
                 "params": {"p": float(params.p), "q": float(params.q),
                            "r": float(params.r),
                            "pprime": float(params.pprime) if params.pprime is not None else None}},
    )


# ---------------------------------------------------------------------------
# ultra-discrete KdV product law, cell by cell
# ---------------------------------------------------------------------------

def kdv_box(theta, ell, M):
    """The cells x in [-ell, ell], u in [-ell, M] in x-major order, after
    checking theta and ell as the KdV laws do and that some cell has
    x + u > 0, the only cells where kdv_g1 and kdv_g2 differ."""
    TruncGeom(theta, ell)
    if M <= -ell:
        raise LawError(f"M={M} <= -ell leaves no cell with x + u > 0")
    xs, us = np.arange(-ell, ell + 1), np.arange(-ell, M + 1)
    return np.repeat(xs, len(us)), np.tile(us, len(xs))


def kdv_pushforward_tv(theta, ell, variant, M=60):
    """H#(mu (x) nu) = mu (x) nu for mu = TruncGeom(theta, ell) and
    nu = ShiftGeom(theta, ell), checked by `product_defect_tv` at every
    cell of `kdv_box`. The weights are integer numerators of theta^k on
    each support and 0 off it; nu's table reaches the largest image v, so
    no image falls off it. Returns what `product_defect_tv` returns.
    """
    xs, us = kdv_box(theta, ell, M)
    ys, vs = catalog_get("kdv_" + variant)(xs, us)
    theta = _frac(theta)
    mu, _ = _geometric_table(theta, -ell, ell)
    # v >= M at the cell (ell, M), so this table also covers every u
    nu, _ = _geometric_table(theta, -ell, int(vs.max()))
    return product_defect_tv(xs, us, ys, vs, mu, nu, mu, nu)
