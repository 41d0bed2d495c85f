"""Exact enumeration checks for the reflecting random walk and the
ultra-discrete KdV maps.

Probabilities are manipulated as exact rationals whenever the parameters are
rational (floats are read as their shortest decimal), so identities that hold
exactly report a residual of literally zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .involutions import catalog_get
from .kernels import pushforward
from .laws import FiniteTable, Geometric, LawError, ParityGeom
from .reports import VerificationReport


def _frac(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return Fraction(str(float(x)))


def _sqrt_frac(x):
    """Exact square root of a rational if it exists, else a float."""
    num, den = x.numerator, x.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return math.sqrt(num / den)


@dataclass(frozen=True)
class RRWParams:
    """Reflecting-random-walk step law: P(U=1)=p, P(U=-1)=q, P(U=0)=r.

    `pprime` is P(V=1), used only in the boundary case r=0; then
    q' = p + q - p' is implied.
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
        return RRWParams(p, q, r, pp)

    @property
    def qprime(self):
        return self.p + self.q - self.pprime if self.pprime is not None else self.q

    @property
    def rho2(self):
        if self.r > 0:
            return (self.p / self.q) ** 2
        return self.p * self.pprime / (self.q * self.qprime)


@dataclass
class JointTable:
    """Finite joint law over (y, v) cells, probabilities exact rationals."""

    cells: dict          # (y, v) -> Fraction
    tail: Fraction

    def marginals(self):
        my, mv = {}, {}
        for (y, v), w in self.cells.items():
            my[y] = my.get(y, Fraction(0)) + w
            mv[v] = mv.get(v, Fraction(0)) + w
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


def rrw_forced_table(params, box=200):
    """Exact rational pmf of the forced law on {0..box}, plus tail mass."""
    pmf = {}
    if params.r > 0:
        theta = params.p / params.q
        for k in range(box + 1):
            pmf[k] = (1 - theta) * theta ** k
        tail = theta ** (box + 1)
        return pmf, tail
    rho2 = params.rho2
    peven, podd = params.qprime, params.pprime
    for k in range(box + 1):
        w = podd if k % 2 == 1 else peven
        pmf[k] = w * (1 - rho2) * rho2 ** (k // 2)
    return pmf, 1 - sum(pmf.values())


# ---------------------------------------------------------------------------
# joint law and independence defect
# ---------------------------------------------------------------------------

def _noise_cells(params):
    cells = [(1, params.p), (-1, params.q)]
    if params.r > 0:
        cells.append((0, params.r))
    return cells


def rrw_joint_table(law_x, params):
    """Exact joint law of (Y, V) = H(X, U) under the catalog's reflecting_rw.

    `law_x` is a dict {state: Fraction} (mass may be < 1; the deficit is
    carried as tail) or a FiniteTable, which is converted.
    """
    if isinstance(law_x, FiniteTable):
        law_x = {int(k): _frac(p) for k, p in zip(law_x.support, law_x.probs)}
    cells = pushforward(catalog_get("reflecting_rw"), law_x.items(),
                        _noise_cells(params))
    return JointTable(cells=cells, tail=1 - sum(law_x.values(), Fraction(0)))


def product_defect_tv(joint):
    """Exact TV distance between the joint and the product of its marginals."""
    my, mv = joint.marginals()
    mass = sum(joint.cells.values())
    if mass == 0:
        return 0.0
    acc = Fraction(0)
    for y in my:
        for v in mv:
            w = joint.cells.get((y, v), Fraction(0))
            acc += abs(w - my[y] * mv[v] / mass)
    return float(acc / 2)


# ---------------------------------------------------------------------------
# proof identities
# ---------------------------------------------------------------------------

def rrw_verify_proof_identities(law_x, params, joint, tol=1e-12):
    """Residuals of the event identities that drive the characterization proof.

    `joint` is `rrw_joint_table(law_x, params)`. Checks, with Y=(X+U)^+ and
    V the co-driver and all quantities computed exactly from the joint table:
      boundary      P(X=0) q  = P(Y=0) q'
      zero-step     P(X=k) r  = P(Y=k) P(V=0)
      down-up       P(X=k+1) q = P(Y=k) p'
      up-down       P(X=k) p  = P(Y=k+1) q'
      total-up      p' = P(X>=1) q
      parity sums   P(X odd) q = P(Y even) p',  P(X even) p = P(Y odd) q'
      balance       P(X odd) + q = P(Y even) + p'
      parity mass   P(Y even) = q   (case r=0)
    and, in the collapsing cases, exact equality of the (X,U) and (Y,V)
    joint tables.
    """
    if isinstance(law_x, FiniteTable):
        law_x = {int(k): _frac(p) for k, p in zip(law_x.support, law_x.probs)}
    my, mv = joint.marginals()
    pX = lambda k: law_x.get(k, Fraction(0))
    pY = lambda k: my.get(k, Fraction(0))
    pprime = mv.get(1, Fraction(0))
    qprime = mv.get(-1, Fraction(0))
    v0 = mv.get(0, Fraction(0))
    states = sorted(law_x)
    kmax = states[-1]

    residuals = {}
    residuals["boundary"] = float(abs(pX(0) * params.q - pY(0) * qprime))
    residuals["zero_step"] = float(max(
        (abs(pX(k) * params.r - pY(k) * v0) for k in range(kmax)), default=0.0))
    residuals["down_up"] = float(max(
        abs(pX(k + 1) * params.q - pY(k) * pprime) for k in range(kmax - 1)))
    residuals["up_down"] = float(max(
        abs(pX(k) * params.p - pY(k + 1) * qprime) for k in range(kmax - 1)))
    mass_x = sum(law_x.values())
    residuals["total_up"] = float(abs(pprime - (mass_x - pX(0)) * params.q))

    if params.r == 0:
        # the parity identities are derived under p + q = 1
        x_odd = sum(w for k, w in law_x.items() if k % 2 == 1)
        x_even = mass_x - x_odd
        y_odd = sum(w for k, w in my.items() if k % 2 == 1)
        y_even = sum(my.values()) - y_odd
        residuals["parity_down"] = float(abs(x_odd * params.q - y_even * pprime))
        residuals["parity_up"] = float(abs(x_even * params.p - y_odd * qprime))
        residuals["parity_balance"] = float(
            abs((x_odd + params.q) - (y_even + pprime)))
        residuals["y_even_mass"] = float(abs(y_even - params.q))
        residuals["x_odd_mass"] = float(abs(x_odd - params.pprime))

    # (X,U) d= (Y,V) whenever the law collapses to the plain geometric
    identity_exact = None
    if params.r > 0 or params.pprime == params.p:
        xu = {}
        for x, px in law_x.items():
            for u, pu in _noise_cells(params):
                xu[(x, u)] = px * pu
        diff = Fraction(0)
        for key in set(xu) | set(joint.cells):
            diff += abs(xu.get(key, Fraction(0))
                        - joint.cells.get(key, Fraction(0)))
        # boundary cells at the truncation edge contribute O(tail)
        identity_exact = float(diff / 2)
        residuals["xu_yv_identity"] = identity_exact

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


def perturbed_tables(params, box=200, eps=Fraction(1, 1000)):
    """Forced law with mass eps moved between adjacent states.

    The structured deviation family used to show that independence pins the
    law: every member must produce a visible product defect.
    """
    base, _ = rrw_forced_table(params, box=box)
    moves = [(0, 1), (1, 0), (1, 2)]
    out = []
    for a, b in moves:
        t = dict(base)
        delta = min(eps, t[a])
        t[a] -= delta
        t[b] += delta
        out.append(((a, b), t))
    return out


# ---------------------------------------------------------------------------
# ultra-discrete KdV pushforward
# ---------------------------------------------------------------------------

def kdv_pushforward_tv(theta, ell, variant, u_truncation=60, max_tail=1e-9):
    """Exact TV between H#(mu (x) nu) and mu (x) nu on the truncated grid.

    mu is the theta-geometric law on {-ell..ell}, nu its one-sided analogue
    truncated at u_truncation M; the dropped noise tail theta^(M+1+ell) is
    returned as the analytic bound. Variant "g1" preserves the product law
    (tv is tail-sized); "g2" does not (a witness cell is recorded).
    """
    theta = _frac(theta)
    if not 0 < theta < 1:
        raise LawError("theta must lie in (0,1)")
    if ell <= 0 or ell % 2 != 0:
        raise LawError("ell must be a positive even integer")
    if variant not in ("g1", "g2"):
        raise LawError("variant must be 'g1' or 'g2'")
    M = int(u_truncation)
    tail_bound = theta ** (M + 1 + ell)
    if float(tail_bound) > max_tail:
        raise LawError(f"u_truncation={M} leaves tail {float(tail_bound)} > {max_tail}")

    z_mu = sum(theta ** i for i in range(-ell, ell + 1))
    z_nu = theta ** (-ell) / (1 - theta)
    mu = {x: theta ** x / z_mu for x in range(-ell, ell + 1)}
    nu = {u: theta ** u / z_nu for u in range(-ell, M + 1)}
    push = pushforward(catalog_get("kdv_" + variant), mu.items(), nu.items())

    product = {(x, u): px * pu for x, px in mu.items() for u, pu in nu.items()}
    diff = Fraction(0)
    witness, witness_gap = None, Fraction(0)
    for key in set(push) | set(product):
        gap = abs(push.get(key, Fraction(0)) - product.get(key, Fraction(0)))
        diff += gap
        if gap > witness_gap:
            witness_gap, witness = gap, key
    tv = diff / 2
    return float(tv), float(tail_bound), witness
