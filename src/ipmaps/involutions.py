"""Catalog of concrete involutions H=(f,g) on product spaces.

Each catalog entry is an `InvolutionPair` whose components accept scalars or
numpy arrays elementwise (matrix-valued maps accept single matrices). Integer
maps use exact integer arithmetic so the involution identity holds exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .reports import VerificationReport


class DomainError(ValueError):
    pass


# clamp window for the normal cdf/inverse-cdf pair; inputs outside are
# degenerate and are pinned to the window edge
_PHI_EPS = 1e-15


def phi(z):
    return special.ndtr(z)


def phi_inv(u):
    return special.ndtri(np.clip(u, _PHI_EPS, 1.0 - _PHI_EPS))


@dataclass(frozen=True)
class SpaceDescriptor:
    """Decidable membership predicate for a component space."""

    kind: str
    dim: int = 0  # SPD dimension, when kind == "spd"

    def contains(self, v, tol=1e-10):
        k = self.kind
        if k == "positive_real":
            return bool(np.all(np.asarray(v, dtype=float) > 0.0))
        if k == "unit_interval":
            a = np.asarray(v, dtype=float)
            return bool(np.all((a > 0.0) & (a < 1.0)))
        if k == "real_line":
            return bool(np.all(np.isfinite(np.asarray(v, dtype=float))))
        if k == "integers":
            a = np.asarray(v)
            return bool(np.all(np.equal(np.mod(a, 1), 0)))
        if k == "nonneg_integers":
            a = np.asarray(v)
            return bool(np.all(np.equal(np.mod(a, 1), 0)) and np.all(a >= 0))
        if k == "three_point":
            a = np.asarray(v)
            return bool(np.all(np.isin(a, (-1, 0, 1))))
        if k == "bernoulli_cross_unit":
            b, w = v
            bs = np.asarray(b)
            ws = np.asarray(w, dtype=float)
            return bool(np.all(np.isin(bs, (0, 1)))
                        and np.all((ws > 0.0) & (ws < 1.0)))
        if k == "spd":
            m = np.asarray(v, dtype=float)
            if m.shape != (self.dim, self.dim):
                return False
            if not np.allclose(m, m.T, atol=tol):
                return False
            return bool(np.linalg.eigvalsh(m)[0] > tol)
        raise ValueError(f"unknown space kind {k!r}")

    @property
    def is_integer(self):
        return self.kind in ("integers", "nonneg_integers", "three_point")


POSITIVE_REAL = SpaceDescriptor("positive_real")
UNIT_INTERVAL = SpaceDescriptor("unit_interval")
REAL_LINE = SpaceDescriptor("real_line")
INTEGERS = SpaceDescriptor("integers")
NONNEG_INTEGERS = SpaceDescriptor("nonneg_integers")
THREE_POINT = SpaceDescriptor("three_point")
BERNOULLI_CROSS_UNIT = SpaceDescriptor("bernoulli_cross_unit")


def spd(dim):
    return SpaceDescriptor("spd", dim=dim)


@dataclass(frozen=True)
class InvolutionPair:
    """A named map H=(f,g) on x_space x u_space with H o H = identity."""

    name: str
    x_space: SpaceDescriptor
    u_space: SpaceDescriptor
    f: callable
    g: callable
    params: dict = field(default_factory=dict)

    def __call__(self, x, u):
        return self.f(x, u), self.g(x, u)


def apply(pair, x, u):
    """Evaluate (y,v) = H(x,u), validating outputs for non-vector inputs."""
    y, v = pair.f(x, u), pair.g(x, u)
    if pair.x_space.kind == "spd" and not pair.x_space.contains(y, tol=1e-10):
        raise DomainError(f"{pair.name}: output left the SPD cone")
    if pair.u_space.kind == "spd" and not pair.u_space.contains(v, tol=1e-10):
        raise DomainError(f"{pair.name}: co-output left the SPD cone")
    return y, v


# ---------------------------------------------------------------------------
# scalar maps
# ---------------------------------------------------------------------------

def _my_f(x, u):
    return 1.0 / (x + u)


def _my_g(x, u):
    return 1.0 / x - 1.0 / (x + u)


def _swapped_my_f(x, u):
    return 1.0 / u - 1.0 / (x + u)


def _beta_f(x, u):
    return (1.0 - u) / (1.0 - u * x)


def _beta_g(x, u):
    return 1.0 - u * x


def _beta_walk_f(x, u):
    u0, u1 = u
    return (1.0 - u1) * x + u0 * u1


def _beta_walk_g(x, u):
    u0, u1 = u
    v1_swap = u1 * x / (1.0 - x + u1 * x)          # branch for u0 = 0
    v1_keep = u1 * (1.0 - x) / (u1 * (1.0 - x) + x)  # branch for u0 = 1
    one = np.asarray(u0) == 1
    v0 = 1 - np.asarray(u0)
    v1 = np.where(one, v1_keep, v1_swap)
    if np.ndim(u0) == 0:
        return int(v0), float(v1)
    return v0, v1


def _pos(n):
    return np.maximum(n, 0)


def _neg(n):
    return np.maximum(-n, 0)


def _kdv_f(x, u):
    return np.minimum(u, -x)


def _kdv_g1(x, u):
    return x + _pos(x + u)


def _kdv_g2(x, u):
    m = _pos(x + u)
    # h(m) = m - (-1)^m + 1{m=0}: swaps 1<->2, 3<->4, ... and fixes 0
    h = np.where(m == 0, 0, np.where(m % 2 == 0, m - 1, m + 1))
    return x + h


def _rrw_f(x, u):
    return _pos(x + u)


def _rrw_g(x, u):
    return -u - 2 * _neg(x + u)


# ---------------------------------------------------------------------------
# SPD maps (quadratic representation P_a(b) = a b a)
# ---------------------------------------------------------------------------

def _sym_power(m, p):
    w, q = np.linalg.eigh(m)
    return (q * w ** p) @ q.T


def _quad_rep(a, b):
    return a @ b @ a


def _spd_f(x, u):
    eye = np.eye(x.shape[0])
    return _quad_rep(_sym_power(eye + x, -0.5), u)


def _spd_g(x, u):
    eye = np.eye(x.shape[0])
    y = _spd_f(x, u)
    return _quad_rep(_sym_power(eye + y, 0.5), x)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def _gaussian_pair(beta, sigma):
    if not abs(beta) < 1.0:
        raise DomainError("gaussian_rosenblatt requires |beta| < 1")
    if sigma <= 0.0:
        raise DomainError("gaussian_rosenblatt requires sigma > 0")

    def f(x, u):
        return beta * x + sigma * phi_inv(u)

    def g(x, u):
        return phi((1.0 - beta * beta) * x / sigma - beta * phi_inv(u))

    return InvolutionPair("gaussian_rosenblatt", REAL_LINE, UNIT_INTERVAL,
                          f, g, {"beta": beta, "sigma": sigma})


def catalog_get(name, params=None):
    """Return the named involution pair from the catalog."""
    params = dict(params or {})
    if name == "matsumoto_yor":
        return InvolutionPair(name, POSITIVE_REAL, POSITIVE_REAL, _my_f, _my_g)
    if name == "swapped_matsumoto_yor":
        # its g is the plain Matsumoto-Yor f: both are 1/(x+u)
        return InvolutionPair(name, POSITIVE_REAL, POSITIVE_REAL,
                              _swapped_my_f, _my_f)
    if name == "spd_matsumoto_yor":
        d = int(params.get("d", 2))
        if d not in (2, 3):
            raise DomainError("spd_matsumoto_yor supports d in {2, 3}")
        return InvolutionPair(name, spd(d), spd(d), _spd_f, _spd_g, {"d": d})
    if name == "kdv_g1":
        return InvolutionPair(name, INTEGERS, INTEGERS, _kdv_f, _kdv_g1)
    if name == "kdv_g2":
        return InvolutionPair(name, INTEGERS, INTEGERS, _kdv_f, _kdv_g2)
    if name == "beta_map":
        return InvolutionPair(name, UNIT_INTERVAL, UNIT_INTERVAL,
                              _beta_f, _beta_g)
    if name == "beta_walk":
        return InvolutionPair(name, UNIT_INTERVAL, BERNOULLI_CROSS_UNIT,
                              _beta_walk_f, _beta_walk_g)
    if name == "reflecting_rw":
        return InvolutionPair(name, NONNEG_INTEGERS, THREE_POINT,
                              _rrw_f, _rrw_g)
    if name == "gaussian_rosenblatt":
        return _gaussian_pair(float(params["beta"]), float(params["sigma"]))
    raise KeyError(f"unknown involution {name!r}")


CATALOG_NAMES = (
    "matsumoto_yor", "swapped_matsumoto_yor", "spd_matsumoto_yor",
    "kdv_g1", "kdv_g2", "beta_map", "beta_walk", "reflecting_rw",
    "gaussian_rosenblatt",
)


def _space_samples(space, n, gen):
    """Draw n probe values from a component space."""
    k = space.kind
    if k == "positive_real":
        return np.exp(gen.normal(0.0, 1.0, n))
    if k == "unit_interval":
        return gen.uniform(1e-6, 1.0 - 1e-6, n)
    if k == "real_line":
        # std 1 keeps the Gaussian map's cdf arguments away from the
        # floating-point saturation of ndtr, so round trips stay invertible
        return gen.normal(0.0, 1.0, n)
    if k == "nonneg_integers":
        return gen.integers(0, 41, n)
    if k == "integers":
        return gen.integers(-20, 21, n)
    if k == "three_point":
        return gen.choice(np.array([-1, 0, 1]), n)
    if k == "bernoulli_cross_unit":
        return (gen.integers(0, 2, n), gen.uniform(1e-6, 1.0 - 1e-6, n))
    if k == "spd":
        d = space.dim
        out = []
        for _ in range(n):
            a = gen.normal(0.0, 1.0, (d, d))
            out.append(a @ a.T + 0.1 * np.eye(d))
        return out
    raise ValueError(f"cannot sample from space kind {k!r}")


def sample_points(pair, n, rng, box=20):
    """Probe points for round-trip checks.

    Integer-by-integer maps get the exhaustive grid {-box..box}^2 (clipped
    to the space); elementwise maps get one vectorized (x, u) batch; SPD
    maps get a list of matrix pairs. Only `pair.x_space` and `pair.u_space`
    are read, so an FSpec serves as well.
    """
    if pair.x_space.is_integer and pair.u_space.is_integer:
        if pair.x_space.kind == "nonneg_integers":
            xs = np.arange(0, box + 1)
        else:
            xs = np.arange(-box, box + 1)
        if pair.u_space.kind == "three_point":
            us = np.array([-1, 0, 1])
        else:
            us = np.arange(-box, box + 1)
        xg, ug = np.meshgrid(xs, us)
        return [(xg.ravel(), ug.ravel())]
    gen = rng.gen
    if pair.x_space.kind == "spd":
        xs = _space_samples(pair.x_space, n, gen)
        us = _space_samples(pair.u_space, n, gen)
        return list(zip(xs, us))
    return [(_space_samples(pair.x_space, n, gen),
             _space_samples(pair.u_space, n, gen))]


# ---------------------------------------------------------------------------
# round-trip checking
# ---------------------------------------------------------------------------

def _component_dev(a, b, space):
    """Deviation between two points of one component space."""
    if space.kind == "spd":
        return float(np.linalg.norm(np.asarray(a) - np.asarray(b)))
    if space.kind == "bernoulli_cross_unit":
        d0 = np.max(np.abs(np.asarray(a[0]) - np.asarray(b[0])))
        d1 = _rel_dev(np.asarray(a[1], dtype=float), np.asarray(b[1], dtype=float))
        return float(max(d0, d1))
    if space.is_integer:
        return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))
    return _rel_dev(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


def _rel_dev(a, b):
    scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / scale))


def involution_tolerance(pair):
    if pair.x_space.kind == "spd":
        return 1e-7
    if pair.x_space.is_integer and pair.u_space.is_integer:
        return 0.0
    if pair.name == "gaussian_rosenblatt":
        return 1e-8
    return 1e-9


def check_involution(pair, points, tol=None):
    """Verify apply(apply(x,u)) == (x,u) on the given points.

    `points` is a list of (x,u) pairs; for elementwise maps a single
    (x_array, u_array) entry checks all array slots at once.
    """
    if tol is None:
        tol = involution_tolerance(pair)
    max_dev = 0.0
    worst = None
    n_points = 0
    for x, u in points:
        if pair.x_space.kind == "spd":
            n_points += 1
        else:
            n_points += int(np.size(x[0] if isinstance(x, tuple) else x))
        y, v = pair.f(x, u), pair.g(x, u)
        x2, u2 = pair.f(y, v), pair.g(y, v)
        dev = max(_component_dev(x2, x, pair.x_space),
                  _component_dev(u2, u, pair.u_space))
        if dev > max_dev:
            max_dev = dev
            worst = (x, u) if np.ndim(x) == 0 else None
    return VerificationReport(
        name=f"involution:{pair.name}",
        passed=max_dev <= tol,
        details={
            "max_deviation": max_dev,
            "tolerance": tol,
            "n_points": n_points,
            "worst_point": repr(worst) if worst is not None else None,
        },
    )
