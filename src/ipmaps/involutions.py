"""Catalog of concrete involutions H=(f,g) on product spaces.

Each catalog entry is an `InvolutionPair` whose components accept scalars or
numpy arrays elementwise (matrix-valued maps accept stacks of shape (n, d, d)).
Integer maps use exact integer arithmetic so the involution identity holds
exactly. A batch of points is one `(xs, us)` pair of arrays, with a tuple of
arrays for tuple-valued noise.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from .reports import verdict


class DomainError(ValueError):
    pass


# clamp window for the normal cdf/inverse-cdf pair; inputs outside are
# degenerate and are pinned to the window edge
_PHI_EPS = 1e-15


def phi(z):
    from scipy.special import ndtr
    return ndtr(z)


def phi_inv(u):
    from scipy.special import ndtri
    return ndtri(np.clip(u, _PHI_EPS, 1.0 - _PHI_EPS))


def gaussian_cdf(x, y, beta, sigma):
    """P(Y <= y) for Y ~ N(beta x, sigma^2)."""
    return phi((np.asarray(y, dtype=float)
                - beta * np.asarray(x, dtype=float)) / sigma)


@dataclass(frozen=True)
class SpaceDescriptor:
    """A component space as data. A scalar space is the open interval
    (lo, hi), or the integers in [lo, hi] if `is_integer`; a product space
    is the tuple of its `parts`; an SPD space holds the dim x dim SPD
    matrices. `kind` only names the space."""

    kind: str
    lo: float = -math.inf
    hi: float = math.inf
    is_integer: bool = False
    parts: tuple = ()
    dim: int = 0

    def contains(self, v):
        if self.parts:
            return all(p.contains(c)
                       for p, c in zip(self.parts, v, strict=True))
        if self.dim:
            m = np.asarray(v, dtype=float)
            if m.shape[-2:] != (self.dim, self.dim):
                return False
            if not np.allclose(m, np.swapaxes(m, -1, -2), rtol=0.0,
                               atol=1e-10):
                return False
            return bool(np.all(np.linalg.eigvalsh(m)[..., 0] > 1e-10))
        a = np.asarray(v, dtype=float)
        if self.is_integer:
            # floor(v) == v fails for nan and holds for ±inf, which
            # isfinite rejects: the answer of mod(v, 1) == 0, at a tenth of
            # its cost
            inside = ((np.floor(a) == a) & np.isfinite(a)
                      & (self.lo <= a) & (a <= self.hi))
        else:
            inside = (self.lo < a) & (a < self.hi)
        return bool(np.all(inside))

    def admits(self, law):
        """Whether `law` lives here: discrete exactly on an integer space,
        with its support interval in [lo, hi]; on a product space, a tuple
        of such laws, one per part; on an SPD space, no law."""
        if self.parts:
            return (isinstance(law, tuple) and len(law) == len(self.parts)
                    and all(p.admits(c) for p, c in zip(self.parts, law)))
        return (not self.dim and not isinstance(law, tuple)
                and law.is_discrete == self.is_integer
                and self.lo <= law.support_lo and law.support_hi <= self.hi)


POSITIVE_REAL = SpaceDescriptor("positive_real", 0.0)
UNIT_INTERVAL = SpaceDescriptor("unit_interval", 0.0, 1.0)
REAL_LINE = SpaceDescriptor("real_line")
INTEGERS = SpaceDescriptor("integers", is_integer=True)
NONNEG_INTEGERS = SpaceDescriptor("nonneg_integers", 0, is_integer=True)
THREE_POINT = SpaceDescriptor("three_point", -1, 1, is_integer=True)
BIT = SpaceDescriptor("bit", 0, 1, is_integer=True)
BERNOULLI_CROSS_UNIT = SpaceDescriptor("bernoulli_cross_unit",
                                       parts=(BIT, UNIT_INTERVAL))


def spd(dim):
    return SpaceDescriptor("spd", dim=dim)


# the status of a solve, one per probe
UNIQUE = "unique"
NONUNIQUE = "nonunique"
NOSOLUTION = "nosolution"


@dataclass(frozen=True)
class InvolutionPair:
    """A named map H=(f,g) on x_space x u_space with H o H = identity.

    `solver(x, y)`, None for a map without one, solves y = f(x, u) for u
    on arrays and returns (u, status): status holds UNIQUE, NONUNIQUE or
    NOSOLUTION per entry, and u is meaningful only where it is UNIQUE.
    """

    name: str
    x_space: SpaceDescriptor
    u_space: SpaceDescriptor
    f: callable
    g: callable
    solver: callable = None
    tolerance: float = 1e-9   # of a round trip on real spaces, if not SPD

    def __call__(self, x, u):
        return self.f(x, u), self.g(x, u)


# ---------------------------------------------------------------------------
# scalar maps
# ---------------------------------------------------------------------------

def _my_f(x, u):
    return 1.0 / (x + u)


def _my_g(x, u):
    return 1.0 / x - 1.0 / (x + u)


def _my_solver(x, y):
    return 1.0 / y - x, np.where(x * y >= 1.0, NOSOLUTION, UNIQUE)


def _swapped_my_f(x, u):   # Matsumoto-Yor's g with x and u swapped
    return _my_g(u, x)


def _swapped_my_solver(x, y):
    z = x * y
    u = (np.sqrt(z * (4.0 + z)) - z) / (2.0 * y)
    return u, np.full(np.shape(u), UNIQUE)


def _beta_f(x, u):
    return (1.0 - u) / (1.0 - u * x)


def _beta_g(x, u):
    return 1.0 - u * x


def _beta_solver(x, y):
    u = (1.0 - y) / (1.0 - x * y)
    return u, np.full(np.shape(u), UNIQUE)


def _beta_walk_f(x, u):
    u0, u1 = u
    return (1.0 - u1) * x + u0 * u1


def _beta_walk_g(x, u):
    u0, u1 = u
    v1_swap = u1 * x / (1.0 - x + u1 * x)          # branch for u0 = 0
    v1_keep = u1 * (1.0 - x) / (u1 * (1.0 - x) + x)  # branch for u0 = 1
    u0 = np.asarray(u0)
    return 1 - u0, np.where(u0 == 1, v1_keep, v1_swap)


def _beta_walk_solver(x, y):
    down = y < x
    weight = np.where(down, 1.0 - y / x, (y - x) / (1.0 - x))
    status = np.where(_deviations(x, y, UNIT_INTERVAL) <= 1e-9,
                      NOSOLUTION, UNIQUE)
    return (np.where(down, 0, 1), weight), status


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


def _kdv_solver(x, y):
    # every u >= -x solves f(x,u) = -x
    return y, np.select([y < -x, y == -x], [UNIQUE, NONUNIQUE], NOSOLUTION)


def _rrw_f(x, u):
    return _pos(x + u)


def _rrw_g(x, u):
    return -u - 2 * _neg(x + u)


def _rrw_solver(x, y):
    # f(0,-1) = f(0,0) = 0
    status = np.select([(x == 0) & (y == 0), (y >= 0) & (np.abs(y - x) <= 1)],
                       [NONUNIQUE, UNIQUE], NOSOLUTION)
    return y - x, status


# ---------------------------------------------------------------------------
# SPD maps (quadratic representation P_a(b) = a b a), on stacks (..., d, d)
# ---------------------------------------------------------------------------

def _sym_power(m, p):
    w, q = np.linalg.eigh(m)
    return (q * w[..., None, :] ** p) @ np.swapaxes(q, -1, -2)


def _quad_rep(a, b):
    return a @ b @ a


def _spd_f(x, u):
    eye = np.eye(x.shape[-1])
    return _quad_rep(_sym_power(eye + x, -0.5), u)


def _spd_g(x, u):
    eye = np.eye(x.shape[-1])
    y = _spd_f(x, u)
    return _quad_rep(_sym_power(eye + y, 0.5), x)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def _fixed(x_space, u_space, f, g, solver):
    """Builder of a catalog pair that takes no parameters."""
    def build(name, params):
        if params:
            raise DomainError(f"{name} takes no params, not {params!r}")
        return InvolutionPair(name, x_space, u_space, f, g, solver=solver)
    return build


def _spd_pair(name, params):
    d = params.get("d", 2)
    if set(params) - {"d"} or type(d) is not int or d not in (2, 3):
        raise DomainError("spd_matsumoto_yor takes one param, an integer d"
                          f" in {{2, 3}}, not {params!r}")
    return InvolutionPair(name, spd(d), spd(d), _spd_f, _spd_g)


def _gaussian_pair(name, params):
    if set(params) - {"beta", "sigma"} or any(
            type(v) not in (int, float) or not math.isfinite(v)
            for v in params.values()):
        raise DomainError("gaussian_rosenblatt takes the finite numbers beta"
                          f" and sigma as params, not {params!r}")
    beta, sigma = float(params["beta"]), float(params["sigma"])
    if not abs(beta) < 1.0:
        raise DomainError("gaussian_rosenblatt requires |beta| < 1")
    if sigma <= 0.0:
        raise DomainError("gaussian_rosenblatt requires sigma > 0")

    def f(x, u):
        return beta * x + sigma * phi_inv(u)

    def g(x, u):
        return phi((1.0 - beta * beta) * x / sigma - beta * phi_inv(u))

    def solver(x, y):
        u = gaussian_cdf(x, y, beta, sigma)
        return u, np.full(np.shape(u), UNIQUE)

    return InvolutionPair(name, REAL_LINE, UNIT_INTERVAL, f, g, solver, 1e-8)


# name -> builder(name, params) of every catalog map; kdv_g1 and kdv_g2
# share f and so its solver
_CATALOG = {
    "matsumoto_yor": _fixed(POSITIVE_REAL, POSITIVE_REAL, _my_f, _my_g,
                            _my_solver),
    # its g is the plain Matsumoto-Yor f: both are 1/(x+u)
    "swapped_matsumoto_yor": _fixed(POSITIVE_REAL, POSITIVE_REAL,
                                    _swapped_my_f, _my_f, _swapped_my_solver),
    "spd_matsumoto_yor": _spd_pair,
    "kdv_g1": _fixed(INTEGERS, INTEGERS, _kdv_f, _kdv_g1, _kdv_solver),
    "kdv_g2": _fixed(INTEGERS, INTEGERS, _kdv_f, _kdv_g2, _kdv_solver),
    "beta_map": _fixed(UNIT_INTERVAL, UNIT_INTERVAL, _beta_f, _beta_g,
                       _beta_solver),
    "beta_walk": _fixed(UNIT_INTERVAL, BERNOULLI_CROSS_UNIT,
                        _beta_walk_f, _beta_walk_g, _beta_walk_solver),
    "reflecting_rw": _fixed(NONNEG_INTEGERS, THREE_POINT, _rrw_f, _rrw_g,
                            _rrw_solver),
    "gaussian_rosenblatt": _gaussian_pair,
}
CATALOG_NAMES = tuple(_CATALOG)


def catalog_get(name, params=None):
    """Return the named involution pair from the catalog.

    Raises KeyError for an unknown name or a missing parameter, and
    ValueError (DomainError) for a parameter the map does not take, one of
    the wrong type, or one outside the map's domain.
    """
    if name not in _CATALOG:
        raise KeyError(f"unknown involution {name!r}")
    return _CATALOG[name](name, dict(params or {}))


def _space_samples(space, n, gen):
    """Draw n probe values from a component space, one batch per part of a
    product space."""
    if space.parts:
        return tuple(_space_samples(p, n, gen) for p in space.parts)
    if space.dim:
        a = gen.normal(0.0, 1.0, (n, space.dim, space.dim))
        return a @ np.swapaxes(a, -1, -2) + 0.1 * np.eye(space.dim)
    lo, hi = space.lo, space.hi
    if space.is_integer:   # bounded: a map with unbounded ones takes the grid
        return gen.integers(lo, hi + 1, n)
    if math.isfinite(lo) and math.isfinite(hi):
        return gen.uniform(lo + 1e-6, hi - 1e-6, n)
    # on the line, std 1 keeps the Gaussian map's cdf arguments away from
    # the floating-point saturation of ndtr, so round trips stay invertible
    a = gen.normal(0.0, 1.0, n)
    if math.isfinite(lo):   # lo + exp(a), in place
        np.exp(a, out=a)
        a += lo
    return a


def sample_points(pair, n, rng, box=20, lazy=False):
    """One batch (xs, us) of probe points for round-trip checks.

    Integer-by-integer maps get the exhaustive grid {-box..box}^2 clipped
    to [lo, hi] of each space; every other map gets n draws from each
    space, SPD maps as stacks of shape (n, d, d). With `lazy`, it is
    (xs, us, draw), the last part of us left to draw(s), which fills the
    slices s of `blocks`, in order, with the bits of one whole draw.
    """
    spaces = pair.x_space, pair.u_space
    if all(s.is_integer for s in spaces):
        xg, ug = np.meshgrid(*(np.arange(max(s.lo, -box), min(s.hi, box) + 1)
                               for s in spaces))
        return (xg.ravel(), ug.ravel()) + ((None,) if lazy else ())
    if not lazy:
        return tuple(_space_samples(s, n, rng.gen) for s in spaces)
    *head, last = pair.u_space.parts or (pair.u_space,)
    xs, *us = [_space_samples(s, n, rng.gen) for s in (pair.x_space, *head)]
    us.append(np.empty((n, last.dim, last.dim) if last.dim else n,
                       int if last.is_integer else float))

    def draw(s):
        us[-1][s] = _space_samples(last, len(us[-1][s]), rng.gen)

    return xs, tuple(us) if pair.u_space.parts else us[0], draw


def batch_item(v, i):
    """Entry i of a batch component as plain Python values: nested lists
    for a matrix, a tuple for tuple-valued noise."""
    if isinstance(v, tuple):
        return tuple(batch_item(c, i) for c in v)
    return np.asarray(v)[i].tolist()


# points per block of a pointwise step: a batch's temporaries are a block's
BLOCK = 1 << 16


def blocks(n, size=BLOCK):
    return (slice(i, i + size) for i in range(0, n, size))


def usable_cores():
    """The number of cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def concurrently(n, *calls):
    """The results of `calls`, functions of no argument that work on n
    points together: the last here and each other one on a thread of its
    own, all joined before the first call's error is raised; or in the
    listed order, for at most one block or a process held to one core, so
    a call that waits on another must come after it. A helper's freed
    n-point array stays cached in its malloc arena, so the calls fill, or
    sort in place, arrays made on this thread, with a block's temporaries."""
    if len(calls) < 2 or n <= BLOCK or usable_cores() < 2:
        return [call() for call in calls]
    import threading

    results, errors = [None] * len(calls), [None] * len(calls)

    def run(i):
        try:
            results[i] = calls[i]()
        except BaseException as error:   # raised on the calling thread
            errors[i] = error

    threads = []
    try:
        for i in range(len(calls) - 1):
            thread = threading.Thread(target=run, args=(i,))
            thread.start()
            threads.append(thread)
        run(len(calls) - 1)
    finally:
        for thread in threads:
            thread.join()
    for error in filter(None, errors):
        raise error
    return results


def deal(work, n, size=BLOCK, draw=None):
    """[work(b) for b in blocks(n, size)], one thread taking blocks from
    each end; with `draw`, the first thread calls draw(b) on every block in
    order first, and the other works each block once it is drawn."""
    spans = list(blocks(n, size))
    if len(spans) < 2 and not draw:
        return [work(b) for b in spans]
    import threading
    done, left = [None] * len(spans), list(range(len(spans)))
    # a token per drawn block, and one more once the draw is over
    ready = threading.Semaphore(0 if draw else len(spans) + 1)

    def take(pop, wait):   # work blocks from one end until none is left
        while wait():
            try:
                i = pop()
            except IndexError:
                return
            done[i] = work(spans[i])

    def first():
        try:
            for b in spans if draw else ():
                draw(b)
                ready.release()
        except BaseException:   # leave the other thread no block to wait on
            left.clear()
            raise
        finally:
            ready.release()
        take(left.pop, lambda: True)

    concurrently(n, first, partial(take, partial(left.pop, 0), ready.acquire))
    return done


def batch_slice(v, s):
    return tuple(batch_slice(c, s) for c in v) if isinstance(v, tuple) else v[s]


def map_blocks(h, xs, us, into):
    """h(xs, us) made a block at a time: a list of one array per part of its
    value, each of its first block's dtype, written over into[i], an array
    that nothing reads after h, where the dtypes agree (h is pointwise).
    The first quarter block is made, and the output allocated, on this
    thread; the other quarter blocks are dealt (`deal`), so that the two in
    flight hold the temporaries of half a block."""
    out = None

    def fill(s):
        nonlocal out
        parts = h(xs[s], batch_slice(us, s))
        parts = parts if isinstance(parts, tuple) else (parts,)
        out = out or [a if a.dtype == p.dtype else np.empty(len(xs), p.dtype)
                      for p, a in zip(parts, into)]
        for o, p in zip(out, parts):
            o[s] = p
        del parts, p   # free this block before h makes the next

    fill(slice(0, BLOCK // 4))
    deal(lambda s: s.start and fill(s), len(xs), BLOCK // 4)
    return out


# ---------------------------------------------------------------------------
# round-trip checking
# ---------------------------------------------------------------------------

def _deviations(a, b, space):
    """Per-point deviation between two batches of one component space:
    Frobenius norm for matrices, absolute for integers, else relative; a
    product's is the largest over its parts."""
    if space.parts:
        return np.max([_deviations(*p) for p in zip(a, b, space.parts)], 0)
    if space.dim:
        return np.linalg.norm(a - b, axis=(-2, -1))
    if space.is_integer:
        return np.abs(a - b)
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)


def involution_tolerance(pair):
    if pair.x_space.dim:
        return 1e-7
    if pair.x_space.is_integer and pair.u_space.is_integer:
        return 0.0
    return pair.tolerance


def check_involution(pair, xs, us, tol=None, draw=None):
    """Verify H(H(x,u)) == (x,u) on one batch of points, quarter blocks
    dealt to two threads (`deal`, given the `draw` of a lazy
    `sample_points`), whose round trips are its only temporaries. A
    deviation that is nan fails the check; a failing report names the probe
    with the first nan if there is one, else the first largest."""
    if tol is None:
        tol = involution_tolerance(pair)
    space = SpaceDescriptor("pair", parts=(pair.x_space, pair.u_space))

    def worst(s):   # (index, deviation) of a quarter block's worst probe
        x, u = xs[s], batch_slice(us, s)
        dev = _deviations(pair(*pair(x, u)), (x, u), space)
        k = int(np.argmax(dev))   # its first nan, else its first largest
        return s.start + k, dev[k]

    found = deal(worst, len(xs), BLOCK // 4, draw)
    devs = np.array([d for _, d in found])
    max_dev = float(devs.max(initial=0.0))   # an empty batch passes
    passed = max_dev <= tol
    worst = None
    if not passed:
        k = found[int(np.argmax(devs))][0]
        worst = repr((batch_item(xs, k), batch_item(us, k)))
    return verdict(f"involution:{pair.name}", passed=passed,
                   max_deviation=max_dev, tolerance=tol, n_points=len(xs),
                   worst_point=worst)
