"""Construction of involutive augmentations from an f-specification.

An f-specification is a catalog f: X x U -> X together with its closed-form
solver sigma for u in y = f(x,u). The unique co-map g_f(x,u) =
sigma(f(x,u), x) is built wherever the solution is unique, and g_f = u on
the fixed-point set. Hypotheses (symmetry of the accessible set, uniqueness
off the diagonal) are verified pointwise on probes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .involutions import (
    UNIT_INTERVAL, InvolutionPair, SpaceDescriptor, catalog_get,
    batch_item, check_involution,
)
from .reports import VerificationReport
from .skorokhod import gaussian_cdf

# the status of a solve, one per probe
UNIQUE = "unique"
NONUNIQUE = "nonunique"
NOSOLUTION = "nosolution"


class AugmentationError(ValueError):
    pass


@dataclass(frozen=True)
class FSpec:
    """A catalog f together with its closed-form u-solver.

    `solver(x, y)` solves y = f(x, u) for u on arrays and returns (u,
    status): status holds UNIQUE, NONUNIQUE or NOSOLUTION per entry, and u
    is meaningful only where the status is UNIQUE.
    """

    name: str
    x_space: SpaceDescriptor
    u_space: SpaceDescriptor
    f: callable
    solver: callable


def _close(a, b, space):
    """Entrywise a == b on integer spaces, else equal to 1e-9 relative."""
    if space.is_integer:
        return a == b
    scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return np.abs(a - b) <= 1e-9 * scale


def augment(spec, probes=None):
    """Build the involutive augmentation (f, g_f) of the f-specification.

    If a probe batch (xs, us) is given, the hypotheses and the round trip
    H(H(x,u)) = (x,u) are verified on it first; a violation aborts with a
    witness.
    """

    def g_f(x, u):
        y = spec.f(x, u)
        _, fwd = spec.solver(x, y)
        back, status = spec.solver(y, x)
        unique = fwd == UNIQUE
        broken = np.flatnonzero(unique & (status != UNIQUE))
        if broken.size:
            i = broken[0]
            xi, ui, yi = (batch_item(v, i) for v in (x, u, y))
            raise AugmentationError(
                f"{spec.name}: accessible-set symmetry fails at "
                f"(x={xi!r}, u={ui!r}): solve({yi!r}, {xi!r}) -> {status[i]}")
        if isinstance(u, tuple):    # beta_walk's (bit, weight) noise
            return tuple(np.where(unique, b, v) for b, v in zip(back, u))
        return np.where(unique, back, u)

    pair = InvolutionPair(f"augmented:{spec.name}", spec.x_space,
                          spec.u_space, spec.f, g_f)
    if probes is not None:
        report = verify_hypotheses(spec, *probes)
        if not report.passed:
            raise AugmentationError(
                f"{spec.name}: hypotheses violated: {report.details['violations'][:1]}")
        round_trip = check_involution(pair, *probes)
        if not round_trip.passed:
            raise AugmentationError(
                f"{spec.name}: round trip fails at "
                f"{round_trip.details['worst_point']}")
    return pair


_NOTES = {"symmetry": "reverse pair (y,x) is not accessible",
          "multiplicity": "multiple solutions off the diagonal"}


def verify_hypotheses(spec, xs, us):
    """Check the augmentation hypotheses on a probe batch.

    For each probe (x,u) with y = f(x,u): (a) (y,x) must be accessible
    (symmetry), and (b) a non-unique solution is allowed only on the
    diagonal y = x. The first 10 violations are listed in probe order.
    """
    ys = spec.f(xs, us)
    _, back = spec.solver(ys, xs)
    _, fwd = spec.solver(xs, ys)
    symmetry = back == NOSOLUTION
    on_diagonal = _close(ys, xs, spec.x_space)
    multiplicity = ~symmetry & (fwd == NONUNIQUE) & ~on_diagonal
    bad = np.flatnonzero(symmetry | multiplicity)
    violations = []
    for i in bad[:10]:
        kind = "symmetry" if symmetry[i] else "multiplicity"
        violations.append({"kind": kind, "x": batch_item(xs, i),
                           "u": batch_item(us, i), "y": batch_item(ys, i),
                           "note": _NOTES[kind]})
    return VerificationReport(
        name=f"hypotheses:{spec.name}",
        passed=bad.size == 0,
        details={"n_probes": len(xs), "n_violations": len(bad),
                 "violations": violations},
    )


# ---------------------------------------------------------------------------
# closed-form f-specifications for the catalog maps, on arrays
# ---------------------------------------------------------------------------

def _my_solver(x, y):
    return 1.0 / y - x, np.where(x * y >= 1.0, NOSOLUTION, UNIQUE)


def _swapped_my_solver(x, y):
    z = x * y
    u = (np.sqrt(z * (4.0 + z)) - z) / (2.0 * y)
    return u, np.full(np.shape(u), UNIQUE)


def _beta_solver(x, y):
    u = (1.0 - y) / (1.0 - x * y)
    return u, np.full(np.shape(u), UNIQUE)


def _beta_walk_solver(x, y):
    down = y < x
    weight = np.where(down, 1.0 - y / x, (y - x) / (1.0 - x))
    status = np.where(_close(x, y, UNIT_INTERVAL), NOSOLUTION, UNIQUE)
    return (np.where(down, 0, 1), weight), status


def _rrw_solver(x, y):
    # f(0,-1) = f(0,0) = 0
    status = np.select([(x == 0) & (y == 0), (y >= 0) & (np.abs(y - x) <= 1)],
                       [NONUNIQUE, UNIQUE], NOSOLUTION)
    return y - x, status


def _kdv_solver(x, y):
    # every u >= -x solves f(x,u) = -x
    return y, np.select([y < -x, y == -x], [UNIQUE, NONUNIQUE], NOSOLUTION)


def _gaussian_solver(x, y, beta, sigma):
    u = gaussian_cdf(x, y, beta, sigma)
    return u, np.full(np.shape(u), UNIQUE)


# closed-form u-solvers of the augmentable catalog maps; "kdv" is the f
# shared by kdv_g1 and kdv_g2
SOLVERS = {
    "matsumoto_yor": _my_solver,
    "swapped_matsumoto_yor": _swapped_my_solver,
    "beta_map": _beta_solver,
    "beta_walk": _beta_walk_solver,
    "reflecting_rw": _rrw_solver,
    "kdv": _kdv_solver,
    "gaussian_rosenblatt": _gaussian_solver,
}


def fspec_for(name, params=None):
    """Closed-form f-specification matching a catalog map's f-component."""
    if name not in SOLVERS:
        raise KeyError(f"no f-specification for {name!r}")
    pair = catalog_get("kdv_g1" if name == "kdv" else name, params)
    return FSpec(name, pair.x_space, pair.u_space, pair.f,
                 functools.partial(SOLVERS[name], **pair.params))
