"""Construction of involutive augmentations from an f-specification.

An f-specification is a catalog f: X x U -> X together with its closed-form
solver sigma for u in y = f(x,u). The unique co-map g_f(x,u) =
sigma(f(x,u), x) is built wherever the solution is unique, and g_f = u on
the fixed-point set. Hypotheses (symmetry of the accessible set, uniqueness
off the diagonal) are verified pointwise on probes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .involutions import (
    UNIT_INTERVAL, InvolutionPair, SpaceDescriptor, catalog_get,
    check_involution,
)
from .reports import VerificationReport
from .skorokhod import gaussian_cdf

UNIQUE = "unique"
NONUNIQUE = "nonunique"
NOSOLUTION = "nosolution"


@dataclass(frozen=True)
class SolveResult:
    kind: str
    u: object = None

    @property
    def is_unique(self):
        return self.kind == UNIQUE


def unique(u):
    return SolveResult(UNIQUE, u)


NON_UNIQUE = SolveResult(NONUNIQUE)
NO_SOLUTION = SolveResult(NOSOLUTION)


class AugmentationError(ValueError):
    pass


@dataclass(frozen=True)
class FSpec:
    """A catalog f together with its closed-form u-solver.

    `solver(x, y)` solves y = f(x, u) for u and returns a SolveResult:
    unique(u), NON_UNIQUE or NO_SOLUTION.
    """

    name: str
    x_space: SpaceDescriptor
    u_space: SpaceDescriptor
    f: callable
    solver: callable


def _values_close(a, b, space):
    if space.is_integer:
        return a == b
    scale = max(1.0, abs(a), abs(b))
    return abs(a - b) <= 1e-9 * scale


def augment(spec, probes=None):
    """Build the involutive augmentation (f, g_f) of the f-specification.

    If probes are given, the hypotheses and the round trip H(H(x,u)) =
    (x,u) are verified on them first; a violation aborts with a witness.
    """

    def g_f(x, u):
        y = spec.f(x, u)
        if not spec.solver(x, y).is_unique:
            return u
        back = spec.solver(y, x)
        if not back.is_unique:
            raise AugmentationError(
                f"{spec.name}: accessible-set symmetry fails at "
                f"(x={x!r}, u={u!r}): solve({y!r}, {x!r}) -> {back.kind}")
        return back.u

    pair = InvolutionPair(f"augmented:{spec.name}", spec.x_space,
                          spec.u_space, spec.f, g_f)
    if probes is not None:
        report = verify_hypotheses(spec, probes)
        if not report.passed:
            raise AugmentationError(
                f"{spec.name}: hypotheses violated: {report.details['violations'][:1]}")
        round_trip = check_involution(pair, probes)
        if not round_trip.passed:
            raise AugmentationError(
                f"{spec.name}: round trip fails at "
                f"{round_trip.details['worst_point']}")
    return pair


def verify_hypotheses(spec, probes):
    """Pointwise check of the augmentation hypotheses on probe pairs.

    For each probe (x,u) with y = f(x,u): (a) (y,x) must be accessible
    (symmetry), and (b) a non-unique solution is allowed only on the
    diagonal y = x.
    """
    violations = []
    for x, u in probes:
        y = spec.f(x, u)
        back = spec.solver(y, x)
        if back.kind == NOSOLUTION:
            violations.append({
                "kind": "symmetry", "x": x, "u": u, "y": y,
                "note": "reverse pair (y,x) is not accessible",
            })
            continue
        fwd = spec.solver(x, y)
        if fwd.kind == NONUNIQUE and not _values_close(y, x, spec.x_space):
            violations.append({
                "kind": "multiplicity", "x": x, "u": u, "y": y,
                "note": "multiple solutions off the diagonal",
            })
    return VerificationReport(
        name=f"hypotheses:{spec.name}",
        passed=not violations,
        details={"n_probes": len(probes), "n_violations": len(violations),
                 "violations": violations[:10]},
    )


# ---------------------------------------------------------------------------
# closed-form f-specifications for the catalog maps
# ---------------------------------------------------------------------------

def _my_solver(x, y):
    if x * y >= 1.0:
        return NO_SOLUTION
    return unique(1.0 / y - x)


def _swapped_my_solver(x, y):
    z = x * y
    return unique((math.sqrt(z * (4.0 + z)) - z) / (2.0 * y))


def _beta_solver(x, y):
    return unique((1.0 - y) / (1.0 - x * y))


def _beta_walk_solver(x, y):
    if _values_close(x, y, UNIT_INTERVAL):
        return NO_SOLUTION
    if y < x:
        return unique((0, 1.0 - y / x))
    return unique((1, (y - x) / (1.0 - x)))


def _rrw_solver(x, y):
    if x == 0 and y == 0:
        return NON_UNIQUE     # f(0,-1) = f(0,0) = 0
    if y >= 0 and abs(y - x) <= 1:
        return unique(y - x)
    return NO_SOLUTION


def _kdv_solver(x, y):
    if y < -x:
        return unique(y)
    if y == -x:
        return NON_UNIQUE     # every u >= -x solves f(x,u) = -x
    return NO_SOLUTION


def _gaussian_solver(x, y, beta, sigma):
    return unique(float(gaussian_cdf(x, y, beta, sigma)))


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
