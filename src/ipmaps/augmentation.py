"""Construction of involutive augmentations from an f-specification.

An f-specification is a catalog pair whose closed-form `solver` sigma
solves y = f(x,u) for u. The unique co-map g_f(x,u) = sigma(f(x,u), x) is
built wherever the solution is unique, and g_f = u on the fixed-point set;
the pair's own g is not read. Hypotheses (symmetry of the accessible set,
uniqueness off the diagonal) are verified pointwise on probes.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .involutions import (
    NONUNIQUE, NOSOLUTION, UNIQUE, _deviations, batch_item, catalog_get,
)
from .reports import verdict


class AugmentationError(ValueError):
    pass


def augment(spec):
    """Build the involutive augmentation (f, g_f) of the f-specification."""

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

    return dataclasses.replace(spec, name=f"augmented:{spec.name}", g=g_f)


_NOTES = {"symmetry": "reverse pair (y,x) is not accessible",
          "multiplicity": "multiple solutions off the diagonal"}


def verify_hypotheses(spec, xs, us):
    """Check the augmentation hypotheses on a probe batch.

    For each probe (x,u) with y = f(x,u): (a) (y,x) must be accessible
    (symmetry), and (b) a non-unique solution is allowed only on the
    diagonal y = x, within the round-trip deviation 1e-9. The first 10
    violations are listed in probe order.
    """
    ys = spec.f(xs, us)
    _, back = spec.solver(ys, xs)
    _, fwd = spec.solver(xs, ys)
    symmetry = back == NOSOLUTION
    on_diagonal = _deviations(ys, xs, spec.x_space) <= 1e-9
    multiplicity = ~symmetry & (fwd == NONUNIQUE) & ~on_diagonal
    bad = np.flatnonzero(symmetry | multiplicity)
    violations = []
    for i in bad[:10]:
        kind = "symmetry" if symmetry[i] else "multiplicity"
        violations.append({"kind": kind, "x": batch_item(xs, i),
                           "u": batch_item(us, i), "y": batch_item(ys, i),
                           "note": _NOTES[kind]})
    return verdict(f"hypotheses:{spec.name}", passed=bad.size == 0,
                   n_probes=len(xs), n_violations=len(bad),
                   violations=violations)


def fspec_for(name, params=None):
    """The catalog pair of a map with a solver, under the name asked for;
    "kdv" names the f that kdv_g1 and kdv_g2 share."""
    pair = catalog_get("kdv_g1" if name == "kdv" else name, params)
    if pair.solver is None:
        raise KeyError(f"no f-specification for {name!r}")
    return dataclasses.replace(pair, name=name)
