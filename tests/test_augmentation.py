"""Tests for building the co-map g_f from an f-specification."""

import numpy as np
import pytest

from ipmaps.augmentation import (
    NONUNIQUE, NOSOLUTION, UNIQUE, AugmentationError, FSpec, augment,
    fspec_for, sigma_solve, verify_hypotheses,
)
from ipmaps.involutions import REAL_LINE, catalog_get, sample_points
from ipmaps.rng import RandomStream


# ---------------------------------------------------------------------------
# sigma_solve
# ---------------------------------------------------------------------------

def test_my_solver_unique():
    spec = fspec_for("matsumoto_yor")
    res = sigma_solve(spec, 1.0, 0.5)
    assert res.kind == UNIQUE
    assert res.u == pytest.approx(1.0, abs=1e-12)


def test_my_solver_no_solution_outside_accessible_set():
    spec = fspec_for("matsumoto_yor")
    assert sigma_solve(spec, 1.0, 2.0).kind == NOSOLUTION


def test_rrw_solver_nonunique_at_origin():
    spec = fspec_for("reflecting_rw")
    assert sigma_solve(spec, 0, 0).kind == NONUNIQUE
    assert sigma_solve(spec, 1, 2).u == 1
    assert sigma_solve(spec, 1, 3).kind == NOSOLUTION


def test_solver_consistency_with_f():
    # whenever the solver is unique, f(x, u) must reproduce y
    gen = RandomStream(41).gen
    for name in ("matsumoto_yor", "swapped_matsumoto_yor", "beta_map"):
        spec = fspec_for(name)
        for _ in range(200):
            x = float(np.exp(gen.normal())) if name != "beta_map" \
                else float(gen.uniform(0.01, 0.99))
            y = float(np.exp(gen.normal())) if name != "beta_map" \
                else float(gen.uniform(0.01, 0.99))
            res = sigma_solve(spec, x, y)
            if res.kind == UNIQUE:
                assert spec.f(x, res.u) == pytest.approx(y, rel=1e-9)


# ---------------------------------------------------------------------------
# numeric solver
# ---------------------------------------------------------------------------

def test_numeric_solver_on_monotone_spec():
    spec = FSpec("shift", REAL_LINE, REAL_LINE, lambda x, u: x + u,
                 monotone="increasing", u_interval=(-np.inf, np.inf))
    res = sigma_solve(spec, 2.0, 5.0)
    assert res.kind == UNIQUE
    assert type(res.u) is float
    assert res.u == pytest.approx(3.0, abs=1e-9)


def test_numeric_solver_requires_monotonicity():
    with pytest.raises(AugmentationError):
        FSpec("bad", REAL_LINE, REAL_LINE, lambda x, u: x + u)


# ---------------------------------------------------------------------------
# augment
# ---------------------------------------------------------------------------

def _scalar_probes(pair, n, seed):
    probes = []
    for x, u in sample_points(pair, n, RandomStream(seed)):
        xs = np.atleast_1d(x)
        if isinstance(u, tuple):
            for i in range(len(xs)):
                probes.append((float(xs[i]), (int(u[0][i]), float(u[1][i]))))
        else:
            for a, b in zip(xs.tolist(), np.atleast_1d(u).tolist()):
                probes.append((a, b))
    return probes[:n]


def _u_close(a, b):
    if isinstance(a, tuple):
        return a[0] == b[0] and _u_close(a[1], b[1])
    if isinstance(a, (int, np.integer)) and isinstance(b, (int, np.integer)):
        return a == b
    scale = max(1.0, abs(a), abs(b))
    return abs(a - b) <= 1e-9 * scale


@pytest.mark.parametrize("name", [
    "matsumoto_yor", "swapped_matsumoto_yor", "beta_map", "beta_walk",
    "reflecting_rw",
])
def test_augment_reproduces_catalog_g(name):
    spec = fspec_for(name)
    catalog = catalog_get(name)
    built = augment(spec)
    for x, u in _scalar_probes(catalog, 2000, 43):
        assert _u_close(built.g(x, u), catalog.g(x, u))


def test_augment_my_point_value():
    built = augment(fspec_for("matsumoto_yor"))
    assert built.g(1.0, 1.0) == pytest.approx(0.5, abs=1e-12)


def test_augment_swapped_my_point_value():
    built = augment(fspec_for("swapped_matsumoto_yor"))
    assert built.g(1.0, 1.0) == pytest.approx(0.5, rel=1e-9)


def test_augment_is_deterministic():
    a = augment(fspec_for("beta_map"))
    b = augment(fspec_for("beta_map"))
    for x, u in _scalar_probes(catalog_get("beta_map"), 100, 47):
        assert a.g(x, u) == b.g(x, u)


def test_augment_roundtrip_f_of_y_v():
    # f(f(x,u), g_f(x,u)) = x
    spec = fspec_for("matsumoto_yor")
    built = augment(spec)
    for x, u in _scalar_probes(catalog_get("matsumoto_yor"), 500, 53):
        y, v = built.f(x, u), built.g(x, u)
        assert spec.f(y, v) == pytest.approx(x, rel=1e-9)


def test_augment_with_probes_aborts_on_kdv():
    spec = fspec_for("kdv")
    with pytest.raises(AugmentationError):
        augment(spec, probes=[(-2, 2), (1, -1)])


# ---------------------------------------------------------------------------
# verify_hypotheses
# ---------------------------------------------------------------------------

def test_my_hypotheses_hold_on_gamma_probes():
    spec = fspec_for("matsumoto_yor")
    gen = RandomStream(59).gen
    probes = list(zip(gen.gamma(2.0, 1.0, 10_000), gen.gamma(2.0, 1.0, 10_000)))
    report = verify_hypotheses(spec, probes)
    assert report.passed
    assert report.details["n_violations"] == 0


def test_kdv_violates_uniqueness_off_diagonal():
    spec = fspec_for("kdv")
    report = verify_hypotheses(spec, [(-2, 2)])
    assert not report.passed
    violation = report.details["violations"][0]
    assert violation["kind"] == "multiplicity"
    assert (violation["x"], violation["u"]) == (-2, 2)


def test_kdv_unique_region_is_clean():
    # below the diagonal the solver is unique and symmetric
    spec = fspec_for("kdv")
    probes = [(x, u) for x in range(-5, 6) for u in range(-5, 6) if x + u < 0]
    assert verify_hypotheses(spec, probes).passed


def test_beta_walk_hypotheses_on_probes():
    spec = fspec_for("beta_walk")
    probes = _scalar_probes(catalog_get("beta_walk"), 2000, 61)
    assert verify_hypotheses(spec, probes).passed
