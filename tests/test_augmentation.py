"""Tests for building the co-map g_f from an f-specification."""

import numpy as np
import pytest

from ipmaps.augmentation import (
    NONUNIQUE, NOSOLUTION, UNIQUE, AugmentationError, augment, fspec_for,
    verify_hypotheses,
)
from ipmaps.involutions import (
    CATALOG_NAMES, REAL_LINE, InvolutionPair, catalog_get, check_involution,
    involution_tolerance, sample_points,
)
from ipmaps.rng import RandomStream


# ---------------------------------------------------------------------------
# closed-form solvers
# ---------------------------------------------------------------------------

def test_my_solver_unique():
    spec = fspec_for("matsumoto_yor")
    u, status = spec.solver(np.array([1.0]), np.array([0.5]))
    assert status.tolist() == [UNIQUE]
    assert u[0] == pytest.approx(1.0, abs=1e-12)


def test_my_solver_no_solution_outside_accessible_set():
    spec = fspec_for("matsumoto_yor")
    _, status = spec.solver(np.array([1.0, 1.0]), np.array([2.0, 0.5]))
    assert status.tolist() == [NOSOLUTION, UNIQUE]


def test_rrw_solver_nonunique_at_origin():
    spec = fspec_for("reflecting_rw")
    u, status = spec.solver(np.array([0, 1, 1]), np.array([0, 2, 3]))
    assert status.tolist() == [NONUNIQUE, UNIQUE, NOSOLUTION]
    assert u[1] == 1


def test_kdv_solver_statuses():
    spec = fspec_for("kdv")
    u, status = spec.solver(np.array([2, 2, 2]), np.array([-3, -2, 0]))
    assert status.tolist() == [UNIQUE, NONUNIQUE, NOSOLUTION]
    assert u[0] == -3


def test_solver_consistency_with_f():
    # wherever the solver is unique, f(x, u) must reproduce y
    gen = RandomStream(41).gen
    draws = {"matsumoto_yor": np.exp(gen.normal(size=(2, 200))),
             "swapped_matsumoto_yor": np.exp(gen.normal(size=(2, 200))),
             "beta_map": gen.uniform(0.01, 0.99, (2, 200)),
             "gaussian_rosenblatt": gen.normal(size=(2, 200))}
    for name, (x, y) in draws.items():
        spec = fspec_for(name, {"beta": 0.5, "sigma": 1.0}
                         if name == "gaussian_rosenblatt" else None)
        u, status = spec.solver(x, y)
        ok = status == UNIQUE
        assert ok.sum() > 50
        np.testing.assert_allclose(spec.f(x[ok], u[ok]), y[ok], rtol=1e-9)


# ---------------------------------------------------------------------------
# augment
# ---------------------------------------------------------------------------

PARAMS = {"gaussian_rosenblatt": {"beta": 0.5, "sigma": 1.0}}
# every catalog map that carries a u-solver
SOLVED = [name for name in CATALOG_NAMES
          if catalog_get(name, PARAMS.get(name)).solver is not None]


def _catalog_and_probes(name, n, seed):
    catalog = catalog_get(name, PARAMS.get(name))
    return catalog, sample_points(catalog, n, RandomStream(seed))


@pytest.mark.parametrize("name", SOLVED)
def test_augment_reproduces_catalog_g(name):
    # g_f is the catalog g, unless the hypotheses that define g_f fail on
    # the map's probes, as they do for kdv_g1 and kdv_g2
    catalog, (xs, us) = _catalog_and_probes(name, 2000, 43)
    if not verify_hypotheses(catalog, xs, us).passed:
        return
    built = augment(catalog)
    # a tuple noise value compares as one (2, n) array
    got, want = np.asarray(built.g(xs, us)), np.asarray(catalog.g(xs, us))
    scale = np.maximum(1.0, np.maximum(np.abs(got), np.abs(want)))
    assert np.all(np.abs(got - want) <= 1e-9 * scale)


def test_the_hypotheses_fail_for_the_kdv_maps_alone():
    failing = []
    for name in SOLVED:
        catalog, probes = _catalog_and_probes(name, 2000, 43)
        if not verify_hypotheses(catalog, *probes).passed:
            failing.append(name)
    assert failing == ["kdv_g1", "kdv_g2"]


def test_augment_my_point_value():
    built = augment(fspec_for("matsumoto_yor"))
    assert built.g(np.array([1.0]), np.array([1.0]))[0] == \
        pytest.approx(0.5, abs=1e-12)


def test_augment_swapped_my_point_value():
    built = augment(fspec_for("swapped_matsumoto_yor"))
    assert built.g(np.array([1.0]), np.array([1.0]))[0] == \
        pytest.approx(0.5, rel=1e-9)


def test_augment_keeps_u_where_the_solve_is_not_unique():
    built = augment(fspec_for("reflecting_rw"))
    # f(0, -1) = f(0, 0) = 0 has two solutions: g_f leaves u alone
    assert built.g(np.array([0, 0, 3]), np.array([-1, 0, 1])).tolist() == \
        [-1, 0, -1]


def test_augment_is_deterministic():
    a = augment(fspec_for("beta_map"))
    b = augment(fspec_for("beta_map"))
    xs, us = sample_points(catalog_get("beta_map"), 100, RandomStream(47))
    assert np.array_equal(a.g(xs, us), b.g(xs, us))


@pytest.mark.parametrize("name,params,tol", [
    ("gaussian_rosenblatt", {"beta": 0.5, "sigma": 1.0}, 1e-8),
    ("matsumoto_yor", None, 1e-9),
    ("beta_walk", None, 1e-9),
    ("reflecting_rw", None, 0.0),
])
def test_the_tolerance_follows_the_pair_not_its_name(name, params, tol):
    # augment renames the pair "augmented:<name>"
    pair = catalog_get(name, params)
    for built in (pair, augment(pair), augment(fspec_for(name, params))):
        assert involution_tolerance(built) == tol
    xs, us = sample_points(pair, 1000, RandomStream(59))
    report = check_involution(augment(pair), xs, us)
    assert report.name == f"involution:augmented:{name}"
    assert report.details["tolerance"] == tol


def test_augment_roundtrip_f_of_y_v():
    # f(f(x,u), g_f(x,u)) = x
    spec = fspec_for("matsumoto_yor")
    built = augment(spec)
    xs, us = sample_points(catalog_get("matsumoto_yor"), 500,
                           RandomStream(53))
    y, v = built.f(xs, us), built.g(xs, us)
    np.testing.assert_allclose(spec.f(y, v), xs, rtol=1e-9)


def test_augment_with_probes_aborts_on_a_wrong_solver():
    # f = x + u on the real line, solved off by 0.5: every solve is unique
    # and (y, x) is accessible, so only the round trip can catch it
    spec = InvolutionPair(
        "shift", REAL_LINE, REAL_LINE, lambda x, u: x + u, None,
        solver=lambda x, y: (y - x + 0.5, np.full(np.shape(y), UNIQUE)))
    probes = (np.array([1.0, -3.0]), np.array([2.0, 0.5]))
    assert verify_hypotheses(spec, *probes).passed
    report = check_involution(augment(spec), *probes)
    assert not report.passed
    assert report.details["worst_point"] == "(1.0, 2.0)"


def test_g_f_names_a_probe_whose_reverse_solve_fails():
    # the solver of f = x + u accepts only y < 5, so (y, x) = (6, 1) is not
    # accessible although (x, y) = (1, 6) is
    spec = InvolutionPair(
        "half", REAL_LINE, REAL_LINE, lambda x, u: x + u, None,
        solver=lambda x, y: (y - x, np.where(x < 5, UNIQUE, NOSOLUTION)))
    built = augment(spec)
    with pytest.raises(AugmentationError,
                       match=r"at \(x=1\.0, u=5\.0\): solve\(6\.0, 1\.0\) "
                             r"-> nosolution"):
        built.g(np.array([0.0, 1.0]), np.array([1.0, 5.0]))


# ---------------------------------------------------------------------------
# verify_hypotheses
# ---------------------------------------------------------------------------

def test_my_hypotheses_hold_on_gamma_probes():
    spec = fspec_for("matsumoto_yor")
    gen = RandomStream(59).gen
    report = verify_hypotheses(spec, gen.gamma(2.0, 1.0, 10_000),
                               gen.gamma(2.0, 1.0, 10_000))
    assert report.passed
    assert report.details["n_violations"] == 0
    assert report.details["n_probes"] == 10_000


def test_kdv_violates_uniqueness_off_diagonal():
    spec = fspec_for("kdv")
    report = verify_hypotheses(spec, np.array([-2]), np.array([2]))
    assert not report.passed
    violation = report.details["violations"][0]
    assert violation["kind"] == "multiplicity"
    assert (violation["x"], violation["u"], violation["y"]) == (-2, 2, 2)


def test_violations_are_listed_first_ten_in_probe_order():
    spec = fspec_for("kdv")
    # x + u >= 0 with x != 0 breaks uniqueness off the diagonal
    xs = np.arange(1, 16)
    report = verify_hypotheses(spec, xs, np.zeros(15, dtype=int))
    assert report.details["n_violations"] == 15
    assert [v["x"] for v in report.details["violations"]] == list(range(1, 11))


def test_kdv_unique_region_is_clean():
    # below the diagonal the solver is unique and symmetric
    spec = fspec_for("kdv")
    xs, us = np.meshgrid(np.arange(-5, 6), np.arange(-5, 6))
    below = xs + us < 0
    assert verify_hypotheses(spec, xs[below], us[below]).passed


def test_beta_walk_hypotheses_on_probes():
    spec = fspec_for("beta_walk")
    xs, us = sample_points(catalog_get("beta_walk"), 2000, RandomStream(61))
    assert verify_hypotheses(spec, xs, us).passed
