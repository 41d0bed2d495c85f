"""End-to-end acceptance suite.

Each test covers one headline guarantee of the package and prints a single
pass/fail line, including its runtime against a fixed budget.
"""

import contextlib
import json
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.special import ndtri

from ipmaps import burke, cli, exact_discrete, kernels, skorokhod, stat_tests
from ipmaps.augmentation import augment, fspec_for, verify_hypotheses
from ipmaps.involutions import catalog_get, check_involution, sample_points
from ipmaps.laws import (
    Bernoulli, BetaI, Gamma, Geometric, GIG, Normal, ShiftGeom, ThreePoint,
    TruncGeom, UniformUnit, _multiply_out, _weight_atoms, truncate,
)
from ipmaps.rng import RandomStream


def factored(table):
    """A {state: weight} table in the factored form that
    `exact_discrete.product_defect_tv` reads, each positive weight an atom
    of its own."""
    return _weight_atoms(dict(zip(table, map(Fraction, table.values()))))


@contextlib.contextmanager
def criterion(num, desc, budget_s):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {num}: {desc}")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget_s:
        print(f"[FAIL] criterion {num}: {desc} "
              f"({elapsed:.1f}s over the {budget_s:.0f}s budget)")
        raise AssertionError(f"criterion {num} exceeded its time budget")
    print(f"[PASS] criterion {num}: {desc} "
          f"({elapsed:.1f}s, budget {budget_s:.0f}s)")


# ---------------------------------------------------------------------------
# 1. involution round trips across the whole catalog
# ---------------------------------------------------------------------------

def test_criterion_1_involution_suite(capsys):
    with capsys.disabled(), \
            criterion(1, "catalog involution round trips", 10):
        for name in ("kdv_g1", "kdv_g2", "reflecting_rw"):
            pair = catalog_get(name)
            report = check_involution(pair,
                                      *sample_points(pair, 0, None, box=20))
            assert report.passed and report.details["max_deviation"] == 0.0

        rng = RandomStream(1)
        cases = [
            ("matsumoto_yor", None, 100_000, 1e-9),
            ("swapped_matsumoto_yor", None, 100_000, 1e-9),
            ("beta_map", None, 100_000, 1e-9),
            ("beta_walk", None, 100_000, 1e-9),
            ("gaussian_rosenblatt", {"beta": 0.5, "sigma": 1.0},
             100_000, 1e-8),
            ("spd_matsumoto_yor", {"d": 2}, 1000, 1e-7),
            ("spd_matsumoto_yor", {"d": 3}, 1000, 1e-7),
        ]
        for name, params, n, tol in cases:
            pair = catalog_get(name, params)
            report = check_involution(pair, *sample_points(pair, n, rng), tol)
            assert report.passed, (name, report.details)


# ---------------------------------------------------------------------------
# 2. the co-map construction recovers the catalog
# ---------------------------------------------------------------------------

def test_criterion_2_augmentation_recovers_catalog(capsys):
    with capsys.disabled(), \
            criterion(2, "co-map construction and hypothesis checks", 5):
        rng = RandomStream(2)
        for name in ("matsumoto_yor", "swapped_matsumoto_yor", "beta_map",
                     "beta_walk", "reflecting_rw"):
            catalog = catalog_get(name)
            built = augment(fspec_for(name))
            xs, us = sample_points(catalog, 10_000, rng.split(1)[0])
            # a tuple noise value compares as one (2, n) array
            got = np.asarray(built.g(xs, us))
            want = np.asarray(catalog.g(xs, us))
            scale = np.maximum(1.0, np.maximum(np.abs(got), np.abs(want)))
            assert np.all(np.abs(got - want) <= 1e-9 * scale), name

        report = verify_hypotheses(fspec_for("kdv"),
                                   *sample_points(fspec_for("kdv"), 0, None,
                                                  box=5))
        assert not report.passed
        witness = report.details["violations"][0]
        assert witness["kind"] == "multiplicity"
        assert witness["x"] + witness["u"] >= 0


# ---------------------------------------------------------------------------
# 3. exact reflecting-random-walk characterization
# ---------------------------------------------------------------------------

def test_criterion_3_rrw_exact(capsys):
    with capsys.disabled(), \
            criterion(3, "reflecting random walk exact characterization", 10):
        params = exact_discrete.RRWParams.make(0.2, 0.5, 0.3)
        walk, steps = catalog_get("reflecting_rw"), ThreePoint(0.2, 0.5, 0.3)
        for box in (1, 200):
            db = kernels.check_detailed_balance_exact(
                walk, Geometric(0.4), steps, box)
            assert db.passed and db.details["failing_pairs"] == 0
            assert db.details["checked_pairs"] == box
            assert not kernels.check_detailed_balance_exact(
                walk, Geometric(0.5), steps, box).passed

        for prm in (params, exact_discrete.RRWParams.make(0.3, 0.7, 0, 0.2)):
            report = exact_discrete.rrw_characterize(prm, 200)
            ids = report.details["identities"]
            assert report.passed and ids["passed"]
            assert all(r["failing"] == 0 for r in ids["details"].values())

        for p in (Fraction(1, 10), Fraction(2, 10), Fraction(3, 10)):
            for q in (Fraction(5, 10), Fraction(6, 10), Fraction(7, 10)):
                grid = []
                if 1 - p - q > 0:
                    grid.append(exact_discrete.RRWParams.make(p, q, 1 - p - q))
                pn, qn = p / (p + q), q / (p + q)
                grid.append(exact_discrete.RRWParams.make(pn, qn, 0, pn))
                grid.append(exact_discrete.RRWParams.make(pn, qn, 0, pn / 2))
                for prm in grid:
                    joint = exact_discrete.rrw_joint_table(prm, 200)
                    cells, (x, *_), tables = joint
                    steps = 3 if prm.r > 0 else 2
                    fails = exact_discrete.product_defect_tv(*cells, *tables)
                    assert exact_discrete._tally(*cells[:2], fails) == \
                        (steps * 201, 0, None)
                    # mass 1/1000 moved between adjacent states fails the
                    # cells of both states, over the cells x in [0, 200];
                    # it stays in [0, 200], so the mass beyond stays
                    nums, den, tail = truncate(x, 201, tables[0])
                    nums = np.array(list(nums.values()), dtype=object)
                    beyond = 1000 * (tail + nums[201])
                    law_y = factored(dict(enumerate(
                        1000 * _multiply_out(*tables[2][1:]))))
                    for a, b in ((0, 1), (1, 0), (1, 2)):
                        moved = 1000 * nums
                        delta = min(den, moved[a])
                        moved[a] -= delta
                        moved[b] += delta
                        fails = exact_discrete.product_defect_tv(
                            *cells, factored(dict(enumerate(moved))),
                            tables[1], law_y, tables[3])
                        assert fails.sum() == 2 * steps
                        assert not exact_discrete.rrw_verify_proof_identities(
                            prm, joint, (moved[:201], 1000 * den, beyond),
                            fails).passed


# ---------------------------------------------------------------------------
# 4. lattice-map pushforward dichotomy
# ---------------------------------------------------------------------------

def test_criterion_4_kdv_dichotomy(capsys):
    with capsys.disabled(), \
            criterion(4, "lattice map product-measure dichotomy", 10):
        for theta in (0.3, 0.5, 0.7):
            for ell in (2, 4):
                _, failing1, _ = exact_discrete.kdv_pushforward_tv(
                    theta, ell, "g1", 60)
                _, failing2, _ = exact_discrete.kdv_pushforward_tv(
                    theta, ell, "g2", 60)
                assert failing1 == 0, (theta, ell)
                assert failing2 > 0, (theta, ell)


# ---------------------------------------------------------------------------
# 5. statistical independence-preservation suite
# ---------------------------------------------------------------------------

def test_criterion_5_ip_statistical_suite(capsys):
    with capsys.disabled(), \
            criterion(5, "independence preservation pass/reject cases", 60):
        n, level = 200_000, 0.001
        beta, sigma = 0.5, 1.0
        cases = [
            ("matsumoto_yor", None, GIG(2, 1), Gamma(2, 1), True),
            ("beta_map", None, BetaI(2, 1), BetaI(3, 2), True),
            ("gaussian_rosenblatt", {"beta": beta, "sigma": sigma},
             Normal(0.0, sigma ** 2 / (1 - beta ** 2)), UniformUnit(), True),
            ("reflecting_rw", None, Geometric(0.4),
             ThreePoint(0.2, 0.5, 0.3), True),
            ("matsumoto_yor", None, GIG(2, 1), UniformUnit(), False),
            ("kdv_g2", None, TruncGeom(0.5, 2), ShiftGeom(0.5, 2), False),
        ]
        streams = RandomStream(1).split(len(cases) + 1)
        for (name, params, mu, nu, expect), stream in zip(cases, streams):
            pair = catalog_get(name, params)
            report = kernels.check_ip_statistical(pair, mu, nu, n, stream,
                                                  level=level)
            assert report.passed is expect, (name, report.details)

        # product-noise walk: the state marginal is preserved but the
        # generated noise is not, so the joint check must reject
        pair = catalog_get("beta_walk")
        report = kernels.check_ip_statistical(
            pair, BetaI(2, 3), (Bernoulli(0.4), BetaI(1, 5)), n, streams[-1],
            level=level)
        assert report.details["y_marginal"]["passed"]
        assert not report.passed


# ---------------------------------------------------------------------------
# 6. lattice field row/column laws
# ---------------------------------------------------------------------------

def test_criterion_6_burke_suite(capsys):
    with capsys.disabled(), \
            criterion(6, "lattice field row and column laws", 30):
        r1, r2, r3 = RandomStream(1).split(3)
        rrw = burke.simulate_field(catalog_get("reflecting_rw"),
                                   Geometric(0.4), ThreePoint(0.2, 0.5, 0.3),
                                   50, 50, r1)
        assert burke.verify_burke(rrw).passed

        my = burke.simulate_field(catalog_get("matsumoto_yor"),
                                  GIG(2, 1), Gamma(2, 1), 50, 50, r2)
        assert burke.verify_burke(my).passed

        corrupt = burke.simulate_field(
            catalog_get("reflecting_rw"), Geometric(0.4),
            ThreePoint(0.5, 0.2, 0.3), 50, 50, r3)
        corrupt.nu = ThreePoint(0.2, 0.5, 0.3)
        assert not burke.verify_burke(corrupt).passed


# ---------------------------------------------------------------------------
# 7. quantile/conditional-cdf construction for the Gaussian family
# ---------------------------------------------------------------------------

def test_criterion_7_skorokhod_gaussian(capsys):
    with capsys.disabled(), \
            criterion(7, "numeric quantile construction, decorrelation", 20):
        for beta, sigma in ((0.5, 1.0), (-0.5, 1.0), (0.9, 2.0)):
            numeric = skorokhod.gaussian_family(beta, sigma)
            catalog = catalog_get("gaussian_rosenblatt",
                                  {"beta": beta, "sigma": sigma})
            xs = np.linspace(-3 * sigma, 3 * sigma, 100)
            us = np.linspace(0.005, 0.995, 100)
            xg, ug = np.meshgrid(xs, us)
            xg, ug = xg.ravel(), ug.ravel()
            sup_f = np.max(np.abs(skorokhod.skorokhod_f(numeric, xg, ug)
                                  - catalog.f(xg, ug)))
            sup_g = np.max(np.abs(skorokhod.rosenblatt_g(numeric, xg, ug)
                                  - catalog.g(xg, ug)))
            assert sup_f <= 1e-8 and sup_g <= 1e-8, (beta, sigma)

        beta, sigma, m = 0.5, 1.0, 1_000_000
        gen = RandomStream(7).gen
        x = gen.normal(0.0, np.sqrt(sigma ** 2 / (1 - beta ** 2)), m)
        z = ndtri(gen.uniform(1e-12, 1 - 1e-12, m))
        a = beta * x + sigma * z
        b = (1 - beta ** 2) * x / sigma - beta * z
        prod = (a - a.mean()) * (b - b.mean())
        assert abs(prod.mean()) <= 4 * prod.std() / np.sqrt(m)


# ---------------------------------------------------------------------------
# 8. null calibration of the statistical machinery
# ---------------------------------------------------------------------------

def test_criterion_8_stat_calibration(capsys):
    with capsys.disabled(), \
            criterion(8, "null rejection rates near the nominal level", 60):
        law = Geometric(0.4)
        rejections = dict(ks=0, chi2=0, independence=0, exchangeability=0)
        for rep in RandomStream(14).split(100):
            s_ks, s_chi, s_ind, s_exc = rep.split(4)
            g = s_ks.gen
            r = stat_tests.ks_two_sample(g.normal(size=1000),
                                         g.normal(size=1000), level=0.01)
            rejections["ks"] += not r.passed

            draws = np.asarray(law.sample(s_chi, 2000))
            hi = int(draws.max())
            counts = np.array([(draws == k).sum() for k in range(hi + 1)],
                              dtype=float)
            counts = np.append(counts, 0.0)
            probs = np.array([(1 - 0.4) * 0.4 ** k for k in range(hi + 1)]
                             + [0.4 ** (hi + 1)])
            r = stat_tests.chi2_gof(counts, probs / probs.sum(), level=0.01)
            rejections["chi2"] += not r.passed

            a, b = s_ind.gen.random((2000, 2)).T
            r = stat_tests.independence_test(
                *(stat_tests.binned(stat_tests.SortedColumn(c), c)
                  for c in (a, b)),
                level=0.01)
            rejections["independence"] += not r.passed

            z = s_exc.gen.normal(size=(2000, 3))
            r = stat_tests.exchangeability_test(z[:, 0] + z[:, 2],
                                                z[:, 1] + z[:, 2], level=0.01)
            rejections["exchangeability"] += not r.passed

        for method, count in rejections.items():
            assert 0.002 <= count / 100 <= 0.03, (method, count)


# ---------------------------------------------------------------------------
# 9. byte-identical reports under a fixed seed
# ---------------------------------------------------------------------------

def test_criterion_9_deterministic_reports(tmp_path, capsys):
    with capsys.disabled(), \
            criterion(9, "seeded reruns give byte-identical reports", 60):
        payload = {
            "seed": 1,
            "checks": [
                {"kind": "involution", "map": "matsumoto_yor", "n": 20_000},
                {"kind": "ip", "map": "reflecting_rw",
                 "mu": {"kind": "geometric", "params": {"theta": 0.4}},
                 "nu": {"kind": "three_point",
                        "params": {"p": 0.2, "q": 0.5, "r": 0.3}},
                 "n": 20_000},
                {"kind": "rrw-characterize", "p": 0.2, "q": 0.5, "r": 0.3},
                {"kind": "burke", "map": "reflecting_rw",
                 "mu": {"kind": "geometric", "params": {"theta": 0.4}},
                 "nu": {"kind": "three_point",
                        "params": {"p": 0.2, "q": 0.5, "r": 0.3}}},
                {"kind": "skorokhod-gaussian", "beta": 0.5, "sigma": 1.0,
                 "grid": 40},
            ],
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(payload))
        config = cli.load_config(str(config_path))
        p1 = cli.emit(cli.run(config), str(tmp_path / "run1"))
        p2 = cli.emit(cli.run(config), str(tmp_path / "run2"))
        b1, b2 = Path(p1).read_bytes(), Path(p2).read_bytes()
        assert b1 == b2
        assert json.loads(b1)["overall_pass"]
