"""Tests for the exact reflecting-random-walk characterization and the
lattice-map product-law dichotomy."""

import math
from fractions import Fraction

import numpy as np
import pytest

from ipmaps.exact_discrete import (
    RRWParams, _step_tables, kdv_box, kdv_pushforward_tv, product_defect_tv,
    rrw_forced_law, rrw_forced_table, rrw_joint_table, rrw_pushforward_cells,
    rrw_verify_proof_identities,
)
from ipmaps.involutions import catalog_get
from ipmaps.kernels import pushforward
from ipmaps.laws import Geometric, LawError, ParityGeom, ShiftGeom, TruncGeom


def _fractions(table):
    """A table (nums, den) as a {state: Fraction} law."""
    nums, den = table
    return {k: Fraction(w, den) for k, w in nums.items()}


def perturbed_tables(params, box=200):
    """The forced table with mass 1/1000 (or all of it, if less) moved
    between adjacent states.

    The structured deviation family used to show that independence pins the
    law: every member must fail the cell identity.
    """
    nums, den = rrw_forced_table(params, box=box)
    out = []
    for a, b in ((0, 1), (1, 0), (1, 2)):
        moved = {k: 1000 * w for k, w in nums.items()}
        delta = min(den, moved[a])
        moved[a] -= delta
        moved[b] += delta
        out.append(((a, b), (moved, 1000 * den)))
    return out


def rrw_cells(params, box, law_x, law_y):
    """`product_defect_tv` on the cells x in [0, box], u in the step
    support, with mu = law_x and mu' = law_y brought over one denominator."""
    (mu, dx), (mu_y, dy) = law_x, law_y
    den = math.lcm(dx, dy)
    mu = {k: w * (den // dx) for k, w in mu.items()}
    mu_y = {k: w * (den // dy) for k, w in mu_y.items()}
    nu, nu_v, _ = _step_tables(params)
    xs = np.repeat(np.arange(box + 1), len(nu))
    us = np.tile(list(nu), box + 1)
    ys, vs = catalog_get("reflecting_rw")(xs, us)
    return product_defect_tv(xs, us, ys, vs, mu, nu, mu_y, nu_v)


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

def test_params_validation():
    with pytest.raises(LawError):
        RRWParams.make(0.5, 0.2, 0.3)            # p >= q
    with pytest.raises(LawError):
        RRWParams.make(0.5, 0.5, 0)              # p = q
    with pytest.raises(LawError):
        RRWParams.make(0.2, 0.5, 0.4)            # does not sum to 1
    with pytest.raises(LawError):
        RRWParams.make(0.3, 0.7, 0)              # r=0 needs pprime
    with pytest.raises(LawError):
        RRWParams.make(0.3, 0.7, 0, 0.8)         # pprime outside (0, q)
    with pytest.raises(LawError, match="pprime is set only in the case r=0"):
        RRWParams.make(0.2, 0.5, 0.3, 0.2)       # r>0: V has the law of U


def test_qprime_is_implied():
    params = RRWParams.make(0.3, 0.7, 0, 0.2)
    assert params.qprime == Fraction(4, 5)
    assert params.rho2 == Fraction(3, 28)


# ---------------------------------------------------------------------------
# forced laws
# ---------------------------------------------------------------------------

def test_forced_law_interior_case_is_geometric():
    law = rrw_forced_law(RRWParams.make(0.2, 0.5, 0.3))
    assert isinstance(law, Geometric)
    assert law.theta == pytest.approx(0.4, abs=1e-15)


def test_forced_law_boundary_case_collapses_when_pprime_equals_p():
    law = rrw_forced_law(RRWParams.make(0.3, 0.7, 0, 0.3))
    geo = Geometric(3 / 7)
    assert isinstance(law, ParityGeom)
    for k in range(20):
        assert law.pmf(k) == pytest.approx(geo.pmf(k), rel=1e-12)


def test_forced_law_boundary_case_parity():
    params = RRWParams.make(0.3, 0.7, 0, 0.2)
    law = rrw_forced_law(params)
    assert isinstance(law, ParityGeom)
    assert law.podd == pytest.approx(0.2, abs=1e-15)
    assert law.rho ** 2 == pytest.approx(3 / 28, rel=1e-12)


def test_forced_table_is_exact():
    params = RRWParams.make(0.2, 0.5, 0.3)
    nums, den = rrw_forced_table(params, box=50)
    pmf = _fractions((nums, den))
    assert pmf[0] == Fraction(3, 5)
    assert pmf[1] == Fraction(3, 5) * Fraction(2, 5)
    assert Fraction(den - sum(nums.values()), den) == Fraction(2, 5) ** 51


def test_forced_law_of_y_swaps_the_parity_weights():
    params = RRWParams.make(0.3, 0.7, 0, 0.2)
    pmf_x = _fractions(rrw_forced_table(params, box=3))
    pmf_y = _fractions(rrw_forced_table(params, box=3, y=True))
    assert [pmf_y[k] / pmf_x[k] for k in range(4)] == \
        [params.q / params.qprime, params.p / params.pprime] * 2
    interior = RRWParams.make(0.2, 0.5, 0.3)
    assert rrw_forced_table(interior, 9, y=True) == \
        rrw_forced_table(interior, 9)


# ---------------------------------------------------------------------------
# joint table and the cell identity
# ---------------------------------------------------------------------------

def test_joint_from_point_mass_at_zero():
    params = RRWParams.make(0.2, 0.5, 0.3)
    joint = rrw_joint_table(({0: 1}, 1), params)
    assert joint.den == 10
    assert {k: Fraction(w, joint.den) for k, w in joint.nums.items()} == {
        (1, -1): Fraction(1, 5),
        (0, -1): Fraction(1, 2),
        (0, 0): Fraction(3, 10),
    }


@pytest.mark.parametrize("grid", [(0.2, 0.5, 0.3), (0.4, 0.6, 0, 0.2)],
                         ids=str)
def test_table_denominator_does_not_change_a_report(grid):
    # every reported float is one correctly rounded int / int division
    params = RRWParams.make(*grid)
    for (_, law_x) in perturbed_tables(params, box=30):
        nums, den = law_x
        scaled = ({k: 7 * w for k, w in nums.items()}, 7 * den)
        a, b = rrw_joint_table(law_x, params), rrw_joint_table(scaled, params)
        assert a.tail == b.tail
        assert rrw_verify_proof_identities(params, a).details == \
            rrw_verify_proof_identities(params, b).details


def test_forced_law_gives_zero_defect():
    params = RRWParams.make(0.2, 0.5, 0.3)
    assert rrw_pushforward_cells(params, 200) == (603, 0, None)
    law_x = rrw_forced_table(params, 201)
    law_y = rrw_forced_table(params, 201, y=True)
    assert rrw_cells(params, 200, law_x, law_y) == (603, 0, None)


def test_wrong_law_gives_visible_defect():
    params = RRWParams.make(0.2, 0.5, 0.3)
    table = ({k: 2 ** (201 - k) for k in range(202)}, 2 ** 202)  # 2^-(k+1)
    cells, failing, witness = rrw_cells(
        params, 200, table, rrw_forced_table(params, 201, y=True))
    assert (cells, witness) == (603, (0, -1))
    assert failing > 0


def test_output_law_equal_to_the_input_law_fails_every_cell():
    # at r = 0 and p' != p, Y has parity weights (q, p), not X's (q', p')
    params = RRWParams.make(0.3, 0.7, 0, 0.15)
    law_x = rrw_forced_table(params, 41)
    ref_cells, ref_failing = _ref_rrw_cells(params, 40, y=False)
    assert rrw_cells(params, 40, law_x, law_x) == \
        (ref_cells, len(ref_failing), ref_failing[0]) == (82, 82, (0, -1))
    assert rrw_pushforward_cells(params, 40) == (82, 0, None)


def test_product_table_has_zero_defect():
    # the swap H(x, u) = (u, x) carries mu (x) nu to nu (x) mu; weights
    # over 6: mu halves on {0, 1}, nu thirds on {-1, 1}
    mu, nu = {0: 3, 1: 3}, {-1: 2, 1: 4}
    xs, us = np.repeat([0, 1], 2), np.tile([-1, 1], 2)
    assert product_defect_tv(xs, us, us, xs, mu, nu, nu, mu) == (4, 0, None)
    # mu (x) nu itself is not: every cell but the fixed point (1, 1) fails
    assert product_defect_tv(xs, us, us, xs, mu, nu, mu, nu) == \
        (4, 3, (0, -1))


# ---------------------------------------------------------------------------
# proof identities
# ---------------------------------------------------------------------------

def test_identities_interior_case():
    params = RRWParams.make(0.2, 0.5, 0.3)
    table = rrw_forced_table(params)
    report = rrw_verify_proof_identities(params,
                                         rrw_joint_table(table, params))
    assert report.passed
    residuals = report.details["residuals"]
    assert all(v <= report.details["threshold"] for v in residuals.values())


def test_identities_boundary_case():
    params = RRWParams.make(0.3, 0.7, 0, 0.2)
    table = rrw_forced_table(params)
    report = rrw_verify_proof_identities(params,
                                         rrw_joint_table(table, params))
    assert report.passed
    residuals = report.details["residuals"]
    assert residuals["y_even_mass"] <= 1e-12       # P(Y even) = q
    assert residuals["x_odd_mass"] <= 1e-12        # P(X odd) = p'


def test_identities_detect_perturbation():
    params = RRWParams.make(0.2, 0.5, 0.3)
    [(_, moved), *_] = perturbed_tables(params)   # 1/1000 from 0 to 1
    report = rrw_verify_proof_identities(params,
                                         rrw_joint_table(moved, params))
    assert not report.passed
    assert max(report.details["residuals"].values()) > 1e-4


def test_perturbed_tables_all_break_independence():
    # the cells whose x carries moved mass fail, and no other cell
    for grid, cells in (((0.2, 0.5, 0.3), 603), ((0.3, 0.7, 0, 0.15), 402)):
        params = RRWParams.make(*grid)
        law_y = rrw_forced_table(params, 201, y=True)
        tables = perturbed_tables(params, box=201)
        assert len(tables) >= 3
        steps = len(_step_tables(params)[0])
        for (a, b), table in tables:
            assert rrw_cells(params, 200, table, law_y) == \
                (cells, 2 * steps, (min(a, b), -1))


# ---------------------------------------------------------------------------
# lattice-map pushforward
# ---------------------------------------------------------------------------

def test_kdv_g1_preserves_product_measure():
    assert kdv_pushforward_tv(0.5, 2, "g1", 60) == (5 * 63, 0, None)


def test_kdv_g2_breaks_product_measure():
    cells, failing, witness = kdv_pushforward_tv(0.5, 2, "g2", 60)
    # g2 moves the product law exactly on the cells with x + u > 0
    xs, us = kdv_box(0.5, 2, 60)
    assert (cells, failing) == (len(xs), int((xs + us > 0).sum()))
    assert witness == (-2, 3)


@pytest.mark.parametrize("theta", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("ell", [2, 4])
def test_kdv_dichotomy_grid(theta, ell):
    assert kdv_pushforward_tv(theta, ell, "g1", 60)[1] == 0
    assert kdv_pushforward_tv(theta, ell, "g2", 60)[1] > 0


@pytest.mark.parametrize("ell, M", [(2, -2), (2, -3), (10, -10)])
def test_kdv_box_needs_a_cell_with_positive_x_plus_u(ell, M):
    with pytest.raises(LawError, match="no cell with x \\+ u > 0"):
        kdv_box(0.5, ell, M)
    # the smallest admitted box has one such cell, and g2 fails on it
    _, failing, witness = kdv_pushforward_tv(0.5, ell, "g2", 1 - ell)
    assert (failing, witness) == (1, (ell, 1 - ell))


# ---------------------------------------------------------------------------
# reference: the same quantities by Fraction arithmetic cell by cell
# ---------------------------------------------------------------------------

# the (p, q, r, p') grid of the exact-enum benchmark workload
RRW_GRID = ((0.2, 0.5, 0.3, None), (0.1, 0.6, 0.3, None),
            (0.3, 0.7, 0.0, 0.3), (0.3, 0.7, 0.0, 0.15),
            (0.4, 0.6, 0.0, 0.2))
# and one more point of each case, with p close to q
RRW_WIDE_GRID = RRW_GRID + ((0.3, 0.35, 0.35, None), (0.45, 0.55, 0.0, 0.05))


def _ref_forced_table(params, box, y=False):
    """The forced law of X (or with `y` of Y) on {0..box} and its tail,
    one Fraction per state."""
    pmf = {}
    if params.r > 0:
        theta = params.p / params.q
        for k in range(box + 1):
            pmf[k] = (1 - theta) * theta ** k
        return pmf, theta ** (box + 1)
    rho2 = params.rho2
    odd, even = (params.p, params.q) if y else (params.pprime, params.qprime)
    for k in range(box + 1):
        w = odd if k % 2 == 1 else even
        pmf[k] = w * (1 - rho2) * rho2 ** (k // 2)
    return pmf, 1 - sum(pmf.values())


def _ref_noise_cells(params):
    cells = [(1, params.p), (-1, params.q)]
    if params.r > 0:
        cells.append((0, params.r))
    return cells


def _ref_joint_cells(law_x, params):
    return pushforward(catalog_get("reflecting_rw"), law_x.items(),
                       _ref_noise_cells(params))


def _ref_marginals(cells):
    my, mv = {}, {}
    for (y, v), w in cells.items():
        my[y] = my.get(y, Fraction(0)) + w
        mv[v] = mv.get(v, Fraction(0)) + w
    return my, mv


def _ref_residuals(law_x, params, cells):
    my, mv = _ref_marginals(cells)
    pX = lambda k: law_x.get(k, Fraction(0))
    pY = lambda k: my.get(k, Fraction(0))
    pprime = mv.get(1, Fraction(0))
    qprime = mv.get(-1, Fraction(0))
    v0 = mv.get(0, Fraction(0))
    kmax = max(law_x)
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
    return residuals


def _ref_kdv_cells(theta, ell, variant, M):
    """The box size and the failing cells of mu(y) nu(v) = mu(x) nu(u),
    from the normalised TruncGeom and ShiftGeom pmfs in Fraction arithmetic,
    one cell at a time in x-major order."""
    mu_law, nu_law = TruncGeom(theta, ell), ShiftGeom(theta, ell)
    theta = Fraction(str(theta))
    z_mu = sum(theta ** i for i in range(-ell, ell + 1))

    def mu(x):
        inside = mu_law.support_lo <= x <= mu_law.support_hi
        return theta ** x / z_mu if inside else Fraction(0)

    def nu(u):
        inside = nu_law.support_lo <= u
        return (1 - theta) * theta ** (u + ell) if inside else Fraction(0)

    for k in range(-ell, M + 1):
        assert float(mu(k)) == pytest.approx(mu_law.pmf(k), rel=1e-12)
        assert float(nu(k)) == pytest.approx(nu_law.pmf(k), rel=1e-12)
    pair = catalog_get("kdv_" + variant)
    cells, failing = 0, []
    for x in range(-ell, ell + 1):
        for u in range(-ell, M + 1):
            y, v = (int(c) for c in pair(x, u))
            cells += 1
            if mu(y) * nu(v) != mu(x) * nu(u):
                failing.append((x, u))
    return cells, failing


def _ref_rrw_cells(params, box, y=True):
    """The box size and the failing cells of mu'(y) nu'(v) = mu(x) nu(u)
    for mu, mu' the laws of X and Y (of X again without `y`) and nu, nu'
    those of U and V, from the normalised pmfs in Fraction arithmetic, one
    cell at a time in x-major order."""
    mu, _ = _ref_forced_table(params, box + 1)
    mu_y, _ = _ref_forced_table(params, box + 1, y=y)
    law = rrw_forced_law(params)
    for k in range(box + 2):
        assert float(mu[k]) == pytest.approx(law.pmf(k), rel=1e-12)
    pv = params.p if params.pprime is None else params.pprime
    nu = {-1: params.q, 0: params.r, 1: params.p}
    nu_v = {-1: params.qprime, 0: params.r, 1: pv}
    pair = catalog_get("reflecting_rw")
    cells, failing = 0, []
    for x in range(box + 1):
        for u in ((-1, 0, 1) if params.r > 0 else (-1, 1)):
            y, v = (int(c) for c in pair(x, u))
            cells += 1
            if mu_y[y] * nu_v[v] != mu[x] * nu[u]:
                failing.append((x, u))
    return cells, failing


def _bits(values):
    return {k: float(v).hex() for k, v in values.items()}


@pytest.mark.parametrize("grid", RRW_GRID, ids=str)
def test_integer_tables_match_fraction_reference(grid):
    params = RRWParams.make(*grid)
    for box in (200, 5):
        # a short box leaves a tail far above float resolution
        nums, den = rrw_forced_table(params, box=box)
        pmf, tail = _ref_forced_table(params, box)
        assert _fractions((nums, den)) == pmf
        assert Fraction(den - sum(nums.values()), den) == tail
        assert _fractions(rrw_forced_table(params, box, y=True)) == \
            _ref_forced_table(params, box, y=True)[0]
    forced = [rrw_forced_table(params, box=box) for box in (200, 5)]
    moved = [table for _, table in perturbed_tables(params)]
    for table in forced + moved:
        law_x = _fractions(table)
        joint = rrw_joint_table(table, params)
        cells = _ref_joint_cells(law_x, params)
        assert {k: Fraction(w, joint.den) for k, w in joint.nums.items()} \
            == cells
        assert joint.tail == 1 - sum(law_x.values())
        report = rrw_verify_proof_identities(params, joint)
        residuals = report.details["residuals"]
        assert _bits(residuals) == _bits(_ref_residuals(law_x, params, cells))
        if table in moved:
            # the comparison covers nonzero values
            assert max(residuals.values()) > 0.0


@pytest.mark.parametrize("grid", RRW_WIDE_GRID, ids=str)
def test_rrw_cells_match_fraction_reference(grid):
    params = RRWParams.make(*grid)
    steps = 3 if params.r > 0 else 2
    for box in (*range(1, 41), 200):
        ref_cells, ref_failing = _ref_rrw_cells(params, box)
        assert (ref_cells, ref_failing) == ((box + 1) * steps, [])
        assert rrw_pushforward_cells(params, box) == (ref_cells, 0, None)


# (theta, ell, M); the last has M < ell, so mu reaches past the noise box
KDV_CASES = [(theta, ell, 60) for theta in (0.3, 0.5, 0.7) for ell in (2, 4)]
KDV_CASES.append((0.1, 10, 2))


@pytest.mark.parametrize("variant", ["g1", "g2"])
@pytest.mark.parametrize("theta, ell, M", KDV_CASES)
def test_kdv_integer_weights_match_fraction_reference(variant, theta, ell, M):
    cells, failing, witness = kdv_pushforward_tv(theta, ell, variant, M)
    ref_cells, ref_failing = _ref_kdv_cells(theta, ell, variant, M)
    assert (cells, failing) == (ref_cells, len(ref_failing))
    assert witness == (ref_failing[0] if ref_failing else None)
    # g1 preserves the product law; g2 moves it, at M < ell too
    assert (failing == 0) == (variant == "g1")
