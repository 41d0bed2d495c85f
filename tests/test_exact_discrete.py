"""Tests for the exact reflecting-random-walk characterization and the
lattice-map pushforward dichotomy."""

from fractions import Fraction

import pytest

from ipmaps.exact_discrete import (
    JointTable, RRWParams, kdv_pushforward_tv, perturbed_tables,
    product_defect_tv, rrw_forced_law, rrw_forced_table,
    rrw_joint_table, rrw_verify_proof_identities,
)
from ipmaps.laws import Geometric, LawError, ParityGeom


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
    pmf, tail = rrw_forced_table(params, box=50)
    assert pmf[0] == Fraction(3, 5)
    assert pmf[1] == Fraction(3, 5) * Fraction(2, 5)
    assert tail == Fraction(2, 5) ** 51
    assert sum(pmf.values()) + tail == 1


# ---------------------------------------------------------------------------
# joint table and independence defect
# ---------------------------------------------------------------------------

def test_joint_from_point_mass_at_zero():
    params = RRWParams.make(0.2, 0.5, 0.3)
    joint = rrw_joint_table({0: Fraction(1)}, params)
    assert joint.cells == {
        (1, -1): Fraction(1, 5),
        (0, -1): Fraction(1, 2),
        (0, 0): Fraction(3, 10),
    }


def test_forced_law_gives_zero_defect():
    params = RRWParams.make(0.2, 0.5, 0.3)
    pmf, _ = rrw_forced_table(params, box=200)
    defect = product_defect_tv(rrw_joint_table(pmf, params))
    assert defect <= 1e-12


def test_wrong_law_gives_visible_defect():
    params = RRWParams.make(0.2, 0.5, 0.3)
    geo = Geometric(0.5)
    pmf = {k: Fraction(1, 2) ** (k + 1) for k in range(201)}
    defect = product_defect_tv(rrw_joint_table(pmf, params))
    assert defect > 1e-3


def test_product_table_has_zero_defect():
    my = {0: Fraction(1, 2), 1: Fraction(1, 2)}
    mv = {-1: Fraction(1, 3), 1: Fraction(2, 3)}
    cells = {(y, v): py * pv for y, py in my.items() for v, pv in mv.items()}
    assert product_defect_tv(JointTable(cells, Fraction(0))) == 0.0


# ---------------------------------------------------------------------------
# proof identities
# ---------------------------------------------------------------------------

def test_identities_interior_case():
    params = RRWParams.make(0.2, 0.5, 0.3)
    pmf, _ = rrw_forced_table(params)
    report = rrw_verify_proof_identities(
        pmf, params, rrw_joint_table(pmf, params))
    assert report.passed
    residuals = report.details["residuals"]
    assert all(v <= report.details["threshold"] for v in residuals.values())
    # (X,U) and (Y,V) are equal as exact tables up to the truncation edge
    assert residuals["xu_yv_identity"] <= report.details["threshold"]


def test_identities_boundary_case():
    params = RRWParams.make(0.3, 0.7, 0, 0.2)
    pmf, _ = rrw_forced_table(params)
    report = rrw_verify_proof_identities(
        pmf, params, rrw_joint_table(pmf, params))
    assert report.passed
    residuals = report.details["residuals"]
    assert residuals["y_even_mass"] <= 1e-12       # P(Y even) = q
    assert residuals["x_odd_mass"] <= 1e-12        # P(X odd) = p'


def test_identities_detect_perturbation():
    params = RRWParams.make(0.2, 0.5, 0.3)
    pmf, _ = rrw_forced_table(params)
    moved = dict(pmf)
    eps = Fraction(1, 1000)
    moved[0] -= eps
    moved[1] += eps
    report = rrw_verify_proof_identities(
        moved, params, rrw_joint_table(moved, params))
    assert not report.passed
    assert max(report.details["residuals"].values()) > 1e-4


def test_perturbed_tables_all_break_independence():
    params = RRWParams.make(0.2, 0.5, 0.3)
    tables = perturbed_tables(params)
    assert len(tables) >= 3
    for _, pmf in tables:
        defect = product_defect_tv(rrw_joint_table(pmf, params))
        assert defect > 1e-6


# ---------------------------------------------------------------------------
# lattice-map pushforward
# ---------------------------------------------------------------------------

def test_kdv_g1_preserves_product_measure():
    tv, tail, _ = kdv_pushforward_tv(0.5, 2, "g1", u_truncation=60)
    assert tail == 2.0 ** -63
    assert tv <= 10.0 * tail
    assert tv <= 1e-12


def test_kdv_g2_breaks_product_measure():
    tv, tail, witness = kdv_pushforward_tv(0.5, 2, "g2", u_truncation=60)
    assert tv > 1e-11
    assert tv > 10.0 * tail
    assert witness is not None


@pytest.mark.parametrize("theta", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("ell", [2, 4])
def test_kdv_dichotomy_grid(theta, ell):
    tv1, tail1, _ = kdv_pushforward_tv(theta, ell, "g1", u_truncation=60)
    tv2, tail2, _ = kdv_pushforward_tv(theta, ell, "g2", u_truncation=60)
    assert tv1 <= 10.0 * tail1
    assert tv2 > 10.0 * tail2


def test_kdv_argument_validation():
    with pytest.raises(LawError):
        kdv_pushforward_tv(1.5, 2, "g1")
    with pytest.raises(LawError):
        kdv_pushforward_tv(0.5, 3, "g1")
    with pytest.raises(LawError):
        kdv_pushforward_tv(0.5, 2, "g3")
    with pytest.raises(LawError):
        kdv_pushforward_tv(0.9, 2, "g1", u_truncation=10)   # tail too fat
