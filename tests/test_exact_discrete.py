"""Tests for the exact reflecting-random-walk characterization and the
lattice-map product-law dichotomy."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipmaps import exact_discrete
from ipmaps.exact_discrete import (
    RRWParams, _coprime_base, _power_of, _step_tables, _sums, cells, kdv_box,
    kdv_pushforward_tv, product_defect_tv, pushforward_cells, rrw_cell_fails,
    rrw_forced_law, rrw_forced_table, rrw_characterize, rrw_joint_table,
    rrw_verify_proof_identities,
)
from ipmaps.involutions import INTEGERS, InvolutionPair, catalog_get
from ipmaps.laws import (
    Bernoulli, FiniteTable, Geometric, LawError, ParityGeom, ShiftGeom,
    ThreePoint, TruncGeom, _geometric_factors, _multiply_out, _weight_atoms,
    factors, truncate,
)

# the (p, q, r, p') grid of the exact-enum benchmark workload
RRW_GRID = ((0.2, 0.5, 0.3, None), (0.1, 0.6, 0.3, None),
            (0.3, 0.7, 0.0, 0.3), (0.3, 0.7, 0.0, 0.15),
            (0.4, 0.6, 0.0, 0.2))
# and one more point of each case, with p close to q
RRW_WIDE_GRID = RRW_GRID + ((0.3, 0.35, 0.35, None), (0.45, 0.55, 0.0, 0.05))


def _fractions(table):
    """A table (nums, den), nums an array on the states 0, 1, ..., as a
    {state: Fraction} law."""
    nums, den = table
    return {k: Fraction(w, den) for k, w in enumerate(nums)}


def dense(table):
    """A table ({state: num}, den) on states from 0 as (array, den)."""
    nums, den = table
    return np.array([nums.get(k, 0) for k in range(max(nums) + 1)],
                    dtype=object), den


def factored(table):
    """A {state: weight} table in the factored form `product_defect_tv`
    reads, each positive weight an atom of its own."""
    return _weight_atoms(dict(zip(table, map(Fraction, table.values()))))


def defect(xs, us, ys, vs, *tables):
    """`product_defect_tv` on the {state: weight} tables mu, nu, mu_out and
    nu_out, each `factored`."""
    return product_defect_tv(xs, us, ys, vs, *map(factored, tables))


def geometric(theta, box):
    """The geometric table of ratio theta on the states 0..box, multiplied
    out, as (array, den)."""
    _, atoms, exps = _geometric_factors(theta, 0, box)
    return _multiply_out(atoms, exps), theta.denominator ** (box + 1)


def forced_table(params, box, y=False):
    """The forced table of X, or with `y` the table of Y, as (nums, den)."""
    nums, nums_y, den = rrw_forced_table(params, box)
    return nums_y if y else nums, den


def perturbed_tables(params, box=200, moves=((0, 1), (1, 0), (1, 2))):
    """The forced table with mass 1/1000 (or all of it, if less) moved
    between adjacent states, from a to b for each (a, b) of `moves`.

    The structured deviation family used to show that independence pins the
    law: every member must fail the cell identity.
    """
    nums, den = forced_table(params, box=box)
    out = []
    for a, b in moves:
        moved = 1000 * nums
        delta = min(den, moved[a])
        moved[a] -= delta
        moved[b] += delta
        out.append(((a, b), (moved, 1000 * den)))
    return out


def with_x_table(joint, table):
    """`joint` with the X table the proof identities read replaced, it and
    the forced Y table brought over one denominator."""
    cells, (_, dx), mu_y, steps = joint
    nums, den = table
    common = math.lcm(dx, den)
    return (cells, (nums * (common // den), common), mu_y * (common // dx),
            steps)


def beyond(joint):
    """The mass of X > box in the X table of `joint`, over its denominator."""
    (xs, *_), (nums, den), _, _ = joint
    return den - sum(nums[x] for x in range(int(xs[-1]) + 1))


def proof_identities(params, joint):
    """The proof identities' report on `joint`, reading the masses and the
    cell verdicts of its cells and the mass of X > box of its X table."""
    return rrw_verify_proof_identities(params, joint, beyond(joint),
                                       *rrw_cell_fails(joint))


def identities(params, box, table=None):
    """The proof identities' report on the box [0, box], for the forced X
    table or for `table`."""
    joint = rrw_joint_table(params, box)
    if table is not None:
        joint = with_x_table(joint, table)
    return proof_identities(params, joint)


def characterized_cells(params, box):
    """The cell identity of `rrw_characterize` on [0, box], as the
    (cells, failing, witness) of `product_defect_tv`."""
    details = rrw_characterize(params, box).details
    return tuple(details[k] for k in ("checked_cells", "failing_cells",
                                      "witness_cell"))


def rrw_cells(params, box, law_x, law_y):
    """`product_defect_tv` on the cells x in [0, box], u in the step
    support, with mu = law_x and mu' = law_y, arrays on the states from 0,
    brought over one denominator as `factored` dict tables."""
    (mu, dx), (mu_y, dy) = law_x, law_y
    den = math.lcm(dx, dy)
    mu = dict(enumerate(mu * (den // dx)))
    mu_y = dict(enumerate(mu_y * (den // dy)))
    nu, nu_v, _ = _step_tables(params)
    nu_v = dict(zip((-1, 0, 1), nu_v))
    xs = np.repeat(np.arange(box + 1), len(nu))
    us = np.tile(list(nu), box + 1)
    ys, vs = catalog_get("reflecting_rw")(xs, us)
    return defect(xs, us, ys, vs, mu, nu, mu_y, nu_v)


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

def test_params_validation():
    for p, q in ((0, 0.7), (0.7, 0)):
        with pytest.raises(LawError, match=r"need p,q in \(0,1\)"):
            RRWParams.make(p, q, 0.3)
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
    pmf, geo = _ref_pmf(law), _ref_pmf(Geometric(3 / 7))
    assert isinstance(law, ParityGeom)
    for k in range(20):
        assert float(pmf(k)) == pytest.approx(float(geo(k)), rel=1e-12)


def test_forced_law_boundary_case_parity():
    params = RRWParams.make(0.3, 0.7, 0, 0.2)
    law = rrw_forced_law(params)
    assert isinstance(law, ParityGeom)
    assert law.podd == pytest.approx(0.2, abs=1e-15)
    assert law.rho ** 2 == pytest.approx(3 / 28, rel=1e-12)


def test_forced_table_is_exact():
    params = RRWParams.make(0.2, 0.5, 0.3)
    nums, den = forced_table(params, box=50)
    pmf = _fractions((nums, den))
    assert pmf[0] == Fraction(3, 5)
    assert pmf[1] == Fraction(3, 5) * Fraction(2, 5)
    assert Fraction(den - nums.sum(), den) == Fraction(2, 5) ** 51


def test_forced_law_of_y_swaps_the_parity_weights():
    params = RRWParams.make(0.3, 0.7, 0, 0.2)
    pmf_x = _fractions(forced_table(params, box=3))
    pmf_y = _fractions(forced_table(params, box=3, y=True))
    assert [pmf_y[k] / pmf_x[k] for k in range(4)] == \
        [params.q / params.qprime, params.p / params.pprime] * 2
    # at r > 0 both are the one geometric table, and at r = 0 where p' = p
    # both are X's array
    for grid in ((0.2, 0.5, 0.3), (0.3, 0.7, 0, 0.3), (0.3, 0.7, 0, 0.2)):
        nums, nums_y, _ = rrw_forced_table(RRWParams.make(*grid), 9)
        assert np.shares_memory(nums, nums_y) == (grid[-1] != 0.2)


def _ref_pmf(law):
    """The law's pmf in Fractions, its parameters read as decimals, from
    its definition: a finite law over the sum of its weights."""
    d = lambda x: Fraction(str(x))
    if isinstance(law, (Geometric, ShiftGeom)):
        lo, theta = law.support_lo, d(law.theta)
        return lambda k: (1 - theta) * theta ** (k - lo) if k >= lo else 0
    if isinstance(law, ParityGeom):
        rho2, podd = d(law.rho) ** 2, d(law.podd)
        return lambda k: (podd if k % 2 else 1 - podd) * (1 - rho2) * \
            rho2 ** (k // 2) if k >= 0 else 0
    if isinstance(law, TruncGeom):
        weights = {k: d(law.theta) ** k for k in range(-law.ell, law.ell + 1)}
    elif isinstance(law, Bernoulli):
        weights = {0: 1 - d(law.p), 1: d(law.p)}
    elif isinstance(law, ThreePoint):
        weights = {-1: d(law.q), 0: d(law.r), 1: d(law.p)}
    else:
        weights = dict(zip(law.support.tolist(), map(d, law.probs.tolist())))
    total = sum(weights.values())
    return lambda k: weights.get(k, 0) / total


@pytest.mark.parametrize("law, hi", [
    (Geometric(0.4), 30), (ShiftGeom(0.5, 4), 12), (TruncGeom(0.3, 4), 1),
    (TruncGeom(0.3, 4), 9), (ParityGeom(0.5, 0.3), 7),
    (ParityGeom(0.5, 0.3), 8), (Bernoulli(0.7), 1), (Bernoulli(0.7), 0),
    (ThreePoint(0.2, 0.5, 0.3), 1), (FiniteTable([-1, 3], [0.25, 0.75]), 2),
], ids=repr)
def test_law_table_is_each_law_in_integers(law, hi):
    nums, den, tail = truncate(law, hi)
    pmf = _ref_pmf(law)
    box = range(law.support_lo, hi + 1)
    assert list(nums) == [k for k in box if pmf(k) > 0]
    for k in box:
        assert Fraction(nums.get(k, 0), den) == pmf(k)
    assert tail == den - sum(nums.values()) >= 0
    assert Fraction(tail, den) == 1 - sum(pmf(k) for k in box)


def test_law_table_reads_parameters_as_decimals():
    # 1 - 0.7 is the float 0.30000000000000004, not 3/10
    assert _fractions(dense(truncate(Bernoulli(0.7), 1)[:2])) == \
        {0: Fraction(3, 10), 1: Fraction(7, 10)}
    nums, den, tail = truncate(Geometric(0.4), 5)
    assert Fraction(tail, den) == Fraction(2, 5) ** 6
    # parity weights 7/10 and 3/10 on rho^2 = 1/4
    nums, den, tail = truncate(ParityGeom(0.5, 0.3), 4)
    assert Fraction(tail, den) == \
        Fraction(7, 10) / 4 ** 3 + Fraction(3, 10) / 4 ** 2
    # a finite law is over the sum of its weights: its tail is 0 exactly
    assert truncate(ThreePoint(1 / 3, 1 / 3, 1 / 3), 1)[2] == 0


# ---------------------------------------------------------------------------
# joint table and the cell identity
# ---------------------------------------------------------------------------

def test_joint_from_point_mass_at_zero():
    # the cells of box 1 in x-major order and their image; with X = 0 the
    # weights mu(x) nu(u) of the cells give H's law
    params = RRWParams.make(0.2, 0.5, 0.3)
    joint = rrw_joint_table(params, 1)
    (xs, us, ys, vs), _, _, (nu, _, du) = joint
    assert list(zip(xs.tolist(), us.tolist())) == \
        [(0, -1), (0, 0), (0, 1), (1, -1), (1, 0), (1, 1)]
    assert list(zip(ys.tolist(), vs.tolist())) == \
        [(0, -1), (0, 0), (1, -1), (0, 1), (1, 0), (2, -1)]
    mu = np.array([1, 0, 0], dtype=object)
    law = {(y, v): Fraction(mu[x] * nu[u], du)
           for x, u, y, v in zip(xs.tolist(), us.tolist(), ys.tolist(),
                                 vs.tolist()) if mu[x]}
    assert law == {(1, -1): Fraction(1, 5), (0, -1): Fraction(1, 2),
                   (0, 0): Fraction(3, 10)}
    # P(Y=0) = q + r moves the boundary identity P(X=0) q = P(Y=0) q'
    joint = with_x_table(joint, (mu, 1))
    details = proof_identities(params, joint).details
    assert details["boundary"] == \
        {"checked": 1, "failing": 1, "first_failing": (0, -1)}


@pytest.mark.parametrize("grid", [(0.2, 0.5, 0.3), (0.4, 0.6, 0, 0.2)],
                         ids=str)
def test_table_denominator_does_not_change_a_report(grid):
    # the identities are integer equalities: scaling a table's numerators
    # and its denominator together changes none of them
    params = RRWParams.make(*grid)
    for (_, law_x) in perturbed_tables(params, box=30):
        nums, den = law_x
        scaled = (7 * nums, 7 * den)
        a, b = identities(params, 30, law_x), identities(params, 30, scaled)
        assert not a.passed
        assert a.details == b.details


def test_forced_law_gives_zero_defect():
    params = RRWParams.make(0.2, 0.5, 0.3)
    assert characterized_cells(params, 200) == (603, 0, None)
    law_x = forced_table(params, 201)
    law_y = forced_table(params, 201, y=True)
    assert rrw_cells(params, 200, law_x, law_y) == (603, 0, None)


def test_wrong_law_gives_visible_defect():
    params = RRWParams.make(0.2, 0.5, 0.3)
    # 2^-(k+1)
    table = (np.array([2 ** (201 - k) for k in range(202)], dtype=object),
             2 ** 202)
    cells, failing, witness = rrw_cells(
        params, 200, table, forced_table(params, 201, y=True))
    assert (cells, witness) == (603, (0, -1))
    assert failing > 0


def test_output_law_equal_to_the_input_law_fails_every_cell():
    # at r = 0 and p' != p, Y has parity weights (q, p), not X's (q', p')
    params = RRWParams.make(0.3, 0.7, 0, 0.15)
    law_x = forced_table(params, 41)
    ref_cells, ref_failing = _ref_rrw_cells(params, 40, y=False)
    assert rrw_cells(params, 40, law_x, law_x) == \
        (ref_cells, len(ref_failing), ref_failing[0]) == (82, 82, (0, -1))
    assert characterized_cells(params, 40) == (82, 0, None)


def test_product_table_has_zero_defect():
    # the swap H(x, u) = (u, x) carries mu (x) nu to nu (x) mu; weights
    # over 6: mu halves on {0, 1}, nu thirds on {-1, 1}
    mu, nu = {0: 3, 1: 3}, {-1: 2, 1: 4}
    xs, us = np.repeat([0, 1], 2), np.tile([-1, 1], 2)
    assert defect(xs, us, us, xs, mu, nu, nu, mu) == (4, 0, None)
    # mu (x) nu itself is not: every cell but the fixed point (1, 1) fails
    assert defect(xs, us, us, xs, mu, nu, mu, nu) == (4, 3, (0, -1))


def _ref_product_defect(xs, us, ys, vs, mu, nu, mu_out, nu_out):
    """`product_defect_tv` one cell at a time, in the cells' order."""
    failing = [(x, u) for x, u, y, v in zip(xs.tolist(), us.tolist(),
                                            ys.tolist(), vs.tolist())
               if mu_out.get(y, 0) * nu_out.get(v, 0)
               != mu.get(x, 0) * nu.get(u, 0)]
    return len(xs), len(failing), failing[0] if failing else None


@pytest.mark.parametrize("seed", range(12))
def test_product_defect_tv_matches_a_per_cell_reference(seed):
    rng = np.random.default_rng(seed)
    # spread 1 keeps every key range dense, 10^6 sparse
    spread = 10 ** 6 if seed % 3 == 0 else 1

    def table():
        # weights 0, small or of hundreds of digits, on some of -5..5
        states = rng.choice(np.arange(-5, 6), 8, replace=False).tolist()
        return {spread * k: [0, int(rng.integers(1, 9)),
                             int(rng.integers(1, 9)) * 10 ** 300][
                                 rng.integers(3)] for k in states}

    mu, nu, mu_out, nu_out = table(), table(), table(), table()
    # keys from -8 to 8 reach past the tables on both sides
    xs, us = cells(spread * np.arange(-8, 9), spread * np.arange(-8, 4))
    ys, vs = (spread * rng.integers(-8, 9, len(xs)) for _ in range(2))
    assert defect(xs, us, ys, vs, mu, nu, mu_out, nu_out) == \
        _ref_product_defect(xs, us, ys, vs, mu, nu, mu_out, nu_out)

    # the identity H = id holds at every cell, zero cells included, until
    # two cells of positive mass are sent off the tables; the witness is
    # the first of them in x-major order
    ys, vs = xs.copy(), us.copy()
    assert defect(xs, us, ys, vs, mu, nu, mu, nu) == (len(xs), 0, None)
    heavy = [i for i, (x, u) in enumerate(zip(xs.tolist(), us.tolist()))
             if mu.get(x, 0) * nu.get(u, 0)]
    i, j = sorted(rng.choice(heavy, 2, replace=False).tolist())
    ys[[j, i]] = spread * 99
    assert defect(xs, us, ys, vs, mu, nu, mu, nu) == \
        _ref_product_defect(xs, us, ys, vs, mu, nu, mu, nu) == \
        (len(xs), 2, (xs[i].item(), us[i].item()))


def test_product_defect_tv_on_no_cells():
    empty = np.array([], dtype=np.int64)
    assert defect(*[empty] * 4, {0: 1}, {0: 1}, {0: 1}, {0: 1}) == \
        (0, 0, None)


# ---------------------------------------------------------------------------
# proof identities
# ---------------------------------------------------------------------------

def _counts(report):
    return {name: (r["checked"], r["failing"])
            for name, r in report.details.items()}


def test_identities_interior_case():
    report = identities(RRWParams.make(0.2, 0.5, 0.3), 200)
    assert report.passed
    assert _counts(report) == {
        "boundary": (1, 0), "zero_step": (200, 0), "down_up": (200, 0),
        "up_down": (199, 0), "total_up": (1, 0), "v_law": (3, 0)}


def test_identities_boundary_case():
    # no step 0 at r = 0; the parity identities over the 100 pairs
    # {2n, 2n+1} with 2n + 1 <= 199, where Y's marginal is exact
    report = identities(RRWParams.make(0.3, 0.7, 0, 0.2), 200)
    assert report.passed
    assert _counts(report) == {
        "boundary": (1, 0), "down_up": (200, 0), "up_down": (199, 0),
        "total_up": (1, 0), "v_law": (2, 0), "parity_down": (100, 0),
        "parity_up": (100, 0), "x_odd_mass": (100, 0),
        "y_even_mass": (100, 0), "parity_balance": (100, 0)}


def test_identities_detect_perturbation():
    params = RRWParams.make(0.2, 0.5, 0.3)
    [(_, moved), *_] = perturbed_tables(params)   # 1/1000 from 0 to 1
    report = identities(params, 200, moved)
    assert not report.passed
    details = report.details
    assert details["boundary"]["first_failing"] == (0, -1)
    assert details["total_up"] == \
        {"checked": 1, "failing": 1, "first_failing": 1}
    # a down-step from X = 0 reflects to V = -1, from X = 1 gives V = 1
    assert details["v_law"] == \
        {"checked": 3, "failing": 2, "first_failing": -1}


@pytest.mark.parametrize("box", [1, 5, 20, 200])
def test_identities_reject_a_geometric_law_of_the_wrong_rate(box):
    # at p, q, r = 0.2, 0.5, 0.3 the forced rate is p / q = 2/5
    params = RRWParams.make(0.2, 0.5, 0.3)
    for theta in (Fraction(1, 5), Fraction(2, 5), Fraction(1, 2),
                  Fraction(3, 5)):
        report = identities(params, box,
                            geometric(theta, box + 1))
        assert report.passed == (theta == Fraction(2, 5)), (theta, report)


@pytest.mark.parametrize("grid", [g for g in RRW_GRID if g[2] == 0], ids=str)
def test_identities_reject_a_wrong_geometric_law_at_box_1(grid):
    # p' = p forces the geometric law of rate p / q; p' != p none
    params = RRWParams.make(*grid)
    theta = params.p / params.q
    if params.pprime == params.p:
        theta /= 2
        assert identities(params, 1,
                          geometric(2 * theta, 2)).passed
    assert not identities(params, 1,
                          geometric(theta, 2)).passed


def test_perturbed_tables_all_break_independence():
    # the cells whose x carries moved mass fail, and no other cell
    for grid, cells in (((0.2, 0.5, 0.3), 603), ((0.3, 0.7, 0, 0.15), 402)):
        params = RRWParams.make(*grid)
        law_y = forced_table(params, 201, y=True)
        tables = perturbed_tables(params, box=201)
        assert len(tables) >= 3
        steps = len(_step_tables(params)[0])
        for (a, b), table in tables:
            assert rrw_cells(params, 200, table, law_y) == \
                (cells, 2 * steps, (min(a, b), -1))


@pytest.mark.parametrize("box", [20, 21])
@pytest.mark.parametrize("grid", RRW_WIDE_GRID, ids=str)
def test_truncation_tail_is_the_closed_form(grid, box):
    # P(X > box) of the forced law: theta^(box + 1) for the geometric law
    # with theta = p / q; at r = 0, rho^2 to the power box // 2 + 1 for the
    # parity pairs {2m, 2m + 1} past the box, and at an even box also the
    # odd state box + 1, p' (1 - rho^2) rho^(2 (box // 2))
    p, q, r, pprime = (Fraction(str(v)) if v is not None else None
                       for v in grid)
    if r > 0:
        tail = (p / q) ** (box + 1)
    else:
        rho2 = p * pprime / (q * (p + q - pprime))
        tail = rho2 ** (box // 2 + 1)
        if box % 2 == 0:
            tail += pprime * (1 - rho2) * rho2 ** (box // 2)
    details = rrw_characterize(RRWParams.make(*grid), box).details
    assert details["truncation_tail"] == float(tail)


@pytest.mark.parametrize("grid, bound", [((0.2, 0.5, 0.3), 2.6e6),
                                         ((0.3, 0.7, 0, 0.15), 3.3e6)],
                         ids=str)
def test_rrw_characterize_holds_the_masses_and_a_block_of_products(grid,
                                                                   bound):
    # the tables, one mass a cell (some 1 MB of 2,300 to 3,500-bit ints at
    # box 1000) and one block of products; whole product arrays of the cell
    # or proof identities reach past the bound
    params = RRWParams.make(*grid)
    rrw_characterize(params, 20)   # first-call caches, outside the trace
    tracemalloc.start()
    try:
        report = rrw_characterize(params, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < bound, f"{peak / 1e6:.2f} MB"


# ---------------------------------------------------------------------------
# lattice-map pushforward
# ---------------------------------------------------------------------------

def test_kdv_g1_preserves_product_measure():
    assert kdv_pushforward_tv(0.5, 2, "g1", 60) == (5 * 63, 0, None)


def test_kdv_g2_breaks_product_measure():
    n_cells, failing, witness = kdv_pushforward_tv(0.5, 2, "g2", 60)
    # g2 moves the product law exactly on the cells with x + u > 0
    xs, us = cells(range(-2, 3), range(-2, 61))
    assert (n_cells, failing) == (len(xs), int((xs + us > 0).sum()))
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


def test_pushforward_cells_reads_a_state_off_a_table_as_weight_0():
    # ThreePoint(0.2, 0.8, 0) has no step 0, so its table leaves u = 0 out;
    # each cell (x, 0) is its own image, with weight 0 on either side
    pair, nu = catalog_get("reflecting_rw"), ThreePoint(0.2, 0.8, 0)
    assert pushforward_cells(pair, Geometric(0.25), nu, 5, 1) == \
        (18, 0, None)
    # the x range stops at 5, the u range at nu's support_hi
    cells, failing, witness = pushforward_cells(pair, Geometric(0.5), nu,
                                                5, 9)
    assert (cells, witness) == (18, (0, 1)) and failing > 0


# ratios of the geometric kinds, in pairs that are powers of one another,
# so that the tables of mu and nu share atoms that are not coprime
RATIOS = (0.5, 0.25, 0.2, 0.04, 0.3, 0.09)


@st.composite
def integer_laws(draw, steps=False):
    """A law of any integer kind; with `steps`, one on {-1, 0, 1}, which is
    reflecting_rw's noise space."""
    ratio = st.one_of(st.sampled_from(RATIOS), st.floats(0.01, 0.99))
    ell = st.sampled_from((2, 4, 6))
    prob = st.one_of(st.sampled_from((0.0, 1.0, 0.5, 0.3)),
                     st.floats(0.0, 1.0))
    support = st.lists(st.integers(-1, 1) if steps else st.integers(-3, 6),
                       min_size=1, max_size=5, unique=True)
    weights = support.flatmap(lambda v: st.tuples(st.just(v), st.lists(
        st.floats(0.05, 1.0), min_size=len(v), max_size=len(v))))
    kinds = {
        "bernoulli": st.builds(Bernoulli, prob),
        "three_point": st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(
            lambda pq: ThreePoint(pq[0] * pq[1], pq[0] * (1 - pq[1]),
                                  1 - pq[0])),
        # probabilities of some 17 digits: w / sum(w)
        "finite_table": weights.map(lambda vw: FiniteTable(
            vw[0], [w / sum(vw[1]) for w in vw[1]])),
    }
    if not steps:
        kinds.update({
            "geometric": st.builds(Geometric, ratio),
            "trunc_geom": st.builds(TruncGeom, ratio, ell),
            "shift_geom": st.builds(ShiftGeom, ratio, ell),
            "parity_geom": st.builds(ParityGeom, ratio,
                                     st.floats(0.01, 0.99))})
    return draw(kinds[draw(st.sampled_from(sorted(kinds)))])


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(("kdv_g1", "kdv_g2", "reflecting_rw")), st.data(),
       st.integers(1, 40))
def test_pushforward_cells_matches_the_per_cell_big_integer_reference(
        name, data, box):
    # every integer law kind on its truncate tables, from 1 to 40 wide
    mu = data.draw(integer_laws())
    nu = data.draw(integer_laws(steps=name == "reflecting_rw"))
    pair = catalog_get(name)
    x_hi, u_hi = mu.support_lo + box, nu.support_lo + box
    assert pushforward_cells(pair, mu, nu, x_hi, u_hi) == \
        _ref_pushforward_cells(pair, mu, nu, x_hi, u_hi)


def _ref_pushforward_cells(pair, mu, nu, x_hi, u_hi):
    """`pushforward_cells` by `_ref_product_defect` on `truncate` tables."""
    xs, us = cells(np.arange(mu.support_lo, min(x_hi, mu.support_hi) + 1),
                   np.arange(nu.support_lo, min(u_hi, nu.support_hi) + 1))
    ys, vs = pair(xs, us)
    mu_w = truncate(mu, int(ys.max(initial=x_hi)))[0]
    nu_w = truncate(nu, int(vs.max(initial=u_hi)))[0]
    return _ref_product_defect(xs, us, ys, vs, mu_w, nu_w, mu_w, nu_w)


@pytest.mark.parametrize("states, equal, int64", [
    (4, False, True), (60, False, False), (64, True, True)])
def test_pushforward_cells_on_finite_tables_of_many_states(states, equal,
                                                           int64):
    # probabilities of some 17 digits, each weight an atom: the cells are
    # read on int64 exponent codes below 40 atoms, and on the weights from
    # 40 on; 64 equal weights have one atom, 1, and an empty base
    rng = np.random.default_rng(states)
    mu, nu = (FiniteTable(np.arange(states) - states // 2,
                          np.full(states, 1 / states) if equal else
                          rng.dirichlet(np.ones(states))) for _ in range(2))
    atoms = {a for law in (mu, nu) for a in factors(law, 0)[1]}
    assert (len(atoms) < 40) == int64
    for name in ("kdv_g1", "kdv_g2"):
        pair = catalog_get(name)
        assert pushforward_cells(pair, mu, nu, 99, 99) == \
            _ref_pushforward_cells(pair, mu, nu, 99, 99)


def test_product_defect_tv_reads_dependent_atoms_through_one_base():
    # Geometric(1/2) and ShiftGeom(1/4, 2) share the prime 2 through their
    # atoms 2 and 4: mu(x) nu(u) = mu(x - 2) nu(u + 1) wherever both sides
    # are on their tables, which 2 and 4 read as independent atoms miss
    laws = Geometric(0.5), ShiftGeom(0.25, 2)
    xs, us = cells(np.arange(0, 9), np.arange(-2, 9))
    ys, vs = xs - 2, us + 1
    mu, nu = (truncate(law, 8)[0] for law in laws)
    expected = _ref_product_defect(xs, us, ys, vs, mu, nu, mu, nu)
    mu, nu = (factors(law, 8) for law in laws)
    assert product_defect_tv(xs, us, ys, vs, mu, nu, mu, nu) == expected
    # the cells with x < 2 or u = 8 fail, their image off a table
    assert expected == (99, 29, (0, -2))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(
    st.integers(1, 10 ** 6),
    st.tuples(st.sampled_from((2, 3, 6, 10, 12, 91)),
              st.integers(0, 300)).map(lambda b: b[0] ** b[1]),
    st.integers(1, 10 ** 40)), min_size=1, max_size=8))
def test_coprime_base_is_pairwise_coprime_and_factors_every_atom(atoms):
    base = _coprime_base(atoms)
    assert all(b > 1 for b in base)
    assert all(math.gcd(a, b) == 1 for i, a in enumerate(base)
               for b in base[i + 1:])
    for atom in atoms:
        rest = atom
        for b in base:
            k, quotient = _power_of(atom, b)
            # b^k is the largest power of b that divides the atom
            assert quotient * b ** k == atom and quotient % b != 0
            assert rest % b ** k == 0
            rest //= b ** k
        assert rest == 1, (atom, base)


def test_pushforward_cells_makes_no_big_integer_products(monkeypatch):
    # the cell identity is decided on exponent vectors: the helpers that
    # sum or compare big-integer masses (detailed balance's and the walk's)
    # are not called
    def refuse(*args, **kwargs):
        raise AssertionError("a big-integer mass helper was called")

    for helper in ("_unequal", "_sums"):
        monkeypatch.setattr(exact_discrete, helper, refuse)
    assert kdv_pushforward_tv(0.3, 8, "g1", 200) == (17 * 209, 0, None)
    assert kdv_pushforward_tv(0.3, 8, "g2", 200)[1] > 0
    assert pushforward_cells(catalog_get("reflecting_rw"), Geometric(0.4),
                             ThreePoint(0.2, 0.5, 0.3), 200, 1) == \
        (603, 0, None)


# ---------------------------------------------------------------------------
# reference: the same quantities by Fraction arithmetic cell by cell
# ---------------------------------------------------------------------------

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


def _ref_step_laws(params):
    """The laws of U and V as {step: Fraction}; the step 0 only when r>0."""
    pv = params.p if params.r > 0 else params.pprime
    nu = {-1: params.q, 0: params.r, 1: params.p}
    nu_v = {-1: params.qprime, 0: params.r, 1: pv}
    if params.r == 0:
        del nu[0], nu_v[0]
    return nu, nu_v


def _ref_identities(params, pmf, box):
    """Each proof identity, state by state in Fraction arithmetic, from the
    pmf of X on [0, box] (its deficit the mass of X > box): {name: (states
    checked, states failing, first failing state)}."""
    nu, nu_v = _ref_step_laws(params)
    pair = catalog_get("reflecting_rw")
    cells = [(x, u, *(int(c) for c in pair(x, u)))
             for x in range(box + 1) for u in nu]
    p_y, p_v = {}, {}
    for x, u, y, v in cells:
        p_y[y] = p_y.get(y, 0) + pmf[x] * nu[u]
        p_v[v] = p_v.get(v, 0) + pmf[x] * nu[u]
    checks = {"boundary": [], "zero_step": [], "down_up": [], "up_down": []}
    for x, u, y, v in cells:
        if y <= box - 1:     # every cell reaching y lies in the box
            name = "boundary" if (x, u) == (0, -1) else \
                {0: "zero_step", -1: "down_up", 1: "up_down"}[u]
            checks[name].append(((x, u), pmf[x] * nu[u] == p_y[y] * nu_v[v]))
    if params.r == 0:
        del checks["zero_step"]
    # every X > box steps to X + U > 0, so V = -U there
    beyond = 1 - sum(pmf[x] for x in range(box + 1))
    checks["total_up"] = [(1, (1 - pmf[0]) * params.q == nu_v[1])]
    checks["v_law"] = [(v, p_v[v] + beyond * nu[-v] == nu_v[v])
                       for v in nu_v]
    if params.r == 0:
        for name in ("parity_down", "parity_up", "x_odd_mass", "y_even_mass",
                     "parity_balance"):
            checks[name] = []
        for n in range(box // 2):
            # the pairs {0, 1}, ..., {2n, 2n+1}; 2n + 1 <= box - 1
            x_odd = sum(pmf[k] for k in range(1, 2 * n + 2, 2))
            x_even = sum(pmf[k] for k in range(0, 2 * n + 2, 2))
            y_odd = sum(p_y[k] for k in range(1, 2 * n + 2, 2))
            y_even = sum(p_y[k] for k in range(0, 2 * n + 2, 2))
            x_odd_c, y_even_c = (x_odd / (x_odd + x_even),
                                 y_even / (y_even + y_odd))
            for name, holds in (
                    ("parity_down", x_odd * params.q == y_even * nu_v[1]),
                    ("parity_up", x_even * params.p == y_odd * nu_v[-1]),
                    ("x_odd_mass", x_odd_c == nu_v[1]),
                    ("y_even_mass", y_even_c == params.q),
                    ("parity_balance",
                     x_odd_c + params.q == y_even_c + nu_v[1])):
                checks[name].append(((2 * n, 2 * n + 1), holds))
    out = {}
    for name, states in checks.items():
        failing = [state for state, holds in states if not holds]
        out[name] = (len(states), len(failing),
                     failing[0] if failing else None)
    return out


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

    ref_mu, ref_nu = _ref_pmf(mu_law), _ref_pmf(nu_law)
    for k in range(-ell, M + 1):
        assert mu(k) == ref_mu(k) and nu(k) == ref_nu(k)
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
    pmf = _ref_pmf(rrw_forced_law(params))
    for k in range(box + 2):
        assert float(mu[k]) == pytest.approx(float(pmf(k)), rel=1e-12)
    pv = params.p if params.r > 0 else params.pprime
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


@pytest.mark.parametrize("grid", RRW_GRID, ids=str)
def test_integer_tables_match_fraction_reference(grid):
    params = RRWParams.make(*grid)
    for box in (200, 5):
        # a short box leaves a tail far above float resolution
        nums, den = forced_table(params, box=box)
        pmf, tail = _ref_forced_table(params, box)
        assert _fractions((nums, den)) == pmf
        assert Fraction(den - nums.sum(), den) == tail
        assert _fractions(forced_table(params, box, y=True)) == \
            _ref_forced_table(params, box, y=True)[0]
        forced = forced_table(params, box + 1)
        moved = [table for _, table in perturbed_tables(params, box)]
        for table in [forced] + moved:
            details = identities(params, box, table).details
            got = {name: (r["checked"], r["failing"], r["first_failing"])
                   for name, r in details.items()}
            assert got == _ref_identities(params, _fractions(table), box)
            # the comparison covers failing states
            assert (table is forced) == all(
                r["failing"] == 0 for r in details.values())


def _branches(joint):
    """Per state y <= box - 1, whether the proof identities multiply out
    mass du = my(y) nu'(v) there, Y's summed law my(y) being off the forced
    Y law times du; and whether a failing cell verdict is read at the
    other states."""
    (xs, _, ys, _), _, mu_y, (_, _, du) = joint
    box = int(xs[-1])
    mass, fails = rrw_cell_fails(joint)
    _, my = _sums(ys, mass)
    off = my[:box] != mu_y[:box] * du
    reused = (ys <= box - 1) & ~off[np.minimum(ys, box - 1)]
    return off, bool(fails[reused].any())


@pytest.mark.parametrize("grid", RRW_WIDE_GRID, ids=str)
def test_identities_reading_cell_verdicts_match_a_direct_reference(grid):
    # where Y's summed law is the forced Y law times du, a per-state identity
    # reads the cell check's verdict, and elsewhere it is multiplied out; the
    # reference decides every state in Fractions and reads no cell verdict.
    # The forced tables read the verdicts at every state; Y's table off at
    # y = 0 (as `off_at_zero` in test_cli.py) and X with mass moved
    # (`perturbed_tables`) take the direct branch at some states
    params = RRWParams.make(*grid)
    reused_failing = False
    for box in range(1, 41):
        joint = rrw_joint_table(params, box)
        cells, x_table, mu_y, steps = joint
        off_y = mu_y.copy()
        off_y[0] += 1
        cases = [joint, (cells, x_table, off_y, steps)] + [
            with_x_table(joint, table)
            for _, table in perturbed_tables(params, box + 1)]
        for i, case in enumerate(cases):
            details = proof_identities(params, case).details
            got = {name: tuple(r[k] for k in ("checked", "failing",
                                              "first_failing"))
                   for name, r in details.items()}
            assert got == _ref_identities(params, _fractions(case[1]), box)
            off, failing = _branches(case)
            if i < 2:   # forced, or off at y = 0 alone
                assert off.tolist() == [i == 1] + [False] * (box - 1)
            else:       # moved mass: both branches from box 5 on
                assert off.any() or box == 1
                assert not off.all() or box < 5
            reused_failing |= failing
    # mass moved between 0 and 1 leaves my(0) as it was at r = 0, and mass
    # moved from 1 to 2 leaves my(1) at q = r, while cells that reach that
    # y fail: their failing verdicts are read
    assert reused_failing == (params.r == 0 or params.q == params.r)


@pytest.mark.parametrize("grid", [g for g in RRW_GRID if g[2] == 0], ids=str)
def test_parity_prefix_perturbed_deep_matches_fraction_reference(grid):
    # mass moved inside the pair {100, 101} and across {100, 101} and
    # {102, 103}: every parity sum holds over the pairs up to {96, 97} and
    # fails from the pairs near 100, and parity_balance multiplies out only
    # at the pairs where x_odd_mass or y_even_mass fails
    params = RRWParams.make(*grid)
    for _, table in perturbed_tables(params, 200, ((100, 101), (101, 102))):
        details = identities(params, 200, table).details
        got = {name: (r["checked"], r["failing"], r["first_failing"])
               for name, r in details.items()}
        assert got == _ref_identities(params, _fractions(table), 200)
        for name in ("parity_down", "parity_up", "x_odd_mass",
                     "y_even_mass", "parity_balance"):
            checked, failing, first = got[name]
            assert 0 < failing < checked and first[0] in (98, 100), name
        # of the 50 or so pairs where a or b is nonzero, the balance holds
        # at all but one or two
        assert got["parity_balance"][1] < got["x_odd_mass"][1]


@pytest.mark.parametrize("grid", RRW_WIDE_GRID, ids=str)
def test_rrw_cells_match_fraction_reference(grid):
    params = RRWParams.make(*grid)
    steps = 3 if params.r > 0 else 2
    for box in (*range(1, 41), 200):
        ref_cells, ref_failing = _ref_rrw_cells(params, box)
        assert (ref_cells, ref_failing) == ((box + 1) * steps, [])
        assert characterized_cells(params, box) == (ref_cells, 0, None)


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
