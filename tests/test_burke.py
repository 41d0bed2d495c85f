"""Tests for the lattice field recursion and its row/column properties."""

import json
from fractions import Fraction
from itertools import count

import numpy as np
import pytest

from ipmaps.burke import (
    LatticeField, _dual_kernel_row, _kernel_row, _loglik_mc_test, _MC_SEED,
    _transition_gof, check_recursion, field_rows, require_field_shape,
    simulate_field, verify_burke,
)
from ipmaps.cli import _validate_stanza, main, run
from ipmaps.involutions import POSITIVE_REAL, InvolutionPair, catalog_get
from ipmaps.kernels import KernelError
from ipmaps.laws import (
    Gamma, Geometric, GIG, ShiftGeom, ThreePoint, TruncGeom,
)
from ipmaps.reports import VerificationReport
from ipmaps.rng import RandomStream


def _rrw_field(seed, N=50, T=50, nu=None):
    pair = catalog_get("reflecting_rw")
    mu = Geometric(0.4)
    nu = nu or ThreePoint(0.2, 0.5, 0.3)
    return simulate_field(pair, mu, nu, N, T, RandomStream(seed))


def _my_field(seed, N=50, T=50):
    pair = catalog_get("matsumoto_yor")
    return simulate_field(pair, GIG(2, 1), Gamma(2, 1), N, T,
                          RandomStream(seed))


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def test_field_shapes():
    field = _rrw_field(1, N=40, T=35)
    assert field.X.shape == (40, 36)
    assert field.U.shape == (41, 35)
    assert field.shape == (40, 35)


def test_single_site_field_is_one_application_of_h():
    pair = catalog_get("reflecting_rw")
    field = simulate_field(pair, Geometric(0.4), ThreePoint(0.2, 0.5, 0.3),
                           1, 1, RandomStream(3))
    x0, u0 = field.X[0, 0], field.U[0, 0]
    assert field.X[0, 1] == pair.f(x0, u0)
    assert field.U[1, 0] == pair.g(x0, u0)


def _scalar_field(pair, mu, nu, N, T, rng):
    """Row-major site-by-site recursion: the reference for the wavefront."""
    mu_rng, nu_rng = rng.split(2)
    X = np.empty((N, T + 1))
    U = np.empty((N + 1, T))
    X[:, 0] = np.asarray(mu.sample(mu_rng, N), dtype=float)
    U[0, :] = np.asarray(nu.sample(nu_rng, T), dtype=float)
    for n in range(N):
        for t in range(T):
            X[n, t + 1] = pair.f(X[n, t], U[n, t])
            U[n + 1, t] = pair.g(X[n, t], U[n, t])
    return X, U


_WAVEFRONT_MAPS = {
    "reflecting_rw": (Geometric(0.4), ThreePoint(0.2, 0.5, 0.3)),
    "matsumoto_yor": (GIG(2, 1), Gamma(2, 1)),
    "kdv_g1": (TruncGeom(0.5, 2), ShiftGeom(0.5, 2)),
}


@pytest.mark.parametrize("name", sorted(_WAVEFRONT_MAPS))
@pytest.mark.parametrize("N, T", [(23, 9), (7, 31), (1, 1), (1, 17)])
def test_wavefront_matches_scalar_recursion(name, N, T):
    pair = catalog_get(name)
    mu, nu = _WAVEFRONT_MAPS[name]
    field = simulate_field(pair, mu, nu, N, T, RandomStream(29))
    X, U = _scalar_field(pair, mu, nu, N, T, RandomStream(29))
    assert np.array_equal(field.X, X)
    assert np.array_equal(field.U, U)


class _RowStarts:
    """State law stub whose n-th draw is 100 n, so X[n, t] = 100 n + t."""

    def sample(self, rng, size):
        return 100.0 * np.arange(1, size + 1)


class _Ones:
    def sample(self, rng, size):
        return np.ones(size)


def test_escape_reports_row_major_first_site():
    # (n=5, t=2) lies on anti-diagonal 5, (n=1, t=9) on the later 8, but
    # (n=1, t=9) comes first in row-major order
    bad = (100 * 1 + 9, 100 * 5 + 2)

    def f(x, u):
        y = x + 1.0
        return np.where(np.isin(y, bad), -1.0, y)

    pair = InvolutionPair("escaping", POSITIVE_REAL, POSITIVE_REAL,
                          f, lambda x, u: u)
    with pytest.raises(KernelError, match=r"\(n=1, t=9\)"):
        simulate_field(pair, _RowStarts(), _Ones(), 6, 10, RandomStream(0))


def test_rrw_states_stay_nonnegative_integers():
    field = _rrw_field(5)
    assert np.all(field.X >= 0)
    assert np.array_equal(field.X, np.round(field.X))


def test_my_field_stays_positive():
    field = _my_field(7)
    assert np.all(field.X > 0)
    assert np.all(field.U > 0)


def test_fields_are_reproducible():
    a = _rrw_field(11)
    b = _rrw_field(11)
    assert np.array_equal(a.X, b.X) and np.array_equal(a.U, b.U)


def test_recursion_invariant():
    assert check_recursion(_rrw_field(13)).details["worst_deviation"] == 0.0
    rep = check_recursion(_my_field(13))
    assert rep.passed
    assert rep.details["worst_deviation"] <= 1e-9


def _nan_in_x(field):
    field.X[5, 10] = np.nan


def _nan_in_u(field):
    field.U[7, 20] = np.nan


def _nan_and_shift_in_one_row(field):
    field.X[5, 10] = np.nan
    field.X[5, 30] += 1.0


@pytest.mark.parametrize("make", [_rrw_field, _my_field])
@pytest.mark.parametrize("corrupt", [_nan_in_x, _nan_in_u,
                                     _nan_and_shift_in_one_row])
def test_recursion_fails_on_a_nan(make, corrupt):
    field = make(1, N=60, T=60)
    corrupt(field)
    rep = check_recursion(field)
    assert not rep.passed
    assert np.isnan(rep.details["worst_deviation"])
    details = json.loads(json.dumps(rep.to_dict(), allow_nan=False))
    assert details["details"]["worst_deviation"] is None


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def test_verify_burke_rrw_passes():
    report = verify_burke(_rrw_field(1))
    assert report.passed, report.details


def test_verify_burke_my_passes():
    report = verify_burke(_my_field(1))
    assert report.passed, report.details


def test_corrupted_boundary_rejects():
    # boundary noise drawn from the wrong law; verify against the right one
    field = _rrw_field(1, nu=ThreePoint(0.5, 0.2, 0.3))
    field.nu = ThreePoint(0.2, 0.5, 0.3)
    report = verify_burke(field)
    assert not report.passed
    failed = [k for k, v in report.details.items()
              if isinstance(v, dict) and v.get("passed") is False]
    assert failed


def _prob(row, a, b):
    """K(a, b) of an exact row function, as a Fraction."""
    weights, den = row(int(a))
    return Fraction(weights.get(int(b), 0), den)


def _scalar_loglik_sims(chain, pair, nu, row, n_sims=2000):
    """The chain-by-chain simulated log-likelihoods, one scalar at a time,
    and each simulated path's exact probability."""
    T = len(chain) - 1
    us = np.asarray(nu.sample(RandomStream(_MC_SEED), (n_sims, T)))
    x = np.full(n_sims, int(chain[0]))
    sims = np.zeros(n_sims)
    exact = [Fraction(1)] * n_sims
    for t in range(T):
        y = pair.f(x, us[:, t])
        for i in range(n_sims):
            prob = _prob(row, x[i], y[i])
            sims[i] += np.log(prob.numerator / prob.denominator)
            exact[i] *= prob
        x = y
    return sims, exact


def _rank_p(chain, exact, row):
    """The rank p-value by its definition: 1 + the simulated paths no more
    likely than the chain, exactly, over n_sims + 1."""
    obs = Fraction(1)
    for a, b in zip(chain[:-1], chain[1:]):
        obs *= _prob(row, a, b)
    return (1 + sum(e <= obs for e in exact)) / (len(exact) + 1)


@pytest.mark.parametrize("name", ["reflecting_rw", "kdv_g1"])
def test_loglik_table_matches_scalar_loop(name):
    pair = catalog_get(name)
    mu, nu = _WAVEFRONT_MAPS[name]
    field = simulate_field(pair, mu, nu, 30, 60, RandomStream(31))
    chain = field.X[0, :].astype(int)
    row = _kernel_row(pair, nu)
    result = _loglik_mc_test(chain, pair, nu, row, level=0.001)
    sims, exact = _scalar_loglik_sims(chain, pair, nu, row)
    obs = sum(np.log(float(_prob(row, a, b)))
              for a, b in zip(chain[:-1], chain[1:]))
    assert result.statistic == obs
    assert result.p_value == _rank_p(chain, exact, row)
    assert result.flags["null_mean"] == float(sims.mean())


def _burke_kdv_chain():
    """Chain 0 of the `burke` kdv_g1 stanza at 60 x 60, seed 1, as `cli.run`
    draws it, with its pair and noise law."""
    pair, nu = catalog_get("kdv_g1"), ShiftGeom(0.5, 2)
    field = simulate_field(pair, TruncGeom(0.5, 2), nu, 60, 60,
                           RandomStream(1).split(1)[0])
    return field.X[0, :].astype(int), pair, nu


def test_loglik_counts_every_exact_tie_whatever_the_summation_order():
    chain, pair, nu = _burke_kdv_chain()
    row = _kernel_row(pair, nu)
    result = _loglik_mc_test(chain, pair, nu, row, level=0.001)
    sims, exact = _scalar_loglik_sims(chain, pair, nu, row)
    assert result.flags["exact_ties"] == 59
    assert result.p_value == _rank_p(chain, exact, row) == 245 / 2001
    # float sums of the tied paths fall either side of the observed one, and
    # which side depends on the order the logs are added in
    logs = [np.log(float(_prob(row, a, b)))
            for a, b in zip(chain[:-1], chain[1:])]
    for obs in (sum(logs), sum(logs[::-1])):
        assert (1.0 + (sims <= obs).sum()) / 2001 < result.p_value


def test_kernel_rows_are_the_exact_pushforward_correctly_rounded():
    def floats(row):
        weights, den = row
        return {k: w / den for k, w in weights.items()}

    # kdv_g1's f = min(u, -x): K(x, y) = nu(y) below -x, P(U >= -x) at -x
    nu = ShiftGeom(0.5, 2)
    row = _kernel_row(catalog_get("kdv_g1"), nu)
    assert floats(row(-2)) == {-2: 0.5, -1: 0.25, 0: 0.125, 1: 0.0625,
                               2: 0.0625}
    half = Fraction(1, 2)
    for x in range(-6, 6):
        ref = {y: half ** (y + 3) for y in range(-2, -x)}
        ref[-x] = half ** max(2 - x, 0)
        assert floats(row(x)) == {y: float(p) for y, p in ref.items()}
    # reflecting_rw's dual row: v = -u - 2 (x + u)^-, so K*(u, 2x + u) =
    # mu(x) for x < -u and K*(u, -u) = P(X >= -u)
    theta = Fraction(2, 5)
    dual = _dual_kernel_row(catalog_get("reflecting_rw"), Geometric(0.4), 3)
    for u in range(-8, 3):
        ref = {2 * x + u: (1 - theta) * theta ** x for x in range(-u)}
        ref[-u] = theta ** max(-u, 0)
        assert floats(dual(u)) == {v: float(p) for v, p in ref.items()}


@pytest.mark.parametrize("name", ["kdv_g1", "kdv_g2"])
def test_dual_rows_of_kdv_are_exact_on_every_state_the_chain_reads(name):
    # with mu unbounded, the dual row reaches every g(x, u), x <= x_max,
    # with its exact mass: g is nondecreasing in x and takes each value
    # at no more than two adjacent x
    pair, theta, x_max = catalog_get(name), Fraction(2, 5), 6
    dual = _dual_kernel_row(pair, Geometric(0.4), x_max)
    for u in range(-4, 6):
        weights, den = dual(u)
        ref = {}
        for x in range(x_max + 40):
            v = int(pair.g(x, u))
            ref[v] = ref.get(v, 0) + (1 - theta) * theta ** x
        for x in range(x_max + 1):
            v = int(pair.g(x, u))
            assert Fraction(weights[v], den) == ref[v]
        assert sum(weights.values()) == den


@pytest.mark.parametrize("name", ["kdv_g1", "kdv_g2"])
def test_burke_kdv_with_unbounded_mu_reads_every_transition(name):
    stanza = _validate_stanza({
        "kind": "burke", "map": name,
        "mu": {"kind": "geometric", "params": {"theta": 0.4}},
        "nu": {"kind": "shift_geom", "params": {"theta": 0.5, "ell": 2}},
        "N": 60, "T": 60}, 0)
    details = run({"seed": 1, "checks": [stanza]})["checks"][0]["details"]
    for key in ("column_kernel", "dual_column_kernel"):
        assert "impossible_transition_from" not in details[key]["flags"]
    # the exact row puts 1/16 on the last cell at x = -2; a row missing
    # its noise tail reads 0.06249999999999956 there and merges other cells
    assert details["column_kernel"]["statistic"] == pytest.approx(
        98 / 15, rel=1e-12)


def _simulate_burke_seed_3(tmp_path):
    """`ipmaps simulate-burke --seed 3`: reflecting_rw at 50 x 50. The dual
    chain starts at U[0, 0] = 0, which reflecting_rw's g never leaves."""
    out = tmp_path / "out"
    assert main(["simulate-burke", "--seed", "3", "--out", str(out)]) == 0
    return json.loads((out / "report.json").read_text())["checks"][0]


def _kdv_g1_geometric_mu(tmp_path):
    stanza = _validate_stanza({
        "kind": "burke", "map": "kdv_g1",
        "mu": {"kind": "geometric", "params": {"theta": 0.4}},
        "nu": {"kind": "shift_geom", "params": {"theta": 0.5, "ell": 2}},
        "N": 60, "T": 60}, 0)
    return run({"seed": 1, "checks": [stanza]})["checks"][0]


@pytest.mark.parametrize("make", [_simulate_burke_seed_3,
                                  _kdv_g1_geometric_mu])
def test_transition_gof_that_tested_nothing_says_so(make, tmp_path):
    details = make(tmp_path)["details"]
    dual = details["dual_column_kernel"]
    # the verdict and p value are kept; the reason says they rest on nothing
    assert dual["passed"] and dual["p_value"] == 1.0
    assert dual["statistic"] == 0.0
    assert dual["flags"]["states"] == 0 and dual["flags"]["dof"] == 0
    assert dual["flags"]["reason"] == (
        "nothing tested: no from-state with two or more next states"
        " reached 10 transitions")
    assert details["column_kernel"]["flags"]["states"] > 0
    assert "reason" not in details["column_kernel"]["flags"]


def test_loglik_of_an_impossible_observed_chain_is_minus_infinity():
    pair = catalog_get("reflecting_rw")
    nu = ThreePoint(0.2, 0.5, 0.3)
    chain = np.array([0, 1, 5, 4, 3])    # 1 -> 5 is not a step of the walk
    result = _loglik_mc_test(chain, pair, nu, _kernel_row(pair, nu), 0.001)
    assert result.statistic == -np.inf
    assert result.p_value == 1.0 / 2001.0 and not result.passed


def test_verify_burke_size_floor():
    with pytest.raises(KernelError):
        verify_burke(_rrw_field(1, N=10, T=50))


@pytest.mark.parametrize("N,T,ok", [
    (30, 30, False), (40, 40, False), (48, 48, False), (50, 50, True),
    (30, 69, False), (30, 70, True), (66, 30, False), (68, 30, True),
])
def test_field_shape_floor_is_the_row_pair_count(N, T, ok):
    # (N // 2) * (T // 10) same-slice row pairs, at least 100
    if ok:
        require_field_shape(N, T)
        for field in (_rrw_field(1, N=N, T=T), _my_field(1, N=N, T=T)):
            assert set(verify_burke(field).details) >= {"row_independence"}
    else:
        with pytest.raises(KernelError, match="row pairs"):
            require_field_shape(N, T)


def test_field_rows_layout():
    field = _rrw_field(17, N=5, T=4)
    rows = field_rows(field)
    # one CRLF-ended chunk for the boundary noise row n = 0 and one for each
    # lattice row: T noise lines, then N chunks of T+1 site lines
    assert len(rows) == 1 + 5
    assert all(row.endswith("\r\n") for row in rows)
    lines = [[line.split(",") for line in row.split("\r\n")[:-1]]
             for row in rows]
    assert [len(chunk) for chunk in lines] == [4] + [5] * 5
    assert lines[0][0] == ["0", "0", "nan", repr(float(field.U[0, 0]))]
    assert lines[2][3] == ["2", "3", repr(float(field.X[1, 3])),
                           repr(float(field.U[2, 3]))]
    assert lines[5][4][3] == "nan"
    assert [{int(line[0]) for line in chunk} for chunk in lines] == \
        [{n} for n in range(6)]


def _field_rows_reference(field):
    """field_rows as one f-string per site, the layout's reference."""
    X, U = field.X.tolist(), field.U.tolist()
    rows = ["".join([f"0,{t},nan,{u}\r\n" for t, u in enumerate(U[0])])]
    for n, (xs, us) in enumerate(zip(X, U[1:]), start=1):
        rows.append("".join([f"{n},{t},{x},{u}\r\n" for t, x, u
                             in zip(count(), xs, us + ["nan"])]))
    return rows


@pytest.mark.parametrize("make", [_rrw_field, _my_field])
def test_field_rows_match_the_per_site_reference(make):
    field = make(3, N=37, T=41)
    assert field_rows(field) == _field_rows_reference(field)


@pytest.mark.parametrize("name", ["reflecting_rw", "matsumoto_yor"])
def test_field_rows_keep_every_float_repr(name):
    # -0.0 and 0.0 share a value but not a repr; on the integer branch the
    # table of reprs must tell them apart
    values = [-0.0, 0.0, np.nan, np.inf, -np.inf, 1e16, 1e-05, 5e-324, 3.0]
    X = np.resize(values, (4, 8))
    U = np.resize(values[::-1], (5, 7))
    field = LatticeField(X=X, U=U, pair=catalog_get(name), mu=None, nu=None)
    rows = field_rows(field)
    assert rows == _field_rows_reference(field)
    text = "".join(rows)
    for v in values:
        assert f",{v!r}\r\n" in text and f",{v!r}," in text


def test_impossible_transition_fails_with_a_reason_and_strict_json():
    froms = np.array([3] * 20 + [4] * 20)
    tos = np.array([2] * 20 + [4] * 19 + [7])   # 4 -> 7 is not in its row
    res = _transition_gof(froms, tos, lambda x: ({x - 1: 1, x: 1}, 2), 0.01)
    assert not res.passed and res.p_value == 0.0
    assert res.flags["reason"] == "impossible transition from 4"
    report = VerificationReport("t", res.passed, {"column_kernel": res})
    details = json.loads(json.dumps(report.to_dict(), allow_nan=False))
    assert details["details"]["column_kernel"]["statistic"] is None
