"""Tests for generated kernels: stepping, chains, reversibility checks."""

import json
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ipmaps import involutions, kernels, laws, stat_tests
from ipmaps.exact_discrete import cells, kdv_pushforward_tv, product_defect_tv
from ipmaps.involutions import (
    BLOCK, catalog_get, check_involution, sample_points,
)
from ipmaps.kernels import (
    KernelError, _gof_against_law, check_detailed_balance_exact,
    check_ip_statistical, check_reversibility_statistical,
)
from ipmaps.laws import (
    Bernoulli, BetaI, FiniteTable, Gamma, Geometric, GIG, ShiftGeom,
    ThreePoint, TruncGeom, UniformUnit, factors, truncate,
)
from ipmaps.reports import VerificationReport
from ipmaps.rng import RandomStream
from ipmaps.stat_tests import SortedColumn, binned, independence_test
from test_stat_tests import _Inline


class ConstLaw:
    """Degenerate stub law: every draw returns the same value."""

    is_discrete = False

    def __init__(self, value):
        self.value = value

    def sample(self, rng, size):
        return np.full(size, self.value)


def _chain(pair, noise, init, T, rng):
    """Run X^{t+1} = f(X^t, U^t) for T steps from `init` (a value or a law);
    return the states X^0..X^T and the co-drivers V^t = g(X^t, U^t)."""
    init_rng, noise_rng = rng.split(2)
    x = init.sample(init_rng, 1)[0] if hasattr(init, "sample") else init
    us = noise.sample(noise_rng, T)
    states = [x]
    for u in us:
        x = pair.f(x, u)
        states.append(x)
    states = np.asarray(states)
    return states, np.asarray(pair.g(states[:-1], us))


# ---------------------------------------------------------------------------
# one step
# ---------------------------------------------------------------------------

def test_rrw_step_with_forced_down_move():
    assert catalog_get("reflecting_rw").f(0, -1) == 0


def test_my_step_with_forced_noise():
    assert catalog_get("matsumoto_yor").f(1.0, 1.0) == pytest.approx(0.5)


def test_step_frequencies_match_three_point_noise():
    pair = catalog_get("reflecting_rw")
    noise = ThreePoint(0.2, 0.5, 0.3)
    n = 100_000
    ys = pair.f(3, noise.sample(RandomStream(67), n))
    for y, p in ((4, 0.2), (2, 0.5), (3, 0.3)):
        freq = (ys == y).mean()
        se = np.sqrt(p * (1 - p) / n)
        assert abs(freq - p) <= 3 * se


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------

def test_deterministic_my_iterates():
    states, _ = _chain(catalog_get("matsumoto_yor"), ConstLaw(1.0), 1.0, 3,
                       RandomStream(0))
    assert np.allclose(states, [1.0, 0.5, 2.0 / 3.0, 0.6])


def test_chain_structural_invariants():
    # the walk stays on {0, 1, ...}, moves by at most one, and its
    # co-drivers stay in the step law's support {-1, 0, 1}
    states, vs = _chain(catalog_get("reflecting_rw"),
                        ThreePoint(0.2, 0.5, 0.3), Geometric(0.4), 500,
                        RandomStream(71))
    assert states.min() >= 0
    assert np.abs(np.diff(states)).max() <= 1
    assert set(vs.tolist()) <= {-1, 0, 1}


def test_stationary_chain_marginal_gof():
    states, _ = _chain(catalog_get("reflecting_rw"),
                       ThreePoint(0.2, 0.5, 0.3), Geometric(0.4), 100_000,
                       RandomStream(73))
    # consecutive states are dependent; thin far past the correlation length
    thinned = states[::50]
    assert _gof_against_law(SortedColumn(thinned), Geometric(0.4)).passed


def test_codrivers_are_iid_noise():
    _, v = _chain(catalog_get("reflecting_rw"), ThreePoint(0.2, 0.5, 0.3),
                  Geometric(0.4), 100_000, RandomStream(79))
    assert _gof_against_law(SortedColumn(v), ThreePoint(0.2, 0.5, 0.3)).passed
    v = np.asarray(v, dtype=float)
    assert independence_test(*(binned(SortedColumn(c), c)
                               for c in (v[:-1], v[1:]))).passed


# ---------------------------------------------------------------------------
# structural support check of _gof_against_law
# ---------------------------------------------------------------------------

def test_gof_fails_on_negative_draws_against_gamma():
    law = Gamma(2.0, 1.0)
    draws = law.sample(RandomStream(83), 2000)
    assert _gof_against_law(SortedColumn(draws), law).passed
    # 20 negative draws fall into the lowest quantile bin, which a
    # chi-square on 20 bins cannot tell from chance
    draws[:20] = -draws[:20]
    res = _gof_against_law(SortedColumn(draws), law)
    assert not res.passed
    assert res.p_value == 0.0
    assert res.flags["outside_support"] == 20
    assert res.flags["reason"] == (
        "20 of 2000 draws outside the support of Gamma(shape=2.0, rate=1.0)")


@pytest.mark.parametrize("law, bad", [
    (UniformUnit(), 1.5),
    (BetaI(2.0, 3.0), -0.25),
    (GIG(2.0, 1.0), -1e-9),
    (Gamma(2.0, 1.0), np.nan),
    (Geometric(0.4), -1),
    (Geometric(0.4), 2.5),
    (Geometric(0.4), np.inf),
    (TruncGeom(0.5, 2), 3),
    (ShiftGeom(0.5, 2), -3),
])
def test_gof_fails_on_one_draw_outside_the_support(law, bad):
    draws = np.asarray(law.sample(RandomStream(89), 5000), dtype=float)
    assert _gof_against_law(SortedColumn(draws), law).passed
    draws[7] = bad
    res = _gof_against_law(SortedColumn(draws), law)
    assert not res.passed
    assert res.flags["outside_support"] == 1


# ---------------------------------------------------------------------------
# exact detailed balance
# ---------------------------------------------------------------------------

WALK, KDV_G1 = catalog_get("reflecting_rw"), catalog_get("kdv_g1")
STEPS = ThreePoint(0.2, 0.5, 0.3)


def _pairs(report):
    d = report.details
    return d["checked_pairs"], d["failing_pairs"], d["witness_pair"]


def test_detailed_balance_holds_for_forced_law():
    report = check_detailed_balance_exact(WALK, Geometric(0.4), STEPS, 200)
    assert report.passed
    assert _pairs(report) == (200, 0, None)
    assert report.details["n_states"] == 201


def test_detailed_balance_fails_for_wrong_law():
    for box in (1, 200):
        report = check_detailed_balance_exact(WALK, Geometric(0.5), STEPS,
                                              box)
        assert not report.passed
        assert _pairs(report) == (box, box, [0, 1])


def test_detailed_balance_kdv():
    report = check_detailed_balance_exact(KDV_G1, TruncGeom(0.5, 2),
                                          ShiftGeom(0.5, 2), 200)
    assert report.passed
    # y = min(u, -x) <= -x: the 6 of the 10 pairs of [-2, 2] with x + y <= 0
    assert _pairs(report) == (6, 0, None)
    assert report.details["n_states"] == 5


@pytest.mark.parametrize("box", range(1, 41))
def test_detailed_balance_holds_at_every_box(box):
    # the first state past the box has no kernel row in the table, so a
    # pair reaching it is not compared: boxes 10, 20 and 30 pass too
    assert check_detailed_balance_exact(WALK, Geometric(0.4), STEPS,
                                        box).passed
    assert check_detailed_balance_exact(
        KDV_G1, TruncGeom(0.5, 40), ShiftGeom(0.5, 40), box).passed


@pytest.mark.parametrize("box", [1, 200])
def test_detailed_balance_fails_a_one_way_kernel(box):
    # with p = 0 the walk only steps down: x -> x - 1 has no way back
    report = check_detailed_balance_exact(WALK, Geometric(0.4),
                                          ThreePoint(0, 0.6, 0.4), box)
    assert not report.passed
    assert _pairs(report) == (box, box, [1, 0])


@pytest.mark.parametrize("box", [1, 200])
def test_detailed_balance_fails_mass_leaving_the_support(box):
    # on {2, 3, 4} in the ratio p/q = 1/2 the pairs (2, 3) and (3, 4)
    # balance, but the walk steps from 2 down to 1 and from 4 up to 5
    mu = FiniteTable([2, 3, 4], [4 / 7, 2 / 7, 1 / 7])
    report = check_detailed_balance_exact(WALK, mu, ThreePoint(0.2, 0.4, 0.4),
                                          box)
    assert not report.passed
    # box 1 checks (2, 1) and (2, 3); the default box (3, 4) and (4, 5) too
    assert _pairs(report) == ((2, 1, [2, 1]) if box == 1 else (4, 2, [2, 1]))


def test_detailed_balance_needs_the_noise_tail(monkeypatch):
    # K(x, -x) = P(U >= -x) holds the mass of U past the table; without it
    # each pair (x, -x) with x != 0 fails, mu(x) != mu(-x), and no other
    checked, failing, _ = _pairs(check_detailed_balance_exact(
        KDV_G1, TruncGeom(0.5, 8), ShiftGeom(0.5, 8), 200))
    assert (checked, failing) == (72, 0)
    monkeypatch.setattr(laws, "truncate",
                        lambda law, hi: (*truncate(law, hi)[:2], 0))
    report = check_detailed_balance_exact(KDV_G1, TruncGeom(0.5, 8),
                                          ShiftGeom(0.5, 8), 200)
    assert _pairs(report) == (72, 8, [-8, 8])


@pytest.mark.parametrize("theta", [0.2, 0.3, 0.4, 0.5, 0.6])
def test_detailed_balance_and_the_product_law_agree_on_the_walk(theta):
    # the paper's relation: the walk's kernel is reversible for mu exactly
    # when H preserves mu (x) nu, and both hold only at theta = p/q = 0.4
    mu, box = Geometric(theta), 40
    xs, us = cells(np.arange(box + 1), [-1, 0, 1])
    ys, vs = WALK(xs, us)
    mu_w, nu_w = factors(mu, box + 1), factors(STEPS, 1)
    failing = product_defect_tv(xs, us, ys, vs, mu_w, nu_w, mu_w, nu_w).sum()
    reversible = check_detailed_balance_exact(WALK, mu, STEPS, box).passed
    assert reversible == (failing == 0) == (theta == 0.4)


@pytest.mark.parametrize("theta", [0.3, 0.5])
def test_detailed_balance_does_not_see_g_on_kdv(theta):
    # g1 and g2 share f = min(u, -x), so the kernel and its reversibility
    # are the same; only the cell identity of H = (f, g) separates them
    nu = ShiftGeom(theta, 4)
    for variant, preserved in (("g1", True), ("g2", False)):
        pair = catalog_get("kdv_" + variant)
        assert check_detailed_balance_exact(pair, TruncGeom(theta, 4), nu,
                                            200).passed
        assert (kdv_pushforward_tv(theta, 4, variant, 60)[1] == 0) == preserved
        # with mu at theta / 2 both sides fail
        assert not check_detailed_balance_exact(
            pair, TruncGeom(theta / 2, 4), nu, 200).passed
        xs, us = cells(range(-4, 5), range(-4, 61))
        ys, vs = pair(xs, us)
        mu_w = factors(TruncGeom(theta / 2, 4), 4)
        nu_w = factors(nu, int(vs.max()))
        assert product_defect_tv(xs, us, ys, vs, mu_w, nu_w, mu_w,
                                 nu_w).any()


@pytest.mark.parametrize("theta, passes", [(0.5, True), (0.25, False)])
def test_detailed_balance_matches_a_per_cell_fraction_reference(theta,
                                                                passes):
    # the reference cuts the noise far out, at u <= 200 with its tail on
    # 201: K(x, -x) = P(U >= -x) holds the tail, so a tail lost or put on
    # another state moves the pairs (x, -x)
    mu, nu = TruncGeom(theta, 4), ShiftGeom(0.5, 4)
    nums, den, _ = truncate(mu, 4)
    p_mu = {x: Fraction(w, den) for x, w in nums.items()}
    nums, den, tail = truncate(nu, 200)
    p_nu = {u: Fraction(w, den) for u, w in {**nums, 201: tail}.items()}
    kernel = {}
    for x in p_mu:
        for u, w in p_nu.items():
            y = int(KDV_G1.f(x, u))
            kernel[x, y] = kernel.get((x, y), 0) + w
    pairs = {tuple(sorted(xy)) for xy in kernel if xy[0] != xy[1]}
    failing = {(x, y) for x, y in pairs
               if p_mu[x] * kernel.get((x, y), 0)
               != p_mu[y] * kernel.get((y, x), 0)}
    report = check_detailed_balance_exact(KDV_G1, mu, nu, 200)
    checked, n_failing, witness = _pairs(report)
    assert report.passed == passes == (not failing)
    assert (checked, n_failing) == (len(pairs), len(failing))
    assert witness is None if passes else tuple(sorted(witness)) in failing


def _dict_loop_detailed_balance(pair, mu, nu, box):
    """check_detailed_balance_exact as it was written with a dict loop: K's
    numerators summed per move in the order the cells first reach it."""
    lo = mu.support_lo
    mu_w, _, _ = truncate(mu, lo + box)
    hi = nu.support_hi if nu.support_hi < np.inf else max(nu.support_lo, -lo)
    nums, _, tail = truncate(nu, hi)
    noise = {u: w for u, w in {**nums, hi + 1: tail}.items() if w}
    xs, us = cells(list(mu_w), list(noise))
    kernel = {}
    for key, w in zip(zip(xs.tolist(), pair.f(xs, us).tolist()),
                      list(noise.values()) * len(mu_w)):
        kernel[key] = kernel.get(key, 0) + w
    pairs = [(x, y, w, kernel.get((y, x), 0))
             for (x, y), w in kernel.items() if x != y and y <= lo + box
             and (x < y or (y, x) not in kernel)]
    failing = [(x, y) for x, y, w, back in pairs
               if mu_w[x] * w != mu_w.get(y, 0) * back]
    return VerificationReport(
        name=f"detailed_balance:{pair.name}", passed=not failing,
        details={"checked_pairs": len(pairs), "failing_pairs": len(failing),
                 "witness_pair": list(failing[0]) if failing else None,
                 "n_states": len(mu_w)})


def _random_law(kind, gen, states):
    """A law of `kind` with random parameters; a finite table is on a
    random part of `states`."""
    theta, a, b = (float(gen.choice([0.2, 0.25, 0.4, 0.5, 0.6, 0.75]))
                   for _ in range(3))
    ell = 2 * int(gen.integers(1, 4))
    if kind == "finite_table":
        support = gen.choice(states, min(4, len(states) - 1), replace=False)
        w = gen.integers(1, 5, len(support))
        return FiniteTable(support, w / w.sum())
    return {"geometric": lambda: Geometric(theta),
            "parity_geom": lambda: laws.ParityGeom(theta, a),
            "trunc_geom": lambda: TruncGeom(theta, ell),
            "three_point": lambda: ThreePoint(a * b, a * (1 - b), 1 - a),
            "shift_geom": lambda: ShiftGeom(theta, ell),
            "bernoulli": lambda: Bernoulli(a)}[kind]()


@pytest.mark.parametrize("name", ["reflecting_rw", "kdv_g1", "kdv_g2"])
def test_detailed_balance_sums_flux_as_the_dict_loop_did(name):
    # every report equal to the dict loop's, witness included: the flux
    # sums run x-major, y ascending, the order in which the cells first
    # reach each move, as f is nondecreasing in u on these maps
    pair, gen = catalog_get(name), np.random.default_rng(167)
    walk = name == "reflecting_rw"
    mu_kinds = ["geometric", "parity_geom", "finite_table", "bernoulli"]
    nu_kinds = ["three_point", "finite_table", "bernoulli"]
    if not walk:   # on the integers, either law of every kind
        mu_kinds = nu_kinds = mu_kinds + ["trunc_geom", "three_point",
                                          "shift_geom"]
    # laws the map keeps, then laws it does not, one with a gap in mu's
    # support, where mu(y) = 0; then random ones
    cases = ([(Geometric(p / q), ThreePoint(p, q, 1 - p - q))
              for p, q in ((0.2, 0.5), (0.1, 0.4), (0.3, 0.6))] * 2
             + [(Geometric(0.5), STEPS),
                (FiniteTable([0, 1, 3], [0.5, 0.25, 0.25]), STEPS)] if walk
             else [(TruncGeom(t, ell), ShiftGeom(t, ell))
                   for t in (0.25, 0.5, 0.75) for ell in (2, 4)]
             + [(TruncGeom(0.25, 4), ShiftGeom(0.5, 4)),
                (FiniteTable([-2, 0, 1], [0.25, 0.5, 0.25]),
                 ShiftGeom(0.5, 2))])
    cases += [(_random_law(gen.choice(mu_kinds), gen,
                           range(0 if walk else -4, 9)),
               _random_law(gen.choice(nu_kinds), gen,
                           [-1, 0, 1] if walk else range(-4, 9)))
              for _ in range(80)]
    seen = set()
    for i, (mu, nu) in enumerate(cases):
        box = 1 + i % 40
        report = check_detailed_balance_exact(pair, mu, nu, box)
        assert report.to_dict() == _dict_loop_detailed_balance(
            pair, mu, nu, box).to_dict(), (mu, nu, box)
        seen.add(report.passed)
    assert seen == {True, False}


# ---------------------------------------------------------------------------
# statistical reversibility / independence preservation
# ---------------------------------------------------------------------------

def test_my_kernel_is_gig_reversible():
    report = check_reversibility_statistical(
        catalog_get("matsumoto_yor"), GIG(2, 1), Gamma(2, 1), 50_000,
        RandomStream(89))
    assert report.passed


def test_my_kernel_not_reversible_with_uniform_noise():
    report = check_reversibility_statistical(
        catalog_get("matsumoto_yor"), GIG(2, 1), UniformUnit(), 50_000,
        RandomStream(89))
    assert not report.passed
    assert report.details["exchangeability"]["p_value"] < 1e-10


def test_beta_map_reversibility():
    report = check_reversibility_statistical(
        catalog_get("beta_map"), BetaI(2, 1), BetaI(3, 2), 50_000,
        RandomStream(97))
    assert report.passed


def test_reversibility_needs_enough_samples():
    with pytest.raises(KernelError):
        check_reversibility_statistical(catalog_get("matsumoto_yor"),
                                        GIG(2, 1), Gamma(2, 1), 500,
                                        RandomStream(0))


def test_ip_matches_reversibility_for_my():
    # the two checks agree on the same map and laws
    pair = catalog_get("matsumoto_yor")
    rng = RandomStream(101)
    r1, r2 = rng.split(2)
    ip = check_ip_statistical(pair, GIG(2, 1), Gamma(2, 1), 50_000, r1)
    rev = check_reversibility_statistical(pair, GIG(2, 1), Gamma(2, 1), 50_000,
                                          r2)
    assert ip.passed and rev.passed


def test_ip_with_product_noise_reports_components():
    pair = catalog_get("beta_walk")
    # Sethuraman laws with the Bernoulli weight a0/(a0+a1)
    mu = BetaI(2, 3)
    from ipmaps.laws import Bernoulli
    nu = (Bernoulli(0.4), BetaI(1, 5))
    report = check_ip_statistical(pair, mu, nu, 50_000, RandomStream(103))
    details = report.details
    assert details["y_marginal"]["passed"]
    assert not details["v_marginal_0"]["passed"]
    assert not report.passed


def test_ip_needs_enough_samples():
    # 200 is independence_test's pair floor
    with pytest.raises(KernelError):
        check_ip_statistical(catalog_get("matsumoto_yor"), GIG(2, 1),
                             Gamma(2, 1), 199, RandomStream(0))
    assert check_ip_statistical(catalog_get("matsumoto_yor"), GIG(2, 1),
                                Gamma(2, 1), 200, RandomStream(0)).details


def test_ip_sorts_each_column_once(monkeypatch):
    # one float copy per column, its halves sorted in place: the two runs
    # of one n-point buffer, and no np.sort
    n = 2 * BLOCK + 1
    columns, made = [], []

    def recorded(column):
        columns.append(np.array(column, dtype=float))
        made.append(SortedColumn(column))
        return made[-1]

    def no_sort(*args, **kwargs):
        raise AssertionError("np.sort was called")

    monkeypatch.setattr(stat_tests, "SortedColumn", recorded)
    monkeypatch.setattr(np, "sort", no_sort)
    check_ip_statistical(catalog_get("matsumoto_yor"), GIG(2, 1), Gamma(2, 1),
                         n, RandomStream(107))
    monkeypatch.undo()
    # Y for its GOF and independence test, and V for its own
    assert len(made) == 2
    for column, s in zip(columns, made):
        a, b = s.runs
        assert (len(a), len(b)) == (BLOCK + 1, BLOCK)
        assert a.base is b.base and a.base.shape == (n,)
        assert np.array_equal(a, np.sort(column[:BLOCK + 1]))
        assert np.array_equal(b, np.sort(column[BLOCK + 1:]))


# ---------------------------------------------------------------------------
# the same reports on one thread and on two
# ---------------------------------------------------------------------------

def _counted_threads(monkeypatch, cores):
    """Set the usable core count; returns a list that gets one entry per
    thread started."""
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(1)
            super().start()

    monkeypatch.setattr(involutions, "usable_cores", lambda: cores)
    monkeypatch.setattr(threading, "Thread", Counted)
    return started


def _reports(n):
    my, walk = catalog_get("matsumoto_yor"), catalog_get("beta_walk")
    gauss = catalog_get("gaussian_rosenblatt", {"beta": 0.5, "sigma": 1.0})
    reports = [
        check_ip_statistical(my, GIG(2, 1), Gamma(2, 1), n,
                             RandomStream(131)),
        check_ip_statistical(walk, BetaI(2, 3),
                             (Bernoulli(0.4), BetaI(1, 5)), n,
                             RandomStream(137)),
        check_ip_statistical(catalog_get("reflecting_rw"), Geometric(0.4),
                             ThreePoint(0.2, 0.5, 0.3), n, RandomStream(139)),
        check_reversibility_statistical(my, GIG(2, 1), Gamma(2, 1), n,
                                        RandomStream(149)),
        *(check_involution(p, *sample_points(p, n, RandomStream(151)))
          for p in (walk, gauss)),
    ]
    return [json.dumps(r.to_dict()) for r in reports]


def test_reports_are_the_same_bytes_on_one_core_and_on_two(monkeypatch):
    # threads switched every 10 us, so their blocks interleave finely
    seen, interval = {}, sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for cores in (1, 2):
            started = _counted_threads(monkeypatch, cores)
            seen[cores] = _reports(200_000)
            assert bool(started) is (cores == 2)
    finally:
        sys.setswitchinterval(interval)
    assert seen[1] == seen[2]


def test_n_point_arrays_are_allocated_on_the_calling_thread(monkeypatch):
    # an array a helper thread frees stays cached in that thread's arena
    started = _counted_threads(monkeypatch, 2)
    allocated, empty = [], np.empty

    def recorded(shape, *args, **kwargs):
        allocated.append((threading.get_ident(), np.prod(shape)))
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", recorded)
    _reports(200_000)
    here = threading.get_ident()
    assert started
    assert (here, 200_000) in allocated
    assert all(ident == here for ident, size in allocated if size > BLOCK)


def test_every_draw_but_the_last_runs_on_a_helper(monkeypatch):
    # every law draws a block at a time into an array made on this thread,
    # GIG and ParityGeom reading their first draws in place: the last law
    # drawn is this thread's, each other one a helper's
    started = _counted_threads(monkeypatch, 2)
    threads = {}

    def recorded(cls):
        sample = cls.sample

        def wrapper(self, *args):
            threads[id(self)] = threading.get_ident()
            return sample(self, *args)

        monkeypatch.setattr(cls, "sample", wrapper)

    for cls in (laws.Law, GIG, laws.ParityGeom):
        recorded(cls)
    here = threading.get_ident()

    def noise(nu):   # nu's laws, one per component
        return nu if isinstance(nu, tuple) else (nu,)

    cases = ((GIG(2, 1), Gamma(2, 1)),
             (GIG(2, 1), laws.ParityGeom(0.5, 0.3)),
             (laws.ParityGeom(0.5, 0.3), ThreePoint(0.2, 0.5, 0.3)),
             (BetaI(2, 3), (Bernoulli(0.4), BetaI(1, 5))))
    for mu, nu in cases:
        threads.clear()
        kernels._draw("ip", WALK, mu, nu, 2 * BLOCK, RandomStream(157))
        *helped, last = (threads[id(law)] for law in (mu, *noise(nu)))
        assert last == here
        assert len(set(helped)) == len(helped) and here not in helped
    assert started

    # each helper's draws, run inline under tracemalloc, peak below n bytes:
    # the n-point arrays are all made on this thread
    n = 40 * BLOCK + 1
    monkeypatch.setattr(threading, "Thread", _Inline)
    for mu, nu in cases:
        _Inline.peaks.clear()
        tracemalloc.start()
        try:
            kernels._draw("ip", WALK, mu, nu, n, RandomStream(163))
        finally:
            tracemalloc.stop()
        assert len(_Inline.peaks) == len(noise(nu))
        assert max(_Inline.peaks) < n, f"{max(_Inline.peaks) / n:.2f} n bytes"


def test_work_of_one_block_starts_no_thread(monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(involutions, "usable_cores", lambda: 2)
    monkeypatch.setattr(threading, "Thread", no_thread)
    assert len(_reports(BLOCK)) == 6


def test_statistical_checks_never_call_np_quantile(monkeypatch):
    def no_quantile(*args, **kwargs):
        raise AssertionError("np.quantile called")

    monkeypatch.setattr(np, "quantile", no_quantile)
    pair = catalog_get("matsumoto_yor")
    for mu, nu in ((GIG(2, 1), Gamma(2, 1)), (GIG(2, 1), UniformUnit())):
        check_ip_statistical(pair, mu, nu, 20_000, RandomStream(109))
        check_reversibility_statistical(pair, mu, nu, 20_000,
                                        RandomStream(113))
    check_ip_statistical(catalog_get("reflecting_rw"), Geometric(0.4),
                         ThreePoint(0.2, 0.5, 0.3), 20_000, RandomStream(127))
