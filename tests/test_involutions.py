"""Tests for the involution catalog: point values, round trips, range closure."""

import hashlib
import json
import sys
import threading
import time
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipmaps import cli, involutions
from ipmaps.involutions import (
    BERNOULLI_CROSS_UNIT, BIT, BLOCK, CATALOG_NAMES, INTEGERS,
    NONNEG_INTEGERS, POSITIVE_REAL, REAL_LINE, THREE_POINT, UNIT_INTERVAL,
    DomainError, InvolutionPair, SpaceDescriptor, batch_item, blocks,
    catalog_get, check_involution, concurrently, deal, sample_points, spd,
)
from ipmaps.laws import law_from_spec
from ipmaps.rng import RandomStream


def test_matsumoto_yor_point_value():
    pair = catalog_get("matsumoto_yor")
    y, v = pair(1.0, 1.0)
    assert y == pytest.approx(0.5, abs=1e-15)
    assert v == pytest.approx(0.5, abs=1e-15)


def test_kdv_g1_point_value_and_roundtrip():
    pair = catalog_get("kdv_g1")
    y, v = pair(2, -3)
    assert (y, v) == (-3, 2)
    assert pair(y, v) == (2, -3)


def test_reflecting_rw_boundary_values():
    pair = catalog_get("reflecting_rw")
    assert pair(0, -1) == (0, -1)
    assert pair(0, 0) == (0, 0)


def test_beta_map_point_value():
    pair = catalog_get("beta_map")
    y, v = pair(0.5, 0.5)
    assert y == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert v == pytest.approx(0.75, abs=1e-15)


def test_beta_walk_point_value():
    pair = catalog_get("beta_walk")
    y, (v0, v1) = pair(0.5, (1, 0.5))
    assert y == pytest.approx(0.75, abs=1e-15)
    assert v0 == 0
    assert v1 == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_gaussian_rosenblatt_fixed_point():
    pair = catalog_get("gaussian_rosenblatt", {"beta": 0.5, "sigma": 1.0})
    y, v = pair(0.0, 0.5)
    assert y == pytest.approx(0.0, abs=1e-12)
    assert v == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["kdv_g1", "kdv_g2", "reflecting_rw"])
def test_integer_maps_exact_involution(name):
    pair = catalog_get(name)
    report = check_involution(pair, *sample_points(pair, 0, None, box=20))
    assert report.passed
    assert report.details["max_deviation"] == 0.0


@pytest.mark.parametrize("name,tol", [
    ("matsumoto_yor", 1e-9),
    ("swapped_matsumoto_yor", 1e-9),
    ("beta_map", 1e-9),
    ("beta_walk", 1e-9),
    ("gaussian_rosenblatt", 1e-8),
])
def test_continuous_maps_involution(name, tol):
    params = {"beta": 0.5, "sigma": 1.0} if name == "gaussian_rosenblatt" else None
    pair = catalog_get(name, params)
    report = check_involution(pair,
                              *sample_points(pair, 100_000, RandomStream(21)))
    assert report.passed
    assert report.details["max_deviation"] <= tol
    assert report.details["n_points"] == 100_000


@pytest.mark.parametrize("name,params", [
    ("matsumoto_yor", None), ("beta_walk", None),
    ("spd_matsumoto_yor", {"d": 2}),
])
def test_empty_batch_passes_with_zero_deviation(name, params):
    pair = catalog_get(name, params)
    report = check_involution(pair, *sample_points(pair, 0, RandomStream(22)))
    assert report.passed
    assert report.details["max_deviation"] == 0.0
    assert report.details["n_points"] == 0


@pytest.mark.parametrize("d", [2, 3])
def test_spd_involution(d):
    pair = catalog_get("spd_matsumoto_yor", {"d": d})
    xs, us = sample_points(pair, 1000, RandomStream(23))
    assert xs.shape == us.shape == (1000, d, d)
    report = check_involution(pair, xs, us)
    assert report.passed
    assert report.details["max_deviation"] <= 1e-7
    assert report.details["n_points"] == 1000


def test_spd_stack_matches_single_matrices():
    pair = catalog_get("spd_matsumoto_yor", {"d": 3})
    xs, us = sample_points(pair, 5, RandomStream(25))
    ys, vs = pair(xs, us)
    for i in range(5):
        y, v = pair(xs[i], us[i])
        assert np.array_equal(ys[i], y) and np.array_equal(vs[i], v)


def test_spd_contains_checks_every_matrix_of_a_stack():
    pair = catalog_get("spd_matsumoto_yor", {"d": 2})
    space = pair.x_space
    xs, _ = sample_points(pair, 4, RandomStream(27))
    assert space.contains(xs) and space.contains(xs[0])
    # eigvalsh reads one triangle, so only the symmetry test sees this
    skewed = xs.copy()
    skewed[1, 0, 1] += 1.0
    assert not space.contains(skewed) and space.contains(skewed[0])
    # the 1e-10 symmetry tolerance is absolute, whatever the entries' size
    skewed[1, 0, 1] = xs[1, 0, 1] + 1e-6
    assert not space.contains(skewed)
    skewed[1, 0, 1] = xs[1, 0, 1] + 1e-13
    assert space.contains(skewed)
    xs[2] = -xs[2]
    assert not space.contains(xs)
    assert not space.contains(np.ones(4))


def _swap_pair(g):
    # f(x, u) = u with g(x, u) = x is the swap involution
    return InvolutionPair("swap", REAL_LINE, REAL_LINE, lambda x, u: u, g)


def test_failing_round_trip_names_its_worst_point():
    pair = _swap_pair(lambda x, u: x + (x == 2.0))
    xs, us = np.array([1.0, 2.0, 3.0]), np.zeros(3)
    report = check_involution(pair, xs, us)
    assert not report.passed
    assert report.details["max_deviation"] == pytest.approx(1.0 / 3.0)
    assert report.details["worst_point"] == "(2.0, 0.0)"
    assert check_involution(_swap_pair(lambda x, u: x), xs, us).details[
        "worst_point"] is None


def test_nan_deviation_fails_the_round_trip():
    pair = _swap_pair(lambda x, u: np.where(x == 3.0, np.nan, x))
    report = check_involution(pair, np.array([1.0, 2.0, 3.0]), np.zeros(3))
    assert not report.passed
    assert report.details["worst_point"] == "(3.0, 0.0)"


# ---------------------------------------------------------------------------
# the round trip in blocks against the whole batch at once
# ---------------------------------------------------------------------------

def whole_batch_deviations(a, b, space):
    """_deviations as it was before the round trip ran in blocks."""
    if space.parts:
        dev = whole_batch_deviations(a[-1], b[-1], space.parts[-1])
        for part in zip(a[:-1], b[:-1], space.parts[:-1]):
            np.maximum(dev, whole_batch_deviations(*part), out=dev)
        return dev
    if space.dim:
        return np.linalg.norm(a - b, axis=(-2, -1))
    if space.is_integer:
        return np.abs(a - b)
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = np.maximum(np.abs(a), np.abs(b))
    dev = np.abs(a - b)
    return np.divide(dev, np.maximum(scale, 1.0, out=scale), out=dev)


def whole_batch_check(pair, xs, us, tol):
    """(passed, details) of check_involution as it ran before it worked in
    blocks: one round trip of the whole batch."""
    y, v = pair.f(xs, us), pair.g(xs, us)
    dev = whole_batch_deviations(pair.f(y, v), xs, pair.x_space).astype(
        float, copy=False)
    np.maximum(dev, whole_batch_deviations(pair.g(y, v), us, pair.u_space),
               out=dev)
    max_dev = float(dev.max(initial=0.0))
    worst = None
    if not max_dev <= tol:
        k = int(np.argmax(dev))
        worst = repr((batch_item(xs, k), batch_item(us, k)))
    return max_dev <= tol, {"max_deviation": max_dev, "tolerance": tol,
                            "n_points": len(xs), "worst_point": worst}


BLOCK_SIZES = [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5]


def _worst_last(n):
    # g doubles the last x (relative deviation 1/2) and moves the first by
    # a half (1/3): the worst point is the last, in the last block
    xs = np.arange(1.0, n + 1)
    pair = _swap_pair(lambda x, u: np.where(
        x == n, 2.0 * x, np.where(x == 1.0, x + 0.5, x)))
    return pair, xs, np.zeros(n), n - 1


def _nan_middle(n):
    # a finite deviation first, then NaNs at n // 2 (a middle block once
    # there are three) and at the end: the first NaN is the worst point
    xs = np.arange(1.0, n + 1)
    pair = _swap_pair(lambda x, u: np.where(
        (x == n // 2 + 1) | (x == n), np.nan, np.where(x == 1.0, 3.0, x)))
    return pair, xs, np.zeros(n), n // 2


def _spd_stack_worst_last(n):
    # the swap on 2 x 2 SPD stacks, with g doubling the last matrix only
    xs, us = sample_points(catalog_get("spd_matsumoto_yor"), n,
                           RandomStream(41))
    xs[-1] = 1000.0 * np.eye(2)
    pair = InvolutionPair("spd_swap", spd(2), spd(2), lambda x, u: u,
                          lambda x, u: np.where(x[:, :1, :1] >= 1000.0,
                                                2.0 * x, x))
    return pair, xs, us, n - 1


def _catalog_batch(name):
    def batch(n):
        pair = catalog_get(name)
        return (pair, *sample_points(pair, n, RandomStream(43)), None)
    return batch


def _reflecting_rw_batch(n):
    gen = RandomStream(47).gen
    return (catalog_get("reflecting_rw"), gen.integers(0, 50, n),
            gen.integers(-1, 2, n), None)


# name -> n -> (pair, xs, us, index of the worst point or None)
BLOCK_CASES = {
    "matsumoto_yor": _catalog_batch("matsumoto_yor"),
    "beta_walk_tuple_noise": _catalog_batch("beta_walk"),
    "reflecting_rw_integers": _reflecting_rw_batch,
    "worst_point_in_last_block": _worst_last,
    "nan_in_middle_block": _nan_middle,
    "spd_stack_worst_last": _spd_stack_worst_last,
}


@pytest.mark.parametrize("n", BLOCK_SIZES)
@pytest.mark.parametrize("case", BLOCK_CASES)
def test_blocked_round_trip_equals_the_whole_batch(case, n):
    pair, xs, us, worst = BLOCK_CASES[case](n)
    report = check_involution(pair, xs, us)
    passed, details = whole_batch_check(pair, xs, us,
                                        report.details["tolerance"])
    assert report.passed is passed
    # repr compares every float bit for bit, nan included
    assert repr(report.details) == repr(details)
    if worst is None:
        assert report.passed
    else:
        assert not report.passed
        assert report.details["worst_point"] == repr(
            (batch_item(xs, worst), batch_item(us, worst)))


# ---------------------------------------------------------------------------
# work on two threads
# ---------------------------------------------------------------------------

@pytest.fixture
def two_cores(monkeypatch):
    monkeypatch.setattr(involutions, "usable_cores", lambda: 2)


def test_concurrently_runs_the_last_call_here_and_the_others_beside_it(
        two_cores):
    start = threading.active_count()
    here = threading.get_ident()
    idents = concurrently(BLOCK + 1, *[threading.get_ident] * 3)
    assert idents[-1] == here
    assert here not in idents[:-1]
    assert threading.active_count() == start


def test_an_error_on_a_helper_thread_reaches_the_caller(two_cores):
    start = threading.active_count()
    ran = []

    def fails(message):
        raise ValueError(message)

    with pytest.raises(ValueError, match="first"):
        concurrently(BLOCK + 1, partial(fails, "first"),
                     partial(fails, "second"), partial(ran.append, "last"))
    # every call ran, and every helper was joined
    assert ran == ["last"]
    assert threading.active_count() == start
    with pytest.raises(ValueError, match="here"):
        concurrently(BLOCK + 1, partial(ran.append, "helper"),
                     partial(fails, "here"))
    assert ran == ["last", "helper"]
    assert threading.active_count() == start

    def fails_late(message):   # after the last call has failed here
        time.sleep(0.05)
        fails(message)

    # both fail: the first call's error, the helper's, once it is joined
    with pytest.raises(ValueError, match="helper"):
        concurrently(BLOCK + 1, partial(fails_late, "helper"),
                     partial(fails, "here"))
    assert threading.active_count() == start


# ---------------------------------------------------------------------------
# the worst probe of a round trip, from each quarter block's worst
# ---------------------------------------------------------------------------

def _coded(codes):
    """A batch whose probe i deviates by codes[i] exactly: x = 0, u = i,
    and f moves x by codes[u] / 2, so the round trip moves it by codes[u]."""
    pair = InvolutionPair(
        "coded", REAL_LINE, REAL_LINE,
        lambda x, u: x + codes[u.astype(np.intp)] / 2, lambda x, u: u)
    return pair, np.zeros(len(codes)), np.arange(float(len(codes)))


def _named(report, i):
    """Whether a report of a `_coded` batch names probe i as its worst."""
    return report.details["worst_point"] == repr((0.0, float(i)))


def test_a_later_nan_beats_an_earlier_larger_deviation(two_cores):
    codes = np.zeros(3 * BLOCK)
    codes[[5, BLOCK + 3]] = 0.9, 0.25
    codes[[2 * BLOCK + 7, 3 * BLOCK - 1]] = np.nan
    report = check_involution(*_coded(codes), tol=1e-9)
    assert not report.passed
    assert np.isnan(report.details["max_deviation"])
    assert _named(report, 2 * BLOCK + 7)


def test_tied_deviations_name_the_first_probe(two_cores):
    codes = np.zeros(3 * BLOCK)
    # ties within one quarter block and across those of both threads
    ties = [BLOCK // 2 + 3, BLOCK // 2 + 9, BLOCK + 1, 3 * BLOCK - 1]
    codes[ties] = 0.5
    codes[[2, 2 * BLOCK]] = 0.25
    report = check_involution(*_coded(codes), tol=1e-9)
    assert report.details["max_deviation"] == 0.5
    assert _named(report, ties[0])


@pytest.mark.parametrize("name, n", [
    ("matsumoto_yor", 3 * BLOCK + 5), ("beta_walk", 3 * BLOCK + 5),
    ("spd_matsumoto_yor", BLOCK + 5)])
def test_worst_probe_is_the_whole_batch_worst(name, n, two_cores):
    # tol = 0 fails every batch with a nonzero deviation, so the report
    # names its worst probe
    pair = catalog_get(name)
    xs, us = sample_points(pair, n, RandomStream(53))
    report = check_involution(pair, xs, us, tol=0.0)
    space = involutions.SpaceDescriptor(
        "pair", parts=(pair.x_space, pair.u_space))
    dev = involutions._deviations(pair(*pair(xs, us)), (xs, us), space)
    k = int(np.argmax(dev))
    assert dev[k] > 0.0
    assert report.details["max_deviation"] == float(dev.max())
    assert report.details["worst_point"] == repr(
        (batch_item(xs, k), batch_item(us, k)))


# ---------------------------------------------------------------------------
# probes drawn while they are round-tripped
# ---------------------------------------------------------------------------

QUARTER = BLOCK // 4
# the sizes around a quarter block, and several blocks and a bit
SIZES = (1, QUARTER - 1, QUARTER + 1, 3 * BLOCK + 7)


def _within_a_minute(call):
    """call(), run on a thread that must end: a deadlock fails, not hangs."""
    out = []

    def run():
        try:
            out.append(call())
        except BaseException as error:   # raised on the calling thread
            out.append(error)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(60)
    assert not thread.is_alive(), "deadlocked"
    if isinstance(out[0], BaseException):
        raise out[0]
    return out[0]


def _deal_drawn(n, size, pause=0.0):
    """deal with a draw that notes each block, checking that every block
    is drawn once, in order, and worked once, after its draw."""
    drawn, seen, worked = [], set(), []

    def draw(s):
        time.sleep(pause)
        drawn.append(s.start)
        seen.add(s.start)

    def work(s):
        worked.append(s.start)
        return s.start, s.start in seen

    done = deal(work, n, size, draw)
    starts = list(range(0, n, size))
    assert drawn == starts
    assert sorted(worked) == starts
    assert done == [(start, True) for start in starts]


@pytest.mark.parametrize("cores", [1, 2])
def test_deal_works_every_block_once_after_its_draw(cores, monkeypatch):
    monkeypatch.setattr(involutions, "usable_cores", lambda: cores)
    # a draw slow enough that a worker not waiting for it would overtake it
    _within_a_minute(partial(_deal_drawn, 3 * BLOCK + 7, QUARTER, 0.001))


def test_deals_that_switch_threads_often_work_every_block_once(two_cores):
    # three deals at once, six threads on the cores there are, switching
    # every microsecond, over 5,000 blocks each
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _within_a_minute(partial(concurrently, BLOCK + 1, *[
            partial(_deal_drawn, 20_000, 4)] * 3))
    finally:
        sys.setswitchinterval(interval)


def test_a_failing_draw_reaches_the_caller(two_cores):
    start = threading.active_count()

    def draw(s):
        if s.start:
            raise ValueError("draw")

    # the other thread waits on block 1, which is never drawn
    with pytest.raises(ValueError, match="draw"):
        _within_a_minute(partial(deal, lambda s: s.start, 3 * BLOCK, QUARTER,
                                 draw))
    assert threading.active_count() == start


def test_blocks_drawn_and_worked_out_of_order_keep_the_witness(two_cores):
    # the blocks finish on two threads, taken from both ends, in no fixed
    # order; the report still names the first nan, then the first largest
    codes = np.zeros(3 * BLOCK)
    codes[[7, QUARTER + 1, 3 * BLOCK - 2]] = 0.5, np.nan, np.nan
    pair, xs, us = _coded(codes)
    drawn = np.full_like(us, np.inf)

    def draw(s):
        drawn[s] = us[s]

    report = check_involution(pair, xs, drawn, 1e-9, draw)
    assert np.isnan(report.details["max_deviation"])
    assert _named(report, QUARTER + 1)
    codes[[QUARTER + 1, 3 * BLOCK - 2]] = 0.5
    drawn[:] = np.inf
    assert _named(check_involution(pair, xs, drawn, 1e-9, draw), 7)


def _bits(v):
    """The dtype, shape and bytes of each part of a batch component."""
    if isinstance(v, tuple):
        return [_bits(c) for c in v]
    return v.dtype.str, v.shape, v.tobytes()


def _state(stream):
    """A stream's bit generator state: counter, key, buffered words and the
    position in them, and the pending 32-bit half of a word."""
    return json.dumps(stream.gen.bit_generator.state, default=np.ndarray.tolist)


# each scalar space a last probe part may have, and an SPD stack, after a
# bit column drawn whole, so that an odd n leaves a 32-bit half pending;
# and beta_walk's weights, after its x and its bits
LAST_PARTS = {
    "half_line": InvolutionPair("probe", BIT, POSITIVE_REAL, None, None),
    "real_line": InvolutionPair("probe", BIT, REAL_LINE, None, None),
    "unit_interval": InvolutionPair("probe", BIT, UNIT_INTERVAL, None, None),
    "interval": InvolutionPair(
        "probe", BIT, SpaceDescriptor("interval", -2.5, 3.0), None, None),
    "beta_walk": catalog_get("beta_walk"),
    "spd": InvolutionPair("probe", BIT, spd(3), None, None),
}


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("last", LAST_PARTS)
def test_a_last_part_drawn_by_blocks_is_its_whole_draw(last, n):
    pair = LAST_PARTS[last]
    whole, by_blocks = RandomStream(83), RandomStream(83)
    want = sample_points(pair, n, whole)
    *got, draw = sample_points(pair, n, by_blocks, lazy=True)
    for s in blocks(n, QUARTER):
        draw(s)
    assert _bits(tuple(got)) == _bits(want)
    assert _state(by_blocks) == _state(whole)


def test_the_grid_has_nothing_to_draw():
    pair = catalog_get("kdv_g1")
    *got, draw = sample_points(pair, 0, None, box=3, lazy=True)
    assert draw is None
    assert _bits(tuple(got)) == _bits(sample_points(pair, 0, None, box=3))


@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("name, params", [
    ("matsumoto_yor", None), ("swapped_matsumoto_yor", None),
    ("beta_map", None), ("beta_walk", None),
    ("gaussian_rosenblatt", {"beta": 0.5, "sigma": 1.3})])
def test_a_stanza_drawn_while_round_tripped_writes_the_bytes_of_a_drawn_batch(
        name, params, cores, monkeypatch):
    # tol 0 fails the larger batches, so their witnesses are compared too
    pair = catalog_get(name, params)
    for n in SIZES:
        for tol in (None, 0.0):
            stanza = {"kind": "involution", "map": name, "params": params,
                      "n": n, "tol": tol}
            monkeypatch.setattr(involutions, "usable_cores", lambda: 1)
            want = check_involution(pair, *sample_points(
                pair, n, RandomStream(89).split(1)[0]), tol).to_dict()
            want["inputs"] = stanza
            monkeypatch.setattr(involutions, "usable_cores", lambda: cores)
            got = _within_a_minute(partial(
                cli.run, {"seed": 89, "checks": [stanza]}))
            assert json.dumps(got["checks"][0]) == json.dumps(want)


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------

def test_kdv_variants_agree_below_and_differ_above():
    g1 = catalog_get("kdv_g1")
    g2 = catalog_get("kdv_g2")
    xs, us = np.meshgrid(np.arange(-5, 6), np.arange(-5, 6))
    xs, us = xs.ravel(), us.ravel()
    below = xs + us < 0
    assert np.array_equal(g1.g(xs[below], us[below]),
                          g2.g(xs[below], us[below]))
    above = ~below
    diff = g1.g(xs[above], us[above]) != g2.g(xs[above], us[above])
    assert diff.any()
    witness = (int(xs[above][diff][0]), int(us[above][diff][0]))
    assert witness[0] + witness[1] >= 0


def test_beta_walk_flips_bernoulli_coordinate():
    pair = catalog_get("beta_walk")
    gen = RandomStream(29).gen
    x = gen.uniform(0.01, 0.99, 1000)
    u0 = gen.integers(0, 2, 1000)
    u1 = gen.uniform(0.01, 0.99, 1000)
    v0, _ = pair.g(x, (u0, u1))
    assert np.array_equal(v0, 1 - u0)


def test_swapped_my_g_equals_my_f():
    swapped = catalog_get("swapped_matsumoto_yor")
    my = catalog_get("matsumoto_yor")
    gen = RandomStream(31).gen
    x = np.exp(gen.normal(0, 1, 1000))
    u = np.exp(gen.normal(0, 1, 1000))
    assert np.array_equal(swapped.g(x, u), my.f(x, u))


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_range_closure(name):
    params = None
    if name == "gaussian_rosenblatt":
        params = {"beta": 0.5, "sigma": 1.0}
    if name == "spd_matsumoto_yor":
        params = {"d": 2}
    pair = catalog_get(name, params)
    n = 1000 if name == "spd_matsumoto_yor" else 100_000
    xs, us = sample_points(pair, n, RandomStream(37))
    y, v = pair.f(xs, us), pair.g(xs, us)
    assert pair.x_space.contains(y)
    assert pair.u_space.contains(v)


# ---------------------------------------------------------------------------
# spaces as data
# ---------------------------------------------------------------------------

VALUES = (-1, 0, 0.5, 1, 2, 41, np.inf, -np.inf, np.nan)
# 1 where the space holds the value of VALUES at that position; the
# answers of the per-kind predicates these intervals replaced, except that
# +inf is no longer a positive real
MEMBERS = {
    POSITIVE_REAL: "001111000",
    UNIT_INTERVAL: "001000000",
    REAL_LINE: "111111000",
    INTEGERS: "110111000",
    NONNEG_INTEGERS: "010111000",
    THREE_POINT: "110100000",
    BIT: "010100000",
}


@pytest.mark.parametrize("space", MEMBERS, ids=lambda s: s.kind)
def test_scalar_space_membership_table(space):
    for v, member in zip(VALUES, MEMBERS[space]):
        expected = member == "1"
        assert space.contains(v) is expected, v
        assert space.contains(np.array([v, v])) is expected, v
        assert space.contains(np.array([v, np.nan])) is False, v


def _mod_form_contains(space, v):
    """Integer-space membership as mod(v, 1) == 0 inside [lo, hi]."""
    a = np.asarray(v, dtype=float)
    with np.errstate(invalid="ignore"):   # inf and nan: mod is nan
        return bool(np.all((np.mod(a, 1) == 0) & (space.lo <= a)
                           & (a <= space.hi)))


_EDGE_VALUES = (np.nan, np.inf, -np.inf, -0.0, 0.0, 1e300, -1e300, 5e-324,
                -5e-324, 0.5, -1.0, 1.0, 2.0, 3.0)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([INTEGERS, NONNEG_INTEGERS, THREE_POINT, BIT]),
       st.lists(st.one_of(st.sampled_from(_EDGE_VALUES), st.floats(),
                          st.integers(-5, 5).map(float)),
                min_size=1, max_size=12))
def test_integer_space_contains_equals_the_mod_form(space, values):
    a = np.array(values)
    assert space.contains(a) is _mod_form_contains(space, a)
    for v in values:
        assert space.contains(v) is _mod_form_contains(space, v), v


def test_product_space_membership_table():
    for b, bit in zip(VALUES, MEMBERS[BIT]):
        for w, unit in zip(VALUES, MEMBERS[UNIT_INTERVAL]):
            expected = bit == unit == "1"
            assert BERNOULLI_CROSS_UNIT.contains((b, w)) is expected, (b, w)
            assert BERNOULLI_CROSS_UNIT.contains(
                (np.array([b, 0]), np.array([w, 0.5]))) is expected, (b, w)


SPACES = {"positive_real": POSITIVE_REAL, "unit_interval": UNIT_INTERVAL,
          "real_line": REAL_LINE, "integers": INTEGERS,
          "nonneg_integers": NONNEG_INTEGERS, "three_point": THREE_POINT,
          "bernoulli_cross_unit": BERNOULLI_CROSS_UNIT, "spd": spd(2)}
BERNOULLI = {"kind": "bernoulli", "params": {"p": 0.4}}
BETA = {"kind": "beta", "params": {"a": 1, "b": 5}}
GAMMA = {"kind": "gamma", "params": {"shape": 2, "rate": 1}}
# law spec -> the spaces of SPACES it lives on
ADMITTED = [
    (GAMMA, {"positive_real", "real_line"}),
    ({"kind": "gig", "params": {"alpha": 2, "lam": 1}},
     {"positive_real", "real_line"}),
    (BETA, {"positive_real", "unit_interval", "real_line"}),
    ({"kind": "uniform"}, {"positive_real", "unit_interval", "real_line"}),
    ({"kind": "normal", "params": {"mean": 0, "variance": 1}},
     {"real_line"}),
    (BERNOULLI, {"integers", "nonneg_integers", "three_point"}),
    ({"kind": "geometric", "params": {"theta": 0.4}},
     {"integers", "nonneg_integers"}),
    ({"kind": "trunc_geom", "params": {"theta": 0.5, "ell": 2}},
     {"integers"}),
    ({"kind": "shift_geom", "params": {"theta": 0.5, "ell": 2}},
     {"integers"}),
    ({"kind": "three_point", "params": {"p": 0.2, "q": 0.5, "r": 0.3}},
     {"integers", "three_point"}),
    ({"kind": "parity_geom", "params": {"rho": 0.5, "podd": 0.3}},
     {"integers", "nonneg_integers"}),
    ({"kind": "finite_table",
      "params": {"support": [-1, 0, 1], "probs": [0.3, 0.4, 0.3]}},
     {"integers", "three_point"}),
    ({"kind": "finite_table",
      "params": {"support": [0, 3], "probs": [0.5, 0.5]}},
     {"integers", "nonneg_integers"}),
    ({"kind": "product", "components": [BERNOULLI, BETA]},
     {"bernoulli_cross_unit"}),
    ({"kind": "product", "components": [BETA, BERNOULLI]}, set()),
    ({"kind": "product", "components": [BERNOULLI, GAMMA]}, set()),
    ({"kind": "product", "components": [BERNOULLI, BETA, BETA]}, set()),
    ({"kind": "product", "components": [BERNOULLI]}, set()),
]


@pytest.mark.parametrize("spec,admitted", ADMITTED,
                         ids=lambda v: v.get("kind") if isinstance(v, dict)
                         else None)
def test_admits_table(spec, admitted):
    law = law_from_spec(spec)
    assert {name for name, space in SPACES.items()
            if space.admits(law)} == admitted


@pytest.mark.parametrize("box", [1, 5, 20])
@pytest.mark.parametrize("name,x_lo,us", [
    ("kdv_g1", None, None), ("reflecting_rw", 0, np.array([-1, 0, 1]))])
def test_integer_grid_is_the_box_clipped_to_each_space(name, x_lo, us, box):
    xs = np.arange(-box if x_lo is None else x_lo, box + 1)
    us = np.arange(-box, box + 1) if us is None else us
    xg, ug = np.meshgrid(xs, us)
    got = sample_points(catalog_get(name), 0, None, box=box)
    for a, b in zip(got, (xg.ravel(), ug.ravel())):
        assert a.dtype == np.int64
        assert np.array_equal(a, b)


def test_beta_walk_probe_draws_come_from_its_parts_in_order():
    xs, (bits, ws) = sample_points(catalog_get("beta_walk"), 1000,
                                   RandomStream(5))
    assert (xs.dtype, bits.dtype, ws.dtype) == (
        np.float64, np.int64, np.float64)
    digest = hashlib.sha256(xs.tobytes() + bits.tobytes() + ws.tobytes())
    assert digest.hexdigest() == ("c53ef54188bb50cfd1dc811ff32d4d3e"
                                  "96634c7e506861d2a662a8f44f13674c")


# ---------------------------------------------------------------------------
# catalog errors
# ---------------------------------------------------------------------------

def test_unknown_name_raises():
    with pytest.raises(KeyError):
        catalog_get("no_such_map")


def test_gaussian_parameter_validation():
    with pytest.raises(DomainError):
        catalog_get("gaussian_rosenblatt", {"beta": 1.0, "sigma": 1.0})
    with pytest.raises(DomainError):
        catalog_get("gaussian_rosenblatt", {"beta": 0.5, "sigma": 0.0})


def test_spd_dimension_validation():
    with pytest.raises(DomainError):
        catalog_get("spd_matsumoto_yor", {"d": 4})
