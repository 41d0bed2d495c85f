"""Working-set bounds of the sampling checks, measured with tracemalloc.

A check works on n-point columns and on one block of BLOCK points at a time,
so its traced peak is a few columns of 8n bytes, whatever n is.
"""

import tracemalloc
from functools import partial

import pytest

from ipmaps.involutions import catalog_get, check_involution, sample_points
from ipmaps.kernels import (check_ip_statistical,
                            check_reversibility_statistical)
from ipmaps.laws import (
    Bernoulli, BetaI, GIG, Gamma, ParityGeom, ThreePoint,
)
from ipmaps.rng import RandomStream

N = 200_000


def _ip(name, mu, nu, n, check=check_ip_statistical):
    return partial(check, catalog_get(name), mu, nu, n, RandomStream(61))


def _involution(name, n):
    # the probe points are drawn before the trace starts
    pair = catalog_get(name)
    return partial(check_involution, pair,
                   *sample_points(pair, n, RandomStream(67)))


# name -> (bound in columns of 8n bytes, n -> the check ready to run, its
# verdict); beta_walk does not keep this product law, and ip sees it
CASES = {
    "ip:matsumoto_yor:gig-gamma": (4, partial(
        _ip, "matsumoto_yor", GIG(2, 1), Gamma(2, 1)), True),
    # X (then Y) and U (then V), both int64: 3.41 columns at N in 38 runs
    # of 38, set after the draw, which reads 3.00 with each law holding its
    # uniforms and at most one block beside them
    "ip:reflecting_rw:parity_geom": (3.5, partial(
        _ip, "reflecting_rw", ParityGeom(3 / 7, 0.3),
        ThreePoint(0.3, 0.7, 0)), True),
    "ip:beta_walk:product": (5, partial(
        _ip, "beta_walk", BetaI(2, 3), (Bernoulli(0.4), BetaI(1, 5))), False),
    "reversibility:matsumoto_yor:gig-gamma": (4, partial(
        _ip, "matsumoto_yor", GIG(2, 1), Gamma(2, 1),
        check=check_reversibility_statistical), True),
    # X and U (then Y), both int64: 3.34-3.36 columns at N in 38 runs; a
    # float copy of Y beside them reads 4.36
    "reversibility:reflecting_rw:parity_geom": (3.5, partial(
        _ip, "reflecting_rw", ParityGeom(3 / 7, 0.3),
        ThreePoint(0.3, 0.7, 0), check=check_reversibility_statistical),
        True),
    "involution:matsumoto_yor": (2, partial(_involution, "matsumoto_yor"),
                                 True),
}


@pytest.mark.parametrize("case", CASES)
def test_traced_peak_is_a_few_columns(case):
    columns, make, verdict = CASES[case]
    # lazy imports and first-call caches, outside the trace, at
    # reversibility's least n
    make(10_000)()
    check = make(N)
    tracemalloc.start()
    try:
        report = check()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed is verdict
    assert peak <= columns * 8 * N, f"{peak / (8 * N):.2f} columns"


def test_traced_peak_of_a_gig_draw_is_its_proposals_and_output():
    # the n-point output, 8 MB at n = 10^6, and one block of proposals:
    # a round's v and w are read in place a block at a time
    law = GIG(2, 1)
    law.sample(RandomStream(71), 1_000)
    tracemalloc.start()
    try:
        law.sample(RandomStream(73), 1_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6, f"{peak / 1e6:.1f} MB"
