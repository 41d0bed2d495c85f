"""Working-set bounds of the sampling checks, measured with tracemalloc.

A check works on n-point columns and on one block of BLOCK points at a time,
so its traced peak is a few columns of 8n bytes, whatever n is.
"""

import tracemalloc
from functools import partial

import pytest

from ipmaps import cli
from ipmaps.involutions import BLOCK, catalog_get
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
    # the stanza as `ipmaps verify` runs it, from its stream: the probes
    # are drawn in the trace
    runner, defaults = cli._KINDS["involution"]
    return partial(runner, {**defaults, "map": name, "n": n},
                   RandomStream(67), None)


# a round trip's temporaries, and a drawn quarter block's, on each of the
# two threads: at most 9.1 quarter blocks on one, 18.2 on both
ROUND_TRIPS = 2 * 10 * (BLOCK // 4) / N


# name -> (bound in columns of 8n bytes, n -> the check ready to run, its
# verdict); beta_walk does not keep this product law, and ip sees it
CASES = {
    "ip:matsumoto_yor:gig-gamma": (4, partial(
        _ip, "matsumoto_yor", GIG(2, 1), Gamma(2, 1)), True),
    # X (then Y) and U (then V), both int64, each counted into a table, not
    # copied: 2.99-3.04 columns at N, set by the draw, with each law holding
    # its uniforms and at most one block beside them; the map reads at most
    # 2.83
    "ip:reflecting_rw:parity_geom": (3.1, partial(
        _ip, "reflecting_rw", ParityGeom(3 / 7, 0.3),
        ThreePoint(0.3, 0.7, 0)), True),
    # Y and V1 floats, V0 int64: V0 is counted into a table and freed
    # before Y is copied and sorted, so the marginals read at most 3.46
    # columns at N. The draw of the three laws at once, each beside a block
    # of temporaries (a third of a column at N), reads 3.70-4.03 and sets
    # the peak, and the map reads at most 3.85; at 10^6 draws, where a
    # block is a fifteenth of a column, the stanza reads 3.28 columns.
    "ip:beta_walk:product": (4.25, partial(
        _ip, "beta_walk", BetaI(2, 3), (Bernoulli(0.4), BetaI(1, 5))), False),
    "reversibility:matsumoto_yor:gig-gamma": (4, partial(
        _ip, "matsumoto_yor", GIG(2, 1), Gamma(2, 1),
        check=check_reversibility_statistical), True),
    # X and U (then Y), both int64, the pooled halves counted into a table,
    # not copied: 2.80-3.04 columns at N, set by the draw
    "reversibility:reflecting_rw:parity_geom": (3.1, partial(
        _ip, "reflecting_rw", ParityGeom(3 / 7, 0.3),
        ThreePoint(0.3, 0.7, 0), check=check_reversibility_statistical),
        True),
    # x and u, 2.58 columns at N on one thread and 2.99-3.08 on two
    "involution:matsumoto_yor": (2 + ROUND_TRIPS, partial(
        _involution, "matsumoto_yor"), True),
    # x, the bits (int64) and the weights: 3.74 columns on one thread and
    # 4.41-4.49 on two
    "involution:beta_walk": (3 + ROUND_TRIPS, partial(
        _involution, "beta_walk"), True),
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
