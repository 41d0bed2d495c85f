"""Tests for the statistical test machinery."""

import json
import threading
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from ipmaps import involutions, kernels, stat_tests
from ipmaps.involutions import BLOCK
from ipmaps.laws import Gamma, Geometric, ThreePoint, UniformUnit
from ipmaps.rng import RandomStream
from ipmaps.stat_tests import (
    SortedColumn, StatTestError, _bin_indices_from, _binning, bin_counts,
    binned, chi2_gof, exchangeability_test, independence_test, ks_two_sample,
)


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov
# ---------------------------------------------------------------------------

def test_ks_identical_samples():
    a = np.linspace(0.0, 1.0, 500)
    res = ks_two_sample(a, a.copy())
    assert res.statistic == 0.0
    assert res.p_value == 1.0
    assert res.passed


def test_ks_detects_shift():
    gen = RandomStream(107).gen
    a = gen.normal(0.0, 1.0, 10_000)
    b = gen.normal(1.0, 1.0, 10_000)
    res = ks_two_sample(a, b)
    assert res.p_value < 1e-10
    assert not res.passed
    # the analytic distance Phi(0.5) - Phi(-0.5) lower-bounds the statistic
    assert res.statistic > 0.3


def test_ks_null_case():
    gen = RandomStream(109).gen
    res = ks_two_sample(gen.normal(size=10_000), gen.normal(size=10_000))
    assert res.passed


def test_ks_sample_floor():
    with pytest.raises(StatTestError):
        ks_two_sample(np.zeros(50), np.zeros(200))


# ---------------------------------------------------------------------------
# chi-square GOF
# ---------------------------------------------------------------------------

def test_chi2_exact_proportions():
    probs = np.array([0.2, 0.5, 0.3])
    res = chi2_gof(probs * 1000, probs)
    assert res.statistic == 0.0
    assert res.p_value == 1.0


def test_chi2_null_geometric():
    law = Geometric(0.4)
    draws = np.asarray(law.sample(RandomStream(113), 100_000))
    hi = int(draws.max())
    counts = np.array([(draws == k).sum() for k in range(hi + 1)], dtype=float)
    counts = np.append(counts, 0.0)
    probs = np.array([(1 - 0.4) * 0.4 ** k for k in range(hi + 1)]
                     + [0.4 ** (hi + 1)])
    res = chi2_gof(counts, probs / probs.sum())
    assert res.passed


def test_chi2_power_against_wrong_rate():
    draws = np.asarray(Geometric(0.5).sample(RandomStream(127), 100_000))
    hi = int(draws.max())
    counts = np.array([(draws == k).sum() for k in range(hi + 1)], dtype=float)
    counts = np.append(counts, 0.0)
    # the geo(0.4) pmf (1 - theta) theta^k
    probs = np.array([(1 - 0.4) * 0.4 ** k for k in range(hi + 1)]
                     + [0.4 ** (hi + 1)])
    res = chi2_gof(counts, probs / probs.sum())
    assert res.p_value < 1e-10


def test_chi2_merges_small_cells():
    counts = np.array([500.0, 499.0, 1.0])
    probs = np.array([0.5, 0.499, 0.001])
    res = chi2_gof(counts, probs)
    assert res.flags["cells"] == 2


def test_chi2_shape_errors():
    with pytest.raises(StatTestError):
        chi2_gof([1.0, 2.0], [1.0])
    with pytest.raises(StatTestError):
        chi2_gof([1.0, 2.0], [0.5, 0.6])


def test_chi2_sf_matches_scipy_stats_bits():
    gen = RandomStream(19).gen
    for dof in range(1, 401):
        grid = np.concatenate([[0.0, -0.0, np.inf, 1e-300],
                               gen.random(20) * 4.0 * dof])
        got = [stat_tests.chi2_sf(float(s), dof).hex() for s in grid]
        assert got == [float(stats.chi2.sf(s, dof)).hex() for s in grid]
        # below the support scipy.stats gives 1; the bare chdtrc gives nan
        assert stat_tests.chi2_sf(-1.0, dof) == stats.chi2.sf(-1.0, dof) == 1.0


# ---------------------------------------------------------------------------
# independence
# ---------------------------------------------------------------------------

def _independence(a, b, **kwargs):
    """independence_test of the columns a and b, each sorted once here."""
    return independence_test(binned(SortedColumn(a), a),
                             binned(SortedColumn(b), b), **kwargs)


def test_independence_rejects_perfect_dependence():
    a = RandomStream(131).gen.random(100_000)
    res = _independence(a, a)
    assert res.p_value < 1e-10


def test_independence_null():
    gen = RandomStream(137).gen
    res = _independence(*gen.random((100_000, 2)).T)
    assert res.passed


def test_independence_degenerate_marginal_flag():
    a = RandomStream(139).gen.random(1000)
    res = _independence(a, np.zeros(1000))
    assert res.passed
    assert res.flags["degenerate_marginal"]


def test_independence_sample_floor():
    with pytest.raises(StatTestError):
        _independence(np.zeros(50), np.zeros(50))


def test_tests_reject_columns_of_unequal_length():
    a = RandomStream(141).gen.random(1000)
    with pytest.raises(StatTestError):
        _independence(a, a[:-1])
    with pytest.raises(StatTestError):
        exchangeability_test(a, a[:-1])


# ---------------------------------------------------------------------------
# exchangeability
# ---------------------------------------------------------------------------

def test_exchangeable_construction_passes():
    z = RandomStream(149).gen.normal(size=(100_000, 3))
    assert exchangeability_test(z[:, 0] + z[:, 2], z[:, 1] + z[:, 2]).passed


def test_mean_shift_rejects():
    a = RandomStream(151).gen.normal(size=100_000)
    res = exchangeability_test(a, a + 1.0)
    assert res.p_value < 1e-10


def test_exchangeability_sample_floor():
    with pytest.raises(StatTestError):
        exchangeability_test(np.zeros(50), np.zeros(50))


def test_results_are_deterministic():
    gen = RandomStream(157).gen
    a, b = gen.random((5000, 2)).T
    r1 = _independence(a, b)
    r2 = _independence(a.copy(), b.copy())
    assert r1 == r2
    assert r1.to_dict() == r2.to_dict()


class _Inline(threading.Thread):
    """A thread that runs its target when started, on the starting thread,
    and records the traced peak of that run above what was held before."""

    peaks = []

    def start(self):
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        self.run()
        self.peaks.append(tracemalloc.get_traced_memory()[1] - held)

    def join(self, timeout=None):
        pass


def test_tests_of_many_blocks_allocate_no_n_point_array_on_a_helper(
        monkeypatch):
    # a helper sorts, labels and counts in arrays made on the calling
    # thread, with temporaries of a few blocks: a uint8 column of these n
    # points is larger than they are
    n = 40 * BLOCK + 1
    a, b = RandomStream(163).gen.random((2, n))

    def tests():
        return [json.dumps(r.to_dict()) for r in
                (_independence(a, b), exchangeability_test(a, b))]

    seen = {}
    for cores in (1, 2):
        monkeypatch.setattr(involutions, "usable_cores", lambda: cores)
        seen[cores] = tests()
    assert seen[1] == seen[2]
    assert all(json.loads(r)["passed"] for r in seen[1])
    monkeypatch.setattr(threading, "Thread", _Inline)
    _Inline.peaks.clear()
    tracemalloc.start()
    try:
        assert tests() == seen[1]
    finally:
        tracemalloc.stop()
    # per column a sort and a labelling, and a count per table
    assert len(_Inline.peaks) == 2 * 2 + 1 + 2 * 3 + 2
    assert max(_Inline.peaks) < n, f"{max(_Inline.peaks) / n:.2f} n bytes"


# ---------------------------------------------------------------------------
# binning from one sort against the searchsorted binning it replaced
# ---------------------------------------------------------------------------

def _ref_bin_indices(values, max_bins):
    values = np.asarray(values, dtype=float)
    uniq = np.unique(values)
    if len(uniq) <= max_bins:
        return np.searchsorted(uniq, values), len(uniq)
    qs = np.quantile(values, np.linspace(0.0, 1.0, max_bins + 1)[1:-1])
    edges = np.unique(qs)
    return np.searchsorted(edges, values, side="right"), len(edges) + 1


def _ref_bin_indices_from(a, b, max_bins):
    pooled = np.concatenate([a, b])
    uniq = np.unique(pooled)
    if len(uniq) <= max_bins:
        return (np.searchsorted(uniq, a), np.searchsorted(uniq, b)), len(uniq)
    qs = np.quantile(pooled, np.linspace(0.0, 1.0, max_bins + 1)[1:-1])
    edges = np.unique(qs)
    return (np.searchsorted(edges, a, side="right"),
            np.searchsorted(edges, b, side="right")), len(edges) + 1


def _ref_binning(s, max_bins, column):
    idx, k = _ref_bin_indices(column, max_bins)
    return [idx], k


def _ref_table(ra, rb, ka, kb):
    table = np.zeros((ka, kb))
    np.add.at(table, (ra, rb), 1.0)
    return table.ravel()


def _ref_bin_counts(values, edges):
    idx = np.searchsorted(edges, np.asarray(values, dtype=float), side="right")
    return np.bincount(idx, minlength=len(edges) + 1)


def _binning_inputs(n=4000):
    gen = RandomStream(211).gen
    cont = gen.gamma(2.0, 1.0, n)
    ties = gen.integers(0, 40, n).astype(float)
    special = cont.copy()
    special[[3, 70, 500]] = np.inf
    special[[9, 800]] = -np.inf
    special[[11, 12, 2000]] = np.nan
    few_nan = gen.integers(0, 4, n).astype(float)
    few_nan[[5, 6, 7]] = np.nan
    all_nan = np.full(n, np.nan)
    all_nan[:50] = 1.0
    return {
        "continuous": cont,
        "tied_at_quantile_edges": ties,
        "bins_unique": gen.integers(0, 10, n).astype(float),
        "bins_plus_one_unique": gen.integers(0, 11, n).astype(float),
        "all_equal": np.full(n, 2.5),
        "inf_and_nan": special,
        "few_values_and_nan": few_nan,
        "mostly_nan": all_nan,
        # one heavy atom: quantile edges collapse, leaving empty cells
        "heavy_atom": np.where(gen.random(n) < 0.7, 0.0, cont),
        # 9 numbers and a run of NaNs, which count as one value: 10 in all
        "bins_unique_with_nan_run": np.where(
            gen.random(n) < 0.1, np.nan, gen.integers(0, 9, n)),
    }


BINNING_INPUTS = _binning_inputs()


def _same(x, y):
    return json.dumps(x.to_dict(), sort_keys=True) == \
        json.dumps(y.to_dict(), sort_keys=True)


def _quantile_inputs():
    gen = RandomStream(227).gen
    for n in (1, 2, 3, 4, *gen.integers(5, 3000, 12)):
        yield gen.normal(size=n)
        yield gen.integers(0, 3, n).astype(float)    # ties
        special = gen.normal(size=n)
        special[gen.random(n) < 0.2] = np.inf
        special[gen.random(n) < 0.2] = -np.inf
        yield special
        yield np.where(gen.random(n) < 0.5, np.inf, -np.inf)
        with_nan = special.copy()
        with_nan[gen.integers(0, n)] = np.nan
        yield with_nan


@pytest.mark.parametrize("bins", [5, 10, 50, 300])
def test_quantiles_by_index_match_np_quantile_bit_for_bit(bins):
    q = np.linspace(0.0, 1.0, bins + 1)[1:-1]
    with np.errstate(invalid="ignore"):     # inf - inf, as numpy computes
        for values in _quantile_inputs():
            s = np.sort(values)
            got = stat_tests._quantiles(SortedColumn(values), q).view(
                np.int64)
            assert np.array_equal(got, np.quantile(s, q).view(np.int64))
            assert np.array_equal(got, np.quantile(values, q).view(np.int64))


# 300 bins: more edges than an 8-bit label can count
@pytest.mark.parametrize("bins", [10, 300])
@pytest.mark.parametrize("name", sorted(BINNING_INPUTS))
def test_labels_match_searchsorted_reference(name, bins):
    values = BINNING_INPUTS[name]
    (labels,), k = _binning(SortedColumn(values), bins, values)
    ref, ref_k = _ref_bin_indices(values, bins)
    assert k == ref_k
    assert np.array_equal(labels.astype(np.int64), ref)
    # pooled edges: labels of one half and of a reversed other half
    half = len(values) // 2
    a, b = values[:half], values[half:][::-1]
    (la, lb), k = _bin_indices_from(a, b, bins)
    (ra, rb), ref_k = _ref_bin_indices_from(a, b, bins)
    assert k == ref_k
    assert np.array_equal(la.astype(np.int64), ra)
    assert np.array_equal(lb.astype(np.int64), rb)


@pytest.mark.parametrize("name", sorted(BINNING_INPUTS))
def test_bin_counts_match_searchsorted_reference(name):
    values = BINNING_INPUTS[name]
    finite = np.unique(values[np.isfinite(values)])
    # edges at sample values, between them, and beyond the sample
    for edges in (finite[::7], np.quantile(finite, [0.1, 0.5, 0.9]),
                  np.array([-1.0, 0.0, 2.5, 100.0])):
        counts = bin_counts(SortedColumn(values), edges)
        assert np.array_equal(counts, _ref_bin_counts(values, edges))
        assert counts.sum() == len(values)


@pytest.mark.parametrize("name", sorted(BINNING_INPUTS))
def test_tests_match_searchsorted_reference(name, monkeypatch):
    values = BINNING_INPUTS[name]
    other = BINNING_INPUTS["tied_at_quantile_edges"]
    pairs = [(values, other), (other, values), (values, values[::-1])]
    new = [(_independence(*p), exchangeability_test(*p)) for p in pairs]
    monkeypatch.setattr(stat_tests, "_binning", _ref_binning)
    monkeypatch.setattr(stat_tests, "_bin_indices_from",
                        _ref_bin_indices_from)
    monkeypatch.setattr(stat_tests, "_table", _ref_table)
    old = [(_independence(*p), exchangeability_test(*p)) for p in pairs]
    for (ind, exc), (ref_ind, ref_exc) in zip(new, old):
        assert _same(ind, ref_ind)
        assert _same(exc, ref_exc)


@pytest.mark.parametrize("law,low,high,n", [
    (Gamma(2.0, 1.0), 0.0, 30.0, 20_000),
    (Gamma(2.0, 1.0), 0.0, 30.0, 100_000),
    # draws on a third of the support: most cells are empty
    (UniformUnit(), 0.0, 0.3, 20_000),
])
def test_gof_counts_match_searchsorted_reference(law, low, high, n,
                                                 monkeypatch):
    gen = RandomStream(223).gen
    k = 50 if n >= 100_000 else 20
    edges = np.asarray(law.quantile(np.linspace(0.0, 1.0, k + 1)[1:-1]))
    draws = gen.uniform(low, high, n - 5 * len(edges))
    # every edge drawn exactly, five times
    samples = np.concatenate([draws, np.repeat(edges, 5)])
    samples = SortedColumn(samples)
    new = kernels._gof_against_law(samples, law)
    monkeypatch.setattr(stat_tests, "bin_counts", lambda s, edges:
                        _ref_bin_counts(np.concatenate(s.runs), edges))
    assert _same(new, kernels._gof_against_law(samples, law))


# ---------------------------------------------------------------------------
# a column of more than one block, read off two sorted runs unmerged
# ---------------------------------------------------------------------------

# odd sizes: the first run holds one point more than the second
TWO_RUN_SIZES = (2 * BLOCK + 1, 3 * BLOCK + 7)


def _two_run_inputs(n):
    gen = RandomStream(229).gen
    inputs = _binning_inputs(n)   # its "mostly_nan" has a second run of NaN
    zeros = gen.normal(size=n)
    zeros[gen.random(n) < 0.3] = 0.0
    zeros[gen.random(n) < 0.3] = -0.0
    inputs["signed_zeros"] = zeros
    inputs["first_run_nan"] = np.where(np.arange(n) <= n // 2, np.nan,
                                       gen.normal(size=n))
    # ten values, the even ones in the first run and the odd in the second
    inputs["runs_of_other_values"] = np.where(
        np.arange(n) <= n // 2, 2 * gen.integers(0, 5, n),
        2 * gen.integers(0, 5, n) + 1).astype(float)
    return inputs


TWO_RUN_INPUTS = {n: _two_run_inputs(n) for n in TWO_RUN_SIZES}
TWO_RUN_CASES = [(n, name) for n in TWO_RUN_SIZES
                 for name in sorted(TWO_RUN_INPUTS[n])]


def _bits(x):
    """The bits of x, with -0.0 read as 0.0: np.sort may put either of two
    equal zeros first."""
    return (np.asarray(x, dtype=float) + 0.0).view(np.int64)


@pytest.mark.parametrize("n,name", TWO_RUN_CASES)
def test_two_runs_read_as_the_full_sort(n, name, monkeypatch):
    values = TWO_RUN_INPUTS[n][name]
    s, full = SortedColumn(values), np.sort(values)
    assert [len(run) for run in s.runs] == [(n + 1) // 2, n // 2]
    with monkeypatch.context() as m:    # the full sort, as one run
        m.setattr(stat_tests, "BLOCK", n)
        one_run = SortedColumn(values)
    assert len(one_run.runs) == 1
    assert np.array_equal(_bits(one_run.runs[0]), _bits(full))
    ks = np.r_[0, 1, n // 2 - 1:n // 2 + 2, n - 2, n - 1,
               RandomStream(233).gen.integers(0, n, 200)]
    assert np.array_equal(_bits(s[ks]), _bits(full[ks]))
    assert np.array_equal(_bits(s[-1]), _bits(full[-1]))
    # each order statistic and the next, the last one twice
    for got, want in zip(s.bracket(ks), (ks, np.minimum(ks + 1, n - 1))):
        assert np.array_equal(_bits(got), _bits(full[want]))
    probes = np.r_[values[ks], np.nan, np.inf, -np.inf, 0.0, -0.0, 1e300]
    for side in ("left", "right"):
        assert np.array_equal(s.searchsorted(probes, side),
                              np.searchsorted(full, probes, side))
    for bins in (5, 10, 50):
        q = np.linspace(0.0, 1.0, bins + 1)[1:-1]
        with np.errstate(invalid="ignore"):     # inf - inf
            assert np.array_equal(_bits(stat_tests._quantiles(s, q)),
                                  _bits(np.quantile(values, q)))
        (labels,), k = _binning(s, bins, values)
        ref, ref_k = _ref_bin_indices(values, bins)
        assert k == ref_k
        assert np.array_equal(labels.astype(np.int64), ref)
    finite = np.unique(values[np.isfinite(values)])
    for edges in (finite[::max(len(finite) // 30, 1)],
                  np.array([-1.0, 0.0, 2.5, 100.0])):
        assert np.array_equal(bin_counts(s, edges),
                              _ref_bin_counts(values, edges))
    for law in (Gamma(2.0, 1.0), Geometric(0.4)):
        assert _same(kernels._gof_against_law(s, law),
                     kernels._gof_against_law(one_run, law))
    other = TWO_RUN_INPUTS[n]["tied_at_quantile_edges"]
    ind, exc = (_independence(values, other),
                exchangeability_test(values, other))
    monkeypatch.setattr(stat_tests, "_binning", _ref_binning)
    monkeypatch.setattr(stat_tests, "_bin_indices_from",
                        _ref_bin_indices_from)
    monkeypatch.setattr(stat_tests, "_table", _ref_table)
    assert _same(ind, _independence(values, other))
    assert _same(exc, exchangeability_test(values, other))


# ---------------------------------------------------------------------------
# an integer column of fewer values than points, read off a table of counts
# ---------------------------------------------------------------------------

# one block less a few points, and more than two blocks
TABLE_SIZES = (BLOCK - 5, 2 * BLOCK + 1)


def _integer_inputs(n):
    """name -> the parts of a pooled integer column of n points."""
    gen = RandomStream(239).gen
    return {
        "geometric": (gen.geometric(0.6, n) - 1,),
        "negative": (gen.integers(-7, 3, n),),
        "one_value": (np.full(n, -4, np.int64),),
        # as exchangeability_test pools them: two halves of other ranges
        "two_parts": (gen.integers(-3, 4, n // 2),
                      gen.integers(0, 12, n - n // 2)),
        "gaps": (3 * gen.integers(-5, 5, n),),
    }


TABLE_CASES = [(n, name) for n in TABLE_SIZES
               for name in sorted(_integer_inputs(8))]


@pytest.mark.parametrize("n,name", TABLE_CASES)
def test_table_reads_as_the_full_sort(n, name):
    parts = _integer_inputs(n)[name]
    s, full = SortedColumn(*parts), np.sort(np.concatenate(parts))
    full = full.astype(float)
    assert s.values is not None    # a table, no sorted copy
    ks = np.arange(-n, n)
    got = s[ks]
    assert got.dtype == float and np.array_equal(got, full[ks])
    for k in (0, 1, n // 2, n - 1, -1, -n):
        assert type(s[k]) is np.float64 and s[k] == full[k]
    at = ks % n   # each order statistic and the next, the last one twice
    for got, want in zip(s.bracket(ks), (at, np.minimum(at + 1, n - 1))):
        assert np.array_equal(got, full[want])
    # at every value, between values, beyond both ends, and NaN and inf
    probes = np.r_[np.unique(full), np.unique(full) + 0.5, full[0] - 1.5,
                   -0.0, np.nan, np.inf, -np.inf]
    for side in ("left", "right"):
        assert np.array_equal(s.searchsorted(probes, side),
                              np.searchsorted(full, probes, side))
        assert s.searchsorted(full[-1], side) == np.searchsorted(
            full, full[-1], side)
    for v in np.r_[full[0] - 1, np.unique(full), full[-1] + 0.5]:
        later = full[full > v]
        assert s.above(v) == (later[0] if len(later) else None)
    assert s.count(lambda v: v >= 0) == (full >= 0).sum()
    # categorical and quantile labels, each searchsorted(edges, v, side)
    kinds = set()
    for bins in (5, 10, 50):
        labels, k = _binning(s, bins, *parts)
        if len(parts) == 1:
            ref, ref_k = _ref_bin_indices(parts[0], bins)
            ref = [ref]
        else:
            ref, ref_k = _ref_bin_indices_from(*parts, bins)
        assert k == ref_k
        for got_labels, want in zip(labels, ref):
            assert np.array_equal(got_labels.astype(np.int64), want)
        kinds.add(k == len(np.unique(full)))
        q = np.linspace(0.0, 1.0, bins + 1)[1:-1]
        assert np.array_equal(stat_tests._quantiles(s, q),
                              np.quantile(full, q))
    if len(np.unique(full)) > 5:
        assert kinds == {True, False}


@pytest.mark.parametrize("n", TABLE_SIZES)
def test_integer_column_of_wide_range_is_sorted(n):
    # n values over more than n integers: two sorted runs, or one
    values = RandomStream(241).gen.integers(-n, 2 * n, n)
    s, full = SortedColumn(values), np.sort(values).astype(float)
    assert s.values is None
    assert len(s.runs) == (2 if n > BLOCK else 1)
    ks = np.r_[0, 1, n // 2, n - 2, n - 1, -1]
    assert np.array_equal(s[ks], full[ks])
    for side in ("left", "right"):
        assert np.array_equal(s.searchsorted(full[::97] + 0.5, side),
                              np.searchsorted(full, full[::97] + 0.5, side))
    (labels,), k = _binning(s, 10, values)
    ref, ref_k = _ref_bin_indices(values, 10)
    assert k == ref_k and np.array_equal(labels.astype(np.int64), ref)


@pytest.mark.parametrize("n", TABLE_SIZES)
@pytest.mark.parametrize("law,outside", [
    # three draws below the support, and two above it
    (Geometric(0.4), {3: -2, 70: -1, -1: -1}),
    (ThreePoint(0.2, 0.5, 0.3), {5: 2, -2: 3}),
    (Gamma(2.0, 1.0), {0: -1, 9: -3}),
])
def test_gof_outside_support_of_a_table_matches_its_float_copy(n, law,
                                                                outside):
    lo = int(law.support_lo)
    draws = RandomStream(251).gen.integers(lo, lo + 3, n)
    draws[list(outside)] = list(outside.values())
    table, runs = SortedColumn(draws), SortedColumn(draws.astype(float))
    assert table.values is not None and runs.values is None
    res = kernels._gof_against_law(table, law)
    assert res.flags["outside_support"] == len(outside)
    assert res.flags["reason"].startswith(f"{len(outside)} of {n} draws")
    assert _same(res, kernels._gof_against_law(runs, law))
