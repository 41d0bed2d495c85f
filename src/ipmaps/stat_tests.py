"""Goodness-of-fit, two-sample, independence, and exchangeability tests.

All tests are deterministic functions of their inputs, use asymptotic
p-values, and enforce binning rules that keep expected cell counts >= 5.
An integer column of fewer values than points is counted into a table
and labelled on the calling thread; any other of more than one block is
sorted as two runs and labelled on both cores. Contingency tables are
counted on both cores. Every array is made on the calling thread.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial, reduce

import numpy as np

from .involutions import BLOCK, blocks, concurrently, deal

DEFAULT_LEVEL = 0.001


class StatTestError(ValueError):
    pass


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float
    n: tuple
    method: str
    passed: bool
    level: float
    flags: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "statistic": float(self.statistic),
            "p_value": float(self.p_value),
            "n": list(self.n),
            "method": self.method,
            "passed": bool(self.passed),
            "level": float(self.level),
            "flags": dict(self.flags),
        }


def _result(stat, p, n, method, level, **flags):
    p = float(min(max(p, 0.0), 1.0))
    return TestResult(float(stat), p, tuple(int(v) for v in n), method,
                      p > level, float(level), flags)


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov
# ---------------------------------------------------------------------------

def ks_two_sample(a, b, level=DEFAULT_LEVEL):
    """Two-sided two-sample KS test with the asymptotic p-value."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if len(a) < 100 or len(b) < 100:
        raise StatTestError("ks_two_sample needs at least 100 points per sample")
    # the only scipy.stats use, imported here to keep it out of start-up
    from scipy import stats

    res = stats.ks_2samp(a, b, method="asymp")
    return _result(res.statistic, res.pvalue, (len(a), len(b)),
                   "ks_two_sample", level)


# ---------------------------------------------------------------------------
# chi-square machinery
# ---------------------------------------------------------------------------

def chi2_sf(stat, dof):
    """P(chi2_dof > stat), as scipy.stats.chi2.sf gives it: 1 for stat <= 0."""
    from scipy.special import chdtrc
    return float(chdtrc(dof, max(stat, 0.0)))


def _merge_small_cells(counts, expected):
    """Merge cells until every expected count reaches 5.

    Deterministic: the smallest expected cell is merged with its smaller
    neighbor, repeatedly. Input order is preserved otherwise.
    """
    counts = [float(c) for c in counts]
    expected = [float(e) for e in expected]
    while len(counts) > 1 and min(expected) < 5.0:
        i = int(np.argmin(expected))
        if i == 0:
            j = 1
        elif i == len(counts) - 1:
            j = i - 1
        else:
            j = i - 1 if expected[i - 1] <= expected[i + 1] else i + 1
        lo, hi = min(i, j), max(i, j)
        counts[lo] += counts[hi]
        expected[lo] += expected[hi]
        del counts[hi], expected[hi]
    return np.array(counts), np.array(expected)


def chi2_gof(counts, probs, level=DEFAULT_LEVEL):
    """Chi-square goodness of fit of observed counts against cell probabilities."""
    counts = np.asarray(counts, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if counts.shape != probs.shape:
        raise StatTestError("counts and probs must have equal length")
    if abs(probs.sum() - 1.0) > 1e-9:
        raise StatTestError("cell probabilities must sum to 1")
    n = counts.sum()
    obs, exp = _merge_small_cells(counts, probs * n)
    assert exp.min() >= 5.0 or len(exp) == 1
    stat = float(((obs - exp) ** 2 / exp).sum())
    dof = max(len(obs) - 1, 1)
    p = chi2_sf(stat, dof)
    return _result(stat, p, (int(n),), "chi2_gof", level, dof=dof,
                   cells=len(obs))


# ---------------------------------------------------------------------------
# binning helpers
# ---------------------------------------------------------------------------

class SortedColumn:
    """np.sort(column), read as floats without laying it out. An integer
    column spanning fewer integers than it has points is a table of ends[j],
    its count below values[j] (lo..hi), one np.bincount a block. Any other
    is sorted runs, never merged: a rank sums the runs' ranks, an order
    statistic a binary search across two runs (Frederickson & Johnson 1982).
    Parts (a lone one halved) are copied as floats into a buffer made here,
    each sorted in place on its own core."""

    def __init__(self, *parts):
        self.n = n = sum(map(len, parts))
        self.values = None
        if n and all(p.dtype.kind == "i" for p in parts):
            lo = min(int(p.min()) for p in parts)
            hi = max(int(p.max()) for p in parts)
            if hi - lo < n:   # one thread: np.bincount holds the GIL
                self.values = np.arange(lo, hi + 1.0)
                self.ends = np.zeros(hi - lo + 2, np.int64)
                for p in parts:
                    for b in blocks(len(p)):
                        self.ends[1:] += np.bincount(p[b] - lo,
                                                     minlength=hi - lo + 1)
                np.cumsum(self.ends, out=self.ends)
                return
        if n <= BLOCK:
            self.runs = [np.concatenate(parts, dtype=float)]
            return self.runs[0].sort()   # at most a block: one run
        parts = parts if len(parts) == 2 else np.array_split(parts[0], 2)
        self.runs = np.split(np.empty(n), [len(parts[0])])
        def fill(run, part):
            run[...] = part
            run.sort()
        concurrently(n, *(partial(fill, *rp) for rp in zip(self.runs, parts)))

    def searchsorted(self, v, side="left"):
        if self.values is not None:
            return self.ends[self.values.searchsorted(v, side)]
        return sum(run.searchsorted(v, side) for run in self.runs)

    def count(self, where):   # of the values v with where(v), by blocks
        if self.values is not None:
            return int(np.diff(self.ends) @ where(self.values))
        return sum(int(where(run[b]).sum())
                   for run in self.runs for b in blocks(len(run)))

    def above(self, v):   # the least value sorted after v, or None
        if self.values is not None:
            k = self.searchsorted(v, "right")
            return self[k] if k < self.n else None
        found = [run[i] for run in self.runs
                 if (i := run.searchsorted(v, "right")) < len(run)]
        return reduce(np.fmin, found) if found else None

    def __getitem__(self, k):
        """The order statistics at k, an index or an array of them."""
        if self.values is not None:   # values[j], the first with ends[j+1] > k
            return self.values[self.ends.searchsorted(np.asarray(k) % self.n,
                                                      "right") - 1]
        return self.runs[0][k] if len(self.runs) == 1 else self.bracket(k)[0]

    def bracket(self, k):
        """s[k] and s[k + 1] (s[k] again at the last index), of one search."""
        k = np.asarray(k) % self.n
        k1 = np.minimum(k + 1, self.n - 1)
        if self.values is not None or len(self.runs) == 1:
            return self[k], self[k1]
        # a[i] stands at i + b.searchsorted(a[i]), a's ties first: j, the
        # last of a's values among the k least, is found bit by bit
        a, b = self.runs
        j, last = np.maximum(k - len(b), 0) - 1, np.minimum(k, len(a)) - 1
        for step in 1 << np.arange(int((last - j).max()).bit_length())[::-1]:
            i = np.minimum(j + step, last)   # j itself where no step fits
            j = np.where(i + b.searchsorted(a[i]) < k, i, j)
        found = []
        for at in (k, k1):   # a[j + 1] if it stands at `at`, else b[at-j-1]
            i = np.minimum(j + 1, len(a) - 1)
            in_a = (j + 1 < len(a)) & (i + b.searchsorted(a[i]) == at)
            found.append(np.where(in_a, a[i],
                                  b[np.minimum(at - j - 1, len(b) - 1)])[()])
            j = j + (in_a & (k1 > k))
        return tuple(found)


def _binning(s, max_bins, *samples):
    """Labels of each sample and the bin count, from the SortedColumn s of
    the pool: searchsorted(uniq, v) on its unique values (NaNs are one
    value) if there are at most max_bins, else searchsorted(edges, v,
    side="right") on its unique interior quantiles. Each unique value is
    the least above the last, so at most max_bins + 1 are found."""
    uniq = [s[0]]
    while len(uniq) <= max_bins and (v := s.above(uniq[-1])) is not None:
        uniq.append(v)
    if len(uniq) > max_bins:
        qs = _quantiles(s, np.linspace(0.0, 1.0, max_bins + 1)[1:-1])
        edges, side = np.unique(qs), "right"
    else:
        edges, side = np.array(uniq), "left"
    return ([_labels(s, edges, v, side) for v in samples],
            len(edges) + (side == "right"))


def _quantiles(s, q):
    """np.quantile of a column from s, its SortedColumn, read off by index:
    the type-7 (linear) quantiles of Hyndman & Fan (1996) in numpy's
    arithmetic, where a NaN (sorted last) makes every quantile NaN."""
    at = (s.n - 1) * q
    i = np.where(at >= s.n - 1, -1, np.floor(at)).astype(np.intp)
    (lo, hi), t = s.bracket(i), at - i
    out = np.where(t >= 0.5, hi - (hi - lo) * (1 - t), lo + (hi - lo) * t)
    return np.where(np.isnan(s[-1]), s[-1], out)


def _labels(s, edges, values, side):
    """np.searchsorted(edges, values, side) of a part of the SortedColumn s,
    a block at a time: for a table one lookup into the labels of its
    values, else one comparison per edge, alternate blocks on two cores."""
    labels = np.zeros(len(values), dtype=np.min_scalar_type(len(edges)))
    if s.values is not None:
        table = np.searchsorted(edges, s.values, side).astype(labels.dtype)
        lo = int(s.values[0])
        for b in blocks(len(values)):   # faster on one core than on two
            np.take(table, values[b] - lo, mode="clip", out=labels[b])
        return labels
    above = np.greater if side == "left" else np.greater_equal
    def fill(b):
        v, out = values[b], labels[b]
        for edge in edges:
            out += above(v, edge)
        nan = np.isnan(v)
        if nan.any():
            # searchsorted sorts NaN after every number
            out[nan] = np.searchsorted(edges, np.nan, side)
    deal(fill, len(values))
    return labels


def bin_counts(s, edges):
    """Counts of the labels searchsorted(edges, v, side="right") of the
    values v of a SortedColumn s: a cell holds the values in [lo, hi)."""
    cuts = s.searchsorted(edges, side="left")
    return np.diff(cuts, prepend=0, append=s.n)


def _table(ra, rb, ka, kb):
    """Counts of the label pairs (ra, rb), flattened row-major, by blocks."""
    return sum(deal(lambda s: np.bincount(
        np.multiply(ra[s], kb, dtype=np.intp) + rb[s], minlength=ka * kb),
        len(ra))).astype(float)


def _pair_count(test, a, b, min_n):
    """The length of the paired 1-D columns a and b, at least min_n."""
    if np.ndim(a) != 1 or np.shape(a) != np.shape(b):
        raise StatTestError(f"{test} needs two 1-D columns of one length")
    if len(a) < min_n:
        raise StatTestError(f"{test} needs at least {min_n} pairs")
    return len(a)


def binned(s, column, bins=10):
    """`independence_test`'s (labels, bin count) of a column, from s, its
    SortedColumn: quantile bins, or the categories of at most `bins` values."""
    (labels,), k = _binning(s, bins, column)
    return labels, k


def independence_test(a, b, level=DEFAULT_LEVEL, min_n=200):
    """Chi-square independence test of two paired columns, each `binned`;
    rows/columns are merged until every expected count reaches 5."""
    (ra, ka), (rb, kb) = a, b
    n = _pair_count("independence_test", ra, rb, min_n)
    if ka < 2 or kb < 2:
        return _result(0.0, 1.0, (n,), "independence_chi2", level,
                       degenerate_marginal=True, dof=0)
    table = _merge_table(_table(ra, rb, ka, kb).reshape(ka, kb))
    r, c = table.shape
    row = table.sum(axis=1, keepdims=True)
    col = table.sum(axis=0, keepdims=True)
    exp = row * col / n
    assert exp.min() >= 5.0 or (r <= 2 and c <= 2)
    stat = float(((table - exp) ** 2 / exp).sum())
    dof = (r - 1) * (c - 1)
    p = chi2_sf(stat, dof)
    return _result(stat, p, (n,), "independence_chi2", level, dof=dof,
                   shape=[r, c])


def _merge_table(table):
    """Merge the line of least marginal (a row on a tie or at two columns)
    into the one before it, the first with the second, a column as a row of
    table.T, until all expected counts reach 5, never below 2 x 2."""
    table = table.astype(float)
    n = table.sum()
    while True:
        r, c = table.shape
        row = table.sum(axis=1)
        col = table.sum(axis=0)
        # smallest expected count under independence is min_row*min_col/n
        if row.min() * col.min() >= 5.0 * n or (r <= 2 and c <= 2):
            break
        rows = r > 2 and (c <= 2 or row.min() <= col.min())
        t, margin = (table, row) if rows else (table.T, col)
        i = max(int(np.argmin(margin)) - 1, 0)
        t[i] += t[i + 1]
        t = np.delete(t, i + 1, axis=0)
        table = t if rows else t.T
    return table


def exchangeability_test(a, b, level=DEFAULT_LEVEL, min_n=200):
    """Test whether (A,B) and (B,A) are equal in law, from the paired
    columns a and b, of floats or ints.

    Split-half scheme: the first half of the sample is kept as-is, the
    second half is coordinate-swapped, and a two-sample chi-square
    homogeneity test compares the two independent halves on a common
    quantile-binned 2-D grid.
    """
    n = _pair_count("exchangeability_test", a, b, min_n)
    half = n // 2
    bins = 10 if half >= 10_000 else 5
    # per pooled column, the first half as-is and the second half swapped:
    # its pieces counted, or sorted on both cores as the runs of a buffer
    ((ia_a, ia_b), ka), ((ib_a, ib_b), kb) = (
        _bin_indices_from(*h, bins) for h in (
            (a[:half], b[half:2 * half]), (b[:half], a[half:2 * half])))
    ca = _table(ia_a, ib_a, ka, kb)
    cb = _table(ia_b, ib_b, ka, kb)
    pooled_counts = ca + cb
    # collapse cells whose pooled expectation is too small into one bucket
    small = pooled_counts / 2.0 < 5.0
    if small.any():
        ca = np.append(ca[~small], ca[small].sum())
        cb = np.append(cb[~small], cb[small].sum())
        pooled_counts = ca + cb
    keep = pooled_counts > 0
    ca, cb, pooled_counts = ca[keep], cb[keep], pooled_counts[keep]
    if len(ca) < 2:
        return _result(0.0, 1.0, (half, half), "exchangeability_chi2", level,
                       degenerate=True, dof=0)
    ea = pooled_counts * (ca.sum() / pooled_counts.sum())
    eb = pooled_counts * (cb.sum() / pooled_counts.sum())
    stat = float((((ca - ea) ** 2) / ea).sum() + (((cb - eb) ** 2) / eb).sum())
    dof = len(ca) - 1
    p = chi2_sf(stat, dof)
    return _result(stat, p, (half, half), "exchangeability_chi2", level,
                   dof=dof, cells=len(ca))


def _bin_indices_from(a, b, max_bins):
    """Common bin labels of a and b, the runs of their pool's SortedColumn."""
    return _binning(SortedColumn(a, b), max_bins, a, b)
