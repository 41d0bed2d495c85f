"""Per-layer tracing of the ipmaps package, installed from outside it.

`Tracer.install` replaces public functions of each module with timing
wrappers, patching every name where its caller looks it up (`cli` imports
`catalog_get` and friends by name, `burke` imports `_gof_against_law` by
name), and `Tracer.uninstall` puts every original back.

Two kinds of wrapper:

* a span wraps a coarse boundary (a check, a test, a field simulation) and
  records (name, start, end, parent span, check id) in memory;
* an aggregate wraps a per-element call (a law's sample/cdf/quantile/pmf,
  a catalog pair's f and g, a space membership test) and only adds to a
  count and a busy time, because these run up to N*T times per check.

Self time of a span is its duration minus its child spans and minus the
self time of the aggregated calls made directly under it, so the self
times of all spans and aggregates add up to the traced wall time.
"""

from __future__ import annotations

import dataclasses
import functools
from time import perf_counter

import numpy as np

from ipmaps import (augmentation, burke, cli, exact_discrete, involutions,
                    kernels, laws, skorokhod, stat_tests)

# (module, attribute, span name): every place a traced function is looked up
SPANS = (
    (cli, "run", "cli.run"),
    (cli, "load_config", "cli.load_config"),
    (cli, "emit", "cli.emit"),
    (cli, "law_from_spec", "laws.construct"),
    (laws, "law_from_spec", "laws.construct"),
    (cli, "truncate", "laws.truncate"),
    (laws, "truncate", "laws.truncate"),
    (cli, "check_involution", "involutions.check_involution"),
    (involutions, "check_involution", "involutions.check_involution"),
    (cli, "sample_points", "involutions.sample_points"),
    (involutions, "sample_points", "involutions.sample_points"),
    (cli, "verify_hypotheses", "augmentation.verify_hypotheses"),
    (augmentation, "verify_hypotheses", "augmentation.verify_hypotheses"),
    (kernels, "check_ip_statistical", "kernels.check_ip_statistical"),
    (kernels, "check_reversibility_statistical",
     "kernels.check_reversibility_statistical"),
    (kernels, "check_detailed_balance_exact",
     "kernels.check_detailed_balance_exact"),
    (kernels, "_gof_against_law", "kernels.gof_against_law"),
    (burke, "_gof_against_law", "kernels.gof_against_law"),
    (stat_tests, "chi2_gof", "stat_tests.chi2_gof"),
    (stat_tests, "independence_test", "stat_tests.independence_test"),
    (stat_tests, "exchangeability_test", "stat_tests.exchangeability_test"),
    (stat_tests, "ks_two_sample", "stat_tests.ks_two_sample"),
    (burke, "simulate_field", "burke.simulate_field"),
    (burke, "verify_burke", "burke.verify_burke"),
    (burke, "check_recursion", "burke.check_recursion"),
    (burke, "field_rows", "burke.field_rows"),
    (exact_discrete, "rrw_forced_table", "exact_discrete.rrw_forced_table"),
    (exact_discrete, "rrw_joint_table", "exact_discrete.rrw_joint_table"),
    (exact_discrete, "rrw_verify_proof_identities",
     "exact_discrete.rrw_verify_proof_identities"),
    (exact_discrete, "product_defect_tv", "exact_discrete.product_defect_tv"),
    (exact_discrete, "kdv_pushforward_tv",
     "exact_discrete.kdv_pushforward_tv"),
    (skorokhod, "skorokhod_f", "skorokhod.skorokhod_f"),
    (skorokhod, "rosenblatt_g", "skorokhod.rosenblatt_g"),
    (skorokhod, "check_monotone", "skorokhod.check_monotone"),
)
LAW_METHODS = ("sample", "cdf", "quantile", "pmf")
AGGREGATES = (*(f"laws.{method}" for method in LAW_METHODS),
              "involutions.map", "involutions.contains")
STAT_TESTS = ("stat_tests.chi2_gof", "stat_tests.independence_test",
              "stat_tests.exchangeability_test", "stat_tests.ks_two_sample")

# per-layer metric -> unit, in report order; `<span name>_s` is the summed
# self time of that span
PER_LAYER_UNITS = {
    "cli.run_s": "s", "cli.load_config_s": "s", "cli.self_s": "s",
    "laws.construct_s": "s",
    "laws.sample_calls": "count", "laws.sample_s": "s",
    "laws.cdf_calls": "count", "laws.cdf_s": "s",
    "laws.quantile_calls": "count", "laws.quantile_s": "s",
    "laws.pmf_calls": "count", "laws.pmf_s": "s",
    "laws.truncate_s": "s",
    "involutions.map_calls": "count", "involutions.map_points": "count",
    "involutions.map_s": "s",
    "involutions.contains_calls": "count", "involutions.contains_s": "s",
    "involutions.check_involution_s": "s",
    "involutions.sample_points_s": "s",
    "augmentation.verify_hypotheses_s": "s",
    "kernels.check_ip_statistical_s": "s",
    "kernels.check_reversibility_statistical_s": "s",
    "kernels.check_detailed_balance_exact_s": "s",
    "kernels.gof_against_law_s": "s",
    "stat_tests.calls": "count", "stat_tests.chi2_gof_s": "s",
    "stat_tests.independence_test_s": "s",
    "stat_tests.exchangeability_test_s": "s",
    "stat_tests.cells_kept_ratio": "ratio",
    "stat_tests.subtests_per_check": "count/check",
    "burke.sites": "count", "burke.simulate_field_s": "s",
    "burke.verify_burke_s": "s", "burke.check_recursion_s": "s",
    "burke.field_rows_s": "s",
    "exact_discrete.rrw_forced_table_s": "s",
    "exact_discrete.rrw_joint_table_s": "s",
    "exact_discrete.rrw_verify_proof_identities_s": "s",
    "exact_discrete.product_defect_tv_s": "s",
    "exact_discrete.kdv_pushforward_tv_s": "s",
    "skorokhod.skorokhod_f_s": "s", "skorokhod.rosenblatt_g_s": "s",
    "skorokhod.check_monotone_s": "s",
    "trace.untraced_pass_s": "s", "trace.overhead_s": "s",
}


class Tracer:
    """Spans and aggregate counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent, check, fine_self]
        # name -> [calls, self seconds, points]
        self.aggregates = {name: [0, 0.0, 0] for name in AGGREGATES}
        self.cells = [0, 0]    # stat-test cells passed in, cells kept
        self.sites = 0         # lattice sites simulated
        self.check = None      # id stamped on new spans
        self._frames = []      # child seconds of each open wrapped call
        self._open = []        # indices of open spans
        self._bins = []        # bin counts of the open exchangeability test
        self._patches = []     # (owner, attribute, original)

    # -- wrappers ----------------------------------------------------------

    def span(self, name, fn, after=None):
        """Wrap `fn` so each call records one span; `after(args, result)`
        may add counts once it returns."""
        spans, frames, opened = self.spans, self._frames, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, opened[-1] if opened else None,
                      self.check, 0.0]
            opened.append(len(spans))
            spans.append(record)
            frames.append([0.0])
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                frames.pop()
                opened.pop()
                if frames:
                    frames[-1][0] += record[2] - record[1]
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def aggregate(self, name, fn, points=None):
        """Wrap a per-element call: count it and add its self time to the
        aggregate and to the enclosing span."""
        stat = self.aggregates[name]
        spans, frames, opened = self.spans, self._frames, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                frames.pop()
                own = duration - frame[0]
                stat[0] += 1
                stat[1] += own
                if points is not None:
                    stat[2] += points(args)
                if frames:
                    frames[-1][0] += duration
                if opened:
                    spans[opened[-1]][5] += own

        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attribute, replacement):
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def install(self):
        after = {"burke.simulate_field": self._count_sites,
                 "stat_tests.exchangeability_test": self._count_exchange}
        for owner, attribute, name in SPANS:
            self._patch(owner, attribute, self.span(
                name, getattr(owner, attribute), after.get(name)))
        for cls in vars(laws).values():
            if isinstance(cls, type) and issubclass(cls, laws.Law):
                for method in LAW_METHODS:
                    if method in vars(cls):
                        self._patch(cls, method, self.aggregate(
                            f"laws.{method}", vars(cls)[method]))
        self._patch(involutions.SpaceDescriptor, "contains", self.aggregate(
            "involutions.contains", involutions.SpaceDescriptor.contains))
        self._patch(cli, "catalog_get", self._catalog_get(cli.catalog_get))
        self._patch(stat_tests, "_merge_small_cells", self._cell_hook(
            stat_tests._merge_small_cells, lambda a, r: (len(a[0]), len(r[0]))))
        self._patch(stat_tests, "_merge_table", self._cell_hook(
            stat_tests._merge_table, lambda a, r: (a[0].size, r.size)))
        self._patch(stat_tests, "_bin_indices_from",
                    self._bins_hook(stat_tests._bin_indices_from))

    def uninstall(self):
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def _catalog_get(self, original):
        """Hand out catalog pairs whose f and g are aggregated."""

        def points(args):
            return 1 if np.ndim(args[0]) == 2 else int(np.size(args[0]))

        @functools.wraps(original)
        def catalog_get(name, params=None):
            pair = original(name, params)
            return dataclasses.replace(
                pair, f=self.aggregate("involutions.map", pair.f, points),
                g=self.aggregate("involutions.map", pair.g, points))

        return catalog_get

    # -- counters ----------------------------------------------------------

    def _count_sites(self, args, result):
        n, t = result.shape
        self.sites += n * t

    def _cell_hook(self, original, sizes):
        @functools.wraps(original)
        def hook(*args, **kwargs):
            result = original(*args, **kwargs)
            before, after = sizes(args, result)
            self.cells[0] += before
            self.cells[1] += after
            return result

        return hook

    def _bins_hook(self, original):
        @functools.wraps(original)
        def hook(*args, **kwargs):
            result = original(*args, **kwargs)
            self._bins.append(result[1])
            return result

        return hook

    def _count_exchange(self, args, result):
        bins, self._bins = self._bins, []
        if len(bins) == 2:
            self.cells[0] += bins[0] * bins[1]
            self.cells[1] += result.flags.get("cells", 1)

    # -- results -----------------------------------------------------------

    def self_times(self):
        """Self seconds of every span, from the span records alone."""
        covered = [span[5] for span in self.spans]
        for span in self.spans:
            if span[3] is not None:
                covered[span[3]] += span[2] - span[1]
        return [span[2] - span[1] - c for span, c in zip(self.spans, covered)]

    def per_layer(self, passes, checks):
        """Per-layer metrics, each summed over the traced passes and
        divided by `passes`; `checks` is the number of checks traced."""
        own = {}
        for span, seconds in zip(self.spans, self.self_times()):
            own[span[0]] = own.get(span[0], 0.0) + seconds
        tests = sum(1 for span in self.spans if span[0] in STAT_TESTS)
        out = {f"{name}_s": own.get(name, 0.0) for _, _, name in SPANS
               if f"{name}_s" in PER_LAYER_UNITS}
        out["cli.self_s"] = sum(v for k, v in own.items()
                                if k.startswith("cli."))
        for name in self.aggregates:
            calls, seconds, points = self.aggregates[name]
            out[f"{name}_calls"] = calls
            out[f"{name}_s"] = seconds
            if name == "involutions.map":
                out["involutions.map_points"] = points
        out["stat_tests.calls"] = tests
        out["burke.sites"] = self.sites
        out = {k: v / passes for k, v in out.items()}
        out["stat_tests.cells_kept_ratio"] = (
            self.cells[1] / self.cells[0] if self.cells[0] else 0.0)
        out["stat_tests.subtests_per_check"] = tests / checks
        return {name: out[name] for name in PER_LAYER_UNITS if name in out}

    def span_records(self, origin):
        return [[name, start - origin, end - origin, parent, check, fine]
                for name, start, end, parent, check, fine in self.spans]
