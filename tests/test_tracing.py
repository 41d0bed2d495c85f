"""The benchmark's tracer, perfbench/tracing.py, wraps package functions
where their callers look them up by name. A name it wraps that is renamed
or deleted fails its `install`, here, and not only in the benchmark's
traced runs; a stanza of each kind must record the spans of its layers.
The tracer's file is loaded as it is, and no bytecode of it is written."""

import importlib.util
import sys
from pathlib import Path
from unittest import mock

from ipmaps import cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.object(sys, "dont_write_bytecode", True), \
            mock.patch.dict(sys.modules, {spec.name: module}):
        spec.loader.exec_module(module)
    return module


GEOMETRIC = {"kind": "geometric", "params": {"theta": 0.4}}
THREE_POINT = {"kind": "three_point", "params": {"p": 0.2, "q": 0.5, "r": 0.3}}
GIG_GAMMA = {"mu": {"kind": "gig", "params": {"alpha": 2, "lam": 1}},
             "nu": {"kind": "gamma", "params": {"shape": 2, "rate": 1}}}
SEARCH = ("kernels.check_ip_statistical", "kernels.gof_against_law",
          "stat_tests.chi2_gof", "stat_tests.independence_test")
FIELD = ("burke.simulate_field", "burke.check_recursion",
         "burke.verify_burke", "kernels.gof_against_law",
         "stat_tests.chi2_gof", "stat_tests.independence_test")

# one small stanza of each kind, and the spans and aggregates it records
# (cli.run aside), so that a traced function called past the name the
# tracer wraps, whose per-layer metric would then read 0, fails here
STANZAS = [
    ({"kind": "involution", "map": "matsumoto_yor", "n": 2000},
     {"involutions.check_involution", "involutions.sample_points"},
     {"involutions.map"}),
    ({"kind": "hypotheses", "map": "reflecting_rw", "n": 200},
     {"augmentation.verify_hypotheses", "involutions.sample_points"}, set()),
    ({"kind": "reversibility", "map": "matsumoto_yor", "n": 10_000,
      **GIG_GAMMA},
     {"laws.construct", "kernels.check_reversibility_statistical",
      "stat_tests.exchangeability_test"},
     {"involutions.map", "laws.sample"}),
    ({"kind": "ip", "map": "matsumoto_yor", "n": 2000, **GIG_GAMMA},
     {"laws.construct", *SEARCH},
     {"involutions.map", "laws.sample", "laws.quantile"}),
    ({"kind": "detailed-balance", "map": "reflecting_rw", "box": 20,
      "mu": GEOMETRIC, "nu": THREE_POINT},
     {"laws.construct", "laws.truncate",
      "kernels.check_detailed_balance_exact"}, {"involutions.map"}),
    ({"kind": "rrw-characterize", "p": 0.3, "q": 0.7, "r": 0,
      "pprime": 0.15, "box": 20},
     {"laws.truncate", *(f"exact_discrete.{name}" for name in (
         "rrw_forced_table", "rrw_joint_table",
         "rrw_verify_proof_identities", "product_defect_tv"))}, set()),
    ({"kind": "kdv-tv", "theta": 0.5, "ell": 2, "variant": "g1", "M": 20},
     {"exact_discrete.kdv_pushforward_tv",
      "exact_discrete.product_defect_tv"}, set()),
    ({"kind": "burke", "map": "reflecting_rw", "csv": "field.csv",
      "mu": GEOMETRIC, "nu": THREE_POINT},
     {"laws.construct", "laws.truncate", *FIELD, "burke.field_rows",
      "exact_discrete.product_defect_tv"},
     {"involutions.map", "involutions.contains", "laws.sample"}),
    ({"kind": "burke", "map": "matsumoto_yor", **GIG_GAMMA},
     {"laws.construct", *FIELD, "stat_tests.exchangeability_test"},
     {"involutions.map", "involutions.contains", "laws.sample",
      "laws.quantile"}),
    ({"kind": "skorokhod-gaussian", "beta": 0.5, "sigma": 1.0, "grid": 20},
     {"skorokhod.skorokhod_f", "skorokhod.check_monotone",
      "involutions.check_involution", "involutions.sample_points"},
     {"involutions.map"}),
]


def test_the_benchmark_tracer_finds_every_name_it_wraps(tmp_path):
    tracing = load_tracing()
    assert {stanza["kind"] for stanza, _, _ in STANZAS} == set(cli._KINDS)
    for stanza, spans, aggregates in STANZAS:
        tracer = tracing.Tracer()
        try:
            tracer.install()
            # each stanza reaches its traced layers through the wrappers
            check, = cli.run({"seed": 0, "checks": [stanza]},
                             out_dir=str(tmp_path))["checks"]
        finally:
            tracer.uninstall()
        assert "error" not in check["details"], check
        # an exact verdict involves no sampling error
        assert check["passed"] or stanza["kind"] not in cli._EXACT_KINDS
        assert {span[0] for span in tracer.spans} == {"cli.run", *spans}, \
            stanza
        assert {name for name, (calls, _, _) in tracer.aggregates.items()
                if calls} == aggregates, stanza
