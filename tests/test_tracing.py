"""The benchmark's tracer, perfbench/tracing.py, wraps package functions
where their callers look them up by name. A name it wraps that is renamed
or deleted fails its `install`, here, and not only in the benchmark's
traced runs. The tracer's file is loaded as it is, and no bytecode of it
is written."""

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


def test_the_benchmark_tracer_finds_every_name_it_wraps():
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        # the walk's stanza reaches its traced layers through the wrappers
        report = cli.run({"seed": 0, "checks": [
            {"kind": "rrw-characterize", "p": 0.3, "q": 0.7, "r": 0,
             "pprime": 0.15, "box": 20}]})
    finally:
        tracer.uninstall()
    assert report["overall_pass"]
    traced = {span[0] for span in tracer.spans}
    assert {f"exact_discrete.{name}" for name in (
        "rrw_forced_table", "rrw_joint_table", "rrw_verify_proof_identities",
        "product_defect_tv")} <= traced
