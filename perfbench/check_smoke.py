"""Smoke tests of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/check_smoke.py

The file name keeps these runs out of the package's own test suite.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def tiny_run(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--scale", "tiny")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    stem = f"{workload}-seed3-trace{trace}.json"
    saved = json.loads((run.OUT / "results" / stem).read_text())
    return lines, result, saved


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric(workload):
    lines, result, saved = tiny_run(workload, 0)
    for name, unit in run.END_TO_END_UNITS.items():
        assert any(line.split()[:1] == [name] and line.split()[2] == unit
                   for line in lines[:-1]), name
    assert set(result["metrics"]) == set(run.RESULT_METRICS)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == run.END_TO_END_UNITS[name]
        assert metric["value"] > 0
    assert saved["environment"]["blas_threads"] <= 2
    assert result["failed"] == sum(r["verdict_error"]
                                   for r in saved["checks"])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_reports_match_untraced_reports(workload):
    _, result, saved = tiny_run(workload, 1)
    assert set(result["metrics"]) == set(tracing.PER_LAYER_UNITS)
    digests = {}
    for record in saved["checks"]:
        digests.setdefault(record["id"], {})[record["traced"]] = \
            record["digest"]
    assert len(digests) == saved["checks_per_pass"]
    for seen in digests.values():
        assert seen[True] == seen[False]


def patched_objects():
    from ipmaps import cli, involutions, laws, stat_tests

    objects = {(id(owner), name): getattr(owner, name)
               for owner, name, _ in tracing.SPANS}
    for cls in vars(laws).values():
        if isinstance(cls, type) and issubclass(cls, laws.Law):
            for method in tracing.LAW_METHODS:
                if method in vars(cls):
                    objects[(id(cls), method)] = vars(cls)[method]
    objects["contains"] = involutions.SpaceDescriptor.contains
    objects["catalog_get"] = cli.catalog_get
    for hook in ("_merge_small_cells", "_merge_table", "_bin_indices_from"):
        objects[hook] = getattr(stat_tests, hook)
    return objects


def test_uninstall_removes_every_wrapper(tmp_path):
    from ipmaps import cli

    before = patched_objects()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = patched_objects()
        assert all(during[key] is not before[key] for key in before)
        config = {"seed": 1, "checks": [check.stanza for check in
                                        WORKLOADS["burke-field"](tiny=True)[:1]]}
        cli.run(config, out_dir=str(tmp_path))
    finally:
        tracer.uninstall()
    after = patched_objects()
    assert all(after[key] is before[key] for key in before)
    metrics = tracer.per_layer(1, 1)
    assert metrics["burke.sites"] > 0 and metrics["involutions.map_calls"] > 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench("--workload", "exact-enum", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path,
                 script=tmp_path / "perfbench" / "run.py")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
