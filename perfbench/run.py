"""Benchmark of the ipmaps verifier: time to verdict and verdict errors.

    python3 perfbench/run.py --workload statistical --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
A workload is a list of one-stanza `ipmaps verify` configs (see
workloads.py). Each check goes through `cli.load_config`, `cli.run` and
`cli.emit` in a closed loop: one caller, and each check starts only after
the previous one returned. With `--trace 0` the run reports the end-to-end
metrics; with `--trace 1` it runs every pass once untraced and once traced
and reports per-layer metrics (see tracing.py) and the trace overhead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Everything else goes to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

# one BLAS thread: the loop has one caller and the machine has two cores
BLAS_THREADS = "1"
BLAS_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Wall time of one pass over each workload's checks at the commit that added
# the benchmark (2-core Xeon). A run makes round(seconds / this) passes, so
# --seconds sets the run length while every commit is measured on the same
# checks; the sample count, and with it the tail percentile, stays fixed.
REFERENCE_PASS_S = {"statistical": 4.4, "burke-field": 11.6, "exact-enum": 3.9}
# no new pass starts after this many seconds, to end well within 180 s
TIME_LIMIT_S = 120.0
SETUP_REPEATS = 5
# The host's speed changes by up to a third within seconds with the load of
# other tenants (raw check_s_p50 spread 0.26 across seeds on burke-field).
# Every timing is therefore scaled to a reference speed: multiplied by this
# constant over the mean of the probe times just before and just after it.
# Raw wall times are recorded too.
PROBE_REFERENCE_S = 0.004

SETUP_CODE = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import ipmaps.cli
for path in sys.argv[2:]:
    ipmaps.cli.load_config(path)
print(repr(time.perf_counter() - start))
"""

END_TO_END_UNITS = {"check_s_p50": "s", "check_s_tail": "s",
                    "checks_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB", "verdict_error_rate": "share"}
# verdict_error_rate is printed and recorded, but the result line carries it
# as failed / attempted: it is 0 on two workloads
RESULT_METRICS = ("check_s_p50", "check_s_tail", "checks_per_s", "setup_s",
                  "peak_rss_mb")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs and one pass, for smoke tests")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def environment():
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": int(BLAS_THREADS)}


def probe():
    """Seconds of a fixed pure-Python and numpy workload: the machine's
    current speed, independent of the package under test."""
    import numpy

    start = perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i % 7
    numpy.sort(numpy.sin(numpy.arange(100_000.0)))
    return perf_counter() - start


def measure_setup(config_paths, repeats):
    """(raw, scaled) seconds of `import ipmaps.cli` plus `load_config` of
    every config, each in a fresh interpreter, after one untimed warm-up."""
    command = [sys.executable, "-c", SETUP_CODE, str(SRC),
               *map(str, config_paths)]
    samples = []
    before = probe()
    for attempt in range(repeats + 1):
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=60, check=True, cwd=ROOT)
        after = probe()
        if attempt:
            seconds = float(done.stdout.strip().splitlines()[-1])
            samples.append((seconds, seconds * speed_scale(before, after)))
        before = after
    return samples


def speed_scale(before, after):
    return PROBE_REFERENCE_S / ((before + after) / 2.0)


def run_check(cli, path, work_dir):
    """One closed-loop check; the timer covers cli.run and cli.emit."""
    config = cli.load_config(path)
    start = perf_counter()
    report = cli.run(config, out_dir=str(work_dir))
    written = cli.emit(report, str(work_dir))
    seconds = perf_counter() - start
    with open(written, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    return seconds, report, digest


def run_pass(cli, checks, paths, work_dir, pass_index, tracer=None):
    """Every check once, with a probe between consecutive checks.

    `seconds` is the check timer, `loop_s` the whole closed-loop step
    (load, run, emit, hash); `scale` converts both to reference speed.
    """
    records = []
    before = probe()
    for check, path in zip(checks, paths):
        start = perf_counter()
        if tracer is None:
            seconds, report, digest = run_check(cli, path, work_dir)
        else:
            tracer.check = f"{pass_index}:{check.id}"
            seconds, report, digest = tracer.span("check", run_check)(
                cli, path, work_dir)
        loop_s = perf_counter() - start
        after = probe()
        entries = report["checks"]
        details = entries[0]["details"] if len(entries) == 1 else {}
        error = details.get("error") if isinstance(details, dict) else None
        passed = entries[0]["passed"] if len(entries) == 1 else None
        records.append({
            "id": check.id, "pass": pass_index,
            "traced": tracer is not None, "seconds": seconds,
            "loop_s": loop_s, "scale": speed_scale(before, after),
            "digest": digest, "expected": check.expected,
            "passed": passed, "exact": check.exact, "error": error,
            "verdict_error": error is not None or passed is not check.expected,
        })
        before = after
    return records


def tail_index(count):
    """Index, in sorted order, of the highest percentile with at least ten
    checks beyond it (the lowest sample when there are fewer than 11)."""
    return max(count - 11, 0)


def timings(timed, setup, scaled):
    """The four timing metrics, at reference speed or in raw wall time."""
    def at(rec, key):
        return rec[key] * rec["scale"] if scaled else rec[key]

    times = sorted(at(rec, "seconds") for rec in timed)
    out = {"check_s_p50": statistics.median(times),
           "check_s_tail": times[tail_index(len(times))],
           "checks_per_s": len(timed) / sum(at(rec, "loop_s")
                                            for rec in timed)}
    if setup:
        out["setup_s"] = statistics.median(
            scaled_s if scaled else raw_s for raw_s, scaled_s in setup)
    return out


def problems(records):
    """Reasons the outputs are wrong; statistical false rejects are not."""
    found = []
    digests = {}
    for rec in records:
        if rec["error"] is not None:
            found.append(f"{rec['id']} raised: {rec['error']}")
        elif rec["passed"] is None:
            found.append(f"{rec['id']}: report does not hold one check")
        elif rec["exact"] and rec["verdict_error"]:
            found.append(f"{rec['id']}: exact verdict {rec['passed']}, "
                         f"expected {rec['expected']}")
        digests.setdefault(rec["id"], set()).add(rec["digest"])
    found += [f"{cid}: report bytes differ between runs of one config"
              for cid, seen in digests.items() if len(seen) > 1]
    return found


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "ipmaps" / "cli.py").is_file():
        print(f"no ipmaps package under {SRC}", file=sys.stderr)
        return 2
    for variable in BLAS_VARIABLES:
        os.environ[variable] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    from ipmaps import cli
    import tracing

    tiny = args.scale == "tiny"
    started = perf_counter()
    checks = WORKLOADS[args.workload](tiny=tiny)
    config_dir = OUT / "configs" / args.workload
    work_dir = OUT / "work" / args.workload
    result_dir = OUT / "results"
    for directory in (config_dir, work_dir, result_dir):
        directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for check in checks:
        path = config_dir / (check.id.replace(":", "_") + ".json")
        path.write_text(json.dumps(check.config(args.workload, args.seed),
                                   sort_keys=True, indent=2) + "\n")
        paths.append(path)
    passes = 1 if tiny else max(
        1, round(args.seconds / REFERENCE_PASS_S[args.workload]))

    setup = None
    if not args.trace:
        setup = measure_setup(paths, 1 if tiny else SETUP_REPEATS)

    records = []
    tracer = tracing.Tracer() if args.trace else None
    trace_origin = None
    for index in range(passes):
        if index and perf_counter() - started > TIME_LIMIT_S:
            break
        records += run_pass(cli, checks, paths, work_dir, index)
        if tracer is not None:
            tracer.install()
            try:
                trace_origin = trace_origin or perf_counter()
                records += run_pass(cli, checks, paths, work_dir, index,
                                    tracer)
            finally:
                tracer.uninstall()

    wrong = problems(records)
    failed = sum(rec["verdict_error"] for rec in records)
    timed = [rec for rec in records if not rec["traced"]]
    done_passes = len(timed) // len(checks)
    errors = sum(rec["verdict_error"] for rec in timed)
    end_to_end = timings(timed, setup, scaled=True)
    end_to_end["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    end_to_end["verdict_error_rate"] = errors / len(timed)
    tail_pct = 100.0 * (tail_index(len(timed)) + 1) / len(timed)

    per_layer = None
    if tracer is not None:
        untraced_s = sum(rec["loop_s"] for rec in timed)
        traced_s = sum(rec["loop_s"] for rec in records if rec["traced"])
        per_layer = tracer.per_layer(done_passes, len(records) - len(timed))
        per_layer["trace.untraced_pass_s"] = untraced_s / done_passes
        per_layer["trace.overhead_s"] = (traced_s - untraced_s) / done_passes

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "scale": args.scale,
        "environment": environment(),
        "closed_loop": "one caller in one process; each check starts after "
                       "the previous one returned",
        "passes": done_passes, "checks_per_pass": len(checks),
        "tail_percentile": tail_pct, "tail_sample_count": len(timed),
        "probe_reference_s": PROBE_REFERENCE_S,
        "end_to_end": end_to_end,
        "raw_wall_end_to_end": timings(timed, setup, scaled=False),
        "setup_samples_s": setup, "per_layer": per_layer,
        "problems": wrong, "checks": records,
    }
    (result_dir / f"{stem}.json").write_text(
        json.dumps(results, indent=1) + "\n")
    if tracer is not None:
        (result_dir / f"{args.workload}-seed{args.seed}-spans.json").write_text(
            json.dumps(tracer.span_records(trace_origin)) + "\n")

    print(f"{args.workload} seed={args.seed} passes={done_passes} "
          f"checks={len(timed)} results=perfbench/out/results/{stem}.json")
    notes = {"check_s_tail": f"  (p{tail_pct:.1f} of {len(timed)} checks)",
             "verdict_error_rate": f"  ({errors} of {len(timed)} checks)"}
    for name, value in end_to_end.items():
        print(f"  {name:<20} {value:.6g} {END_TO_END_UNITS[name]}"
              f"{notes.get(name, '')}")
    for name, value in (per_layer or {}).items():
        print(f"  {name:<46} {value:.6g} {tracing.PER_LAYER_UNITS[name]}")
    for line in wrong:
        print(f"  wrong output: {line}")

    if per_layer is None:
        metrics = {name: {"value": end_to_end[name],
                          "unit": END_TO_END_UNITS[name]}
                   for name in RESULT_METRICS}
    else:
        metrics = {name: {"value": value,
                          "unit": tracing.PER_LAYER_UNITS[name]}
                   for name, value in per_layer.items()}
    print(json.dumps({"correct": not wrong, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
