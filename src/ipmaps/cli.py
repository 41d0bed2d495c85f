"""Config-driven verification runner.

A run config is a JSON file with a seed and a list of check stanzas; every
stanza produces one entry in the JSON report, and the process exit code is
0 when all checks pass, 1 when any fails, and 2 on config errors. Reports
are deterministic functions of (config, seed): they carry no timestamps or
runtimes, so identical runs are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import __version__, burke, exact_discrete, kernels, skorokhod
from .augmentation import SOLVERS, fspec_for, verify_hypotheses
from .involutions import (
    CATALOG_NAMES, catalog_get, check_involution, sample_points,
)
from .laws import LawError, law_from_spec, truncate
from .reports import VerificationReport, _jsonable
from .rng import RandomStream


class ConfigError(ValueError):
    pass


def _require(stanza, *names):
    for name in names:
        if name not in stanza:
            raise ConfigError(
                f"check #{stanza['_index']} ({stanza['kind']}): "
                f"missing field {name!r}")


def _validate_stanza(stanza, index):
    stanza = dict(stanza)
    stanza["_index"] = index
    kind = stanza.get("kind")
    if kind not in CHECK_KINDS:
        raise ConfigError(f"check #{index}: unknown kind {kind!r}")
    if kind == "involution":
        _require(stanza, "map")
        if stanza["map"] not in CATALOG_NAMES:
            raise ConfigError(f"check #{index}: unknown map {stanza['map']!r}")
    elif kind == "hypotheses":
        _require(stanza, "map")
        if stanza["map"] not in SOLVERS:
            raise ConfigError(
                f"check #{index}: no f-specification for {stanza['map']!r}")
    elif kind in ("reversibility", "ip"):
        _require(stanza, "map", "mu", "nu", "n")
        law_from_spec(stanza["mu"])
        law_from_spec(stanza["nu"])
    elif kind == "detailed-balance":
        _require(stanza, "map", "mu", "nu")
        law_from_spec(stanza["mu"])
        law_from_spec(stanza["nu"])
    elif kind == "rrw-characterize":
        _require(stanza, "p", "q", "r")
        exact_discrete.RRWParams.make(stanza["p"], stanza["q"], stanza["r"],
                                      stanza.get("pprime"))
    elif kind == "kdv-tv":
        _require(stanza, "theta", "ell", "variant")
        if stanza["variant"] not in ("g1", "g2"):
            raise ConfigError(f"check #{index}: variant must be g1 or g2")
    elif kind == "burke":
        _require(stanza, "map", "mu", "nu")
        law_from_spec(stanza["mu"])
        law_from_spec(stanza["nu"])
    elif kind == "skorokhod-gaussian":
        _require(stanza, "beta", "sigma")
        if float(stanza["sigma"]) <= 0.0:
            raise ConfigError(f"check #{index}: sigma must be positive")
    return stanza


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    if "seed" not in raw:
        raise ConfigError("config must set an explicit seed")
    checks = raw.get("checks", [])
    if not isinstance(checks, list):
        raise ConfigError("checks must be a list")
    raw["checks"] = [_validate_stanza(s, i) for i, s in enumerate(checks)]
    return raw


# ---------------------------------------------------------------------------
# stanza execution
# ---------------------------------------------------------------------------

def _run_involution(stanza, rng, out_dir):
    pair = catalog_get(stanza["map"], stanza.get("params"))
    points = sample_points(pair, int(stanza.get("n", 10_000)), rng,
                           box=int(stanza.get("box", 20)))
    return check_involution(pair, points, stanza.get("tol"))


def _run_hypotheses(stanza, rng, out_dir):
    spec = fspec_for(stanza["map"], stanza.get("params"))
    points = sample_points(spec, int(stanza.get("n", 1000)), rng, box=10)
    probes = []
    for x, u in points:
        xs = np.atleast_1d(x) if not isinstance(x, tuple) else x
        if isinstance(u, tuple):
            for i in range(len(np.atleast_1d(xs))):
                probes.append((float(xs[i]), (int(u[0][i]), float(u[1][i]))))
        else:
            us = np.atleast_1d(u)
            for a, b in zip(np.atleast_1d(xs).tolist(), us.tolist()):
                probes.append((a, b))
    return verify_hypotheses(spec, probes)


def _run_reversibility(stanza, rng, out_dir):
    pair = catalog_get(stanza["map"], stanza.get("params"))
    kernel = kernels.GeneratedKernel(pair, law_from_spec(stanza["nu"]))
    mu = law_from_spec(stanza["mu"])
    return kernels.check_reversibility_statistical(
        kernel, mu, int(stanza["n"]), rng,
        level=float(stanza.get("level", 0.001)))


def _run_ip(stanza, rng, out_dir):
    pair = catalog_get(stanza["map"], stanza.get("params"))
    return kernels.check_ip_statistical(
        pair, law_from_spec(stanza["mu"]), law_from_spec(stanza["nu"]),
        int(stanza["n"]), rng, level=float(stanza.get("level", 0.001)))


def _run_detailed_balance(stanza, rng, out_dir):
    pair = catalog_get(stanza["map"], stanza.get("params"))
    kernel = kernels.GeneratedKernel(pair, law_from_spec(stanza["nu"]))
    mu = law_from_spec(stanza["mu"])
    box = int(stanza.get("box", 200))
    table, tail = truncate(mu, 0, box)
    report = kernels.check_detailed_balance_exact(
        kernel, table, tol=float(stanza.get("tol", 1e-12)))
    report.details["mu_truncation_tail"] = tail
    return report


def _run_rrw_characterize(stanza, rng, out_dir):
    params = exact_discrete.RRWParams.make(
        stanza["p"], stanza["q"], stanza["r"], stanza.get("pprime"))
    box = int(stanza.get("box", 200))
    table, tail = exact_discrete.rrw_forced_table(params, box=box)
    joint = exact_discrete.rrw_joint_table(table, params)
    defect = exact_discrete.product_defect_tv(joint)
    identities = exact_discrete.rrw_verify_proof_identities(
        table, params, joint)
    law = exact_discrete.rrw_forced_law(params)
    head = {str(k): float(v) for k, v in sorted(table.items())[:12]}
    passed = identities.passed and defect <= 1e-12
    return VerificationReport(
        name=f"rrw_characterize(p={float(params.p)},q={float(params.q)},"
             f"r={float(params.r)})",
        passed=passed,
        details={
            "forced_law": type(law).__name__,
            "forced_pmf_head": head,
            "truncation_tail": float(tail),
            "product_defect_tv": defect,
            "identities": identities.to_dict(),
        },
    )


def _run_kdv_tv(stanza, rng, out_dir):
    theta = float(stanza["theta"])
    ell = int(stanza["ell"])
    variant = stanza["variant"]
    M = int(stanza.get("M", 60))
    tv, tail, witness = exact_discrete.kdv_pushforward_tv(
        theta, ell, variant, u_truncation=M,
        max_tail=float(stanza.get("max_tail", 1e-9)))
    preserved = tv <= 10.0 * tail
    passed = preserved if variant == "g1" else not preserved
    return VerificationReport(
        name=f"kdv_tv({variant},theta={theta},ell={ell})",
        passed=passed,
        details={"tv": tv, "tail_bound": tail,
                 "witness_cell": list(witness) if witness else None,
                 "product_preserved": preserved},
    )


def _run_burke(stanza, rng, out_dir):
    pair = catalog_get(stanza["map"], stanza.get("params"))
    mu = law_from_spec(stanza["mu"])
    nu = law_from_spec(stanza["nu"])
    N = int(stanza.get("N", 50))
    T = int(stanza.get("T", 50))
    field = burke.simulate_field(pair, mu, nu, N, T, rng)
    recursion = burke.check_recursion(field)
    report = burke.verify_burke(field,
                                level=float(stanza.get("level", 0.001)))
    report.passed = report.passed and recursion.passed
    report.details["recursion"] = recursion.to_dict()
    if stanza.get("csv") and out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, stanza["csv"])
        _write_csv(path, ("n", "t", "x", "u"), burke.field_rows(field))
        report.details["csv"] = stanza["csv"]
    return report


def _run_skorokhod_gaussian(stanza, rng, out_dir):
    beta = float(stanza["beta"])
    sigma = float(stanza["sigma"])
    grid = int(stanza.get("grid", 100))
    tol = float(stanza.get("tol", 1e-8))
    numeric = skorokhod.gaussian_family(beta, sigma, closed_form=False)
    catalog = catalog_get("gaussian_rosenblatt",
                          {"beta": beta, "sigma": sigma})
    xs = np.linspace(-3.0 * sigma, 3.0 * sigma, grid)
    us = np.linspace(0.005, 0.995, grid)
    xg, ug = np.meshgrid(xs, us)
    sup_f = float(np.max(np.abs(
        skorokhod.skorokhod_f(numeric, xg.ravel(), ug.ravel())
        - catalog.f(xg.ravel(), ug.ravel()))))
    sup_g = float(np.max(np.abs(
        skorokhod.rosenblatt_g(numeric, xg.ravel(), ug.ravel())
        - catalog.g(xg.ravel(), ug.ravel()))))
    mono = skorokhod.check_monotone(numeric, np.linspace(-3, 3, 11))
    pair = skorokhod.build_involution(
        skorokhod.gaussian_family(beta, sigma))
    points = sample_points(pair, 10_000, rng)
    invo = check_involution(pair, points, 1e-8)
    passed = sup_f <= tol and sup_g <= tol and mono.passed and invo.passed
    return VerificationReport(
        name=f"skorokhod_gaussian(beta={beta},sigma={sigma})",
        passed=passed,
        details={"sup_f": sup_f, "sup_g": sup_g, "tol": tol,
                 "grid": grid, "monotone": mono.to_dict(),
                 "involution": invo.to_dict()},
    )


_RUNNERS = {
    "involution": _run_involution,
    "hypotheses": _run_hypotheses,
    "reversibility": _run_reversibility,
    "ip": _run_ip,
    "detailed-balance": _run_detailed_balance,
    "rrw-characterize": _run_rrw_characterize,
    "kdv-tv": _run_kdv_tv,
    "burke": _run_burke,
    "skorokhod-gaussian": _run_skorokhod_gaussian,
}
CHECK_KINDS = tuple(_RUNNERS)


def run(config, out_dir=None):
    """Execute every stanza; per-check errors are recorded, not fatal."""
    seed = int(config["seed"])
    checks = config.get("checks", [])
    streams = RandomStream(seed).split(max(len(checks), 1))
    entries = []
    for stanza, stream in zip(checks, streams):
        inputs = {k: v for k, v in stanza.items() if not k.startswith("_")}
        try:
            entry = _RUNNERS[stanza["kind"]](stanza, stream, out_dir).to_dict()
        except Exception as exc:   # deliberate: isolate per-check failures
            entry = {"name": stanza["kind"], "passed": False,
                     "details": {"error": f"{type(exc).__name__}: {exc}"}}
        entry["inputs"] = _jsonable(inputs)
        entries.append(entry)
    return {
        "version": __version__,
        "seed": seed,
        "overall_pass": all(e["passed"] for e in entries),
        "n_checks": len(entries),
        "checks": entries,
    }


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def emit(report, out_dir, name="report.json"):
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _add_common(parser):
    parser.add_argument("--config", help="path to a JSON run config")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--out", default=None,
                        help="directory for the JSON report and CSV dumps")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ipmaps",
        description="verification runner for involution-driven kernels")
    sub = parser.add_subparsers(dest="command")
    for name in ("verify", "simulate-burke", "characterize-rrw"):
        p = sub.add_parser(name)
        _add_common(p)
        if name == "simulate-burke":
            p.add_argument("--map", default="reflecting_rw")
            p.add_argument("--N", type=int, default=50)
            p.add_argument("--T", type=int, default=50)
        if name == "characterize-rrw":
            p.add_argument("--p", type=float)
            p.add_argument("--q", type=float)
            p.add_argument("--r", type=float)
            p.add_argument("--pprime", type=float, default=None)
    return parser


_DEFAULT_BURKE = {
    "reflecting_rw": {
        "mu": {"kind": "geometric", "params": {"theta": 0.4}},
        "nu": {"kind": "three_point",
               "params": {"p": 0.2, "q": 0.5, "r": 0.3}},
    },
    "matsumoto_yor": {
        "mu": {"kind": "gig", "params": {"alpha": 2.0, "lam": 1.0}},
        "nu": {"kind": "gamma", "params": {"shape": 2.0, "rate": 1.0}},
    },
}


def _config_from_args(args):
    if args.config:
        return load_config(args.config)
    if args.command == "simulate-burke":
        if args.map not in _DEFAULT_BURKE:
            raise ConfigError(
                f"no default laws for map {args.map!r}; use --config")
        stanza = {"kind": "burke", "map": args.map, "N": args.N, "T": args.T,
                  "csv": "field.csv"}
        stanza.update(_DEFAULT_BURKE[args.map])
        if args.seed is None:
            raise ConfigError("an explicit --seed is required")
        return {"seed": args.seed,
                "checks": [_validate_stanza(stanza, 0)]}
    if args.command == "characterize-rrw":
        if args.p is None or args.q is None or args.r is None:
            raise ConfigError("characterize-rrw needs --p, --q, --r")
        stanza = {"kind": "rrw-characterize", "p": args.p, "q": args.q,
                  "r": args.r}
        if args.pprime is not None:
            stanza["pprime"] = args.pprime
        return {"seed": args.seed if args.seed is not None else 0,
                "checks": [_validate_stanza(stanza, 0)]}
    raise ConfigError("verify requires --config")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        config = _config_from_args(args)
        if args.seed is not None:
            config["seed"] = args.seed
    except (ConfigError, LawError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = args.out
    report = run(config, out_dir=out_dir)
    text = json.dumps(report, sort_keys=True, indent=2)
    if out_dir is not None:
        emit(report, out_dir)
    print(text)
    return 0 if report["overall_pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
