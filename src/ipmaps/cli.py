"""Config-driven verification runner.

A run config is a JSON file with a seed and a list of check stanzas; every
stanza produces one entry in the JSON report, and the process exit code is
0 when all checks pass, 1 when any fails, and 2 on config errors. Reports
are deterministic functions of (config, seed): they carry no timestamps or
runtimes, so identical runs are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import __version__, burke, exact_discrete, kernels, skorokhod
from .augmentation import augment, fspec_for, verify_hypotheses
from .involutions import catalog_get, check_involution, sample_points
from .laws import LawError, law_from_spec, truncate  # perfbench traces it
from .reports import _jsonable, verdict
from .rng import RandomStream


class ConfigError(ValueError):
    pass


_REQUIRED = object()   # the default of a field that has none


def _integer(low=-math.inf):
    return (lambda v: type(v) is int and v >= low,
            "an integer" if low == -math.inf else f"an integer >= {low}")


def _number(v):
    return type(v) in (int, float) and math.isfinite(v)


# field -> (test, description) of the values it accepts; a bool is no number
_FIELD_CHECKS = {
    "seed": _integer(0), **dict.fromkeys(("n", "grid", "box"), _integer(1)),
    **dict.fromkeys(("M", "ell", "N", "T"), _integer()),
    **dict.fromkeys(("theta", "p", "q", "r", "beta", "sigma"),
                    (_number, "a finite number")),
    "pprime": (_number, "a finite number or null"),
    "level": (lambda v: _number(v) and 0 < v < 1, "a number in (0, 1)"),
    "tol": (lambda v: _number(v) and v >= 0, "a finite number >= 0"),
    "csv": (lambda v: type(v) is str
            and os.path.basename(v) == v not in ("", ".", "..", "report.json"),
            "null or a plain file name other than 'report.json'"),
}


def _check_field(where, name, value):
    test, what = _FIELD_CHECKS[name]
    if not test(value):
        raise ConfigError(f"{where}{name!r} must be {what}, not {value!r}")
    return value


def _validate_stanza(stanza, index):
    """Check a stanza's fields and resolve its map and laws through the
    lookups its runner uses, so a bad name or parameter fails here."""
    if not isinstance(stanza, dict):
        raise ConfigError(f"check #{index}: a check must be a JSON object")
    kind = stanza["kind"] if "kind" in stanza else None
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ConfigError(f"check #{index}: unknown kind {kind!r}")
    where = f"check #{index} ({kind}): "
    _, defaults = _KINDS[kind]
    for name, value in stanza.items():
        if name != "kind" and name not in defaults and name[:1] != "_":
            raise ConfigError(f"{where}unknown field {name!r}")
        # null is accepted as itself where it is the kind's default
        if name in _FIELD_CHECKS and (value, defaults[name]) != (None, None):
            _check_field(where, name, value)
    for name, default in defaults.items():
        if default is _REQUIRED and name not in stanza:
            raise ConfigError(f"{where}missing field {name!r}")
    view = {**defaults, **stanza}
    exact = kind in _EXACT_KINDS
    try:
        if "map" in defaults:
            resolve = fspec_for if kind == "hypotheses" else catalog_get
            pair = resolve(view["map"], view["params"])
            spaces = pair.x_space, pair.u_space
            # checked without laws, a map on integer spaces needs no scipy
            exact |= "mu" not in defaults and all(s.is_integer for s in spaces)
        if kind == "skorokhod-gaussian":
            # the pair the numeric construction is compared against
            catalog_get("gaussian_rosenblatt",
                        {"beta": view["beta"], "sigma": view["sigma"]})
        if "mu" in defaults:
            for name, space in zip(("mu", "nu"), spaces):
                law = law_from_spec(view[name])
                if not space.admits(law):
                    raise LawError(f"{name} {law!r} does not live on the "
                                   f"map's {space.kind} space")
            if kind == "detailed-balance" and not all(
                    s.is_integer for s in spaces):
                raise LawError("detailed-balance needs integer spaces")
            if kind == "burke" and pair.u_space.parts:   # nu sampled whole
                raise LawError("burke needs a map with scalar noise")
        if kind in kernels.MIN_N:
            kernels.require_n(kind, view["n"])
        if kind == "burke":
            burke.require_field_shape(view["N"], view["T"])
        if kind == "rrw-characterize":
            exact_discrete.RRWParams.make(
                view["p"], view["q"], view["r"], view["pprime"])
        if kind == "kdv-tv":
            catalog_get("kdv_" + view["variant"])
            exact_discrete.kdv_box(view["theta"], view["ell"], view["M"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{where}{type(exc).__name__}: {exc}") from exc
    if not exact:
        # now, before any draw: loaded at first use, after 10^6-draw arrays
        # exist, it cost 3-10% checks_per_s and 6-14 MB peak RSS
        import scipy.special  # noqa: F401
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
    _check_field("config: ", "seed", raw["seed"])
    checks = raw.get("checks", [])
    if not isinstance(checks, list):
        raise ConfigError("checks must be a list")
    raw["checks"] = [_validate_stanza(s, i) for i, s in enumerate(checks)]
    names = [s["csv"] for s in raw["checks"] if s.get("csv")]
    if len(set(names)) < len(names):   # one would overwrite another
        raise ConfigError(f"two burke checks write one csv file: {names}")
    return raw


# ---------------------------------------------------------------------------
# stanza execution
# ---------------------------------------------------------------------------

def _run_involution(stanza, rng, out_dir):
    pair = catalog_get(stanza["map"], stanza["params"])
    xs, us, draw = sample_points(pair, stanza["n"], rng, box=stanza["box"],
                                 lazy=True)
    return check_involution(pair, xs, us, stanza["tol"], draw)


def _run_hypotheses(stanza, rng, out_dir):
    spec = fspec_for(stanza["map"], stanza["params"])
    xs, us = sample_points(spec, stanza["n"], rng, box=10)
    return verify_hypotheses(spec, xs, us)


def _pair_and_laws(stanza):
    return (catalog_get(stanza["map"], stanza["params"]),
            law_from_spec(stanza["mu"]), law_from_spec(stanza["nu"]))


def _run_reversibility(stanza, rng, out_dir):
    return kernels.check_reversibility_statistical(
        *_pair_and_laws(stanza), stanza["n"], rng, level=stanza["level"])


def _run_ip(stanza, rng, out_dir):
    return kernels.check_ip_statistical(
        *_pair_and_laws(stanza), stanza["n"], rng, level=stanza["level"])


def _run_detailed_balance(stanza, rng, out_dir):
    return kernels.check_detailed_balance_exact(*_pair_and_laws(stanza),
                                                stanza["box"])


def _run_rrw_characterize(stanza, rng, out_dir):
    return exact_discrete.rrw_characterize(exact_discrete.RRWParams.make(
        stanza["p"], stanza["q"], stanza["r"], stanza["pprime"]),
        stanza["box"])


def _run_kdv_tv(stanza, rng, out_dir):
    theta, variant = float(stanza["theta"]), stanza["variant"]
    cells = exact_discrete.cell_report(exact_discrete.kdv_pushforward_tv(
        theta, stanza["ell"], variant, stanza["M"]), "cell")
    preserved = cells["failing_cells"] == 0
    # g1 preserves the product law and passes when it does; the g2 stanza
    # shows that g2 does not, so it passes when the product law moves
    return verdict(f"kdv_tv({variant},theta={theta},ell={stanza['ell']})",
                   passed=preserved == (variant == "g1"), **cells,
                   product_preserved=preserved)


def _run_burke(stanza, rng, out_dir):
    pair, mu, nu = _pair_and_laws(stanza)
    field = burke.simulate_field(pair, mu, nu, stanza["N"], stanza["T"], rng)
    recursion = burke.check_recursion(field)
    report = burke.verify_burke(field, level=stanza["level"])
    csv = {}
    if stanza["csv"] and out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, stanza["csv"])
        _rewrite(path, lambda fh: burke.field_rows(field, fh))
        csv["csv"] = stanza["csv"]
    # the field's verdict, with the recursion as one more part
    return verdict(report.name, {"recursion": recursion}, report.passed,
                   **report.details, **csv)


def _run_skorokhod_gaussian(stanza, rng, out_dir):
    beta, sigma = float(stanza["beta"]), float(stanza["sigma"])
    grid, tol = stanza["grid"], float(stanza["tol"])
    numeric = skorokhod.gaussian_family(beta, sigma)
    catalog = catalog_get("gaussian_rosenblatt",
                          {"beta": beta, "sigma": sigma})
    xs = np.linspace(-3.0 * sigma, 3.0 * sigma, grid)
    us = np.linspace(0.005, 0.995, grid)
    xg, ug = (a.ravel() for a in np.meshgrid(xs, us))
    # one bisection: the numeric g is F_y(x), as rosenblatt_g computes it
    y = skorokhod.skorokhod_f(numeric, xg, ug)
    sup_f = float(np.max(np.abs(y - catalog.f(xg, ug))))
    sup_g = float(np.max(np.abs(numeric.F(y, xg) - catalog.g(xg, ug))))
    mono = skorokhod.check_monotone(numeric, np.linspace(-3, 3, 11))
    # the quantile/conditional-cdf pair: the catalog f augmented through
    # its solver F, so g_f(x, u) = F_{f(x,u)}(x)
    pair = dataclasses.replace(augment(catalog),
                               name=f"skorokhod:{numeric.name}")
    xs, us = sample_points(pair, 10_000, rng)
    invo = check_involution(pair, xs, us)
    return verdict(f"skorokhod_gaussian(beta={beta},sigma={sigma})",
                   {"monotone": mono, "involution": invo},
                   passed=sup_f <= tol and sup_g <= tol, sup_f=sup_f,
                   sup_g=sup_g, tol=tol, grid=grid)


_MAP = {"map": _REQUIRED, "params": None}
_PAIR = {**_MAP, "mu": _REQUIRED, "nu": _REQUIRED}
_LEVEL = {"level": kernels.DEFAULT_LEVEL}
# kind -> (runner, {field: default}) of every check stanza
_KINDS = {
    "involution": (_run_involution,
                   {**_MAP, "n": 10_000, "box": 20, "tol": None}),
    "hypotheses": (_run_hypotheses, {**_MAP, "n": 1000}),
    "reversibility": (_run_reversibility, {**_PAIR, "n": _REQUIRED, **_LEVEL}),
    "ip": (_run_ip, {**_PAIR, "n": _REQUIRED, **_LEVEL}),
    "detailed-balance": (_run_detailed_balance, {**_PAIR, "box": 200}),
    "rrw-characterize": (_run_rrw_characterize, {
        "p": _REQUIRED, "q": _REQUIRED, "r": _REQUIRED, "pprime": None,
        "box": 200}),
    "kdv-tv": (_run_kdv_tv, {"theta": _REQUIRED, "ell": _REQUIRED,
                             "variant": _REQUIRED, "M": 60}),
    "burke": (_run_burke, {**_PAIR, "N": 50, "T": 50, **_LEVEL, "csv": None}),
    "skorokhod-gaussian": (_run_skorokhod_gaussian, {
        "beta": _REQUIRED, "sigma": _REQUIRED, "grid": 100, "tol": 1e-8}),
}
# the kinds that compute in integers and never reach scipy
_EXACT_KINDS = {"rrw-characterize", "kdv-tv", "detailed-balance"}


def run(config, out_dir=None):
    """Execute every stanza; per-check errors are recorded, not fatal."""
    seed = int(config["seed"])
    checks = config.get("checks", [])
    streams = RandomStream(seed).split(max(len(checks), 1))
    entries = []
    for stanza, stream in zip(checks, streams):
        inputs = {k: v for k, v in stanza.items() if not k.startswith("_")}
        try:
            runner, defaults = _KINDS[stanza["kind"]]
            entry = runner({**defaults, **stanza}, stream, out_dir).to_dict()
        except Exception as exc:   # deliberate: isolate per-check failures
            entry = verdict(stanza["kind"], passed=False,
                            error=f"{type(exc).__name__}: {exc}").to_dict()
        entry["inputs"] = _jsonable(inputs)
        entries.append(entry)
    return {
        "version": __version__,
        "seed": seed,
        "overall_pass": all(e["passed"] for e in entries),
        "n_checks": len(entries),
        "checks": entries,
    }


_JSON = {"sort_keys": True, "indent": 2, "allow_nan": False}  # of a report


def _rewrite(path, write):
    """Call `write` on the file at `path`, opened binary in place, then cut
    the file where writing ended, also if `write` raised: it is never
    emptied first, which costs a writeback on ext4, nor left with old bytes."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        try:
            write(fh)
        finally:
            fh.truncate()


def emit(report, out_dir, text=None):   # text: the report's JSON, if made
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "report.json")
    text = json.dumps(report, **_JSON) if text is None else text
    _rewrite(path, lambda fh: fh.write(f"{text}\n".encode()))
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
            p.add_argument("--N", type=int, default=_KINDS["burke"][1]["N"])
            p.add_argument("--T", type=int, default=_KINDS["burke"][1]["T"])
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
        stanza = {"kind": "burke", "map": args.map, **_DEFAULT_BURKE[args.map],
                  "N": args.N, "T": args.T, "csv": "field.csv"}
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
            config["seed"] = _check_field("--seed: ", "seed", args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = args.out
    report = run(config, out_dir=out_dir)
    text = json.dumps(report, **_JSON)
    if out_dir is not None:
        emit(report, out_dir, text)
    print(text)
    return 0 if report["overall_pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
