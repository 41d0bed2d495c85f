"""What the CLI imports of scipy, each case in a fresh interpreter, since
this test session has imported all of scipy.

scipy.stats takes about half a second to import, and scipy.integrate pulls
in scipy.optimize, scipy.linalg and scipy.sparse; the package reaches the
few functions it needs through scipy.special, and tabulates the GIG cdf
with numpy. Exact, Beta-law and GIG-law checks run without those three.

scipy.special itself takes about 0.3 s to import. The exact stanzas
(`rrw-characterize`, `kdv-tv`, `detailed-balance`) compute in integers and
run with no scipy module loaded, as do `involution` and `hypotheses` on a
map with integer spaces. Every other stanza has `load_config` import
scipy.special, before the first draw.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """\
import sys
import ipmaps.cli as cli

for path in sys.argv[1:]:
    report = cli.run(cli.load_config(path), out_dir=path + ".out")
    cli.emit(report, path + ".out")
    assert report["overall_pass"], report
for name in ("scipy.stats", "scipy.integrate", "scipy.optimize"):
    assert name not in sys.modules, f"ipmaps imported {name}"
"""

GEOMETRIC = {"kind": "geometric", "params": {"theta": 0.4}}
THREE_POINT = {"kind": "three_point", "params": {"p": 0.2, "q": 0.5, "r": 0.3}}

CONFIGS = {
    "rrw.json": {"seed": 1, "checks": [
        {"kind": "rrw-characterize", "p": 0.2, "q": 0.5, "r": 0.3,
         "box": 100}]},
    "beta_ip.json": {"seed": 1, "checks": [
        {"kind": "ip", "map": "beta_map", "n": 20_000,
         "mu": {"kind": "beta", "params": {"a": 2.0, "b": 1.0}},
         "nu": {"kind": "beta", "params": {"a": 3.0, "b": 2.0}}}]},
    # builds a GIG law, whose quantile sets the GOF edges
    "gig_ip.json": {"seed": 1, "checks": [
        {"kind": "ip", "map": "matsumoto_yor", "n": 20_000,
         "mu": {"kind": "gig", "params": {"alpha": 2.0, "lam": 1.0}},
         "nu": {"kind": "gamma", "params": {"shape": 2.0, "rate": 1.0}}}]},
}

EXACT_SCRIPT = """\
import sys
import ipmaps.cli as cli

path = sys.argv[1]
report = cli.run(cli.load_config(path), out_dir=path + ".out")
cli.emit(report, path + ".out")
assert report["overall_pass"], report
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, f"ipmaps imported {loaded}"
"""

# every exact path: both rrw laws (r = 0 is the ParityGeom one), both KdV
# variants, detailed balance on an unbounded and on a truncated mu, and the
# round trip and hypotheses of integer maps
EXACT_CONFIG = {"seed": 1, "checks": [
    {"kind": "involution", "map": "kdv_g1", "box": 5},
    {"kind": "hypotheses", "map": "reflecting_rw"},
    {"kind": "rrw-characterize", "p": 0.2, "q": 0.5, "r": 0.3, "box": 100},
    {"kind": "rrw-characterize", "p": 0.3, "q": 0.7, "r": 0.0,
     "pprime": 0.15, "box": 100},
    {"kind": "kdv-tv", "theta": 0.5, "ell": 2, "variant": "g1", "M": 20},
    {"kind": "kdv-tv", "theta": 0.5, "ell": 2, "variant": "g2", "M": 20},
    {"kind": "detailed-balance", "map": "reflecting_rw",
     "mu": GEOMETRIC, "nu": THREE_POINT},
    {"kind": "detailed-balance", "map": "kdv_g1",
     "mu": {"kind": "trunc_geom", "params": {"theta": 0.5, "ell": 8}},
     "nu": {"kind": "shift_geom", "params": {"theta": 0.5, "ell": 8}}},
]}

SAMPLING_SCRIPT = """\
import sys
import ipmaps.cli as cli

assert "scipy.special" not in sys.modules, "import ipmaps.cli loaded scipy"
config = cli.load_config(sys.argv[1])
assert "scipy.special" in sys.modules, "load_config left scipy unloaded"
"""

# integer laws that build no GIG: only the load-time rule imports scipy
SAMPLING_CONFIG = {"seed": 1, "checks": [
    {"kind": "ip", "map": "reflecting_rw", "n": 20_000,
     "mu": GEOMETRIC, "nu": THREE_POINT}]}


def _run_fresh(script, paths):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script, *paths],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == 0, done.stderr


def _write(tmp_path, name, config):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def test_cli_runs_without_importing_scipy_stats(tmp_path):
    paths = [_write(tmp_path, name, config)
             for name, config in CONFIGS.items()]
    _run_fresh(SCRIPT, paths)
    for path in paths:
        assert (Path(path + ".out") / "report.json").is_file()


def test_exact_stanzas_run_without_any_scipy_module(tmp_path):
    path = _write(tmp_path, "exact.json", EXACT_CONFIG)
    _run_fresh(EXACT_SCRIPT, [path])
    report = json.loads((Path(path + ".out") / "report.json").read_text())
    assert report["n_checks"] == len(EXACT_CONFIG["checks"])


def test_sampling_stanza_loads_scipy_special_in_load_config(tmp_path):
    _run_fresh(SAMPLING_SCRIPT, [_write(tmp_path, "ip.json", SAMPLING_CONFIG)])
