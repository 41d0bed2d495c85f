"""The CLI starts, and runs exact, Beta-law and GIG-law checks, without
scipy.stats, scipy.integrate or scipy.optimize.

scipy.stats takes about half a second to import, and scipy.integrate pulls
in scipy.optimize, scipy.linalg and scipy.sparse; the package reaches the
few functions it needs through scipy.special, and tabulates the GIG cdf
with numpy. The check runs in a fresh interpreter, since this test session
has imported all three.
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


def test_cli_runs_without_importing_scipy_stats(tmp_path):
    paths = []
    for name, config in CONFIGS.items():
        path = tmp_path / name
        path.write_text(json.dumps(config))
        paths.append(str(path))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", SCRIPT, *paths],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    for path in paths:
        assert (Path(path + ".out") / "report.json").is_file()
