"""Tests for the config-driven verification runner."""

import json

import pytest

from ipmaps.cli import ConfigError, emit, load_config, main, run


def _write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_config_requires_seed(tmp_path):
    path = _write_config(tmp_path, {"checks": []})
    with pytest.raises(ConfigError):
        load_config(path)


def test_config_rejects_unknown_kind(tmp_path):
    path = _write_config(tmp_path, {
        "seed": 1, "checks": [{"kind": "no-such-check"}]})
    with pytest.raises(ConfigError):
        load_config(path)


def test_config_rejects_missing_fields(tmp_path):
    path = _write_config(tmp_path, {
        "seed": 1, "checks": [{"kind": "ip", "map": "matsumoto_yor"}]})
    with pytest.raises(ConfigError):
        load_config(path)


def test_config_rejects_bad_law_spec(tmp_path):
    path = _write_config(tmp_path, {
        "seed": 1,
        "checks": [{"kind": "reversibility", "map": "matsumoto_yor",
                    "mu": {"kind": "bogus"},
                    "nu": {"kind": "gamma", "params": {"shape": 2, "rate": 1}},
                    "n": 10000}]})
    with pytest.raises(Exception):
        load_config(path)


def test_config_rejects_bad_rrw_params(tmp_path):
    path = _write_config(tmp_path, {
        "seed": 1,
        "checks": [{"kind": "rrw-characterize", "p": 0.5, "q": 0.2, "r": 0.3}]})
    with pytest.raises(Exception):
        load_config(path)


def test_config_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(path))


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_empty_checks_pass(tmp_path):
    config = load_config(_write_config(tmp_path, {"seed": 1, "checks": []}))
    report = run(config)
    assert report["overall_pass"]
    assert report["n_checks"] == 0
    assert report["seed"] == 1


def test_single_involution_check(tmp_path):
    config = load_config(_write_config(tmp_path, {
        "seed": 1,
        "checks": [{"kind": "involution", "map": "kdv_g1", "box": 5}]}))
    report = run(config)
    assert report["overall_pass"]
    assert report["checks"][0]["details"]["max_deviation"] == 0.0


def test_failing_check_sets_overall_fail(tmp_path):
    config = load_config(_write_config(tmp_path, {
        "seed": 1,
        "checks": [{
            "kind": "detailed-balance", "map": "reflecting_rw",
            "mu": {"kind": "geometric", "params": {"theta": 0.5}},
            "nu": {"kind": "three_point",
                   "params": {"p": 0.2, "q": 0.5, "r": 0.3}},
        }]}))
    report = run(config)
    assert not report["overall_pass"]


@pytest.mark.parametrize("ell", [8, 10])
def test_detailed_balance_with_noise_support_below_minus_eight(tmp_path, ell):
    # the noise truncation box starts at hi = -ell + 8 <= 0
    config = load_config(_write_config(tmp_path, {
        "seed": 1,
        "checks": [{
            "kind": "detailed-balance", "map": "kdv_g1",
            "mu": {"kind": "trunc_geom", "params": {"theta": 0.5, "ell": ell}},
            "nu": {"kind": "shift_geom", "params": {"theta": 0.5, "ell": ell}},
        }]}))
    details = run(config)["checks"][0]["details"]
    assert "error" not in details
    assert details["noise_tail"] <= 1e-14


def test_check_errors_are_isolated(tmp_path):
    config = load_config(_write_config(tmp_path, {
        "seed": 1,
        "checks": [
            {"kind": "kdv-tv", "theta": 0.5, "ell": 2, "variant": "g1",
             "M": 2},   # tail too fat: runtime error inside the check
            {"kind": "involution", "map": "kdv_g1", "box": 5},
        ]}))
    report = run(config)
    assert not report["checks"][0]["passed"]
    assert "error" in report["checks"][0]["details"]
    assert report["checks"][1]["passed"]


def test_reports_are_byte_identical(tmp_path):
    payload = {
        "seed": 7,
        "checks": [
            {"kind": "involution", "map": "matsumoto_yor", "n": 5000},
            {"kind": "rrw-characterize", "p": 0.2, "q": 0.5, "r": 0.3},
        ]}
    config = load_config(_write_config(tmp_path, payload))
    a = json.dumps(run(config), sort_keys=True)
    b = json.dumps(run(config), sort_keys=True)
    assert a == b


def test_emit_writes_stable_json(tmp_path):
    config = load_config(_write_config(tmp_path, {
        "seed": 1,
        "checks": [{"kind": "involution", "map": "kdv_g1", "box": 5}]}))
    p1 = emit(run(config), str(tmp_path / "o1"))
    p2 = emit(run(config), str(tmp_path / "o2"))
    assert open(p1, "rb").read() == open(p2, "rb").read()


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def test_main_exit_codes(tmp_path, capsys):
    good = _write_config(tmp_path, {
        "seed": 1,
        "checks": [{"kind": "involution", "map": "kdv_g1", "box": 5}]})
    assert main(["verify", "--config", good]) == 0
    bad = _write_config(tmp_path, {
        "seed": 1,
        "checks": [{
            "kind": "detailed-balance", "map": "reflecting_rw",
            "mu": {"kind": "geometric", "params": {"theta": 0.5}},
            "nu": {"kind": "three_point",
                   "params": {"p": 0.2, "q": 0.5, "r": 0.3}},
        }]}, name="bad.json")
    assert main(["verify", "--config", bad]) == 1
    assert main(["verify"]) == 2
    capsys.readouterr()


def test_seed_flag_overrides_config(tmp_path, capsys):
    path = _write_config(tmp_path, {
        "seed": 1,
        "checks": [{"kind": "involution", "map": "kdv_g1", "box": 5}]})
    main(["verify", "--config", path, "--seed", "99"])
    report = json.loads(capsys.readouterr().out)
    assert report["seed"] == 99


def test_simulate_burke_subcommand(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["simulate-burke", "--map", "reflecting_rw",
                 "--seed", "1", "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    csv_lines = (out / "field.csv").read_text().strip().splitlines()
    # header + T boundary rows + N * (T+1) site rows, default 50 x 50
    assert len(csv_lines) == 1 + 50 + 50 * 51
    assert csv_lines[0] == "n,t,x,u"
    assert (out / "report.json").exists()


def test_simulate_burke_requires_seed(capsys):
    assert main(["simulate-burke", "--map", "reflecting_rw"]) == 2
    capsys.readouterr()


def test_characterize_rrw_subcommand(capsys):
    code = main(["characterize-rrw", "--p", "0.2", "--q", "0.5", "--r", "0.3"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    details = report["checks"][0]["details"]
    assert details["forced_law"] == "Geometric"
    assert details["product_defect_tv"] <= 1e-12
