"""Tests for the config-driven verification runner."""

import json
import os
import stat
from pathlib import Path

import pytest

from ipmaps import exact_discrete
from ipmaps.cli import ConfigError, emit, load_config, main, run


# a JSON number no float writes as: it loads as inf
BIG = "<1e400>"


def _write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload).replace(json.dumps(BIG), "1e400"))
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


GAMMA = {"kind": "gamma", "params": {"shape": 2, "rate": 1}}
GEOMETRIC = {"kind": "geometric", "params": {"theta": 0.4}}
THREE_POINT = {"kind": "three_point", "params": {"p": 0.2, "q": 0.5, "r": 0.3}}
BERNOULLI = {"kind": "bernoulli", "params": {"p": 0.5}}
BETA_23 = {"kind": "beta", "params": {"a": 2.0, "b": 3.0}}
BETA_15 = {"kind": "beta", "params": {"a": 1.0, "b": 5.0}}
BERNOULLI_X_BETA = {"kind": "product", "components": [
    {"kind": "bernoulli", "params": {"p": 0.4}}, BETA_15]}

BAD_STANZAS = {
    "ip_unknown_map": {"kind": "ip", "map": "no_such_map", "mu": GAMMA,
                       "nu": GAMMA, "n": 10000},
    "reversibility_unknown_map": {"kind": "reversibility",
                                  "map": "no_such_map", "mu": GAMMA,
                                  "nu": GAMMA, "n": 10000},
    "detailed_balance_unknown_map": {"kind": "detailed-balance",
                                     "map": "no_such_map", "mu": GEOMETRIC,
                                     "nu": THREE_POINT},
    "burke_unknown_map": {"kind": "burke", "map": "no_such_map",
                          "mu": GEOMETRIC, "nu": THREE_POINT},
    "gaussian_beta_one": {"kind": "involution", "map": "gaussian_rosenblatt",
                          "params": {"beta": 1.0, "sigma": 1.0}},
    "gaussian_without_params": {"kind": "involution",
                                "map": "gaussian_rosenblatt"},
    "gaussian_without_beta": {"kind": "hypotheses",
                              "map": "gaussian_rosenblatt",
                              "params": {"sigma": 1.0}},
    "skorokhod_beta_one": {"kind": "skorokhod-gaussian", "beta": 1.0,
                           "sigma": 1.0},
    "spd_d4": {"kind": "involution", "map": "spd_matsumoto_yor",
               "params": {"d": 4}},
    # a map's params are exactly those it reads, of the type it reads
    "my_alpha": {"kind": "involution", "map": "matsumoto_yor",
                 "params": {"alpha": 3}},
    "spd_d_2_5": {"kind": "involution", "map": "spd_matsumoto_yor",
                  "params": {"d": 2.5}},
    "spd_d_string": {"kind": "involution", "map": "spd_matsumoto_yor",
                     "params": {"d": "3"}},
    # no u-solver, so no f-specification
    "hypotheses_spd": {"kind": "hypotheses", "map": "spd_matsumoto_yor"},
    "gaussian_beta_string": {"kind": "hypotheses",
                             "map": "gaussian_rosenblatt",
                             "params": {"beta": "0.5", "sigma": 1.0}},
    "gaussian_gamma": {"kind": "involution", "map": "gaussian_rosenblatt",
                       "params": {"beta": 0.5, "sigma": 1.0, "gamma": 2}},
    "gaussian_sigma_inf": {"kind": "involution", "map": "gaussian_rosenblatt",
                           "params": {"beta": 0.5, "sigma": float("inf")}},
    "not_an_object": ["involution", "kdv_g1"],
    "reversibility_small_n": {"kind": "reversibility", "map": "matsumoto_yor",
                              "mu": {"kind": "gig",
                                     "params": {"alpha": 2, "lam": 1}},
                              "nu": GAMMA, "n": 500},
    # below independence_test's floor of 200 pairs
    "ip_n_150": {"kind": "ip", "map": "matsumoto_yor",
                 "mu": {"kind": "gig", "params": {"alpha": 2, "lam": 1}},
                 "nu": GAMMA, "n": 150},
    "ip_product_noise_n_199": {
        "kind": "ip", "map": "beta_walk",
        "mu": {"kind": "beta", "params": {"a": 2.0, "b": 3.0}},
        "nu": {"kind": "product", "components": [
            {"kind": "bernoulli", "params": {"p": 0.4}},
            {"kind": "beta", "params": {"a": 1.0, "b": 5.0}}]},
        "n": 199},
    "kdv_theta_2": {"kind": "kdv-tv", "theta": 2, "ell": 2, "variant": "g1"},
    "kdv_theta_1_5": {"kind": "kdv-tv", "theta": 1.5, "ell": 2,
                      "variant": "g1"},
    "kdv_odd_ell": {"kind": "kdv-tv", "theta": 0.5, "ell": 3,
                    "variant": "g1"},
    "kdv_g3": {"kind": "kdv-tv", "theta": 0.5, "ell": 2, "variant": "g3"},
    # no cell of the box has x + u > 0, where g1 and g2 differ
    "kdv_m_minus_ell": {"kind": "kdv-tv", "theta": 0.5, "ell": 2,
                        "variant": "g2", "M": -2},
    # the identity is checked cell by cell: there is no tail to bound
    "kdv_max_tail": {"kind": "kdv-tv", "theta": 0.5, "ell": 2,
                     "variant": "g1", "max_tail": 1e-9},
    # numbers must be JSON numbers, not strings or bools
    "kdv_theta_string": {"kind": "kdv-tv", "theta": "0.5", "ell": 2,
                         "variant": "g1"},
    "rrw_p_string": {"kind": "rrw-characterize", "p": "0.2", "q": 0.5,
                     "r": 0.3},
    "rrw_pprime_string": {"kind": "rrw-characterize", "p": 0.3, "q": 0.7,
                          "r": 0, "pprime": "0.2"},
    # for r > 0, V has the law of U: a p' would be ignored
    "rrw_pprime_with_r": {"kind": "rrw-characterize", "p": 0.2, "q": 0.5,
                          "r": 0.3, "pprime": 0.2},
    # the product verdict is exact at every box: there is no tail to bound
    "rrw_max_tail_bool": {"kind": "rrw-characterize", "p": 0.2, "q": 0.5,
                          "r": 0.3, "max_tail": True},
    "skorokhod_beta_string": {"kind": "skorokhod-gaussian", "beta": "0.5",
                              "sigma": 1.0},
    # exact detailed balance tabulates both laws
    "detailed_balance_continuous_mu": {"kind": "detailed-balance",
                                       "map": "reflecting_rw", "mu": GAMMA,
                                       "nu": THREE_POINT},
    "detailed_balance_continuous_nu": {"kind": "detailed-balance",
                                       "map": "reflecting_rw",
                                       "mu": GEOMETRIC, "nu": GAMMA},
    # ... on a map of integer spaces, inside those spaces
    "detailed_balance_my_bernoulli": {"kind": "detailed-balance",
                                      "map": "matsumoto_yor",
                                      "mu": BERNOULLI, "nu": BERNOULLI},
    # ... and on a map of real spaces, whatever the laws
    "detailed_balance_my_gamma": {"kind": "detailed-balance",
                                  "map": "matsumoto_yor", "mu": GAMMA,
                                  "nu": GAMMA},
    "detailed_balance_beta_map_bernoulli": {"kind": "detailed-balance",
                                            "map": "beta_map",
                                            "mu": BERNOULLI,
                                            "nu": BERNOULLI},
    "detailed_balance_rrw_mu_below_0": {
        "kind": "detailed-balance", "map": "reflecting_rw", "nu": THREE_POINT,
        "mu": {"kind": "trunc_geom", "params": {"theta": 0.5, "ell": 2}}},
    "detailed_balance_rrw_shift_geom_noise": {
        "kind": "detailed-balance", "map": "reflecting_rw", "mu": GEOMETRIC,
        "nu": {"kind": "shift_geom", "params": {"theta": 0.5, "ell": 2}}},
    # counts must be JSON integers, not floats that int() would truncate
    "kdv_ell_2_5": {"kind": "kdv-tv", "theta": 0.5, "ell": 2.5,
                    "variant": "g1"},
    "kdv_m_float": {"kind": "kdv-tv", "theta": 0.5, "ell": 2,
                    "variant": "g1", "M": 60.0},
    "involution_box_20_7": {"kind": "involution", "map": "kdv_g1",
                            "box": 20.7},
    "involution_n_string": {"kind": "involution", "map": "kdv_g1",
                            "n": "1000"},
    "rrw_box_3_9": {"kind": "rrw-characterize", "p": 0.2, "q": 0.5,
                    "r": 0.3, "box": 3.9},
    "detailed_balance_box_bool": {"kind": "detailed-balance",
                                  "map": "reflecting_rw", "mu": GEOMETRIC,
                                  "nu": THREE_POINT, "box": True},
    "ip_n_float": {"kind": "ip", "map": "matsumoto_yor", "mu": GAMMA,
                   "nu": GAMMA, "n": 2e4},
    "burke_N_float": {"kind": "burke", "map": "reflecting_rw",
                      "mu": GEOMETRIC, "nu": THREE_POINT, "N": 60.5},
    "burke_T_float": {"kind": "burke", "map": "reflecting_rw",
                      "mu": GEOMETRIC, "nu": THREE_POINT, "T": 60.0},
    # fewer than the 100 row pairs, (N // 2) * (T // 10), verify_burke tests
    "burke_30x30": {"kind": "burke", "map": "reflecting_rw",
                    "mu": GEOMETRIC, "nu": THREE_POINT, "N": 30, "T": 30},
    "burke_40x40": {"kind": "burke", "map": "matsumoto_yor",
                    "mu": {"kind": "gig", "params": {"alpha": 2, "lam": 1}},
                    "nu": GAMMA, "N": 40, "T": 40},
    "skorokhod_grid_float": {"kind": "skorokhod-gaussian", "beta": 0.5,
                             "sigma": 1.0, "grid": 100.5},
    # a level outside (0, 1) makes every p-value pass or fail
    "ip_level_0": {"kind": "ip", "map": "kdv_g2",
                   "mu": {"kind": "trunc_geom",
                          "params": {"theta": 0.5, "ell": 2}},
                   "nu": {"kind": "shift_geom",
                          "params": {"theta": 0.5, "ell": 2}},
                   "n": 10000, "level": 0},
    "reversibility_level_minus_1": {"kind": "reversibility",
                                    "map": "matsumoto_yor",
                                    "mu": {"kind": "gig",
                                           "params": {"alpha": 2, "lam": 1}},
                                    "nu": {"kind": "uniform"}, "n": 10000,
                                    "level": -1},
    "ip_level_1_5": {"kind": "ip", "map": "matsumoto_yor", "mu": GAMMA,
                     "nu": GAMMA, "n": 10000, "level": 1.5},
    "burke_level_string": {"kind": "burke", "map": "reflecting_rw",
                           "mu": GEOMETRIC, "nu": THREE_POINT,
                           "level": "abc"},
    "ip_level_bool": {"kind": "ip", "map": "matsumoto_yor", "mu": GAMMA,
                      "nu": GAMMA, "n": 10000, "level": True},
    # detailed balance is one integer equality per pair: no tolerance
    "detailed_balance_tol": {"kind": "detailed-balance",
                             "map": "reflecting_rw", "mu": GEOMETRIC,
                             "nu": THREE_POINT, "tol": 1e-12},
    "involution_tol_minus_1": {"kind": "involution", "map": "kdv_g1",
                               "tol": -1},
    "burke_10x10": {"kind": "burke", "map": "reflecting_rw", "mu": GEOMETRIC,
                    "nu": THREE_POINT, "N": 10, "T": 10},
    # the field is written to a plain file name under --out
    "burke_csv_escapes_out": {"kind": "burke", "map": "reflecting_rw",
                              "mu": GEOMETRIC, "nu": THREE_POINT,
                              "csv": "../escaped.csv"},
    "burke_csv_7": {"kind": "burke", "map": "reflecting_rw",
                    "mu": GEOMETRIC, "nu": THREE_POINT, "csv": 7},
    "burke_csv_empty": {"kind": "burke", "map": "reflecting_rw",
                        "mu": GEOMETRIC, "nu": THREE_POINT, "csv": ""},
    # emit would write the report over the field it names
    "burke_csv_report_json": {"kind": "burke", "map": "reflecting_rw",
                              "mu": GEOMETRIC, "nu": THREE_POINT,
                              "csv": "report.json"},
    # a field the kind does not read would silently take its default
    "ip_levl_typo": {"kind": "ip", "map": "kdv_g2",
                     "mu": {"kind": "trunc_geom",
                            "params": {"theta": 0.5, "ell": 2}},
                     "nu": {"kind": "shift_geom",
                            "params": {"theta": 0.5, "ell": 2}},
                     "n": 10000, "levl": 0.5},
    "involution_level": {"kind": "involution", "map": "kdv_g1",
                         "level": 0.01},
    "ip_box": {"kind": "ip", "map": "matsumoto_yor", "mu": GAMMA,
               "nu": GAMMA, "n": 10000, "box": 20},
    "kind_not_a_string": {"kind": ["ip"]},
    # a law spec holds kind and params (components for a product) and
    # comment keys only: a misspelt or unread key would be ignored
    "law_spec_prams": {"kind": "detailed-balance", "map": "reflecting_rw",
                       "mu": {**GEOMETRIC, "prams": {"theta": 0.9}},
                       "nu": THREE_POINT},
    "product_spec_params": {"kind": "ip", "map": "beta_walk", "n": 10000,
                            "mu": BETA_23,
                            "nu": {**BERNOULLI_X_BETA,
                                   "params": {"p": 0.9}}},
    # a law parameter is a finite JSON number: nothing drops or rounds it
    "three_point_p_nan": {"kind": "detailed-balance", "map": "reflecting_rw",
                          "mu": GEOMETRIC,
                          "nu": {"kind": "three_point",
                                 "params": {"p": float("nan"), "q": 0.5,
                                            "r": 0.3}}},
    "gamma_shape_infinity": {"kind": "ip", "map": "matsumoto_yor",
                             "mu": GAMMA, "n": 10000,
                             "nu": {"kind": "gamma",
                                    "params": {"shape": float("inf"),
                                               "rate": 1}}},
    "beta_a_1e400": {"kind": "ip", "map": "beta_map", "n": 10000,
                     "mu": {"kind": "beta", "params": {"a": BIG, "b": 1}},
                     "nu": {"kind": "beta", "params": {"a": 2, "b": 1}}},
    "bernoulli_p_bool": {"kind": "detailed-balance", "map": "reflecting_rw",
                         "mu": GEOMETRIC,
                         "nu": {"kind": "bernoulli", "params": {"p": True}}},
    "finite_table_half": {"kind": "ip", "map": "reflecting_rw",
                          "mu": GEOMETRIC, "n": 10000,
                          "nu": {"kind": "finite_table",
                                 "params": {"support": [-1, 0.5, 1],
                                            "probs": [0.3, 0.4, 0.3]}}},
    "finite_table_repeated": {"kind": "detailed-balance",
                              "map": "reflecting_rw", "mu": GEOMETRIC,
                              "nu": {"kind": "finite_table",
                                     "params": {"support": [-1, -1, 1],
                                                "probs": [0.3, 0.3, 0.4]}}},
    "finite_table_lengths": {"kind": "detailed-balance",
                             "map": "reflecting_rw",
                             "mu": {"kind": "finite_table",
                                    "params": {"support": [0, 1],
                                               "probs": [1.0]}},
                             "nu": THREE_POINT},
    # a count below 1 would pass vacuously or fail only at run time
    "hypotheses_n_0": {"kind": "hypotheses", "map": "matsumoto_yor", "n": 0},
    "involution_n_minus_5": {"kind": "involution", "map": "kdv_g1", "n": -5},
    "ip_n_0": {"kind": "ip", "map": "matsumoto_yor", "mu": GAMMA,
               "nu": GAMMA, "n": 0},
    "skorokhod_grid_0": {"kind": "skorokhod-gaussian", "beta": 0.5,
                         "sigma": 1.0, "grid": 0},
    # null stands only for a default that is null
    "skorokhod_tol_null": {"kind": "skorokhod-gaussian", "beta": 0.5,
                           "sigma": 1.0, "tol": None},
    "involution_box_0": {"kind": "involution", "map": "kdv_g1", "box": 0},
    "detailed_balance_box_minus_1": {"kind": "detailed-balance",
                                     "map": "reflecting_rw", "mu": GEOMETRIC,
                                     "nu": THREE_POINT, "box": -1},
    # every stanza's mu and nu must live on the map's x and u spaces
    "ip_my_product_mu": {"kind": "ip", "map": "matsumoto_yor", "n": 10000,
                         "mu": {"kind": "product",
                                "components": [GAMMA, GAMMA]},
                         "nu": GAMMA},
    "ip_beta_walk_scalar_nu": {"kind": "ip", "map": "beta_walk", "n": 10000,
                               "mu": BETA_23, "nu": BETA_15},
    "ip_my_two_part_nu": {"kind": "ip", "map": "matsumoto_yor", "n": 10000,
                          "mu": GAMMA, "nu": BERNOULLI_X_BETA},
    "reversibility_rrw_gamma_mu": {"kind": "reversibility",
                                   "map": "reflecting_rw", "n": 10000,
                                   "mu": GAMMA, "nu": THREE_POINT},
    "burke_rrw_gamma_mu": {"kind": "burke", "map": "reflecting_rw",
                           "mu": GAMMA, "nu": THREE_POINT},
    # simulate_field draws scalar noise
    "burke_beta_walk_product_nu": {"kind": "burke", "map": "beta_walk",
                                   "mu": BETA_23, "nu": BERNOULLI_X_BETA},
    # no catalog law lives on SPD matrices
    "ip_spd_gamma_n_300": {"kind": "ip", "map": "spd_matsumoto_yor",
                           "n": 300, "mu": GAMMA, "nu": GAMMA},
    "ip_spd_gamma_n_20000": {"kind": "ip", "map": "spd_matsumoto_yor",
                             "n": 20000, "mu": GAMMA, "nu": GAMMA},
}


@pytest.mark.parametrize("name", sorted(BAD_STANZAS))
def test_config_resolves_maps_at_load_time(tmp_path, name, capsys):
    path = _write_config(tmp_path, {"seed": 1,
                                    "checks": [BAD_STANZAS[name]]})
    with pytest.raises(ConfigError):
        load_config(path)
    out = tmp_path / "out"
    assert main(["verify", "--config", path, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error:")
    assert not (out / "report.json").exists()


def test_config_rejects_two_burke_checks_writing_one_csv(tmp_path, capsys):
    def burke(csv):
        return {"kind": "burke", "map": "reflecting_rw", "mu": GEOMETRIC,
                "nu": THREE_POINT, "csv": csv}
    # fields without a csv, and csvs of other names, load
    load_config(_write_config(tmp_path, {"seed": 1, "checks": [
        burke(None), burke(None), burke("a.csv"), burke("b.csv")]}))
    path = _write_config(tmp_path, {"seed": 1, "checks": [
        burke("a.csv"), burke(None), burke("a.csv")]})
    with pytest.raises(ConfigError, match="'a.csv'"):
        load_config(path)
    out = tmp_path / "out"
    assert main(["verify", "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()


@pytest.mark.parametrize("seed", ["abc", "1", -1, 1.7, True])
def test_config_rejects_a_seed_that_is_not_a_count(tmp_path, seed, capsys):
    path = _write_config(tmp_path, {
        "seed": seed,
        "checks": [{"kind": "involution", "map": "kdv_g1", "box": 5}]})
    with pytest.raises(ConfigError):
        load_config(path)
    out = tmp_path / "out"
    assert main(["verify", "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().out == ""
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("argv", [
    ["verify", "--config", "{config}"],
    ["simulate-burke", "--map", "reflecting_rw"],
    ["characterize-rrw", "--p", "0.2", "--q", "0.5", "--r", "0.3"],
], ids=lambda argv: argv[0])
def test_negative_seed_flag_is_a_config_error(tmp_path, argv, capsys):
    path = _write_config(tmp_path, {
        "seed": 1,
        "checks": [{"kind": "involution", "map": "kdv_g1", "box": 5}]})
    out = tmp_path / "out"
    argv = [arg.format(config=path) for arg in argv]
    assert main(argv + ["--seed", "-1", "--out", str(out)]) == 2
    assert "'seed' must be an integer >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_comment_keys_load_and_inputs_are_the_stanza_as_written(tmp_path):
    rrw_laws = {"mu": GEOMETRIC, "nu": THREE_POINT}
    stanzas = [
        {"kind": "involution", "map": "kdv_g1", "box": 5,
         "_comment": "a key starting with _ is a comment"},
        {"kind": "hypotheses", "map": "kdv", "n": 100},
        {"kind": "reversibility", "map": "reflecting_rw", "n": 10000,
         **rrw_laws},
        {"kind": "ip", "map": "reflecting_rw", "n": 10000, **rrw_laws},
        {"kind": "detailed-balance", "map": "reflecting_rw", **rrw_laws},
        {"kind": "rrw-characterize", "p": 0.2, "q": 0.5, "r": 0.3,
         "box": 50},
        {"kind": "kdv-tv", "theta": 0.5, "ell": 2, "variant": "g1"},
        {"kind": "burke", "map": "reflecting_rw", "N": 50, "T": 50,
         **rrw_laws},
        {"kind": "skorokhod-gaussian", "beta": 0.5, "sigma": 1.0,
         "grid": 5},
    ]
    config = load_config(_write_config(tmp_path, {"seed": 1,
                                                  "checks": stanzas}))
    report = run(config)
    for stanza, check in zip(stanzas, report["checks"]):
        assert "error" not in check["details"], check
        written = {k: v for k, v in stanza.items() if k != "_comment"}
        assert check["inputs"] == written
    assert "_comment" not in json.dumps(report)


@pytest.mark.parametrize("payload,message", [
    ([{"seed": 1, "checks": []}], "config root must be a JSON object"),
    ({"seed": 1, "checks": {"kind": "involution", "map": "kdv_g1"}},
     "checks must be a list")], ids=["root_list", "checks_object"])
def test_config_root_is_an_object_and_checks_a_list(tmp_path, payload,
                                                    message, capsys):
    path = _write_config(tmp_path, payload)
    with pytest.raises(ConfigError, match=message):
        load_config(path)
    out = tmp_path / "out"
    assert main(["verify", "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().out == ""
    assert not (out / "report.json").exists()


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


def test_a_null_tol_is_the_maps_own_tolerance(tmp_path, capsys):
    path = _write_config(tmp_path, {"seed": 1, "checks": [
        {"kind": "involution", "map": name, "box": 5, "tol": None}
        for name in ("kdv_g1", "matsumoto_yor")]})
    assert main(["verify", "--config", path]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c["details"]["tolerance"] for c in checks] == [0.0, 1e-9]
    assert [c["inputs"]["tol"] for c in checks] == [None, None]


def test_hypotheses_on_either_kdv_map_reads_the_shared_kdv_solver(tmp_path):
    # kdv_g1 and kdv_g2 share f = min(u, -x), so the integer grid gives the
    # same violations as under the name "kdv"
    config = load_config(_write_config(tmp_path, {
        "seed": 1,
        "checks": [{"kind": "hypotheses", "map": name}
                   for name in ("kdv", "kdv_g1", "kdv_g2")]}))
    checks = run(config)["checks"]
    assert [c["name"] for c in checks] == [
        "hypotheses:kdv", "hypotheses:kdv_g1", "hypotheses:kdv_g2"]
    counts = [c["details"]["n_violations"] for c in checks]
    assert counts[0] > 0 and counts == [counts[0]] * 3
    assert not any(c["passed"] for c in checks)


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
    # unbounded noise is tabulated from -ell to u_hi = ell, its tail on ell + 1
    config = load_config(_write_config(tmp_path, {
        "seed": 1,
        "checks": [{
            "kind": "detailed-balance", "map": "kdv_g1",
            "mu": {"kind": "trunc_geom", "params": {"theta": 0.5, "ell": ell}},
            "nu": {"kind": "shift_geom", "params": {"theta": 0.5, "ell": ell}},
        }]}))
    check = run(config)["checks"][0]
    details = check["details"]
    assert "error" not in details
    # mu's box starts at its own support_lo = -ell, so it holds every state
    assert check["passed"]
    assert details["n_states"] == 2 * ell + 1
    assert details["failing_pairs"] == 0


def test_detailed_balance_truncates_mu_from_its_support_lo(tmp_path):
    # a box starting at 0 would drop the mass of trunc_geom on [-2, -1]
    config = load_config(_write_config(tmp_path, {
        "seed": 1,
        "checks": [{
            "kind": "detailed-balance", "map": "kdv_g1",
            "mu": {"kind": "trunc_geom", "params": {"theta": 0.5, "ell": 2}},
            "nu": {"kind": "shift_geom", "params": {"theta": 0.5, "ell": 2}},
        }]}))
    check = run(config)["checks"][0]
    assert check["passed"], check["details"]
    assert check["details"]["n_states"] == 5
    assert check["details"]["checked_pairs"] == 6


def test_check_errors_are_isolated():
    # load_config rejects normal noise on (0, inf); run() unvalidated, it
    # drives the field out of (0, inf), a run-time error in that check alone
    report = run({
        "seed": 1,
        "checks": [
            {"kind": "burke", "map": "matsumoto_yor",
             "mu": {"kind": "gig", "params": {"alpha": 2, "lam": 1}},
             "nu": {"kind": "normal", "params": {"mean": 0, "variance": 1}}},
            {"kind": "involution", "map": "kdv_g1", "box": 5},
        ]})
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
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


def test_emit_cuts_a_longer_report_to_the_new_bytes(tmp_path):
    # through a symlink too: the file it names is written, the link stays
    target_dir = tmp_path / "target"
    target_dir.mkdir()
    for link in (False, True):
        out = tmp_path / f"out_{link}"
        out.mkdir()
        target = target_dir / f"{link}.json" if link else out / "report.json"
        target.write_text("{" + " " * 10_000 + "}\n" * 100)
        if link:
            (out / "report.json").symlink_to(target)
        path = emit({"overall_pass": True}, str(out))
        assert target.read_bytes() == b'{\n  "overall_pass": true\n}\n'
        assert os.path.islink(path) == link


def test_emit_creates_a_report_with_the_mode_open_gives(tmp_path):
    reference = tmp_path / "reference"
    with open(reference, "w", encoding="utf-8"):
        pass
    path = emit({"overall_pass": True}, str(tmp_path / "out"))
    assert stat.S_IMODE(os.stat(path).st_mode) == \
        stat.S_IMODE(os.stat(reference).st_mode)


def test_burke_cuts_a_longer_field_csv_to_the_new_bytes(tmp_path):
    def stanza(n):
        return {"kind": "burke", "map": "reflecting_rw", "N": n, "T": n,
                "mu": {"kind": "geometric", "params": {"theta": 0.4}},
                "nu": {"kind": "three_point",
                       "params": {"p": 0.2, "q": 0.5, "r": 0.3}},
                "csv": "field.csv"}
    small = load_config(_write_config(tmp_path, {
        "seed": 3, "checks": [stanza(50)]}, "small.json"))
    large = load_config(_write_config(tmp_path, {
        "seed": 3, "checks": [stanza(60)]}, "large.json"))
    run(small, out_dir=str(tmp_path / "fresh"))
    run(large, out_dir=str(tmp_path / "reused"))
    run(small, out_dir=str(tmp_path / "reused"))
    assert (tmp_path / "reused" / "field.csv").read_bytes() == \
        (tmp_path / "fresh" / "field.csv").read_bytes()


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def test_main_prints_the_bytes_it_writes(tmp_path, capsys):
    # a three-stanza report, then a one-stanza report over it
    exact = [{"kind": "kdv-tv", "theta": 0.5, "ell": 2, "variant": v}
             for v in ("g1", "g2")]
    exact.append({"kind": "rrw-characterize", "p": 0.2, "q": 0.5, "r": 0.3,
                  "box": 20})
    out = tmp_path / "out"
    for checks in (exact, exact[:1]):
        config = _write_config(tmp_path, {"seed": 1, "checks": checks})
        assert main(["verify", "--config", config, "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert printed.encode() == (out / "report.json").read_bytes()
        assert json.loads(printed)["n_checks"] == len(checks)


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


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def test_structural_failure_report_is_strict_json(tmp_path, capsys):
    # uniform noise through Matsumoto-Yor puts V outside (0, 1)
    path = _write_config(tmp_path, {
        "seed": 1,
        "checks": [{"kind": "ip", "map": "matsumoto_yor", "n": 20000,
                    "mu": {"kind": "gig", "params": {"alpha": 2, "lam": 1}},
                    "nu": {"kind": "uniform"}}]})
    out = tmp_path / "out"
    assert main(["verify", "--config", path, "--out", str(out)]) == 1
    printed = json.loads(capsys.readouterr().out,
                         parse_constant=_reject_constant)
    written = json.loads((out / "report.json").read_text(),
                         parse_constant=_reject_constant)
    assert printed == written
    v_marginal = written["checks"][0]["details"]["v_marginal"]
    assert v_marginal["statistic"] is None
    assert v_marginal["flags"]["outside_support"] > 0


@pytest.mark.parametrize("stanza", [
    {"kind": "ip", "map": "matsumoto_yor",
     "mu": {"kind": "gig", "params": {"alpha": 2, "lam": 1}},
     "nu": {"kind": "uniform"}},
    {"kind": "ip", "map": "kdv_g2",
     "mu": {"kind": "trunc_geom", "params": {"theta": 0.5, "ell": 2}},
     "nu": {"kind": "shift_geom", "params": {"theta": 0.5, "ell": 2}}},
    {"kind": "ip", "map": "beta_walk", "mu": BETA_23,
     "nu": BERNOULLI_X_BETA},
], ids=lambda stanza: stanza["map"])
def test_known_bad_laws_on_their_spaces_load_and_fail(tmp_path, stanza):
    config = load_config(_write_config(tmp_path, {
        "seed": 1, "checks": [{**stanza, "n": 20000}]}))
    check = run(config)["checks"][0]
    assert "error" not in check["details"]
    assert not check["passed"]


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
    assert (details["checked_cells"], details["failing_cells"],
            details["witness_cell"]) == (603, 0, None)


def test_characterize_rrw_rejects_pprime_with_positive_r(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["characterize-rrw", "--p", "0.2", "--q", "0.5", "--r", "0.3",
                 "--pprime", "0.2", "--out", str(out)]) == 2
    assert "pprime is set only in the case r=0" in capsys.readouterr().err
    assert not out.exists()


# the (p, q, r, p') grid of the exact-enum benchmark workload, and one more
# point of each case with p close to q
RRW_GRID = ((0.2, 0.5, 0.3, None), (0.1, 0.6, 0.3, None),
            (0.3, 0.7, 0.0, 0.3), (0.3, 0.7, 0.0, 0.15),
            (0.4, 0.6, 0.0, 0.2), (0.3, 0.35, 0.35, None),
            (0.45, 0.55, 0.0, 0.05))


@pytest.mark.parametrize("grid", RRW_GRID, ids=str)
def test_rrw_characterize_passes_at_every_box(grid):
    p, q, r, pprime = grid
    steps = 3 if r > 0 else 2
    for box in (*range(1, 41), 200, 1000):
        stanza = {"kind": "rrw-characterize", "p": p, "q": q, "r": r,
                  "box": box}
        if pprime is not None:
            stanza["pprime"] = pprime
        report = run({"seed": 0, "checks": [stanza]})
        details = report["checks"][0]["details"]
        assert report["overall_pass"], (box, details)
        assert (details["checked_cells"], details["failing_cells"],
                details["witness_cell"]) == ((box + 1) * steps, 0, None)
        identities = details["identities"]
        assert identities["passed"]
        assert all((r["failing"], r["first_failing"]) == (0, None)
                   for r in identities["details"].values()), (box, details)


@pytest.mark.parametrize("box,max_tail", [(20, None), (10, 1e-4)])
def test_rrw_characterize_passes_within_its_truncation_tail(tmp_path, box,
                                                            max_tail):
    # a small box once left a product defect that only a tail bound could
    # excuse; the cell check passes it outright, and a max_tail is refused
    stanza = {"kind": "rrw-characterize", "p": 0.2, "q": 0.5, "r": 0.3,
              "box": box}
    report = run({"seed": 0, "checks": [stanza]})
    details = report["checks"][0]["details"]
    assert report["overall_pass"], details
    assert (details["checked_cells"], details["failing_cells"],
            details["witness_cell"]) == ((box + 1) * 3, 0, None)
    if max_tail is not None:
        path = _write_config(tmp_path, {
            "seed": 0, "checks": [{**stanza, "max_tail": max_tail}]})
        with pytest.raises(ConfigError):
            load_config(path)


def test_rrw_characterize_fails_on_a_failing_cell(monkeypatch):
    # Y's table off at y = 0 fails the cells (0, -1), (0, 0) and (1, -1)
    # that reach it; the identities read Y's marginal off the cells, so
    # they pass, but the failing cells fail the verdict
    forced = exact_discrete.rrw_forced_table

    def off_at_zero(params, box):
        nums, nums_y, den = forced(params, box)
        nums_y = nums_y.copy()
        nums_y[0] += 1
        return nums, nums_y, den

    monkeypatch.setattr(exact_discrete, "rrw_forced_table", off_at_zero)
    stanza = {"kind": "rrw-characterize", "p": 0.2, "q": 0.5, "r": 0.3}
    check = run({"seed": 0, "checks": [stanza]})["checks"][0]
    assert check["details"]["identities"]["passed"]
    assert not check["passed"]
    assert (check["details"]["failing_cells"],
            check["details"]["witness_cell"]) == (3, [0, -1])


@pytest.mark.parametrize("variant", ["g1", "g2"])
def test_kdv_tv_reports_failing_cells(variant):
    # mu's support reaches past the noise box (M < ell); g2 moves the
    # product law on the 78 cells with x + u > 0
    stanza = {"kind": "kdv-tv", "theta": 0.1, "ell": 10, "variant": variant,
              "M": 2}
    report = run({"seed": 0, "checks": [stanza]})
    details = report["checks"][0]["details"]
    assert report["overall_pass"]
    failing, witness = (0, None) if variant == "g1" else (78, [-1, 2])
    assert details == {"checked_cells": 21 * 13, "failing_cells": failing,
                       "witness_cell": witness,
                       "product_preserved": variant == "g1"}


@pytest.mark.parametrize("variant", ["g1", "g2"])
def test_kdv_tv_needs_no_tail_bound(tmp_path, variant):
    # theta^(M + 1 + ell) = 0.9^13 = 0.25 of nu lies beyond this box
    stanza = {"kind": "kdv-tv", "theta": 0.9, "ell": 2, "variant": variant,
              "M": 10}
    report = run(load_config(_write_config(tmp_path, {"seed": 0,
                                                      "checks": [stanza]})))
    assert report["overall_pass"]
