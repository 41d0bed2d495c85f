"""Golden report bytes: the sha256 of `cli.run` output for stanzas whose
reports come from exact enumeration, from the Burke field, from the
augmentation hypotheses or from involution round trips, and of the
`field.csv` a Burke stanza writes.

A refactor of the pushforward, truncation, field, solver or round-trip code
must leave these bytes unchanged; a deliberate change to a report updates
the digest here.
"""

import hashlib
import json

import pytest

from ipmaps.cli import _validate_stanza, run

GEOMETRIC = {"kind": "geometric", "params": {"theta": 0.4}}
THREE_POINT = {"kind": "three_point", "params": {"p": 0.2, "q": 0.5, "r": 0.3}}
GIG = {"kind": "gig", "params": {"alpha": 2.0, "lam": 1.0}}
GAMMA = {"kind": "gamma", "params": {"shape": 2.0, "rate": 1.0}}
BURKE_MY = {"kind": "burke", "map": "matsumoto_yor", "mu": GIG, "nu": GAMMA,
            "N": 60, "T": 60}
BURKE_RRW = {"kind": "burke", "map": "reflecting_rw", "mu": GEOMETRIC,
             "nu": THREE_POINT, "N": 60, "T": 60}

GOLDEN = {
    # rrw-characterize counts the cells failing mu'(y) nu'(v) = mu(x) nu(u)
    # and, per proof identity, the states failing its integer equality
    "rrw_interior": (
        {"kind": "rrw-characterize", "p": 0.2, "q": 0.5, "r": 0.3},
        "bd4f26eb55f09813aa87039ac01c6e84218295c4c02bbd9dcced8dfd2ccbb751"),
    "rrw_boundary": (
        {"kind": "rrw-characterize", "p": 0.3, "q": 0.7, "r": 0,
         "pprime": 0.2},
        "08f684549a615662dda72f5059bfc3fc7aa7626c69b7b7b181fd50330540bc66"),
    # the exact-enum benchmark sizes
    "rrw_boundary_box1000": (
        {"kind": "rrw-characterize", "p": 0.3, "q": 0.7, "r": 0,
         "pprime": 0.15, "box": 1000},
        "83c4a0defe532936d1e72fad952c61cf74094b172121878549c537b281444f9f"),
    "rrw_interior_box1000": (
        {"kind": "rrw-characterize", "p": 0.1, "q": 0.6, "r": 0.3,
         "box": 1000},
        "8a1acac340e671be6eb1b196a243db16a35e23b779278b0945597da024ebb8c2"),
    "rrw_boundary_p04_box1000": (
        {"kind": "rrw-characterize", "p": 0.4, "q": 0.6, "r": 0,
         "pprime": 0.2, "box": 1000},
        "26a8e6013e8c5308f19112f0170ac2f91eaa7641e192be234d83e29e67661b98"),
    "rrw_interior_p02_box1000": (
        {"kind": "rrw-characterize", "p": 0.2, "q": 0.5, "r": 0.3,
         "box": 1000},
        "2238c2cb133314b5d5d53ef65cbee39d96ec690eaa010fe337c229be4cdb329a"),
    # p' = p: the forced law collapses to the plain geometric law
    "rrw_boundary_collapse_box1000": (
        {"kind": "rrw-characterize", "p": 0.3, "q": 0.7, "r": 0,
         "pprime": 0.3, "box": 1000},
        "77200b0bce76854db7cf2efa19cf00151af8defbb1698e6e80423f5d55b426aa"),
    # kdv-tv counts the cells failing mu(y) nu(v) = mu(x) nu(u)
    "kdv_g2_ell8": (
        {"kind": "kdv-tv", "theta": 0.3, "ell": 8, "variant": "g2", "M": 200},
        "e317302695f0cf15a01aaee058f37f132dd229c0c95c93dd7cb587ee5f83cfa8"),
    # the largest KdV stanza of the exact-enum benchmark, and one with M < ell
    "kdv_g1_ell8": (
        {"kind": "kdv-tv", "theta": 0.7, "ell": 8, "variant": "g1", "M": 200},
        "82c4c4c2811a473922bd01fc22333589f2d57c5f49a74136d9870d0e5a1ab080"),
    "kdv_g2_m_below_ell": (
        {"kind": "kdv-tv", "theta": 0.1, "ell": 10, "variant": "g2", "M": 2},
        "c3e61bdb4986f34bb2502159dc4200ea5ca148859d0b33e22089081d6da18e17"),
    "kdv_g1": (
        {"kind": "kdv-tv", "theta": 0.5, "ell": 2, "variant": "g1"},
        "6e37f033cd3240c511344755c77f1de10e1a22abc6a0a108fe55e2df2a5f5836"),
    "kdv_g2": (
        {"kind": "kdv-tv", "theta": 0.5, "ell": 2, "variant": "g2"},
        "f6b2db50f489ccd525fa67ccbfffc529d031675cd15f42f0e54ce73e98381ed3"),
    # detailed-balance counts the state pairs failing mu(x) K(x, y) =
    # mu(y) K(y, x)
    "detailed_balance_pass": (
        {"kind": "detailed-balance", "map": "reflecting_rw",
         "mu": GEOMETRIC, "nu": THREE_POINT},
        "71cfc8b1aaf7c656d84afd6cef1f61d3b83b58ca0b1e5e21131c62cc5abba9cd"),
    "detailed_balance_fail": (
        {"kind": "detailed-balance", "map": "reflecting_rw",
         "mu": {"kind": "geometric", "params": {"theta": 0.5}},
         "nu": THREE_POINT},
        "c2d090a8d2e212e79479bfcc1ce5fb40e6d05406657f4d11e93e7fe969bfea73"),
    # mu from its negative support_lo, and unbounded noise with its tail
    "detailed_balance_kdv_ell8": (
        {"kind": "detailed-balance", "map": "kdv_g1",
         "mu": {"kind": "trunc_geom", "params": {"theta": 0.5, "ell": 8}},
         "nu": {"kind": "shift_geom", "params": {"theta": 0.5, "ell": 8}}},
        "5287fc5b10ee7e6ffb25a173203a28d0adf613a3583daf03011f3151b1e42eb7"),
    # discrete GOF cells and tails: a Bernoulli component of product noise,
    # and the KdV laws under the map that does not preserve them
    "ip_beta_walk_product": (
        {"kind": "ip", "map": "beta_walk", "n": 20000,
         "mu": {"kind": "beta", "params": {"a": 2.0, "b": 3.0}},
         "nu": {"kind": "product", "components": [
             {"kind": "bernoulli", "params": {"p": 0.4}},
             {"kind": "beta", "params": {"a": 1.0, "b": 5.0}}]}},
        "4d33b85c79d2da7e8ef5334e5cc956467395c6bfdab711c85e690802e04e3e6c"),
    "ip_kdv_g2": (
        {"kind": "ip", "map": "kdv_g2", "n": 20000,
         "mu": {"kind": "trunc_geom", "params": {"theta": 0.5, "ell": 2}},
         "nu": {"kind": "shift_geom", "params": {"theta": 0.5, "ell": 2}}},
        "6c7864b8414fd762a1985cae53d21211f590968b6d72f2f8dfb60a796a84f667"),
    # the statistical benchmark size: 50-cell GOF and 10 x 10 binned tables
    "ip_my_gig_gamma_1e6": (
        {"kind": "ip", "map": "matsumoto_yor", "n": 1_000_000,
         "mu": GIG, "nu": GAMMA},
        "044726f3ff9ab353f3cec7a7b7c3ea07b24e22d316504928c7587bd790beded3"),
    "reversibility_my_gig_gamma_1e6": (
        {"kind": "reversibility", "map": "matsumoto_yor", "n": 1_000_000,
         "mu": GIG, "nu": GAMMA},
        "195b71ade1d693323e36308783f965288a37f53b3bd88d869b653264768481d6"),
    # ip's Y and V made in one pass over the arrays of X and U, each column
    # sorted once: float noise, and integer noise whose V is a float column
    "ip_gaussian_rosenblatt": (
        {"kind": "ip", "map": "gaussian_rosenblatt", "n": 20000,
         "params": {"beta": 0.5, "sigma": 1.0},
         "mu": {"kind": "normal", "params": {"mean": 0.0,
                                             "variance": 4.0 / 3.0}},
         "nu": {"kind": "uniform"}},
        "3a6d14653fc61c29da2b59225bb6379efbf5db0c84eb1da5c45664726a88f085"),
    "ip_beta_map": (
        {"kind": "ip", "map": "beta_map", "n": 20000,
         "mu": {"kind": "beta", "params": {"a": 2.0, "b": 1.0}},
         "nu": {"kind": "beta", "params": {"a": 3.0, "b": 2.0}}},
        "2188e539d64269005e08c6d51f8e77dd05ff05973881178ee712c82359e03a63"),
    "ip_rrw": (
        {"kind": "ip", "map": "reflecting_rw", "n": 20000,
         "mu": GEOMETRIC, "nu": THREE_POINT},
        "0bcd4be2332036d204f072fc9398750b82794cbab2c7a5cfacf73714e1901d18"),
    "reversibility_rrw": (
        {"kind": "reversibility", "map": "reflecting_rw", "n": 10000,
         "mu": GEOMETRIC, "nu": THREE_POINT},
        "3f3fad7a9386a7d67495f58dcb1e71181b54f8c7b97338b09a1cb3dc18e12b50"),
    "burke_rrw": (
        BURKE_RRW,
        "79191ef57f1a3a8e798d63cd239a64e0aec57bbae23a700f73ea650aebf14b83"),
    "burke_my": (
        BURKE_MY,
        "17cb0c3b151adf9a4c596ffa2a7d1e8c5263626ee5074574d8900fcf9ba05033"),
    "burke_kdv": (
        {"kind": "burke", "map": "kdv_g1",
         "mu": {"kind": "trunc_geom", "params": {"theta": 0.5, "ell": 2}},
         "nu": {"kind": "shift_geom", "params": {"theta": 0.5, "ell": 2}},
         "N": 60, "T": 60},
        "3a0c65275b77a54d335719f940e7efcfdf9999d3289133e24fb07bf945dc624e"),
    # probes from an integer grid (with violations), tuple noise and floats
    "hypotheses_kdv": (
        {"kind": "hypotheses", "map": "kdv"},
        "64a1a3484017ff2439fe32e59633cd326132fd27661869ba8b7e586f92aa0b67"),
    "hypotheses_beta_walk": (
        {"kind": "hypotheses", "map": "beta_walk"},
        "aca2a4c1eb990363aac4f35ad343c8f165ad7525e8de48c9e26714b17b795a34"),
    "hypotheses_my": (
        {"kind": "hypotheses", "map": "matsumoto_yor"},
        "d4886fdbc9fd339b7813f1654a7aabf93e11054c5ab87548aadc5b6ef59cd157"),
    # the remaining closed-form solvers, and round trips of matrix stacks,
    # float batches and an integer grid; digests computed with one matrix
    # and one scalar probe at a time
    "hypotheses_gaussian": (
        {"kind": "hypotheses", "map": "gaussian_rosenblatt",
         "params": {"beta": 0.5, "sigma": 1.0}},
        "665d9cf14c42eec585cbc386564d13f44f12ff77abe74b531f5b20ac4dd8b143"),
    "hypotheses_swapped_my": (
        {"kind": "hypotheses", "map": "swapped_matsumoto_yor"},
        "7e5820605789f7e1bc4fa1c05aa3f5263739b2adcdaef3d24fbffec9125fcaa8"),
    "hypotheses_beta_map": (
        {"kind": "hypotheses", "map": "beta_map"},
        "4aa6e7e1d2ad2be36626029398dea6a6042bf177ddcce4217fa81459ef47a9e6"),
    "hypotheses_rrw": (
        {"kind": "hypotheses", "map": "reflecting_rw"},
        "be3021afd0b53210357fa0edac8e360ea08ea1cc6103b7f41443d18d70d1f268"),
    "involution_spd_d3": (
        {"kind": "involution", "map": "spd_matsumoto_yor", "params": {"d": 3},
         "n": 1000},
        "1551d01a1e3803fab0392f03ff062f7b8d1f17ac1a82281dc883889a35973ba5"),
    "involution_my": (
        {"kind": "involution", "map": "matsumoto_yor", "n": 20000},
        "ec17e5c9511702d6228713a1a06ff3b21f94e17b4b56023123085b738a80423f"),
    "involution_kdv_g1": (
        {"kind": "involution", "map": "kdv_g1", "box": 5},
        "2232c3318ae5a1bfcfaaa2f805a0f496116101c2703a28cd3aac200340d9a514"),
    "skorokhod_gaussian": (
        {"kind": "skorokhod-gaussian", "beta": 0.5, "sigma": 1.0},
        "833ae69918bb4e7a8139276707d36ed9a717d856e3d68f9214566f35fe99624d"),
    # failing reports: each pins how a verdict is made from failing parts
    "burke_kdv_g2_fails": (
        {"kind": "burke", "map": "kdv_g2",
         "mu": {"kind": "trunc_geom", "params": {"theta": 0.5, "ell": 2}},
         "nu": {"kind": "shift_geom", "params": {"theta": 0.5, "ell": 2}},
         "N": 60, "T": 60},
        "e4745b768a6928a6f2f3208b68e400afb24da93dbb411a2d3517d92eb60d5db0"),
    "involution_my_tol0_fails": (
        {"kind": "involution", "map": "matsumoto_yor", "n": 20000, "tol": 0},
        "d0ad8f7ba0f60127b6b8f81a4fcfcef266448c5c14b78cad3714a379e3f20807"),
    "reversibility_my_uniform_fails": (
        {"kind": "reversibility", "map": "matsumoto_yor", "n": 10000,
         "mu": GIG, "nu": {"kind": "uniform"}},
        "70ddc24a3389969c63fd787b84bd7319a6549d53e4064f127da888da6bf6b365"),
    "ip_my_uniform_fails": (
        {"kind": "ip", "map": "matsumoto_yor", "n": 20000,
         "mu": GIG, "nu": {"kind": "uniform"}},
        "d7995da727d44ea31c77ddb68089965de619579920e2ad2204f53c318cb70a48"),
    "skorokhod_gaussian_tol_fails": (
        {"kind": "skorokhod-gaussian", "beta": 0.5, "sigma": 1.0,
         "tol": 1e-20},
        "5002c704bee457947247f390e89d21feaf680ef2890e6b8cafbe027d50a69ebf"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_bytes_match_golden(name):
    stanza, digest = GOLDEN[name]
    report = run({"seed": 1, "checks": [_validate_stanza(stanza, 0)]})
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


GOLDEN_CSV = {
    "burke_rrw": (
        BURKE_RRW,
        "0147992c6b6c99eab15ff76f8a6a29b390f4f5b5fc71f4ff0a1fd8a615b0dacd"),
    "burke_my": (
        BURKE_MY,
        "a37453e2b71836295d583bf98f0c5e0ec63a6ab54f021550863fd7879336bb76"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CSV))
def test_field_csv_bytes_match_golden(name, tmp_path):
    stanza, digest = GOLDEN_CSV[name]
    stanza = dict(stanza, csv="field.csv")
    run({"seed": 1, "checks": [_validate_stanza(stanza, 0)]},
        out_dir=tmp_path)
    data = (tmp_path / "field.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
