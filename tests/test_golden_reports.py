"""Golden report bytes: the sha256 of `cli.run` output for stanzas whose
reports come from exact enumeration or from the discrete Burke kernel rows.

A refactor of the pushforward or truncation code must leave these bytes
unchanged; a deliberate change to a report updates the digest here.
"""

import hashlib
import json

import pytest

from ipmaps.cli import _validate_stanza, run

GEOMETRIC = {"kind": "geometric", "params": {"theta": 0.4}}
THREE_POINT = {"kind": "three_point", "params": {"p": 0.2, "q": 0.5, "r": 0.3}}

GOLDEN = {
    "rrw_interior": (
        {"kind": "rrw-characterize", "p": 0.2, "q": 0.5, "r": 0.3},
        "b7e14653c18f8c1ad7767cab9f1c44fa8ab34cfb38ea801f128a37b1b3298b7d"),
    "rrw_boundary": (
        {"kind": "rrw-characterize", "p": 0.3, "q": 0.7, "r": 0,
         "pprime": 0.2},
        "bc8133cd1ed96a0981a3f0a30f8bd20ea79a3c7143e5b5f220cb2235342b8d24"),
    "kdv_g1": (
        {"kind": "kdv-tv", "theta": 0.5, "ell": 2, "variant": "g1"},
        "4e2cc288dbb3f66a2804da29cb311d55d4a4bbe59aae7d9601418cce88d3e457"),
    "kdv_g2": (
        {"kind": "kdv-tv", "theta": 0.5, "ell": 2, "variant": "g2"},
        "b513fd3f732da8b426014072f9afee1d3c4699b72a364c928102a32b476e2b70"),
    "detailed_balance_pass": (
        {"kind": "detailed-balance", "map": "reflecting_rw",
         "mu": GEOMETRIC, "nu": THREE_POINT},
        "4b4bbb280d094198bba6eb1c0164567cb0b9ac770f8ed97ce878319468fbcffa"),
    "detailed_balance_fail": (
        {"kind": "detailed-balance", "map": "reflecting_rw",
         "mu": {"kind": "geometric", "params": {"theta": 0.5}},
         "nu": THREE_POINT},
        "2759327d71d0079d661584a02457c6995246d019aefb485d8f947accfbc7dd4b"),
    "burke_rrw": (
        {"kind": "burke", "map": "reflecting_rw", "mu": GEOMETRIC,
         "nu": THREE_POINT, "N": 60, "T": 60},
        "df5780f951a5645a651f741a602c1484d176715458d91a943c7fc3688c1a8763"),
    "burke_kdv": (
        {"kind": "burke", "map": "kdv_g1",
         "mu": {"kind": "trunc_geom", "params": {"theta": 0.5, "ell": 2}},
         "nu": {"kind": "shift_geom", "params": {"theta": 0.5, "ell": 2}},
         "N": 60, "T": 60},
        "39563745f4bcfc2be4908b67cda761b91920d0b0132e88f3a77d73a41a65ef4a"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_bytes_match_golden(name):
    stanza, digest = GOLDEN[name]
    report = run({"seed": 1, "checks": [_validate_stanza(stanza, 0)]})
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == digest
