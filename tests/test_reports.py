"""The one verdict rule: `reports.verdict` makes every check's report.

A report passes when its own exact condition holds and every part (a
sub-test's TestResult or a nested report) passes. Every runner of
`cli._KINDS` returns a report `verdict` made, and no other module makes a
report or decides a check's `passed` from its parts.
"""

import ast
import sys
from pathlib import Path

import pytest

import ipmaps
from ipmaps import cli, stat_tests
from ipmaps.reports import verdict
from ipmaps.rng import RandomStream

SRC = Path(ipmaps.__file__).parent


def _result(passed):
    return stat_tests.TestResult(1.0, 0.5 if passed else 0.0, (10,),
                                 "chi2_gof", passed, 0.01)


@pytest.mark.parametrize("passed,parts,expected", [
    (True, {}, True), (False, {}, False),
    (True, {"a": _result(True), "b": _result(True)}, True),
    (True, {"a": _result(True), "b": _result(False)}, False),
    (False, {"a": _result(True)}, False),
    (True, {"nested": verdict("inner", passed=False)}, False),
])
def test_a_report_passes_when_its_condition_and_every_part_pass(
        passed, parts, expected):
    report = verdict("check", parts, passed, n=3, shape=[2, 2])
    assert report.passed is expected
    assert report.to_dict() == {
        "name": "check", "passed": expected,
        "details": {**{k: p.to_dict() for k, p in parts.items()},
                    "n": 3, "shape": [2, 2]}}


GEOMETRIC = {"kind": "geometric", "params": {"theta": 0.4}}
THREE_POINT = {"kind": "three_point", "params": {"p": 0.2, "q": 0.5, "r": 0.3}}
RRW = {"map": "reflecting_rw", "mu": GEOMETRIC, "nu": THREE_POINT}

# one small stanza of each kind
STANZAS = [
    {"kind": "involution", "map": "matsumoto_yor", "n": 1000},
    {"kind": "hypotheses", "map": "matsumoto_yor", "n": 100},
    {"kind": "reversibility", **RRW, "n": 10_000},
    {"kind": "ip", **RRW, "n": 2000},
    {"kind": "detailed-balance", **RRW, "box": 20},
    {"kind": "rrw-characterize", "p": 0.2, "q": 0.5, "r": 0.3, "box": 20},
    {"kind": "kdv-tv", "theta": 0.5, "ell": 2, "variant": "g1"},
    {"kind": "kdv-tv", "theta": 0.5, "ell": 2, "variant": "g2"},
    {"kind": "burke", **RRW},
    {"kind": "skorokhod-gaussian", "beta": 0.5, "sigma": 1.0, "grid": 10},
]


def test_every_kind_has_a_stanza_here():
    assert {s["kind"] for s in STANZAS} == set(cli._KINDS)


@pytest.fixture
def made(monkeypatch):
    """The reports `verdict` makes, wherever a module calls it from."""
    reports_made = []

    def recording(*args, **kwargs):
        report = verdict(*args, **kwargs)
        reports_made.append(report)
        return report

    for name, module in list(sys.modules.items()):
        if name.startswith("ipmaps") and getattr(module, "verdict",
                                                 None) is verdict:
            monkeypatch.setattr(module, "verdict", recording)
    return reports_made


@pytest.mark.parametrize("stanza", STANZAS,
                         ids=lambda s: s["kind"] + s.get("variant", ""))
def test_every_runner_returns_a_report_verdict_made(stanza, made):
    runner, defaults = cli._KINDS[stanza["kind"]]
    report = runner({**defaults, **cli._validate_stanza(stanza, 0)},
                    RandomStream(1), None)
    assert any(report is r for r in made)
    if stanza["kind"] == "kdv-tv":
        # g1 passes when no cell fails, g2 when the product law moves
        moved = report.details["failing_cells"] > 0
        assert moved is (stanza["variant"] == "g2")
        assert report.passed is True


def _hand_made_rules(tree):
    """Each `.passed` read that is not an argument of a `verdict` call, and
    each assignment to a report's `passed` or `details`."""
    arguments = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(
                node.func, "id", None) == "verdict":
            arguments |= {id(a) for a in node.args}
            arguments |= {id(k.value) for k in node.keywords}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("passed",
                                                             "details"):
            stored = isinstance(node.ctx, ast.Store)
            if stored or (node.attr == "passed"
                          and id(node) not in arguments):
                found.append(f"line {node.lineno}: .{node.attr}")
        if isinstance(node, ast.Name) and node.id == "VerificationReport":
            found.append(f"line {node.lineno}: VerificationReport")
    return found


@pytest.mark.parametrize("path", sorted(
    p.name for p in SRC.glob("*.py")
    # reports.py holds the rule, stat_tests.py defines TestResult.passed and
    # __init__.py exports VerificationReport
    if p.name not in ("reports.py", "stat_tests.py", "__init__.py")))
def test_no_module_but_reports_makes_a_report_or_decides_passed(path):
    tree = ast.parse((SRC / path).read_text(), path)
    assert _hand_made_rules(tree) == []


def test_the_structure_check_sees_a_hand_made_rule():
    made_by_hand = ast.parse(
        "report = VerificationReport('x', all(c.passed for c in checks))\n"
        "report.passed = report.passed and recursion.passed\n")
    assert len(_hand_made_rules(made_by_hand)) == 5
    through_verdict = ast.parse(
        "verdict(report.name, {'r': r}, report.passed, **report.details)")
    assert _hand_made_rules(through_verdict) == []
