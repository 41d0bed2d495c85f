"""Structured verification reports with deterministic JSON serialization.

Every check's report is made by `verdict`, the one rule for pass or fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


def _jsonable(v):
    """Coerce numpy scalars/arrays and nested containers to strict JSON
    values; a non-finite float (a structural failure's statistic) is None."""
    import numpy as np

    if isinstance(v, (bool, int, str)) or v is None:
        return v
    if isinstance(v, (float, np.floating)):
        v = float(v)
        return v if math.isfinite(v) else None
    if isinstance(v, (np.bool_,)):
        return bool(v)
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, np.ndarray):
        return [_jsonable(x) for x in v.tolist()]
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if hasattr(v, "to_dict"):
        return _jsonable(v.to_dict())
    return repr(v)


@dataclass
class VerificationReport:
    """Outcome of one exact or statistical check."""

    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "details": _jsonable(self.details),
        }



def verdict(name, parts=None, passed=True, **facts):
    """The report of one check, which passes when `passed` (the check's own
    exact condition) holds and every part passes. A part is a sub-test's
    `TestResult` or a nested `VerificationReport`, written under its key as
    its `to_dict()`; each fact is written as given."""
    parts = parts or {}
    return VerificationReport(
        name=name,
        passed=bool(passed) and all(p.passed for p in parts.values()),
        details={k: p.to_dict() for k, p in parts.items()} | facts)
