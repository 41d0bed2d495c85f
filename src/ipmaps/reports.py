"""Structured verification reports with deterministic JSON serialization."""

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

