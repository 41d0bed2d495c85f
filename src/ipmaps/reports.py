"""Structured verification reports with deterministic JSON serialization."""

from __future__ import annotations

import json
from dataclasses import dataclass, field


def _jsonable(v):
    """Coerce numpy scalars/arrays and nested containers to JSON-safe values."""
    import numpy as np

    if isinstance(v, (bool, int, float, str)) or v is None:
        return v
    if isinstance(v, (np.bool_,)):
        return bool(v)
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, np.floating):
        return float(v)
    if isinstance(v, np.ndarray):
        return [_jsonable(x) for x in v.tolist()]
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if hasattr(v, "to_dict"):
        return v.to_dict()
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

    def to_json(self, indent=2):
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

