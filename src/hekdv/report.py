"""Check reports and their JSON serialization."""

import json
import time
from dataclasses import dataclass

from . import __version__

RESIDUAL_TERM_CAP = 200


@dataclass(frozen=True)
class VerifyReport:
    check_id: str
    anchor: str
    status: str                 # "PASS" or "FAIL"
    residuals: tuple            # ((label, residual string or "0"), ...)
    millis: float

    @property
    def passed(self):
        return self.status == "PASS"

    def summary(self):
        zeros = sum(1 for _, r in self.residuals if r == "0")
        n = len(self.residuals)
        if zeros == n:
            return f"{n} residuals, all zero"
        bad = next(lbl for lbl, r in self.residuals if r != "0")
        return f"{n - zeros}/{n} residuals nonzero (first: {bad})"

    def to_dict(self):
        return {
            "id": self.check_id,
            "paper_anchor": self.anchor,
            "status": self.status,
            "residual_summary": self.summary(),
            "residuals": [{"label": lbl, "value": val}
                          for lbl, val in self.residuals],
            "millis": round(self.millis, 3),
        }


def _residual_str(obj):
    """Render a residual; exact zero becomes "0", otherwise a capped string."""
    if obj is None:
        return "0"
    is_zero = getattr(obj, "is_zero", None)
    if is_zero:
        return "0"
    num = getattr(obj, "num", obj)
    to_str = getattr(num, "to_str", None)
    if to_str is not None:
        return to_str(max_terms=RESIDUAL_TERM_CAP)
    return str(obj)


class ReportBuilder:
    """Accumulates labeled residuals for one check, timing included."""

    def __init__(self, check_id, anchor):
        self.check_id = check_id
        self.anchor = anchor
        self._rows = []
        self._t0 = time.perf_counter()

    def residual(self, label, obj):
        self._rows.append((label, _residual_str(obj)))

    def equal(self, label, lhs, rhs):
        self.residual(label, lhs - rhs)

    def expect(self, label, ok):
        """Record a boolean condition as a pseudo-residual."""
        self._rows.append((label, "0" if ok else "condition violated"))

    def build(self):
        status = "PASS" if all(r == "0" for _, r in self._rows) else "FAIL"
        millis = (time.perf_counter() - self._t0) * 1000.0
        return VerifyReport(self.check_id, self.anchor, status,
                            tuple(self._rows), millis)


def emit_report(reports, version=__version__):
    """Assemble the machine-readable document for a list of reports."""
    if not reports:
        raise ValueError("empty check list")
    return {
        "version": version,
        "checks": [r.to_dict() for r in reports],
        "overall": "PASS" if all(r.passed for r in reports) else "FAIL",
    }


def report_json(reports, version=__version__, strip_millis=False):
    doc = emit_report(reports, version=version)
    if strip_millis:
        for c in doc["checks"]:
            c.pop("millis")
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"
