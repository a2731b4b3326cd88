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
    residuals: tuple            # ((label, residual string or "0"), ...)
    row_millis: tuple           # time charged to each row, in ms

    @property
    def status(self):
        return "PASS" if all(r == "0" for _, r in self.residuals) else "FAIL"

    @property
    def passed(self):
        return self.status == "PASS"

    @property
    def millis(self):
        return sum(self.row_millis)

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
    """Accumulates labeled residuals for one check, timing each row."""

    def __init__(self, check_id, anchor):
        self.check_id = check_id
        self.anchor = anchor
        self._rows = []
        self._marks = [time.perf_counter()]

    def _add(self, label, value):
        self._rows.append((label, value))
        self._marks.append(time.perf_counter())

    def residual(self, label, obj):
        self._add(label, _residual_str(obj))

    def equal(self, label, lhs, rhs):
        self.residual(label, lhs - rhs)

    def expect(self, label, ok):
        """Record a boolean condition as a pseudo-residual."""
        self._add(label, "0" if ok else "condition violated")

    def build(self):
        """The report, timed from this builder's creation to its last row.

        Each row is charged the time since the row before it (since the
        builder was made, for the first row), so work shared by all rows and
        done before the first one is charged to the first row.
        """
        m = self._marks
        return VerifyReport(self.check_id, self.anchor, tuple(self._rows),
                            tuple((b - a) * 1000.0 for a, b in zip(m, m[1:])))


def split_report(report, groups):
    """One report per (check_id, anchor, keep) group of ``groups``.

    A group holds the rows whose label satisfies ``keep``, in their order,
    with their times; work shared by all rows was charged to the first row
    (see ``ReportBuilder.build``), so to the group that holds it.
    """
    out = []
    for check_id, anchor, keep in groups:
        picked = [i for i, (label, _) in enumerate(report.residuals) if keep(label)]
        out.append(VerifyReport(check_id, anchor,
                                tuple(report.residuals[i] for i in picked),
                                tuple(report.row_millis[i] for i in picked)))
    return out


def emit_report(reports):
    """Assemble the machine-readable document for a list of reports."""
    if not reports:
        raise ValueError("empty check list")
    return {
        "version": __version__,
        "checks": [r.to_dict() for r in reports],
        "overall": "PASS" if all(r.passed for r in reports) else "FAIL",
    }


def report_json(reports, strip_millis=False):
    doc = emit_report(reports)
    if strip_millis:
        for c in doc["checks"]:
            c.pop("millis")
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"
