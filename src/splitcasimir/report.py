"""Report objects and emitters (json / csv / markdown).

Reports are byte-identical for identical (config, seed): no timestamps, no
timings unless explicitly requested, stable field and record ordering.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class CheckRecord:
    suite: str
    target: str
    status: str  # PASS | FAIL | SKIP
    method: str = ""
    observed: str = ""
    expected: str = ""
    witness: Optional[List[str]] = None
    seconds: Optional[float] = None

    def to_dict(self) -> dict:
        out = {"suite": self.suite, "target": self.target,
               "status": self.status, "method": self.method,
               "observed": self.observed, "expected": self.expected}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.seconds is not None:
            out["seconds"] = round(self.seconds, 3)
        return out


@dataclass
class Report:
    config: Dict
    records: List[CheckRecord] = field(default_factory=list)

    def add(self, record: CheckRecord) -> None:
        self.records.append(record)

    @property
    def summary(self) -> Dict[str, int]:
        out = {"PASS": 0, "FAIL": 0, "SKIP": 0}
        for r in self.records:
            out[r.status] = out.get(r.status, 0) + 1
        return out

    @property
    def all_passed(self) -> bool:
        return self.summary.get("FAIL", 0) == 0

    def to_dict(self) -> dict:
        return {"config": self.config,
                "records": [r.to_dict() for r in self.records],
                "summary": self.summary}

    @staticmethod
    def from_dict(data: dict) -> "Report":
        rep = Report(dict(data["config"]))
        for r in data["records"]:
            rep.add(CheckRecord(r["suite"], r["target"], r["status"],
                                r.get("method", ""), r.get("observed", ""),
                                r.get("expected", ""), r.get("witness"),
                                r.get("seconds")))
        return rep


_FIELDS = ["suite", "target", "status", "method", "observed", "expected",
           "witness", "seconds"]


def emit(report: Report, fmt: str = "json") -> str:
    if fmt == "json":
        return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=_FIELDS, extrasaction="ignore")
        writer.writeheader()
        for r in report.records:
            row = r.to_dict()
            writer.writerow({k: row.get(k, "") for k in _FIELDS})
        return buf.getvalue()
    if fmt == "markdown":
        return _emit_markdown(report)
    raise ValueError(f"unknown format {fmt!r}")


def _emit_markdown(report: Report) -> str:
    lines = ["# Verification report", ""]
    cfg = json.dumps(report.config, sort_keys=True)
    lines.append(f"config: `{cfg}`")
    lines.append("")
    suites: Dict[str, List[CheckRecord]] = {}
    for r in report.records:
        suites.setdefault(r.suite, []).append(r)
    for suite in suites:
        lines.append(f"## {suite}")
        lines.append("")
        lines.append("| target | status | method | observed | expected |")
        lines.append("|---|---|---|---|---|")
        for r in suites[suite]:
            lines.append(f"| {r.target} | {r.status} | {r.method} "
                         f"| {r.observed} | {r.expected} |")
        lines.append("")
    s = report.summary
    lines.append(f"**summary**: {s.get('PASS', 0)} pass, "
                 f"{s.get('FAIL', 0)} fail, {s.get('SKIP', 0)} skip")
    lines.append("")
    return "\n".join(lines)


def vogel_table_markdown() -> str:
    """The parameter table in the source layout:
    (type, algebra, alpha, beta, gamma, t, 1/t, -beta/2t, -gamma/2t)."""
    from .vogel import vogel_table
    lines = ["| type | algebra | alpha | beta | gamma | t | 1/t "
             "| -beta/2t | -gamma/2t |",
             "|---|---|---|---|---|---|---|---|---|"]
    for row in vogel_table():
        if row.parametric:
            pt = None
            cells = {"A_n": ("-2", "2", "n+1", "n+1", "1/(n+1)", "-1/(n+1)",
                             "-1/2"),
                     "B_n": ("-2", "4", "2n-3", "2n-1", "1/(2n-1)",
                             "-2/(2n-1)", "-(2n-3)/(2(2n-1))"),
                     "C_n": ("-2", "1", "n+2", "n+1", "1/(n+1)",
                             "-1/(2(n+1))", "-(n+2)/(2(n+1))"),
                     "D_n": ("-2", "4", "2n-4", "2n-2", "1/(2n-2)",
                             "-1/(n-1)", "-(n-2)/(2(n-1))")}[row.type_label]
            lines.append(f"| {row.type_label} | {row.algebra_label} | "
                         + " | ".join(cells) + " |")
        else:
            pt = row.point()
            t = pt.t
            lines.append(
                f"| {row.type_label} | {row.algebra_label} | {pt.alpha} "
                f"| {pt.beta} | {pt.gamma} | {t} | {Fraction(1) / t} "
                f"| {-pt.beta / (2 * t)} | {-pt.gamma / (2 * t)} |")
    return "\n".join(lines) + "\n"
