"""Deterministic report serialization.

JSON and CSV writers for suite/verify reports.  JSON numbers are written as
Python's shortest round-trip repr, by the standard library's encoder; CSV
numbers with 17 significant digits.  Both round-trip every double exactly.
A non-finite float is written as the string "nan", "inf" or "-inf" in JSON
and as nan/inf/-inf in CSV.  Key order is fixed, so two runs with identical
configuration produce byte-identical files except for the meta timestamp and
wall-time entries, which are the only volatile fields.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import fields
from datetime import datetime, timezone
from typing import Optional

from .identities import EvalPoint
from .verifier import SuiteReport, VerificationResult

__all__ = ["report_to_obj", "dumps_json", "dumps_csv", "write_report"]

_POINT_FIELDS = tuple(f.name for f in fields(EvalPoint))
_VOLATILE_META = ("timestamp", "wall_time_s")


def _num(x):
    """x itself, or for a non-finite float the string the report holds."""
    if x is None or math.isfinite(x):
        return x
    if math.isnan(x):
        return "nan"
    return "inf" if x > 0 else "-inf"


def _complex_obj(z: Optional[complex]):
    if z is None:
        return None
    if cmath.isfinite(z):
        return {"re": z.real, "im": z.imag}
    return {"re": _num(z.real), "im": _num(z.imag)}


def _point_obj(point: EvalPoint) -> dict:
    obj = {}
    for name in _POINT_FIELDS:
        value = getattr(point, name)
        if value is None:
            continue
        obj[name] = value if name == "n" else _complex_obj(complex(value))
    return obj


def _result_obj(result: VerificationResult) -> dict:
    return {
        "index": result.index,
        "point": _point_obj(result.point),
        "lhs": _complex_obj(result.lhs),
        "rhs": _complex_obj(result.rhs),
        "abs_err": _num(result.abs_err),
        "rel_err": _num(result.rel_err),
        "cond": _num(result.cond),
        "pass": result.passed,
        "mode": result.mode,
        "tol": result.tol,
        "branch_integer": result.branch_integer,
        "error": result.error,
    }


def report_to_obj(report: SuiteReport, timestamp: Optional[str] = None) -> dict:
    """Plain-dict form of a suite report (the JSON schema)."""
    if timestamp is None:
        timestamp = datetime.now(timezone.utc).isoformat()
    identities = [{
        "id": row.identity_id,
        "title": row.title,
        "mode": row.mode,
        "tol": row.tol,
        "count": row.points,
        "passed": row.passed,
        "pass_rate": row.pass_rate,
        "worst_rel_err": _num(row.worst_rel_err),
        "worst_abs_err": _num(row.worst_abs_err),
        "points": [_result_obj(r) for r in row.results],
    } for row in report.rows]
    return {
        "meta": {
            "seed": report.seed,
            "count": report.count,
            "policy": {
                "rel_tol": report.policy.rel_tol,
                "abs_tol": report.policy.abs_tol,
                "max_terms": report.policy.max_terms,
            },
            "timestamp": timestamp,
            "wall_time_s": report.wall_time_s,
        },
        "identities": identities,
    }


def strip_volatile(obj: dict) -> dict:
    """Copy of a report object without the volatile meta entries."""
    meta = {k: v for k, v in obj["meta"].items() if k not in _VOLATILE_META}
    return {"meta": meta, "identities": obj["identities"]}


def dumps_json(report: SuiteReport, timestamp: Optional[str] = None) -> str:
    import json  # here, not at the top: only report writing needs it

    return json.dumps(report_to_obj(report, timestamp), ensure_ascii=False,
                      allow_nan=False) + "\n"


def _csv_num(x) -> str:
    if x is None:
        return ""
    return format(float(x), ".17g")


def dumps_csv(report: SuiteReport) -> str:
    """One point per row; no volatile fields, so runs are byte-identical."""
    cols = ["identity_id", "index"]
    for name in _POINT_FIELDS:
        if name == "n":
            cols.append("n")
        else:
            cols.extend([f"{name}_re", f"{name}_im"])
    cols.extend(["lhs_re", "lhs_im", "rhs_re", "rhs_im", "abs_err", "rel_err",
                 "cond", "pass", "mode", "tol", "branch_integer", "error"])
    lines = [",".join(cols)]
    for row in report.rows:
        for r in row.results:
            cells = [row.identity_id, str(r.index)]
            for name in _POINT_FIELDS:
                value = getattr(r.point, name)
                if name == "n":
                    cells.append("" if value is None else str(value))
                elif value is None:
                    cells.extend(["", ""])
                else:
                    value = complex(value)
                    cells.extend([_csv_num(value.real), _csv_num(value.imag)])
            for z in (r.lhs, r.rhs):
                if z is None:
                    cells.extend(["", ""])
                else:
                    cells.extend([_csv_num(z.real), _csv_num(z.imag)])
            cells.extend([
                _csv_num(r.abs_err), _csv_num(r.rel_err), _csv_num(r.cond),
                "true" if r.passed else "false", r.mode, _csv_num(r.tol),
                "" if r.branch_integer is None else str(r.branch_integer),
                "" if r.error is None else r.error.replace(",", ";"),
            ])
            lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def write_report(report: SuiteReport, path: str, output_format: str) -> None:
    if output_format == "json":
        text = dumps_json(report)
    elif output_format == "csv":
        text = dumps_csv(report)
    else:
        raise ValueError(f"unknown report format {output_format!r}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
