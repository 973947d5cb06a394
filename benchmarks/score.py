"""Judging `bdl verify` reports: check-record counts and precision headroom.

A report is judged from its own residuals and tolerances, so the benchmark
does not trust the ``passed`` flags alone: a record that claims to pass while
one of its precision measures is over tolerance makes the report inconsistent.
"""
from __future__ import annotations

import math

# Tolerances at or below this are precision tolerances; looser ones
# (asymptotic slopes, final errors) bound convergence behaviour instead.
PRECISION_TOL = 1e-6
# Headroom given to a zero, negative or non-finite margin.
FLOOR_DEX = -300.0


def _dex(ratio: float) -> float:
    return math.log10(ratio) if ratio > 0 and math.isfinite(ratio) else FLOOR_DEX


def tolerance_for(key: str, tolerances: dict[str, float]) -> float | None:
    """The tolerance a residual is judged against.

    An exact key match wins; otherwise the longest tolerance key that the
    residual name ends with (after an underscore), so that
    ``eigenvalue_slope_dev`` maps to ``slope_dev``.
    """
    if key in tolerances:
        return tolerances[key]
    matches = [t for t in tolerances if key.endswith("_" + t)]
    return tolerances[max(matches, key=len)] if matches else None


def headrooms(report: dict) -> list[tuple[str, str, float]]:
    """(check, measure, dex) for every precision measure of a report.

    Upper-bounded measures score ``log10(tol / residual)``; ``_min`` lower
    bounds score ``log10(value / tol)``. A residual of exactly 0 has no finite
    headroom and is left out; a non-finite one scores FLOOR_DEX.
    """
    out = []
    for rec in report["checks"]:
        for key, val in rec["residuals"].items():
            tol = tolerance_for(key, rec["tolerances"])
            if tol is None:
                continue
            if key.endswith("_min"):
                dex = _dex(val / tol)
            elif tol <= PRECISION_TOL and val != 0:
                dex = _dex(tol / val)
            else:
                continue
            out.append((rec["name"], key, dex))
    return out


def inconsistencies(report: dict) -> list[str]:
    """Records whose ``passed`` flag contradicts their precision headroom."""
    bad = []
    for name, key, dex in headrooms(report):
        rec = next(r for r in report["checks"] if r["name"] == name)
        if rec["passed"] and not dex > 0:
            bad.append(f"{name}.{key} passes at {dex:.3g} dex")
    summary = report["summary"]
    passed = sum(1 for r in report["checks"] if r["passed"])
    if summary["total"] != len(report["checks"]) or summary["passed"] != passed:
        bad.append(f"summary {summary} disagrees with {len(report['checks'])} records")
    return bad


def strip_wall_times(report: dict) -> dict:
    """The report with every ``wall_time_s`` removed, for equality tests."""
    return {**report, "checks": [{k: v for k, v in rec.items() if k != "wall_time_s"}
                                 for rec in report["checks"]]}
