"""Output checks.  Each returns a list of mismatch messages; empty means pass.

Tolerances:
- counts, decisions, exit codes and stage rows must match exactly;
- boundaries and critical values within BOUNDARY_ATOL, loose enough for a
  boundary engine whose boundaries move by about 1.5e-6;
- other floats (information, z, calibrated times and totals) within
  FLOAT_RTOL relative, loose enough for a Newton solve that stops at a
  different iterate inside its 1e-8 score tolerance.
"""

from __future__ import annotations

import math

BOUNDARY_ATOL = 1e-5
FLOAT_RTOL = 1e-6


def _close(a: float, b: float, *, rtol: float = 0.0, atol: float = 0.0) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= atol + rtol * abs(b)


def _floats(label: str, actual, expected, **tol) -> list[str]:
    if len(actual) != len(expected):
        return [f"{label}: {len(actual)} values, expected {len(expected)}"]
    return [
        f"{label}[{i}]: {a!r} != {e!r}"
        for i, (a, e) in enumerate(zip(actual, expected))
        if not _close(a, e, **tol)
    ]


def _totals(label: str, actual: dict, expected: dict) -> list[str]:
    if sorted(actual) != sorted(expected):
        return [f"{label}: methods {sorted(actual)} != {sorted(expected)}"]
    return [
        f"{label}[{m}]: {actual[m]!r} != {expected[m]!r}"
        for m in expected
        if not _close(actual[m], expected[m], rtol=FLOAT_RTOL)
    ]


def check_critical_values(actual, expected) -> list[str]:
    return _floats("critical_values", list(actual), expected, atol=BOUNDARY_ATOL)


def check_oc(actual: dict, expected: dict) -> list[str]:
    out = check_critical_values(actual["critical_values"], expected["critical_values"])
    out += _totals("method_totals", actual["method_totals"], expected["method_totals"])
    if actual["rejection_counts"] != expected["rejection_counts"]:
        out.append(f"rejection_counts {actual['rejection_counts']} != {expected['rejection_counts']}")
    if actual["failures"] != expected["failures"]:
        out.append(f"failures {actual['failures']} != {expected['failures']}")
    return out


def check_calibration(actual: dict, expected: dict) -> list[str]:
    out = _floats("analysis_times", actual["analysis_times"], expected["analysis_times"],
                  rtol=FLOAT_RTOL)
    out += _totals("method_totals", actual["method_totals"], expected["method_totals"])
    if actual["failures"] != expected["failures"]:
        out.append(f"failures {actual['failures']} != {expected['failures']}")
    return out


def check_stages(actual: dict, expected: dict) -> list[str]:
    """Per-method stage rows [look, decision, boundary, z, info]."""
    out = []
    for m, rows in expected.items():
        got = actual.get(m, [])
        if [r[:2] for r in got] != [r[:2] for r in rows]:
            out.append(f"{m}: looks/decisions {[r[:2] for r in got]} != {[r[:2] for r in rows]}")
            continue
        for g, e in zip(got, rows):
            out += _floats(f"{m} look {e[0]} boundary", [g[2]], [e[2]], atol=BOUNDARY_ATOL)
            out += _floats(f"{m} look {e[0]} z,info", g[3:], e[3:], rtol=FLOAT_RTOL)
    return out


def check_spending_gap(gap: float, limit: float) -> list[str]:
    return [] if gap <= limit else [f"spending gap {gap:.3g} exceeds {limit:g}"]


def check_identical(label: str, texts: dict) -> list[str]:
    """All values byte-identical (e.g. oc_to_csv from each pass)."""
    first_key, first = next(iter(texts.items()))
    return [f"{label}: {k} differs from {first_key}" for k, v in texts.items() if v != first]


def check_cli(cli: dict, api_rows: dict, api_decisions: dict) -> list[str]:
    """CLI exit codes follow the API decisions; state rows are identical."""
    out = []
    for m, decisions in api_decisions.items():
        want = [2 if d == "reject" else 0 for d in decisions]
        if cli[m]["exit_codes"] != want:
            out.append(f"cli {m}: exit codes {cli[m]['exit_codes']} != {want}")
        if cli[m]["rows"] != api_rows[m]:
            out.append(f"cli {m}: state rows differ from the API path")
    return out
