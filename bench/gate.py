"""Correctness gate for one CLI run.

At the workload's default seed a run's outputs (the report without its
timestamp, plus every CSV artifact) must match the recorded reference:
verdicts, strings and integers exactly, floats within RTOL relative or ATOL
absolute, so that last-bit changes in the linear algebra pass. At any other
seed the run must exit 0 with every check passed.
"""

from __future__ import annotations

import csv
import json
import math
import os
from typing import Any

#: Relative tolerance on report numbers: far above last-bit noise (1e-16)
#: and far below any statistical or physical change.
RTOL = 1e-8
#: Absolute floor for numbers that are float dust around zero, such as the
#: a2 second difference at the flip-symmetric point (~1e-13).
ATOL = 1e-10

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def _cell(text: str) -> Any:
    try:
        return float(text)
    except ValueError:
        return text


def load_outputs(report_path: str) -> dict:
    """A run's report (timestamp removed) and its CSV artifacts as tables."""
    with open(report_path) as fh:
        report = json.load(fh)
    report.pop("timestamp", None)
    tables = {}
    for key, name in sorted(report.get("artifacts", {}).items()):
        if name.endswith(".csv"):
            with open(os.path.join(os.path.dirname(report_path), name), newline="") as fh:
                tables[key] = [[_cell(c) for c in row] for row in csv.reader(fh)]
    return {"report": report, "tables": tables}


def differences(
    actual: Any, expected: Any, rtol: float = RTOL, atol: float = ATOL, path: str = ""
) -> list[str]:
    """Every place where `actual` departs from `expected`, as readable lines."""
    here = path or "/"
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{here}: expected an object"]
        out = []
        for key in sorted(set(expected) | set(actual)):
            if key not in actual:
                out.append(f"{path}/{key}: missing")
            elif key not in expected:
                out.append(f"{path}/{key}: unexpected")
            else:
                out += differences(actual[key], expected[key], rtol, atol, f"{path}/{key}")
        return out
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{here}: expected a list of {len(expected)}"]
        out = []
        for i, (a, e) in enumerate(zip(actual, expected)):
            out += differences(a, e, rtol, atol, f"{path}/{i}")
        return out
    if isinstance(expected, float) and isinstance(actual, (int, float)) and not isinstance(actual, bool):
        if math.isnan(expected) or math.isinf(expected):
            same = actual == expected or (math.isnan(actual) and math.isnan(expected))
        else:
            same = abs(actual - expected) <= max(atol, rtol * max(abs(actual), abs(expected)))
        return [] if same else [f"{here}: {actual!r} != {expected!r}"]
    if type(actual) is not type(expected) or actual != expected:
        return [f"{here}: {actual!r} != {expected!r}"]
    return []


def verdict_problems(outputs: dict) -> list[str]:
    report = outputs["report"]
    out = [f"check failed: {c.get('name')}" for c in report.get("checks", []) if not c.get("passed")]
    if report.get("passed") is not True:
        out.append("report not passed")
    return out


def load_reference(workload: str) -> dict:
    with open(os.path.join(REFERENCE_DIR, f"{workload}.json")) as fh:
        return json.load(fh)


def check_run(exit_code: int, outputs: dict | None, reference: dict | None) -> list[str]:
    """Problems with one run; empty when it is correct.

    `reference` is the recorded outputs at the default seed, or None at any
    other seed.
    """
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if outputs is None:
        return ["no report"]
    if reference is not None:
        return differences(outputs, reference)
    return verdict_problems(outputs)
