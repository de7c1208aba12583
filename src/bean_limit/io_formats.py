"""On-disk formats: text field dumps and JSON reports.

Field dumps are plain CSV with one header line,

    # bean-limit field v1 L=<L> n=<n> t=<t> name=<name>

followed by n rows of n comma-separated values (y grows by line, x
within a line).  Values are written with 17 significant digits, so a
write/read round trip is bit exact.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np

from .experiments import Report
from .fields import GridSpec, ScalarField

_NAME_RE = re.compile(r"^[A-Za-z0-9_.\-]+$")
_HEADER_RE = re.compile(
    r"^# bean-limit field v1 L=(?P<L>\S+) n=(?P<n>\d+) t=(?P<t>\S+) name=(?P<name>\S+)$"
)


class FieldFormatError(ValueError):
    """Malformed field dump; message names the offending line."""


def write_field(path, field: ScalarField, t: float, name: str) -> None:
    if not _NAME_RE.match(name):
        raise ValueError(f"field name {name!r} must match {_NAME_RE.pattern}")
    grid = field.grid
    lines = [
        f"# bean-limit field v1 L={grid.half_width:.17g} n={grid.n} t={t:.17g} name={name}"
    ]
    for row in field.values:
        lines.append(",".join(f"{v:.17g}" for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_field(path) -> tuple[ScalarField, float, str]:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise FieldFormatError(f"cannot read {path}: {exc}") from exc
    lines = text.splitlines()
    if not lines:
        raise FieldFormatError(f"{path}: line 1: empty file, header expected")
    match = _HEADER_RE.match(lines[0])
    if match is None:
        raise FieldFormatError(f"{path}: line 1: malformed header {lines[0]!r}")
    try:
        grid = GridSpec(float(match["L"]), int(match["n"]))
        t = float(match["t"])
        if not np.isfinite(t):
            raise ValueError(f"time {t} is not finite")
    except ValueError as exc:
        raise FieldFormatError(f"{path}: line 1: {exc}") from exc
    n, name = grid.n, match["name"]
    if len(lines) < n + 1:
        raise FieldFormatError(f"{path}: line {len(lines)}: expected {n} data rows, file ends early")
    rows = []
    for j in range(n):
        lineno = j + 2
        parts = lines[j + 1].split(",")
        if len(parts) != n:
            raise FieldFormatError(
                f"{path}: line {lineno}: expected {n} values, got {len(parts)}"
            )
        try:
            rows.append([float(p) for p in parts])
            if not np.all(np.isfinite(rows[-1])):
                raise ValueError("non-finite value")
        except ValueError as exc:
            raise FieldFormatError(f"{path}: line {lineno}: {exc}") from exc
    for lineno, line in enumerate(lines[n + 1:], start=n + 2):
        if line.strip():
            raise FieldFormatError(
                f"{path}: line {lineno}: unexpected content after the {n} data rows"
            )
    field = ScalarField(grid, np.array(rows))
    return field, t, name


def write_report(out_dir, report: Report, config: dict) -> None:
    """report.json, with `config` as its config echo, and summary.txt.

    report.json is strict JSON: a non-finite metric is written as null.
    summary.txt prints it as inf or nan.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "name": report.name,
        "config": config,
        "metrics": {k: v if math.isfinite(v) else None for k, v in report.metrics.items()},
        "verdicts": [dataclasses.asdict(v) for v in report.verdicts],
    }
    (out_dir / "report.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    )
    (out_dir / "summary.txt").write_text(summary_text(report))


def summary_text(report: Report) -> str:
    lines = [f"experiment: {report.name}", ""]
    lines.append("metrics:")
    for key in sorted(report.metrics):
        lines.append(f"  {key} = {report.metrics[key]:.12g}")
    lines.append("")
    lines.append("verdicts:")
    for v in report.verdicts:
        status = "PASS" if v.passed else "FAIL"
        lines.append(f"  [{status}] {v.name}  (from: {', '.join(v.metrics)})")
    lines.append("")
    overall = "PASS" if report.passed() else "FAIL"
    lines.append(f"overall: {overall}")
    return "\n".join(lines) + "\n"
