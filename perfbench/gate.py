"""Correctness gate and output digests for one beamctl job.

Every job must exit 0 and write only finite numbers.  The one value that
is NaN by definition, the ``ratio`` of the first fixed-point iteration
(it has no predecessor to divide by), must be NaN and nothing else may be.
Per command:

* ``steer``: reported relative terminal error <= 1e-6;
* ``exact``: terminal error <= 1e-6 and every ratio <= contraction_lhs + 0.05;
* ``approx``: every terminal error under its bound_estimate, and the
  errors non-increasing as the window shrinks;
* ``simulate``: history_residual <= the resolved picard_tol.

The digest is a SHA-256 over the job's output files, names and bytes, in
name order; two result files can be compared to check "bitwise unchanged".
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

import yaml

STEER_TOL = 1e-6
EXACT_TOL = 1e-6
RATIO_SLACK = 0.05


def digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(Path(out_dir).iterdir()):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def _read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


def _read_report(path: Path) -> dict[str, object]:
    out: dict[str, object] = {}
    for line in Path(path).read_text().splitlines():
        key, _, value = line.partition(" = ")
        if value in ("true", "false"):
            out[key] = value == "true"
        elif key == "command":
            out[key] = value
        else:
            out[key] = float(value)
    return out


def _yaml_numbers(node):
    if isinstance(node, dict):
        for v in node.values():
            yield from _yaml_numbers(v)
    elif isinstance(node, list):
        for v in node:
            yield from _yaml_numbers(v)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield float(node)


def check(command: str, exit_code: int, out_dir: Path, prefix: str) -> list[str]:
    """Problems found in one job's outputs; an empty list means it passed."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    out_dir = Path(out_dir)
    problems: list[str] = []
    tables: dict[str, tuple[list[str], list[list[float]]]] = {}
    report: dict[str, object] = {}
    resolved: dict = {}
    for path in sorted(out_dir.iterdir()):
        try:
            if path.suffix == ".csv":
                header, rows = _read_csv(path)
                tables[path.name.removeprefix(prefix + "_")] = (header, rows)
                for i, row in enumerate(rows):
                    for name, v in zip(header, row):
                        first_ratio = path.name.endswith("_iterations.csv") and name == "ratio" and i == 0
                        if not (math.isnan(v) if first_ratio else math.isfinite(v)):
                            problems.append(f"{path.name}: {name}={v} in row {i + 1}")
            elif path.name.endswith("_report.txt"):
                report = _read_report(path)
                numbers = [v for v in report.values() if isinstance(v, float)]
                if not all(math.isfinite(v) for v in numbers):
                    problems.append(f"{path.name}: non-finite value")
            elif path.suffix == ".yaml":
                resolved = yaml.safe_load(path.read_text())
                if not all(math.isfinite(v) for v in _yaml_numbers(resolved)):
                    problems.append(f"{path.name}: non-finite value")
        except (ValueError, IndexError, yaml.YAMLError) as exc:
            problems.append(f"{path.name}: unreadable ({exc})")
    if problems:
        return problems

    if command == "steer":
        if not report.get("terminal_error_relative", math.inf) <= STEER_TOL:
            problems.append(f"steer: relative error {report.get('terminal_error_relative')} > {STEER_TOL}")
    elif command == "exact":
        if not report.get("terminal_error", math.inf) <= EXACT_TOL:
            problems.append(f"exact: terminal error {report.get('terminal_error')} > {EXACT_TOL}")
        lhs = report.get("contraction_lhs", math.inf)
        header, rows = tables["iterations.csv"]
        col = header.index("ratio")
        for row in rows[1:]:
            if not row[col] <= lhs + RATIO_SLACK:
                problems.append(f"exact: ratio {row[col]} > lhs {lhs} + {RATIO_SLACK}")
    elif command == "approx":
        header, rows = tables["approx.csv"]
        err, bound = header.index("terminal_error"), header.index("bound_estimate")
        for row in rows:
            if not row[err] < row[bound]:
                problems.append(f"approx: error {row[err]} not under bound {row[bound]}")
        for a, b in zip(rows, rows[1:]):
            if b[err] > a[err]:
                problems.append(f"approx: error grows from {a[err]} to {b[err]}")
    elif command == "simulate":
        tol = float(resolved["experiment"]["picard_tol"])
        if not report.get("history_residual", math.inf) <= tol:
            problems.append(f"simulate: history residual {report.get('history_residual')} > {tol}")
    return problems
