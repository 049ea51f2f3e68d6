"""Output checks: exit codes, audit verdicts and digests against stored references.

Digests are taken over values, not file bytes, so they survive a change
of file format: a trace is reduced to its integer point sequence and a
brute-force table to its (X, lo, hi, argmin) rows.
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction
from pathlib import Path

REFERENCES = Path(__file__).with_name("references.json")


def parse_int(value) -> int:
    """An integer from a trace coordinate: an int, a decimal or p/q string, or a 0x hex string."""
    if isinstance(value, bool):
        raise ValueError("boolean is not a coordinate")
    if isinstance(value, int):
        return value
    text = str(value).strip()
    if text.lstrip("+-").lower().startswith("0x"):
        return int(text, 16)
    frac = Fraction(text)
    if frac.denominator != 1:
        raise ValueError(f"non-integer coordinate {text!r}")
    return frac.numerator


def trace_points(doc: dict) -> list[tuple[int, ...]]:
    """The integer point sequence of a trace document, whatever its number format."""
    return [tuple(parse_int(a) for a in entry["x"]) for entry in doc["entries"]]


def points_digest(points) -> str:
    text = ";".join(",".join(format(a, "x") for a in p) for p in points)
    return hashlib.sha256(text.encode()).hexdigest()


def rows_digest(rows: list[dict]) -> str:
    """Digest of brute-force rows (X, lo, hi, argmin), with lo and hi as exact rationals."""
    canon = [
        [int(r["X"]), str(Fraction(r["lo"])), str(Fraction(r["hi"])), [parse_int(a) for a in r["argmin"]]]
        for r in rows
    ]
    return hashlib.sha256(json.dumps(canon, separators=(",", ":")).encode()).hexdigest()


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)["ops"]


def observe(op, code: int | None, stdout: str) -> tuple[list[str], dict]:
    """Check one CLI call against what its op expects, before any reference.

    Returns (problems, facts); facts hold the digests and sizes that the
    reference comparison and the size metrics use.
    """
    problems: list[str] = []
    facts: dict = {}
    if code != op.exit:
        problems.append(f"exit code {code}, expected {op.exit}")
    try:
        if op.kind == "gen":
            facts["trace_bytes"] = os.path.getsize(op.trace)
            with open(op.trace) as fh:
                points = trace_points(json.load(fh))
            if len(points) != op.points:
                problems.append(f"{len(points)} points, expected {op.points}")
            facts["points_sha256"] = points_digest(points)
            facts["last_coord_bits"] = max(abs(a) for a in points[-1]).bit_length()
        elif op.kind == "verify":
            with open(op.audit) as fh:
                report = json.load(fh)
            if report.get("all_pass") is not True:
                problems.append("audit all_pass is not true")
            if len(report.get("conditions", ())) != op.points:
                problems.append(f"audit covers {len(report.get('conditions', ()))} points, expected {op.points}")
            if report.get("partial") is not op.partial:
                problems.append(f"audit partial flag {report.get('partial')!r}, expected {op.partial}")
        elif op.kind == "bruteforce":
            rows = json.loads(stdout)
            facts["rows"] = len(rows)
            facts["rows_sha256"] = rows_digest(rows)
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        problems.append(f"output unreadable: {type(exc).__name__}: {exc}")
    return problems, facts


def compare(op, facts: dict, references: dict) -> list[str]:
    """Mismatches between an op's observed digests and its stored reference."""
    ref = references.get(op.label)
    if ref is None:
        return [f"no stored reference for {op.label}"]
    return [f"{key} differs from the reference" for key in ("points_sha256", "rows_sha256")
            if key in ref and facts.get(key) != ref[key]]
