"""Correctness gates for the benchmark workloads, and a self-test of them.

Each gate takes one invocation's exit code and stdout bytes and returns the
list of problems it found; an empty list means the output is correct. The
references under ``expected/`` were recorded from the output of stabkit 0.1.0:

* ``verify-d2n3.txt``: the ``verify`` report with every float ``max dev`` /
  ``max residual`` value replaced by ``<float>``. Check names, statuses and
  the exact details (counts, kappa spectrum, pair counts, design pattern)
  must match byte for byte.
* ``enum-d2n4.json``: the line count and the SHA-256 of the sorted JSON
  lines, so the check does not depend on enumeration order.
* ``fp-d3n3.csv``: the exact columns of the CSV report. The numeric
  ``bruteforce`` column is checked against ``combinatorial`` to 1e-9.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from fractions import Fraction
from pathlib import Path
from typing import Callable

EXPECTED = Path(__file__).resolve().parent / "expected"

_FLOAT_DETAIL = re.compile(r"(max (?:dev|residual)) \S+")
FP_EXACT_COLUMNS = ["d", "n", "t", "D", "recursion", "combinatorial", "welch", "is_design"]
FP_TOLERANCE = 1e-9


def _lines(stdout: bytes) -> list[str] | None:
    try:
        return stdout.decode("utf-8").splitlines()
    except UnicodeDecodeError:
        return None


def normalize_verify(lines: list[str]) -> list[str]:
    return [_FLOAT_DETAIL.sub(r"\1 <float>", line) for line in lines]


def check_verify(stdout: bytes) -> list[str]:
    lines = _lines(stdout)
    if lines is None:
        return ["stdout is not UTF-8"]
    problems = []
    if not lines or lines[-1] != "result: PASS (12/12 checks)":
        problems.append(f"last line is {lines[-1] if lines else None!r}")
    expected = (EXPECTED / "verify-d2n3.txt").read_text().splitlines()
    got = normalize_verify(lines)
    if got != expected:
        diff = [f"{e!r} != {g!r}" for e, g in zip(expected, got) if e != g]
        if len(got) != len(expected):
            diff.append(f"{len(got)} lines, expected {len(expected)}")
        problems.append("report differs from the reference: " + "; ".join(diff[:3]))
    return problems


def enum_digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()


def check_enum(stdout: bytes) -> list[str]:
    lines = _lines(stdout)
    if lines is None:
        return ["stdout is not UTF-8"]
    expected = json.loads((EXPECTED / "enum-d2n4.json").read_text())
    if len(lines) != expected["lines"]:
        return [f"{len(lines)} lines, expected {expected['lines']}"]
    if enum_digest(lines) != expected["sorted_sha256"]:
        return ["digest of the sorted lines differs from the reference"]
    return []


def fp_exact_rows(rows: list[dict]) -> list[str]:
    return [",".join(row[c] for c in FP_EXACT_COLUMNS) for row in rows]


def check_fp(stdout: bytes) -> list[str]:
    lines = _lines(stdout)
    if lines is None:
        return ["stdout is not UTF-8"]
    rows = list(csv.DictReader(io.StringIO("\n".join(lines) + "\n")))
    expected = (EXPECTED / "fp-d3n3.csv").read_text().splitlines()
    if not rows or any(c not in rows[0] for c in FP_EXACT_COLUMNS + ["bruteforce"]):
        return ["CSV header lacks the expected columns"]
    problems = []
    if [",".join(FP_EXACT_COLUMNS)] + fp_exact_rows(rows) != expected:
        problems.append("exact columns differ from the reference")
    for row in rows:
        label = f"d={row['d']} n={row['n']} t={row['t']}"
        try:
            numeric = float(row["bruteforce"])
            num, den = row["combinatorial"].split("/")
            exact = Fraction(int(num), int(den))
        except ValueError:
            problems.append(f"{label}: unparsable bruteforce or combinatorial value")
            continue
        if abs(numeric - float(exact)) > FP_TOLERANCE:
            problems.append(f"{label}: bruteforce {numeric!r} is not within {FP_TOLERANCE} of {exact}")
    return problems


GATES: dict[str, Callable[[bytes], list[str]]] = {
    "verify-d2n3": check_verify,
    "enum-d2n4": check_enum,
    "fp-d3n3": check_fp,
}


def check(workload: str, returncode: int | None, stdout: bytes) -> list[str]:
    """Problems with one invocation's result; empty when it is correct."""
    if returncode is None:
        return ["timed out"]
    if returncode != 0:
        return [f"exit code {returncode}"]
    return GATES[workload](stdout)


# ---------------------------------------------------------------------------
# Gate self-test: mutants of a passing output must each be rejected.


def _drop_line(text: str) -> str | None:
    lines = text.splitlines(keepends=True)
    return "".join(lines[: len(lines) // 2] + lines[len(lines) // 2 + 1 :]) if len(lines) > 1 else None


def _change_fraction(text: str) -> str | None:
    m = re.search(r"(\d+)/(\d+)", text)
    if m is None:
        return None
    return text[: m.start(2)] + str(int(m.group(2)) + 1) + text[m.end(2) :]


def _fail_status(text: str) -> str | None:
    for old, new in ((" PASS ", " FAIL "), (",true\n", ",false\n")):
        if old in text:
            return text.replace(old, new, 1)
    return None


MUTATIONS = {
    "dropped line": _drop_line,
    "changed fraction": _change_fraction,
    "FAIL status": _fail_status,
}


def self_test(workload: str, stdout: bytes) -> list[str]:
    """Apply every applicable mutation to a passing output; return the ones the gate missed."""
    text = stdout.decode("utf-8")
    missed = []
    for name, mutate in MUTATIONS.items():
        mutant = mutate(text)
        if mutant is not None and not check(workload, 0, mutant.encode("utf-8")):
            missed.append(name)
    return missed
