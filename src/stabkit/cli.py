"""Command-line surface: frame potentials, enumeration, and cross-checks.

A command parses its arguments, calls one public library rule per result or
check, and renders. frame-potential and enumerate spectrum render through one
_render: JSON and CSV from the same row dicts, and only the table rows are
per command. enumerate lagrangians and states stream JSON lines through _write.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 resource cap,
and 141 (128 + SIGPIPE) from the process entry, __main__.run, when a reader
closes stdout early; main itself lets that BrokenPipeError through.
Each command declares only the options it reads, so a misplaced flag is a usage
error. Each cap goes to the library function that does the work it bounds, which
checks it once, before that work; verify also pre-checks its state and pair caps
before it enumerates. stabkit starts no thread (numpy's BLAS may), and every
reduction has a fixed order, so identical invocations produce identical bytes.
--threads is accepted and validated for compatibility, and changes nothing.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from . import potential, stabilizer
from .weyl import WEYL_TOL, verify_relations, zx_monomials
from .combinatorics import (
    kappa,
    lagrangian_count,
    require_prime,
    stabilizer_count,
    transversal_count,
    welch_bound,
)
from .errors import (
    DEFAULT_ENUM_CAP,
    DEFAULT_MATRIX_CAP,
    DEFAULT_PAIR_CAP,
    DEFAULT_STATE_CAP,
    NonPrimeModulusError,
    ResourceCapError,
    check_cap,
)
from .symplectic import enumerate_lagrangians, intersection_spectrum_of


def _int_range(text: str) -> list[int]:
    """Inclusive 'a..b' range or a single integer."""
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..")
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer or a..b range: {text!r}") from exc
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty range: {text!r}")
    return list(range(lo, hi + 1))


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than low."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


_CAPS = {
    "--enum-cap": (DEFAULT_ENUM_CAP, "max Lagrangians enumerated"),
    "--state-cap": (DEFAULT_STATE_CAP, "max states enumerated or realized"),
    "--pair-cap": (DEFAULT_PAIR_CAP, "max state pairs brute-forced"),
    "--matrix-cap": (DEFAULT_MATRIX_CAP, "max Hilbert-space dimension realized"),
}


def _add_common(parser: argparse.ArgumentParser, *caps: str) -> None:
    """The given cap flags, --output and --threads."""
    for flag in caps:
        default, help_text = _CAPS[flag]
        parser.add_argument(flag, type=_int_at_least(0), default=default, help=help_text)
    parser.add_argument("--output", default=None, help="write to this path instead of stdout")
    parser.add_argument(
        "--threads", type=_int_at_least(1), default=None, help="accepted for compatibility; changes nothing"
    )


def _add_dn(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--d", type=int, required=True, help="prime local dimension")
    parser.add_argument("--n", type=int, required=True, help="register count")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stabkit", description="Exact stabilizer-state design toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)
    formats = ["table", "csv", "json"]

    fp = sub.add_parser("frame-potential", help="frame potentials, Welch bounds, design verdicts")
    fp.add_argument("--d", type=int, required=True, help="prime local dimension")
    fp.add_argument("--n", type=_int_range, required=True, metavar="A[..B]", help="register count or range")
    fp.add_argument("--t", type=_int_range, required=True, metavar="A[..B]", help="moment order or range")
    fp.add_argument(
        "--method",
        choices=["exact", "bruteforce", "fixed-state", "all"],
        default="exact",
        help="numeric engine for the bruteforce column (exact engines always run)",
    )
    fp.add_argument("--format", choices=formats, default="table")
    _add_common(fp, "--state-cap", "--pair-cap", "--matrix-cap")
    fp.set_defaults(func=cmd_frame_potential)

    en = sub.add_parser("enumerate", help="enumerate Lagrangians, states, or intersection spectra")
    what = en.add_subparsers(dest="what", required=True)
    la = what.add_parser("lagrangians", help="every Lagrangian, as JSON lines")
    _add_dn(la)
    _add_common(la, "--enum-cap")
    la.set_defaults(func=cmd_lagrangians)
    st = what.add_parser("states", help="every stabilizer state, as JSON lines")
    _add_dn(st)
    st.add_argument("--realize", action="store_true", help="include state amplitudes")
    _add_common(st, "--state-cap", "--matrix-cap")
    st.set_defaults(func=cmd_states)
    sp = what.add_parser("spectrum", help="the intersection spectrum of the first Lagrangian against the formula")
    _add_dn(sp)
    sp.add_argument("--format", choices=formats, default="table")
    _add_common(sp, "--enum-cap")
    sp.set_defaults(func=cmd_spectrum)

    ve = sub.add_parser("verify", help="run the full cross-check suite for one (d, n)")
    _add_dn(ve)
    ve.add_argument("--t-max", type=int, default=4)
    _add_common(ve, *_CAPS)
    ve.set_defaults(func=cmd_verify)

    return parser


def _write(chunks: Iterable[str], output: str | None) -> None:
    if output is None:
        sys.stdout.writelines(chunks)
    else:
        try:
            with open(output, "w", newline="") as fh:
                fh.writelines(chunks)
        except OSError as exc:
            # An unwritable --output path is a usage error, not a crash.
            raise ValueError(f"cannot write --output: {exc}") from exc


def _json_lines(objs: Iterable[dict]) -> Iterator[str]:
    return (json.dumps(obj, separators=(",", ":")) + "\n" for obj in objs)


def _decimal12(fr) -> str:
    return format(float(fr), ".12g")


def _csv_cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    return "" if value is None else value


def _render(rows: list[dict], table: list[list[str]], fmt: str) -> str:
    """JSON or CSV from the row dicts (booleans as true/false, None as an empty field), or the table's rows aligned."""
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(rows[0].keys())
        writer.writerows([_csv_cell(value) for value in row.values()] for row in rows)
        return buf.getvalue()
    widths = [max(len(row[c]) for row in table) for c in range(len(table[0]))]
    return "".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() + "\n" for row in table)


# ---------------------------------------------------------------------------
# frame-potential


def cmd_frame_potential(args) -> int:
    reports = []
    for n in args.n:
        # Each engine checks its own caps; the pair cap also picks the engine for --method all.
        if args.method == "exact":
            values = [None] * len(args.t)
        elif args.method == "bruteforce" or (args.method == "all" and stabilizer_count(args.d, n) ** 2 <= args.pair_cap):
            values = potential.frame_potentials_bruteforce(
                args.d, n, args.t, state_cap=args.state_cap, pair_cap=args.pair_cap, matrix_cap=args.matrix_cap
            )
        else:  # fixed-state: realized a block at a time; one row of overlaps, shared by every t
            values = potential.frame_potentials_fixed_state(
                args.d, n, args.t, state_cap=args.state_cap, matrix_cap=args.matrix_cap
            )
        for t, value in zip(args.t, values):
            reports.append(potential.frame_potential_report(args.d, n, t, bruteforce=value))
    # table: exact columns as p/q plus a 12-significant-digit decimal column.
    table = [["d", "n", "t", "D", "recursion", "combinatorial", "value", "bruteforce", "welch", "welch-dec", "design"]]
    table += [
        [
            str(r.d),
            str(r.n),
            str(r.t),
            str(r.dimension),
            potential.fraction_str(r.value_recursion),
            potential.fraction_str(r.value_combinatorial),
            _decimal12(r.value_combinatorial),
            "-" if r.value_bruteforce is None else format(r.value_bruteforce, ".12g"),
            potential.fraction_str(r.welch),
            _decimal12(r.welch),
            "yes" if r.is_t_design else "no",
        ]
        for r in reports
    ]
    _write([_render([r.to_json_dict() for r in reports], table, args.format)], args.output)
    return 0


# ---------------------------------------------------------------------------
# enumerate


def cmd_lagrangians(args) -> int:
    dicts = (sub.to_json_dict() for sub in enumerate_lagrangians(args.d, args.n, cap=args.enum_cap))
    _write(_json_lines(dicts), args.output)
    return 0


def cmd_states(args) -> int:
    if args.realize:
        pairs = stabilizer.realized_states(args.d, args.n, state_cap=args.state_cap, matrix_cap=args.matrix_cap)
        dicts = (state.to_json_dict(amplitudes=vec) for state, vec in pairs)
    else:
        dicts = (state.to_json_dict() for state in stabilizer.enumerate_states(args.d, args.n, cap=args.state_cap))
    _write(_json_lines(dicts), args.output)
    return 0


def cmd_spectrum(args) -> int:
    """The empirical kappa of the first Lagrangian against the closed formula, in one pass over the Lagrangians."""
    lagrangians = enumerate_lagrangians(args.d, args.n, cap=args.enum_cap)
    first = next(lagrangians)
    spectrum = intersection_spectrum_of(first, itertools.chain([first], lagrangians))
    rows = []
    for k in sorted(spectrum):
        formula = kappa(args.d, args.n, k)
        rows.append({"k": k, "count": spectrum[k], "formula": formula, "match": spectrum[k] == formula})
    table = [["k", "count", "formula", "match"]]
    table += [[str(row["k"]), str(row["count"]), str(row["formula"]), "yes" if row["match"] else "no"] for row in rows]
    _write([_render(rows, table, args.format)], args.output)
    return 0


# ---------------------------------------------------------------------------
# verify


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def run_verification(
    d: int,
    n: int,
    t_max: int,
    *,
    enum_cap: int = DEFAULT_ENUM_CAP,
    state_cap: int = DEFAULT_STATE_CAP,
    pair_cap: int = DEFAULT_PAIR_CAP,
    matrix_cap: int = DEFAULT_MATRIX_CAP,
) -> list[CheckResult]:
    """The full cross-check suite for one (d, n); raises on cap violations."""
    require_prime(d)
    if n < 1 or t_max < 1:
        raise ValueError("n and t_max must be positive")
    count = stabilizer_count(d, n)
    check_cap("states", count, state_cap)
    check_cap("overlap cross-check state pairs", count * count, pair_cap)

    checks: list[CheckResult] = []
    lagrangians = list(enumerate_lagrangians(d, n, cap=enum_cap))
    found, expected = len(lagrangians), lagrangian_count(d, n)
    checks.append(CheckResult("lagrangian-count", found == expected, f"enumerated {found}, formula {expected}"))

    spectrum = intersection_spectrum_of(lagrangians[0], lagrangians)
    kappa_ok = all(spectrum[k] == kappa(d, n, k) for k in range(n + 1))
    checks.append(CheckResult("kappa-spectrum", kappa_ok, " ".join(f"k={k}:{spectrum[k]}" for k in sorted(spectrum))))
    found, expected = spectrum[0], transversal_count(d, n)
    checks.append(CheckResult("transversal-count", found == expected, f"enumerated {found}, formula {expected}"))

    zx = zx_monomials(d, n, cap=matrix_cap)
    comp_ok, comm_ok, trace_dev = verify_relations(d, n, zx)
    operators = len(zx[0])  # one row of rows per operator
    checks.append(CheckResult("weyl-composition", comp_ok, f"{operators**2} pairs"))
    checks.append(CheckResult("weyl-commutation", comm_ok, f"{operators**2} pairs"))
    checks.append(CheckResult("weyl-trace", trace_dev <= WEYL_TOL, f"{operators} operators, max dev {trace_dev:.2e}"))

    stack = stabilizer.state_vectors(d, n, state_cap=state_cap, matrix_cap=matrix_cap)
    eigen_dev, gram_dev, overlap_dev = stabilizer.state_deviations(lagrangians, stack, zx)
    checks.append(CheckResult("state-eigenvalue", eigen_dev <= 1e-10, f"{count} states, max residual {eigen_dev:.2e}"))
    checks.append(CheckResult("basis-gram", gram_dev <= 1e-10, f"{len(lagrangians)} bases, max dev {gram_dev:.2e}"))
    checks.append(
        CheckResult("overlap-exact-numeric", overlap_dev <= 1e-10, f"{count * count} pairs, max dev {overlap_dev:.2e}")
    )

    exact_ok = True
    numeric_dev = 0.0
    flags = []
    ts = range(1, t_max + 1)
    brutes = potential.frame_potentials_bruteforce(d, n, ts, pair_cap=pair_cap, vectors=stack)
    fixeds = potential.frame_potentials_fixed_state(d, n, ts, vectors=stack)
    for t, brute, fixed in zip(ts, brutes, fixeds):
        rec = potential.frame_potential_recursion(d, n, t)
        comb = potential.frame_potential_combinatorial(d, n, t)
        exact_ok = exact_ok and rec == comb
        numeric_dev = max(numeric_dev, abs(brute - float(comb)), abs(fixed - float(comb)))
        flags.append(comb == welch_bound(d**n, t))
    checks.append(CheckResult("engines-exact", exact_ok, f"t=1..{t_max} recursion == combinatorial"))
    checks.append(
        CheckResult("engines-numeric", numeric_dev <= 1e-9, f"bruteforce and fixed-state, max dev {numeric_dev:.2e}")
    )

    expected_flags = [_expected_design(d, t) for t in range(1, t_max + 1)]
    designs = " ".join(f"t={t}:{'yes' if f else 'no'}" for t, f in enumerate(flags, start=1))
    checks.append(CheckResult("welch-pattern", flags == expected_flags, f"designs: {designs}"))
    return checks


def _expected_design(d: int, t: int) -> bool:
    return t <= 2 or (t == 3 and d == 2)


def cmd_verify(args) -> int:
    checks = run_verification(
        args.d,
        args.n,
        args.t_max,
        enum_cap=args.enum_cap,
        state_cap=args.state_cap,
        pair_cap=args.pair_cap,
        matrix_cap=args.matrix_cap,
    )
    lines = [f"verify d={args.d} n={args.n} t-max={args.t_max}"]
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        lines.append(f"  {check.name:<24} {status}  {check.detail}")
    passed = sum(1 for c in checks if c.passed)
    ok = passed == len(checks)
    lines.append(f"result: {'PASS' if ok else 'FAIL'} ({passed}/{len(checks)} checks)")
    _write(["\n".join(lines) + "\n"], args.output)
    return 0 if ok else 1


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NonPrimeModulusError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
