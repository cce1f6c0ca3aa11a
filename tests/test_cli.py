"""CLI surface: formats, exit codes, determinism."""

import contextlib
import csv
import hashlib
import importlib
import io
import json
import re
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from stabkit import ResourceCapError, Subspace, frame_potential_report, potential, stabilizer
from stabkit.cli import build_parser, main, run_verification
from stabkit.errors import _WORK_BYTES

from helpers import from_rows, lagrangians_by_filter, rebuilt, source_env


def run_cli(args):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_frame_potential_table():
    code, out, _ = run_cli(["frame-potential", "--d", "3", "--n", "1", "--t", "3"])
    assert code == 0
    assert "1/9" in out and "1/10" in out
    assert out.splitlines()[-1].endswith("no")


def test_frame_potential_csv_rows_and_design_flags():
    code, out, _ = run_cli(
        ["frame-potential", "--d", "2", "--n", "1..3", "--t", "2..4", "--method", "all", "--format", "csv"]
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 9
    for row in rows:
        assert row["recursion"] == row["combinatorial"]
        if row["t"] == "3":
            assert row["is_design"] == "true"
        assert row["bruteforce"] != ""
        num, den = row["combinatorial"].split("/")
        assert abs(float(row["bruteforce"]) - int(num) / int(den)) <= 1e-9


def test_frame_potential_t1_fixed_state():
    code, out, _ = run_cli(
        ["frame-potential", "--d", "2", "--n", "1", "--t", "1", "--method", "fixed-state", "--format", "csv"]
    )
    assert code == 0
    row = next(csv.DictReader(io.StringIO(out)))
    assert row["recursion"] == "1/2"
    assert abs(float(row["bruteforce"]) - 0.5) <= 1e-9


def test_frame_potential_json_roundtrip():
    code, out, _ = run_cli(
        ["frame-potential", "--d", "2", "--n", "1..2", "--t", "1..4", "--format", "json"]
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 8
    for row in rows:
        rebuilt(row)  # each row is the JSON of the report its fields build


_SUBSPACE = {"d": 2, "n": 1, "dim": 1, "generators": [[1, 0]]}
_STATE = {"d": 2, "n": 1, "lagrangian": _SUBSPACE, "zeta": [0, 1]}
_REPORT = frame_potential_report(2, 1, 2).to_json_dict()


def _without(obj, key):
    return {k: v for k, v in obj.items() if k != key}


@pytest.mark.parametrize(
    "obj, error",
    [
        ({}, KeyError),
        ([[1, 0]], TypeError),
        ({**_SUBSPACE, "generators": 5}, TypeError),
        ({**_SUBSPACE, "generators": [[1, "0"]]}, ValueError),
        ({**_SUBSPACE, "dim": 2}, AssertionError),
        ({**_SUBSPACE, "d": "2"}, ValueError),
        ({**_SUBSPACE, "n": True}, AssertionError),
        (_without(_STATE, "zeta"), KeyError),
        ({**_STATE, "lagrangian": [[1, 0]]}, TypeError),
        ({**_STATE, "zeta": [0.0, 1]}, ValueError),
        (_without(_REPORT, "t"), KeyError),
        ({**_REPORT, "d": 4}, ValueError),
        ({**_REPORT, "t": 0}, ValueError),
        ({**_REPORT, "D": 5}, AssertionError),
        ({**_REPORT, "D": "x"}, AssertionError),
        (_without(_REPORT, "D"), AssertionError),
        ({**_REPORT, "recursion": "1"}, ValueError),
        ({**_REPORT, "welch": "1/0"}, ZeroDivisionError),
        ({**_REPORT, "combinatorial": 0.25}, ValueError),
        ({**_REPORT, "is_design": "yes"}, ValueError),
    ],
)
def test_rebuilt_refuses_json_the_cli_never_writes(obj, error):
    # The CLI tests above check its JSON through rebuilt, so rebuilt must refuse a missing key, a wrong type, a dim
    # or D that disagrees with the rest, and a (d, n, t) no engine accepts; the unbroken dicts rebuild.
    for good in (_SUBSPACE, _STATE, _REPORT):
        assert rebuilt(good).to_json_dict() == good
    with pytest.raises(error):
        rebuilt(obj)


def test_csv_and_json_encode_the_same_rows():
    args = ["frame-potential", "--d", "3", "--n", "1..2", "--t", "1..3"]
    _, csv_out, _ = run_cli(args + ["--format", "csv"])
    _, json_out, _ = run_cli(args + ["--format", "json"])
    csv_rows = list(csv.DictReader(io.StringIO(csv_out)))
    json_rows = json.loads(json_out)
    assert len(csv_rows) == len(json_rows) == 6
    for c, j in zip(csv_rows, json_rows):
        assert (int(c["d"]), int(c["n"]), int(c["t"]), int(c["D"])) == (j["d"], j["n"], j["t"], j["D"])
        assert c["recursion"] == j["recursion"]
        assert c["combinatorial"] == j["combinatorial"]
        assert c["welch"] == j["welch"]
        assert (c["is_design"] == "true") == j["is_design"]
        assert c["bruteforce"] == "" and j["bruteforce"] is None


def test_a_sweep_over_t_prints_the_rows_of_one_t_runs():
    # At 48 moments the numeric engines sum in chunks of 256 values per t, at one moment of 2^14: the bits must
    # not depend on it. The two outputs are compared with each other, so this holds on any BLAS kernel.
    argv = ["frame-potential", "--d", "3", "--n", "1..2", "--method", "all", "--format", "csv", "--t"]
    code, out, _ = run_cli(argv + ["1..48"])
    assert code == 0
    singles = []
    for t in range(1, 49):
        code, one, _ = run_cli(argv + [str(t)])
        assert code == 0
        singles.append(one.splitlines()[1:])  # the rows of n = 1 and n = 2
    assert out.splitlines()[1:] == [rows[i] for i in range(2) for rows in singles]


def test_table_format_has_decimal_column():
    code, out, _ = run_cli(["frame-potential", "--d", "2", "--n", "2", "--t", "2"])
    assert code == 0
    header = out.splitlines()[0].split()
    assert "value" in header and "welch-dec" in header
    assert "0.1" in out  # 12-significant-digit rendering of 1/10


def test_enumerate_lagrangians_lines():
    code, out, _ = run_cli(["enumerate", "lagrangians", "--d", "2", "--n", "2"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 15
    subs = [rebuilt(json.loads(line)) for line in lines]
    assert len(set(subs)) == 15


def test_enumerate_lagrangians_stream_order():
    code, out, _ = run_cli(["enumerate", "lagrangians", "--d", "2", "--n", "3"])
    assert code == 0
    witness = lagrangians_by_filter(2, 3)
    assert out.splitlines() == [json.dumps(s.to_json_dict(), separators=(",", ":")) for s in witness]


def test_enumerate_lagrangians_stream_order_is_pinned_at_d2_n4():
    # The ordered stream, not only its set: the fixed-state reference |M_0, 0> and the order of realized
    # states, which follows the Lagrangians run by run, both rest on this order.
    code, out, _ = run_cli(["enumerate", "lagrangians", "--d", "2", "--n", "4"])
    assert code == 0 and len(out.splitlines()) == 2295
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "3ce64434b0d8668443dafc3f9a946bc4036aac9e88f7a36ee10f25913cef2102"


def test_enumerate_states_lines():
    code, out, _ = run_cli(["enumerate", "states", "--d", "2", "--n", "1"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    states = [rebuilt(json.loads(line)) for line in lines]
    assert len(set(states)) == 6


def test_enumerate_states_realized():
    code, out, _ = run_cli(["enumerate", "states", "--d", "2", "--n", "1", "--realize"])
    assert code == 0
    for line in out.splitlines():
        obj = json.loads(line)
        assert len(obj["amplitudes"]) == 2
        norm = sum(re * re + im * im for re, im in obj["amplitudes"])
        assert abs(norm - 1) <= 1e-10


def test_enumerate_states_realized_matches_plain_stream():
    code, plain, _ = run_cli(["enumerate", "states", "--d", "2", "--n", "2"])
    assert code == 0
    code, realized, _ = run_cli(["enumerate", "states", "--d", "2", "--n", "2", "--realize"])
    assert code == 0
    stripped = []
    for line in realized.splitlines():
        obj = json.loads(line)
        del obj["amplitudes"]
        stripped.append(json.dumps(obj, separators=(",", ":")))
    assert stripped == plain.splitlines()
    assert len(stripped) == 60


def test_enumerate_states_realized_respects_state_cap():
    code, out, err = run_cli(["enumerate", "states", "--d", "2", "--n", "2", "--realize", "--state-cap", "10"])
    assert code == 3
    assert out == ""
    assert "60" in err and "10" in err
    # The brute-force engine realizes the same states under the same cap.
    for method in ("bruteforce", "all"):
        argv = ["frame-potential", "--d", "2", "--n", "2", "--t", "2", "--method", method]
        code, out, err = run_cli([*argv, "--state-cap", "10"])
        assert (code, out, err) == (3, "", "error: realized states: need 60, cap 10\n")
        code, out, _ = run_cli([*argv, "--state-cap", "60"])
        assert code == 0 and out


@pytest.mark.parametrize(
    "dn, size, digest",
    [
        ("2 3 --realize", 311176, "0da160b9d54c6dead7088facc4925a2341d5438adcf09b30c7c32df7dc85edc5"),
        ("2 3", 137160, "a71f9f17d9885757753667a4dd879bb3f376f695c9d9e752233dd469b1836fac"),
        ("3 2 --realize", 137529, "21ada83b0e3a562d54aeee69afa5425ec051227e37fe44c2f56dddd9587a4662"),
    ],
)
def test_enumerate_states_stream_is_pinned(tmp_path, dn, size, digest):
    # Recorded when the whole stream was joined into one string before it was written; --output holds the same.
    d, n, *realize = dn.split()
    argv = ["--d", d, "--n", n, *realize]
    code, out, _ = run_cli(["enumerate", "states", *argv])
    assert code == 0 and len(out.encode()) == size
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    path = tmp_path / "states.jsonl"
    assert run_cli(["enumerate", "states", *argv, "--output", str(path)]) == (0, "", "")
    assert path.read_bytes() == out.encode()


@pytest.mark.parametrize("realize", [["--realize"], []])
def test_enumerate_states_streams_within_the_budget(tmp_path, realize):
    # Each line is written as it is made. Gathering every line first peaked at 3.35 MB with --realize and
    # 1.35 MB without at (2, 3), against a stream of 311,176 and 137,160 bytes.
    argv = ["enumerate", "states", "--d", "2", "--n", "3", *realize, "--output", str(tmp_path / "states.jsonl")]
    assert main(argv) == 0  # first-call caches stay out of the measurement
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and peak < _WORK_BYTES


def test_cap_errors_leave_no_output_file(tmp_path):
    # Each cap is checked when the command calls the library, before the output file is opened.
    path = tmp_path / "out.jsonl"
    for argv, err in (
        (["states", "--d", "2", "--n", "2", "--realize", "--state-cap", "10"], "realized states: need 60, cap 10"),
        (["states", "--d", "2", "--n", "2", "--realize", "--matrix-cap", "3"], "matrix dimension: need 4, cap 3"),
        (["states", "--d", "2", "--n", "2", "--state-cap", "10"], "states: need 60, cap 10"),
        (["lagrangians", "--d", "2", "--n", "2", "--enum-cap", "3"], "Lagrangians: need 15, cap 3"),
    ):
        assert run_cli(["enumerate", *argv, "--output", str(path)]) == (3, "", f"error: {err}\n")
        assert not path.exists()


def test_enumerate_spectrum():
    code, out, _ = run_cli(["enumerate", "spectrum", "--d", "2", "--n", "2", "--format", "csv"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [(r["k"], r["count"], r["match"]) for r in rows] == [
        ("0", "8", "true"),
        ("1", "6", "true"),
        ("2", "1", "true"),
    ]


def test_format_is_a_usage_error_outside_the_spectrum():
    for what in ("lagrangians", "states"):
        for fmt in ("table", "csv", "json"):
            code, out, err = run_cli(["enumerate", what, "--d", "2", "--n", "1", "--format", fmt])
            assert code == 2 and out == ""
            assert err.endswith(f"error: unrecognized arguments: --format {fmt}\n")
    # The spectrum's default format stays the table.
    spectrum = ["enumerate", "spectrum", "--d", "2", "--n", "2"]
    default = run_cli(spectrum)
    assert default == run_cli([*spectrum, "--format", "table"])
    assert default[1].splitlines()[0].split() == ["k", "count", "formula", "match"]


def test_realize_is_a_usage_error_outside_states():
    for what in ("lagrangians", "spectrum"):
        code, out, err = run_cli(["enumerate", what, "--d", "2", "--n", "1", "--realize"])
        assert (code, out) == (2, "")
        assert err.endswith("error: unrecognized arguments: --realize\n")


@pytest.mark.parametrize(
    "argv, flags",
    [
        (["frame-potential", "--d", "2", "--n", "1", "--t", "1", "--method", "fixed-state"], ["--enum-cap"]),
        (["enumerate", "lagrangians", "--d", "2", "--n", "1"], ["--state-cap", "--pair-cap", "--matrix-cap"]),
        (["enumerate", "spectrum", "--d", "2", "--n", "1"], ["--state-cap", "--pair-cap", "--matrix-cap"]),
        (["enumerate", "states", "--d", "2", "--n", "1", "--realize"], ["--enum-cap", "--pair-cap"]),
    ],
)
def test_caps_a_command_does_not_read_are_usage_errors(argv, flags):
    # A cap of 0 would refuse any work it bounded, so exit 2 shows the flag is not silently ignored.
    for flag in flags:
        code, out, err = run_cli([*argv, flag, "0"])
        assert (code, out) == (2, "")
        assert err.endswith(f"error: unrecognized arguments: {flag} 0\n")


class _ReadRecorder:
    """Stands in for a parsed namespace and records which attributes a command reads."""

    def __init__(self, values):
        self.values = values
        self.read = set()

    def __getattr__(self, name):
        self.read.add(name)
        return self.values[name]


@pytest.mark.parametrize(
    "argv",
    [
        # --method all runs the brute-force engine at n = 1 and the fixed-state engine at n = 2.
        ["frame-potential", "--d", "2", "--n", "1..2", "--t", "1..2", "--method", "all", "--format", "csv",
         "--state-cap", "100", "--pair-cap", "1000", "--matrix-cap", "4"],
        ["frame-potential", "--d", "2", "--n", "1", "--t", "1", "--method", "bruteforce", "--format", "csv",
         "--state-cap", "6", "--pair-cap", "36", "--matrix-cap", "2"],
        ["enumerate", "lagrangians", "--d", "2", "--n", "2", "--enum-cap", "15"],
        ["enumerate", "states", "--d", "2", "--n", "1", "--realize", "--state-cap", "6", "--matrix-cap", "2"],
        ["enumerate", "spectrum", "--d", "2", "--n", "2", "--format", "csv", "--enum-cap", "15"],
        ["verify", "--d", "2", "--n", "1", "--t-max", "2", "--enum-cap", "3", "--state-cap", "6",
         "--pair-cap", "36", "--matrix-cap", "2"],
    ],
)
def test_every_declared_option_is_read(argv, tmp_path):
    argv = [*argv, "--output", str(tmp_path / "out"), "--threads", "2"]
    args = build_parser().parse_args(argv)
    declared = set(vars(args)) - {"command", "what", "func"}
    assert {"--" + name.replace("_", "-") for name in declared} <= set(argv), "the argv sets every declared option"
    recorder = _ReadRecorder(vars(args))
    assert args.func(recorder) == 0
    # --threads alone is accepted for compatibility and read by nothing.
    assert declared - recorder.read == {"threads"}


def test_verify_passes():
    code, out, _ = run_cli(["verify", "--d", "2", "--n", "1", "--t-max", "4"])
    assert code == 0
    assert "result: PASS" in out
    assert "FAIL" not in out


def test_verify_rejects_nonprime():
    code, _, err = run_cli(["verify", "--d", "4", "--n", "1"])
    assert code == 2
    assert "must be prime" in err


def test_verify_resource_cap():
    code, _, err = run_cli(["verify", "--d", "2", "--n", "9"])
    assert code == 3
    assert "cap" in err


def _refuse(name):
    def refused(*args, **kwargs):
        raise AssertionError(f"{name} ran before the cap pre-check")

    return refused


def test_verify_cap_precheck_runs_before_enumeration(monkeypatch):
    for module in ("stabkit.cli", "stabkit.symplectic", "stabkit.stabilizer"):
        monkeypatch.setattr(f"{module}.enumerate_lagrangians", _refuse("enumerate_lagrangians"))
    with pytest.raises(ResourceCapError):
        run_verification(2, 5, 4)


def test_verify_refuses_a_bad_t_max_before_any_work(monkeypatch):
    # 2.5 ran every state check and then raised TypeError from range; True ran as t_max = 1.
    monkeypatch.setattr("stabkit.cli.enumerate_lagrangians", _refuse("enumerate_lagrangians"))
    for bad in (2.5, 2.0, True, 0):
        with pytest.raises(ValueError, match=re.escape(f"t_max must be a positive int, got {bad!r}")):
            run_verification(2, 1, bad)


def _record_caps(monkeypatch):
    """Every check_cap call as (what, need), wrapped where each module looks it up, and each Lagrangian scan."""
    calls, scans = [], []
    real_check = importlib.import_module("stabkit.errors").check_cap
    real_scan = importlib.import_module("stabkit.symplectic")._iter_lagrangians

    def check_cap(what, need, cap):
        calls.append((what, need))
        real_check(what, need, cap)

    def scan(d, n):
        scans.append((d, n))
        return real_scan(d, n)

    for module in ("cli", "potential", "stabilizer", "symplectic", "weyl"):
        monkeypatch.setattr(importlib.import_module(f"stabkit.{module}"), "check_cap", check_cap)
    monkeypatch.setattr("stabkit.symplectic._iter_lagrangians", scan)
    return calls, scans


def test_each_entry_point_checks_each_cap_once(monkeypatch):
    calls, scans = _record_caps(monkeypatch)
    stabilizer.stabilizer_basis(from_rows([(1, 0, 0, 0), (0, 1, 0, 0)], d=2, width=4))
    assert (calls, scans) == ([("matrix dimension", 4)], [])
    # Each whole-(d, n) realization checks its caps first, then scans the Lagrangians once.
    for entry_point in (stabilizer.realized_states, stabilizer.state_vectors, stabilizer.state_blocks):
        calls.clear()
        scans.clear()
        entry_point(2, 2)
        assert calls == [("realized states", 60), ("matrix dimension", 4), ("Lagrangians", 15)], entry_point
        assert scans == [(2, 2)], entry_point
    calls.clear()
    scans.clear()
    run_verification(2, 2, 4)
    # Once for the Weyl operators (zx_monomials) and once for the states (state_vectors).
    assert [call for call in calls if call[0] == "matrix dimension"] == [("matrix dimension", 4)] * 2
    # Two scans: one for the list and the spectrum, checked against --enum-cap, and one inside state_vectors,
    # checked against DEFAULT_ENUM_CAP; the state pre-check bounds both.
    assert [call for call in calls if call[0] == "Lagrangians"] == [("Lagrangians", 15)] * 2
    assert scans == [(2, 2), (2, 2)]
    calls.clear()
    scans.clear()
    assert run_cli(["enumerate", "spectrum", "--d", "2", "--n", "2"])[0] == 0
    assert (calls, scans) == ([("Lagrangians", 15)], [(2, 2)])


def _refuse_realization(monkeypatch):
    # The work itself, not the entry points, which hold the cap checks.
    for target in (
        "stabkit.stabilizer._state_blocks",
        "stabkit.stabilizer._block",
        "stabkit.stabilizer._fill",
        "stabkit.stabilizer._stacked_tables",
        "stabkit.stabilizer._overlaps",
    ):
        monkeypatch.setattr(target, _refuse(target))


def test_bruteforce_pair_cap_precheck_runs_before_realization(monkeypatch):
    _refuse_realization(monkeypatch)
    code, out, err = run_cli(["frame-potential", "--d", "2", "--n", "5", "--t", "2", "--method", "bruteforce"])
    assert code == 3 and out == ""
    assert "brute-force state pairs: need 5873449190400" in err


def test_fixed_state_state_cap_precheck_runs_before_realization(monkeypatch):
    _refuse_realization(monkeypatch)
    argv = ["frame-potential", "--d", "2", "--n", "4", "--t", "2", "--method", "fixed-state", "--state-cap", "100"]
    assert run_cli(argv) == (3, "", "error: realized states: need 36720, cap 100\n")


def test_fixed_state_engine_never_builds_the_stack(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("the fixed-state engine built the (S, d^n) stack")

    for target in ("stabkit.stabilizer.state_vectors", "stabkit.potential.state_vectors"):
        monkeypatch.setattr(target, refused)
    argv = ["frame-potential", "--d", "2", "--n", "4", "--t", "1..5", "--method", "fixed-state", "--format", "csv"]
    code, out, err = run_cli(argv)
    assert (code, err) == (0, "")
    # The bytes this column had when the engine read the overlaps off the whole stack.
    assert [row["bruteforce"] for row in csv.DictReader(io.StringIO(out))] == [
        "0.0625",
        "0.007352941176470586",
        "0.001225490196078431",
        "0.00030637254901960773",
        "0.0001148897058823529",
    ]


def test_numeric_engines_build_no_state_or_phase_vector_objects(monkeypatch):
    # The numeric columns read arrays of realized vectors; only Subspace objects come out of enumeration.
    built = {}
    for module_name in ("stabkit.stabilizer", "stabkit.symplectic"):
        module = importlib.import_module(module_name)

        def counted(cls, *fields, real=module._trusted):
            built[cls.__name__] = built.get(cls.__name__, 0) + 1
            return real(cls, *fields)

        monkeypatch.setattr(module, "_trusted", counted)
    for method in ("fixed-state", "bruteforce"):
        built.clear()
        code, out, _ = run_cli(["frame-potential", "--d", "3", "--n", "1..2", "--t", "1..3", "--method", method])
        assert code == 0 and out
        assert built == {"Subspace": 4 + 40}


def test_verify_builds_each_weyl_matrix_once(monkeypatch):
    # The package's `weyl` attribute is the function, so the module comes from importlib.
    weyl_module = importlib.import_module("stabkit.weyl")
    built = []
    real_zx = weyl_module._zx_monomial

    def zx(d, p, q):
        built.append((tuple(p), tuple(q)))
        return real_zx(d, p, q)

    monkeypatch.setattr(weyl_module, "_zx_monomial", zx)
    checks = run_verification(2, 2, 4)
    assert all(c.passed for c in checks)
    assert len(built) == len(set(built)) == 2 ** 4


def test_verify_builds_no_dense_weyl_matrix(monkeypatch):
    # The relation and eigenvalue checks read the monomial form by gathers; only the acceptance API scatters it.
    monkeypatch.setattr(importlib.import_module("stabkit.weyl"), "_scatter", _refuse("weyl._scatter"))
    assert all(c.passed for c in run_verification(2, 2, 4))


def test_verify_builds_one_phase_table_per_lagrangian(monkeypatch):
    # The stacked tables serve the eigenvalue check and the overlap rule; realization reads _block's tables instead.
    stabilizer_module = importlib.import_module("stabkit.stabilizer")
    built = []
    real_tables = stabilizer_module._stacked_tables

    def tables(m_subs):
        built.extend(m_subs)
        return real_tables(m_subs)

    monkeypatch.setattr(stabilizer_module, "_stacked_tables", tables)
    checks = run_verification(2, 2, 4)
    assert all(c.passed for c in checks)
    assert len(built) == len(set(built)) == 15


def test_verify_runs_the_overlap_rule_once_per_lagrangian(monkeypatch):
    # One batched key match per M against every N >= M, not one call per Lagrangian pair (120 at (2, 2)). Realization
    # runs the rule first, once per block against M_0, and every Lagrangian of (2, 2) is in one block.
    stabilizer_module = importlib.import_module("stabkit.stabilizer")
    calls = []
    real_overlaps = stabilizer_module._overlaps

    def overlaps(d, n, points, keys, their_points, their_keys):
        calls.append(len(their_points))
        return real_overlaps(d, n, points, keys, their_points, their_keys)

    monkeypatch.setattr(stabilizer_module, "_overlaps", overlaps)
    checks = run_verification(2, 2, 4)
    assert all(c.passed for c in checks)
    assert calls == [15, *range(15, 0, -1)]


def test_verify_reports_an_exact_engine_disagreement_as_a_failed_check(monkeypatch):
    real_recursion = potential.frame_potential_recursion

    def off_at_3(d, n, t):
        return real_recursion(d, n, t) * (2 if t == 3 else 1)

    monkeypatch.setattr(potential, "frame_potential_recursion", off_at_3)
    code, out, err = run_cli(["verify", "--d", "2", "--n", "2"])
    assert (code, err) == (1, "")
    assert "  engines-exact            FAIL  t=1..4 recursion == combinatorial\n" in out
    assert "  welch-pattern            PASS  designs: t=1:yes t=2:yes t=3:yes t=4:no\n" in out
    assert out.endswith("result: FAIL (11/12 checks)\n")


def test_verify_state_checks_fail_on_one_flipped_amplitude(monkeypatch):
    # Negate one amplitude of one state with two or more nonzero amplitudes: the
    # batched eigenvalue and overlap checks must both see it.
    real_state_vectors = stabilizer.state_vectors

    for d, n in [(2, 2), (3, 1)]:
        flipped = []

        def state_vectors(*args, **kwargs):
            vecs = real_state_vectors(*args, **kwargs)
            row = next(i for i, vec in enumerate(vecs) if np.count_nonzero(vec) > 1)
            vecs[row, np.flatnonzero(vecs[row])[-1]] *= -1
            flipped.append(row)
            return vecs

        monkeypatch.setattr(stabilizer, "state_vectors", state_vectors)
        passed = {c.name: c.passed for c in run_verification(d, n, 4)}
        assert len(flipped) == 1
        assert not passed["state-eigenvalue"]
        assert not passed["overlap-exact-numeric"]
        assert passed["lagrangian-count"] and passed["engines-exact"]


# The full verify output of the per-pair implementation, floats included: the
# batched checks must reproduce it to the byte.
VERIFY_D2N2 = """\
verify d=2 n=2 t-max=4
  lagrangian-count         PASS  enumerated 15, formula 15
  kappa-spectrum           PASS  k=0:8 k=1:6 k=2:1
  transversal-count        PASS  enumerated 8, formula 8
  weyl-composition         PASS  256 pairs
  weyl-commutation         PASS  256 pairs
  weyl-trace               PASS  16 operators, max dev 0.00e+00
  state-eigenvalue         PASS  60 states, max residual 0.00e+00
  basis-gram               PASS  15 bases, max dev 2.22e-16
  overlap-exact-numeric    PASS  3600 pairs, max dev 4.44e-16
  engines-exact            PASS  t=1..4 recursion == combinatorial
  engines-numeric          PASS  bruteforce and fixed-state, max dev 4.16e-17
  welch-pattern            PASS  designs: t=1:yes t=2:yes t=3:yes t=4:no
result: PASS (12/12 checks)
"""
VERIFY_D3N2 = """\
verify d=3 n=2 t-max=4
  lagrangian-count         PASS  enumerated 40, formula 40
  kappa-spectrum           PASS  k=0:27 k=1:12 k=2:1
  transversal-count        PASS  enumerated 27, formula 27
  weyl-composition         PASS  6561 pairs
  weyl-commutation         PASS  6561 pairs
  weyl-trace               PASS  81 operators, max dev 1.20e-15
  state-eigenvalue         PASS  360 states, max residual 1.55e-15
  basis-gram               PASS  40 bases, max dev 4.44e-16
  overlap-exact-numeric    PASS  129600 pairs, max dev 8.88e-16
  engines-exact            PASS  t=1..4 recursion == combinatorial
  engines-numeric          PASS  bruteforce and fixed-state, max dev 4.16e-17
  welch-pattern            PASS  designs: t=1:yes t=2:yes t=3:no t=4:no
result: PASS (12/12 checks)
"""


def test_verify_output_is_pinned_to_the_byte():
    assert run_cli(["verify", "--d", "2", "--n", "2"]) == (0, VERIFY_D2N2, "")
    assert run_cli(["verify", "--d", "3", "--n", "2"]) == (0, VERIFY_D3N2, "")


def test_verify_matrix_cap_exits_3(monkeypatch):
    code, out, err = run_cli(["verify", "--d", "2", "--n", "3", "--matrix-cap", "4"])
    assert code == 3 and out == ""
    assert "matrix dimension" in err
    # Realization checks the matrix cap once, before it enumerates any Lagrangian.
    monkeypatch.setattr("stabkit.stabilizer.enumerate_lagrangians", _refuse("enumerate_lagrangians"))
    for argv, need, cap in [
        (["frame-potential", "--d", "2", "--n", "3", "--t", "1", "--method", "fixed-state", "--matrix-cap", "4"], 8, 4),
        (["frame-potential", "--d", "2", "--n", "3", "--t", "1", "--method", "bruteforce", "--matrix-cap", "4"], 8, 4),
        (["enumerate", "states", "--d", "2", "--n", "2", "--realize", "--matrix-cap", "2"], 4, 2),
    ]:
        assert run_cli(argv) == (3, "", f"error: matrix dimension: need {need}, cap {cap}\n")


def test_verify_output_unchanged_under_optimize_flag():
    # Invariants must not rest on assert, which -O strips.
    env = source_env()
    argv = ["-m", "stabkit", "verify", "--d", "2", "--n", "2", "--t-max", "4"]
    plain = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, timeout=120)
    optimized = subprocess.run([sys.executable, "-O", *argv], env=env, capture_output=True, text=True, timeout=120)
    assert plain.returncode == 0 and optimized.returncode == 0
    assert "result: PASS" in plain.stdout
    assert optimized.stdout == plain.stdout


def test_usage_errors_exit_2():
    code, _, _ = run_cli(["frame-potential", "--d", "2", "--n", "3..1", "--t", "2"])
    assert code == 2
    code, _, _ = run_cli(["frame-potential", "--d", "2", "--n", "x", "--t", "2"])
    assert code == 2
    code, _, _ = run_cli(["enumerate", "nonsense", "--d", "2", "--n", "1"])
    assert code == 2
    # --threads below 1 is a usage error for every subcommand and engine.
    for argv in (
        ["frame-potential", "--d", "2", "--n", "1", "--t", "2", "--method", "exact"],
        ["frame-potential", "--d", "2", "--n", "1", "--t", "2", "--method", "bruteforce"],
        ["enumerate", "lagrangians", "--d", "2", "--n", "1"],
        ["verify", "--d", "2", "--n", "1"],
    ):
        for threads in ("0", "-1", "x"):
            code, out, err = run_cli([*argv, "--threads", threads])
            assert code == 2 and out == "" and "--threads" in err
    # Caps take non-negative integers; a cap of 0 is valid and refuses any work.
    for flag in ("--enum-cap", "--state-cap", "--pair-cap", "--matrix-cap"):
        for value in ("-5", "x"):
            code, out, err = run_cli(["verify", "--d", "2", "--n", "1", flag, value])
            assert code == 2 and out == "" and flag in err
    code, out, err = run_cli(["enumerate", "lagrangians", "--d", "2", "--n", "1", "--enum-cap", "0"])
    assert (code, out, err) == (3, "", "error: Lagrangians: need 3, cap 0\n")


def test_a_large_prime_d_is_decided_at_once():
    # Trial division up to sqrt(d) had not finished after 20 s for this prime; its Lagrangian count is d + 1.
    start = time.perf_counter()
    code, out, err = run_cli(["enumerate", "lagrangians", "--d", "1000000000000000003", "--n", "1"])
    assert (code, out, err) == (3, "", "error: Lagrangians: need 1000000000000000004, cap 10000000\n")
    assert time.perf_counter() - start < 5


def test_output_write_failure_is_a_usage_error(tmp_path):
    target = tmp_path / "missing" / "x"
    code, out, err = run_cli(["verify", "--d", "2", "--n", "1", "--output", str(target)])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(target) in err and "Traceback" not in err
    assert not target.exists()


def test_other_os_errors_are_not_usage_errors(monkeypatch):
    # Only the --output write maps OSError to exit 2; a broken stdout pipe stays an OSError.
    def broken(args):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr("stabkit.cli.cmd_verify", broken)
    with pytest.raises(BrokenPipeError):
        main(["verify", "--d", "2", "--n", "1"])


def test_a_closed_stdout_ends_the_stream_quietly():
    # A reader that stops after one line, as `| head -1` does: the process entry exits 141 (128 + SIGPIPE) and
    # writes nothing to stderr. Both streams are larger than a pipe's buffer, so the writer meets the closed end.
    for argv in (["lagrangians", "--d", "2", "--n", "4"], ["states", "--d", "2", "--n", "3", "--realize"]):
        command = [sys.executable, "-m", "stabkit", "enumerate", *argv]
        with subprocess.Popen(command, env=source_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.readline().startswith(b'{"d":2')
            proc.stdout.close()
            assert (proc.stderr.read(), proc.wait(timeout=120)) == (b"", 141)


def test_output_file_matches_stdout(tmp_path):
    args = ["enumerate", "spectrum", "--d", "2", "--n", "2", "--format", "csv"]
    _, stdout_text, _ = run_cli(args)
    path = tmp_path / "spectrum.csv"
    code, piped, _ = run_cli(args + ["--output", str(path)])
    assert code == 0 and piped == ""
    assert path.read_text() == stdout_text


def test_seed_flag_is_a_usage_error():
    # No command is random, so none declares --seed.
    for argv in (
        ["frame-potential", "--d", "2", "--n", "1", "--t", "2", "--format", "csv"],
        ["enumerate", "lagrangians", "--d", "2", "--n", "1"],
        ["enumerate", "states", "--d", "2", "--n", "1"],
        ["enumerate", "spectrum", "--d", "2", "--n", "1"],
        ["verify", "--d", "2", "--n", "1"],
    ):
        code, out, err = run_cli([*argv, "--seed", "7"])
        assert (code, out) == (2, "")
        assert err.endswith("error: unrecognized arguments: --seed 7\n")


def test_thread_count_does_not_change_output():
    one = run_cli(["verify", "--d", "2", "--n", "1", "--t-max", "4", "--threads", "1"])
    two = run_cli(["verify", "--d", "2", "--n", "1", "--t-max", "4", "--threads", "2"])
    assert one == two


def test_threads_env_var_fallback(monkeypatch):
    # STABKIT_THREADS is no longer read: any value, even a malformed one, changes nothing.
    monkeypatch.delenv("STABKIT_THREADS", raising=False)
    env_run = run_cli(["verify", "--d", "2", "--n", "1", "--t-max", "2"])
    assert env_run[0] == 0
    for value in ("2", "x"):
        monkeypatch.setenv("STABKIT_THREADS", value)
        assert run_cli(["verify", "--d", "2", "--n", "1", "--t-max", "2"]) == env_run
