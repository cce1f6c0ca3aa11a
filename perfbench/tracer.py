"""Traced in-process run of one stabkit CLI invocation.

    python3 perfbench/tracer.py SPANS_JSON -- ARGV...

Installs timing wrappers around the public entry points of each stabkit
layer, where their callers look them up, then runs ``stabkit.cli.main(ARGV)``
in this process. Its stdout is the CLI's stdout. Spans are kept in memory
with parent links and written to SPANS_JSON once ``main`` returns.

Generators are timed across their consumption: each ``next()`` is a span of
its own, so only the time spent producing items is charged to them. An entry
point that no longer exists is skipped, and reads as zero calls.
``summarize`` turns the span file into the per-layer metrics; the ``cli``
layer's self time is ``main``'s wall time minus every top-level span.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterator

# (module, attribute) -> span group. Each module namespace a caller resolves
# the name in gets its own wrapper; a nested call of the same group is a
# child span, so self time never counts twice.
CALLS = {
    ("stabkit.cli", "intersect"): "symplectic.intersect",
    ("stabkit.stabilizer", "intersect"): "symplectic.intersect",
    ("stabkit.stabilizer", "basis_weyl_operator"): "weyl.basis_weyl_operator",
    ("stabkit.cli", "verify_composition"): "weyl.verify",
    ("stabkit.cli", "verify_commutation"): "weyl.verify",
    ("stabkit.cli", "weyl"): "weyl.verify",
    ("stabkit.stabilizer", "stabilizer_basis"): "stabilizer.stabilizer_basis",
    ("stabkit.stabilizer", "realized_states"): "stabilizer.realized_states",
    ("stabkit.potential", "realized_states"): "stabilizer.realized_states",
    ("stabkit.stabilizer", "_alignment_data"): "stabilizer.alignment",
    ("stabkit.potential", "frame_potential_bruteforce"): "potential.bruteforce",
    ("stabkit.potential", "frame_potential_fixed_state"): "potential.fixed_state",
    ("stabkit.potential", "frame_potential_recursion"): "potential.exact",
    ("stabkit.potential", "frame_potential_combinatorial"): "potential.exact",
    ("stabkit.potential", "frame_potential_report"): "potential.exact",
    ("stabkit.potential", "design_verdict"): "potential.exact",
}
GENERATORS = {
    ("stabkit.cli", "enumerate_lagrangians"): "symplectic.enumerate_lagrangians",
    ("stabkit.stabilizer", "enumerate_lagrangians"): "symplectic.enumerate_lagrangians",
    ("stabkit.stabilizer", "coset_representatives"): "symplectic.coset_representatives",
}
METHODS = {("stabkit.weyl", "WeylOperator", "matrix"): "weyl.matrix"}

GROUPS = sorted(set(CALLS.values()) | set(GENERATORS.values()) | set(METHODS.values()))
COUNTERS = [
    "symplectic.enumerate_lagrangians.yielded",
    "symplectic.coset_representatives.yielded",
    "weyl.matrix.bytes_computed",
    "stabilizer.states_realized",
    "potential.bruteforce.pairs",
]


class Recorder:
    """Spans as [group, parent index, start, end]; one open-span stack per thread."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        self.depth: dict[str, int] = defaultdict(int)
        self._local = threading.local()

    def open(self, group: str) -> int:
        stack = self._local.__dict__.setdefault("stack", [])
        idx = len(self.spans)
        self.spans.append([group, stack[-1] if stack else -1, time.perf_counter(), 0.0])
        stack.append(idx)
        self.depth[group] += 1
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span[3] = time.perf_counter()
        self._local.stack.pop()
        self.depth[span[0]] -= 1


class _TimedIterator:
    def __init__(self, rec: Recorder, group: str, it: Iterator) -> None:
        self._rec, self._group, self._it = rec, group, it

    def __iter__(self) -> "_TimedIterator":
        return self

    def __next__(self):
        idx = self._rec.open(self._group)
        try:
            item = next(self._it)
        finally:
            self._rec.close(idx)
        self._rec.counters[self._group + ".yielded"] += 1
        return item


def _count_result(rec: Recorder, group: str, args: tuple, kwargs: dict, result: Any) -> None:
    if group == "weyl.matrix":
        rec.counters["weyl.matrix.bytes_computed"] += getattr(result, "nbytes", 0)
    elif group == "stabilizer.realized_states":
        rec.counters["stabilizer.states_realized"] += len(result)
    elif group == "stabilizer.stabilizer_basis" and not rec.depth["stabilizer.realized_states"]:
        rec.counters["stabilizer.states_realized"] += len(result)
    elif group == "potential.bruteforce":
        vectors = kwargs.get("vectors")
        if vectors is None:
            from stabkit.combinatorics import stabilizer_count

            count = stabilizer_count(args[0], args[1])
        else:
            count = len(vectors)
        rec.counters["potential.bruteforce.pairs"] += count * count


def wrap_call(rec: Recorder, group: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(group)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        rec.calls[group] += 1
        _count_result(rec, group, args, kwargs, result)
        return result

    return wrapper


def wrap_generator(rec: Recorder, group: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(group)
        try:
            it = iter(fn(*args, **kwargs))
        finally:
            rec.close(idx)
        rec.calls[group] += 1
        return _TimedIterator(rec, group, it)

    return wrapper


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ModuleNotFoundError:
        return None


def install(rec: Recorder) -> list[str]:
    """Wrap every entry point that exists; return the ones that are missing."""
    missing = []
    for table, wrap in ((CALLS, wrap_call), (GENERATORS, wrap_generator)):
        for (module_name, attr), group in table.items():
            module = _module(module_name)
            if hasattr(module, attr):
                setattr(module, attr, wrap(rec, group, getattr(module, attr)))
            else:
                missing.append(f"{module_name}.{attr}")
    for (module_name, cls_name, attr), group in METHODS.items():
        cls = getattr(_module(module_name), cls_name, None)
        if hasattr(cls, attr):
            setattr(cls, attr, wrap_call(rec, group, getattr(cls, attr)))
        else:
            missing.append(f"{module_name}.{cls_name}.{attr}")
    return missing


def summarize(trace: dict) -> dict[str, float]:
    """Per-layer metrics from a span file: self time, calls and counters per group."""
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for group, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s = dict.fromkeys(GROUPS, 0.0)
    top_level = 0.0
    for (group, parent, start, end), inner in zip(spans, child_time):
        self_s[group] = self_s.get(group, 0.0) + (end - start) - inner
        if parent < 0:
            top_level += end - start
    out: dict[str, float] = {}
    for group in GROUPS:
        out[f"{group}.self_s"] = self_s[group]
        out[f"{group}.calls"] = trace["calls"].get(group, 0)
    for name in COUNTERS:
        out[name] = trace["counters"].get(name, 0)
    out["cli.self_s"] = trace["main_s"] - top_level
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS_JSON -- ARGV...", file=sys.stderr)
        return 2
    spans_path, cli_argv = argv[0], argv[2:]
    rec = Recorder()
    missing = install(rec)
    from stabkit import cli

    start = time.perf_counter()
    try:
        code = cli.main(cli_argv)
    finally:
        main_s = time.perf_counter() - start
        sys.stdout.flush()
        with open(spans_path, "w") as fh:
            json.dump(
                {
                    "main_s": main_s,
                    "missing": missing,
                    "calls": rec.calls,
                    "counters": rec.counters,
                    "spans": rec.spans,
                },
                fh,
                separators=(",", ":"),
            )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
