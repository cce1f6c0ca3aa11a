"""stabkit benchmark: fresh CLI processes, gated outputs, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from anywhere; the checkout measured is the one this file lives in, and
``src/`` of that checkout is put on ``PYTHONPATH`` (stabkit is not installed).

Load model: one harness process, a closed loop with one client per workload.
The next ``python -m stabkit`` process starts only after the previous one has
exited, and starts only if the workload's time already spent plus the last
invocation's wall time fits in ``--seconds``; the first always runs.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: the median
wall time and peak RSS of the passing invocations, and ``setup_s``, the
median spawn-to-exit time of a fresh interpreter that imports ``stabkit.cli``
and builds its parser, taken after one untimed warm-up that fills the
bytecode caches. ``--trace 1`` runs the workload once plainly and once under
``tracer.py``, and reports the per-layer metrics.

The inputs are fixed ``(d, n)`` enumerations and stabkit ignores its own
``--seed``. ``--seed`` only shuffles the order in which setup probes and
invocations (of several workloads, with ``all``) interleave, which
decorrelates them from machine drift.

Every invocation's stdout goes through ``gate.py``; a non-zero exit, a
timeout or a failed gate counts as a failed attempt. The gate is itself
self-tested on the first passing output of each workload. The last stdout
line is one JSON object; a human summary goes to stderr, and a full record
(samples, quartiles, environment) to ``.perfbench/results/``. Compare two
records with ``compare.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import gate
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

THREADS = 2
WORKLOADS = {
    "verify-d2n3": ["verify", "--d", "2", "--n", "3", "--t-max", "4", "--threads", str(THREADS)],
    "enum-d2n4": ["enumerate", "lagrangians", "--d", "2", "--n", "4"],
    "fp-d3n3": [
        "frame-potential", "--d", "3", "--n", "1..3", "--t", "1..4",
        "--method", "all", "--format", "csv", "--threads", str(THREADS),
    ],
}
SETUP_CODE = "import stabkit.cli; stabkit.cli.build_parser()"
WARMUP_CODE = SETUP_CODE + "; import numpy; print(numpy.__version__)"
SETUP_PROBES = 7
# Every run must end within 180 s; leave room for reporting.
RUN_BUDGET_S = 165.0


class BenchmarkError(Exception):
    """The benchmark cannot produce a result (missing program, broken gate)."""


@dataclass
class Invocation:
    wall_s: float
    peak_rss_mb: float
    returncode: int | None
    stdout: bytes
    problems: list[str] = field(default_factory=list)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def src_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


class Harness:
    """Spawns the program under test, one child at a time, inside the run's time budget."""

    def __init__(self) -> None:
        src = ROOT / "src"
        if not (src / "stabkit" / "cli.py").is_file():
            raise BenchmarkError(f"no stabkit source under {src}")
        self.src = src
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.env.pop("STABKIT_THREADS", None)
        self.deadline = time.monotonic() + RUN_BUDGET_S
        (WORK / "work").mkdir(parents=True, exist_ok=True)
        self._serial = 0

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def spawn(self, cmd: list[str]) -> Invocation:
        self._serial += 1
        out_path = WORK / "work" / f"{self._serial}.out"
        err_path = WORK / "work" / f"{self._serial}.err"
        timed_out = threading.Event()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT)

            def kill() -> None:
                timed_out.set()
                proc.kill()

            timer = threading.Timer(max(self.remaining(), 1.0), kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_bytes()
        inv = Invocation(wall, usage.ru_maxrss / 1024.0, None if timed_out.is_set() else proc.returncode, stdout)
        if inv.returncode != 0:
            tail = err_path.read_text(errors="replace").strip().splitlines()[-3:]
            inv.problems.append(f"stderr: {' | '.join(tail)}")
        out_path.unlink()
        err_path.unlink()
        return inv

    def python(self, code: str) -> Invocation:
        inv = self.spawn([sys.executable, "-c", code])
        if inv.returncode != 0:
            raise BenchmarkError(f"setup probe failed: {inv.problems}")
        return inv

    def invoke(self, workload: str, traced_spans: Path | None = None) -> Invocation:
        argv = WORKLOADS[workload]
        if traced_spans is None:
            cmd = [sys.executable, "-m", "stabkit", *argv]
        else:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(traced_spans), "--", *argv]
        inv = self.spawn(cmd)
        inv.problems[:0] = gate.check(workload, inv.returncode, inv.stdout)
        return inv


def _gated(workload: str, inv: Invocation, self_tested: set[str]) -> None:
    """Report a failed attempt; self-test the gate on the first passing output."""
    if inv.problems:
        print(f"[{workload}] FAILED: {'; '.join(inv.problems)}", file=sys.stderr)
    elif workload not in self_tested:
        missed = gate.self_test(workload, inv.stdout)
        if missed:
            raise BenchmarkError(f"gate for {workload} accepted mutants: {', '.join(missed)}")
        self_tested.add(workload)


def measure_end_to_end(h: Harness, workloads: list[str], seconds: float, rng: random.Random) -> dict:
    samples: dict[str, list[Invocation]] = {w: [] for w in workloads}
    setup: list[float] = []
    self_tested: set[str] = set()

    def fits(w: str) -> bool:
        runs = samples[w]
        if not runs:
            return True
        last = runs[-1].wall_s
        return sum(r.wall_s for r in runs) + last <= seconds and last * 1.2 < h.remaining()

    while True:
        choices = [w for w in workloads if fits(w)]
        if len(setup) < SETUP_PROBES:
            choices.append("setup")
        if not choices:
            break
        pick = rng.choice(choices)
        if pick == "setup":
            setup.append(h.python(SETUP_CODE).wall_s)
            continue
        inv = h.invoke(pick)
        _gated(pick, inv, self_tested)
        samples[pick].append(inv)
        if inv.returncode is None:
            break
    return {"samples": samples, "setup_s": setup}


def end_to_end_metrics(result: dict) -> tuple[dict, dict]:
    """Metrics per workload, plus the samples and quartiles behind them."""
    metrics, detail = {}, {}
    setup_q = quartiles(result["setup_s"])
    for w, runs in result["samples"].items():
        passing = [r for r in runs if not r.problems] or runs
        wall = [r.wall_s for r in passing]
        rss = [r.peak_rss_mb for r in passing]
        wall_q, rss_q = quartiles(wall), quartiles(rss)
        failed = sum(1 for r in runs if r.problems)
        metrics[w] = {"wall_s": wall_q[1], "peak_rss_mb": rss_q[1], "setup_s": setup_q[1]}
        detail[w] = {
            "attempted": len(runs),
            "failed": failed,
            "fail_frac": failed / len(runs),
            "wall_s": {"samples": wall, "q1_median_q3": wall_q},
            "peak_rss_mb": {"samples": rss, "q1_median_q3": rss_q},
            "setup_s": {"samples": result["setup_s"], "q1_median_q3": setup_q},
            "problems": [r.problems for r in runs if r.problems],
        }
    return metrics, detail


def measure_traced(h: Harness, workloads: list[str], rng: random.Random) -> tuple[dict, dict]:
    metrics, detail = {}, {}
    self_tested: set[str] = set()
    for w in rng.sample(workloads, len(workloads)):
        spans_path = WORK / "work" / f"spans-{w}.json"
        spans_path.unlink(missing_ok=True)
        order = ["plain", "traced"]
        rng.shuffle(order)
        runs = {}
        for kind in order:
            inv = h.invoke(w, spans_path if kind == "traced" else None)
            _gated(w, inv, self_tested)
            runs[kind] = inv
        plain, traced = runs["plain"], runs["traced"]
        if not spans_path.exists():
            raise BenchmarkError(f"traced {w} wrote no spans: {traced.problems}")
        trace = json.loads(spans_path.read_text())
        spans_path.unlink()
        values = tracer.summarize(trace)
        values["cli.output_bytes"] = len(traced.stdout)
        values["trace.wall_s"] = traced.wall_s
        values["trace.overhead_s"] = traced.wall_s - plain.wall_s
        metrics[w] = values
        failed = sum(1 for r in runs.values() if r.problems)
        detail[w] = {
            "attempted": len(runs),
            "failed": failed,
            "fail_frac": failed / len(runs),
            "untraced_wall_s": plain.wall_s,
            "main_s": trace["main_s"],
            "missing_entry_points": trace["missing"],
            "problems": [r.problems for r in runs.values() if r.problems],
        }
    return metrics, detail


def environment(h: Harness) -> dict:
    """What results depend on; its probe is also the untimed warm-up that fills bytecode caches."""
    numpy_version = h.python(WARMUP_CODE).stdout.decode().strip()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "threads": THREADS,
        "machine": platform.machine(),
        "system": platform.system(),
    }


def declared_metrics(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _report(metrics: dict, detail: dict, units: dict[str, str], trace: int) -> None:
    for w, values in metrics.items():
        d = detail[w]
        print(f"== {w}: attempted {d['attempted']}, failed {d['failed']}, fail_frac {d['fail_frac']:.3f}", file=sys.stderr)
        for name in units:
            value = values[name]
            line = f"  {name:<44} {value:>14.6g} {units[name]}"
            if not trace:
                q1, _, q3 = d[name]["q1_median_q3"]
                line += f"  (median of {len(d[name]['samples'])}, q1 {q1:.6g}, q3 {q3:.6g})"
            elif name.endswith(".self_s"):
                line += f"  ({100 * value / d['main_s']:.1f}% of traced main)"
            print(line, file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True, help="shuffles the interleaving order only")
    parser.add_argument("--seconds", type=float, required=True, help="time budget per workload")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        units = declared_metrics(args.trace)
        h = Harness()
        env = environment(h)
        rng = random.Random(args.seed)
        workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
        if args.trace:
            metrics, detail = measure_traced(h, workloads, rng)
        else:
            metrics, detail = end_to_end_metrics(measure_end_to_end(h, workloads, args.seconds, rng))
        for w, values in metrics.items():
            if set(units) - set(values):
                raise BenchmarkError(f"{w}: no value for {sorted(set(units) - set(values))}")
    except (BenchmarkError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    _report(metrics, detail, units, args.trace)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "identity": {"git_commit": git_commit(ROOT), "src_sha256": src_digest(h.src)},
        "argv": {w: WORKLOADS[w] for w in workloads},
        "metrics": metrics,
        "detail": detail,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    (results / f"{stamp}-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )

    def named(w: str, name: str) -> str:
        return name if len(workloads) == 1 else f"{w}.{name}"

    attempted = sum(d["attempted"] for d in detail.values())
    failed = sum(d["failed"] for d in detail.values())
    out = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            named(w, name): {"value": values[name], "unit": unit}
            for w, values in metrics.items()
            for name, unit in units.items()
        },
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
