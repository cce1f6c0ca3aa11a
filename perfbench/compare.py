"""Compare two benchmark records written by run.py.

    python3 perfbench/compare.py BASE.json NEW.json

Refuses (exit 2) when the records were taken in different environments
(Python, numpy, CPU count, thread count, platform), in different trace
modes, or with different argv for a workload they share, because their
numbers are not comparable. Otherwise prints, per shared workload and
metric, both values and the relative change, and marks an end-to-end metric
that got worse by more than its bound in BENCHMARK.json.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text()) for p in argv)
    workloads = sorted(set(base["argv"]) & set(new["argv"]))
    for key, old, cur in [
        ("environment", base["environment"], new["environment"]),
        ("trace mode", base["trace"], new["trace"]),
        *((f"argv of {w}", base["argv"][w], new["argv"][w]) for w in workloads),
    ]:
        if old != cur:
            print(f"refusing to compare: {key} differs\n  base: {old}\n  new:  {cur}", file=sys.stderr)
            return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["per_layer" if base["trace"] else "end_to_end"]}
    print(f"base {base['identity']}\nnew  {new['identity']}")
    for workload in workloads:
        for name, m in declared.items():
            old, cur = base["metrics"][workload][name], new["metrics"][workload][name]
            change = (cur - old) / old if old else 0.0
            worse = change if m["better"] == "lower" else -change
            flag = "  WORSE THAN BOUND" if "bound" in m and worse > m["bound"] else ""
            print(f"{workload:<12} {name:<44} {old:>12.6g} -> {cur:>12.6g} {m['unit']:<6} {change:+8.2%}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
