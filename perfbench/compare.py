"""Compare two sets of benchmark results, per workload and end-to-end metric.

    python3 perfbench/compare.py BEFORE AFTER

BEFORE and AFTER are directories of result files written by ``run.py``
(untraced runs only are read).  For each workload and each end-to-end
metric of BENCHMARK.json it prints the median and quartiles of both sets
and a verdict, using the metric's bound from BENCHMARK.json:

* unresolved - either set spreads (quartile distance over median) wider
  than the bound, and not every AFTER run beats every BEFORE run;
* regressed - the AFTER median is worse than the BEFORE median by more
  than the bound;
* improved - the AFTER median is better by more than the BEFORE quartile
  distance (or every AFTER run beats every BEFORE run);
* unchanged - otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> values, from the untraced result files."""
    out: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for path in sorted(Path(directory).glob("*.json")):
        if path.name.endswith(".spans.json"):
            continue
        record = json.loads(path.read_text(encoding="utf-8"))
        if record.get("trace") != 0:
            continue
        for name, m in record["metrics"].items():
            out[record["workload"]][name].append(m["value"])
        out[record["workload"]]["fail_rate"].append(record["fail_rate"])
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(before: list[float], after: list[float], bound: float, better: str) -> str:
    sign = 1 if better == "lower" else -1  # sign * (after - before) > 0 is worse
    b1, bm, b3 = quartiles(before)
    a1, am, a3 = quartiles(after)
    all_better = max(sign * x for x in after) < min(sign * x for x in before)
    if max((b3 - b1) / abs(bm), (a3 - a1) / abs(am)) > bound:
        return "improved" if all_better else "unresolved"
    if sign * (am - bm) > bound * abs(bm):
        return "regressed"
    if all_better or sign * (bm - am) > b3 - b1:
        return "improved"
    return "unchanged"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    before, after = load(argv[0]), load(argv[1])
    print(f"{'workload':10s} {'metric':12s} {'before q1/med/q3':>30s} {'after q1/med/q3':>30s}  n  verdict")
    for workload in sorted(set(before) | set(after)):
        if workload not in before or workload not in after:
            print(f"{workload:10s} only in {'BEFORE' if workload in before else 'AFTER'}")
            continue
        b, a = before[workload], after[workload]
        for metric in bench["end_to_end"]:
            name = metric["name"]
            fmt = lambda v: "/".join(f"{x:.4g}" for x in quartiles(v))  # noqa: E731
            print(f"{workload:10s} {name:12s} {fmt(b[name]):>30s} {fmt(a[name]):>30s} "
                  f"{len(b[name])}/{len(a[name])} {verdict(b[name], a[name], metric['bound'], metric['better'])}")
        print(f"{workload:10s} {'fail_rate':12s} {max(b['fail_rate']):>30.4g} {max(a['fail_rate']):>30.4g}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
