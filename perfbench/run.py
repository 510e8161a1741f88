"""The hermgrs benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 42 --trace 0

Run from the repository root.  The program is the CLI entry point
``hermgrs.cli.main``, imported from ``src`` and called in-process by a
fresh single-threaded child (``child.py``) per run; workloads and their
gates are in ``workloads.py``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:

* ``setup_s`` - seconds from the start of a child through ``import
  hermgrs`` and ``make_field`` for every field the workload uses; the
  median of eight set-up-only children and the measuring child;
* ``wall_ref_s`` - seconds to run the workload's whole case list once,
  after set-up, as a closed loop, at the host speed of the baseline: for
  each case, its time in each pass divided by the median time of the
  reference kernel (``speed.py``) in that pass; the median of that over
  the passes (at least three), summed over the cases, times the kernel's
  reference time.  A shared host runs 10-35% slower in some minutes than
  in others; the kernel runs beside the cases and cancels that.  The raw
  figure, the same sum without the kernel, goes to the result file as
  ``wall_s``;
* ``peak_rss_mb`` - the measuring child's peak resident set.

``--trace 1`` reports the per-layer metrics of BENCHMARK.json, from a run
that wraps the public functions of each package module (``tracer.py``),
and writes the spans beside the result file.

Every case is gated (exit code, output checks, reference digest and
modes); ``attempted`` and ``failed`` count case executions, and the result
file records ``fail_rate``.  The last line of standard output is the JSON
result; a result file with the machine, the seed and the case argv list
goes to ``perfbench/results/``.  Exits non-zero without a result when the
program is missing or the child fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 8
CHILD_TIMEOUT_S = 170


class ChildFailed(RuntimeError):
    pass


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: list[str]) -> tuple[dict, float]:
    """Run child.py; returns its report and its set-up time from process start."""
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *argv], cwd=ROOT, env=_child_env(),
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"child timed out after {CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"child exited {proc.returncode}: {proc.stderr[-2000:]}")
    report = json.loads(lines[-1])
    return report, report["setup_done"] - start


def main() -> int:
    ap = argparse.ArgumentParser(description="hermgrs benchmark, one run")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", default=str(HERE / "results"), help="directory for result files")
    args = ap.parse_args()

    if not (ROOT / "src" / "hermgrs" / "cli.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'hermgrs'} is missing", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    load_start = os.getloadavg()
    results = Path(args.results)
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    try:
        setups = [] if args.trace else [spawn(common + ["--setup-only"])[1] for _ in range(SETUP_PROBES)]
        extra = ["--trace", "1", "--spans", str(results / f"{stem}.spans.json")] if args.trace else []
        report, setup_s = spawn(common + extra)
    except ChildFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    setups.append(setup_s)

    if args.trace:
        layers = report["layers"]
        wanted = bench["per_layer"]
        missing = [m["name"] for m in wanted if m["name"] not in layers]
        if missing:
            print(f"the traced run did not report {missing}", file=sys.stderr)
            return 1
        values = {m["name"]: layers[m["name"]] for m in wanted}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_ref_s": wall_ref(report["case_times"], report["kernel_times"]),
            "peak_rss_mb": report["peak_rss_mb"],
        }
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    correct = report["failed"] == 0 and not report["problems"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": report["python"],
        "numpy": report["numpy"],
        "loadavg_start": load_start,
        "argv": [list(c.argv) for c in workloads.cases(args.workload, args.seed)],
        "seed_effect": args.workload not in workloads.SEED_FREE,
        "setup_samples_s": setups,
        "wall_s": None if args.trace else sum(statistics.median(t) for t in zip(*report["case_times"])),
        "kernel_median_s": None if args.trace else statistics.median(
            [k for ks in report["kernel_times"] for k in ks]),
        "pass_walls_s": report["walls"],
        "case_times_s": report["case_times"],
        "kernel_times_s": report["kernel_times"],
        "peak_rss_mb": report["peak_rss_mb"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "fail_rate": report["failed"] / report["attempted"],
        "failures": report["failures"],
        "problems": report["problems"],
        "metrics": metrics,
        "layers": report["layers"],
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.workload in workloads.SEED_FREE:
        print(f"the seed has no effect on the {args.workload} workload", file=sys.stderr)
    for line in report["failures"] + report["problems"]:
        print(f"FAILED {line}", file=sys.stderr)
    if args.trace:
        _print_layers(report["layers"])
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


def wall_ref(case_times: list[list[float]], kernel_times: list[list[float]]) -> float:
    """Pass time at the reference host speed; see the module docstring."""
    rel = [[t / statistics.median(k) for t in ts] for ts, k in zip(case_times, kernel_times)]
    return speed.REFERENCE_S * sum(statistics.median(r) for r in zip(*rel))


def _print_layers(layers: dict) -> None:
    """Each layer's share of the traced wall time, and the tracing overhead."""
    wall = layers["trace.wall_s"]
    for name in sorted((n for n in layers if n.endswith(".self_s")), key=lambda n: -layers[n]):
        if layers[name] >= 0.01 * wall:
            print(f"{name[:-7]:36s} {layers[name]:9.3f} s  {layers[name] / wall:6.1%}", file=sys.stderr)
    print(f"traced wall {wall:.3f} s, untraced {layers['trace.untraced_wall_s']:.3f} s, "
          f"overhead {layers['trace.overhead_s']:+.3f} s", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
