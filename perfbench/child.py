"""Benchmark child: set up, run one workload's cases in-process, gate every output.

``run.py`` starts this in a fresh single-threaded process per run, with
``src`` on ``PYTHONPATH``.  It prints one JSON report as the last line of
its standard output.  Set-up is ``import hermgrs`` plus ``make_field`` for
every field the workload uses; the report gives the monotonic clock at its
end, so the parent can time set-up from the moment it started the child.

Untraced (``--trace 0``): passes over the case list run back to back, at
least ``MIN_PASSES`` of them, and no further pass starts that would end,
at the mean pace so far, after ``--seconds``; the reference kernel of
``speed.py`` runs before the first case and after every case, and every
case's time and every kernel time is kept, so the parent can take each
case's median over the passes relative to the kernel.  Traced (``--trace 1``): set-up and two
passes run under the tracer, with one untraced pass between set-up and them
for the overhead figure; the deterministic counters of the two traced
passes must agree exactly.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

MIN_PASSES = 3


def set_up(workload: str) -> None:
    import hermgrs

    for p, h in workloads.fields(workload):
        hermgrs.make_field(p, h)


def run_pass(case_list, reference, tracer=None, phase="", calibrate=False) -> dict:
    """Run every case once; time only the CLI calls, gate outside the timing.

    ``reference`` None records digests and modes instead of checking them.
    ``calibrate`` runs the reference kernel before the first case and after
    every case.
    """
    from hermgrs import cli

    times, out_bytes, failures, records = [], 0, [], []
    kernel = [speed.kernel()] if calibrate else []
    for i, case in enumerate(case_list):
        if tracer is not None:
            tracer.case = f"{phase}/{i}"
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(case.argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            rc = None
            err.write(traceback.format_exc())
        times.append(time.perf_counter() - t0)
        if calibrate:
            kernel.append(speed.kernel())
        stdout = out.getvalue()
        file_text = None
        if case.output and rc == 0:
            file_text = Path(case.output).read_text(encoding="utf-8")
        out_bytes += len(stdout.encode()) + len((file_text or "").encode())
        problems, mode = workloads.check(case, rc, stdout, file_text, reference or {})
        if reference is None:
            problems = [p for p in problems if not p.startswith("no reference mode")]
            records.append((case, workloads.digest(stdout, file_text), mode))
        if problems:
            failures.append(f"{' '.join(case.argv)}: {'; '.join(problems)}; stderr: {err.getvalue()[-500:]}")
    return {"wall": sum(times), "times": times, "kernel": kernel, "output_bytes": out_bytes,
            "failures": failures, "records": records}


def measure(args, case_list, reference) -> dict:
    passes = []
    begin = time.perf_counter()
    while True:
        passes.append(run_pass(case_list, reference, calibrate=True))
        spent = time.perf_counter() - begin
        if len(passes) >= MIN_PASSES and spent * (len(passes) + 1) / len(passes) > args.seconds:
            break
    return {"walls": [p["wall"] for p in passes], "case_times": [p["times"] for p in passes],
            "kernel_times": [p["kernel"] for p in passes], "passes": passes}


def measure_traced(args, case_list, reference, tracer) -> dict:
    untraced = run_pass(case_list, reference)
    phases = ["pass1", "pass2"]
    tracer.install()
    try:
        traced = {}
        for phase in phases:
            tracer.begin(phase)
            traced[phase] = run_pass(case_list, reference, tracer, phase)
    finally:
        tracer.uninstall()
    counts = [tracer.phase_counters[p] for p in phases]
    walls = {p: traced[p]["wall"] for p in phases}
    layers = layer_metrics(tracer, "setup", phases, walls, untraced["wall"],
                           traced[phases[0]]["output_bytes"])
    problems = []
    if counts[0] != counts[1]:
        diff = sorted(k for k in set(counts[0]) | set(counts[1]) if counts[0][k] != counts[1][k])
        problems.append(f"deterministic counters differ between traced passes: {diff}")
    return {"walls": [untraced["wall"]], "passes": [untraced, *traced.values()],
            "layers": layers, "problems": problems}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help="set up, report, exit")
    ap.add_argument("--spans", help="where the traced run writes its spans")
    args = ap.parse_args()

    tracer = None
    if args.trace:
        import hermgrs  # noqa: F401  (the tracer wraps the imported modules)

        tracer = Tracer()
        tracer.install()
        tracer.begin("setup")
    try:
        set_up(args.workload)
    finally:
        if tracer is not None:
            tracer.uninstall()
    setup_done = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_done": setup_done}))
        return 0

    import numpy

    case_list = workloads.cases(args.workload, args.seed)
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    (HERE / "_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=HERE / "_work"))
    cwd = os.getcwd()
    try:
        os.chdir(workdir)  # construct --output writes here, verify reads from here
        Path(workloads.MALFORMED_FILE).write_text(workloads.MALFORMED_RECORD, encoding="utf-8")
        if tracer is None:
            run = measure(args, case_list, reference)
        else:
            run = measure_traced(args, case_list, reference, tracer)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [f for p in run["passes"] for f in p["failures"]]
    if args.spans and tracer is not None:
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "case"],
                       "spans": tracer.spans}, fh, separators=(",", ":"))
    report = {
        "setup_done": setup_done,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "walls": run["walls"],
        "case_times": run.get("case_times", []),
        "kernel_times": run.get("kernel_times", []),
        "attempted": len(case_list) * len(run["passes"]),
        "failed": len(failures),
        "failures": failures[:20],
        "problems": run.get("problems", []),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "layers": run.get("layers"),
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
