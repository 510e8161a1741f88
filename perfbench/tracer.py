"""Tracing from outside the package: wrap the public functions of each layer.

``Tracer.install`` replaces every public function defined in the layer
modules with a wrapper that records one span per call (name, start, end,
parent span, case id) and bumps its counters.  It patches every hermgrs
namespace that binds such a function, including the bindings made by
``from ... import``, then checks that none still holds an original, so no
call escapes the trace.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import statistics
import sys
import time
from collections import Counter, defaultdict

# the package modules that do work; ``errors`` only defines exceptions
LAYERS = ("field", "poly", "puncture", "linalg", "grscode", "constructions", "cli")

# bindings made by ``from ... import`` that the installer must reach
FROM_IMPORTS = (
    ("constructions", "distinct_zeros", "poly.distinct_zeros"),
    ("constructions", "q_power_mod", "poly.q_power_mod"),
    ("constructions", "g_form_vector", "puncture.g_form_vector"),
    ("cli", "make_field", "field.make_field"),
    ("grscode", "make_field", "field.make_field"),
)


def _rref(c, a, r, exc):
    rows, cols = a["mat"].shape
    c["linalg.rref.cells"] += rows * cols
    if exc is None:
        c["linalg.rref.pivots"] += len(r[1])


def _min_weight_scan(c, a, r, exc):
    if exc is None:
        c["linalg.min_weight_scan.words"] += r.scanned
        c["linalg.min_weight_scan.refused"] += not r.admitted


def _weight_distribution(c, a, r, exc):
    if exc is None:
        c["linalg.weight_distribution.words"] += int(r.sum())
    else:
        c["linalg.weight_distribution.refused"] += 1


def _check_mds(c, a, r, exc):
    code = a["code"]
    if exc is None:
        c["grscode.check_mds.minors"] += math.comb(code.n, code.k)
    else:
        c["grscode.check_mds.refused"] += 1


def _grs_min_weight(c, a, r, exc):
    code = a["code"]
    if exc is None:
        c["grscode.min_weight.words"] += code.ctx.q2**code.k - 1
    else:
        c["grscode.min_weight.refused"] += 1


def _mds_status(c, a, r, exc):
    if exc is None:
        c["grscode.mds_status.tier." + r.replace("_by_construction", "")] += 1


def _min_weight_pc(c, a, r, exc):
    if exc is None:
        c["puncture.min_weight_pc.mode." + r.mode] += 1


def _cli_main(c, a, r, exc):
    code = r if exc is None else getattr(exc, "code", None)
    c[f"cli.exit.{code}"] += 1


# the counters each hook keeps, beside ``<name>.calls``; all start at 0 so
# every run reports the same names
HOOKS = {
    "linalg.rref": (_rref, ("linalg.rref.cells", "linalg.rref.pivots")),
    "linalg.min_weight_scan": (_min_weight_scan, (
        "linalg.min_weight_scan.words", "linalg.min_weight_scan.refused")),
    "linalg.weight_distribution": (_weight_distribution, (
        "linalg.weight_distribution.words", "linalg.weight_distribution.refused")),
    "grscode.check_mds": (_check_mds, ("grscode.check_mds.minors", "grscode.check_mds.refused")),
    "grscode.min_weight": (_grs_min_weight, ("grscode.min_weight.words", "grscode.min_weight.refused")),
    "grscode.mds_status": (_mds_status, tuple(
        f"grscode.mds_status.tier.{t}" for t in ("minors", "enumeration", "asserted"))),
    "puncture.min_weight_pc": (_min_weight_pc, tuple(
        f"puncture.min_weight_pc.mode.{m}" for m in ("exhaustive", "constructive", "empty"))),
    "cli.main": (_cli_main, tuple(f"cli.exit.{code}" for code in (0, 2, 3, 4))),
}


def _namespaces() -> list:
    return [m for n, m in list(sys.modules.items()) if n == "hermgrs" or n.startswith("hermgrs.")]


class Tracer:
    """Spans and counters of the wrapped calls, grouped into phases.

    A phase is set-up or one pass over the case list; ``case`` is the id
    ``<phase>/<case index>`` stamped on each span.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, case id]
        self.phase_counters: dict[str, Counter] = {}
        self.counters: Counter = Counter()
        self.case = ""
        self.wrappers: dict[str, object] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, phase: str) -> None:
        self.counters = self.phase_counters.setdefault(phase, Counter())
        self.case = phase

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = HOOKS.get(name, (None,))[0]
        sig = inspect.signature(fn) if hook else None
        calls = name + ".calls"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.case]
            stack.append(len(spans))
            spans.append(span)
            result = exc = None
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                span[2] = clock()
                stack.pop()
                tracer.counters[calls] += 1
                if hook is not None:
                    hook(tracer.counters, sig.bind(*args, **kwargs).arguments, result, exc)

        return traced

    def install(self) -> None:
        originals: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"hermgrs.{layer}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", obj)
                self.wrappers[f"{layer}.{attr}"] = wrapper
                originals[id(obj)] = (obj, wrapper)

        def unwrapped(ns) -> list[tuple[str, object]]:
            return [(attr, obj) for attr, obj in vars(ns).items()
                    if id(obj) in originals and originals[id(obj)][0] is obj]

        for ns in _namespaces():
            for attr, obj in unwrapped(ns):
                setattr(ns, attr, originals[id(obj)][1])
                self._patches.append((ns, attr, obj))
        leaks = [f"{ns.__name__}.{attr}" for ns in _namespaces() for attr, _ in unwrapped(ns)]
        wrong = [f"hermgrs.{layer}.{attr}" for layer, attr, name in FROM_IMPORTS
                 if getattr(sys.modules[f"hermgrs.{layer}"], attr) is not self.wrappers[name]]
        if leaks or wrong:
            self.uninstall()
            raise RuntimeError(f"calls would escape the trace through {leaks + wrong}")

    def uninstall(self) -> None:
        while self._patches:
            ns, attr, obj = self._patches.pop()
            setattr(ns, attr, obj)

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per phase, per span name: span time minus the time of child spans."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for (name, _, _, _, case), t in zip(self.spans, own):
            out[case.split("/")[0]][name] += t
        return out


def layer_metrics(tracer: Tracer, setup: str, passes: list[str], walls: dict[str, float],
                  untraced_wall: float, output_bytes: int) -> dict[str, float]:
    """Per-layer figures: set-up plus one traced pass.

    Per function, counts come from set-up and the first traced pass (the
    others must repeat it exactly), and times are set-up plus the median
    over the traced passes.  Per module, ``self_s`` and ``share`` (of the
    traced wall time) cover the passes only, like ``wall_s``.  ``walls``
    maps each traced pass to its wall time.
    """
    own = tracer.self_times()

    def self_s(name: str) -> float:
        return own[setup][name] + statistics.median(own[p][name] for p in passes)

    counts = tracer.phase_counters[setup] + tracer.phase_counters[passes[0]]
    wall = statistics.median(walls[p] for p in passes)
    out: dict[str, float] = {}
    for name in tracer.wrappers:
        out[name + ".self_s"] = self_s(name)
        out[name + ".calls"] = counts[name + ".calls"]
    for _, keys in HOOKS.values():
        for key in keys:
            out[key] = counts[key]
    builds = [n for n in tracer.wrappers if n.startswith("constructions.build_")]
    out["constructions.build.self_s"] = sum(out[n + ".self_s"] for n in builds)
    out["constructions.build.calls"] = sum(out[n + ".calls"] for n in builds)
    scan_s = out["linalg.min_weight_scan.self_s"]
    out["linalg.min_weight_scan.words_per_s"] = (
        out["linalg.min_weight_scan.words"] / scan_s if scan_s > 0 else 0.0)
    for layer in LAYERS:
        t = statistics.median(
            sum(v for n, v in own[p].items() if n.startswith(layer + ".")) for p in passes)
        out[layer + ".self_s"] = t
        out[layer + ".share"] = t / wall
    out["cli.output_bytes"] = output_bytes
    out["trace.spans"] = sum(1 for *_, case in tracer.spans if case.split("/")[0] == passes[0])
    out["trace.wall_s"] = wall
    out["trace.untraced_wall_s"] = untraced_wall
    out["trace.overhead_s"] = wall - untraced_wall
    return out

