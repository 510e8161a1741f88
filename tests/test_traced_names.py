"""The traced benchmark run reports every per-layer name of BENCHMARK.json.

``perfbench/tracer.py`` wraps each public function and ``from ... import``
binding of the package, and a traced run exits 1 when a per-layer name
goes unreported.  This installs the same tracer in-process, so removing,
renaming or making private a traced function fails here as well.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import hermgrs
from hermgrs import cli

ROOT = Path(__file__).resolve().parents[1]


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_reports_every_per_layer_name(capsys):
    tracer = _tracer_module()
    trace = tracer.Tracer()
    trace.install()
    try:
        trace.begin("setup")
        hermgrs.make_field(2, 2)
        trace.begin("pass1")
        assert cli.main(["field-info", "--q", "4"]) == 0
    finally:
        trace.uninstall()
    capsys.readouterr()
    layers = tracer.layer_metrics(trace, "setup", ["pass1"], {"pass1": 1.0}, 1.0, 0)
    wanted = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    assert [m["name"] for m in wanted if m["name"] not in layers] == []
    assert layers["cli.main.calls"] == 1
