"""The benchmark's tracer must still find what it wraps in the program.

``perfbench/tracing.py`` replaces relaydmt functions by name and times each
``verify`` check under a key derived from its function name; a renamed or
deleted name makes the traced benchmark run raise or report other keys.
The stage harness ``bench/simulator_stages.py`` likewise reads private names
of ``relaydmt.simulate``, and a renamed one makes it raise; a shrunken run of
it in process checks that it still reports the keys of ``BENCH_30.json``.
"""

import ast
import copy
import importlib.util
import json
import os
import subprocess
import sys

import pytest

import relaydmt

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STAGES = os.path.join(ROOT, "bench", "simulator_stages.py")

TRACED_VERIFY = """
import contextlib, io, json, sys
import relaydmt.cli
import tracing

tracer = tracing.Tracer()
tracer.install({name: sys.modules["relaydmt." + name]
                for name in ("core", "solvers", "simulate", "verify", "cli")})
with contextlib.redirect_stdout(io.StringIO()):
    rc = sys.modules["relaydmt.cli"].main(["verify"])
keys = [k for k in tracer.metrics(1, 0.0) if k.startswith(tracing.CHECK_PREFIX)]
print(json.dumps({"rc": rc, "keys": sorted(keys)}))
"""


def test_tracer_installs_and_times_every_declared_check():
    src = os.path.dirname(os.path.dirname(os.path.abspath(relaydmt.__file__)))
    path = os.pathsep.join(
        filter(None, [src, os.path.join(ROOT, "perfbench"), os.environ.get("PYTHONPATH")])
    )
    out = subprocess.run(
        [sys.executable, "-c", TRACED_VERIFY],
        capture_output=True, text=True, check=True, env=dict(os.environ, PYTHONPATH=path),
    )
    result = json.loads(out.stdout)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = sorted(
            layer["name"] for layer in json.load(handle)["per_layer"]
            if layer["name"].startswith("verify.check_s.")
        )
    assert result["rc"] == 0
    assert result["keys"] == declared


def test_stage_harness_reads_only_names_the_simulator_has():
    with open(STAGES, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    read = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "sim"
    }
    assert {"_block_normals", "_direct_pass", "outage_probabilities"} <= read
    assert sorted(name for name in read if not hasattr(relaydmt.simulate, name)) == []


def _stage_harness():
    spec = importlib.util.spec_from_file_location("simulator_stages", STAGES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_stage_harness_reports_the_recorded_keys(monkeypatch):
    stages = _stage_harness()
    monkeypatch.setattr(stages, "CONFIGS", ((1, 1, 1),))
    monkeypatch.setattr(stages, "WORKLOAD_SWEEPS", {(2, 2, 2): (1.5, (15, 25, 35))})
    monkeypatch.setattr(stages, "SWEEP_BLOCKS", 1)
    blocks, sweeps = stages.measure(), stages.measure_sweeps()
    with open(os.path.join(ROOT, "BENCH_30.json"), encoding="utf-8") as handle:
        recorded = json.load(handle)["stages"]["trees"]["change"]
    assert sorted(blocks) == ["1,1,1"] and sorted(sweeps) == ["2,2,2"]
    assert sorted(blocks["1,1,1"]) == sorted(recorded["blocks"]["1,1,1"])
    # main adds bound_by after merging the rounds
    assert sorted(sweeps["2,2,2"]) == sorted(set(recorded["sweeps"]["2,2,2"]) - {"bound_by"})
    sweep = sweeps["2,2,2"]
    assert sweep["samples"] == relaydmt.simulate.BLOCK_SIZE and sweep["snr_points"] == 3
    assert sweep["reader_ms"] == pytest.approx(
        sweep["direct_draw_ms"] + sweep["pass1_ms"] + sweep["gather_ms"] + sweep["pass2_ms"],
        rel=1e-12,
    )
    assert sweep["worker_ms"] == sweep["hops_draw_ms"]


def test_stage_harness_merge_keeps_the_least_times_and_one_work_count():
    stages = _stage_harness()
    first = {
        "blocks": {"1,1,1": {"samples": 8, "draw_ms": 2.0, "sweep_ms": 5.0,
                             "sweep_cpu_ms": 9.0, "samples_per_s": 4.0}},
        "sweeps": {"2,2,2": {"samples": 8, "pass1_ms": 1.0, "undecided_per_snr": [0.5]}},
    }
    second = copy.deepcopy(first)
    # the CPU time comes with the least wall time, not as a least of its own
    second["blocks"]["1,1,1"].update(draw_ms=3.0, sweep_ms=4.0, sweep_cpu_ms=10.0,
                                     samples_per_s=6.0)
    second["sweeps"]["2,2,2"]["pass1_ms"] = 0.5
    merged = stages._merge([first, second])
    assert merged["blocks"]["1,1,1"] == {"samples": 8, "draw_ms": 2.0, "sweep_ms": 4.0,
                                         "sweep_cpu_ms": 10.0, "samples_per_s": 6.0}
    assert merged["sweeps"]["2,2,2"] == {"samples": 8, "pass1_ms": 0.5,
                                         "undecided_per_snr": [0.5]}
    second["sweeps"]["2,2,2"]["samples"] = 16
    with pytest.raises(RuntimeError, match="samples differs across rounds"):
        stages._merge([first, second])
