"""The benchmark's tracer must still find what it wraps in the program.

``perfbench/tracing.py`` replaces relaydmt functions by name and times each
``verify`` check under a key derived from its function name; a renamed or
deleted name makes the traced benchmark run raise or report other keys.
The stage harness ``bench/simulator_stages.py`` likewise reads private names
of ``relaydmt.simulate``, and a renamed one makes it raise.
"""

import ast
import json
import os
import subprocess
import sys

import relaydmt

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

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
    with open(os.path.join(ROOT, "bench", "simulator_stages.py"), encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    read = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "sim"
    }
    assert {"_block_normals", "_direct_pass", "outage_probabilities"} <= read
    assert sorted(name for name in read if not hasattr(relaydmt.simulate, name)) == []
