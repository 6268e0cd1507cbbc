"""relaydmt benchmark: one workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload curve --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout: the program is imported from
``src/``.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``).
The traced run also writes its metrics to ``perfbench/out/``.  See
perfbench/README.md.
"""

from __future__ import annotations

import os

# BLAS pools pinned to one thread, here and in every worker, before numpy
# loads: the only parallelism left is the simulator's own --workers pool.
PINNED = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(PINNED)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUPS = 3  # fresh interpreters per run whose setup is timed; the last one runs the workload
WORKER_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    pass


def _start(args, run_dir, setup_only):
    """Run a worker, timing it up to its ready line: (setup_s, ready record)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--outdir", run_dir]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    try:
        proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker ran past {WORKER_TIMEOUT_S:.0f} s") from None
    if proc.returncode != 0 or not line:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return setup_s, json.loads(line)


def _check(args, result) -> list:
    """Problems found in the outputs of the ops of the last round that exited 0."""
    problems = []
    first = result["digests"][-1]
    for i, digests in enumerate(result["digests"]):
        if digests != first:
            problems.append(f"round {i} output differs from the last round")
    done = [op for op in result["last_round"] if op["rc"] == 0]
    if args.workload == "curve":
        curves = {}
        for op in done:
            mkn = tuple(int(op["argv"][op["argv"].index(flag) + 1]) for flag in ("--m", "--k", "--n"))
            with open(op["out"], encoding="utf-8") as handle:
                values, bad = checks.curve_values(handle.read(), mkn)
            problems += bad
            if values is not None:
                curves[mkn] = values
                problems += checks.check_curve(values, mkn)
        problems += checks.check_mirrors(curves)
    elif args.workload == "verify":
        for op in done:
            problems += checks.check_verify(op["rc"], op["stdout"])
    else:
        for op in done:
            with open(op["out"], encoding="utf-8") as handle:
                text = handle.read()
            bad = checks.check_outage(text, args.workload, args.seed)
            problems += bad or checks.check_reruns(text, args.workload, args.seed, result["reruns"])
    return problems


def _metric_specs():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return spec["end_to_end"], spec["per_layer"]


def run(args) -> dict:
    if not os.path.isfile(os.path.join(ROOT, "src", "relaydmt", "__init__.py")):
        raise BenchError(f"no relaydmt source under {os.path.join(ROOT, 'src')}")
    end_to_end, per_layer = _metric_specs()
    out_root = os.path.join(HERE, "out")
    os.makedirs(out_root, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=out_root)
    try:
        setups, readies = [], []
        for i in range(SETUPS):
            setup_s, ready = _start(args, run_dir, setup_only=i < SETUPS - 1)
            setups.append(setup_s)
            readies.append(ready)
        with open(os.path.join(run_dir, "result.json"), encoding="utf-8") as handle:
            result = json.load(handle)
        problems = _check(args, result)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = sum(result["failed_per_round"])
    if args.trace:
        values = dict(result["trace"])
        for key in ("numpy", "scipy_stats", "relaydmt"):
            values[f"setup.import_{key}_s"] = statistics.median(r["imports"][key] for r in readies)
        specs = per_layer
    else:
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": result["ops_per_round"] / statistics.median(result["rounds"]),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        specs = end_to_end
    names = {s["name"] for s in specs}
    if set(values) != names:
        raise BenchError(f"metrics {sorted(set(values) ^ names)} do not match BENCHMARK.json")
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}
    if args.trace:
        path = os.path.join(out_root, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "rounds": result["rounds"], "metrics": metrics}, handle, indent=1)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for op in result["last_round"]:
        if op["rc"] != 0:
            print(f"op failed ({op['rc']}): {op['argv']} {op.get('error', '')}", file=sys.stderr)
    return {"correct": not problems, "attempted": result["attempted"],
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        summary = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
