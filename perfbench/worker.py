"""One fresh interpreter of a benchmark run.

It imports numpy, scipy.stats and relaydmt from the checkout's ``src`` (each
step timed), builds the round's argv lists and prints one JSON "ready" line:
that line ends the setup that ``run.py`` times.  With ``--setup-only`` it
stops there.  Otherwise it repeats whole rounds of ``relaydmt.cli.main(argv)``
until ``--seconds`` have passed, reads its peak RSS, runs the untimed outage
reruns and writes everything to ``<outdir>/result.json``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _import_program():
    """Import the program stepwise; returns the seconds of each step."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    t1 = time.perf_counter()
    import scipy.stats  # noqa: F401
    t2 = time.perf_counter()
    import relaydmt
    import relaydmt.cli  # noqa: F401
    t3 = time.perf_counter()
    if os.path.dirname(os.path.dirname(os.path.abspath(relaydmt.__file__))) != src:
        raise SystemExit(f"relaydmt imported from {relaydmt.__file__}, not {src}")
    return {"numpy": t1 - t0, "scipy_stats": t2 - t1, "relaydmt": t3 - t2}


def _host_reference_job() -> float:
    """Seconds of a fixed job that never touches relaydmt (an interpreter
    loop and a batch of small numpy Cholesky factorisations, the two kinds of
    work the workloads do); it tells a host slowdown from a program change."""
    import numpy as np

    spd = np.eye(3) * 3.0 + np.ones((64, 3, 3))
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(800_000):
        acc += math.sqrt(i)
    for _ in range(1300):
        np.linalg.cholesky(spd)
    return time.perf_counter() - t0


def _run_op(cli, argv):
    captured = io.StringIO()
    try:
        with contextlib.redirect_stdout(captured):
            rc = cli.main(argv)
    except Exception as exc:  # a traceback is a failed op, reported by run.py
        return {"rc": None, "error": repr(exc), "stdout": captured.getvalue()}
    out = argv[argv.index("--out") + 1] if "--out" in argv else None
    body = b""
    if rc == 0 and out is not None:
        with open(out, "rb") as handle:
            body = handle.read()
    stdout = captured.getvalue()
    return {
        "rc": rc,
        "out": out,
        "stdout": stdout,
        "bytes": len(body) + len(stdout.encode()),
        "digest": hashlib.sha256(body + stdout.encode()).hexdigest(),
    }


def _outage_reruns(workload, seed, out_path):
    """Untimed public-API reruns of one SNR point: the full sample count on
    the other ``--workers`` value, and the first block alone."""
    import reference
    import relaydmt

    spec = workloads.OUTAGE[workload]
    with open(out_path, encoding="utf-8") as handle:
        record = json.load(handle)
    index = workloads.check_point(workload, seed)
    rho = record["estimates"][index]["rho"]
    config = relaydmt.AntennaConfig(*spec["mkn"])
    r = float(spec["r"])
    other = 2 if spec["workers"] == 1 else 1
    full = relaydmt.outage_probability(config, rho, r, spec["samples"], seed, other)
    block = relaydmt.outage_probability(config, rho, r, reference.BLOCK_SIZE, seed, spec["workers"])
    return {"index": index, "other_workers": other, "p_out_other_workers": full.p_out,
            "block_count": block.p_out * block.n_samples}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    imports = _import_program()
    import relaydmt.cli as cli

    ops = workloads.round_ops(args.workload, args.seed, args.outdir)
    print(json.dumps({"imports": imports}), flush=True)
    if args.setup_only:
        return 0

    tracer = None
    host_s = 0.0
    if args.trace:
        import tracing

        host_s = statistics.median(_host_reference_job() for _ in range(5))
        tracer = tracing.Tracer()
        tracer.install({name: sys.modules["relaydmt." + name]
                        for name in ("core", "solvers", "simulate", "verify", "cli")})

    rounds, digests, failed, last = [], [], [], []
    begin = time.perf_counter()
    while time.perf_counter() - begin < args.seconds:
        t0 = time.perf_counter()
        last = [_run_op(cli, op) for op in ops]
        rounds.append(time.perf_counter() - t0)
        digests.append([res.get("digest") for res in last])
        failed.append(sum(res["rc"] != 0 for res in last))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = len(rounds) * len(ops)
    result = {
        "rounds": rounds,
        "ops_per_round": len(ops),
        "attempted": attempted,
        "failed_per_round": failed,
        "digests": digests,
        "last_round": [dict(res, argv=op) for op, res in zip(ops, last)],
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        out_bytes = statistics.mean(res.get("bytes", 0) for res in last)
        result["trace"] = dict(tracer.metrics(attempted, out_bytes),
                               **{"host.ref_loop_s": host_s})
    if args.workload in workloads.OUTAGE and last[0]["rc"] == 0:
        result["reruns"] = _outage_reruns(args.workload, args.seed, last[0]["out"])

    with open(os.path.join(args.outdir, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
