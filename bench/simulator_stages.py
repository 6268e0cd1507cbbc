"""Stage-by-stage timing of the outage simulator.

Times the stages of a block of ``BLOCK_SIZE`` samples, each in isolation as
the minimum over ``--repeats`` runs: the Philox draw, the Gram build, the
log-det and the rate combine, then the whole block as the outage estimator
runs it at one SNR, for the configurations (1,1,1) .. (4,4,4).  It times a
5-point, one-block SNR sweep as ``simulate`` runs it (one
``outage_probabilities`` call, or one ``outage_probability`` call per point
in trees without it) against 5 single-point calls, and one scalar
``cutset_terms`` call (a batch of one).

    python bench/simulator_stages.py --src src --src /path/to/parent/src \\
        --label change --label parent --out BENCH_<pr>.json

Each source tree is timed in a fresh interpreter that imports ``relaydmt``
from that tree, so two versions of the package never share a process.  The
Gram stage runs the tree's ``_cut_grams``, or the same three ``_side_gram``
calls in trees that predate it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

import numpy as np

CONFIGS = ((1, 1, 1), (2, 2, 2), (3, 3, 3), (4, 4, 4))
RHO = 10.0 ** 2.5
SWEEP = tuple(10.0 ** (db / 10.0) for db in (15, 20, 25, 30, 35))
SCALAR_CALLS = 200


def _best(fn, repeats: int) -> float:
    """Minimum wall time of ``fn()`` over ``repeats`` runs, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _stages(sim, channels):
    """(gram, logdet) callables for the tree's kernel; ``gram`` returns the
    input of ``logdet``."""
    def gram():
        if hasattr(sim, "_cut_grams"):
            return sim._cut_grams(*channels)
        sd, sr, rd = ((x, x.conj()) for x in (h.transpose(1, 2, 0) for h in channels))
        return sim._side_gram([[sd]]), sim._side_gram([[sd, rd]]), sim._side_gram([[sr], [sd]])

    def logdet(grams):
        return [sim._log2_det_eye_plus(RHO, g) for g in grams]

    return gram, logdet


def measure(repeats: int) -> dict:
    """Stage times of the ``relaydmt`` on ``sys.path``, in milliseconds."""
    from relaydmt import AntennaConfig
    from relaydmt import simulate as sim

    count = sim.BLOCK_SIZE
    result = {}
    for mkn in CONFIGS:
        config = AntennaConfig(*mkn)
        channels = sim._block_channels(config, sim.channel_rng(1), count)
        gram, logdet = _stages(sim, channels)
        grams = gram()
        logs = logdet(grams)
        sample = sim.sample_channel(config, sim.channel_rng(2))
        r = 0.5 * config.max_mux
        block_s = _best(lambda: sim.outage_probability(config, RHO, r, count, 1), repeats)

        def points():
            return [sim.outage_probability(config, rho, r, count, 1) for rho in SWEEP]

        def sweep():
            if hasattr(sim, "outage_probabilities"):
                return sim.outage_probabilities(config, SWEEP, r, count, 1)
            return points()

        result["%d,%d,%d" % mkn] = {
            "samples": count,
            "draw_ms": 1e3 * _best(lambda: sim._block_channels(config, sim.channel_rng(1), count), repeats),
            "gram_ms": 1e3 * _best(gram, repeats),
            "logdet_ms": 1e3 * _best(lambda: logdet(grams), repeats),
            "combine_ms": 1e3 * _best(lambda: sim._switch_and_rate(*logs), repeats),
            "block_ms": 1e3 * block_s,
            "samples_per_s": count / block_s,
            "sweep_ms": 1e3 * _best(sweep, repeats),
            "points_ms": 1e3 * _best(points, repeats),
            "scalar_cutset_terms_us": 1e6 / SCALAR_CALLS * _best(
                lambda: [sim.cutset_terms(sample, RHO) for _ in range(SCALAR_CALLS)], repeats
            ),
        }
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append", required=True,
                        help="a source tree's src directory; repeat to compare trees")
    parser.add_argument("--label", action="append", help="a name per --src (default: the path)")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", help="write the JSON here instead of stdout")
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:
        sys.path.insert(0, os.path.abspath(args.src[0]))
        print(json.dumps(measure(args.repeats)))
        return 0
    labels = args.label or args.src
    if len(labels) != len(args.src):
        parser.error("give one --label per --src")
    trees = {}
    for label, src in zip(labels, args.src):
        run = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--measure", "--src", src,
             "--repeats", str(args.repeats)],
            capture_output=True, text=True, check=True,
        )
        trees[label] = json.loads(run.stdout)
    report = {
        "method": (
            f"min of {args.repeats} wall-clock runs per stage on one block, rho = {RHO:g}; "
            "stages timed in isolation, block_ms is the estimator's whole block; "
            "sweep_ms is one block at the 5 SNRs of 15:35:5 dB as simulate runs it, "
            "points_ms the same as 5 single-point calls"
        ),
        "host": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "trees": trees,
    }
    text = json.dumps(report, indent=1)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
