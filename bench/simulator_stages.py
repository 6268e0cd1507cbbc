"""Stage-by-stage timing of one outage-simulator block.

Times the stages of a block of ``BLOCK_SIZE`` samples, each in isolation as
the minimum over ``--repeats`` runs: the Philox draw, the Gram build, the
log-det and the rate combine, then the whole block as the outage estimator
runs it (``_block_rates``), for the configurations (1,1,1) .. (4,4,4).  It
also times one scalar ``cutset_terms`` call (a batch of one).

    python bench/simulator_stages.py --src src --src /path/to/parent/src \\
        --label change --label parent --out BENCH_<pr>.json

Each source tree is timed in a fresh interpreter that imports ``relaydmt``
from that tree, so two versions of the package never share a process.  The
stage split follows the kernel the tree has: per-link Grams plus the
unrolled Cholesky (``_side_gram``/``_log2_det_eye_plus``), or the earlier
concatenation plus batched LAPACK Cholesky (``_log2_det_batch``).
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
    h_sd, h_sr, h_rd = channels
    if hasattr(sim, "_side_gram"):
        def gram():
            sd, sr, rd = ((x, x.conj()) for x in (h.transpose(1, 2, 0) for h in channels))
            return (
                sim._side_gram([[sd]]),
                sim._side_gram([[sd, rd]]),
                sim._side_gram([[sr], [sd]]),
            )

        def logdet(grams):
            return [sim._log2_det_eye_plus(RHO, g) for g in grams]

        return gram, logdet

    def side(h):
        if h.shape[1] <= h.shape[2]:
            return h @ h.conj().transpose(0, 2, 1)
        return h.conj().transpose(0, 2, 1) @ h

    def gram():
        return (
            side(h_sd),
            side(np.concatenate([h_sd, h_rd], axis=2)),
            side(np.concatenate([h_sr, h_sd], axis=1)),
        )

    def logdet(grams):
        out = []
        for g in grams:
            chol = np.linalg.cholesky(RHO * g + np.eye(g.shape[1]))
            out.append(2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2).real).sum(axis=1) / sim._LN2)
        return out

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
        block_s = _best(lambda: sim._block_rates(config, RHO, sim.channel_rng(1), count), repeats)
        result["%d,%d,%d" % mkn] = {
            "samples": count,
            "draw_ms": 1e3 * _best(lambda: sim._block_channels(config, sim.channel_rng(1), count), repeats),
            "gram_ms": 1e3 * _best(gram, repeats),
            "logdet_ms": 1e3 * _best(lambda: logdet(grams), repeats),
            "combine_ms": 1e3 * _best(lambda: sim._switch_and_rate(*logs), repeats),
            "block_ms": 1e3 * block_s,
            "samples_per_s": count / block_s,
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
            "stages timed in isolation, block_ms is the estimator's whole block"
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
