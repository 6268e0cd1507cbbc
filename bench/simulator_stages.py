"""Stage-by-stage timing and peak memory of the outage simulator.

Times the stages of a block of ``BLOCK_SIZE`` samples, each in isolation:
the raw Philox draw in its two stages, the direct link (the reader's draw)
then the hops (the draw worker's), each into a buffer reused across blocks
as the sample walk draws it, the link build
(``_links``: scaling the raw normals and laying them out samples-last, on
the caller), the three cut Grams (the direct ``_side_gram`` and
``_relay_grams``, the calls of ``_cut_log2dets``), the log-det and the rate
combine, then the whole block as the outage estimator runs it at one SNR,
for the configurations (1,1,1) .. (4,4,4).  It times a
5-point, one-block SNR sweep as ``simulate`` runs it (one
``outage_probabilities`` call) and one scalar ``cutset_terms`` call (a batch
of one).  For the two outage workloads of the benchmark it splits a 4-block
(262,144-sample), 5-SNR sweep into the serial raw draw of its blocks (and of
their two stages), each scoring pass alone on the drawn blocks and the
gather of the undecided samples' rows between them (as the tree's walk
hands them to pass 2), beside the wall time of the
``outage_probabilities`` call, which overlaps drawing and scoring: pass 1
builds the direct link and cut of every sample, pass 2 the links and relay
cuts of the samples whose direct link falls short of the threshold (their
share is reported per SNR); and the link build of the two passes alone.
Beside these it sums the work of each thread of the sample walk, the
reader's (direct-link draw, pass 1, gather and pass 2) and the draw
worker's (the hops), and names the larger, the one that bounds the sweep.
Each ``sweep_ms`` comes with the process CPU time of the same call
(``sweep_cpu_ms``): CPU time above wall time shows that the walk's two
threads ran at once, CPU time equal to it a host that ran them in turn.

    python bench/simulator_stages.py --src src --src /path/to/parent/src \\
        --label change --label parent --repeats 5 --out BENCH_<pr>.json

It also probes the peak memory of the two workload sweeps in fresh
processes, ``--rss-processes`` of them (default 10; 0 skips the probe) per
tree, configuration and import set: each imports numpy and relaydmt, with
and without ``scipy.stats`` (which perfbench's worker imports), reads its
peak RSS, runs 20 sweeps (seeds 1-20) and reports how far its peak RSS
grew.  The probe calls ``outage_probabilities`` only, so it runs on any tree;
``--repeats 0`` skips the stage timing, for a tree this script cannot time.

``--repeats R`` runs R rounds of stage timing.  A round times every tree
once, each in a fresh interpreter that imports ``relaydmt`` from that tree
(so two versions of the package never share a process), and every other
round takes the trees in reverse order, so a host that drifts between speed
states weighs on every tree alike.  A process times each stage once; the report keeps each stage's
minimum over the rounds and checks that the work counts agree across them.  A
tree from before the two-stage draw (no ``simulate._stage_links``) is timed
with that commit's copy of this script.  The memory probe alternates the
trees the same way, process by process.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

CONFIGS = ((1, 1, 1), (2, 2, 2), (3, 3, 3), (4, 4, 4))
RHO = 10.0 ** 2.5
SWEEP = tuple(10.0 ** (db / 10.0) for db in (15, 20, 25, 30, 35))
SCALAR_CALLS = 200
# the outage workloads of perfbench: (m, k, n) -> (r, SNR grid in dB)
WORKLOAD_SWEEPS = {(2, 2, 2): (1.5, (15, 20, 25, 30, 35)), (3, 3, 3): (2.9, (20, 25, 30, 35, 40))}
SWEEP_BLOCKS = 4
# sweeps per memory-probe process
RSS_SWEEPS = 20


def _time(fn) -> float:
    """Wall time of one ``fn()`` call, in seconds."""
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _sweep_times(fn) -> dict:
    """Wall and process CPU time of one sweep call ``fn()``, in
    milliseconds; the CPU time counts every thread of the process."""
    start, cpu = time.perf_counter(), time.process_time()
    fn()
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu
    return {"sweep_ms": 1e3 * wall, "sweep_cpu_ms": 1e3 * cpu}


def _parts(sim, config, index, count, buffers=(None, None)) -> list:
    """The raw parts of block ``index`` of seed 1, both stages drawn."""
    stages = sim._block_normals(config, sim.channel_rng(1, index), count, buffers)
    return [link for stage in stages for link in stage]


def _stage_draws(sim, config, blocks) -> dict:
    """The two draw stages of ``blocks`` whole blocks of seed 1, timed apart
    and summed, each into a buffer the blocks share, as the sample walk
    draws them; the buffers are written once before the clock runs."""
    buffers = [
        np.empty(2 * sim.BLOCK_SIZE * sum(rows * cols for rows, cols in links))
        for links in sim._stage_links(config)
    ]
    _parts(sim, config, 0, sim.BLOCK_SIZE, buffers)
    times = [0.0, 0.0]
    for index in range(blocks):
        stages = sim._block_normals(config, sim.channel_rng(1, index), sim.BLOCK_SIZE, buffers)
        for stage in range(2):
            times[stage] += _time(lambda: next(stages))
    return {"direct_draw_ms": 1e3 * times[0], "hops_draw_ms": 1e3 * times[1]}


def measure() -> dict:
    """Stage times of the ``relaydmt`` on ``sys.path``, in milliseconds."""
    from relaydmt import AntennaConfig
    from relaydmt import simulate as sim

    count = sim.BLOCK_SIZE
    result = {}
    for mkn in CONFIGS:
        config = AntennaConfig(*mkn)
        parts = _parts(sim, config, 0, count)

        def links():
            return [sim._links(p, slice(None)) for p in parts]

        def cut_grams(sd, sr, rd):
            return (sim._side_gram([[sd]]), *sim._relay_grams(sd, sr, rd))

        def logdet(grams):
            return [sim._log2_det_eye_plus(RHO, g) for g in grams]

        block_links = links()
        grams = cut_grams(*block_links)
        logs = logdet(grams)
        sample = sim.sample_channel(config, sim.channel_rng(2))
        r = 0.5 * config.max_mux
        block_s = _time(lambda: sim.outage_probability(config, RHO, r, count, 1))
        result["%d,%d,%d" % mkn] = {
            "samples": count,
            "draw_ms": 1e3 * _time(lambda: _parts(sim, config, 0, count)),
            **_stage_draws(sim, config, 1),
            "links_ms": 1e3 * _time(links),
            "gram_ms": 1e3 * _time(lambda: cut_grams(*block_links)),
            "logdet_ms": 1e3 * _time(lambda: logdet(grams)),
            "combine_ms": 1e3 * _time(lambda: sim._switch_and_rate(*logs)),
            "block_ms": 1e3 * block_s,
            "samples_per_s": count / block_s,
            **_sweep_times(lambda: sim.outage_probabilities(config, SWEEP, r, count, 1)),
            "scalar_cutset_terms_us": 1e6 / SCALAR_CALLS * _time(
                lambda: [sim.cutset_terms(sample, RHO) for _ in range(SCALAR_CALLS)]
            ),
        }
    return result


def measure_sweeps() -> dict:
    """The workload sweeps of the ``relaydmt`` on ``sys.path``, in
    milliseconds: the serial raw draw of the blocks, whole and by stage, the
    scoring passes on the drawn blocks (see :func:`_measure_passes`) and the
    estimator's own wall time."""
    from relaydmt import AntennaConfig
    from relaydmt import simulate as sim

    count = SWEEP_BLOCKS * sim.BLOCK_SIZE
    result = {}
    for mkn, (r, snr_db) in WORKLOAD_SWEEPS.items():
        config = AntennaConfig(*mkn)
        rhos = [10.0 ** (db / 10.0) for db in snr_db]

        def draws():
            return [_parts(sim, config, index, sim.BLOCK_SIZE) for index in range(SWEEP_BLOCKS)]

        passes = _measure_passes(sim, draws(), rhos, r)
        stages = _stage_draws(sim, config, SWEEP_BLOCKS)
        result["%d,%d,%d" % mkn] = {
            "samples": count,
            "snr_points": len(rhos),
            "draw_ms": 1e3 * _time(draws),
            **stages,
            **_sweep_times(lambda: sim.outage_probabilities(config, rhos, r, count, 1)),
            **passes,
            # the walk's two threads: the reader draws each direct link,
            # runs both passes and gathers between them, the worker draws
            # the hops
            "reader_ms": stages["direct_draw_ms"] + sum(
                passes[key] for key in ("pass1_ms", "gather_ms", "pass2_ms")
            ),
            "worker_ms": stages["hops_draw_ms"],
        }
    return result


def _measure_passes(sim, drawn, rhos, r) -> dict:
    """The two scoring passes of the outage sweep over blocks drawn
    beforehand, each timed alone: pass 1 (the direct link and cut at every
    SNR), the gather of the undecided samples' rows as the tree's walk
    hands them to pass 2, and pass 2 (the relay cuts of those samples, from
    what was gathered); the link build of both passes alone; and the
    undecided share of the samples at each SNR and over the whole grid.
    The walk gathers the three links of the undecided samples (``_links``);
    a tree from before it took a ``pick`` gathers their raw rows, and its
    pass 2 builds their links one ``_CHUNK`` slice at a time."""
    thresholds = np.array([r * math.log2(rho) for rho in rhos])
    decided = [sim._direct_pass(parts, rhos, thresholds) for parts in drawn]
    count = sum(len(parts[0][0]) for parts in drawn)
    short = sum((l_sd < thresholds[:, None]).sum(axis=1) for _, l_sd in decided)
    hand_over = "pick" in inspect.signature(sim._blocks).parameters

    def gather():
        return [
            [sim._links(link, undecided) if hand_over else tuple(p[undecided] for p in link)
             for link in parts]
            for parts, (undecided, _) in zip(drawn, decided)
        ]

    gathered = gather()

    def links():
        for parts, rows, (undecided, _) in zip(drawn, gathered, decided):
            # pass 1 builds the block's direct link a slice at a time
            for start in range(0, len(parts[0][0]), sim._CHUNK):
                sim._links(parts[0], slice(start, start + sim._CHUNK))
            for link, row in zip(parts, rows):  # then the undecided samples' links
                if hand_over:
                    sim._links(link, undecided)
                else:
                    for start in range(0, len(undecided), sim._CHUNK):
                        sim._links(row, slice(start, start + sim._CHUNK))

    return {
        "pass1_ms": 1e3 * _time(
            lambda: [sim._direct_pass(parts, rhos, thresholds) for parts in drawn]
        ),
        "gather_ms": 1e3 * _time(gather),
        "pass2_ms": 1e3 * _time(
            lambda: [
                sim._relay_pass(rows, l_sd, rhos, thresholds)
                for rows, (_, l_sd) in zip(gathered, decided)
            ]
        ),
        "links_ms": 1e3 * _time(links),
        "undecided_per_snr": (short / count).tolist(),
        "undecided_any_snr": sum(len(undecided) for undecided, _ in decided) / count,
    }


def probe_rss(mkn, scipy_stats: bool) -> float:
    """The growth of this fresh process's peak RSS, in MB, over
    ``RSS_SWEEPS`` workload sweeps of ``mkn`` (seeds 1, 2, ...), counted
    from its peak after the imports: numpy, relaydmt and, with
    ``scipy_stats``, ``scipy.stats``, as perfbench's worker imports it."""
    if scipy_stats:
        import scipy.stats  # noqa: F401
    from relaydmt import AntennaConfig, outage_probabilities
    from relaydmt.simulate import BLOCK_SIZE

    config = AntennaConfig(*mkn)
    r, snr_db = WORKLOAD_SWEEPS[mkn]
    rhos = [10.0 ** (db / 10.0) for db in snr_db]
    count = SWEEP_BLOCKS * BLOCK_SIZE
    baseline = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for seed in range(1, RSS_SWEEPS + 1):
        outage_probabilities(config, rhos, r, count, seed)
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - baseline) / 1024.0


def _rss_report(runs: list, mkn) -> dict:
    """One group of memory-probe processes of ``mkn``: their growths in MB,
    the median, and how many ran in the high mode, at least half a block
    (65,536 samples of raw parts) above the group's least growth."""
    m, k, n = mkn
    block_mb = 65536 * (n * m + k * m + n * k) * 16 / 2**20
    low = min(runs)
    return {
        "growth_mb": runs,
        "median_mb": statistics.median(runs),
        "high_mode": sum(run >= low + block_mb / 2 for run in runs),
    }


def _merge(rounds: list) -> dict:
    """One tree's rounds as one report: the least of every time (``_ms``,
    ``_us``) and the greatest of every rate (``_per_s``) over the rounds,
    a CPU time (``_cpu_ms``) from the round of the least wall time; every
    other field, a work count or share, must be the same in each."""
    merged = {}
    for key, first in rounds[0].items():
        values = [run[key] for run in rounds]
        if isinstance(first, dict):
            merged[key] = _merge(values)
        elif key.endswith("_cpu_ms"):  # the CPU time of the call whose wall time is kept
            wall = [run[key.replace("_cpu_ms", "_ms")] for run in rounds]
            merged[key] = values[wall.index(min(wall))]
        elif key.endswith(("_ms", "_us")):
            merged[key] = min(values)
        elif key.endswith("_per_s"):
            merged[key] = max(values)
        elif any(value != first for value in values):
            raise RuntimeError(f"{key} differs across rounds: {values}")
        else:
            merged[key] = first
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append", required=True,
                        help="a source tree's src directory; repeat to compare trees")
    parser.add_argument("--label", action="append", help="a name per --src (default: the path)")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--rss-processes", type=int, default=10)
    parser.add_argument("--out", help="write the JSON here instead of stdout")
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure or args.probe:
        sys.path.insert(0, os.path.abspath(args.src[0]))
        if args.probe:
            *mkn, scipy_stats = map(int, args.probe.split(","))
            print(json.dumps(probe_rss(tuple(mkn), bool(scipy_stats))))
        else:
            print(json.dumps({"blocks": measure(), "sweeps": measure_sweeps()}))
        return 0
    labels = args.label or args.src
    if len(labels) != len(args.src):
        parser.error("give one --label per --src")
    if args.repeats < 0 or args.rss_processes < 0:
        parser.error("--repeats and --rss-processes must not be negative")
    trees = list(zip(labels, args.src))

    def fresh(src, *mode):
        run = subprocess.run(
            [sys.executable, os.path.abspath(__file__), *mode, "--src", src],
            capture_output=True, text=True, check=True,
        )
        return json.loads(run.stdout)

    rounds = {label: [] for label in labels}
    for index in range(args.repeats):
        for label, src in trees[::-1] if index % 2 else trees:
            rounds[label].append(fresh(src, "--measure"))
    groups = [(mkn, scipy_stats) for mkn in WORKLOAD_SWEEPS for scipy_stats in (0, 1)]
    probes = {(label, *group): [] for label in labels for group in groups}
    for index in range(args.rss_processes):
        for label, src in trees[::-1] if index % 2 else trees:
            for mkn, scipy_stats in groups:
                probe = ",".join(map(str, (*mkn, scipy_stats)))
                probes[label, mkn, scipy_stats].append(fresh(src, "--probe", probe))
    report = {
        "method": (
            f"{args.repeats} rounds, each timing every tree once in a fresh process, in "
            "reverse order every other round; a process times each stage once, and every "
            "time is the minimum over the rounds (samples_per_s the maximum). Per block, "
            f"rho = {RHO:g}: stages timed in isolation, block_ms is the estimator's whole "
            "block; sweep_ms is one block at the 5 SNRs of 15:35:5 dB as simulate runs it. "
            f"sweeps: the outage workloads' {SWEEP_BLOCKS}-block sweeps (seed 1); draw_ms "
            "draws the blocks' raw normals one after another, "
            "sweep_ms is the outage_probabilities call as simulate makes it, drawing and "
            "scoring, and sweep_cpu_ms the process CPU time of that same call (above "
            "sweep_ms where the walk's two threads ran at once); "
            "pass1_ms and pass2_ms time each scoring pass alone on the drawn blocks, "
            "gather_ms the gather of the undecided samples' rows between them as the tree's "
            "walk hands them to pass 2 (their three links laid out by _links; in a tree "
            "whose _blocks takes no pick, raw row copies whose links pass 2 builds); "
            "reader_ms is the work of "
            "the walk's reading thread (direct_draw_ms + pass1_ms + gather_ms + pass2_ms) and "
            "worker_ms that of its draw worker (hops_draw_ms), bound_by the larger, which "
            "sets the sweep's pace where the reader draws the direct links (a walk whose "
            "worker draws both stages gives it draw_ms against pass1_ms + gather_ms + "
            "pass2_ms); links_ms "
            "the link build inside them (direct link per slice, undecided samples' links per "
            "gather), and undecided_per_snr / undecided_any_snr give the share of samples "
            "whose direct link falls short of r log2(rho) at each SNR / at any; per block, "
            "draw_ms is the raw draw, links_ms lays the whole block's three links out "
            "samples-last (_links) and gram_ms builds the three cut Grams from them "
            "(_side_gram of the direct link, _relay_grams of the two relay cuts)"
        ),
        "host": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "trees": {label: _merge(runs) for label, runs in rounds.items() if runs},
    }
    for tree in report["trees"].values():
        for sweep in tree["sweeps"].values():
            sweep["bound_by"] = max(("reader", "worker"), key=lambda t: sweep[t + "_ms"])
    if args.rss_processes:
        report["rss_method"] = (
            f"{args.rss_processes} fresh processes per tree, configuration and import set, "
            "the trees alternated process by process; each imports numpy and relaydmt "
            "(with_scipy_stats: and scipy.stats, as perfbench's worker does), reads its peak "
            f"RSS, runs {RSS_SWEEPS} workload sweeps ({SWEEP_BLOCKS} blocks, 5 SNRs, seeds "
            f"1-{RSS_SWEEPS}) and reports the growth of its peak RSS in MB; high_mode counts "
            "the processes at least half a block above the least growth of their group"
        )
        report["rss"] = {
            label: {
                "%d,%d,%d" % mkn: {
                    ("with" if scipy_stats else "without") + "_scipy_stats": _rss_report(
                        probes[label, mkn, scipy_stats], mkn
                    )
                    for scipy_stats in (0, 1)
                }
                for mkn in WORKLOAD_SWEEPS
            }
            for label in labels
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
