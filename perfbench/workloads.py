"""The benchmark's workloads: the CLI commands of one round, built from the seed.

A round is the unit the timed loop repeats, so every run attempts whole
rounds of the same commands.  Nothing here imports relaydmt.
"""

from __future__ import annotations

import os

NAMES = ("curve", "verify", "outage-222", "outage-333")

# curve: solver-bound; (2,3,3) and (3,3,2) are a mirror pair, (1,2,1) and
# (2,1,2) have closed forms, (4,4,4) is the largest instance.
CURVE_CONFIGS = ((1, 2, 1), (2, 1, 2), (2, 3, 3), (3, 3, 2), (4, 4, 4))
CURVE_STEP = 0.05

# outage-*: Gram side 2 single-threaded, and Gram side 3 on the 2-thread
# block pool.  (4,4,4) has no outage events at usable rates and exits 4.
OUTAGE = {
    "outage-222": {"mkn": (2, 2, 2), "r": "1.5", "snr_db": "15:35:5",
                   "snr_list": (15.0, 20.0, 25.0, 30.0, 35.0),
                   "samples": 262144, "workers": 1},
    "outage-333": {"mkn": (3, 3, 3), "r": "2.9", "snr_db": "20:40:5",
                   "snr_list": (20.0, 25.0, 30.0, 35.0, 40.0),
                   "samples": 262144, "workers": 2},
}

VERIFY_PASS_LINES = 10


def _mkn_flags(mkn):
    m, k, n = mkn
    return ["--m", str(m), "--k", str(k), "--n", str(n)]


def curve_out(out_dir: str, mkn) -> str:
    return os.path.join(out_dir, "curve-%d%d%d.json" % mkn)


def round_ops(workload: str, seed: int, out_dir: str) -> list:
    """argv lists of one round of ``workload``.

    The seed rotates the order of the curve configurations and is passed as
    ``--seed`` to simulate; verify takes no seed.
    """
    if workload == "curve":
        shift = seed % len(CURVE_CONFIGS)
        configs = CURVE_CONFIGS[shift:] + CURVE_CONFIGS[:shift]
        return [
            ["curve", *_mkn_flags(mkn), "--variants", "hd-dynamic",
             "--r", "0:%d:%g" % (min(mkn[0], mkn[2]), CURVE_STEP),
             "--out", curve_out(out_dir, mkn)]
            for mkn in configs
        ]
    if workload == "verify":
        return [["verify"]]
    spec = OUTAGE[workload]
    return [[
        "simulate", *_mkn_flags(spec["mkn"]), "--r", spec["r"],
        "--snr-db", spec["snr_db"], "--samples", str(spec["samples"]),
        "--seed", str(seed), "--workers", str(spec["workers"]),
        "--out", os.path.join(out_dir, "simulate.json"),
    ]]


def check_point(workload: str, seed: int) -> int:
    """Index of the SNR point that the untimed outage checks rerun."""
    return seed % len(OUTAGE[workload]["snr_list"])
