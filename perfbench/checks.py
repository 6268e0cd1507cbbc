"""Checks of the program's outputs against the independent references.

Each check returns a list of problems; an empty list means the output passed.
Nothing here imports relaydmt.
"""

from __future__ import annotations

import json
import math

import reference as ref
import workloads

TOL = 1e-9


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def curve_values(text: str, mkn) -> tuple:
    """(values, problems): the d values of one ``curve --format json`` output
    for ``mkn`` on its full 0.05 grid, after the schema checks."""
    m, k, n = mkn
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        return None, [f"{mkn}: not JSON ({exc})"]
    if not (isinstance(data, list) and len(data) == 1 and isinstance(data[0], dict)):
        return None, [f"{mkn}: expected a list of one curve record"]
    rec = data[0]
    if set(rec) != {"config", "variant", "points"}:
        return None, [f"{mkn}: record keys {sorted(rec)}"]
    if rec["config"] != {"m": m, "k": k, "n": n} or rec["variant"] != "hd-dynamic":
        return None, [f"{mkn}: record is {rec['config']} {rec['variant']!r}"]
    top = min(m, n)
    grid = [i * workloads.CURVE_STEP for i in range(round(top / workloads.CURVE_STEP) + 1)]
    points = rec["points"]
    if not isinstance(points, list) or len(points) != len(grid):
        return None, [f"{mkn}: {len(points)} points, expected {len(grid)}"]
    values = []
    for p, r in zip(points, grid):
        if not (isinstance(p, dict) and set(p) == {"r", "d"}
                and _is_number(p["r"]) and _is_number(p["d"])):
            return None, [f"{mkn}: malformed point {p!r}"]
        if abs(p["r"] - r) > TOL:
            return None, [f"{mkn}: grid point {p['r']} is not {r}"]
        values.append(float(p["d"]))
    return values, []


def check_curve(values, mkn) -> list:
    """Monotone, inside ptp <= d <= fd, the two endpoints, the closed form."""
    m, k, n = mkn
    top = min(m, n)
    problems = []
    grid = [i * workloads.CURVE_STEP for i in range(len(values))]
    for i, (r, d) in enumerate(zip(grid, values)):
        if i and d > values[i - 1] + TOL:
            problems.append(f"{mkn}: d rises at r={r:g}: {values[i - 1]!r} -> {d!r}")
        lo, hi = ref.ptp(m, n, r), ref.fd(m, k, n, r)
        if not lo - TOL <= d <= hi + TOL:
            problems.append(f"{mkn}: d={d!r} outside [{lo!r}, {hi!r}] at r={r:g}")
        exact = ref.closed_form(m, k, n, r)
        if exact is not None and abs(d - exact) > TOL:
            problems.append(f"{mkn}: d={d!r} vs closed form {exact!r} at r={r:g}")
    if abs(values[0] - min((m + k) * n, m * (n + k))) > TOL:
        problems.append(f"{mkn}: d(0)={values[0]!r}")
    if abs(values[-1]) > TOL or abs(grid[-1] - top) > TOL:
        problems.append(f"{mkn}: d({top})={values[-1]!r}")
    return problems


def check_mirrors(curves: dict) -> list:
    """(m,k,n) and (n,k,m) have the same tradeoff (reciprocity)."""
    problems = []
    for (m, k, n), values in curves.items():
        mirror = curves.get((n, k, m))
        if m < n and mirror is not None:
            gap = max(abs(a - b) for a, b in zip(values, mirror))
            if gap > TOL:
                problems.append(f"({m},{k},{n}) vs mirror: gap {gap:.3g}")
    return problems


def check_verify(rc, stdout: str) -> list:
    lines = [line for line in stdout.splitlines() if line.strip()]
    passes = sum(line.startswith("PASS ") for line in lines)
    problems = []
    if rc != 0:
        problems.append(f"verify exit code {rc}")
    if passes != workloads.VERIFY_PASS_LINES:
        problems.append(f"verify printed {passes} PASS lines")
    if any(line.startswith("FAIL ") for line in lines):
        problems.append("verify printed a FAIL line")
    if not lines or lines[-1] != "verify: OK":
        problems.append(f"verify ended with {lines[-1] if lines else ''!r}")
    return problems


def check_outage(text: str, workload: str, seed: int) -> list:
    """Schema, requested sample counts, whole outage counts and the sandwich
    ptp(m, n, r) <= analytic_d <= fd(r)."""
    spec = workloads.OUTAGE[workload]
    m, k, n = spec["mkn"]
    r = float(spec["r"])
    try:
        rec = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"simulate output is not JSON ({exc})"]
    keys = {"config", "r", "seed", "estimates", "slope", "analytic_d"}
    if not isinstance(rec, dict) or set(rec) != keys:
        return [f"simulate record keys {sorted(rec) if isinstance(rec, dict) else rec!r}"]
    problems = []
    if rec["config"] != {"m": m, "k": k, "n": n} or rec["r"] != r or rec["seed"] != seed:
        problems.append(f"record echoes {rec['config']} r={rec['r']} seed={rec['seed']}")
    estimates = rec["estimates"]
    if [e.get("snr_db") for e in estimates] != list(spec["snr_list"]):
        problems.append(f"SNR points {[e.get('snr_db') for e in estimates]}")
    est_keys = {"snr_db", "rho", "p_out", "n_samples", "ci_half_width"}
    for e in estimates:
        if set(e) != est_keys or not all(_is_number(e[key]) for key in est_keys):
            problems.append(f"malformed estimate {e!r}")
            continue
        if e["n_samples"] != spec["samples"]:
            problems.append(f"{e['snr_db']} dB: n_samples {e['n_samples']}")
        count = e["p_out"] * e["n_samples"]
        if not 0.0 <= e["p_out"] <= 1.0 or abs(count - round(count)) > 1e-6:
            problems.append(f"{e['snr_db']} dB: p_out {e['p_out']!r} is no count")
        if abs(e["rho"] - 10.0 ** (e["snr_db"] / 10.0)) > 1e-12 * e["rho"]:
            problems.append(f"{e['snr_db']} dB: rho {e['rho']!r}")
    slope = rec["slope"]
    if not (isinstance(slope, dict) and set(slope) == {"slope", "stderr"}
            and all(_is_number(v) for v in slope.values())):
        problems.append(f"malformed slope {slope!r}")
    d = rec["analytic_d"]
    lo, hi = ref.ptp(m, n, r), ref.fd(m, k, n, r)
    if not (_is_number(d) and lo - TOL <= d <= hi + TOL):
        problems.append(f"analytic_d {d!r} outside [{lo!r}, {hi!r}]")
    return problems


def check_reruns(text: str, workload: str, seed: int, reruns: dict) -> list:
    """The other ``--workers`` value gives the same p_out, and the first
    block's count matches the independent recount up to the samples within
    1e-9 bits of the threshold."""
    spec = workloads.OUTAGE[workload]
    m, k, n = spec["mkn"]
    est = json.loads(text)["estimates"][reruns["index"]]
    problems = []
    if reruns["p_out_other_workers"] != est["p_out"]:
        problems.append(
            f"{est['snr_db']} dB: p_out {est['p_out']!r} with --workers {spec['workers']}, "
            f"{reruns['p_out_other_workers']!r} with {reruns['other_workers']}"
        )
    rho = 10.0 ** (est["snr_db"] / 10.0)
    sure, possible = ref.outage_count_range(m, k, n, rho, float(spec["r"]), seed, 0)
    if not sure <= reruns["block_count"] <= possible:
        problems.append(
            f"{est['snr_db']} dB: block 0 has {reruns['block_count']!r} outages, "
            f"recount gives {sure}..{possible}"
        )
    return problems
