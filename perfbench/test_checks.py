"""The output checks reject perturbed outputs.

Run with ``python3 -m pytest perfbench/test_checks.py``.  The "program
outputs" here are built from the references themselves, so every check
first accepts them, and then must reject each single perturbation.
"""

import json

import numpy as np
import pytest

import checks
import reference as ref
import workloads


def curve_text(mkn, values=None):
    m, k, n = mkn
    grid = [i * workloads.CURVE_STEP for i in range(round(min(m, n) / workloads.CURVE_STEP) + 1)]
    if values is None:
        values = [ref.closed_form(m, k, n, r) for r in grid]
    points = [{"r": r, "d": d} for r, d in zip(grid, values)]
    return json.dumps([{"config": {"m": m, "k": k, "n": n}, "variant": "hd-dynamic", "points": points}])


@pytest.mark.parametrize("mkn", [(1, 2, 1), (2, 1, 2), (1, 1, 1), (3, 1, 3)])
def test_curve_accepts_closed_form(mkn):
    values, problems = checks.curve_values(curve_text(mkn), mkn)
    assert problems == []
    assert checks.check_curve(values, mkn) == []


@pytest.mark.parametrize("mkn", [(1, 2, 1), (2, 1, 2)])
@pytest.mark.parametrize("index", [0, 7, -1])
@pytest.mark.parametrize("delta", [1e-6, -1e-6])
def test_curve_rejects_shifted_point(mkn, index, delta):
    values, _ = checks.curve_values(curve_text(mkn), mkn)
    values[index] += delta
    assert checks.check_curve(values, mkn)


def test_curve_rejects_rise_inside_the_sandwich():
    # (2,3,3) has no closed form: a bump kept inside ptp <= d <= fd still
    # breaks monotonicity
    mkn = (2, 3, 3)
    grid = [i * workloads.CURVE_STEP for i in range(41)]
    values = [ref.fd(2, 3, 3, r) for r in grid]
    assert checks.check_curve(values, mkn) == []
    values[10] = values[9] + 1e-6
    assert any("rises" in p for p in checks.check_curve(values, mkn))


@pytest.mark.parametrize("mutate", [
    lambda rec: rec[0].update(variant="fd"),
    lambda rec: rec[0]["points"].pop(),
    lambda rec: rec[0]["points"][3].update(r=0.151),
    lambda rec: rec[0]["points"][3].update(extra=1),
    lambda rec: rec[0]["config"].update(k=3),
    lambda rec: rec.append(rec[0]),
])
def test_curve_rejects_schema_break(mutate):
    mkn = (1, 2, 1)
    rec = json.loads(curve_text(mkn))
    mutate(rec)
    values, problems = checks.curve_values(json.dumps(rec), mkn)
    assert values is None and problems


def test_mirrors():
    grid = [i * workloads.CURVE_STEP for i in range(41)]
    a = [ref.fd(2, 3, 3, r) for r in grid]
    assert checks.check_mirrors({(2, 3, 3): a, (3, 3, 2): list(a)}) == []
    b = list(a)
    b[20] += 1e-6
    assert checks.check_mirrors({(2, 3, 3): a, (3, 3, 2): b})


VERIFY_OK = "\n".join(
    [f"PASS  check {i}: fine" for i in range(10)] + ["INFO  conjecture: consistent", "verify: OK"]
)


def test_verify():
    assert checks.check_verify(0, VERIFY_OK) == []
    assert checks.check_verify(1, VERIFY_OK)
    assert checks.check_verify(0, VERIFY_OK.replace("PASS  check 3", "FAIL  check 3"))
    assert checks.check_verify(0, VERIFY_OK.replace("verify: OK", "verify: FAILED"))
    assert checks.check_verify(0, VERIFY_OK.split("\n", 1)[1])


SEED = 5


def outage_text(workload, **changes):
    spec = workloads.OUTAGE[workload]
    m, k, n = spec["mkn"]
    r = float(spec["r"])
    estimates = [
        {"snr_db": db, "rho": 10.0 ** (db / 10.0), "p_out": 3.0 / spec["samples"],
         "n_samples": spec["samples"], "ci_half_width": 1e-5}
        for db in spec["snr_list"]
    ]
    rec = {"config": {"m": m, "k": k, "n": n}, "r": r, "seed": SEED, "estimates": estimates,
           "slope": {"slope": 1.0, "stderr": 0.1}, "analytic_d": ref.ptp(m, n, r)}
    rec.update(changes)
    return json.dumps(rec)


@pytest.mark.parametrize("workload", sorted(workloads.OUTAGE))
def test_outage_record(workload):
    assert checks.check_outage(outage_text(workload), workload, SEED) == []
    spec = workloads.OUTAGE[workload]
    m, k, n = spec["mkn"]
    r = float(spec["r"])
    assert checks.check_outage(outage_text(workload, analytic_d=ref.ptp(m, n, r) - 1e-6), workload, SEED)
    assert checks.check_outage(outage_text(workload, analytic_d=ref.fd(m, k, n, r) + 1e-6), workload, SEED)
    assert checks.check_outage(outage_text(workload, seed=SEED + 1), workload, SEED)
    rec = json.loads(outage_text(workload))
    rec["estimates"][2]["n_samples"] -= 1
    assert checks.check_outage(json.dumps(rec), workload, SEED)
    rec = json.loads(outage_text(workload))
    rec["estimates"][1]["p_out"] += 0.5 / spec["samples"]
    assert checks.check_outage(json.dumps(rec), workload, SEED)


def test_block_recount_matches_and_rejects_off_by_one():
    workload = "outage-222"
    spec = workloads.OUTAGE[workload]
    m, k, n = spec["mkn"]
    index = workloads.check_point(workload, SEED)
    db = spec["snr_list"][index]
    sure, possible = ref.outage_count_range(m, k, n, 10.0 ** (db / 10.0), float(spec["r"]), SEED, 0)
    assert sure == possible > 0
    text = outage_text(workload)
    p_out = json.loads(text)["estimates"][index]["p_out"]
    reruns = {"index": index, "other_workers": 2, "p_out_other_workers": p_out, "block_count": sure}
    assert checks.check_reruns(text, workload, SEED, reruns) == []
    for count in (sure - 1, sure + 1):
        assert checks.check_reruns(text, workload, SEED, dict(reruns, block_count=count))
    bad_workers = dict(reruns, p_out_other_workers=p_out + 1.0 / spec["samples"])
    assert checks.check_reruns(text, workload, SEED, bad_workers)


def test_recount_uses_eigenvalues_consistently():
    # the eigenvalue log-det agrees with a determinant on well-conditioned draws
    h_sd, h_sr, h_rd = ref.draw_block(2, 2, 2, seed=1, block=0, count=8)
    rho = 100.0
    for h in (h_sd, np.concatenate([h_sd, h_rd], axis=2), np.concatenate([h_sr, h_sd], axis=1)):
        gram = np.conj(np.swapaxes(h, 1, 2)) @ h
        direct = np.log2(np.linalg.det(np.eye(gram.shape[1]) + rho * gram).real)
        assert np.allclose(ref._log2_det(rho, h), direct, rtol=0, atol=1e-9)


def test_ptp_corners():
    assert ref.ptp(3, 2, 0.0) == 6.0
    assert ref.ptp(3, 2, 1.0) == 2.0
    assert ref.ptp(3, 2, 2.0) == 0.0
    assert ref.ptp(3, 2, 1.5) == 1.0
    assert ref.fd(1, 2, 1, 0.0) == 3.0


@pytest.mark.parametrize("mkn, db, r, count", [((2, 2, 2), 25.0, 1.5, 14), ((3, 3, 3), 30.0, 2.9, 156)])
def test_recount_pins_the_draw_order(mkn, db, r, count):
    # outage counts of block 0, seed 7, as relaydmt.outage_probability gives
    # them on 65,536 samples; a change to the draw order or scaling moves them
    assert ref.outage_count_range(*mkn, 10.0 ** (db / 10.0), r, seed=7, block=0) == (count, count)
