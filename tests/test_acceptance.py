"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with the governing tolerance (run with ``pytest -v -s tests/test_acceptance.py``).
"""

import math
import time

import numpy as np
import pytest

from relaydmt import (
    AntennaConfig,
    ExponentTriple,
    channel_rng,
    conditional_independence_check,
    density_exponent,
    diversity_fit,
    diversity_objective,
    dmt_1k1,
    dmt_n1n,
    dmt_symmetric_upper,
    exponent_profile,
    fd_dmt,
    in_support,
    outage_probability,
    ptp_dmt,
    rate_exponent,
    solve_general_grid,
    solve_static_n1n,
    solve_two_var,
)
from relaydmt.simulate import (
    _block_channels,
    _cut_log2dets,
    _eigen_exponent_rows,
    _switch_and_rate,
)

SEED = 7


def report(name, passed, detail, started):
    status = "PASS" if passed else "FAIL"
    print(f"{name}: {status} ({detail}, {time.time() - started:.1f}s)")
    assert passed, f"{name}: {detail}"


def test_c01_closed_form_1k1():
    t0 = time.time()
    corner_err = 0.0
    for k in (1, 2, 4):
        expected = {0.0: k + 1.0, 1.0 / (k + 1): float(k), 0.5: 1.0, 1.0: 0.0}
        for r, d in expected.items():
            corner_err = max(corner_err, abs(dmt_1k1(k, r) - d))
    solver_err = max(
        abs(solve_two_var(AntennaConfig(1, k, 1), float(r)).d - dmt_1k1(k, float(r)))
        for k in (1, 2, 4)
        for r in np.linspace(0, 1, 50)
    )
    elapsed_ok = time.time() - t0 < 10.0
    report(
        "C01 (1,k,1) closed form",
        corner_err <= 1e-12 and solver_err <= 1e-9 and elapsed_ok,
        f"corner err {corner_err:.1e}, solver gap {solver_err:.1e} (tol 1e-9), <10s",
        t0,
    )


def test_c02_closed_form_n1n():
    t0 = time.time()
    corner_err = max(
        abs(dmt_n1n(n, float(j)) - (n - j) * (n + 1 - j))
        for n in (1, 2, 3)
        for j in range(n + 1)
    )
    solver_err = max(
        abs(solve_two_var(AntennaConfig(n, 1, n), float(r)).d - ptp_dmt(n + 1, n, float(r)))
        for n in (1, 2, 3)
        for r in np.linspace(0, n, 50)
    )
    elapsed_ok = time.time() - t0 < 30.0
    report(
        "C02 (n,1,n) closed form",
        corner_err == 0.0 and solver_err <= 1e-9 and elapsed_ok,
        f"corner err {corner_err:.1e}, solver gap {solver_err:.1e} (tol 1e-9), <30s",
        t0,
    )


def test_c03_static_equals_dynamic_n1n():
    t0 = time.time()
    gap = max(
        abs(solve_static_n1n(n, float(r)).d - dmt_n1n(n, float(r)))
        for n in (1, 2, 3)
        for r in np.linspace(0, n, 20)
    )
    elapsed_ok = time.time() - t0 < 60.0
    report(
        "C03 static equals dynamic (n,1,n)",
        gap <= 1e-9 and elapsed_ok,
        f"max gap {gap:.1e} (tol 1e-9), <60s",
        t0,
    )


def test_c04_reciprocity():
    t0 = time.time()
    gap = 0.0
    for mkn in [(1, 2, 3), (2, 1, 3)]:
        c = AntennaConfig(*mkn)
        for r in np.linspace(0, c.max_mux, 20):
            gap = max(
                gap,
                abs(
                    solve_two_var(c, float(r)).d
                    - solve_two_var(c.swapped(), float(r)).d
                ),
            )
    elapsed_ok = time.time() - t0 < 20.0
    report(
        "C04 reciprocity",
        gap <= 1e-9 and elapsed_ok,
        f"max gap {gap:.1e} (tol 1e-9), <20s",
        t0,
    )


def test_c05_sandwich():
    t0 = time.time()
    violation = 0.0
    for mkn in [(1, 2, 1), (2, 2, 2), (2, 3, 2), (3, 2, 2)]:
        c = AntennaConfig(*mkn)
        for r in np.linspace(0, c.max_mux, 20):
            hd = solve_two_var(c, float(r)).d
            violation = max(
                violation,
                ptp_dmt(c.m, c.n, float(r)) - hd,
                hd - fd_dmt(c, float(r)),
            )
    report(
        "C05 sandwich bounds",
        violation <= 1e-9,
        f"max violation {violation:.1e} (slack 1e-9)",
        t0,
    )


def test_c06_grid_oracle_agreement():
    t0 = time.time()
    worst = 0.0
    for mkn in [(1, 1, 1), (1, 2, 1), (2, 1, 2)]:
        c = AntennaConfig(*mkn)
        for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
            r = frac * c.max_mux
            gap = abs(solve_general_grid(c, r, 0.05).d - solve_two_var(c, r).d)
            worst = max(worst, gap)
    elapsed_ok = time.time() - t0 < 300.0
    report(
        "C06 grid-oracle agreement",
        worst <= 0.15 and elapsed_ok,
        f"max |oracle - solver| {worst:.3f} (tol 0.15), <5min",
        t0,
    )


def test_c07_symmetric_upper_bound():
    t0 = time.time()
    hard = 0.0
    soft = 0.0
    for n, k in [(1, 1), (2, 1), (2, 2), (2, 3), (2, 4)]:
        c = AntennaConfig(n, k, n)
        for r in np.linspace(0, n, 21):
            ub = dmt_symmetric_upper(n, k, float(r))
            d = solve_two_var(c, float(r)).d
            hard = max(hard, d - ub)
            soft = max(soft, abs(ub - d))
    tightness = "tight" if soft <= 1e-2 else "NOT tight"
    report(
        "C07 symmetric upper bound",
        hard <= 1e-9,
        f"max bound deficit {hard:.1e} (tol 1e-9); "
        f"soft: max |gap| {soft:.1e} => conjectured equality {tightness}",
        t0,
    )


def test_c08_full_duplex_equality_soft():
    t0 = time.time()
    gaps = {}
    for mkn in [(3, 2, 2), (3, 1, 2)]:
        c = AntennaConfig(*mkn)
        gaps[mkn] = max(
            abs(solve_two_var(c, float(r)).d - fd_dmt(c, float(r)))
            for r in np.linspace(0, c.max_mux, 20)
        )
    consistent = all(g <= 1e-2 for g in gaps.values())
    detail = ", ".join(f"{mkn}: {g:.1e}" for mkn, g in gaps.items())
    verdict = "consistent" if consistent else "inconsistent"
    # soft criterion: reported, never fails the run
    report(
        "C08 half-duplex equals full-duplex for m>n>=k (soft)",
        True,
        f"max |hd - fd| {detail} => {verdict}",
        t0,
    )


def test_c09_relay_antenna_saturation():
    t0 = time.time()
    hd_gap = max(
        abs(
            solve_two_var(AntennaConfig(2, 3, 2), float(r)).d
            - solve_two_var(AntennaConfig(2, 4, 2), float(r)).d
        )
        for r in np.linspace(1.0, 2.0, 20)
    )
    fd_gap = abs(
        fd_dmt(AntennaConfig(2, 3, 2), 1.0) - fd_dmt(AntennaConfig(2, 4, 2), 1.0)
    )
    report(
        "C09 relay-antenna saturation",
        hd_gap <= 1e-2 and fd_gap >= 0.5,
        f"hd gap on [1,2] {hd_gap:.1e} (tol 1e-2), fd gap at r=1 {fd_gap:.2f} (>=0.5)",
        t0,
    )


def test_c10_monte_carlo_slopes():
    t0 = time.time()
    results = {}
    for mkn, r, band in [
        ((1, 1, 1), 0.5, (0.75, 1.25)),
        ((1, 2, 1), 0.75, (0.35, 0.65)),
    ]:
        c = AntennaConfig(*mkn)
        estimates = [
            outage_probability(c, 10.0 ** (db / 10.0), r, 10**6, seed=SEED)
            for db in (15, 20, 25, 30, 35)
        ]
        fit = diversity_fit(estimates)
        results[mkn] = (fit.slope, band)
    ok = all(lo <= slope <= hi for slope, (lo, hi) in results.values())
    elapsed_ok = time.time() - t0 < 600.0
    detail = ", ".join(
        f"{mkn}: slope {slope:.3f} in [{lo}, {hi}]"
        for mkn, (slope, (lo, hi)) in results.items()
    )
    report("C10 Monte Carlo slopes", ok and elapsed_ok, detail + ", <10min", t0)


def test_c11_exponent_consistency():
    t0 = time.time()
    ok = True
    details = []
    for mkn in [(1, 1, 1), (2, 1, 2)]:
        c = AntennaConfig(*mkn)
        channels = _block_channels(c, channel_rng(SEED), 10**4)
        medians = {}
        for rho in (1e4, 1e8):
            _, rates = _switch_and_rate(*_cut_log2dets(rho, *channels))
            exponents = zip(*(e.tolist() for e in _eigen_exponent_rows(rho, *channels)))
            levels = [rate_exponent(ExponentTriple(*map(tuple, row))) for row in exponents]
            medians[rho] = float(np.median(np.abs(rates / math.log2(rho) - levels)))
        ok &= medians[1e8] < medians[1e4]
        details.append(f"{mkn}: {medians[1e4]:.4f} -> {medians[1e8]:.4f}")
    elapsed_ok = time.time() - t0 < 120.0
    report(
        "C11 exponent consistency",
        ok and elapsed_ok,
        "median deviation " + ", ".join(details) + ", <2min",
        t0,
    )


def test_c12_conditional_independence():
    t0 = time.time()
    rep = conditional_independence_check(
        AntennaConfig(1, 1, 1), 100.0, 10**5, 20, seed=SEED
    )
    report(
        "C12 conditional independence",
        rep.max_abs_corr <= 0.05,
        f"max within-bin |corr| {rep.max_abs_corr:.3f} (tol 0.05); "
        f"shuffled control {rep.control_max_abs_corr:.3f}, "
        f"unconditional {rep.unconditional_corr:.3f}; "
        "residual common-factor correlation concentrates in the extreme bins",
        t0,
    )


def test_c13_property_suites():
    t0 = time.time()
    rng = np.random.default_rng(SEED)

    identity_gap = 0.0
    for mkn in [(1, 1, 1), (2, 2, 2), (3, 2, 1), (1, 4, 2)]:
        c = AntennaConfig(*mkn)
        alpha, beta, delta = (
            np.sort(rng.uniform(size=(2500, w)), axis=1).tolist() for w in (c.u, c.p, c.q)
        )
        for row in zip(alpha, beta, delta):
            t = ExponentTriple(*map(tuple, row))
            identity_gap = max(
                identity_gap, abs(diversity_objective(c, t) - density_exponent(c, t))
            )

    profile_gap = 0.0
    closure_ok = True
    for mkn in [(1, 1, 1), (2, 2, 2), (1, 3, 2), (3, 2, 1)]:
        c = AntennaConfig(*mkn)
        for _ in range(2500):
            a = float(rng.uniform(0, c.u))
            b = float(rng.uniform(0, min(c.p, c.m - a)))
            s = float(rng.uniform(0, min(c.q, c.n - a)))
            t = ExponentTriple(
                exponent_profile(a, c.u),
                exponent_profile(b, c.p),
                exponent_profile(s, c.q),
            )
            closure_ok &= in_support(c, t)
            expect = a + (b * s / (b + s) if b > 0 and s > 0 else 0.0)
            profile_gap = max(profile_gap, abs(rate_exponent(t) - expect))

    c = AntennaConfig(2, 2, 2)
    l_sd, l_srd, l_s_rd = _cut_log2dets(50.0, *_block_channels(c, channel_rng(SEED), 10**4))
    psd_ok = bool(np.all(l_srd >= l_sd - 1e-9) and np.all(l_s_rd >= l_sd - 1e-9))

    c = AntennaConfig(1, 1, 1)
    reference = outage_probability(c, 100.0, 0.5, 70_000, seed=SEED, workers=1)
    repro_ok = all(
        outage_probability(c, 100.0, 0.5, 70_000, seed=SEED, workers=w).p_out
        == reference.p_out
        for w in (2, 4)
    )

    ok = (
        identity_gap <= 1e-12
        and profile_gap <= 1e-9
        and closure_ok
        and psd_ok
        and repro_ok
    )
    report(
        "C13 property suites",
        ok,
        f"identity gap {identity_gap:.1e} (tol 1e-12), profile rate gap "
        f"{profile_gap:.1e}, support closure {closure_ok}, cut monotonicity "
        f"{psd_ok}, worker-invariant outage {repro_ok}",
        t0,
    )
