"""Cross-check battery behind the ``verify`` command.

Hard checks compare independent computation routes (closed forms against the
two-variable solver, the solver against the brute-force oracle, exponent
identities, cut-set sample properties) and fail the run on any disagreement.
Numeric-conjecture diagnostics are always reported but never fail the run.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .core import (
    AntennaConfig,
    ExponentTriple,
    density_exponent,
    diversity_objective,
    exponent_profile,
    fd_dmt,
    in_support,
    ptp_dmt,
    rate_exponent,
)
from .simulate import _block_channels, _cut_log2dets, channel_rng
from .solvers import (
    dmt_1k1,
    dmt_n1n,
    dmt_symmetric_upper,
    solve_general_grid,
    solve_static,
    solve_static_n1n,
    solve_two_var,
)


class CheckFailure(AssertionError):
    pass


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def check_profile_consistency() -> str:
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(2000):
        length = int(rng.integers(1, 5))
        level = float(rng.uniform(0, length))
        v = exponent_profile(level, length)
        worst = max(worst, abs(sum(1.0 - x for x in v) - level))
        _expect(all(0.0 <= x <= 1.0 for x in v), "profile entry escaped [0, 1]")
        _expect(
            all(b >= a - 1e-12 for a, b in zip(v, v[1:])), "profile not ordered"
        )
    _expect(worst <= 1e-9, f"profile level deficit mismatch {worst:.2e}")
    return f"max level deficit error {worst:.2e}"


def check_profile_support_closure() -> str:
    rng = np.random.default_rng(103)
    checked = 0
    for mkn in [(1, 1, 1), (2, 2, 2), (1, 3, 2), (3, 2, 1)]:
        c = AntennaConfig(*mkn)
        for _ in range(500):
            a = float(rng.uniform(0, c.u))
            b = float(rng.uniform(0, min(c.p, c.m - a)))
            s = float(rng.uniform(0, min(c.q, c.n - a)))
            t = ExponentTriple(
                exponent_profile(a, c.u), exponent_profile(b, c.p), exponent_profile(s, c.q)
            )
            _expect(in_support(c, t), f"profile left the support at {mkn}")
            rate = rate_exponent(t)
            expect = a + (b * s / (b + s) if b > 0 and s > 0 else 0.0)
            _expect(
                abs(rate - expect) <= 1e-9,
                f"rate level mismatch at {mkn}: {rate} vs {expect}",
            )
            checked += 1
    return f"{checked} sampled level triples closed"


def check_objective_density_identity() -> str:
    rng = np.random.default_rng(107)
    worst = 0.0
    for mkn in [(1, 1, 1), (2, 2, 2), (3, 2, 1), (1, 4, 2)]:
        c = AntennaConfig(*mkn)
        alpha, beta, delta = (
            np.sort(rng.uniform(size=(2500, w)), axis=1).tolist() for w in (c.u, c.p, c.q)
        )
        for row in zip(alpha, beta, delta):
            t = ExponentTriple(*map(tuple, row))
            worst = max(
                worst, abs(diversity_objective(c, t) - density_exponent(c, t))
            )
    _expect(worst <= 1e-12, f"objective/density identity broken by {worst:.2e}")
    return f"max identity gap {worst:.2e}"


def check_closed_forms() -> str:
    worst = 0.0
    for k in (1, 2):
        c = AntennaConfig(1, k, 1)
        for r in np.linspace(0, 1, 11):
            worst = max(worst, abs(solve_two_var(c, float(r)).d - dmt_1k1(k, float(r))))
    for n in (1, 2):
        c = AntennaConfig(n, 1, n)
        for r in np.linspace(0, n, 11):
            worst = max(worst, abs(solve_two_var(c, float(r)).d - dmt_n1n(n, float(r))))
    _expect(worst <= 1e-9, f"solver strayed {worst:.2e} from a closed form")
    return f"max closed-form gap {worst:.2e}"


def check_static_matches_dynamic() -> str:
    worst = 0.0
    for n in (1, 2):
        for r in np.linspace(0, n, 7):
            worst = max(worst, abs(solve_static_n1n(n, float(r)).d - dmt_n1n(n, float(r))))
    _expect(worst <= 1e-9, f"static solver strayed {worst:.2e}")
    return f"max static gap {worst:.2e}"


def check_reciprocity() -> str:
    worst = 0.0
    for mkn in [(1, 2, 3), (2, 1, 3)]:
        c = AntennaConfig(*mkn)
        for r in np.linspace(0, c.max_mux, 7):
            worst = max(
                worst,
                abs(solve_two_var(c, float(r)).d - solve_two_var(c.swapped(), float(r)).d),
            )
    _expect(worst <= 1e-9, f"reciprocity broken by {worst:.2e}")
    return f"max reciprocity gap {worst:.2e}"


def check_sandwich() -> str:
    for mkn in [(1, 2, 1), (2, 2, 2)]:
        c = AntennaConfig(*mkn)
        for r in np.linspace(0, c.max_mux, 9):
            hd = solve_two_var(c, float(r)).d
            lo = ptp_dmt(c.m, c.n, float(r))
            hi = fd_dmt(c, float(r))
            _expect(
                lo - 1e-9 <= hd <= hi + 1e-9,
                f"sandwich broken at {mkn}, r={r}: {lo} / {hd} / {hi}",
            )
    return "single-link <= relay <= pooled-antenna everywhere"


def check_grid_oracle() -> str:
    worst = -math.inf
    for mkn in [(1, 1, 1), (1, 2, 1)]:
        c = AntennaConfig(*mkn)
        for r in (0.0, 0.5, 1.0):
            gap = solve_general_grid(c, r, 0.05).d - solve_two_var(c, r).d
            _expect(-1e-9 <= gap <= 0.15, f"oracle gap {gap:.3f} at {mkn}, r={r}")
            worst = max(worst, gap)
    return f"max oracle gap {worst:.2e}"


def check_symmetric_upper_dominates() -> str:
    for n, k in [(2, 2), (2, 3)]:
        c = AntennaConfig(n, k, n)
        for r in np.linspace(0, n, 9):
            ub = dmt_symmetric_upper(n, k, float(r))
            d = solve_two_var(c, float(r)).d
            _expect(ub >= d - 1e-9, f"bound {ub} below solver {d} at ({n},{k})")
    return "pinned-level bound dominates the solver"


def check_cutset_samples() -> str:
    c = AntennaConfig(2, 2, 2)
    l_sd, l_srd, l_s_rd = _cut_log2dets(50.0, *_block_channels(c, channel_rng(77), 500))
    _expect(bool(np.all(l_srd >= l_sd - 1e-9)), "joint cut below direct cut")
    _expect(bool(np.all(l_s_rd >= l_sd - 1e-9)), "listen cut below direct cut")
    return "cut monotonicity on 500 samples"


HARD_CHECKS = (
    ("profile consistency", check_profile_consistency),
    ("profile support closure", check_profile_support_closure),
    ("objective/density identity", check_objective_density_identity),
    ("closed-form agreement", check_closed_forms),
    ("static equals dynamic (n,1,n)", check_static_matches_dynamic),
    ("reciprocity", check_reciprocity),
    ("sandwich bounds", check_sandwich),
    ("grid-oracle agreement", check_grid_oracle),
    ("symmetric upper bound dominance", check_symmetric_upper_dominates),
    ("cut-set sample properties", check_cutset_samples),
)


def conjecture_diagnostics(extended: bool = False):
    """Soft numeric checks of the conjectured equalities; informative only."""
    lines = []
    for mkn in [(3, 2, 2), (3, 1, 2)]:
        c = AntennaConfig(*mkn)
        gap = max(
            abs(solve_two_var(c, float(r)).d - fd_dmt(c, float(r)))
            for r in np.linspace(0, c.max_mux, 9)
        )
        verdict = "consistent" if gap <= 1e-2 else "inconsistent"
        lines.append(
            f"half-duplex equals full-duplex on {mkn}: max gap {gap:.2e} ({verdict})"
        )
    pairs = [(1, 1), (2, 2)] if not extended else [
        (n, k) for n in (1, 2) for k in (1, 2, 3)
    ]
    for n, k in pairs:
        c = AntennaConfig(n, k, n)
        gap = max(
            abs(dmt_symmetric_upper(n, k, float(r)) - solve_two_var(c, float(r)).d)
            for r in np.linspace(0, n, 9)
        )
        verdict = "consistent" if gap <= 1e-2 else "inconsistent"
        lines.append(
            f"symmetric bound tight on ({n},{k},{n}): max gap {gap:.2e} ({verdict})"
        )
    if extended:
        # the classes where a fixed half-time schedule loses nothing
        same = []
        for mkn in itertools.product((1, 2, 3), repeat=3):
            c = AntennaConfig(*mkn)
            rs = np.linspace(0, c.max_mux, 9).tolist()
            if all(abs(solve_static(c, r).d - solve_two_var(c, r).d) <= 1e-9 for r in rs):
                same.append(f"({c.m},{c.k},{c.n})")
        lines.append(f"static equals dynamic on {len(same)} of 27 configs: {' '.join(same)}")
    return lines


def run_verify(conjectures: bool = False):
    """Run the battery; returns (all_hard_checks_passed, report lines)."""
    lines = []
    ok = True
    for name, check in HARD_CHECKS:
        try:
            detail = check()
            lines.append(f"PASS  {name}: {detail}")
        except CheckFailure as exc:
            ok = False
            lines.append(f"FAIL  {name}: {exc}")
    for line in conjecture_diagnostics(extended=conjectures):
        lines.append(f"INFO  {line}")
    lines.append("verify: OK" if ok else "verify: FAILED")
    return ok, lines
