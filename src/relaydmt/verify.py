"""Cross-check battery behind the ``verify`` command.

Hard checks compare independent routes and fail the run on any disagreement:
registry variants sampled through ``dmt_curve`` against each other, the solver
against the brute-force oracle, exponent identities and cut-set samples.
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
    in_support,
    rate_exponent,
)
from .simulate import _cut_log2dets, _walk_channels
from .solvers import dmt_curve, solve_general_grid, solve_two_var


class CheckFailure(AssertionError):
    pass


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def check_profile_consistency() -> str:
    rng = np.random.default_rng(101)
    lengths = rng.integers(1, 5, 2000)
    levels = rng.random(2000) * lengths
    worst = 0.0
    for level, length in zip(levels.tolist(), lengths.tolist()):
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
        x, y, z = rng.random((3, 500))
        a = c.u * x
        b = np.minimum(c.p, c.m - a) * y
        s = np.minimum(c.q, c.n - a) * z
        for a, b, s in zip(a.tolist(), b.tolist(), s.tolist()):
            t = ExponentTriple(
                exponent_profile(a, c.u), exponent_profile(b, c.p), exponent_profile(s, c.q)
            )
            # the messages are formatted on failure only, not on each row
            if not in_support(c, t):
                raise CheckFailure(f"profile left the support at {mkn}")
            rate = rate_exponent(t)
            expect = a + (b * s / (b + s) if b > 0 and s > 0 else 0.0)
            if not abs(rate - expect) <= 1e-9:
                raise CheckFailure(f"rate level mismatch at {mkn}: {rate} vs {expect}")
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
            t = ExponentTriple(*row)
            worst = max(
                worst, abs(diversity_objective(c, t) - density_exponent(c, t))
            )
    _expect(worst <= 1e-12, f"objective/density identity broken by {worst:.2e}")
    return f"max identity gap {worst:.2e}"


def _d(config: AntennaConfig, variant: str, count: int) -> np.ndarray:
    """d of a registry variant at ``count`` evenly spaced r on [0, max_mux]."""
    grid = np.linspace(0, config.max_mux, count).tolist()
    return np.array([p.d for p in dmt_curve(config, variant, grid).points])


def _gap(config: AntennaConfig, first: str, second: str, count: int) -> float:
    """Largest |d_first - d_second| on the grid of :func:`_d`."""
    return float(np.abs(_d(config, first, count) - _d(config, second, count)).max())


def check_closed_forms() -> str:
    cases = [(AntennaConfig(1, k, 1), "closed-1k1") for k in (1, 2)]
    cases += [(AntennaConfig(n, 1, n), "closed-n1n") for n in (1, 2)]
    worst = max(_gap(c, "hd-dynamic", form, 11) for c, form in cases)
    _expect(worst <= 1e-9, f"solver strayed {worst:.2e} from a closed form")
    return f"max closed-form gap {worst:.2e}"


def check_static_matches_dynamic() -> str:
    worst = max(_gap(AntennaConfig(n, 1, n), "hd-static", "closed-n1n", 7) for n in (1, 2))
    _expect(worst <= 1e-9, f"static solver strayed {worst:.2e}")
    return f"max static gap {worst:.2e}"


def check_reciprocity() -> str:
    worst = max(
        float(np.abs(_d(c, "hd-dynamic", 7) - _d(c.swapped(), "hd-dynamic", 7)).max())
        for c in (AntennaConfig(1, 2, 3), AntennaConfig(2, 1, 3))
    )
    _expect(worst <= 1e-9, f"reciprocity broken by {worst:.2e}")
    return f"max reciprocity gap {worst:.2e}"


def check_sandwich() -> str:
    for mkn in [(1, 2, 1), (2, 2, 2)]:
        lo, hd, hi = (_d(AntennaConfig(*mkn), v, 9) for v in ("ptp", "hd-dynamic", "fd"))
        excess = float(np.max([lo - hd, hd - hi]))
        _expect(excess <= 1e-9, f"sandwich broken at {mkn} by {excess:.2e}")
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
        excess = float((_d(c, "hd-dynamic", 9) - _d(c, "symmetric-upper", 9)).max())
        _expect(excess <= 1e-9, f"bound below solver by {excess:.2e} at ({n},{k})")
    return "pinned-level bound dominates the solver"


def check_cutset_samples() -> str:
    c = AntennaConfig(2, 2, 2)
    l_sd, l_srd, l_s_rd = _cut_log2dets(50.0, *next(_walk_channels(c, 77, 500)))
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
        gap = _gap(AntennaConfig(*mkn), "hd-dynamic", "fd", 9)
        verdict = "consistent" if gap <= 1e-2 else "inconsistent"
        lines.append(
            f"half-duplex equals full-duplex on {mkn}: max gap {gap:.2e} ({verdict})"
        )
    pairs = [(1, 1), (2, 2)] if not extended else [
        (n, k) for n in (1, 2) for k in (1, 2, 3)
    ]
    for n, k in pairs:
        gap = _gap(AntennaConfig(n, k, n), "symmetric-upper", "hd-dynamic", 9)
        verdict = "consistent" if gap <= 1e-2 else "inconsistent"
        lines.append(
            f"symmetric bound tight on ({n},{k},{n}): max gap {gap:.2e} ({verdict})"
        )
    if extended:
        # the classes where a fixed half-time schedule loses nothing
        same = [
            "({},{},{})".format(*mkn)
            for mkn in itertools.product((1, 2, 3), repeat=3)
            if _gap(AntennaConfig(*mkn), "hd-static", "hd-dynamic", 9) <= 1e-9
        ]
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
