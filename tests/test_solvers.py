import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaydmt import (
    AntennaConfig,
    ConfigurationError,
    DomainError,
    diversity_objective,
    exponent_profile,
    fd_dmt,
    ptp_dmt,
)
from relaydmt import solvers
from relaydmt.core import ExponentTriple
from relaydmt.solvers import (
    LevelTriple,
    SolverRefusal,
    VARIANTS,
    dmt_1k1,
    dmt_curve,
    dmt_ddf_1k1,
    dmt_n1n,
    dmt_static_1k1,
    dmt_symmetric_upper,
    solve_general_grid,
    solve_static,
    solve_static_n1n,
    solve_two_var,
)


# ---------------------------------------------------------------------------
# closed forms


def test_dmt_1k1_values():
    assert dmt_1k1(2, 0.0) == 3.0
    assert dmt_1k1(2, 1.0 / 3.0) == pytest.approx(2.0, abs=1e-12)
    assert dmt_1k1(4, 0.4) == pytest.approx(1.0 + 4.0 * 0.2 / 0.6, abs=1e-12)
    assert dmt_1k1(3, 1.0) == 0.0


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_dmt_1k1_branch_continuity(k):
    r = 1.0 / (k + 1)
    assert abs((k + 1) * (1 - r) - (1 + k * (1 - 2 * r) / (1 - r))) <= 1e-12
    assert abs((1 + k * (1 - 2 * 0.5) / (1 - 0.5)) - 2 * (1 - 0.5)) <= 1e-12


def test_dmt_n1n_values():
    assert dmt_n1n(2, 0.0) == 6.0
    assert dmt_n1n(2, 2.0) == 0.0
    assert dmt_n1n(3, 2.0) == 2.0


def test_dmt_ddf_values():
    assert dmt_ddf_1k1(2, 0.5) == pytest.approx(1.0, abs=1e-12)
    assert dmt_ddf_1k1(2, 0.25) == pytest.approx(2.25, abs=1e-12)
    assert dmt_ddf_1k1(3, 1.0) == 0.0


@pytest.mark.parametrize("k", [1, 2, 4])
def test_dmt_ddf_branch_continuity(k):
    r = 1.0 / (k + 1)
    assert abs((k + 1) * (1 - r) - (1 + k * (1 - 2 * r) / (1 - r))) <= 1e-12
    assert abs((1 + k * (1 - 2 * 0.5) / (1 - 0.5)) - (1 - 0.5) / 0.5) <= 1e-12


def test_dmt_ddf_never_exceeds_optimum():
    for k in (1, 2, 4):
        for r in np.linspace(0, 1, 41):
            assert dmt_ddf_1k1(k, float(r)) <= dmt_1k1(k, float(r)) + 1e-12


def test_dmt_static_1k1():
    assert dmt_static_1k1(2, 0.5) == 1.0
    assert dmt_static_1k1(5, 1.0) == 0.0
    assert dmt_static_1k1(2, 0.75) == 0.5
    assert dmt_static_1k1(2, 0.25) == 2.0
    for r in (-0.1, 1.1):
        with pytest.raises(DomainError):
            dmt_static_1k1(2, r)


def test_closed_form_domain_errors():
    with pytest.raises(DomainError):
        dmt_1k1(2, 1.5)
    with pytest.raises(DomainError):
        dmt_n1n(2, -0.1)
    with pytest.raises(ConfigurationError):
        dmt_ddf_1k1(0, 0.5)


# ---------------------------------------------------------------------------
# two-variable solver


def test_solve_two_var_spot_values():
    assert solve_two_var(AntennaConfig(1, 2, 1), 0.25).d == pytest.approx(2.25, abs=1e-9)
    assert solve_two_var(AntennaConfig(1, 1, 1), 1.0).d == pytest.approx(0.0, abs=1e-9)
    assert solve_two_var(AntennaConfig(2, 1, 2), 1.0).d == pytest.approx(2.0, abs=1e-9)


def test_solve_two_var_argmin_reproduces_value():
    for mkn, r in [((1, 2, 1), 0.3), ((2, 2, 2), 1.3), ((3, 2, 1), 0.6)]:
        c = AntennaConfig(*mkn)
        res = solve_two_var(c, r)
        assert isinstance(res.argmin, LevelTriple)
        t = ExponentTriple(
            exponent_profile(min(res.argmin.a, c.u), c.u),
            exponent_profile(min(res.argmin.b, c.p), c.p),
            exponent_profile(min(res.argmin.s, c.q), c.q),
        )
        assert diversity_objective(c, t) == pytest.approx(res.d, abs=1e-9)
        assert res.method == "two-var"
        assert res.evaluations > 0


def test_solve_two_var_deterministic():
    c = AntennaConfig(2, 3, 2)
    r1 = solve_two_var(c, 0.7)
    r2 = solve_two_var(c, 0.7)
    assert r1.d == r2.d
    assert r1.argmin == r2.argmin


def test_solve_two_var_matches_1k1_closed_form():
    for k in (1, 2, 4):
        c = AntennaConfig(1, k, 1)
        for r in np.linspace(0, 1, 21):
            assert solve_two_var(c, float(r)).d == pytest.approx(
                dmt_1k1(k, float(r)), abs=1e-9
            )


def test_solve_two_var_matches_n1n_closed_form():
    for n in (1, 2):
        c = AntennaConfig(n, 1, n)
        for r in np.linspace(0, n, 21):
            assert solve_two_var(c, float(r)).d == pytest.approx(
                dmt_n1n(n, float(r)), abs=1e-9
            )


def test_solve_two_var_reciprocity():
    for mkn in [(1, 2, 3), (2, 1, 3)]:
        c = AntennaConfig(*mkn)
        for r in np.linspace(0, c.max_mux, 9):
            assert solve_two_var(c, float(r)).d == pytest.approx(
                solve_two_var(c.swapped(), float(r)).d, abs=1e-9
            )


def test_solve_two_var_sandwiched_between_ptp_and_fd():
    for mkn in [(1, 2, 1), (2, 2, 2), (2, 3, 2), (3, 2, 2)]:
        c = AntennaConfig(*mkn)
        for r in np.linspace(0, c.max_mux, 11):
            hd = solve_two_var(c, float(r)).d
            assert hd >= ptp_dmt(c.m, c.n, float(r)) - 1e-9
            assert hd <= fd_dmt(c, float(r)) + 1e-9


def test_solve_two_var_monotone_and_zero_at_max():
    for mkn in [(1, 3, 1), (2, 2, 2), (2, 1, 3)]:
        c = AntennaConfig(*mkn)
        values = [solve_two_var(c, float(r)).d for r in np.linspace(0, c.max_mux, 15)]
        assert values[-1] == pytest.approx(0.0, abs=1e-9)
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    mkn=st.tuples(*[st.integers(1, 4)] * 3),
    fracs=st.tuples(*[st.floats(0.0, 1.0)] * 2),
)
def test_solve_two_var_properties(mkn, fracs):
    c = AntennaConfig(*mkn)
    r, r_hi = sorted(f * c.max_mux for f in fracs)
    res = solve_two_var(c, r)
    a, b, s = res.argmin.a, res.argmin.b, res.argmin.s

    # the argmin sits on the rate surface, inside the level caps
    assert -1e-9 <= a <= r + 1e-9
    assert -1e-9 <= b <= min(c.p, c.m - a) + 1e-9
    assert -1e-9 <= s <= min(c.q, c.n - a) + 1e-9
    relay = b * s / (b + s) if b + s > 0.0 else 0.0
    assert a + relay == pytest.approx(r, abs=1e-9)
    t = ExponentTriple(
        exponent_profile(a, c.u), exponent_profile(b, c.p), exponent_profile(s, c.q)
    )
    assert max(diversity_objective(c, t), 0.0) == pytest.approx(res.d, abs=1e-9)

    assert res.d == pytest.approx(solve_two_var(c.swapped(), r).d, abs=1e-9)
    assert solve_two_var(c, r_hi).d <= res.d + 1e-9
    assert ptp_dmt(c.m, c.n, r) - 1e-9 <= res.d <= fd_dmt(c, r) + 1e-9
    if c.u + c.p + c.q <= 6:
        # the oracle scores a feasible grid subset, so it can only sit above
        assert res.d <= solve_general_grid(c, r, 0.05).d + 1e-9


def test_solve_two_var_domain_error():
    with pytest.raises(DomainError):
        solve_two_var(AntennaConfig(2, 1, 2), 2.5)


# ---------------------------------------------------------------------------
# brute-force grid oracle


def test_grid_oracle_examples():
    assert solve_general_grid(AntennaConfig(1, 1, 1), 0.0, 0.05).d == pytest.approx(
        2.0, abs=0.15
    )
    assert solve_general_grid(AntennaConfig(1, 2, 1), 0.5, 0.05).d == pytest.approx(
        1.0, abs=0.1
    )
    assert solve_general_grid(AntennaConfig(1, 1, 1), 1.0, 0.1).d == pytest.approx(
        0.0, abs=1e-12
    )


def test_grid_oracle_argmin_reproduces_value():
    c = AntennaConfig(1, 2, 1)
    res = solve_general_grid(c, 0.4, 0.1)
    assert diversity_objective(c, res.argmin) == pytest.approx(res.d, abs=1e-9)
    assert res.method == "grid-oracle"


@pytest.mark.parametrize(
    "mkn", [(1, 1, 1), (1, 2, 1), (2, 1, 2), (1, 2, 3), (2, 2, 1), (3, 1, 2), (1, 4, 2)]
)
def test_grid_oracle_agrees_with_two_var(mkn):
    c = AntennaConfig(*mkn)
    for frac in (0.0, 0.3, 0.6, 1.0):
        r = frac * c.max_mux
        gap = solve_general_grid(c, r, 0.05).d - solve_two_var(c, r).d
        # the oracle scores a feasible grid subset, so it sits just above
        assert -1e-9 <= gap <= 0.15, (mkn, r, gap)


def test_grid_oracle_refuses_large_instances():
    with pytest.raises(SolverRefusal):
        solve_general_grid(AntennaConfig(3, 3, 3), 0.5)
    with pytest.raises(DomainError):
        solve_general_grid(AntennaConfig(1, 1, 1), 0.5, step=0.5)


# ---------------------------------------------------------------------------
# symmetric upper bound


def test_symmetric_upper_values():
    assert dmt_symmetric_upper(1, 1, 0.0) == 2.0
    assert dmt_symmetric_upper(2, 4, 1.5) == pytest.approx(1.0, abs=1e-12)


def test_symmetric_upper_k_independent_beyond_n_at_high_r():
    # the pooled-antenna bound pins the curve once k reaches n
    for r in np.linspace(1.0, 2.0, 9):
        assert dmt_symmetric_upper(2, 3, float(r)) == pytest.approx(
            dmt_symmetric_upper(2, 4, float(r)), abs=1e-12
        )


def test_symmetric_upper_dominates_solver():
    for n, k in [(1, 1), (2, 1), (2, 2), (2, 3)]:
        c = AntennaConfig(n, k, n)
        for r in np.linspace(0, n, 9):
            ub = dmt_symmetric_upper(n, k, float(r))
            assert ub >= solve_two_var(c, float(r)).d - 1e-9


def test_symmetric_upper_domain_error():
    with pytest.raises(DomainError):
        dmt_symmetric_upper(2, 2, 2.5)


# ---------------------------------------------------------------------------
# static (n, 1, n) solver


def test_static_n1n_values():
    assert solve_static_n1n(1, 0.5).d == pytest.approx(1.0, abs=1e-9)
    assert solve_static_n1n(2, 1.0).d == pytest.approx(2.0, abs=1e-9)
    assert solve_static_n1n(1, 1.0).d == pytest.approx(0.0, abs=1e-9)


def static_objective(n, alpha, beta):
    """Fixed-schedule (n, 1, n) objective over the direct and in-hop exponents."""
    value = n * beta - n
    value += sum((2 * n - 2 * i) * x for i, x in enumerate(alpha))
    value += sum(max(1.0 - beta - x, 0.0) for x in alpha[: n - 1])
    return value


def test_static_n1n_matches_dynamic():
    for n in (1, 2, 3, 4):
        for r in np.linspace(0, n, 41):
            res = solve_static_n1n(n, float(r))
            assert res.d == pytest.approx(dmt_n1n(n, float(r)), abs=1e-9)
            alpha, (beta,) = res.argmin.alpha, res.argmin.beta
            assert len(alpha) == n and res.argmin.delta == ()
            assert list(alpha) == sorted(alpha)
            assert all(0.0 <= x <= 1.0 for x in alpha) and 0.0 <= beta <= 1.0
            assert sum(1.0 - x for x in alpha) + 0.5 * (1.0 - beta) <= r + 1e-9
            assert alpha[-1] + beta >= 1.0 - 1e-9
            assert static_objective(n, alpha, beta) == pytest.approx(res.d, abs=1e-9)


def test_static_n1n_large_n_matches_closed_form():
    for n in (5, 6, 7, 8):
        for r in np.linspace(0, n, 41):
            assert solve_static_n1n(n, float(r)).d == pytest.approx(
                dmt_n1n(n, float(r)), abs=1e-9
            )
    with pytest.raises(DomainError):
        solve_static_n1n(2, -0.5)
    with pytest.raises(ConfigurationError):
        solve_static_n1n(0, 0.0)


# ---------------------------------------------------------------------------
# static solver for every (m, k, n)


def static_level_grid(c, r, steps=8):
    """Brute-force static minimum over levels: a on a grid of [0, r], b and s
    each on a grid of [0, cap] plus the value 2 (r - a) that puts them on
    their half-time plane; every triple with a + min(b, s) / 2 <= r inside
    the caps is scored with the scalar objective."""
    best = np.inf
    for a in np.linspace(0.0, r, steps + 1):
        b_cap, s_cap = min(c.p, c.m - a), min(c.q, c.n - a)
        plane = 2.0 * (r - a)
        bs = [b for b in [*np.linspace(0.0, b_cap, steps + 1), plane] if b <= b_cap]
        ss = [s for s in [*np.linspace(0.0, s_cap, steps + 1), plane] if s <= s_cap]
        alpha = exponent_profile(a, c.u)
        betas = [exponent_profile(b, c.p) for b in bs]
        deltas = [exponent_profile(s, c.q) for s in ss]
        for b, beta in zip(bs, betas):
            for s, delta in zip(ss, deltas):
                if a + min(b, s) / 2.0 <= r + 1e-12:
                    t = ExponentTriple(alpha, beta, delta)
                    best = min(best, diversity_objective(c, t))
    return max(best, 0.0)


def test_static_matches_1k1_closed_form():
    for k in (1, 2, 3, 4, 5):
        for r in np.linspace(0.0, 1.0, 41):
            assert solve_static(AntennaConfig(1, k, 1), float(r)).d == pytest.approx(
                dmt_static_1k1(k, float(r)), abs=1e-12
            )


def test_static_falls_below_dynamic_on_strong_relays():
    # a fixed half-time schedule loses to a channel-dependent switch here
    c = AntennaConfig(2, 3, 2)
    gap = max(
        solve_two_var(c, float(r)).d - solve_static(c, float(r)).d
        for r in np.linspace(0, 2, 41)
    )
    assert gap == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    mkn=st.one_of(
        st.sampled_from([(3, 1, 2), (2, 3, 1), (1, 2, 4), (4, 2, 1)]),
        st.tuples(*[st.integers(1, 4)] * 3),
    ),
    frac=st.floats(0.0, 1.0),
)
def test_solve_static_properties(mkn, frac):
    c = AntennaConfig(*mkn)
    r = frac * c.max_mux
    res = solve_static(c, r)
    a, b, s = res.argmin.a, res.argmin.b, res.argmin.s
    assert res.method == "static-exact"

    # the argmin lies on the listen plane with s at its cap, or on the
    # transmit plane with b at its cap, inside the level caps
    b_cap, s_cap = min(c.p, c.m - a), min(c.q, c.n - a)
    assert -1e-9 <= a <= r + 1e-9
    assert -1e-9 <= b <= b_cap + 1e-9 and -1e-9 <= s <= s_cap + 1e-9
    listens = abs(a + b / 2.0 - r) <= 1e-9 and abs(s - s_cap) <= 1e-9
    transmits = abs(a + s / 2.0 - r) <= 1e-9 and abs(b - b_cap) <= 1e-9
    assert listens or transmits
    t = ExponentTriple(
        exponent_profile(a, c.u), exponent_profile(b, c.p), exponent_profile(s, c.q)
    )
    assert max(diversity_objective(c, t), 0.0) == pytest.approx(res.d, abs=1e-9)

    assert res.d <= solve_two_var(c, r).d + 1e-9
    assert res.d >= ptp_dmt(c.m, c.n, r) - 1e-9
    assert res.d == pytest.approx(solve_static(c.swapped(), r).d, abs=1e-9)
    if c.u + c.p + c.q <= 6:
        # the grid scores a feasible subset, so it can only sit above
        assert res.d <= static_level_grid(c, r) + 1e-9


# ---------------------------------------------------------------------------
# curve generation


def test_dmt_curve_1k1_points():
    curve = dmt_curve(AntennaConfig(1, 2, 1), "hd-dynamic", [0.0, 0.5, 1.0])
    assert [p.d for p in curve.points] == pytest.approx([3.0, 1.0, 0.0], abs=1e-6)


def test_dmt_curve_fd_points():
    curve = dmt_curve(AntennaConfig(2, 1, 2), "fd", [0.0, 1.0, 2.0])
    assert [p.d for p in curve.points] == pytest.approx([6.0, 2.0, 0.0], abs=1e-12)


def test_dmt_curve_ptp_endpoint():
    curve = dmt_curve(AntennaConfig(3, 2, 2), "ptp", [2.0])
    assert curve.points[0] == (2.0, 0.0)


def test_dmt_curve_all_variants_monotone():
    cases = {
        "hd-dynamic": (2, 2, 2),
        "fd": (2, 2, 2),
        "ptp": (2, 2, 2),
        "closed-1k1": (1, 3, 1),
        "ddf-1k1": (1, 3, 1),
        "static-1k1": (1, 3, 1),
        "closed-n1n": (2, 1, 2),
        "hd-static": (2, 3, 2),
        "symmetric-upper": (2, 2, 2),
    }
    assert set(cases) == set(VARIANTS)
    for variant, mkn in list(cases.items()) + [("symmetric-upper", (2, 4, 2))]:
        c = AntennaConfig(*mkn)
        curve = dmt_curve(c, variant, np.linspace(0.0, c.max_mux, 11))
        ds = [p.d for p in curve.points]
        assert all(b <= a + 1e-9 for a, b in zip(ds, ds[1:]))


def test_dmt_curve_variant_config_mismatch():
    with pytest.raises(ConfigurationError):
        dmt_curve(AntennaConfig(2, 2, 2), "closed-1k1", [0.0, 0.5])
    with pytest.raises(ConfigurationError):
        dmt_curve(AntennaConfig(2, 2, 2), "closed-n1n", [0.0, 0.5])
    with pytest.raises(ConfigurationError):
        dmt_curve(AntennaConfig(1, 1, 1), "no-such-variant", [0.0])


def test_dmt_curve_grid_validation():
    c = AntennaConfig(1, 1, 1)
    with pytest.raises(DomainError):
        dmt_curve(c, "ptp", [])
    with pytest.raises(DomainError):
        dmt_curve(c, "ptp", [0.5, 0.5])
    with pytest.raises(DomainError):
        dmt_curve(c, "static-1k1", [-0.1, 0.75])
    with pytest.raises(DomainError):
        dmt_curve(c, "static-1k1", [0.25, 1.1])


# one eligible configuration per variant
_VARIANT_CONFIGS = {
    "hd-dynamic": (2, 3, 1),
    "fd": (3, 1, 2),
    "ptp": (2, 2, 3),
    "closed-1k1": (1, 2, 1),
    "closed-n1n": (3, 1, 3),
    "symmetric-upper": (2, 3, 2),
    "ddf-1k1": (1, 3, 1),
    "static-1k1": (1, 2, 1),
    "hd-static": (3, 2, 2),
}


@pytest.mark.parametrize("variant", VARIANTS)
def test_dmt_curve_variant_guards_its_domain(variant):
    # dmt_curve has no domain check of its own: each variant refuses its r
    c = AntennaConfig(*_VARIANT_CONFIGS[variant])
    top = float(c.max_mux)
    assert len(dmt_curve(c, variant, [0.0, top]).points) == 2
    for grid in ([-0.1, 0.5], [0.5, top + 0.1], [0.5, float("nan")]):
        with pytest.raises(DomainError):
            dmt_curve(c, variant, grid)


# ---------------------------------------------------------------------------
# the vertex engine batched over r


_ENGINES = {
    "hd-dynamic": (solvers._two_var_block, solve_two_var),
    "hd-static": (solvers._static_block, solve_static),
}


def _batch_of_one(solve, c, grid):
    """Per-r results as the engine's columns d, a, b, s, evaluations."""
    results = [solve(c, r) for r in grid]
    return [
        [res.d for res in results],
        [res.argmin.a for res in results],
        [res.argmin.b for res in results],
        [res.argmin.s for res in results],
        [res.evaluations for res in results],
    ]


@pytest.mark.parametrize("variant", _ENGINES)
def test_batched_engine_equals_per_r_solves_exactly(variant, monkeypatch):
    block, solve = _ENGINES[variant]
    cells = solvers._CELLS_PER_R[block]
    # every case spans two full passes and a partial one: {1..4}^3 with the
    # budget shrunk to 16 r a pass (41 r), and (4, 3, 5) at the shipped budget
    cases = [(mkn, 16) for mkn in itertools.product((1, 2, 3, 4), repeat=3)]
    cases.append(((4, 3, 5), None))
    for mkn, per_pass in cases:
        c = AntennaConfig(*mkn)
        if per_pass is not None:
            monkeypatch.setattr(solvers, "_PASS_CELLS", per_pass * cells(c))
        step = solvers._PASS_CELLS // cells(c)
        grid = np.linspace(0.0, c.max_mux, 2 * step + step // 2 + 1).tolist()
        assert len(grid) > 2 * step and len(grid) % step, mkn
        columns = [col.tolist() for col in solvers._solve_grid(block, c, grid)]
        assert columns == _batch_of_one(solve, c, grid), mkn
        assert [p.d for p in dmt_curve(c, variant, grid).points] == columns[0]
        monkeypatch.undo()


def _inside_caps(c, r, group, a, b, s):
    """The inside test of the engine's _best_vertex, restated."""
    tol = solvers._ROOT_TOL
    b_cap, s_cap = np.minimum(c.p, c.m - a), np.minimum(c.q, c.n - a)
    return (
        (a >= -tol) & (a <= r[group] + tol)
        & (b >= -tol) & (b <= b_cap + tol)
        & (s >= -tol) & (s <= s_cap + tol)
    )


@pytest.mark.parametrize(
    "mkn", [*itertools.product(range(1, 6), repeat=3), (6, 6, 6)], ids=lambda mkn: "%d%d%d" % mkn
)
def test_line_and_root_prunes_lose_nothing(mkn, monkeypatch):
    c = AntennaConfig(*mkn)
    grid = np.linspace(0.0, c.max_mux, 2001)
    pruned = solvers._solve_grid(solvers._two_var_block, c, grid.tolist())
    kept = {tuple(row) for row in np.hstack(solvers._kink_lines(c)[:2])}
    # a clip slack beyond any level keeps every kink line and every finite root
    monkeypatch.setattr(solvers, "_CLIP_SLACK", 1e300)
    monkeypatch.setattr(solvers, "_kink_lines", solvers._kink_lines.__wrapped__)
    unpruned = solvers._solve_grid(solvers._two_var_block, c, grid.tolist())
    assert [col.tolist() for col in pruned] == [col.tolist() for col in unpruned]
    lines = solvers._kink_lines(c)
    assert len(lines[0]) == len(solvers._all_kink_lines(c)[0])
    dropped = np.array([tuple(row) not in kept for row in np.hstack(lines[:2])])
    *columns, r_free = lines
    crossings = solvers._surface_crossings(grid, *(x[dropped] for x in columns), r_free[:, dropped])
    assert not _inside_caps(c, grid, *crossings).any()


def test_engine_emits_no_warning():
    solvers._kink_lines.cache_clear()  # the line clip runs under the filter too
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for mkn in itertools.product((1, 2, 3, 4), repeat=3):
            c = AntennaConfig(*mkn)
            for variant in _ENGINES:
                dmt_curve(c, variant, np.linspace(0.0, c.max_mux, 41).tolist())


@pytest.mark.parametrize("k", [2, 3, 5])
def test_batched_tie_rule_holds_per_r(k):
    # on (1, k, 1) between r = 1/(k+1) and 1/2 the minimum is attained at the
    # mirror pair (0, b*, 1) and (0, 1, b*), b* = r/(1 - r); every r of the
    # batch must keep the smaller b, as a solve of that r alone does
    c = AntennaConfig(1, k, 1)
    grid = np.linspace(1.0 / (k + 1), 0.5, 40)[1:-1].tolist()
    d, a, b, s, evaluations = solvers._solve_grid(solvers._two_var_block, c, grid)
    for i, r in enumerate(grid):
        star = r / (1.0 - r)
        face = [diversity_objective(c, ExponentTriple((1.0,), (1.0 - x,), (1.0 - y,)))
                for x, y in ((star, 1.0), (1.0, star))]
        assert face == pytest.approx([d[i], d[i]], abs=1e-9)  # a real tie
        assert (a[i], s[i]) == (0.0, 1.0)
        assert b[i] == pytest.approx(star, abs=1e-12)
        res = solve_two_var(c, r)
        assert (res.d, res.argmin, res.evaluations) == (
            d[i], LevelTriple(a[i], b[i], s[i]), evaluations[i])
        assert d[i] == pytest.approx(dmt_1k1(k, r), abs=1e-9)


@pytest.mark.parametrize("variant", VARIANTS)
def test_dmt_curve_one_point_grid(variant):
    c = AntennaConfig(*_VARIANT_CONFIGS[variant])
    r = c.max_mux / 3.0
    (point,) = dmt_curve(c, variant, [r]).points
    assert point.r == r and point.d >= 0.0
    if variant in _ENGINES:
        assert point.d == _ENGINES[variant][1](c, r).d


@pytest.mark.parametrize("variant", _ENGINES)
def test_batched_engine_refuses_a_bad_r_mid_grid(variant):
    c = AntennaConfig(1, 2, 1)
    step = solvers._PASS_CELLS // solvers._CELLS_PER_R[_ENGINES[variant][0]](c)
    grid = np.linspace(0.0, 1.0, 2 * step).tolist()
    for bad in (1.5, -0.5, float("nan")):
        with pytest.raises(DomainError):
            dmt_curve(c, variant, grid[:step + 8] + [bad] + grid[step + 8:])
    with pytest.raises(DomainError, match=r"r=1\.5 outside \[0, 1\.0\]"):
        dmt_curve(c, variant, [0.25, 1.5, 0.75])
