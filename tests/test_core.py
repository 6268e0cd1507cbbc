import math

import numpy as np
import pytest

from relaydmt import (
    AntennaConfig,
    ConfigurationError,
    DmtCurve,
    DomainError,
    ExponentTriple,
    density_exponent,
    diversity_objective,
    exponent_profile,
    fd_dmt,
    in_support,
    ptp_dmt,
    rate_exponent,
)


def make_triple(alpha, beta, delta):
    return ExponentTriple(tuple(alpha), tuple(beta), tuple(delta))


def random_cube_triple(rng, config):
    return make_triple(
        np.sort(rng.uniform(0.0, 1.0, config.u)),
        np.sort(rng.uniform(0.0, 1.0, config.p)),
        np.sort(rng.uniform(0.0, 1.0, config.q)),
    )


# ---------------------------------------------------------------------------
# AntennaConfig


def test_config_derived_dimensions():
    c = AntennaConfig(3, 2, 1)
    assert (c.u, c.p, c.q) == (1, 2, 1)
    assert c.max_mux == 1
    assert c.swapped() == AntennaConfig(1, 2, 3)


@pytest.mark.parametrize("bad", [(0, 1, 1), (1, -2, 1), (1, 1, 0)])
def test_config_rejects_nonpositive(bad):
    with pytest.raises(ConfigurationError):
        AntennaConfig(*bad)


def test_triple_rejects_unordered():
    with pytest.raises(DomainError):
        make_triple([0.5, 0.2], [0.0], [0.0])


# ---------------------------------------------------------------------------
# point-to-point and full-duplex curves


def test_ptp_corner_and_interpolation():
    assert ptp_dmt(3, 2, 1.0) == 2.0
    assert ptp_dmt(2, 2, 2.0) == 0.0
    assert ptp_dmt(2, 2, 0.5) == 2.5
    assert ptp_dmt(4, 4, 0.0) == 16.0


def test_ptp_symmetry_on_dense_grid():
    for nt, nr in [(1, 3), (2, 5), (3, 4)]:
        for r in np.linspace(0, min(nt, nr), 37):
            assert ptp_dmt(nt, nr, r) == pytest.approx(ptp_dmt(nr, nt, r), abs=1e-12)


def test_ptp_domain_errors():
    with pytest.raises(DomainError):
        ptp_dmt(2, 2, -0.1)
    with pytest.raises(DomainError):
        ptp_dmt(2, 3, 2.5)
    with pytest.raises(ConfigurationError):
        ptp_dmt(0, 2, 0.0)


def test_fd_examples():
    assert fd_dmt(AntennaConfig(1, 1, 1), 0.0) == 2.0
    assert fd_dmt(AntennaConfig(1, 1, 1), 1.0) == 0.0
    assert fd_dmt(AntennaConfig(2, 1, 2), 1.0) == 2.0


# ---------------------------------------------------------------------------
# objective and density functionals


def test_objective_values_1k1():
    c = AntennaConfig(1, 1, 1)
    assert diversity_objective(c, make_triple([1], [0], [1])) == 2.0
    assert diversity_objective(c, make_triple([0], [0], [0])) == -2.0
    assert diversity_objective(c, make_triple([1], [1], [1])) == 3.0


def test_density_values():
    c = AntennaConfig(1, 1, 1)
    assert density_exponent(c, make_triple([1], [0], [1])) == 2.0
    assert density_exponent(c, make_triple([2], [1], [1])) == 4.0


def test_length_mismatch_raises():
    c = AntennaConfig(2, 2, 2)
    with pytest.raises(ConfigurationError):
        diversity_objective(c, make_triple([0.5], [0.5], [0.5]))
    with pytest.raises(ConfigurationError):
        density_exponent(c, make_triple([0.5], [0.5], [0.5]))


@pytest.mark.parametrize("mkn", [(1, 1, 1), (2, 2, 2), (3, 2, 1), (1, 4, 2), (2, 1, 3)])
def test_objective_equals_density_on_cube(mkn):
    c = AntennaConfig(*mkn)
    rng = np.random.default_rng(42)
    for _ in range(10_000):
        t = random_cube_triple(rng, c)
        assert diversity_objective(c, t) == pytest.approx(
            density_exponent(c, t), abs=1e-12
        )


# ---------------------------------------------------------------------------
# support set


def test_support_examples():
    c = AntennaConfig(1, 1, 1)
    assert in_support(c, make_triple([0.6], [0.5], [0.4]))
    assert not in_support(c, make_triple([0.3], [0.5], [0.9]))
    assert in_support(c, make_triple([1], [1], [1]))


def test_support_negative_entries_rejected():
    c = AntennaConfig(1, 1, 1)
    assert not in_support(c, make_triple([-0.5], [1.6], [1.6]))
    assert in_support(c, make_triple([-0.5], [1.6], [1.6]), slack=0.6)


def test_support_refuses_non_finite_slack():
    c = AntennaConfig(1, 1, 1)
    zero = make_triple([0.0], [0.0], [0.0])
    assert not in_support(c, zero)
    for slack in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            in_support(c, zero, slack=slack)
    # a negative slack tightens: a triple on the boundary drops out
    edge = make_triple([0.5], [0.5], [0.5])
    assert in_support(c, edge)
    assert not in_support(c, edge, slack=-0.1)


def test_support_closure_of_profiles():
    rng = np.random.default_rng(7)
    for mkn in [(1, 1, 1), (2, 2, 2), (3, 1, 2), (1, 3, 2), (4, 2, 3)]:
        c = AntennaConfig(*mkn)
        for _ in range(10_000 // 5):
            a = rng.uniform(0, c.u)
            b = rng.uniform(0, min(c.p, c.m - a))
            s = rng.uniform(0, min(c.q, c.n - a))
            t = make_triple(
                exponent_profile(a, c.u),
                exponent_profile(b, c.p),
                exponent_profile(s, c.q),
            )
            assert in_support(c, t), (mkn, a, b, s)


# ---------------------------------------------------------------------------
# rate exponent


def test_rate_exponent_values():
    assert rate_exponent(make_triple([1], [0], [1])) == 0.0
    assert rate_exponent(make_triple([0], [0], [0])) == 1.5
    assert rate_exponent(make_triple([1], [1], [1])) == 0.0


def test_rate_exponent_of_profiles_matches_levels():
    rng = np.random.default_rng(11)
    for mkn in [(1, 1, 1), (2, 2, 2), (3, 2, 1), (2, 4, 3)]:
        c = AntennaConfig(*mkn)
        for _ in range(2500):
            a = rng.uniform(0, c.u)
            b = rng.uniform(0, c.p)
            s = rng.uniform(0, c.q)
            t = make_triple(
                exponent_profile(a, c.u),
                exponent_profile(b, c.p),
                exponent_profile(s, c.q),
            )
            expect = a + (b * s / (b + s) if b > 0 and s > 0 else 0.0)
            assert rate_exponent(t) == pytest.approx(expect, abs=1e-12)


# ---------------------------------------------------------------------------
# level profiles


def test_profile_examples():
    assert exponent_profile(1.5, 2) == (0.0, 0.5)
    assert exponent_profile(0.0, 3) == (1.0, 1.0, 1.0)
    assert exponent_profile(3.0, 3) == (0.0, 0.0, 0.0)


def test_profile_consistency():
    rng = np.random.default_rng(3)
    for length in range(1, 6):
        for _ in range(2000):
            level = rng.uniform(0, length)
            v = exponent_profile(level, length)
            assert sum(1.0 - x for x in v) == pytest.approx(level, abs=1e-12)
            assert all(0.0 <= x <= 1.0 for x in v)
            assert all(b >= a for a, b in zip(v, v[1:]))


def test_profile_domain_errors():
    with pytest.raises(DomainError):
        exponent_profile(-0.5, 2)
    with pytest.raises(DomainError):
        exponent_profile(2.5, 2)
    with pytest.raises(DomainError):
        exponent_profile(float("nan"), 2)
    with pytest.raises(DomainError):
        exponent_profile(0.5, 0)


# ---------------------------------------------------------------------------
# objective monotonicity along saturated boundaries


@pytest.mark.parametrize("mkn", [(2, 2, 2), (3, 2, 2), (2, 3, 2), (3, 1, 3)])
def test_objective_decreases_when_source_side_saturated(mkn):
    c = AntennaConfig(*mkn)
    rng = np.random.default_rng(13)
    lo_a = max(0.0, c.m - c.p)
    hi_a = min(c.u, c.m)
    for _ in range(1000):
        a1, a2 = np.sort(rng.uniform(lo_a, hi_a, 2))
        s = rng.uniform(0, c.q)
        t1 = make_triple(
            exponent_profile(a1, c.u),
            exponent_profile(c.m - a1, c.p),
            exponent_profile(s, c.q),
        )
        t2 = make_triple(
            exponent_profile(a2, c.u),
            exponent_profile(c.m - a2, c.p),
            exponent_profile(s, c.q),
        )
        assert diversity_objective(c, t2) <= diversity_objective(c, t1) + 1e-9


@pytest.mark.parametrize("mkn", [(2, 2, 2), (3, 2, 2), (2, 3, 2)])
def test_objective_decreases_when_destination_side_saturated(mkn):
    c = AntennaConfig(*mkn)
    rng = np.random.default_rng(17)
    lo_a = max(0.0, c.n - c.q)
    hi_a = min(c.u, c.n)
    for _ in range(1000):
        a1, a2 = np.sort(rng.uniform(lo_a, hi_a, 2))
        b = rng.uniform(0, c.p)
        t1 = make_triple(
            exponent_profile(a1, c.u),
            exponent_profile(b, c.p),
            exponent_profile(c.n - a1, c.q),
        )
        t2 = make_triple(
            exponent_profile(a2, c.u),
            exponent_profile(b, c.p),
            exponent_profile(c.n - a2, c.q),
        )
        assert diversity_objective(c, t2) <= diversity_objective(c, t1) + 1e-9


# ---------------------------------------------------------------------------
# curve container


def test_curve_validation():
    c = AntennaConfig(1, 1, 1)
    curve = DmtCurve(c, "ptp", ((0.0, 1.0), (0.5, 0.5), (1.0, 0.0)))
    assert curve.points[1].d == 0.5
    assert curve.to_record()["config"] == {"m": 1, "k": 1, "n": 1}
    with pytest.raises(DomainError):
        DmtCurve(c, "ptp", ((0.0, 1.0), (0.0, 0.5)))
    with pytest.raises(DomainError):
        DmtCurve(c, "ptp", ((0.0, 0.5), (0.5, 1.0)))


# ---------------------------------------------------------------------------
# public surface


def test_public_names_are_pinned():
    # a change to the package surface must show up here as a test diff
    import relaydmt

    assert sorted(relaydmt.__all__) == [
        "AntennaConfig", "ChannelSample", "ConfigurationError", "CutsetTerms",
        "DmtCurve", "DmtPoint", "DomainError", "ExponentTriple",
        "IndependenceReport", "InsufficientDataError", "LevelTriple",
        "OutageEstimate", "SlopeFit", "SolveResult", "SolverRefusal", "VARIANTS",
        "__version__", "channel_rng", "conditional_independence_check",
        "cutset_terms", "density_exponent", "diversity_fit", "diversity_objective",
        "dmt_1k1", "dmt_curve", "dmt_ddf_1k1", "dmt_n1n", "dmt_static_1k1",
        "dmt_symmetric_upper", "eigen_exponents", "exponent_profile", "fd_dmt",
        "in_support", "optimal_switch_time", "outage_probabilities",
        "outage_probability", "ptp_dmt", "rate_exponent", "rate_upper",
        "run_verify", "sample_channel",
        "solve_general_grid", "solve_static", "solve_static_n1n", "solve_two_var",
    ]
    assert all(hasattr(relaydmt, name) for name in relaydmt.__all__)
