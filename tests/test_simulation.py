import math

import numpy as np
import pytest

from relaydmt import AntennaConfig, DomainError, ExponentTriple
from relaydmt.simulate import (
    BLOCK_SIZE,
    ChannelSample,
    CutsetTerms,
    InsufficientDataError,
    OutageEstimate,
    channel_rng,
    conditional_independence_check,
    cutset_terms,
    diversity_fit,
    eigen_exponents,
    optimal_switch_time,
    outage_probabilities,
    outage_probability,
    rate_upper,
    sample_channel,
    _block_channels,
    _cut_log2dets,
    _eigen_exponent_rows,
    _switch_and_rate,
)


def scalar_sample(h_sd, h_sr, h_rd):
    return ChannelSample(
        h_sd=np.array([[h_sd]], dtype=complex),
        h_sr=np.array([[h_sr]], dtype=complex),
        h_rd=np.array([[h_rd]], dtype=complex),
    )


# ---------------------------------------------------------------------------
# channel sampling


def test_sample_channel_deterministic():
    c = AntennaConfig(2, 1, 2)
    s1 = sample_channel(c, channel_rng(123))
    s2 = sample_channel(c, channel_rng(123))
    assert np.array_equal(s1.h_sd, s2.h_sd)
    assert np.array_equal(s1.h_sr, s2.h_sr)
    assert np.array_equal(s1.h_rd, s2.h_rd)


def test_sample_channel_shapes():
    s = sample_channel(AntennaConfig(1, 4, 1), channel_rng(0))
    assert s.h_sd.shape == (1, 1)
    assert s.h_sr.shape == (4, 1)
    assert s.h_rd.shape == (1, 4)


def test_sample_channel_unit_second_moment():
    # sample_channel is a block of one, so one large block checks its moment
    c = AntennaConfig(2, 2, 2)
    block = _block_channels(c, channel_rng(9), 100_000)
    moments = [np.mean(np.abs(h) ** 2) for h in block]
    assert np.allclose(moments, 1.0, rtol=0.02)


def test_distinct_streams_differ():
    c = AntennaConfig(1, 1, 1)
    s0 = sample_channel(c, channel_rng(5, 0))
    s1 = sample_channel(c, channel_rng(5, 1))
    assert not np.array_equal(s0.h_sd, s1.h_sd)


# ---------------------------------------------------------------------------
# cut-set terms


def test_cutset_zero_channel():
    t = cutset_terms(scalar_sample(0, 0, 0), 7.0)
    assert (t.log_l_sd, t.log_l_srd, t.log_l_s_rd) == (0.0, 0.0, 0.0)


def test_cutset_unit_direct_channel():
    t = cutset_terms(scalar_sample(1, 0, 0), 3.0)
    assert t.log_l_sd == pytest.approx(2.0, abs=1e-12)
    assert t.log_l_srd == pytest.approx(2.0, abs=1e-12)
    assert t.log_l_s_rd == pytest.approx(2.0, abs=1e-12)


def test_cutset_psd_monotonicity():
    c = AntennaConfig(2, 2, 2)
    l_sd, l_srd, l_s_rd = _cut_log2dets(50.0, *_block_channels(c, channel_rng(21), 2000))
    assert np.all(l_srd >= l_sd - 1e-9)
    assert np.all(l_s_rd >= l_sd - 1e-9)
    assert np.all(l_sd >= -1e-9)


@pytest.mark.parametrize(
    "mkn", [(1, 1, 1), (2, 2, 2), (3, 3, 3), (3, 2, 2), (1, 3, 2), (4, 4, 4), (1, 1, 4)]
)
def test_cutset_agrees_with_direct_determinant(mkn):
    # Gram sides 1-4, and the smaller Gram side on either side of each cut
    c = AntennaConfig(*mkn)
    rng = channel_rng(33)

    def direct(rho, h):
        return np.log2(np.linalg.det(np.eye(h.shape[0]) + rho * h @ h.conj().T).real)

    for rho in (1.0, 100.0, 1e4):
        s = sample_channel(c, rng)
        t = cutset_terms(s, rho)
        assert t.log_l_sd == pytest.approx(direct(rho, s.h_sd), rel=1e-9)
        joint = np.concatenate([s.h_sd, s.h_rd], axis=1)
        assert t.log_l_srd == pytest.approx(direct(rho, joint), rel=1e-9)
        listen = np.concatenate([s.h_sr, s.h_sd], axis=0)
        assert t.log_l_s_rd == pytest.approx(direct(rho, listen), rel=1e-9)


def eigen_log2det(rho, h):
    """log2 det(I + rho h h') per sample, from the eigenvalues of the Gram
    matrix of the smaller side of h."""
    if h.shape[1] > h.shape[2]:
        h = h.conj().transpose(0, 2, 1)
    eig = np.clip(np.linalg.eigvalsh(h @ h.conj().transpose(0, 2, 1)), 0.0, None)
    return np.log1p(rho * eig).sum(axis=1) / math.log(2.0)


@pytest.mark.parametrize(
    "mkn", [(1, 1, 1), (2, 2, 2), (3, 3, 3), (4, 4, 4), (3, 1, 2), (1, 1, 4), (4, 2, 1)]
)
def test_cut_kernel_matches_eigenvalue_route(mkn):
    # Gram sides 1-4, the smaller side on either side of each cut, and cuts
    # whose fixed side would exceed their rank: n > m + k, m > k + n
    c = AntennaConfig(*mkn)
    h_sd, h_sr, h_rd = _block_channels(c, channel_rng(41), 4096)
    for rho in (1.0, 1e4, 1e8):
        got = _cut_log2dets(rho, h_sd, h_sr, h_rd)
        want = (
            eigen_log2det(rho, h_sd),
            eigen_log2det(rho, np.concatenate([h_sd, h_rd], axis=2)),
            eigen_log2det(rho, np.concatenate([h_sr, h_sd], axis=1)),
        )
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) <= 1e-9


@pytest.mark.parametrize("mkn", [(2, 2, 2), (1, 1, 4), (4, 2, 1)])
def test_cutset_terms_equals_its_block_row(mkn):
    # the scalar path is a batch of one: the per-sample outage oracle
    # recounts blocks with it, so it must agree bit for bit
    c = AntennaConfig(*mkn)
    block = _block_channels(c, channel_rng(43), 256)
    l_sd, l_srd, l_s_rd = _cut_log2dets(1e3, *block)
    for i in range(256):
        t = cutset_terms(ChannelSample(*(np.ascontiguousarray(h[i]) for h in block)), 1e3)
        assert (t.log_l_sd, t.log_l_srd, t.log_l_s_rd) == (l_sd[i], l_srd[i], l_s_rd[i])


def test_cutset_rejects_bad_input():
    for rho in (0.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            cutset_terms(scalar_sample(1, 1, 1), rho)
    with pytest.raises(ValueError):
        cutset_terms(scalar_sample(np.nan, 1, 1), 2.0)


# ---------------------------------------------------------------------------
# switch time and rate ceiling


def test_switch_time_conventions():
    symmetric = CutsetTerms(log_l_sd=3.0, log_l_srd=5.0, log_l_s_rd=5.0, rho=10.0)
    assert optimal_switch_time(symmetric) == 0.5
    one_sided = CutsetTerms(log_l_sd=3.0, log_l_srd=3.0, log_l_s_rd=6.0, rho=10.0)
    assert optimal_switch_time(one_sided) == 0.0
    dead = CutsetTerms(log_l_sd=3.0, log_l_srd=3.0, log_l_s_rd=3.0, rho=10.0)
    assert optimal_switch_time(dead) == 0.5


def test_rate_upper_values():
    dead = CutsetTerms(log_l_sd=5.0, log_l_srd=5.0, log_l_s_rd=5.0, rho=10.0)
    assert rate_upper(dead) == 5.0
    live = CutsetTerms(log_l_sd=3.0, log_l_srd=5.0, log_l_s_rd=5.0, rho=10.0)
    assert rate_upper(live) == pytest.approx(4.0, abs=1e-12)


def test_switch_time_and_rate_bounds_on_samples():
    c = AntennaConfig(1, 2, 3)
    rng = channel_rng(2)
    for _ in range(500):
        t = cutset_terms(sample_channel(c, rng), 30.0)
        assert 0.0 <= optimal_switch_time(t) <= 1.0
        assert rate_upper(t) >= t.log_l_sd - 1e-12


# ---------------------------------------------------------------------------
# eigenvalue exponents


def test_eigen_exponents_unit_direct():
    t = eigen_exponents(scalar_sample(1, 0.5, 0.5), 100.0)
    assert t.alpha[0] == pytest.approx(0.0, abs=1e-12)


def test_eigen_exponents_shapes_and_order():
    c = AntennaConfig(3, 2, 2)
    s = sample_channel(c, channel_rng(4))
    t = eigen_exponents(s, 1e4)
    assert (len(t.alpha), len(t.beta), len(t.delta)) == (c.u, c.p, c.q)
    assert list(t.alpha) == sorted(t.alpha)
    assert list(t.beta) == sorted(t.beta)


def test_eigen_exponents_floor_handles_zero_channel():
    t = eigen_exponents(scalar_sample(0, 0, 0), 100.0)
    assert all(math.isfinite(x) for x in t.alpha + t.beta + t.delta)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_eigen_exponents_rejects_non_finite_channel(bad):
    # the sample refuses the entry before either solve runs
    with pytest.raises(DomainError, match="non-finite entries"):
        eigen_exponents(scalar_sample(1, bad, 1), 100.0)


def test_eigen_exponents_requires_rho_above_one():
    for rho in (1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            eigen_exponents(scalar_sample(1, 1, 1), rho)


@pytest.mark.parametrize("mkn", [(2, 2, 2), (1, 1, 4), (4, 2, 1), (3, 2, 3)])
def test_eigen_exponents_equals_its_block_row(mkn):
    # the scalar path is a batch of one, so it must agree bit for bit
    c = AntennaConfig(*mkn)
    block = _block_channels(c, channel_rng(47), 256)
    rows = _eigen_exponent_rows(1e3, *block)
    for i in range(256):
        t = eigen_exponents(ChannelSample(*(np.ascontiguousarray(h[i]) for h in block)), 1e3)
        assert (t.alpha, t.beta, t.delta) == tuple(tuple(r[i].tolist()) for r in rows)


def test_support_violations_shrink_with_snr():
    from relaydmt import in_support

    c = AntennaConfig(1, 1, 1)
    block = _block_channels(c, channel_rng(13), 2000)
    fractions = []
    for rho in (1e2, 1e4, 1e6):
        rows = zip(*(r.tolist() for r in _eigen_exponent_rows(rho, *block)))
        bad = sum(not in_support(c, ExponentTriple(*t), slack=0.1) for t in rows)
        fractions.append(bad / 2000)
    assert fractions[0] > fractions[1] > fractions[2]


# ---------------------------------------------------------------------------
# outage estimation


def test_outage_reproducible_and_worker_invariant():
    c = AntennaConfig(1, 1, 1)
    a = outage_probability(c, 100.0, 0.5, 20_000, seed=7, workers=1)
    b = outage_probability(c, 100.0, 0.5, 20_000, seed=7, workers=3)
    assert a.p_out == b.p_out
    # pinned across versions: a change to the draw, the block layout or the
    # cut kernel that moves the count fails here
    assert a.events == 350
    # Wilson score interval: half-length from its two explicit endpoints
    n, p, z = a.n_samples, a.p_out, 1.96
    centre = (p + z * z / (2 * n)) / (1 + z * z / n)
    spread = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / (1 + z * z / n)
    lo, hi = centre - spread, centre + spread
    assert a.ci_half_width == pytest.approx((hi - lo) / 2)


def test_outage_interval_positive_with_zero_events():
    est = outage_probability(AntennaConfig(2, 2, 2), 10.0**3.5, 1.0, 2000, seed=0)
    assert est.p_out == 0.0 and est.events == 0
    # no events still leaves the rule of three's order of uncertainty
    assert 0.0 < est.ci_half_width < 3.0 / 2000


def test_outage_matches_per_sample_oracle():
    # independent recount over the identical stream, drawn here by hand
    c = AntennaConfig(2, 1, 2)
    rho, r, n = 50.0, 1.0, 3000
    est = outage_probability(c, rho, r, n, seed=3)
    rng = channel_rng(3, 0)
    h_sd = np.empty((n, c.n, c.m), dtype=complex)
    h_sr = np.empty((n, c.k, c.m), dtype=complex)
    h_rd = np.empty((n, c.n, c.k), dtype=complex)
    scale = math.sqrt(0.5)
    for h, shape in ((h_sd, (n, c.n, c.m)), (h_sr, (n, c.k, c.m)), (h_rd, (n, c.n, c.k))):
        h[:] = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    _, rate = _switch_and_rate(*_cut_log2dets(rho, h_sd, h_sr, h_rd))
    count = int((rate < r * math.log2(rho)).sum())
    assert est.p_out == pytest.approx(count / n, abs=1e-12)


def test_outage_monotone_in_snr_and_rate():
    c = AntennaConfig(1, 1, 1)
    n = 40_000
    lo = outage_probability(c, 10.0, 0.5, n, seed=5)
    hi = outage_probability(c, 1000.0, 0.5, n, seed=5)
    assert hi.p_out < lo.p_out - (hi.ci_half_width + lo.ci_half_width)
    small = outage_probability(c, 100.0, 0.3, n, seed=5)
    large = outage_probability(c, 100.0, 0.8, n, seed=5)
    assert large.p_out > small.p_out + (small.ci_half_width + large.ci_half_width)


def test_outage_rejects_degenerate_requests():
    c = AntennaConfig(2, 1, 2)
    with pytest.raises(DomainError):
        outage_probability(c, 100.0, 0.0, 5000, seed=1)
    with pytest.raises(DomainError):
        outage_probability(c, 100.0, 2.0, 5000, seed=1)
    for r in (math.nan, math.inf):
        with pytest.raises(DomainError):
            outage_probability(c, 100.0, r, 5000, seed=1)
    with pytest.raises(DomainError):
        outage_probability(c, 100.0, 0.5, 100, seed=1)
    with pytest.raises(DomainError):
        outage_probability(c, 0.5, 0.5, 5000, seed=1)
    # a sweep rejects an empty grid and a bad SNR anywhere in it
    for rhos in ((), (100.0, 0.5), (10.0, 100.0, 1.0), (math.inf, 10.0), (10.0, math.nan)):
        with pytest.raises(DomainError):
            outage_probabilities(c, rhos, 0.5, 5000, seed=1)


@pytest.mark.parametrize("mkn", [(1, 1, 1), (2, 2, 2), (3, 1, 2), (1, 1, 4)])
def test_outage_sweep_equals_pointwise_calls(mkn):
    # a partial block, and in it a partial slice of the Gram build
    c = AntennaConfig(*mkn)
    rhos = (10.0, 100.0, 1000.0)
    r = 0.9 * c.max_mux
    n = BLOCK_SIZE + 1234
    sweep = outage_probabilities(c, rhos, r, n, seed=11)
    assert sweep == [outage_probability(c, rho, r, n, seed=11) for rho in rhos]
    # the same counts from the cut kernel on whole, unsliced blocks
    blocks = [
        _block_channels(c, channel_rng(11, i), size) for i, size in ((0, BLOCK_SIZE), (1, 1234))
    ]
    for e, rho in zip(sweep, rhos):
        rates = [_switch_and_rate(*_cut_log2dets(rho, *block))[1] for block in blocks]
        assert e.events == sum(int((rate < r * math.log2(rho)).sum()) for rate in rates)
        assert isinstance(e.events, int) and e.events > 0 and e.events / n == e.p_out


# ---------------------------------------------------------------------------
# slope fitting


def synthetic_estimates(c0, d, rhos, n=10**6):
    return [
        OutageEstimate(rho=rho, r=0.5, p_out=c0 * rho ** (-d), n_samples=n, ci_half_width=0.0)
        for rho in rhos
    ]


def test_diversity_fit_exact_power_law():
    fit = diversity_fit(synthetic_estimates(1.0, 1.0, [10, 100, 1000, 10000]))
    assert fit.slope == pytest.approx(1.0, abs=1e-9)
    assert fit.stderr == pytest.approx(0.0, abs=1e-9)


def test_diversity_fit_intercept_invariance():
    for c0 in (0.3, 3.0):
        fit = diversity_fit(synthetic_estimates(c0, 2.0, [10, 100, 1000], n=10**10))
        assert fit.slope == pytest.approx(2.0, abs=1e-9)


def test_diversity_fit_filters_unreliable_points():
    rhos = [10, 100, 1000, 10000]
    ests = synthetic_estimates(1.0, 1.0, rhos)
    # starve the last point below the 20-event reliability floor
    starved = ests[:-1] + [
        OutageEstimate(rho=10000, r=0.5, p_out=1e-4, n_samples=1000, ci_half_width=0.0)
    ]
    fit = diversity_fit(starved)
    assert 10000 not in fit.rho_grid
    assert len(fit.rho_grid) == 3


def test_diversity_fit_insufficient_points():
    with pytest.raises(InsufficientDataError):
        diversity_fit(synthetic_estimates(1.0, 1.0, [10, 100]))


def test_diversity_fit_rejects_a_single_snr():
    with pytest.raises(DomainError):
        diversity_fit(synthetic_estimates(1.0, 1.0, [100, 100, 100]))


def test_diversity_fit_matches_linregress():
    stats = pytest.importorskip("scipy.stats")
    rhos = [10.0, 100.0, 1000.0, 10000.0, 100000.0]
    jitter = [0.13, -0.21, 0.05, 0.17, -0.09]  # decades of noise on p_out
    ests = [
        OutageEstimate(rho=rho, r=0.5, p_out=0.3 * rho**-1.2 * 10**e, n_samples=10**9,
                       ci_half_width=0.0)
        for rho, e in zip(rhos, jitter)
    ]
    fit = diversity_fit(ests)
    ref = stats.linregress(np.log10(rhos), -np.log10([e.p_out for e in ests]))
    assert abs(fit.slope - ref.slope) <= 1e-12
    assert abs(fit.stderr - ref.stderr) <= 1e-12
    assert fit.stderr > 0.0


# ---------------------------------------------------------------------------
# conditional independence report


def test_independence_report_mechanics():
    rep = conditional_independence_check(
        AntennaConfig(1, 1, 1), 100.0, 20_000, 10, seed=5
    )
    assert rep.n_bins == 10
    assert sum(rep.bin_counts) == 20_000
    assert min(rep.bin_counts) >= 1000
    assert len(rep.correlations) == 10
    # pairing carries real structure the shuffled control lacks
    assert rep.control_max_abs_corr < 0.06
    assert abs(rep.unconditional_corr) > 0.2
    rep2 = conditional_independence_check(
        AntennaConfig(1, 1, 1), 100.0, 20_000, 10, seed=5
    )
    assert rep.correlations == rep2.correlations


def test_independence_report_reduces_overfine_binning():
    rep = conditional_independence_check(
        AntennaConfig(1, 1, 1), 100.0, 1000, 400, seed=1
    )
    assert rep.n_bins <= 20
    assert rep.note != ""


def test_independence_report_rejects_bad_requests():
    c = AntennaConfig(1, 1, 1)
    for rho in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(DomainError, match="rho must be positive and finite"):
            conditional_independence_check(c, rho, 2000, 10, seed=1)
    for n_bins in (0, -3):
        with pytest.raises(DomainError, match="at least 1 bin"):
            conditional_independence_check(c, 100.0, 2000, n_bins, seed=1)


def test_interior_bins_decorrelate():
    # away from the extreme bins the conditioning is sharp enough for the
    # correlations to sit at noise level
    rep = conditional_independence_check(
        AntennaConfig(1, 1, 1), 100.0, 100_000, 20, seed=5
    )
    interior = np.abs(rep.correlations[2:-2])
    assert interior.max() < 0.05


def test_fine_conditioning_reaches_noise_level():
    # thin quantile bins remove the shared 1/(1+rho*lambda) factor, so the
    # paired statistic becomes indistinguishable from the shuffled control
    coarse = conditional_independence_check(
        AntennaConfig(1, 1, 1), 100.0, 10**5, 20, seed=7
    )
    fine = conditional_independence_check(
        AntennaConfig(1, 1, 1), 100.0, 10**6, 200, seed=7
    )
    assert fine.max_abs_corr < coarse.max_abs_corr / 2
    assert fine.max_abs_corr <= fine.control_max_abs_corr + 0.02
