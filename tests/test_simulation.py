import functools
import importlib.util
import itertools
import math
import os
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from relaydmt import AntennaConfig, DomainError, ExponentTriple, simulate
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
    _CHUNK,
    _block_channels,
    _block_normals,
    _blocks,
    _composite_grams,
    _cut_log2dets,
    _direct_pass,
    _eigen_exponent_rows,
    _links,
    _switch_and_rate,
    _walk_channels,
)


DEMO = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos", "exponent_statistics.py"
)


def _parts(config, rng, count):
    """A block's raw parts drawn serially: both stages of ``_block_normals``."""
    return [link for stage in _block_normals(config, rng, count) for link in stage]


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


@pytest.mark.parametrize("mkn", [(2, 2, 2), (2, 1, 3)])
def test_block_normals_are_the_pinned_draws(mkn):
    # one standard_normal call per array, in the contract's order: direct,
    # in-hop, out-hop, real before imaginary; the same into buffers longer
    # than the block, whose fronts the parts then are
    m, k, n = mkn
    rng = channel_rng(3, 1)
    shapes = [(1000, rows, cols) for rows, cols in ((n, m), (k, m), (n, k)) for _ in range(2)]
    serial = [rng.standard_normal(shape) for shape in shapes]
    c = AntennaConfig(*mkn)
    buffers = [np.full(2 * 1500 * n * m, np.nan), np.full(2 * 1500 * (k * m + n * k), np.nan)]
    for given in ((None, None), buffers):
        stages = list(_block_normals(c, channel_rng(3, 1), 1000, given))
        assert [len(stage) for stage in stages] == [1, 2]
        parts = [p for stage in stages for link in stage for p in link]
        assert [p.dtype for p in parts] == [np.float64] * 6
        assert [p.shape for p in parts] == shapes
        assert [p.tobytes() for p in parts] == [h.tobytes() for h in serial]
    direct, in_hop, out_hop = (link[0] for stage in stages for link in stage)
    assert np.shares_memory(direct, buffers[0]) and np.shares_memory(out_hop, buffers[1])
    assert np.isnan(buffers[0][2 * 1000 * n * m :]).all()


def test_block_channels_are_samples_first_views_of_samples_last_links():
    c = AntennaConfig(2, 1, 3)
    count = 1000
    block = _block_channels(c, channel_rng(5), count)
    assert [h.shape for h in block] == [(count, 3, 2), (count, 1, 2), (count, 3, 1)]
    for h in block:
        assert h.dtype == complex
        assert h.strides == (16, h.shape[2] * count * 16, count * 16)
        assert h.transpose(1, 2, 0).flags.c_contiguous


def test_links_equal_the_picked_rows_of_the_block():
    # a whole slice, a partial last slice and a sorted index array, built
    # from the raw parts: byte for byte the block's rows
    c = AntennaConfig(2, 1, 3)
    count = 2 * _CHUNK + 777
    parts = _parts(c, channel_rng(7), count)
    block = _block_channels(c, channel_rng(7), count)
    index = np.sort(np.random.default_rng(0).choice(count, 1500, replace=False))
    for picked in (slice(_CHUNK, 2 * _CHUNK), slice(2 * _CHUNK, 3 * _CHUNK), index):
        for link, h in zip(parts, block):
            got = _links(link, picked)
            rows = h[picked]
            assert got.shape == (*h.shape[1:], len(rows)) and got.flags.c_contiguous
            assert got.transpose(2, 0, 1).tobytes() == rows.tobytes()


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


def test_rate_never_falls_below_the_direct_link():
    # the outage sweep skips the relay cuts of a sample whose l_sd clears the
    # threshold; that is exact only if rate >= l_sd holds bit for bit
    edges = np.array(
        [-1.7e308, -1e300, -1.0, -1e-12, -1e-300, -0.0, 0.0, 1e-300, 1e-13, 5e-13,
         1e-12, 2e-12, 1.0, 3.7, 1e300, 1.7e308]
    )
    triples = [g.ravel() for g in np.meshgrid(edges, edges, edges)]
    rng = np.random.default_rng(5)
    l_sd = rng.standard_normal(200_000) * 10.0 ** rng.uniform(-300, 300, 200_000)
    near = rng.uniform(-1e-12, 1e-12, (2, l_sd.size))  # gains about the 1e-12 cutoff
    with np.errstate(all="ignore"):  # sums past 1.7e308 overflow to inf
        gains = [rng.choice(edges, l_sd.size) * rng.uniform(0, 2, l_sd.size) for _ in range(2)]
        for a, b, c in (
            triples,
            (l_sd, l_sd + gains[0], l_sd + gains[1]),
            (l_sd, l_sd + near[0], l_sd + near[1]),
            (l_sd, gains[0], gains[1]),
        ):
            _, rate = _switch_and_rate(a, b, c)
            assert np.all((rate >= a) | np.isnan(rate))


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


@pytest.mark.parametrize("mkn", [(1, 2, 1), (1, 3, 2), (2, 1, 2)])
def test_composite_grams_divide_1x1_systems_as_solve_does(mkn):
    # W2 at m = 1 and W3 at n = 1 solve 1x1 systems by a division: the same
    # bytes as the batched LAPACK solve
    block = _block_channels(AntennaConfig(*mkn), channel_rng(19), 5000)
    for rho in (1.7, 100.0, 10.0**3.5):
        h_sd, h_sr, h_rd = block
        n, m = h_sd.shape[1:]
        hd_t = h_sd.conj().transpose(0, 2, 1)
        w1 = h_sd @ hd_t
        m2 = np.eye(m) + rho * (hd_t @ h_sd)
        w2 = h_sr @ np.linalg.solve(m2, h_sr.conj().transpose(0, 2, 1))
        w3 = h_rd.conj().transpose(0, 2, 1) @ np.linalg.solve(np.eye(n) + rho * w1, h_rd)
        ref = [0.5 * (w + w.conj().transpose(0, 2, 1)) for w in (w1, w2, w3)]
        got = _composite_grams(rho, *block)
        assert [w.tobytes() for w in got] == [w.tobytes() for w in ref]


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


def _unpruned_recount(c, rhos, r, n, seed):
    """Outage counts from every sample's three cuts, on whole blocks, and the
    share of the samples pass 1 leaves undecided.  On each block pass 1 is
    held to the same cuts: its ``l_sd`` rows are the unpruned ones of the
    samples it keeps, byte for byte, and every sample it decides clears the
    threshold at every SNR."""
    thresholds = np.array([r * math.log2(rho) for rho in rhos])
    counts, undecided_total = [0] * len(rhos), 0

    def pick(direct):  # every sample, and pass 1's verdict on the block
        return slice(None), _direct_pass(direct, rhos, thresholds)

    for (undecided, l_sd), links in _blocks(c, seed, n, pick):
        channels = tuple(link.transpose(2, 0, 1) for link in links)
        decided = np.ones(len(channels[0]), dtype=bool)
        decided[undecided] = False
        undecided_total += len(undecided)
        for i, (rho, threshold) in enumerate(zip(rhos, thresholds)):
            cuts = _cut_log2dets(rho, *channels)
            _, rate = _switch_and_rate(*cuts)
            assert l_sd[i].tobytes() == cuts[0][undecided].tobytes()
            assert (cuts[0][decided] >= threshold).all() and (rate[decided] >= threshold).all()
            counts[i] += int((rate < threshold).sum())
    return counts, undecided_total / n


# (m, k, n), r, SNR grid in dB, bounds on the share pass 1 leaves undecided
PRUNE_CASES = {
    "outage-222": ((2, 2, 2), 1.5, (15, 20, 25, 30, 35), (0.05, 0.15)),
    "outage-333": ((3, 3, 3), 2.9, (20, 25, 30, 35, 40), (0.1, 0.3)),
    # the direct Gram has side 2, the joint cut side 3, the listening cut side 2
    "213": ((2, 1, 3), 1.8, (10, 20, 30), (0.005, 0.05)),
    "312": ((3, 1, 2), 1.8, (10, 20, 30), (0.005, 0.05)),
    "direct-clears-all": ((2, 2, 2), 0.2, (40,), (0.0, 0.0)),
    "direct-clears-few": ((1, 1, 1), 0.99, (10,), (0.5, 0.7)),
}
# (m, k, n), r and SNR grid in dB of a sweep whose direct link is faded
FADED_CASE = ((2, 2, 2), 0.8, (15, 25, 35))


@pytest.mark.parametrize("case", PRUNE_CASES)
def test_pruned_counts_equal_the_unpruned_recount(case):
    # a partial last block; pass 2 empty, almost whole, and in between
    mkn, r, snr_db, (low, high) = PRUNE_CASES[case]
    c = AntennaConfig(*mkn)
    rhos = [10.0 ** (db / 10.0) for db in snr_db]
    n = BLOCK_SIZE + 1234
    events = [e.events for e in outage_probabilities(c, rhos, r, n, seed=13)]
    counts, undecided_share = _unpruned_recount(c, rhos, r, n, seed=13)
    assert events == counts
    assert low <= undecided_share <= high


def _fade_direct_link(monkeypatch):
    """Scale every block's direct link down 100-fold, in the walk's own
    buffer, as it is drawn: it then falls short on almost every sample."""
    draw = simulate._block_normals

    def faded(*args):
        stages = draw(*args)
        direct = next(stages)
        for part in direct[0]:
            part *= 0.01
        yield direct
        yield from stages

    monkeypatch.setattr(simulate, "_block_normals", faded)


def test_pruned_counts_equal_the_unpruned_recount_on_a_faded_direct_link(monkeypatch):
    # the walk lays out nearly the whole block for pass 2
    mkn, r, snr_db = FADED_CASE
    c, seed = AntennaConfig(*mkn), 13
    rhos = [10.0 ** (db / 10.0) for db in snr_db]
    n = BLOCK_SIZE + 1234
    _fade_direct_link(monkeypatch)
    events = [e.events for e in outage_probabilities(c, rhos, r, n, seed)]
    counts, undecided_share = _unpruned_recount(c, rhos, r, n, seed)
    assert events == counts
    assert undecided_share > 0.99
    assert 0 < min(events) and max(events) < n


# (m, k, n), r, SNR grid in dB, whether the direct link is faded, and the
# bound on the peak in blocks
MEMORY_CASES = {
    "outage-222": (*PRUNE_CASES["outage-222"][:3], False, 1.3),
    "outage-333": (*PRUNE_CASES["outage-333"][:3], False, 1.42),
    # about 99% of the samples undecided: their links are a block too
    "faded-direct-link": (*FADED_CASE, True, 2.4),
}


@pytest.mark.parametrize("case", MEMORY_CASES)
def test_sweep_keeps_about_one_block_in_memory(monkeypatch, case):
    # the walk's two buffers (one block of raw parts), the undecided
    # samples' links laid out from them and slices beside these; a
    # block-sized link built on the caller, or a second block drawn, would
    # exceed it.  Each block's pass 2 runs only once the next block is drawn
    # whole, so its links always meet full buffers: the worst case of the
    # overlap.
    mkn, r, snr_db, faded, bound = MEMORY_CASES[case]
    c = AntennaConfig(*mkn)
    rhos = [10.0 ** (db / 10.0) for db in snr_db]
    blocks = 4
    block_bytes = BLOCK_SIZE * (c.n * c.m + c.k * c.m + c.n * c.k) * 16
    outage_probabilities(c, rhos, r, 1000, seed=1)  # lazy imports stay out of the trace
    if faded:
        _fade_direct_link(monkeypatch)
    draw, relay_pass = simulate._block_normals, simulate._relay_pass
    drawn, scored = [], []
    ready = threading.Condition()

    def counted_draw(*args):
        for stage in draw(*args):
            with ready:
                drawn.append(1)
                ready.notify_all()
            yield stage

    def waiting_pass(*args):
        scored.append(1)
        with ready:
            stages = min(2 * (len(scored) + 1), 2 * blocks)
            next_drawn = ready.wait_for(lambda: len(drawn) >= stages, 60.0)
        assert next_drawn
        return relay_pass(*args)

    monkeypatch.setattr(simulate, "_block_normals", counted_draw)
    monkeypatch.setattr(simulate, "_relay_pass", waiting_pass)
    tracemalloc.start()
    try:
        outage_probabilities(c, rhos, r, blocks * BLOCK_SIZE, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(drawn) == 2 * blocks and len(scored) == blocks
    assert peak <= bound * block_bytes, f"peak {peak / block_bytes:.3f} blocks"


# ---------------------------------------------------------------------------
# the sample walk: each block drawn in two stages into two buffers the walk
# reuses, the direct link on the reader's thread and the hops on one worker;
# the reader picks samples from the direct link and gets their links


def _bounded(walk, seconds=60.0):
    """``walk()`` on a daemon thread: a deadlocked walk fails the test
    instead of hanging it.  Returns what ``walk`` returns."""
    outcome = []

    def run():
        try:
            outcome.append((walk(), None))
        except BaseException as error:  # re-raised on the test's thread
            outcome.append((None, error))

    helper = threading.Thread(target=run, daemon=True)
    helper.start()
    helper.join(seconds)
    assert not helper.is_alive(), f"the walk did not end within {seconds} s"
    value, error = outcome[0]
    if error is not None:
        raise error
    return value


def _no_samples(direct):
    """A pick of no sample: the walk then holds its buffers only."""
    return slice(0), None


def _every_third(direct):
    """A pick of every third sample of the block, with the raw parts of the
    direct link as the walk shows them, as (bytes, shape, strides)."""
    seen = [(p.tobytes(), p.shape, p.strides) for p in direct[0]]
    return np.arange(0, len(direct[0][0]), 3), seen


def _read(info, links):
    """A walked block: its info and its links' bytes as samples-first rows.
    The links are arrays of their own, not views of the walk's buffers."""
    assert all(link.flags.owndata and link.flags.c_contiguous for link in links)
    return info, [link.transpose(2, 0, 1).tobytes() for link in links]


def _serial(c, seed, sizes):
    """``_read`` of the blocks of an ``_every_third`` walk drawn one after
    another, each into new arrays."""
    blocks = []
    for i, size in enumerate(sizes):
        direct = _parts(c, channel_rng(seed, i), size)[0]
        rows = [h[::3].tobytes() for h in _block_channels(c, channel_rng(seed, i), size)]
        blocks.append(([(p.tobytes(), p.shape, p.strides) for p in direct], rows))
    return blocks


def test_blocks_prefetch_yields_the_serial_draws():
    # each block is read as the next is drawn into the same buffers, with a
    # partial last block: ``pick`` sees the serial direct link, and the
    # reader gets the picked samples' links, every third sample's or whole
    # triples (``_walk_channels``), of a serial draw
    c = AntennaConfig(2, 1, 3)
    sizes = (BLOCK_SIZE, BLOCK_SIZE, 1234)
    walked = _bounded(lambda: [_read(*block) for block in _blocks(c, 23, sum(sizes), _every_third)])
    assert walked == _serial(c, 23, sizes)
    whole = _bounded(lambda: [[h.tobytes() for h in b] for b in _walk_channels(c, 23, sum(sizes))])
    assert whole == [
        [h.tobytes() for h in _block_channels(c, channel_rng(23, i), size)]
        for i, size in enumerate(sizes)
    ]


def test_blocks_concurrent_walks_under_fast_switching():
    # four walks at once on two cores, with thread switches every 10 us:
    # each still yields its own streams, in order, from its own buffers
    c = AntennaConfig(1, 1, 1)
    sizes = (BLOCK_SIZE, BLOCK_SIZE, 1234)
    results = {}

    def walk(seed):
        results[seed] = [_read(*block) for block in _blocks(c, seed, sum(sizes), _every_third)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        walkers = [threading.Thread(target=walk, args=(seed,), daemon=True) for seed in range(4)]
        for walker in walkers:
            walker.start()
        for walker in walkers:
            walker.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(walker.is_alive() for walker in walkers)
    for seed in range(4):
        assert results[seed] == _serial(c, seed, sizes)


def test_concurrent_sweeps_under_fast_switching(monkeypatch):
    # four sweeps at once on two cores, with thread switches every 10 us:
    # each reader draws its next direct link while its worker draws the
    # hops, and each still counts the samples of a serial, buffer-free walk
    c, n = AntennaConfig(1, 1, 1), 2 * BLOCK_SIZE + 1234

    def sweep(seed):
        return outage_probabilities(c, (10.0, 100.0), 0.5, n, seed=seed)

    with monkeypatch.context() as serial_walk:
        serial_walk.setattr(simulate, "_blocks", _serial_walk)
        serial = {seed: sweep(seed) for seed in range(4)}
    results = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        sweepers = [
            threading.Thread(target=lambda seed=seed: results.update({seed: sweep(seed)}))
            for seed in range(4)
        ]
        for sweeper in sweepers:
            sweeper.start()
        for sweeper in sweepers:
            sweeper.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(sweeper.is_alive() for sweeper in sweepers)
    assert results == serial


def test_blocks_leaves_no_thread_behind():
    c = AntennaConfig(1, 1, 1)
    n = 2 * BLOCK_SIZE + 1

    def full(baseline):
        threads = [threading.active_count() for _ in _blocks(c, 3, n, _no_samples)]
        assert threads[0] == baseline + 1  # the draw thread runs while block 0 is held

    def next_and_drop(baseline):
        next(_blocks(c, 3, n, _no_samples))  # block 1's hops are queued or running

    def broken_off(baseline):
        for _ in _blocks(c, 3, n, _no_samples):
            break

    def consumer_raises(baseline):
        with pytest.raises(KeyError):
            for _ in _blocks(c, 3, n, _no_samples):
                raise KeyError("scoring failed")

    def single_block(baseline):
        for _ in _blocks(c, 3, BLOCK_SIZE, _no_samples):
            assert threading.active_count() == baseline + 1  # drawn on the worker too

    def extra_threads_after(walk):
        baseline = threading.active_count()
        walk(baseline)
        return threading.active_count() - baseline

    for walk in (full, next_and_drop, broken_off, consumer_raises, single_block):
        assert _bounded(functools.partial(extra_threads_after, walk)) == 0, walk.__name__


def _sweep(n):
    return outage_probabilities(AntennaConfig(1, 1, 1), (100.0,), 0.5, n, seed=1)


def _independence(n):
    return conditional_independence_check(AntennaConfig(1, 1, 1), 100.0, n, 5, seed=1)


def _serial_walk(config, seed, n_samples, pick):
    """``_blocks`` with neither a thread nor buffers: each block drawn into
    new arrays on the caller's thread, then its picked samples' links."""
    for index, start in enumerate(range(0, n_samples, BLOCK_SIZE)):
        parts = _parts(config, channel_rng(seed, index), min(BLOCK_SIZE, n_samples - start))
        picked, info = pick(parts[:1])
        yield info, tuple(_links(link, picked) for link in parts)


@pytest.mark.parametrize("consume", [_sweep, _independence])
def test_walk_readers_drop_their_block_before_the_next_draw(monkeypatch, consume):
    # a reader owns the links the walk hands over, and must drop a block's
    # links before the walk lays out the next block's (else two blocks'
    # links meet the buffers).  It must get the result of a walk that draws
    # each block into new arrays.
    n = 4 * BLOCK_SIZE
    monkeypatch.setattr(simulate, "_blocks", _serial_walk)
    serial = consume(n)
    monkeypatch.undo()
    blocks, links = simulate._blocks, simulate._links
    handed = []  # weak references to the links of each block handed over
    alive_at_layout = []  # per ``_links`` call, how many of those are alive

    def tracked_blocks(*args):
        for block in blocks(*args):
            handed.append([weakref.ref(link) for link in block[1]])
            yield block
            del block

    def tracked_links(*args):
        alive_at_layout.append(sum(ref() is not None for refs in handed for ref in refs))
        return links(*args)

    monkeypatch.setattr(simulate, "_blocks", tracked_blocks)
    monkeypatch.setattr(simulate, "_links", tracked_links)
    assert _bounded(lambda: consume(n)) == serial
    assert len(handed) == 4 and len(alive_at_layout) >= 3 * 4
    assert set(alive_at_layout) == {0}


def test_blocks_hold_one_block_in_two_buffers(monkeypatch):
    # two buffers, allocated once per walk and sized by its largest block:
    # every stage of every block lands in one of them, each direct link
    # drawn on the caller's thread and all hops on one other thread, so a
    # walk that picks no sample holds one block however many it yields
    c = AntennaConfig(2, 1, 3)
    block_bytes = BLOCK_SIZE * (c.n * c.m + c.k * c.m + c.n * c.k) * 16
    fronts, drawn_on = set(), {1: set(), 2: set()}  # by links per stage
    draw = simulate._block_normals

    def tracked_draw(*args):
        for stage in draw(*args):
            fronts.add((len(stage), stage[0][0].__array_interface__["data"][0]))
            drawn_on[len(stage)].add(threading.get_ident())
            yield stage

    def walk():
        for _ in _blocks(c, 5, 3 * BLOCK_SIZE + 1234, _no_samples):
            pass
        return threading.get_ident()

    next(_blocks(c, 5, 1000, _no_samples))  # lazy imports stay out of the trace
    monkeypatch.setattr(simulate, "_block_normals", tracked_draw)
    tracemalloc.start()
    try:
        caller = _bounded(walk)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(fronts) == 2 and {size for size, _ in fronts} == {1, 2}
    assert drawn_on[1] == {caller}
    assert len(drawn_on[2]) == 1 and caller not in drawn_on[2]
    assert block_bytes <= peak <= 1.02 * block_bytes, f"peak {peak / block_bytes:.3f} blocks"


def test_blocks_size_their_buffers_without_listing_the_blocks():
    # a walk of 10**20 samples (about 1.5e15 blocks) yields block 0 at the
    # cost of one block: nothing is kept per block it has not reached
    c = AntennaConfig(2, 1, 3)
    block_bytes = BLOCK_SIZE * (c.n * c.m + c.k * c.m + c.n * c.k) * 16
    head = 256
    next(_blocks(c, 1, 1000, _no_samples))  # lazy imports stay out of the trace
    tracemalloc.start()
    try:
        walk = _blocks(c, 1, 10**20, lambda direct: (slice(head), None))
        _, links = next(walk)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    serial = _block_channels(c, channel_rng(1, 0), BLOCK_SIZE)
    assert _read(None, links)[1] == [h[:head].tobytes() for h in serial]
    walk.close()
    assert block_bytes <= peak <= 1.02 * block_bytes, f"peak {peak / block_bytes:.3f} blocks"


def test_blocks_drops_its_reference_before_it_waits():
    # once the reader drops block i, the walk keeps nothing of it: not its
    # pick, its info or its links, already when it picks block i+1
    picks = []  # weak references to each block's picked samples and info
    dead_at_pick = []

    def pick(direct):
        dead_at_pick.append([ref() is None for refs in picks for ref in refs])
        picked, info = np.arange(0, len(direct[0][0]), 2), np.ones(3)
        picks.append([weakref.ref(picked), weakref.ref(info)])
        return picked, info

    def walk():
        blocks = _blocks(AntennaConfig(1, 1, 1), 5, 3 * BLOCK_SIZE, pick)
        info, links = next(blocks)
        refs = [weakref.ref(a) for a in (info, *links)]
        del info, links
        next(blocks)
        return [ref() for ref in refs]

    assert _bounded(walk) == [None] * 4
    assert dead_at_pick == [[], [True, True]]


def test_blocks_hand_over_the_direct_link_while_the_hops_are_drawn(monkeypatch):
    # each block's hop stage is held on the worker until the block's pick
    # has run: ``pick`` reads the direct link while the hops are drawn
    gates = [threading.Event() for _ in range(3)]
    hops_drawn, picked_first = [], []
    draw, made = simulate._block_normals, itertools.count()

    def gated_draw(*args):
        block, stages = next(made), draw(*args)
        yield next(stages)
        assert gates[block].wait(20.0)
        hops = next(stages)
        hops_drawn.append(block)
        yield hops

    def pick(direct):
        block = len(picked_first)
        picked_first.append(block not in hops_drawn)
        gates[block].set()
        return _no_samples(direct)

    monkeypatch.setattr(simulate, "_block_normals", gated_draw)
    _bounded(lambda: list(_blocks(AntennaConfig(1, 1, 1), 5, 2 * BLOCK_SIZE + 1, pick)))
    assert picked_first == [True] * 3 and hops_drawn == [0, 1, 2]


def test_blocks_draw_the_next_direct_link_while_the_hops_are_drawn(monkeypatch):
    # block 0's hop stage is held on the worker until block 1's direct link
    # is drawn: the walk draws that on the caller's thread before it waits
    # for block 0's hops, lays out block 0's hop links once they are drawn,
    # and only then starts block 1's hops; each stage a serial draw
    c = AntennaConfig(2, 1, 3)
    sizes = (BLOCK_SIZE, 1234)
    direct_1 = threading.Event()
    log = []  # the walk's steps in order, each draw with its thread
    draw, links, made = simulate._block_normals, simulate._links, itertools.count()

    def gated_draw(*args):
        block, stages = next(made), draw(*args)
        for stage in range(2):
            if (block, stage) == (0, 1):
                assert direct_1.wait(20.0)
            drawn = next(stages)
            log.append(("draw", block, stage, threading.get_ident()))
            if (block, stage) == (1, 0):
                direct_1.set()
            yield drawn

    class Logged(simulate.ThreadPoolExecutor):
        def submit(self, *args):
            log.append(("submit",))
            return super().submit(*args)

    def logged_links(parts, picked):
        log.append(("links", parts[0].shape[1:]))
        return links(parts, picked)

    def pick(direct):
        log.append(("pick",))
        return _every_third(direct)

    def walk():
        walked = []
        for block in _blocks(c, 23, sum(sizes), pick):
            log.append(("yield",))
            walked.append(_read(*block))
        return threading.get_ident(), walked

    serial = _serial(c, 23, sizes)
    monkeypatch.setattr(simulate, "_block_normals", gated_draw)
    monkeypatch.setattr(simulate, "ThreadPoolExecutor", Logged)
    monkeypatch.setattr(simulate, "_links", logged_links)
    caller, walked = _bounded(walk)
    assert walked == serial
    hops = [step for step in log if step[0] == "draw" and step[2] == 1]
    assert len({step[3] for step in hops}) == 1 and hops[0][3] != caller
    block = [("pick",), ("links", (3, 2)), ("links", (1, 2)), ("links", (3, 1)), ("yield",)]
    steps = [step[:3] if step[0] == "draw" else step for step in log if step not in hops]
    assert steps == [
        ("draw", 0, 0), ("submit",), *block[:2], ("draw", 1, 0), *block[2:4], ("submit",),
        block[4], *block,
    ]
    assert log.index(("draw", 1, 0, caller)) < log.index(hops[0]) < log.index(block[2])
    assert log.index(hops[1]) > len(log) - log[::-1].index(("submit",)) - 1


@pytest.mark.parametrize("failing", [0, 1, 2], ids=["block 0", "block 1", "last block"])
def test_blocks_raises_a_draw_error_in_the_caller(monkeypatch, failing):
    # the direct stage, the hop stage or the pick of the block fails.  A
    # direct link is drawn and picked on the reader's thread, a hop stage on
    # the worker; either way the reader gets the error from the walk
    draw = simulate._block_normals
    for stage in (0, 1, "pick"):
        error = OSError(f"{stage} of block {failing} failed")
        drawn, failed_on = set(), []  # the (block, stage) drawn; the failing thread
        made, picks = itertools.count(), itertools.count()

        def failing_draw(*args):
            block, stages = next(made), draw(*args)
            for s in range(2):
                if (block, s) == (failing, stage):
                    failed_on.append(threading.get_ident())
                    raise error
                drawn.add((block, s))
                yield next(stages)

        def pick(direct):
            if (next(picks), stage) == (failing, "pick"):
                failed_on.append(threading.get_ident())
                raise error
            return _no_samples(direct)

        def walk():
            baseline = threading.active_count()
            with pytest.raises(OSError) as raised:
                for _ in _blocks(AntennaConfig(1, 1, 1), 5, 3 * BLOCK_SIZE, pick):
                    pass
            return raised.value, threading.get_ident(), threading.active_count() - baseline

        monkeypatch.setattr(simulate, "_block_normals", failing_draw)
        raised, reader, extra_threads = _bounded(walk)
        # the same error object, no thread left behind, no stage drawn after it
        assert raised is error and extra_threads == 0, stage
        assert len(failed_on) == 1 and (failed_on[0] == reader) == (stage != 1), stage
        before = {(block, s) for block in range(failing) for s in (0, 1)}
        if stage == 0:
            # the hops of the block before may be cancelled before they start
            assert drawn in (before, before - {(failing - 1, 1)}), stage
        elif stage == 1:
            # the next block's direct link is drawn before the walk waits for
            # the hops that failed
            after = {(failing + 1, 0)} if failing < 2 else set()
            assert drawn == before | {(failing, 0)} | after, stage
        else:
            # the block's own hops may be cancelled before they start
            assert drawn in (before | {(failing, 0), (failing, 1)}, before | {(failing, 0)}), stage


def test_single_block_readers_score_the_serial_draw(monkeypatch, capsys):
    # verify's cut-set check walks 500 samples: its buffers hold 500
    # samples, not a block (12.6 MB at (2,2,2))
    from relaydmt import verify

    def spying(cut, seen):
        def spy(rho, *channels):
            seen.append([h.tobytes() for h in channels])
            return cut(rho, *channels)
        return spy

    seen = []
    verify.check_cutset_samples()  # lazy imports stay out of the trace
    monkeypatch.setattr(verify, "_cut_log2dets", spying(verify._cut_log2dets, seen))
    tracemalloc.start()
    try:
        verify.check_cutset_samples()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    serial = _block_channels(AntennaConfig(2, 2, 2), channel_rng(77), 500)
    assert seen == [[h.tobytes() for h in serial]]
    assert peak < 1 << 20
    # the demo's one block of 4,000 samples, up to its first cut evaluation
    spec = importlib.util.spec_from_file_location("exponent_statistics", DEMO)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)

    class Stop(Exception):
        pass

    def stop(*args):
        raise Stop

    seen = []
    monkeypatch.setattr(demo, "_cut_log2dets", spying(stop, seen))
    with pytest.raises(Stop):
        demo.main()
    serial = _block_channels(AntennaConfig(1, 1, 1), channel_rng(42), 4000)
    assert seen == [[h.tobytes() for h in serial]]


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
    assert rep.n_bins == 20
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
