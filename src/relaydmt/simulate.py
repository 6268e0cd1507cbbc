"""Monte Carlo validation layer.

Samples Rayleigh channel triples, evaluates the cut-set rate quantities,
estimates outage probabilities and diversity slopes, and provides the
empirical statistics used to check the exponent machinery.

Reproducibility contract: the sample index space is partitioned into fixed
blocks of ``BLOCK_SIZE``; block ``i`` draws from a counter-based generator
keyed on (seed, i), so outage counts are bit-identical for a given seed and
sample count, whatever ``workers`` value is passed and whether an SNR is
estimated alone or within a sweep.  ``_blocks`` owns this layout: the outage
sweep and the eigenvalue statistics both walk the samples through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import AntennaConfig, DomainError, ExponentTriple

BLOCK_SIZE = 65536

_LN2 = math.log(2.0)


class InsufficientDataError(RuntimeError):
    """Too few usable estimates to fit a slope."""


@dataclass(frozen=True)
class ChannelSample:
    """One realisation of the three channel matrices.

    Entries are i.i.d. circularly-symmetric complex Gaussian with unit
    variance; the three matrices are mutually independent.
    """

    h_sd: np.ndarray  # n x m, source -> destination
    h_sr: np.ndarray  # k x m, source -> relay
    h_rd: np.ndarray  # n x k, relay -> destination

    def __post_init__(self):
        if not all(np.isfinite(h).all() for h in (self.h_sd, self.h_sr, self.h_rd)):
            raise DomainError("channel matrices contain non-finite entries")


@dataclass(frozen=True)
class CutsetTerms:
    """Base-2 log determinants of the three cut matrices at SNR ``rho``.

    ``log_l_sd`` covers the direct link alone, ``log_l_srd`` the joint
    transmission cut [H_SD H_RD] seen by the destination, ``log_l_s_rd`` the
    listening cut [H_SR; H_SD] seen by relay plus destination.
    """

    log_l_sd: float
    log_l_srd: float
    log_l_s_rd: float
    rho: float


@dataclass(frozen=True)
class OutageEstimate:
    rho: float
    r: float
    p_out: float
    n_samples: int
    ci_half_width: float  # half-length of the 95% Wilson score interval

    @property
    def events(self) -> int:
        """Number of samples in outage."""
        return round(self.p_out * self.n_samples)


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    stderr: float
    rho_grid: tuple


@dataclass(frozen=True)
class IndependenceReport:
    max_abs_corr: float
    control_max_abs_corr: float
    unconditional_corr: float
    correlations: tuple
    bin_counts: tuple
    n_bins: int
    note: str


def channel_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator for (seed, stream); streams never overlap."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**64:
        raise DomainError(f"seed must fit in 64 bits, got {seed}")
    key = np.array([np.uint64(seed), np.uint64(stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """CN(0, 1) stack of ``shape`` = (count, rows, cols): real and imaginary
    parts each N(0, 1/2), all real parts drawn first.  The result is a
    samples-first view of samples-last storage, so that each matrix entry's
    samples are one contiguous vector for the cut kernel."""
    count, rows, cols = shape
    view = np.empty((rows, cols, count), dtype=complex).transpose(2, 0, 1)
    scale = math.sqrt(0.5)
    np.multiply(rng.standard_normal(shape), scale, out=view.real)
    np.multiply(rng.standard_normal(shape), scale, out=view.imag)
    return view


def _block_channels(config: AntennaConfig, rng: np.random.Generator, count: int):
    """A block of channel triples, stacked on the leading axis (draw order:
    direct, in-hop, out-hop)."""
    m, k, n = config.m, config.k, config.n
    return (
        _complex_gaussian(rng, (count, n, m)),
        _complex_gaussian(rng, (count, k, m)),
        _complex_gaussian(rng, (count, n, k)),
    )


def sample_channel(config: AntennaConfig, rng: np.random.Generator) -> ChannelSample:
    """Draw one Rayleigh channel triple (direct, in-hop, out-hop order)."""
    return ChannelSample(*(h[0] for h in _block_channels(config, rng, 1)))


def _side_gram(blocks) -> dict:
    """Gram matrix of the smaller side of a block matrix of channel links:
    its upper triangle as a map from (i, j), i <= j, to a stack of entries.

    ``blocks`` lists the block rows; each block is one link as a samples-last
    (rows, cols, count) array paired with its conjugate.  An entry is a sum
    of per-link inner products, each a run of elementwise multiply-adds, so
    the cut matrix is never assembled and a sample's entries do not depend
    on the other samples of its stack.
    """
    rows = [[(x[i], xc[i]) for x, xc in row] for row in blocks for i in range(len(row[0][0]))]
    cols = [
        [(row[b][0][:, j], row[b][1][:, j]) for row in blocks]
        for b, (x, _) in enumerate(blocks[0])
        for j in range(x.shape[1])
    ]
    vectors = min(rows, cols, key=len)
    return {
        (a, b): sum(s[l] * tc[l] for (s, _), (_, tc) in zip(u, v) for l in range(len(s)))
        for a, u in enumerate(vectors)
        for b, v in enumerate(vectors[a:], a)
    }


def _log2_det_eye_plus(rho: float, gram: dict) -> np.ndarray:
    """log2 det(I + rho G) for a stack of Hermitian G given by its upper
    triangle (as from ``_side_gram``): a square-root-free Cholesky (LDL')
    factorisation unrolled over the entries, one elementwise step on the
    whole stack at a time.  Every pivot is at least 1, since I + rho G >= I."""
    a = {key: rho * entry for key, entry in gram.items()}
    d = max(key[1] for key in a) + 1
    total = 0.0
    for p in range(d):
        pivot = a[p, p].real + 1.0
        total = total + np.log(pivot)
        inverse = 1.0 / pivot
        for i in range(p + 1, d):
            f = a[p, i].conj() * inverse
            a[i, i] -= f * a[p, i]
            for j in range(i + 1, d):
                a[i, j] -= f * a[p, j]
    return total / _LN2


def _cut_grams(h_sd: np.ndarray, h_sr: np.ndarray, h_rd: np.ndarray):
    """The SNR-free Grams of the three cuts for a stack of channel triples:
    the direct link, the joint transmission cut [H_SD H_RD] and the
    listening cut [H_SR; H_SD], each on its smaller side."""
    sd, sr, rd = ((x, x.conj()) for x in (h.transpose(1, 2, 0) for h in (h_sd, h_sr, h_rd)))
    return _side_gram([[sd]]), _side_gram([[sd, rd]]), _side_gram([[sr], [sd]])


def _cut_log2dets(rho: float, h_sd: np.ndarray, h_sr: np.ndarray, h_rd: np.ndarray):
    """The three cut log determinants for a stack of channel triples."""
    return tuple(_log2_det_eye_plus(rho, gram) for gram in _cut_grams(h_sd, h_sr, h_rd))


def _switch_and_rate(l_sd, l_srd, l_s_rd):
    """Optimal listen fraction and cut-set rate ceiling, elementwise.

    The relay gains over the direct link split the time as a : b; when both
    vanish any split is equally good and the fraction is 1/2.
    """
    a = np.maximum(l_srd - l_sd, 0.0)
    b = np.maximum(l_s_rd - l_sd, 0.0)
    gain = a + b
    live = gain >= 1e-12
    safe = np.where(live, gain, 1.0)
    switch = np.where(live, a / safe, 0.5)
    relay = np.where(live, a * b / safe, 0.0)
    return switch, relay + l_sd


def _composite_grams(rho: float, h_sd: np.ndarray, h_sr: np.ndarray, h_rd: np.ndarray):
    """Hermitian W1, W2, W3 for a stack of channel triples: W1 = H_SD H_SD',
    W2 = H_SR (I + rho H_SD' H_SD)^-1 H_SR' and
    W3 = H_RD' (I + rho W1)^-1 H_RD."""
    n, m = h_sd.shape[1:]
    hd_t = h_sd.conj().transpose(0, 2, 1)
    w1 = h_sd @ hd_t
    m2 = np.eye(m) + rho * (hd_t @ h_sd)
    w2 = h_sr @ np.linalg.solve(m2, h_sr.conj().transpose(0, 2, 1))
    m3 = np.eye(n) + rho * w1
    w3 = h_rd.conj().transpose(0, 2, 1) @ np.linalg.solve(m3, h_rd)
    return tuple(0.5 * (w + w.conj().transpose(0, 2, 1)) for w in (w1, w2, w3))


def cutset_terms(sample: ChannelSample, rho: float) -> CutsetTerms:
    """Evaluate the three cut log determinants in the log domain."""
    if not 0.0 < rho < math.inf:
        raise DomainError(f"rho must be positive and finite, got {rho}")
    l_sd, l_srd, l_s_rd = _cut_log2dets(
        rho, sample.h_sd[None], sample.h_sr[None], sample.h_rd[None]
    )
    return CutsetTerms(
        log_l_sd=float(l_sd[0]),
        log_l_srd=float(l_srd[0]),
        log_l_s_rd=float(l_s_rd[0]),
        rho=rho,
    )


def optimal_switch_time(terms: CutsetTerms) -> float:
    """Listen fraction maximising the cut-set rate; 1/2 when both relay
    gains vanish (any split is then equally good)."""
    switch, _ = _switch_and_rate(terms.log_l_sd, terms.log_l_srd, terms.log_l_s_rd)
    return float(switch)


def rate_upper(terms: CutsetTerms) -> float:
    """Cut-set rate ceiling in bits per channel use at the optimal switch."""
    _, rate = _switch_and_rate(terms.log_l_sd, terms.log_l_srd, terms.log_l_s_rd)
    return float(rate)


_EIG_FLOOR = 1e-300


def _eigen_exponent_rows(rho: float, h_sd: np.ndarray, h_sr: np.ndarray, h_rd: np.ndarray):
    """Negative SNR exponents of the ordered nonzero eigenvalues of W1, W2
    and W3 for a stack of channel triples: three (count, min-dimension)
    arrays, each row ascending (eigenvalues descending)."""
    n, m = h_sd.shape[1:]
    k = h_sr.shape[1]
    log_rho = math.log(rho)
    counts = (min(m, n), min(m, k), min(n, k))
    rows = []
    for w, count in zip(_composite_grams(rho, h_sd, h_sr, h_rd), counts):
        eig = np.linalg.eigvalsh(w)[:, ::-1][:, :count]  # descending nonzero part
        eig = np.maximum(eig, _EIG_FLOOR)  # clamp hermitian-solver negatives
        rows.append(-np.log(eig) / log_rho)
    return tuple(rows)


def eigen_exponents(sample: ChannelSample, rho: float) -> ExponentTriple:
    """Negative SNR exponents of the ordered eigenvalues of the three
    composite channel matrices; requires rho > 1 so the log base is sound."""
    if not 1.0 < rho < math.inf:
        raise DomainError(f"rho must exceed 1 and be finite, got {rho}")
    rows = _eigen_exponent_rows(rho, sample.h_sd[None], sample.h_sr[None], sample.h_rd[None])
    return ExponentTriple(*(tuple(r[0].tolist()) for r in rows))


# ---------------------------------------------------------------------------
# outage estimation


_CHUNK = 4096  # samples per cut-Gram build: the Grams stay small beside the block


def _blocks(config: AntennaConfig, seed: int, n_samples: int):
    """The channel triples of the first ``n_samples`` draws, block by block:
    block ``i`` holds ``BLOCK_SIZE`` samples (fewer in a partial last block)
    from the stream (seed, i)."""
    for index, start in enumerate(range(0, n_samples, BLOCK_SIZE)):
        size = min(BLOCK_SIZE, n_samples - start)
        yield _block_channels(config, channel_rng(seed, index), size)


def outage_probabilities(
    config: AntennaConfig,
    rhos: Sequence[float],
    r: float,
    n_samples: int,
    seed: int,
    workers: int = 1,
) -> list[OutageEstimate]:
    """Estimate, at each SNR in ``rhos``, the probability that the cut-set
    rate ceiling falls below r log2(rho) over ``n_samples`` Rayleigh draws;
    one ``OutageEstimate`` per SNR, in order.

    Every SNR sees the same samples: each block is drawn once and its cut
    Grams, which do not depend on the SNR, are built once per slice of
    ``_CHUNK`` samples and serve the whole grid.  A sample's entries do not
    depend on the other samples, so the slicing changes no count.  The
    blocks are mapped in order on the caller's thread.  ``workers`` is
    validated but changes neither the result nor the speed: a thread pool
    over the blocks used a second core without finishing sooner.
    """
    rhos = tuple(rhos)
    if not rhos:
        raise DomainError("need at least one SNR point")
    for rho in rhos:
        if not 1.0 < rho < math.inf:
            raise DomainError(f"rho must exceed 1 and be finite, got {rho}")
    # outage is degenerate at r <= 0 and no longer decays with SNR from max_mux on
    if not 0.0 < r < config.max_mux:
        raise DomainError(f"r={r} must lie strictly between 0 and {config.max_mux}")
    if n_samples < 1000:
        raise DomainError(f"need at least 1000 samples, got {n_samples}")
    if workers < 1:
        raise DomainError(f"workers must be positive, got {workers}")
    thresholds = [r * math.log2(rho) for rho in rhos]
    counts = [0] * len(rhos)
    for block in _blocks(config, seed, n_samples):
        for start in range(0, len(block[0]), _CHUNK):
            grams = _cut_grams(*(h[start : start + _CHUNK] for h in block))
            for i, (rho, threshold) in enumerate(zip(rhos, thresholds)):
                _, rate = _switch_and_rate(*(_log2_det_eye_plus(rho, g) for g in grams))
                counts[i] += int((rate < threshold).sum())
    return [
        OutageEstimate(
            rho=rho,
            r=r,
            p_out=count / n_samples,
            n_samples=n_samples,
            ci_half_width=_wilson_half_width(count / n_samples, n_samples),
        )
        for rho, count in zip(rhos, counts)
    ]


def outage_probability(
    config: AntennaConfig,
    rho: float,
    r: float,
    n_samples: int,
    seed: int,
    workers: int = 1,
) -> OutageEstimate:
    """Estimate the probability that the cut-set rate ceiling falls below
    r log2(rho) over ``n_samples`` Rayleigh draws: a one-point
    ``outage_probabilities``."""
    return outage_probabilities(config, (rho,), r, n_samples, seed, workers)[0]


def _wilson_half_width(p: float, n: int) -> float:
    """Half-length of the 95% Wilson score interval for a binomial
    proportion p observed over n trials (Wilson, JASA 22, 1927).

    Unlike the Wald interval it stays positive at zero or n events.
    """
    z = 1.96
    z2n = z * z / n
    return z / (1.0 + z2n) * math.sqrt(p * (1.0 - p) / n + z2n / (4.0 * n))


_RELIABILITY_FLOOR = 20.0


def diversity_fit(estimates: Sequence[OutageEstimate]) -> SlopeFit:
    """Least-squares slope of -log10(p_out) against log10(rho).

    Estimates with zero outage count or fewer than 20 expected events are
    dropped as unreliable; at least three usable points are required.
    """
    usable = [
        e
        for e in estimates
        if e.p_out > 0.0 and e.n_samples * e.p_out >= _RELIABILITY_FLOOR
    ]
    if len(usable) < 3:
        raise InsufficientDataError(
            f"only {len(usable)} usable outage points (need 3); "
            "increase samples or lower the SNR range"
        )
    x = np.log10([e.rho for e in usable])
    y = -np.log10([e.p_out for e in usable])
    if x.min() == x.max():
        raise DomainError("a slope fit needs at least two distinct SNR points")
    dx = x - x.mean()
    sxx = float(dx @ dx)
    slope = float(dx @ (y - y.mean())) / sxx
    residual = y - y.mean() - slope * dx
    return SlopeFit(
        slope=slope,
        stderr=math.sqrt(float(residual @ residual) / (len(x) - 2) / sxx),
        rho_grid=tuple(e.rho for e in usable),
    )


# ---------------------------------------------------------------------------
# eigenvalue statistics


def conditional_independence_check(
    config: AntennaConfig,
    rho: float,
    n_samples: int,
    n_bins: int,
    seed: int = 0,
) -> IndependenceReport:
    """Test that the top in-hop and out-hop eigenvalues decorrelate once the
    direct-link eigenvalue is held (approximately) fixed.

    Samples are split into equal-count bins by the direct eigenvalue; within
    each bin the report records the correlation of the two hop eigenvalues,
    alongside a shuffled-pairing control and the unconditional correlation.
    """
    if not 0.0 < rho < math.inf:
        raise DomainError(f"rho must be positive and finite, got {rho}")
    if n_samples < 1000:
        raise DomainError(f"need at least 1000 samples, got {n_samples}")
    if n_bins < 1:
        raise DomainError(f"need at least 1 bin, got {n_bins}")
    note = ""
    if n_samples < 50 * n_bins:
        n_bins = max(2, n_samples // 50)
        note = f"reduced to {n_bins} bins to keep bins populated"

    # the largest eigenvalue of W1, W2 and W3 per sample, block by block
    tops = ([], [], [])
    for block in _blocks(config, seed, n_samples):
        for top, w in zip(tops, _composite_grams(rho, *block)):
            top.append(np.linalg.eigvalsh(w)[:, -1])
    lam, mu, gam = (np.concatenate(top) for top in tops)

    shuffle_rng = channel_rng(seed, 2**32)
    order = np.argsort(lam, kind="stable")
    splits = np.array_split(order, n_bins)
    corrs = []
    control = []
    counts = []
    for idx in splits:
        counts.append(len(idx))
        corrs.append(float(np.corrcoef(mu[idx], gam[idx])[0, 1]))
        perm = shuffle_rng.permutation(len(idx))
        control.append(float(np.corrcoef(mu[idx], gam[idx][perm])[0, 1]))
    return IndependenceReport(
        max_abs_corr=float(np.max(np.abs(corrs))),
        control_max_abs_corr=float(np.max(np.abs(control))),
        unconditional_corr=float(np.corrcoef(mu, gam)[0, 1]),
        correlations=tuple(corrs),
        bin_counts=tuple(counts),
        n_bins=n_bins,
        note=note,
    )
