"""Monte Carlo validation layer.

Samples Rayleigh channel triples, evaluates the cut-set rate quantities,
estimates outage probabilities and diversity slopes, and provides the
empirical statistics used to check the exponent machinery.

Reproducibility contract: the sample index space is partitioned into fixed
blocks of ``BLOCK_SIZE``; block ``i`` draws from a counter-based generator
keyed on (seed, i), so outage counts are bit-identical for a given seed and
sample count, whatever ``workers`` value is passed and whether an SNR is
estimated alone or within a sweep.  ``_blocks`` owns this layout, the walk
over it and the walk's buffers (each block is drawn in two stages into two
buffers the walk reuses: the direct link on the reader's thread, the hops
on one worker thread, so a block's hops are drawn while the reader picks
its samples from the direct link and draws the next block's; each block
keeps its stream, so no count moves): the outage sweep and the eigenvalue
statistics both walk the samples through it.  A reader hands the walk a
``pick`` that reads a block's raw direct link and chooses samples, and gets
back those samples' links, scaled and laid out samples-last (``_links``) in
arrays of its own: the outage sweep picks the samples its direct link
leaves undecided, other readers take whole triples (``_walk_channels``).
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import AntennaConfig, DomainError, ExponentTriple, _check_number, _is_integer

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
    for name, value in (("seed", seed), ("stream", stream)):
        if not _is_integer(value) or not 0 <= value < 2**64:
            raise DomainError(f"{name} must fit in 64 bits, got {value}")
    key = np.array([np.uint64(seed), np.uint64(stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _stage_links(config: AntennaConfig):
    """The (rows, cols) of the links of each draw stage: the direct link,
    then the in-hop and the out-hop."""
    m, k, n = config.m, config.k, config.n
    return ((n, m),), ((k, m), (n, k))


def _block_normals(
    config: AntennaConfig, rng: np.random.Generator, count: int, buffers=(None, None)
):
    """The raw draws of a block of channel triples, stage by stage: per link
    of a stage (``_stage_links``), a (real, imaginary) pair of N(0, 1)
    float64 arrays of shape (count, rows, cols), the real part drawn first.
    A stage is one ``standard_normal`` call split into its arrays, drawn
    when the generator is advanced, so a reader can score the direct link
    while the hops are drawn; the stages in order give the draw order direct,
    in-hop, out-hop, and the stream of one call per array.  Given
    ``buffers`` (one flat float64 array per stage, long enough for it) a
    stage fills the front of its buffer instead of a new array.  ``_links`` scales and lays
    the parts out."""
    for links, buffer in zip(_stage_links(config), buffers):
        shapes = [(count, rows, cols) for rows, cols in links for _ in range(2)]
        sizes = [math.prod(shape) for shape in shapes]
        out = np.empty(sum(sizes)) if buffer is None else buffer[: sum(sizes)]
        flat = np.split(rng.standard_normal(out=out), np.cumsum(sizes)[:-1])
        parts = [p.reshape(shape) for p, shape in zip(flat, shapes)]
        yield tuple(zip(parts[0::2], parts[1::2]))


def _links(parts, picked) -> np.ndarray:
    """The CN(0, 1) link of the samples ``picked`` (a slice or an index
    array) from its raw ``(real, imaginary)`` parts: each part times
    sqrt(1/2), stored samples-last (rows, cols, count), so that each matrix
    entry's samples are one contiguous vector for the cut kernel.  The parts
    are gathered one at a time, so at most one part's rows are copied."""
    scale = math.sqrt(0.5)
    re = parts[0][picked]
    out = np.empty((*re.shape[1:], len(re)), dtype=complex)
    np.multiply(re.transpose(1, 2, 0), scale, out=out.real)
    del re
    np.multiply(parts[1][picked].transpose(1, 2, 0), scale, out=out.imag)
    return out


def _block_channels(config: AntennaConfig, rng: np.random.Generator, count: int):
    """A block of channel triples, stacked on the leading axis (draw order:
    direct, in-hop, out-hop): samples-first views of samples-last links."""
    parts = [link for stage in _block_normals(config, rng, count) for link in stage]
    return tuple(_links(p, slice(None)).transpose(2, 0, 1) for p in parts)


def sample_channel(config: AntennaConfig, rng: np.random.Generator) -> ChannelSample:
    """Draw one Rayleigh channel triple (direct, in-hop, out-hop order)."""
    return ChannelSample(*(h[0] for h in _block_channels(config, rng, 1)))


def _side_gram(blocks) -> dict:
    """Gram matrix of the smaller side of a block matrix of channel links:
    its upper triangle as a map from (i, j), i <= j, to a stack of entries.

    ``blocks`` lists the block rows; each block is one link as a samples-last
    (rows, cols, count) array.  An entry is a sum of per-link inner products,
    each a run of elementwise multiply-adds, so the cut matrix is never
    assembled and a sample's entries do not depend on the other samples of
    its stack.
    """
    rows = [[x[i] for x in row] for row in blocks for i in range(len(row[0]))]
    cols = [
        [row[b][:, j] for row in blocks] for b, x in enumerate(blocks[0]) for j in range(x.shape[1])
    ]
    vectors = min(rows, cols, key=len)
    conjugates = [[t.conj() for t in v] for v in vectors]
    return {
        (a, b): sum(s[l] * t[l] for s, t in zip(u, v) for l in range(len(s)))
        for a, u in enumerate(vectors)
        for b, v in enumerate(conjugates[a:], a)
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


def _relay_grams(sd, sr, rd):
    """The SNR-free Grams of the joint transmission cut [H_SD H_RD] and the
    listening cut [H_SR; H_SD] from samples-last links."""
    return _side_gram([[sd, rd]]), _side_gram([[sr], [sd]])


def _cut_log2dets(rho: float, h_sd: np.ndarray, h_sr: np.ndarray, h_rd: np.ndarray):
    """The three cut log determinants for a stack of channel triples: the
    direct link, then the two relay cuts, each Gram on its smaller side."""
    sd, sr, rd = (h.transpose(1, 2, 0) for h in (h_sd, h_sr, h_rd))
    grams = (_side_gram([[sd]]), *_relay_grams(sd, sr, rd))
    return tuple(_log2_det_eye_plus(rho, gram) for gram in grams)


def _switch_and_rate(l_sd, l_srd, l_s_rd):
    """Optimal listen fraction and cut-set rate ceiling, elementwise.

    The relay gains over the direct link split the time as a : b; when both
    vanish any split is equally good and the fraction is 1/2.  The rate is
    ``l_sd`` plus a relay term that is never negative, so ``rate >= l_sd``
    holds bit for bit wherever the rate is not NaN; the outage sweep relies
    on it to skip the relay cuts of a sample whose direct link suffices.
    """
    a = np.maximum(l_srd - l_sd, 0.0)
    b = np.maximum(l_s_rd - l_sd, 0.0)
    gain = a + b
    live = gain >= 1e-12
    safe = np.where(live, gain, 1.0)
    switch = np.where(live, a / safe, 0.5)
    relay = np.where(live, a * b / safe, 0.0)
    return switch, relay + l_sd


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^-1 b for a stack of square a; 1x1 systems by division (same bytes, no LAPACK call)."""
    return b / a if a.shape[-1] == 1 else np.linalg.solve(a, b)


def _composite_grams(rho: float, h_sd: np.ndarray, h_sr: np.ndarray, h_rd: np.ndarray):
    """Hermitian W1, W2, W3 for a stack of channel triples: W1 = H_SD H_SD',
    W2 = H_SR (I + rho H_SD' H_SD)^-1 H_SR' and
    W3 = H_RD' (I + rho W1)^-1 H_RD."""
    n, m = h_sd.shape[1:]
    hd_t = h_sd.conj().transpose(0, 2, 1)
    w1 = h_sd @ hd_t
    m2 = np.eye(m) + rho * (hd_t @ h_sd)
    w2 = h_sr @ _solve(m2, h_sr.conj().transpose(0, 2, 1))
    m3 = np.eye(n) + rho * w1
    w3 = h_rd.conj().transpose(0, 2, 1) @ _solve(m3, h_rd)
    return tuple(0.5 * (w + w.conj().transpose(0, 2, 1)) for w in (w1, w2, w3))


def _check_rho(rho: float, above_one: bool = False) -> None:
    """The SNR rule of every entry point: a finite number (never a ``bool``)
    above 0, or above 1 where a log base or an outage threshold needs it."""
    _check_number(rho, "rho")
    if above_one:
        if not 1.0 < rho < math.inf:
            raise DomainError(f"rho must exceed 1 and be finite, got {rho}")
    elif not 0.0 < rho < math.inf:
        raise DomainError(f"rho must be positive and finite, got {rho}")


def cutset_terms(sample: ChannelSample, rho: float) -> CutsetTerms:
    """Evaluate the three cut log determinants in the log domain."""
    _check_rho(rho)
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
    _check_rho(rho, above_one=True)
    rows = _eigen_exponent_rows(rho, sample.h_sd[None], sample.h_sr[None], sample.h_rd[None])
    return ExponentTriple(*(tuple(r[0].tolist()) for r in rows))


# ---------------------------------------------------------------------------
# outage estimation


_CHUNK = 4096  # samples per cut-Gram build: the Grams stay small beside the block


def _check_integers(**counts) -> tuple:
    """The sample, bin or worker counts as ``int``, in order; refuses one that
    is not an integer (or is a ``bool``)."""
    for name, value in counts.items():
        if not _is_integer(value):
            raise DomainError(f"{name} must be an integer, got {value!r}")
    return tuple(map(int, counts.values()))


def _blocks(config: AntennaConfig, seed: int, n_samples: int, pick):
    """The first ``n_samples`` channel triples, block by block: block ``i``
    holds ``BLOCK_SIZE`` samples (fewer in a partial last block) from the
    stream (seed, i).  Per block the walk yields ``(info, links)``, where
    ``pick(direct) -> (picked, info)`` chose the samples (a slice or an
    index array) from the raw parts of the block's direct link (its first
    ``_block_normals`` stage), and ``links`` are the picked samples' direct,
    in-hop and out-hop links (``_links``), new arrays the reader owns.

    The stages are drawn in walk order into two buffers allocated once per
    walk and sized by its largest block, which only ``pick`` sees: each
    direct link on the caller's thread, the hops on one worker thread.  Per
    block the walk calls ``pick`` while the worker draws the hops, lays out
    the direct link, draws the next block's direct link, waits for the hops,
    lays them out, starts the next block's hops and yields; it drops a block
    before it lays out the next, so it holds one block of raw draws beside
    the links.  A draw error or ``pick``'s is raised in the reader, and
    nothing is drawn after it; a direct link's comes in place of the block
    before it.
    """
    blocks = -(-n_samples // BLOCK_SIZE)
    buffers = [
        np.empty(2 * min(BLOCK_SIZE, n_samples) * sum(rows * cols for rows, cols in links))
        for links in _stage_links(config)
    ]

    def stages(index):  # block index's draw stages, its direct link drawn on the caller
        size = min(BLOCK_SIZE, n_samples - index * BLOCK_SIZE)
        drawn = _block_normals(config, channel_rng(seed, index), size, buffers)
        return next(drawn), drawn

    pool = ThreadPoolExecutor(max_workers=1)
    try:
        direct, drawn = stages(0)
        hops = pool.submit(next, drawn)
        for ahead in range(1, blocks + 1):  # the next block, drawn while this one is read
            picked, info = pick(direct)
            links = [_links(link, picked) for link in direct]
            if ahead < blocks:
                direct, drawn = stages(ahead)
            links += [_links(link, picked) for link in hops.result()]
            if ahead < blocks:
                hops = pool.submit(next, drawn)
            yield info, tuple(links)
            del picked, info, links  # before the next block's links are laid out
    finally:
        pool.shutdown(cancel_futures=True)


def _walk_channels(config: AntennaConfig, seed: int, n_samples: int):
    """The blocks of ``_blocks`` whole, as samples-first channel triples
    (views of the walk's samples-last links): the next block's hops are
    drawn while the reader scores these."""
    for _, links in _blocks(config, seed, n_samples, lambda direct: (slice(None), None)):
        yield tuple(link.transpose(2, 0, 1) for link in links)
        del links  # before the next block's are laid out


def _direct_pass(direct, rhos, thresholds):
    """Pass 1 of the outage sweep over a block's direct stage (the raw parts
    of its direct link), the sweep's ``pick``: the indices of the samples
    whose direct link falls short of the threshold at some SNR, and their
    ``l_sd`` rows (one per SNR).  The direct link is built one ``_CHUNK``
    slice at a time."""
    link = direct[0]
    undecided, l_sd = [], []
    for start in range(0, len(link[0]), _CHUNK):
        gram = _side_gram([[_links(link, slice(start, start + _CHUNK))]])
        rows = np.stack([_log2_det_eye_plus(rho, gram) for rho in rhos])
        short = np.flatnonzero((rows < thresholds[:, None]).any(axis=0))
        undecided.append(short + start)
        l_sd.append(rows[:, short])
    return np.concatenate(undecided), np.concatenate(l_sd, axis=1)


def _relay_pass(links, l_sd, rhos, thresholds) -> np.ndarray:
    """Pass 2 of the outage sweep: the outage count at each SNR among the
    samples pass 1 left undecided, from their three samples-last links (as
    ``_blocks`` yields them) and their ``l_sd`` rows, one ``_CHUNK`` slice
    of the samples at a time."""
    counts = np.zeros(len(rhos), dtype=np.int64)
    for start in range(0, l_sd.shape[1], _CHUNK):
        picked = slice(start, start + _CHUNK)
        grams = _relay_grams(*(link[..., picked] for link in links))
        for i, (rho, threshold) in enumerate(zip(rhos, thresholds)):
            relay = (_log2_det_eye_plus(rho, g) for g in grams)
            _, rate = _switch_and_rate(l_sd[i, picked], *relay)
            counts[i] += np.count_nonzero(rate < threshold)
    return counts


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

    Every SNR sees the same samples: each block is drawn once and scored in
    slices of ``_CHUNK`` samples whose SNR-free Grams serve the whole grid.
    Pass 1 builds every sample's direct Gram; a sample whose ``l_sd`` clears
    the threshold at every SNR is not in outage (``rate >= l_sd``), so pass
    2 builds the relay-cut Grams of the others only.  A sample's entries do
    not depend on the rest of its stack, so no count moves.  Pass 1 is the
    walk's ``pick`` and runs while the block's hops are drawn, pass 2 on the
    links the walk hands over while the next block's hops are drawn (see
    ``_blocks``).
    ``workers`` is validated but changes neither the result nor the speed.
    """
    rhos = tuple(rhos)
    if not rhos:
        raise DomainError("need at least one SNR point")
    for rho in rhos:
        _check_rho(rho, above_one=True)
    # outage is degenerate at r <= 0 and no longer decays with SNR from max_mux on
    if not 0.0 < _check_number(r, "r") < config.max_mux:
        raise DomainError(f"r={r} must lie strictly between 0 and {config.max_mux}")
    n_samples, workers = _check_integers(n_samples=n_samples, workers=workers)
    if n_samples < 1000:
        raise DomainError(f"need at least 1000 samples, got {n_samples}")
    if workers < 1:
        raise DomainError(f"workers must be positive, got {workers}")
    thresholds = np.array([r * math.log2(rho) for rho in rhos])
    counts = np.zeros(len(rhos), dtype=np.int64)
    pick = functools.partial(_direct_pass, rhos=rhos, thresholds=thresholds)
    for l_sd, links in _blocks(config, seed, n_samples, pick):
        counts += _relay_pass(links, l_sd, rhos, thresholds)
        del l_sd, links  # before the next block's links are laid out
    return [
        OutageEstimate(
            rho=rho,
            r=r,
            p_out=count / n_samples,
            n_samples=n_samples,
            ci_half_width=_wilson_half_width(count / n_samples, n_samples),
        )
        for rho, count in zip(rhos, counts.tolist())
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
    _check_rho(rho)
    n_samples, n_bins = _check_integers(n_samples=n_samples, n_bins=n_bins)
    if n_samples < 1000:
        raise DomainError(f"need at least 1000 samples, got {n_samples}")
    if n_bins < 1:
        raise DomainError(f"need at least 1 bin, got {n_bins}")
    note = ""
    if n_samples < 50 * n_bins:
        n_bins = n_samples // 50
        note = f"reduced to {n_bins} bins to keep bins populated"

    # the largest eigenvalue of W1, W2 and W3 per sample, block by block
    tops = ([], [], [])
    for channels in _walk_channels(config, seed, n_samples):
        for top, w in zip(tops, _composite_grams(rho, *channels)):
            top.append(np.linalg.eigvalsh(w)[:, -1])
        del channels  # before the next block's are built
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
