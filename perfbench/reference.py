"""Independent references for the benchmark's output checks.

Nothing here imports relaydmt: each quantity is computed from its textbook
statement so that a fault shared by the program's own routes still shows.

- Point-to-point tradeoff (Zheng and Tse, IEEE Trans. IT 49(5), 2003): the
  piecewise-linear curve through the corner points (j, (nt - j)(nr - j)).
- Full-duplex relay (cut-set bound, Yuksel and Erkip, IEEE Trans. IT 53(10),
  2007): min(ptp(m + k, n), ptp(m, n + k)).
- (1, k, 1) dynamic half-duplex closed form, and (n, 1, n), where the
  half-duplex relay reaches the full-duplex bound ptp(n + 1, n).
- Outage recount of one simulator block, drawn straight from
  Philox(key=[seed, block]) and scored with eigenvalue log-dets.
"""

from __future__ import annotations

import math

import numpy as np


def ptp(nt: int, nr: int, r: float) -> float:
    """Point-to-point tradeoff by linear interpolation of the corner points."""
    corners = [(j, (nt - j) * (nr - j)) for j in range(min(nt, nr) + 1)]
    r = min(max(r, 0.0), float(min(nt, nr)))
    for (r0, d0), (r1, d1) in zip(corners, corners[1:]):
        if r <= r1:
            return d0 + (d1 - d0) * (r - r0) / (r1 - r0)
    return float(corners[-1][1])


def fd(m: int, k: int, n: int, r: float) -> float:
    """Full-duplex cut-set tradeoff: the tighter antenna-pooling cut."""
    return min(ptp(m + k, n, r), ptp(m, n + k, r))


def closed_form(m: int, k: int, n: int, r: float):
    """Known closed-form dynamic half-duplex tradeoff, or None."""
    if m == n == 1:
        if r <= 1.0 / (k + 1):
            return (k + 1) * (1.0 - r)
        if r <= 0.5:
            return 1.0 + k * (1.0 - 2.0 * r) / (1.0 - r)
        return 2.0 * (1.0 - r)
    if m == n and k == 1:
        return ptp(n + 1, n, r)
    return None


BLOCK_SIZE = 65536


def draw_block(m: int, k: int, n: int, seed: int, block: int, count: int = BLOCK_SIZE):
    """One block of channel triples in the simulator's documented draw order:
    direct (n x m), in-hop (k x m), out-hop (n x k); for each matrix the real
    parts, then the imaginary parts; each scaled by sqrt(1/2)."""
    rng = np.random.Generator(np.random.Philox(key=[seed, block]))
    out = []
    for shape in ((count, n, m), (count, k, m), (count, n, k)):
        re = rng.standard_normal(shape)
        im = rng.standard_normal(shape)
        out.append(math.sqrt(0.5) * (re + 1j * im))
    return out


def _log2_det(rho: float, h: np.ndarray) -> np.ndarray:
    """log2 det(I + rho h h^H) per sample, from the eigenvalues of h^H h."""
    gram = np.conj(np.swapaxes(h, 1, 2)) @ h
    eig = np.clip(np.linalg.eigvalsh(gram), 0.0, None)
    return np.log2(1.0 + rho * eig).sum(axis=1)


def cutset_rates(h_sd, h_sr, h_rd, rho: float) -> np.ndarray:
    """Half-duplex cut-set rate with the best listen fraction t:
    max_t min(t L_listen + (1 - t) L_sd, t L_sd + (1 - t) L_joint)."""
    l_sd = _log2_det(rho, h_sd)
    gain_tx = np.maximum(_log2_det(rho, np.concatenate([h_sd, h_rd], axis=2)) - l_sd, 0.0)
    gain_rx = np.maximum(_log2_det(rho, np.concatenate([h_sr, h_sd], axis=1)) - l_sd, 0.0)
    total = gain_tx + gain_rx
    t = np.divide(gain_tx, total, out=np.full_like(total, 0.5), where=total > 0.0)
    return l_sd + np.minimum(t * gain_rx, (1.0 - t) * gain_tx)


def outage_count_range(m, k, n, rho, r, seed, block, count=BLOCK_SIZE, margin=1e-9):
    """(sure, possible): outages in one block, without and with the samples
    whose rate lies within ``margin`` bits of the threshold r log2(rho)."""
    rates = cutset_rates(*draw_block(m, k, n, seed, block, count), rho)
    threshold = r * math.log2(rho)
    return int((rates < threshold - margin).sum()), int((rates < threshold + margin).sum())
