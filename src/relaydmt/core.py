"""Exponent algebra shared by every tradeoff computation.

For an (m, k, n) relay configuration the three fading matrices carry
u = min(m, n), p = min(m, k) and q = min(n, k) nonzero eigenvalues.
``alpha``, ``beta`` and ``delta`` hold the negative SNR exponents of those
ordered eigenvalues.  Aggregate "levels" (a, b, s) measure how much
multiplexing each link carries: ``a`` on the direct source-destination link,
``b`` on the source-relay hop and ``s`` on the relay-destination hop.  The
profile map translates a level back into the cheapest exponent vector that
realises it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

_TOL = 1e-9


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConfigurationError(ValueError):
    """A request is inconsistent with the antenna configuration."""


def _check_count(value, name: str) -> int:
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < 1:
        raise ConfigurationError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def _pos(x: float) -> float:
    """Positive part: max(x, 0), no epsilon."""
    return x if x > 0.0 else 0.0


@dataclass(frozen=True)
class AntennaConfig:
    """Antenna counts at the source (m), relay (k) and destination (n)."""

    m: int
    k: int
    n: int

    def __post_init__(self):
        for name in ("m", "k", "n"):
            object.__setattr__(self, name, _check_count(getattr(self, name), name))

    @property
    def u(self) -> int:
        """Nonzero eigenvalue count of the direct link, min(m, n)."""
        return min(self.m, self.n)

    @property
    def p(self) -> int:
        """Nonzero eigenvalue count of the source-relay hop, min(m, k)."""
        return min(self.m, self.k)

    @property
    def q(self) -> int:
        """Nonzero eigenvalue count of the relay-destination hop, min(n, k)."""
        return min(self.n, self.k)

    @property
    def max_mux(self) -> int:
        """Largest supported multiplexing gain, min(m, n)."""
        return min(self.m, self.n)

    def swapped(self) -> "AntennaConfig":
        """Reciprocal configuration with source and destination exchanged."""
        return AntennaConfig(self.n, self.k, self.m)


def _as_ordered_tuple(values: Sequence[float], name: str) -> tuple:
    out = tuple(float(v) for v in values)
    for v in out:
        if not math.isfinite(v):
            raise DomainError(f"{name} contains a non-finite entry: {v!r}")
    for lo, hi in zip(out, out[1:]):
        if hi < lo - 1e-12:
            raise DomainError(f"{name} must be non-decreasing, got {out}")
    return out


@dataclass(frozen=True)
class ExponentTriple:
    """Ordered SNR-exponent vectors of the three eigenvalue sets."""

    alpha: tuple
    beta: tuple
    delta: tuple

    def __post_init__(self):
        object.__setattr__(self, "alpha", _as_ordered_tuple(self.alpha, "alpha"))
        object.__setattr__(self, "beta", _as_ordered_tuple(self.beta, "beta"))
        object.__setattr__(self, "delta", _as_ordered_tuple(self.delta, "delta"))


class DmtPoint(NamedTuple):
    r: float
    d: float


@dataclass(frozen=True)
class DmtCurve:
    """A sampled tradeoff curve tagged with its configuration and variant."""

    config: AntennaConfig
    variant: str
    points: tuple

    def __post_init__(self):
        pts = tuple(DmtPoint(float(r), float(d)) for r, d in self.points)
        object.__setattr__(self, "points", pts)
        for a, b in zip(pts, pts[1:]):
            if b.r <= a.r:
                raise DomainError("curve points must be strictly increasing in r")
            if b.d > a.d + _TOL:
                raise DomainError(
                    f"diversity must be non-increasing in r, got {a} -> {b}"
                )

    def to_record(self) -> dict:
        return {
            "config": {"m": self.config.m, "k": self.config.k, "n": self.config.n},
            "variant": self.variant,
            "points": [{"r": p.r, "d": p.d} for p in self.points],
        }


def _check_r(r: float, top: float) -> float:
    """r clamped to [0, top]; beyond float dust outside it, or NaN, is a
    DomainError."""
    if not -_TOL <= r <= top + _TOL:
        raise DomainError(f"r={r} outside [0, {top}]")
    return min(max(r, 0.0), float(top))


def ptp_dmt(nt: int, nr: int, r: float) -> float:
    """Tradeoff of an nt x nr point-to-point link.

    Piecewise linear between the integer corner points (j, (nt-j)(nr-j)),
    j = 0..min(nt, nr); exact at integer r.
    """
    nt, nr = _check_count(nt, "nt"), _check_count(nr, "nr")
    top = min(nt, nr)
    r = _check_r(r, top)
    j = min(int(r), top - 1)
    d0 = float((nt - j) * (nr - j))
    d1 = float((nt - j - 1) * (nr - j - 1))
    return d0 + (d1 - d0) * (r - j)


def fd_dmt(config: AntennaConfig, r: float) -> float:
    """Tradeoff with a relay that can listen and transmit simultaneously:
    the tighter of the two antenna-pooling cuts."""
    r = _check_r(r, config.max_mux)
    m, k, n = config.m, config.k, config.n
    return min(ptp_dmt(m + k, n, r), ptp_dmt(m, n + k, r))


def _check_lengths(config: AntennaConfig, triple: ExponentTriple) -> None:
    if (
        len(triple.alpha) != config.u
        or len(triple.beta) != config.p
        or len(triple.delta) != config.q
    ):
        raise ConfigurationError(
            f"exponent vectors must have lengths ({config.u}, {config.p}, "
            f"{config.q}), got ({len(triple.alpha)}, {len(triple.beta)}, "
            f"{len(triple.delta)})"
        )


@lru_cache(maxsize=None)
def _coeffs(config: AntennaConfig):
    """Linear weights and cross-term index pairs of the exponent functionals."""
    m, k, n = config.m, config.k, config.n
    u, p, q = config.u, config.p, config.q
    obj_alpha = tuple(float(n + m + 2 * k - 2 * i - 1) for i in range(u))
    den_alpha = tuple(float(n + m - 2 * i - 1) for i in range(u))
    w_beta = tuple(float(k + m - 2 * j - 1) for j in range(p))
    w_delta = tuple(float(k + n - 2 * l - 1) for l in range(q))
    # cross terms exist only for index pairs with (i+1) + (j+1) <= m resp. n
    ab_pairs = tuple((i, j) for i in range(u) for j in range(p) if i + j + 2 <= m)
    ad_pairs = tuple((i, l) for i in range(u) for l in range(q) if i + l + 2 <= n)
    return obj_alpha, den_alpha, w_beta, w_delta, ab_pairs, ad_pairs


def diversity_objective(config: AntennaConfig, triple: ExponentTriple) -> float:
    """Cost functional whose constrained minimum is the diversity order.

    Defined for exponent vectors with entries in [0, 1]; on that cube it
    agrees exactly with :func:`density_exponent`.
    """
    _check_lengths(config, triple)
    obj_alpha, _, w_beta, w_delta, ab_pairs, ad_pairs = _coeffs(config)
    al, be, de = triple.alpha, triple.beta, triple.delta
    total = -2.0 * config.k * config.u
    for c, x in zip(obj_alpha, al):
        total += c * x
    for c, x in zip(w_beta, be):
        total += c * x
    for c, x in zip(w_delta, de):
        total += c * x
    for i, j in ab_pairs:
        total += _pos(1.0 - al[i] - be[j])
    for i, l in ad_pairs:
        total += _pos(1.0 - al[i] - de[l])
    return total


def density_exponent(config: AntennaConfig, triple: ExponentTriple) -> float:
    """Negative SNR exponent of the joint eigenvalue-exponent density.

    Valid for any non-negative exponents (entries are not capped at 1).
    Meaningful only on the support set, see :func:`in_support`.
    """
    _check_lengths(config, triple)
    _, den_alpha, w_beta, w_delta, ab_pairs, ad_pairs = _coeffs(config)
    al, be, de = triple.alpha, triple.beta, triple.delta
    total = 0.0
    for c, x in zip(den_alpha, al):
        total += c * x
    for c, x in zip(w_beta, be):
        total += c * x
    for c, x in zip(w_delta, de):
        total += c * x
    for x in al:
        total -= 2.0 * config.k * _pos(1.0 - x)
    for i, j in ab_pairs:
        total += _pos(1.0 - al[i] - be[j])
    for i, l in ad_pairs:
        total += _pos(1.0 - al[i] - de[l])
    return total


def in_support(config: AntennaConfig, triple: ExponentTriple, slack: float = 0.0) -> bool:
    """Whether the joint exponent density is not exponentially vanishing.

    Requires non-negative ordered exponents with alpha[i] + beta[j] >= 1 for
    every pair beyond the rank budget of the source side (index sums above m)
    and likewise alpha[i] + delta[l] >= 1 beyond the destination side.  A
    positive ``slack`` loosens every inequality by that amount (used for
    finite-SNR empirical checks); a negative one tightens it.
    """
    if not math.isfinite(slack):
        raise DomainError(f"slack must be finite, got {slack}")
    _check_lengths(config, triple)
    m, n = config.m, config.n
    u, p, q = config.u, config.p, config.q
    al, be, de = triple.alpha, triple.beta, triple.delta
    floor = -slack - _TOL
    if (al and al[0] < floor) or (be and be[0] < floor) or (de and de[0] < floor):
        return False
    bar = 1.0 - slack - _TOL
    # alpha is sorted, so only the smallest admissible index per column binds
    for j in range(max(0, m - u), p):
        if al[m - 1 - j] + be[j] < bar:
            return False
    for l in range(max(0, n - u), q):
        if al[n - 1 - l] + de[l] < bar:
            return False
    return True


def rate_exponent(triple: ExponentTriple) -> float:
    """Multiplexing level carried by a triple: the direct-link level plus the
    harmonic split of the two relay hops (zero when both hops carry nothing).
    """
    sa = sum(_pos(1.0 - x) for x in triple.alpha)
    sb = sum(_pos(1.0 - x) for x in triple.beta)
    sd = sum(_pos(1.0 - x) for x in triple.delta)
    if sb + sd == 0.0:
        return sa
    return sa + sb * sd / (sb + sd)


def exponent_profile(level: float, length: int) -> tuple:
    """Cheapest ordered exponent vector realising an aggregate level.

    The first floor(level) entries drop to 0, the next one absorbs the
    fractional remainder and the rest stay at 1, so that the deficits
    1 - v[i] sum exactly to ``level``.
    """
    if length < 1:
        raise DomainError(f"profile length must be positive, got {length}")
    if not -_TOL <= level <= length + _TOL:
        raise DomainError(f"level {level} outside [0, {length}]")
    return tuple(_pos(1.0 - _pos(level - i)) for i in range(length))
