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
from functools import cached_property
from typing import NamedTuple, Sequence

_TOL = 1e-9


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConfigurationError(ValueError):
    """A request is inconsistent with the antenna configuration."""


def _is_integer(value) -> bool:
    """Whether an argument is an integer: any ``numbers.Integral`` but a ``bool``."""
    return type(value) is int or (
        isinstance(value, numbers.Integral) and not isinstance(value, bool)
    )


def _check_count(value, name: str) -> int:
    if not _is_integer(value) or value < 1:
        raise ConfigurationError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class AntennaConfig:
    """Antenna counts at the source (m), relay (k) and destination (n)."""

    m: int
    k: int
    n: int

    def __post_init__(self):
        for name in ("m", "k", "n"):
            object.__setattr__(self, name, _check_count(getattr(self, name), name))

    # cached in the instance dict, which the generated eq, hash and repr
    # never read: the scalar exponent functions look these up on every call

    @cached_property
    def u(self) -> int:
        """Nonzero eigenvalue count of the direct link, min(m, n)."""
        return min(self.m, self.n)

    @cached_property
    def p(self) -> int:
        """Nonzero eigenvalue count of the source-relay hop, min(m, k)."""
        return min(self.m, self.k)

    @cached_property
    def q(self) -> int:
        """Nonzero eigenvalue count of the relay-destination hop, min(n, k)."""
        return min(self.n, self.k)

    @cached_property
    def max_mux(self) -> int:
        """Largest supported multiplexing gain, min(m, n)."""
        return min(self.m, self.n)

    @cached_property
    def _coeffs(self) -> tuple:
        """Linear weights and cross-term index pairs of the exponent functionals."""
        m, k, n = self.m, self.k, self.n
        u, p, q = self.u, self.p, self.q
        obj_alpha = tuple(float(n + m + 2 * k - 2 * i - 1) for i in range(u))
        den_alpha = tuple(float(n + m - 2 * i - 1) for i in range(u))
        w_beta = tuple(float(k + m - 2 * j - 1) for j in range(p))
        w_delta = tuple(float(k + n - 2 * l - 1) for l in range(q))
        # cross terms exist only for index pairs with (i+1) + (j+1) <= m resp. n
        ab_pairs = tuple((i, j) for i in range(u) for j in range(p) if i + j + 2 <= m)
        ad_pairs = tuple((i, l) for i in range(u) for l in range(q) if i + l + 2 <= n)
        return obj_alpha, den_alpha, w_beta, w_delta, ab_pairs, ad_pairs

    def swapped(self) -> "AntennaConfig":
        """Reciprocal configuration with source and destination exchanged."""
        return AntennaConfig(self.n, self.k, self.m)


def _check_ordered(values: tuple, name: str) -> None:
    for v in values:
        if not math.isfinite(v):
            raise DomainError(f"{name} contains a non-finite entry: {v!r}")
    for lo, hi in zip(values, values[1:]):
        if hi < lo - 1e-12:
            raise DomainError(f"{name} must be non-decreasing, got {values}")


@dataclass(frozen=True, init=False)
class ExponentTriple:
    """Ordered SNR-exponent vectors of the three eigenvalue sets."""

    alpha: tuple
    beta: tuple
    delta: tuple

    def __init__(self, alpha: Sequence[float], beta: Sequence[float], delta: Sequence[float]):
        al, be, de = tuple(map(float, alpha)), tuple(map(float, beta)), tuple(map(float, delta))
        # finite and exactly sorted entries pass in C-level sweeps; anything
        # else takes the per-vector rule, with its 1e-12 slack and messages
        if not (
            all(map(math.isfinite, al + be + de))
            and all(map(float.__le__, al, al[1:]))
            and all(map(float.__le__, be, be[1:]))
            and all(map(float.__le__, de, de[1:]))
        ):
            _check_ordered(al, "alpha")
            _check_ordered(be, "beta")
            _check_ordered(de, "delta")
        object.__setattr__(self, "alpha", al)
        object.__setattr__(self, "beta", be)
        object.__setattr__(self, "delta", de)


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


def _check_number(value, name: str):
    """``value`` if it is a real number; a bool (numpy's too) is not read as 0 or 1."""
    if type(value) is float or isinstance(value, numbers.Real) and not isinstance(value, bool):
        return value
    raise DomainError(f"{name} must be a number, not a bool, got {value!r}")


def _check_r(r: float, top: float) -> float:
    """r clamped to [0, top]; beyond float dust outside it, NaN or a bool is
    a DomainError."""
    if type(r) is not float:
        _check_number(r, "r")
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


def diversity_objective(config: AntennaConfig, triple: ExponentTriple) -> float:
    """Cost functional whose constrained minimum is the diversity order.

    Defined for exponent vectors with entries in [0, 1]; on that cube it
    agrees exactly with :func:`density_exponent`.
    """
    _check_lengths(config, triple)
    obj_alpha, _, w_beta, w_delta, ab_pairs, ad_pairs = config._coeffs
    al, be, de = triple.alpha, triple.beta, triple.delta
    total = -2.0 * config.k * config.u
    for c, x in zip(obj_alpha + w_beta + w_delta, al + be + de):
        total += c * x
    # a hinge at or below 0 adds nothing: total is never -0.0 here
    for i, j in ab_pairs:
        hinge = 1.0 - al[i] - be[j]
        if hinge > 0.0:
            total += hinge
    for i, l in ad_pairs:
        hinge = 1.0 - al[i] - de[l]
        if hinge > 0.0:
            total += hinge
    return total


def density_exponent(config: AntennaConfig, triple: ExponentTriple) -> float:
    """Negative SNR exponent of the joint eigenvalue-exponent density.

    Valid for any non-negative exponents (entries are not capped at 1).
    Meaningful only on the support set, see :func:`in_support`.
    """
    _check_lengths(config, triple)
    _, den_alpha, w_beta, w_delta, ab_pairs, ad_pairs = config._coeffs
    al, be, de = triple.alpha, triple.beta, triple.delta
    total = 0.0
    for c, x in zip(den_alpha + w_beta + w_delta, al + be + de):
        total += c * x
    # total starts at +0.0 and so is never -0.0: skipping a zero hinge
    # leaves it bit for bit as adding it would
    for x in al:
        if x < 1.0:
            total -= 2.0 * config.k * (1.0 - x)
    for i, j in ab_pairs:
        hinge = 1.0 - al[i] - be[j]
        if hinge > 0.0:
            total += hinge
    for i, l in ad_pairs:
        hinge = 1.0 - al[i] - de[l]
        if hinge > 0.0:
            total += hinge
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


def _deficit(vector: tuple) -> float:
    """Sum of 1 - x over the entries below 1, added left to right from +0.0,
    so that every CPython gives the same bits (``sum()`` compensates from 3.12)."""
    total = 0.0
    for x in vector:
        if x < 1.0:
            total += 1.0 - x
    return total


def rate_exponent(triple: ExponentTriple) -> float:
    """Multiplexing level carried by a triple: the direct-link level plus the
    harmonic split of the two relay hops (zero when both hops carry nothing).
    """
    sa, sb, sd = _deficit(triple.alpha), _deficit(triple.beta), _deficit(triple.delta)
    if sb + sd == 0.0:
        return sa
    return sa + sb * sd / (sb + sd)


def exponent_profile(level: float, length: int) -> tuple:
    """Cheapest ordered exponent vector realising an aggregate level.

    The first floor(level) entries drop to 0, the next one absorbs the
    fractional remainder and the rest stay at 1, so that the deficits
    1 - v[i] sum exactly to ``level``.
    """
    if not _is_integer(length) or length < 1:
        raise DomainError(f"profile length must be a positive integer, got {length!r}")
    if not -_TOL <= level <= length + _TOL:
        raise DomainError(f"level {level} outside [0, {length}]")
    out = []
    for i in range(length):
        spent = level - i
        v = 1.0 - spent if spent > 0.0 else 1.0
        out.append(v if v > 0.0 else 0.0)
    return tuple(out)
