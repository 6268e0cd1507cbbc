"""Tradeoff solvers.

The production path reduces the exponent minimisation to the aggregate
levels (a, b, s) of the three links on the rate surface and solves it
exactly, by scoring every vertex where two kink planes of the piecewise
linear objective cross that surface.  A brute-force grid oracle over the
full exponent vectors cross-checks it on small configurations, and the
closed forms known for special antenna arrangements are provided with their
domain logic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Sequence, Union

import numpy as np

from .core import (
    AntennaConfig,
    ConfigurationError,
    DmtCurve,
    DomainError,
    ExponentTriple,
    _TOL,
    _check_count,
    _check_number,
    _check_r,
    exponent_profile,
    fd_dmt,
    ptp_dmt,
)

# slack for float dust on a computed vertex before it is tested against the caps
_ROOT_TOL = 1e-12
# slack of the prunes ahead of that test; 1000 x _ROOT_TOL keeps them
# conservative, since line directions and cap normals are small integers
_CLIP_SLACK = 1e-9
# listen fraction of the fixed relay schedule
_LISTEN = 0.5
# candidate cells (r x candidates per r) one engine pass holds: it caps the
# pass's temporaries; 2**15 measured no faster, with a higher peak RSS
_PASS_CELLS = 2**14
# grid-oracle cells (alpha x beta x delta vectors) it scores at most: the count
# at step 0.05 on (2,2,2), the largest that step gives under u+p+q <= 6
_GRID_CELLS = 231**3
# kink lines the dynamic engine builds at most: the count at (256,256,256),
# ten family pairs of 257 x 257 planes
_KINK_LINES = 10 * 257**2
# candidates the static engine scores per r at most, 6 x 65,792 breakpoints
# at max(m, n) = 65,791; the value, 6 x 257 x 256, keeps every configuration
# solvable that a cap of that many profile entries per r admitted
_STATIC_CELLS = 6 * 257 * 256


class SolverRefusal(RuntimeError):
    """A solver declined an instance that exceeds its practical size cap."""


@dataclass(frozen=True)
class LevelTriple:
    """Aggregate levels of the three links: direct a, in-hop b, out-hop s."""

    a: float
    b: float
    s: float


@dataclass(frozen=True)
class SolveResult:
    """Diversity value with the minimiser that attains it and solver stats."""

    d: float
    argmin: Union[LevelTriple, ExponentTriple]
    method: str
    evaluations: int


# ---------------------------------------------------------------------------
# exact two-level solver: vectorised objective and vertex enumeration


def _objective_levels(config: AntennaConfig, a, b, s) -> np.ndarray:
    """``diversity_objective`` of the profiles of the levels a, b and s, in
    closed form: O(1) per candidate.  a is clipped to [0, u] first, as
    :func:`_best_vertex` admits it within ``_ROOT_TOL`` of its range.

    The profile of a level x on L entries is 0 below A = floor(x) (capped at
    L - 1), 1 - f at A, with f = x - A, and 1 above.  So its dot with the
    weights c - 2i is (L - A - 1)(c - L - A) + (1 - f)(c - 2A).  A hinge
    (1 - alpha_i - beta_j)^+ of the direct level's A, f_a and the in-hop
    level's B, f_b takes one of five values:

    - 1 where i < A and j < B, both entries 0;
    - f_b where i < A and j = B;
    - f_a where i = A and j < B;
    - (f_a + f_b - 1)^+ where i = A and j = B;
    - 0 where i > A or j > B, an entry 1.

    The pairs run over i + j <= m - 2, and A, B <= m - 1.  So the ones number
    A B - T(A + B - m), with T(y) = y^+ (y^+ + 1)/2 the pairs of the A x B
    block past that diagonal; the f_b edge has min(m - 1 - B, A) pairs, the
    f_a edge min(m - 1 - A, B), and the corner is a pair if A + B <= m - 2.
    The pairs of a and s with n take the same form.  The terms add in the
    scalar function's order: the three dots, -2ku, then the hinges.
    """
    m, k, n, u = config.m, config.k, config.n, config.u
    x = np.array([np.minimum(np.maximum(a, 0.0), u), b, s])
    length = np.array([[u], [config.p], [config.q]], dtype=float)
    c = np.array([[n + m + 2 * k - 1], [k + m - 1], [k + n - 1]], dtype=float)
    whole = np.minimum(np.floor(x), length - 1.0)
    frac = x - whole
    dots = (length - whole - 1.0) * (c - length - whole) + (1.0 - frac) * (c - 2.0 * whole)
    total = dots[0] + dots[1] + dots[2] - 2.0 * k * u
    # row 0 the (a, b) pairs under m, row 1 the (a, s) pairs under n
    A, B, fa, fb = whole[0], whole[1:], frac[0], frac[1:]
    top = np.array([[m - 1.0], [n - 1.0]])
    over = A + B - top
    past = np.maximum(over - 1.0, 0.0)
    hinges = (
        (A * B - past * (past + 1.0) / 2.0)
        + fb * np.minimum(top - B, A)
        + fa * np.minimum(top - A, B)
        + np.where(over < 0.0, np.maximum(fa + fb - 1.0, 0.0), 0.0)
    )
    return total + hinges[0] + hinges[1]


# kink planes n . (a, b, s) = c of the reduced objective, one row of n per
# family: the integer levels of each link, and the diagonals a + b and a + s
# that carry the cross terms.  The caps b = p, s = q, a + b = m and a + s = n
# belong to these families.
_KINK_NORMALS = np.array(
    [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [1, 0, 1]], dtype=float
)


def _all_kink_lines(config: AntennaConfig):
    """Point and direction of every line where two kink planes cross;
    refuses past ``_KINK_LINES`` lines, counted before any array is built."""
    tops = (config.u, config.p, config.q, config.m, config.n)
    count = sum((f + 1) * (g + 1) for f, g in itertools.combinations(tops, 2))
    if count > _KINK_LINES:
        raise SolverRefusal(f"vertex engine refuses {count} kink lines > {_KINK_LINES}")
    family = np.repeat(np.arange(len(tops)), [top + 1 for top in tops])
    level = np.concatenate([np.arange(top + 1.0) for top in tops])
    # planes of one family are parallel: each plane meets the later families'
    # planes, so the index arrays are ``count`` long
    i, j = [], []
    for f, top in enumerate(tops):
        own, later = np.flatnonzero(family == f), np.flatnonzero(family > f)
        i.append(np.repeat(own, len(later)))
        j.append(np.tile(later, top + 1))
    i, j = np.concatenate(i), np.concatenate(j)
    n1, n2 = _KINK_NORMALS[family[i]], _KINK_NORMALS[family[j]]
    directions = np.cross(n1, n2)
    points = (
        level[i, None] * np.cross(n2, directions)
        + level[j, None] * np.cross(directions, n1)
    ) / (directions * directions).sum(axis=1, keepdims=True)
    return points, directions


@lru_cache(maxsize=None)
def _kink_lines(config: AntennaConfig):
    """The kink lines x0 + t d that meet the level caps widened by
    ``_CLIP_SLACK``, in their order: point, direction, the t interval
    inside, and the r-free parts of the surface quadratic.

    Depends on the configuration only; the arrays are read-only because the
    cache hands the same ones to every solve.
    """
    points, directions = _all_kink_lines(config)
    # -a, -b, -s <= 0 and the kink forms a, b, s, a + b, a + s <= max_mux, p, q, m, n
    normals = np.vstack([-np.eye(3), _KINK_NORMALS])
    caps = np.array([0, 0, 0, config.max_mux, config.p, config.q, config.m, config.n])
    room = caps + _CLIP_SLACK - (points[:, None] * normals).sum(axis=2)
    speed = (directions[:, None] * normals).sum(axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        ends = room / speed
    t_lo = np.where(speed < 0, ends, -np.inf).max(axis=1)
    t_hi = np.where(speed > 0, ends, np.inf).min(axis=1)
    keep = (t_lo <= t_hi) & ((speed != 0) | (room >= 0)).all(axis=1)
    (a0, b0, s0), (da, db, ds) = points[keep].T, directions[keep].T
    r_free = np.array(
        [-da * (db + ds) - db * ds, db + ds, da * (b0 + s0), b0 * ds, db * s0, b0 + s0, b0 * s0]
    )
    lines = points[keep], directions[keep], t_lo[keep], t_hi[keep], r_free
    for array in lines:
        array.setflags(write=False)
    return lines


def _surface_crossings(r: np.ndarray, points, directions, t_lo, t_hi, r_free):
    """Where each line x0 + t d meets the rate surface (r - a)(b + s) = b s of each r.

    The surface equation is a quadratic in t; lines on which it vanishes
    identically (the a = r axes and the spurious b = s = 0 line) and lines
    that miss the surface give no point.  Roots outside the line's t
    interval or with a > r + ``_CLIP_SLACK`` are dropped too: they cannot
    pass the inside test of :func:`_best_vertex`.  Returns the index of the
    r each crossing belongs to, grouped by r, and its a, b and s.
    """
    (a0, b0, s0), (da, db, ds) = points.T, directions.T
    qa, qb_rest, qb1, qb2, qb3, qc_rest, qc0 = r_free
    rest = r[:, None] - a0
    # rest (db + ds) - da (b0 + s0) - b0 ds - db s0 and rest (b0 + s0) - b0 s0;
    # qb's terms go one by one, as one folded constant would round otherwise
    qb = rest * qb_rest - qb1 - qb2 - qb3
    qc = rest * qc_rest - qc0
    with np.errstate(divide="ignore", invalid="ignore"):
        # cancellation-free roots; NaN or inf marks a missing one
        q = -0.5 * (qb + np.copysign(np.sqrt(qb * qb - 4.0 * qa * qc), qb))
        quadratic = qa != 0.0
        t1 = np.where(quadratic, q / qa, -qc / qb)
        t = np.stack([t1, np.where(quadratic, qc / q, np.nan)], axis=1)
        a = a0 + t * da
    found = (t >= t_lo) & (t <= t_hi) & (a <= r[:, None, None] + _CLIP_SLACK)
    group, _, line = np.nonzero(found)
    t = t[found]
    return group, a[found], b0[line] + t * db[line], s0[line] + t * ds[line]


def _two_var_block(config: AntennaConfig, r: np.ndarray):
    """:func:`_best_vertex` over the crossings of every r, each followed by
    its a = r axis ends (r, 0, s_cap) and (r, b_cap, 0)."""
    group, a, b, s = _surface_crossings(r, *_kink_lines(config))
    crossing = b + s > _ROOT_TOL
    index, zero = np.arange(len(r)), np.zeros(len(r))
    b_cap, s_cap = np.minimum(config.p, config.m - r), np.minimum(config.q, config.n - r)
    columns = zip((group, a, b, s), (index, r, zero, s_cap), (index, r, b_cap, zero))
    return _best_vertex(config, r, *(np.concatenate([x[crossing], *ends]) for x, *ends in columns))


def solve_two_var(config: AntennaConfig, r: float) -> SolveResult:
    """Diversity order at multiplexing gain r via the two-level reduction.

    The reduced objective is piecewise linear in the levels (a, b, s), with
    kinks on the planes a, b, s, a + b, a + s = integer, and decreases in
    every level, so the minimum lies on the rate surface (r - a)(b + s) = b s.
    On that surface the objective is concave inside every linear cell, hence
    the minimum sits at a vertex: a point where two kink planes cross the
    surface, or an end of the a = r axis segments (r, 0, s_cap) and
    (r, b_cap, 0).  They are scored at once by :func:`_best_vertex`, and
    ``evaluations`` counts those inside the caps.  A batch of one r of the
    engine that :func:`dmt_curve` runs over a whole grid.
    """
    return _solve_one(_two_var_block, config, r, "two-var")


def _best_vertex(config: AntennaConfig, r: np.ndarray, group, a, b, s):
    """Score the candidates with 0 <= a <= r[group] inside the level caps,
    with the ``_ROOT_TOL`` dust clipped, on their levels in closed form
    (:func:`_objective_levels`), and keep the least per r; ties
    within 1e-9 go to the smallest a, then b, then s, so d, a, b and s
    depend only on the set of candidates, not on their order or repeats.
    Returns the columns d, a, b, s and evaluations, one entry per r."""
    b_cap = np.minimum(config.p, config.m - a)
    s_cap = np.minimum(config.q, config.n - a)
    inside = (
        (a >= -_ROOT_TOL)
        & (a <= r[group] + _ROOT_TOL)
        & (b >= -_ROOT_TOL)
        & (b <= b_cap + _ROOT_TOL)
        & (s >= -_ROOT_TOL)
        & (s <= s_cap + _ROOT_TOL)
    )
    group, a = group[inside], a[inside]
    b = np.minimum(np.maximum(b[inside], 0.0), b_cap[inside])
    s = np.minimum(np.maximum(s[inside], 0.0), s_cap[inside])
    values = _objective_levels(config, a, b, s)
    least = np.full(len(r), np.inf)
    np.minimum.at(least, group, values)
    near = np.flatnonzero(values <= least[group] + 1e-9)
    near = near[np.lexsort((s[near], b[near], a[near], group[near]))]
    best = near[np.searchsorted(group[near], np.arange(len(r)))]  # the first of each r
    evaluations = np.bincount(group, minlength=len(r))
    return np.maximum(values[best], 0.0), a[best], b[best], s[best], evaluations


def _solve_grid(block, config: AntennaConfig, r_grid):
    """Columns d, a, b, s, evaluations of ``block`` over the grid, solved in
    passes of as many r as fit ``_PASS_CELLS`` candidate cells; every r
    passes ``_check_r`` first."""
    r = np.array([_check_r(x, config.max_mux) for x in r_grid], dtype=float)
    step = max(1, _PASS_CELLS // _CELLS_PER_R[block](config))
    parts = [block(config, r[i:i + step]) for i in range(0, len(r), step)]
    return [np.concatenate(column) for column in zip(*parts)]


def _solve_one(block, config: AntennaConfig, r: float, method: str) -> SolveResult:
    """``block`` at the one r, as a SolveResult."""
    d, a, b, s, evaluations = (column[0].item() for column in _solve_grid(block, config, [r]))
    return SolveResult(d, LevelTriple(a, b, s), method, evaluations)


def _static_block(config: AntennaConfig, r: np.ndarray):
    """:func:`_best_vertex` over the listen-plane then the transmit-plane
    kinks of every r as listed, repeats included (see :func:`solve_static`)."""
    t, levels = _LISTEN, np.arange(max(config.m, config.n) + 1.0)

    def kinks(w):  # a = i, r - w j, (r - w c)/(1 - w) per r, flat, as listed
        rest = r[:, None] - w * levels
        rows = np.concatenate([np.broadcast_to(levels, rest.shape), rest, rest / (1.0 - w)], axis=1)
        return rows.ravel(), np.repeat(np.arange(len(r)), rows.shape[1])

    (listen, in_listen), (transmit, in_transmit) = kinks(t), kinks(1.0 - t)
    b = np.concatenate([(r[in_listen] - listen) / t, np.minimum(config.p, config.m - transmit)])
    s = np.concatenate(
        [np.minimum(config.q, config.n - listen), (r[in_transmit] - transmit) / (1 - t)]
    )
    group = np.concatenate([in_listen, in_transmit])
    return _best_vertex(config, r, group, np.concatenate([listen, transmit]), b, s)


def solve_static(config: AntennaConfig, r: float) -> SolveResult:
    """Diversity order at multiplexing gain r when the relay listens for the
    fixed fraction t = 1/2 of the block.

    The rate level a + min(t b, (1 - t) s) makes the outage set the union of
    a listen half-space a + t b <= r, with the out-hop level s free and so at
    its cap, and a transmit half-space a + (1 - t) s <= r, with b at its cap.
    On either plane a + w x = r the objective is piecewise linear in a, so
    :func:`_best_vertex` scores its kinks: integer a (where the cap kinks too),
    x = j (a = r - w j) and a + x = c (a = (r - w c)/(1 - w)), j, c <= max(m, n),
    scored as listed: a breakpoint two families share counts once per family
    in ``evaluations``.  A batch of one r, like :func:`solve_two_var`.
    """
    return _solve_one(_static_block, config, r, "static-exact")


def _static_cells(config: AntennaConfig) -> int:
    """Candidate cells one r adds to a static pass: three kink families on
    each static plane, an exact count, as the breakpoints are scored with
    their repeats.  Each candidate is scored on its levels alone, so the
    count bounds every array of a one-r solve; it refuses past
    ``_STATIC_CELLS``, counted before any array is built."""
    cells = 6 * (max(config.m, config.n) + 1)
    if cells > _STATIC_CELLS:
        raise SolverRefusal(f"static engine refuses {cells} candidates > {_STATIC_CELLS}")
    return cells


# candidate cells one r adds to a pass of each engine: two roots per kink
# line that meets the caps, or ``_static_cells``
_CELLS_PER_R = {
    _two_var_block: lambda c: 2 * len(_kink_lines(c)[0]),
    _static_block: _static_cells,
}


# ---------------------------------------------------------------------------
# brute-force oracle over the full exponent vectors


def solve_general_grid(config: AntennaConfig, r: float, step: float = 0.05) -> SolveResult:
    """Exhaustive minimisation over ordered exponent vectors on a [0, 1] grid.

    Only the grid points satisfying the support inequalities and the rate
    constraint are scored, so the result upper-bounds the exact optimum by at
    most the grid discretisation.  Serves as an independent cross-check for
    :func:`solve_two_var` on small configurations.
    """
    u, p, q = config.u, config.p, config.q
    if u + p + q > 6:
        raise SolverRefusal(
            f"grid oracle refuses u+p+q={u + p + q} > 6 (combinatorial blow-up)"
        )
    if not 0.0 < step <= 0.25:
        raise DomainError(f"step {step} outside (0, 0.25]")
    r = _check_r(r, config.max_mux)

    # clamped where the cap refuses anyway, so that a subnormal step's
    # 1/step = inf still counts its cells
    n_levels = max(1, round(min(1.0 / step, _GRID_CELLS)))
    # ordered vectors of a given length over n_levels + 1 grid values
    cells = math.prod(math.comb(n_levels + length, length) for length in (u, p, q))
    if cells > _GRID_CELLS:
        raise SolverRefusal(f"grid oracle refuses {cells} cells > {_GRID_CELLS} at step {step}")
    values = np.linspace(0.0, 1.0, n_levels + 1)

    def combos(length):
        rows = list(itertools.combinations_with_replacement(values, length))
        return np.array(rows, dtype=float)

    A, B, D = combos(u), combos(p), combos(q)
    sa = (1.0 - A).sum(axis=1)
    sb = (1.0 - B).sum(axis=1)
    sd = (1.0 - D).sum(axis=1)
    m, k, n = config.m, config.k, config.n
    obj_alpha, _, w_beta, w_delta, ab_pairs, ad_pairs = config._coeffs
    fa = A @ np.asarray(obj_alpha) - 2.0 * k * u
    fb = B @ np.asarray(w_beta)
    fd_ = D @ np.asarray(w_delta)

    def hop_terms(H, side, pairs):
        # support inequalities bind at the smallest admissible alpha index
        ok = np.ones((len(A), len(H)), dtype=bool)
        cross = np.zeros((len(A), len(H)))
        for j in range(max(0, side - u), H.shape[1]):
            ok &= A[:, side - 1 - j][:, None] + H[:, j][None, :] >= 1.0 - _TOL
        for i, j in pairs:
            cross += np.clip(1.0 - A[:, i][:, None] - H[:, j][None, :], 0.0, None)
        return ok, cross

    ok_ab, cross_ab = hop_terms(B, m, ab_pairs)
    ok_ad, cross_ad = hop_terms(D, n, ad_pairs)

    relay = np.zeros((len(B), len(D)))
    hop_sum = sb[:, None] + sd[None, :]
    np.divide(sb[:, None] * sd[None, :], hop_sum, out=relay, where=hop_sum > 0)

    best_val = math.inf
    best_idx = None
    evaluations = 0
    for x in range(len(A)):
        feas = relay <= (r - sa[x]) + _TOL
        pair_ok = ok_ab[x][:, None] & ok_ad[x][None, :] & feas
        if not pair_ok.any():
            continue
        total = fb[:, None] + fd_[None, :] + cross_ab[x][:, None] + cross_ad[x][None, :]
        total = np.where(pair_ok, total, math.inf)
        evaluations += int(pair_ok.sum())
        yz = int(np.argmin(total))
        val = float(total.flat[yz]) + float(fa[x])
        if val < best_val - 1e-12:
            best_val = val
            best_idx = (x, yz // len(D), yz % len(D))
    if best_idx is None:
        raise RuntimeError(f"grid oracle found no feasible point at r={r}")
    x, y, z = best_idx
    argmin = ExponentTriple(tuple(A[x]), tuple(B[y]), tuple(D[z]))
    return SolveResult(
        d=best_val, argmin=argmin, method="grid-oracle", evaluations=evaluations
    )


# ---------------------------------------------------------------------------
# closed forms


def dmt_1k1(k: int, r: float) -> float:
    """Closed-form tradeoff of the (1, k, 1) relay channel."""
    k = _check_count(k, "k")
    r = _check_r(r, 1)
    if r <= 1.0 / (k + 1):
        return (k + 1) * (1.0 - r)
    if r <= 0.5:
        return 1.0 + k * (1.0 - 2.0 * r) / (1.0 - r)
    return 2.0 * (1.0 - r)


def dmt_n1n(n: int, r: float) -> float:
    """Closed-form tradeoff of the (n, 1, n) relay channel: the (n+1) x n
    point-to-point curve, (n - r)(n + 1 - r) at integer r."""
    n = _check_count(n, "n")
    return ptp_dmt(n + 1, n, r)


def dmt_ddf_1k1(k: int, r: float) -> float:
    """Tradeoff achieved on (1, k, 1) when the relay decodes before
    forwarding; optimal below r = 1/2, (1 - r)/r above."""
    k = _check_count(k, "k")
    r = _check_r(r, 1)
    if r <= 0.5:
        return dmt_1k1(k, r)
    return (1.0 - r) / r


def dmt_static_1k1(k: int, r: float) -> float:
    """Tradeoff of (1, k, 1) with a fixed half-time relay schedule.

    On (1, k, 1) the objective is (2k + 1)(1 - a) - k b - k s with
    b, s <= 1 - a.  On the listen plane b = 2(r - a), s = 1 - a it is
    (k + 1) - 2kr + (k - 1)a, least at the smallest admissible
    a = max(0, 2r - 1); the transmit plane is its mirror image.  So
    d = (k + 1) - 2kr on [0, 1/2] and 2(1 - r) on [1/2, 1].
    """
    k = _check_count(k, "k")
    r = _check_r(r, 1)
    if r <= 0.5:
        return (k + 1) - 2.0 * k * r
    return 2.0 * (1.0 - r)


def _saturated_out_hop_bound(n: int, k: int, N: int, r: float) -> float:
    """Bound from pinning the out-hop level at N with the in-hop saturated."""
    a_level = (n + r) / 2.0 - math.sqrt(((n - r) / 2.0) ** 2 + N * (n - r))
    length = n - N
    value = float(N * N)
    if length > 0:
        prof = exponent_profile(min(max(a_level, 0.0), float(length)), length)
        for i, x in enumerate(prof):
            value += (2 * n + k - N - 2 * i - 1) * x
    return value


def dmt_symmetric_upper(n: int, k: int, r: float) -> float:
    """Upper bound on the (n, k, n) tradeoff: minimum of the pinned-level
    bounds whose stated r-interval contains r."""
    n, k = _check_count(n, "n"), _check_count(k, "k")
    r = _check_r(r, n)
    p = min(n, k)
    bounds = [ptp_dmt(n, n + k, r)]
    if r >= n - p / 2.0 - _TOL:
        bounds.append(ptp_dmt(2 * n, 2 * n, min(2.0 * r, 2.0 * n)))
    if r <= p / 2.0 + _TOL:
        out_level = min(p * r / (p - r), float(p)) if r < p else float(p)
        prof = exponent_profile(out_level, p)
        bounds.append(
            n * n + sum((n + k - 2 * l - 1) * x for l, x in enumerate(prof))
        )
    for N in range(1, p + 1):
        lo = N / 2.0
        hi = min(n - N / 2.0, n - N * N / (2.0 * p - N))
        if lo - _TOL <= r <= hi + _TOL and n - N >= 1:
            shifted = min(max(r - N / 2.0, 0.0), float(n - N))
            bounds.append(N * N + ptp_dmt(n - N, n + 2 * k - N, shifted))
    if k >= n:
        for N in range(1, p + 1):
            lo = max(N * n / (N + n), float(n - p))
            hi = n - N / 2.0
            if lo - _TOL <= r <= hi + _TOL:
                bounds.append(_saturated_out_hop_bound(n, k, N, r))
    return min(bounds)


# ---------------------------------------------------------------------------
# static (n, 1, n) solver


def solve_static_n1n(n: int, r: float) -> SolveResult:
    """:func:`solve_static` on the (n, 1, n) channel, with the argmin given
    as the direct exponents alpha = profile(a) and the single in-hop
    exponent beta = 1 - b."""
    n = _check_count(n, "n")
    res = solve_static(AntennaConfig(n, 1, n), r)
    argmin = ExponentTriple(exponent_profile(res.argmin.a, n), (1.0 - res.argmin.b,), ())
    return replace(res, argmin=argmin)


# ---------------------------------------------------------------------------
# curve generation


_ONE_K_ONE = ("m = n = 1", lambda c: c.m == 1 and c.n == 1)
_N_ONE_N = ("m = n and k = 1", lambda c: c.m == c.n and c.k == 1)
_N_K_N = ("m = n", lambda c: c.m == c.n)


def _pointwise(fn):
    """A scalar d(config, r) as a registry entry over the whole grid."""
    return lambda c, grid: [fn(c, r) for r in grid]


# name -> (configurations it is defined on, the d list of an r grid); every
# entry refuses an r outside its own domain [0, max_mux]
_REGISTRY = {
    "hd-dynamic": (None, lambda c, grid: _solve_grid(_two_var_block, c, grid)[0].tolist()),
    "fd": (None, _pointwise(fd_dmt)),
    "ptp": (None, _pointwise(lambda c, r: ptp_dmt(c.m, c.n, r))),
    "closed-1k1": (_ONE_K_ONE, _pointwise(lambda c, r: dmt_1k1(c.k, r))),
    "closed-n1n": (_N_ONE_N, _pointwise(lambda c, r: dmt_n1n(c.n, r))),
    "symmetric-upper": (_N_K_N, _pointwise(lambda c, r: dmt_symmetric_upper(c.n, c.k, r))),
    "ddf-1k1": (_ONE_K_ONE, _pointwise(lambda c, r: dmt_ddf_1k1(c.k, r))),
    "static-1k1": (_ONE_K_ONE, _pointwise(lambda c, r: dmt_static_1k1(c.k, r))),
    "hd-static": (None, lambda c, grid: _solve_grid(_static_block, c, grid)[0].tolist()),
}
VARIANTS = tuple(_REGISTRY)


def dmt_curve(config: AntennaConfig, variant: str, r_grid: Sequence[float]) -> DmtCurve:
    """Sample one tradeoff variant on a strictly increasing r grid."""
    if variant not in _REGISTRY:
        raise ConfigurationError(f"unknown variant {variant!r}")
    needs, fn = _REGISTRY[variant]
    if needs is not None and not needs[1](config):
        raise ConfigurationError(f"variant {variant!r} needs {needs[0]}, got {config}")
    grid = [float(_check_number(r, "r")) for r in r_grid]
    if not grid:
        raise DomainError("r grid is empty")
    return DmtCurve(config=config, variant=variant, points=tuple(zip(grid, fn(config, grid))))
