"""Vectorised adaptive quadrature engines.

One-dimensional integrals run on a panel engine: the 21-point
Gauss-Kronrod rule with its embedded 10-point Gauss rule and the QUADPACK
error estimate (Piessens et al., QUADPACK, 1983), the pair behind scipy's
``quad``.  Each refinement round bisects the panels that carry the excess
error and samples the 21 nodes of all of them in one integrand call.  An
integrand may return several rows of values (one per time of a curve);
every row converges to its own tolerance on the shared panels.

Integrals over R^n (n <= 3) pair an angular rule (the line's point +1,
trapezoid on the circle, Gauss-Legendre x trapezoid on the sphere) with
the panel engine in the radius.  Every rule, and every set of truncation
probe directions, holds one direction of each antipodal pair at twice its
weight, since the integrands are even (``norms.norm_curve`` states the
contract); the other half would only repeat the sums.  Their integrands
are fields on shells: ``field(radii, dirs)`` receives R radii and an
(m, n) array of unit directions and returns the (T, R, m) values at the
points r * d, one row per integral (T = ``rows``, which every caller
passes).  So a field can compute whatever depends only on the radius once
per radius and not once per point.  The circle's or sphere's rule is chosen once per call by
doubling until probed shell averages stabilise, so repeated runs are
deterministic; the two coarsest rules are probed in one field call.
Unbounded domains are truncated at the first candidate radius past
which every probed shell is below a relative floor of the running peak;
the candidates are the caller's radii below a start radius
(``norms.norm_curve`` passes its heat-ladder edges, none below twice an
exterior's inner radius), the start radius and then radii growing
outward from it.  The truncation estimate is folded into the reported
error.  A field call holds whole shells up to
BATCH_POINTS values (points x rows).  The cap is sized to hold a
campaign curve's angular probe (9 times on the two coarsest circle
rules) in one call and a panel round in a few; only a shell larger than
that (the finest sphere rule, 576 directions, at more than 28 times) is
sampled in slices of its directions.  This keeps one call's transients
near 1 MiB.  A bare 1-D integrand receives the 21 nodes of at most
QUAD_LIMIT panels per call.

Each angular rule and each set of truncation probe directions is built
once per process, on first use, and kept as read-only arrays; a rule
choice builds only the levels it visits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import QuadratureError

# perfbench/tracer.py rebinds this name, which held scipy.integrate; it
# goes once the tracer stops wrapping it (ROADMAP item 8)
integrate = None

QUAD_LIMIT = 200            # panels per 1-D integral (subintervals in quad)
# values (points x rows) one field call on shells may hold: a 9-time 2-D
# curve's angular probe in one call, a panel round in a few
BATCH_POINTS = 1 << 14
STALL_SLACK = 100.0         # a stalled integral is accepted within this x tol
TRUNCATION_FLOOR = 1e-18   # a shell below this x the running peak is negligible
TRUNCATION_GROWTH = 1.5    # ratio of successive truncation probe radii
TRUNCATION_CAP = 512.0     # largest truncation radius
_LADDER_FACTOR = 2.0

# Kronrod abscissae on [0, 1], descending (odd positions are the Gauss
# nodes), their Kronrod weights, and the Gauss weights of the odd positions
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])
# the 21 nodes on [-1, 1] with their Kronrod and (zero-padded) Gauss weights
_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_KRONROD = np.concatenate([_WGK[:-1], _WGK[::-1]])
_GAUSS = np.zeros(21)
_GAUSS[1:10:2] = _WG
_GAUSS[19:10:-2] = _WG
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class QuadResult:
    """One record per integral call: value and error estimate are (T,)
    arrays, one entry per row or time (a 1-D integrand is one row), or
    floats for a norm at one time.

    ``evaluations`` counts the abscissae (or points) sampled for all rows.
    ``stalled`` is set when the panel budget ran out and the result was
    accepted within STALL_SLACK times the tolerance.
    """

    value: float | np.ndarray
    error_estimate: float | np.ndarray
    evaluations: int
    stalled: bool = False


def _gk21(f, a, b):
    """Kronrod integrals of f on the panels [a_i, b_i], their QUADPACK error
    estimates and the roundoff floors under those estimates, each shaped
    (T, P) after the T rows of f (one for a 1-D f)."""
    centre = 0.5 * (a + b)
    half = 0.5 * (b - a)
    width = np.abs(half)
    fx = np.asarray(f((centre[:, None] + half[:, None] * _NODES).ravel()),
                    dtype=float)
    fv = fx.reshape(-1, len(a), 21)
    resk = fv @ _KRONROD
    err = np.abs(resk - fv @ _GAUSS) * width
    resabs = (np.abs(fv) @ _KRONROD) * width
    resasc = (np.abs(fv - 0.5 * resk[..., None]) @ _KRONROD) * width
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        damped = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc != 0.0) & (err != 0.0), damped, err)
    floor = np.where(resabs > _TINY / (50.0 * _EPS), 50.0 * _EPS * resabs, 0.0)
    return resk * half, np.maximum(err, floor), floor


def _panels_to_split(excess, slack, a, b, budget):
    """Indices of the panels to bisect next.

    ``excess`` is each panel's error above its roundoff floor and ``slack``
    what a row may keep of it.  For every row over its slack, its panels of
    largest excess until the rest fit; at most ``budget`` panels in all,
    the worst relative to their row's slack first.
    """
    slack = slack[:, None]
    order = np.argsort(-excess, axis=1, kind="stable")
    ranked = np.take_along_axis(excess, order, axis=1)
    # the excess left once every panel ranked before this one is split
    rest = ranked.sum(axis=1, keepdims=True) - np.cumsum(ranked, axis=1) + ranked
    chosen = np.zeros(excess.shape, dtype=bool)
    np.put_along_axis(chosen, order, rest > slack, axis=1)
    mid = 0.5 * (a + b)
    idx = np.flatnonzero(chosen.any(axis=0) & (a < mid) & (mid < b))
    if len(idx) > budget:
        with np.errstate(divide="ignore"):
            worst = (excess[:, idx] / slack).max(axis=0)
        idx = np.sort(idx[np.argsort(-worst, kind="stable")[:max(budget, 0)]])
    return idx


def adaptive_1d(f, lo, hi, tol, *, abs_floor=1e-300, breakpoints=()) -> QuadResult:
    """Integrate f on [lo, hi] with relative tolerance tol.

    ``f`` maps a 1-D array of abscissae to (m,) values, one row, or (T, m)
    for T rows; the result holds (T,) arrays and one ``evaluations`` count
    for all rows.  Row t converges to its own target max(tol |I_t|,
    abs_floor), or once every panel's estimate is down to its roundoff
    floor (50 eps times the panel's integral of |f|, as in QUADPACK),
    below which no bisection can certify more.  ``breakpoints`` marks
    interior points where the integrand is not smooth or changes scale
    (the heat ladder of ``radial_breakpoints``, LOW_RADIUS and HIGH_RADIUS
    around the unit sphere, the edge of a heat-vanishing tail ball, the
    origin and the summands' support ends in a weighted L1 norm); the
    initial panels are split there.  When QUAD_LIMIT panels are used up
    first, a result within STALL_SLACK times the target is returned with
    ``stalled=True``, a worse one raises QuadratureError, and so does an
    integrand that is not finite, saying so.
    """
    edges = np.array([lo, *sorted(p for p in set(breakpoints) if lo < p < hi), hi],
                     dtype=float)
    a, b = edges[:-1], edges[1:]
    value, err, floor = _gk21(f, a, b)
    evaluations = 21 * len(a)
    while True:
        total = value.sum(axis=-1)
        error = err.sum(axis=-1)
        roundoff = floor.sum(axis=-1)
        target = np.maximum(np.maximum(tol * np.abs(total), abs_floor), roundoff)
        if np.all(error <= target):
            return QuadResult(total, error, evaluations)
        idx = _panels_to_split(err - floor, target - roundoff, a, b,
                               QUAD_LIMIT - len(a))
        if len(idx) == 0:
            break
        mid = 0.5 * (a[idx] + b[idx])
        new_a = np.concatenate([a[idx], mid])
        new_b = np.concatenate([mid, b[idx]])
        new = _gk21(f, new_a, new_b)
        evaluations += 21 * len(new_a)
        keep = np.ones(len(a), dtype=bool)
        keep[idx] = False
        a = np.concatenate([a[keep], new_a])
        b = np.concatenate([b[keep], new_b])
        value, err, floor = (np.concatenate([old[..., keep], part], axis=-1)
                             for old, part in zip((value, err, floor), new))
    slack = np.maximum(STALL_SLACK * tol * np.abs(total), target)
    bad = ~(error <= slack)
    if np.any(bad):
        worst = int(np.argmax(np.where(bad, error / slack, -1.0)))
        v, e = total[worst], error[worst]
        raise QuadratureError(
            f"1-D quadrature stalled on [{lo}, {hi}]: value={v:.6e}, "
            f"estimate={e:.3e}, target={tol:.1e}" if np.isfinite([v, e]).all()
            else f"1-D quadrature: the integrand is not finite on [{lo}, {hi}]",
            value=float(v), error_estimate=float(e))
    return QuadResult(total, error, evaluations, stalled=True)


def radial_breakpoints(lo, hi, inner_scale, extra=()):
    """Deterministic radial split points: one inner ladder plus kinks.

    The ladder starts at the narrowest heat width ``inner_scale`` (none
    for NaN) and doubles: its edges are exactly inner_scale * 2^j, and
    every wider heat width lies within a factor 2 of one.
    """
    pts = {p for p in extra if lo < p < hi}
    if inner_scale > 0:
        r = inner_scale
        while r < hi:
            if r > lo:
                pts.add(r)
            r *= _LADDER_FACTOR
    return tuple(sorted(pts))


# ---------------------------------------------------------------------------
# angular rules


def _read_only(*arrays):
    for array in arrays:
        array.setflags(write=False)
    return arrays


# the "unit sphere" of the line: of its two points +-1, +1 at twice the
# counting weight (see _half_rule)
_LINE_RULE = _read_only(np.array([[1.0]]), np.array([2.0]))


def circle_nodes(m):
    theta = np.arange(m) * (2.0 * np.pi / m)
    dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    weights = np.full(m, 2.0 * np.pi / m)
    return dirs, weights


def sphere_nodes(m_polar, m_azim):
    mu, w_mu = np.polynomial.legendre.leggauss(m_polar)
    phi = np.arange(m_azim) * (2.0 * np.pi / m_azim)
    sin_th = np.sqrt(np.maximum(0.0, 1.0 - mu**2))
    dirs = np.stack([np.outer(sin_th, np.cos(phi)).ravel(),
                     np.outer(sin_th, np.sin(phi)).ravel(),
                     np.repeat(mu, m_azim)], axis=1)
    weights = np.repeat(w_mu * (2.0 * np.pi / m_azim), m_azim)
    return dirs, weights


def _half_rule(dimension, size):
    """One direction of each antipodal pair of a full rule, at twice its
    weight, as read-only arrays: the full rule's sums of an even integrand
    from half the points.

    The circle of m nodes (m even) keeps theta in [0, pi), its first m/2;
    the sphere keeps mu > 0, its second half: the polar count is even, so
    no node has mu = 0, and the azimuthal count is even, so (phi + pi, -mu)
    is the node opposite (phi, mu).
    """
    dirs, weights = circle_nodes(size) if dimension == 2 else sphere_nodes(*size)
    half = len(weights) // 2
    keep = slice(None, half) if dimension == 2 else slice(half, None)
    return _read_only(dirs[keep], 2.0 * weights[keep])


# the angular rules of each dimension, coarsest first: circle node counts,
# sphere (polar, azimuthal) node counts
_LEVEL_SIZES = {2: (16, 32, 64, 128, 256, 512),
                3: ((6, 12), (8, 16), (12, 24), (16, 32), (24, 48))}


def _level_count(dimension):
    if dimension not in _LEVEL_SIZES:
        raise ValueError("angular rules exist for dimension 2 and 3 only")
    return len(_LEVEL_SIZES[dimension])


@cache
def _angular_rule(dimension, level):
    """(dirs, weights) of angular rule ``level`` (0 the coarsest), one
    direction of each antipodal pair of its full rule."""
    return _half_rule(dimension, _LEVEL_SIZES[dimension][level])


def _angular_levels(dimension):
    """Every angular rule of ``dimension``, coarsest first."""
    return [_angular_rule(dimension, level)
            for level in range(_level_count(dimension))]


def _on_shells(field, radii, dirs, reduce, rows):
    """``reduce`` of ``field`` on every shell r * dirs, one column per radius.

    ``reduce`` collapses the trailing direction axis of (T, R, m) values.
    The radii go out in chunks of whole shells that fit BATCH_POINTS values
    (points x ``rows``); a shell larger than that is sampled in slices of
    its directions, joined before ``reduce``.
    """
    radii = np.asarray(radii, dtype=float)
    m = len(dirs)
    per_call = max(1, BATCH_POINTS // rows)     # points one call may hold
    step = max(1, per_call // m)
    parts = []
    for start in range(0, len(radii), step):
        r = radii[start:start + step]
        if m <= per_call:
            vals = field(r, dirs)
        else:
            vals = np.concatenate([field(r, dirs[j:j + per_call])
                                   for j in range(0, m, per_call)],
                                  axis=-1)
        parts.append(reduce(vals))
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)


def angular_sums(field, radii, dirs, weights, rows):
    """sum_d weights_d field(r, dirs)_d for every r in ``radii``: shape
    (T, R) for a field of ``rows`` = T rows."""
    return _on_shells(field, radii, dirs, lambda vals: vals @ weights, rows)


def _sums_and_roundoff(vals, weights):
    """The shell sums ``vals @ weights`` and their roundoff bound
    m eps sum_d weights_d |vals_d|, stacked."""
    return np.stack([vals @ weights,
                     len(weights) * _EPS * (np.abs(vals) @ weights)])


def choose_angular_rule(field, dimension, probe_radii, tol, *, rows):
    """Pick the coarsest angular rule whose shell integrals have stabilised.

    ``field`` is a field on shells whose ``rows`` rows are nonnegative
    reals; every row must have stabilised.  The rule is fixed for the whole
    subsequent radial integration, keeping the radial integrand smooth and
    the result deterministic.  Returns (dirs, weights, stabilisation_error),
    the error per row: the largest gap between the last two rules' shell
    sums, floored at the sum of their roundoff bounds, since a gap below
    that only follows the summation order.  Every request visits the two
    coarsest rules, so they are sampled in one field call.
    """
    last = _level_count(dimension) - 1
    (dirs0, w0), (dirs1, w1) = _angular_rule(dimension, 0), _angular_rule(dimension, 1)

    def coarsest_two(vals):
        return np.stack([_sums_and_roundoff(vals[..., :len(w0)], w0),
                         _sums_and_roundoff(vals[..., len(w0):], w1)])

    prev, shell = _on_shells(field, probe_radii, np.concatenate([dirs0, dirs1]),
                             coarsest_two, rows)
    level = 1
    while True:
        scale = np.maximum(np.max(np.abs(shell[0]), axis=-1), 1e-300)
        gap = np.max(np.abs(shell[0] - prev[0]), axis=-1)
        stable = np.all(gap <= np.maximum(tol * scale, 1e-306))
        if stable or level == last:
            # a choice that never stabilised keeps the finest rule
            roundoff = np.max(shell[1] + prev[1], axis=-1)
            return (*_angular_rule(dimension, level - 1 if stable else level),
                    np.maximum(gap, roundoff))
        level += 1
        dirs, weights = _angular_rule(dimension, level)
        prev, shell = shell, _on_shells(
            field, probe_radii, dirs,
            lambda vals: _sums_and_roundoff(vals, weights), rows)


# ---------------------------------------------------------------------------
# truncation of unbounded domains


@cache
def _probe_directions(dimension):
    """One of each antipodal pair: +1, 4 of 8 circle and 12 of 24 sphere
    directions."""
    if dimension == 1:
        return _LINE_RULE[0]
    return _half_rule(dimension, 8 if dimension == 2 else (4, 6))[0]


def _surface(dimension, r):
    return {1: 2.0, 2: 2.0 * np.pi * r, 3: 4.0 * np.pi * r**2}[dimension]


def truncation_radius(field, dimension, start, *, rows, edges=()):
    """Radius beyond which ``field``, a field on shells with ``rows`` rows,
    is negligible relative to its peak, and a crude bound for the dropped
    tail, one entry per row, to be folded into error estimates.

    One rule stops the probe: the radius is the first candidate past which
    every shell probed in the current field call is below TRUNCATION_FLOOR
    times the running peak, for every row, and the tail bound is that
    largest probe times the shell measure at the radius times the radius.
    The first call holds a few interior shells, the ascending ``edges``
    below ``start`` and the bundle at r = max(start, 1); its candidates are
    the edges, then r.  Each later call holds the bundle at r grown by
    TRUNCATION_GROWTH, its only candidate.  A bundle samples nearby radii,
    so oscillatory integrands (sinc-type transforms) cannot hide a crest
    between probes.  A field whose interior shells all vanish stops at r
    with no tail; one that reaches TRUNCATION_CAP stops there, its tail
    from the cap's bundle.
    """
    dirs = _probe_directions(dimension)

    def shell_maxima(radii):
        return _on_shells(field, radii, dirs, lambda vals: vals.max(axis=-1),
                          rows)

    def bundle(r):
        # bundle spacing grows with r to straddle unit-period oscillations
        return np.array([r, r + 1.7, r + 4.3, r * 1.013 + 0.5])

    r = max(start, 1.0)
    edges = np.asarray(edges, dtype=float)
    # include a few interior shells so the peak is seen even for
    # integrands concentrated near the origin
    inner = np.concatenate([r * np.array([1e-3, 1e-2, 0.1, 0.5, 1.0]), edges])
    probed = np.concatenate([inner, bundle(min(r, TRUNCATION_CAP))])
    maxima = shell_maxima(probed)
    peak = maxima[..., :len(inner)].max(axis=-1)
    if np.all(peak <= 0.0):
        return min(r, TRUNCATION_CAP), np.zeros_like(peak)
    candidates = np.append(edges, r)
    while r < TRUNCATION_CAP:
        peak = np.maximum(peak, maxima.max(axis=-1))
        # the largest probe at or past each candidate, (T, candidates)
        past = np.where(probed >= candidates[:, None], maxima[..., None, :],
                        0.0).max(axis=-1)
        cut = np.flatnonzero(np.all(past <= TRUNCATION_FLOOR * peak[:, None],
                                    axis=0))
        if len(cut):
            c = candidates[cut[0]]
            return c, past[:, cut[0]] * _surface(dimension, c) * c
        r *= TRUNCATION_GROWTH
        candidates, probed = np.array([r]), bundle(min(r, TRUNCATION_CAP))
        maxima = shell_maxima(probed)
    # the last four probes are the bundle at the cap
    top = maxima[..., -4:].max(axis=-1)
    return TRUNCATION_CAP, top * _surface(dimension, TRUNCATION_CAP) * TRUNCATION_CAP


# ---------------------------------------------------------------------------
# radial-shell integration


def integrate_radial(field, dimension, lo, hi, tol, *, rows, extra_breakpoints=(),
                     abs_floor=1e-300) -> QuadResult:
    """Integral of ``field`` over the shell lo <= |x| <= hi in R^n, n <= 3.

    ``field`` is a field on shells with ``rows`` rows, one integral per row
    on shared panels; it must be even, field(r, -d) = field(r, d), since
    every rule samples one direction of each antipodal pair.  Each panel
    round samples its radial nodes x angular directions together;
    ``evaluations`` counts those points alone, and the line's exact rule
    needs no choice.
    """
    if dimension == 1:
        (dirs, weights), angular_delta = _LINE_RULE, 0.0
    else:
        dirs, weights, angular_delta = choose_angular_rule(
            field, dimension, _probe_list(lo, hi, extra_breakpoints),
            tol / 5.0, rows=rows)

    def shell(r):
        return r ** (dimension - 1) * angular_sums(field, r, dirs, weights, rows)

    res = adaptive_1d(shell, lo, hi, tol, abs_floor=abs_floor,
                      breakpoints=extra_breakpoints)
    # angular stabilisation error enters roughly with the shell measure
    ang_err = angular_delta * max(hi - lo, 0.0) * max(hi, 1.0) ** (dimension - 1)
    return QuadResult(res.value, res.error_estimate + ang_err,
                      res.evaluations * len(weights), res.stalled)


def _probe_list(lo, hi, breakpoints):
    pts = [lo + 1e-4 * (hi - lo), 0.5 * (lo + hi), hi - 1e-4 * (hi - lo)]
    pts.extend(breakpoints)
    pts = sorted({p for p in pts if lo < p < hi})
    return pts or [0.5 * (lo + hi)]
