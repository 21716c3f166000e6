"""Region-restricted L2 norms in frequency and their closed-form twins.

The quadrature route (`norm_curve`) integrates |f|^2 over balls, annuli,
exteriors or all of R^n (n <= 3) and never looks inside f.  It samples f
shell by shell, in every dimension through ``integrate_radial``: each
field call builds one ``spectral.Shells`` at R radii and m unit directions
(one of each antipodal pair; +1 on the line), and f returns the (T, R, m)
values at its points r * d, so whatever depends only on (t, |xi|) is
computed once per (time, radius).  The closed-form route
evaluates the same norms for polynomial-times-Gaussian integrands through
exact sphere moments and incomplete-gamma radial factors.  Keeping both
routes independent is the point: the tests check each closed form against
the generic quadrature of the very polynomial it summarises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expansion import ExpansionPolynomial, build_expansion
from .indices import Alpha, degree
from .initial_data import MomentTable, moment_table
from .quadrature import (QuadResult, integrate_radial, radial_breakpoints,
                         truncation_radius)
from .spectral import Shells, SpectralSolution

LOW_RADIUS = 0.5            # residual-norm split radii inside and outside
HIGH_RADIUS = 2.0           # the unit sphere
RESIDUAL_BREAKPOINTS = (LOW_RADIUS, HIGH_RADIUS)  # every residual's kinks
VALUE_FLOOR = 1e-14         # its square is the integrals' absolute tolerance
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class FrequencyRegion:
    """ball(r), annulus(r_lo, r_hi), exterior(r) or the full space."""

    dimension: int
    r_lo: float = 0.0
    r_hi: float = math.inf

    def __post_init__(self):
        if self.dimension not in (1, 2, 3):
            raise ValueError("supported dimensions are 1, 2, 3")
        if math.isnan(self.r_lo) or math.isnan(self.r_hi):
            raise ValueError("radii must not be NaN")
        if self.r_lo < 0 or self.r_hi <= self.r_lo:
            raise ValueError("radii must be positive and ordered")

    @classmethod
    def ball(cls, radius, dimension):
        return cls(dimension, 0.0, float(radius))

    @classmethod
    def annulus(cls, r_lo, r_hi, dimension):
        if r_lo <= 0:
            raise ValueError("annulus needs a positive inner radius")
        return cls(dimension, float(r_lo), float(r_hi))

    @classmethod
    def exterior(cls, radius, dimension):
        return cls(dimension, float(radius), math.inf)

    @classmethod
    def full(cls, dimension):
        return cls(dimension, 0.0, math.inf)

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.r_hi)


def norm_curve(f, region: FrequencyRegion, ts, tol=1e-9, *,
               breakpoints=()) -> QuadResult:
    """(integral_region |f(t, xi)|^2 dxi)^{1/2} for every t of ``ts`` at once.

    ``f(shells)`` receives one ``Shells`` per field call, at R radii and m
    unit directions, and returns the real or complex values at its points
    r * d, of shape (len(ts), R, m): one row per time of ``ts``, one column
    per shell.  All times share one truncation radius (the largest any of
    them needs), one angular rule (stable for every time) and one set of
    radial panels, each sampled once for all times; every time still
    converges to its own relative target ``tol``.  The rows need not be
    one curve's: a case stacks the rows of all its full-space curves, each
    row with its own time (``experiments.Case.integrate_curves``), and
    ``breakpoints`` then holds every member's kinks.  The radial split points
    are one ladder from the narrowest heat width 1/sqrt(max(t, 1)), that of
    the largest time, doubling (none for a NaN time), plus the kinks in
    ``breakpoints``.  An unbounded region is truncated at the first
    candidate past which every time is negligible: the ladder edges
    between 2 r_lo and the start max(4, 2 r_lo), the start, then radii
    growing from it.  So an exterior keeps at least its shell
    [r_lo, 2 r_lo] and the panels are a prefix of those up to the start.
    The integrand must satisfy |f(t, -xi)| = |f(t, xi)|, as the
    transforms of real data and the polynomials built from their moments
    do: every rule samples one direction of each antipodal pair at twice
    its weight.  Each integral
    of |f|^2 converges to its relative target ``tol`` or to the absolute
    tolerance VALUE_FLOOR^2 (VALUE_FLOOR = 1e-14), whichever is larger,
    so a norm below VALUE_FLOOR carries an absolute estimate.  The
    estimate of a norm is its integral's error delta (panels, angular term
    and truncation tail) taken through the square root: delta / (2 norm),
    capped at sqrt(delta) since |sqrt(a) - sqrt(b)| <= sqrt|a - b|.
    Returns one QuadResult: (len(ts),) arrays of norms and estimates, one
    count of the points sampled and the ``stalled`` flag.
    """
    ts = np.asarray(ts, dtype=float)
    n = region.dimension

    def field(radii, dirs):
        return np.abs(f(Shells(radii, dirs))) ** 2

    lo, hi = region.r_lo, region.r_hi
    width = 1.0 / np.sqrt(np.maximum(ts.max(), 1.0))
    tail = np.zeros(len(ts))
    if not region.bounded:
        start = max(4.0, 2.0 * lo)
        edges = radial_breakpoints(2.0 * lo, start, width)
        hi, tail = truncation_radius(field, n, start, rows=len(ts), edges=edges)
        if hi <= lo:
            return QuadResult(np.zeros(len(ts)), np.sqrt(tail), 0)

    brk = radial_breakpoints(lo, hi, width, breakpoints)
    res = integrate_radial(field, n, lo, hi, tol, extra_breakpoints=brk,
                           abs_floor=VALUE_FLOOR * VALUE_FLOOR, rows=len(ts))
    value = np.sqrt(np.maximum(res.value, 0.0))
    err2 = res.error_estimate + tail
    # |sqrt(a) - sqrt(b)| <= sqrt|a - b| caps the linearised err2 / (2 value)
    root = np.sqrt(err2)
    err = np.minimum(
        np.divide(err2, 2.0 * value, out=root.copy(), where=value > 0), root)
    return QuadResult(value, err, res.evaluations, res.stalled)


def _at_one_time(curve: QuadResult) -> QuadResult:
    """Row 0 of a one-time ``curve``, its norm and estimate as floats."""
    return QuadResult(float(curve.value[0]), float(curve.error_estimate[0]),
                      curve.evaluations, curve.stalled)


def region_l2_norm(f, region: FrequencyRegion, tol=1e-9, *,
                   t=math.nan) -> QuadResult:
    """(integral_region |f(xi)|^2 dxi)^{1/2}: ``norm_curve`` at one time.

    ``f`` must accept an (m, n) array of points and return real or complex
    values of shape (m,); it is sampled on the shells' points, one of
    each antipodal pair, so it must satisfy |f(-xi)| = |f(xi)|, as
    transforms of real data do.  ``t`` is the time whose heat width the
    panels resolve (none by default); a norm below VALUE_FLOOR = 1e-14
    carries an absolute estimate.
    """
    def on_shells(shells):
        pts = shells.pts
        return np.asarray(f(pts.reshape(-1, region.dimension))).reshape(
            1, *pts.shape[:-1])

    return _at_one_time(norm_curve(on_shells, region, (t,), tol))


# ---------------------------------------------------------------------------
# Exact Gaussian-polynomial norms


def sphere_monomial_integral(alpha: Alpha) -> float:
    """integral over the unit sphere S^{n-1} of omega^{2 alpha}."""
    n = len(alpha)
    if n == 1:
        return 2.0
    num = 1.0
    for a in alpha:
        num *= math.gamma(a + 0.5)
    return 2.0 * num / math.gamma(degree(alpha) + n / 2.0)


def radial_gaussian_integral(m: int, radius=None) -> float:
    """integral_0^R r^m e^{-2 r^2} dr (R = infinity when radius is None)."""
    s = (m + 1) / 2.0
    scale = 0.5 * 2.0 ** (-s) * math.gamma(s)
    if radius is None:
        return scale
    return scale * regularised_lower_gamma(s, 2.0 * radius * radius)


def regularised_lower_gamma(s: float, x: float) -> float:
    """P(s, x) = gamma(s, x) / Gamma(s) by the all-positive series
    x^s e^{-x} sum_j x^j / Gamma(s + j + 1) (DLMF 8.7.1).

    No term cancels, so the sum is accurate to a few ulps; it converges
    fast for x up to about s + 1, and every caller passes x = 0.5 (the
    half ball at rate 2).
    """
    term = x ** s * math.exp(-x) / math.gamma(s + 1.0)
    total, j = term, 0
    while term > _EPS * total:
        j += 1
        term *= x / (s + j)
        total += term
    return total


def gaussian_monomial_integral(alpha: Alpha, radius=None) -> float:
    """integral over the ball |xi| <= R (or R^n) of xi^{2 alpha} e^{-2 |xi|^2}."""
    alpha = tuple(int(a) for a in alpha)
    n = len(alpha)
    m = 2 * degree(alpha) + n - 1
    return sphere_monomial_integral(alpha) * radial_gaussian_integral(m, radius)


def poly_gaussian_l2_norm(poly: ExpansionPolynomial, radius=None) -> float:
    """Exact || P(xi) e^{-|xi|^2} ||_{L2} over a ball (or R^n).

    Expands P to monomials and uses the sphere-moment factorization of
    integral xi^{mu+nu} e^{-2|xi|^2}; odd monomials drop out.
    """
    mono = poly.canonical
    n = poly.dimension
    total = 0.0
    for mu, cmu in mono:
        for nu, cnu in mono:
            combined = tuple(a + b for a, b in zip(mu, nu))
            if any(c % 2 for c in combined):
                continue
            weight = (cmu * cnu.conjugate()).real
            half = tuple(c // 2 for c in combined)
            total += weight * gaussian_monomial_integral(half, radius)
    return math.sqrt(max(total, 0.0))


def heat_increment_norm(k: int, table: MomentTable, radius=None) -> float:
    """|| C_k e^{-|xi|^2} ||_{L2} over R^n (default) or a ball: the exact
    norm of the built heat increment C_k (``build_expansion("C", k, table)``)."""
    return poly_gaussian_l2_norm(build_expansion("C", k, table), radius)


# ---------------------------------------------------------------------------
# Residual norms


def residual_norm(sol: SpectralSolution, t: float, k: int,
                  region: FrequencyRegion | None = None, tol=1e-9) -> QuadResult:
    """|| u_hat(t) - A_{k-1} e^{-t |xi|^2} ||_{L2(region)} (full space default).

    This is the quantity sandwiched between the two t^{-n/4-k/2} bounds;
    ``residual_norm_curve`` at the single time t, with A_{k-1} built from
    the moments of v = u0 + u1.
    """
    poly = build_expansion("A", k - 1, moment_table(sol.v, max(k - 1, 0)))
    return _at_one_time(residual_norm_curve(sol, (t,), poly, region, tol))


def residual_norm_curve(sol: SpectralSolution, ts, poly: ExpansionPolynomial,
                        region: FrequencyRegion | None = None,
                        tol=1e-9) -> QuadResult:
    """|| u_hat(t) - poly e^{-t |xi|^2} || at every t of ``ts`` as one
    ``norm_curve`` record: per-time arrays and one ``evaluations`` count;
    ``poly`` is the caller's profile A_{k-1}.

    One ladder from the narrowest heat width 1/sqrt(max(t, 1)), doubling,
    serves every time; LOW_RADIUS and HIGH_RADIUS bracket the unit sphere,
    where the solution's two decay rates e^{-t|xi|^2} and e^{-t} cross.
    """
    ts = np.asarray(ts, dtype=float)
    if np.any(ts <= 0):
        raise ValueError("t must be positive")
    region = region or FrequencyRegion.full(sol.dimension)
    return norm_curve(lambda shells: sol.residual_shells(ts, shells, poly),
                      region, ts, tol, breakpoints=RESIDUAL_BREAKPOINTS)
