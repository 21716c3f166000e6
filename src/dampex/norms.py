"""Region-restricted L2 norms in frequency and their closed-form twins.

The quadrature route (`norm_curve`) integrates |f|^2 over balls, annuli,
exteriors or all of R^n (n <= 3) and never looks inside f.  It samples f
shell by shell: f receives the times, R radii and m unit directions (the
two directions +-1 on the line) and returns the (T, R, m) values at the
points r * d, so whatever depends only on (t, |xi|) is computed once per
(time, radius).  The closed-form route evaluates the same norms for
polynomial-times-Gaussian integrands through exact sphere moments and
incomplete-gamma radial factors.  Keeping both routes independent is the point: the tests check
each closed form against the generic quadrature of the very polynomial it
summarises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InsufficientOrderError
from .expansion import ExpansionPolynomial, build_expansion
from .indices import Alpha, degree, indices_of_degree
from .initial_data import MomentTable, moment_table
from .quadrature import (adaptive_1d, angular_sums, integrate_radial,
                         radial_breakpoints, truncation_radius)
from .spectral import SpectralSolution

LOW_RADIUS = 0.5            # residual-norm split radii inside and outside
HIGH_RADIUS = 2.0           # the unit sphere
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class FrequencyRegion:
    """ball(r), annulus(r_lo, r_hi), exterior(r) or the full space."""

    kind: str
    dimension: int
    r_lo: float = 0.0
    r_hi: float = math.inf

    def __post_init__(self):
        if self.kind not in ("ball", "annulus", "exterior", "full"):
            raise ValueError("unknown region kind")
        if self.dimension not in (1, 2, 3):
            raise ValueError("supported dimensions are 1, 2, 3")
        if math.isnan(self.r_lo) or math.isnan(self.r_hi):
            raise ValueError("radii must not be NaN")
        if self.r_lo < 0 or self.r_hi <= self.r_lo:
            raise ValueError("radii must be positive and ordered")

    @classmethod
    def ball(cls, radius, dimension):
        return cls("ball", dimension, 0.0, float(radius))

    @classmethod
    def annulus(cls, r_lo, r_hi, dimension):
        if r_lo <= 0:
            raise ValueError("annulus needs a positive inner radius")
        return cls("annulus", dimension, float(r_lo), float(r_hi))

    @classmethod
    def exterior(cls, radius, dimension):
        return cls("exterior", dimension, float(radius), math.inf)

    @classmethod
    def full(cls, dimension):
        return cls("full", dimension, 0.0, math.inf)

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.r_hi)


@dataclass(frozen=True, eq=False)
class RegionNorm:
    value: float
    error_estimate: float
    evaluations: int
    region: FrequencyRegion


# the two points of the "unit sphere" of the line and their counting weights
_LINE_DIRS = np.array([[1.0], [-1.0]])
_LINE_WEIGHTS = np.ones(2)


def norm_curve(f, region: FrequencyRegion, ts, tol=1e-9, *,
               inner_scales=None, breakpoints=(),
               value_floor=1e-14) -> list[RegionNorm]:
    """(integral_region |f(t, xi)|^2 dxi)^{1/2} for every t of ``ts`` at once.

    ``f(ts, radii, dirs)`` receives the times as a 1-D array, R radii and an
    (m, n) array of unit directions and returns the complex values at the
    points r * d, of shape (len(ts), R, m): one row per time, one column
    per shell.  All times share one truncation radius (the largest any of
    them needs), one angular rule (stable for every time) and one set of
    radial panels, each sampled once for all times; every time still
    converges to its own relative target ``tol``.  ``inner_scales`` gives
    per time the width of an integrand concentrated near the origin
    (1/sqrt(t) for heat-type weights); the radial split points are the
    union of their geometric ladders plus the kinks in ``breakpoints``.
    Norms below ``value_floor`` are reported as converged at zero (the
    relative target is meaningless there); the floor squared acts as the
    absolute tolerance of the underlying integrals.  Returns one RegionNorm
    per time, each carrying the evaluation count of the whole curve.
    """
    ts = np.asarray(ts, dtype=float)
    n = region.dimension
    scales = [None] * len(ts) if inner_scales is None else list(inner_scales)
    abs_floor = max(value_floor * value_floor, 1e-300)

    def field(radii, dirs):
        return np.abs(f(ts, radii, dirs)) ** 2

    lo, hi = region.r_lo, region.r_hi
    tail = np.zeros(len(ts))
    if not region.bounded:
        start = max([4.0, 2.0 * lo] + [4.0 * s for s in scales if s])
        hi, tail = truncation_radius(field, n, start, rows=len(ts))
        if hi <= lo:
            return [RegionNorm(0.0, math.sqrt(e), 0, region) for e in tail]

    brk = sorted(set().union(
        *(radial_breakpoints(lo, hi, s, breakpoints) for s in scales)))
    if n == 1:
        res = adaptive_1d(
            lambda r: angular_sums(field, r, _LINE_DIRS, _LINE_WEIGHTS, len(ts)),
            lo, hi, tol, abs_floor=abs_floor, breakpoints=brk)
        evaluations = 2 * res.evaluations
    else:
        res = integrate_radial(field, n, lo, hi, tol, extra_breakpoints=brk,
                               abs_floor=abs_floor, rows=len(ts))
        evaluations = res.evaluations
    out = []
    for total, err2 in zip(res.value, res.error_estimate + tail):
        value = math.sqrt(max(total, 0.0))
        err = err2 / (2.0 * value) if value > 0 else math.sqrt(err2)
        out.append(RegionNorm(value, float(err), evaluations, region))
    return out


def region_l2_norm(f, region: FrequencyRegion, tol=1e-9, *,
                   inner_scale=None, breakpoints=(),
                   value_floor=1e-14) -> RegionNorm:
    """(integral_region |f(xi)|^2 dxi)^{1/2}: ``norm_curve`` at one time.

    ``f`` must accept an (m, n) array of points and return complex values of
    shape (m,); it is sampled on the shells' points.  ``inner_scale``,
    ``breakpoints`` and ``value_floor`` act as in ``norm_curve``.
    """
    def on_shells(ts, radii, dirs):
        pts = (radii[:, None, None] * dirs).reshape(-1, region.dimension)
        return np.asarray(f(pts)).reshape(1, len(radii), len(dirs))

    (norm,) = norm_curve(on_shells, region, (math.nan,), tol,
                         inner_scales=(inner_scale,), breakpoints=breakpoints,
                         value_floor=value_floor)
    return norm


# ---------------------------------------------------------------------------
# Exact Gaussian-polynomial norms


@lru_cache(maxsize=None)
def sphere_monomial_integral(alpha: Alpha) -> float:
    """integral over the unit sphere S^{n-1} of omega^{2 alpha}."""
    n = len(alpha)
    if n == 1:
        return 2.0
    num = 1.0
    for a in alpha:
        num *= math.gamma(a + 0.5)
    return 2.0 * num / math.gamma(degree(alpha) + n / 2.0)


def radial_gaussian_integral(m: int, rate: float, radius=None) -> float:
    """integral_0^R r^m e^{-rate r^2} dr (R = infinity when radius is None)."""
    s = (m + 1) / 2.0
    scale = 0.5 * rate ** (-s) * math.gamma(s)
    if radius is None:
        return scale
    return scale * regularised_lower_gamma(s, rate * radius * radius)


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


def gaussian_monomial_integral(alpha: Alpha, rate=2.0, radius=None) -> float:
    """integral over the ball |xi| <= R (or R^n) of xi^{2 alpha} e^{-rate |xi|^2}."""
    alpha = tuple(int(a) for a in alpha)
    n = len(alpha)
    m = 2 * degree(alpha) + n - 1
    return sphere_monomial_integral(alpha) * radial_gaussian_integral(m, rate, radius)


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
            total += weight * gaussian_monomial_integral(half, 2.0, radius)
    return math.sqrt(max(total, 0.0))


def heat_increment_norm(k: int, table: MomentTable, radius=None) -> float:
    """|| C_k e^{-|xi|^2} ||_{L2} over R^n (default) or a ball.

    Expands |C_k|^2 = sum over alpha of xi^{2 alpha} sums of moment products;
    the Gaussian monomial integrals are exact.
    """
    if table.order < k:
        raise InsufficientOrderError(f"need moments to order {k}")
    n = table.dimension
    total = 0.0
    for alpha in indices_of_degree(n, k):
        two_alpha = tuple(2 * a for a in alpha)
        inner = 0.0
        for beta1 in indices_of_degree(n, k):
            beta2 = tuple(t - b for t, b in zip(two_alpha, beta1))
            if any(b < 0 for b in beta2):
                continue
            inner += table.moment(beta1) * table.moment(beta2)
        if inner:
            total += gaussian_monomial_integral(alpha, 2.0, radius) * inner
    return math.sqrt(max(total, 0.0))


# ---------------------------------------------------------------------------
# Residual norms


def residual_norm(sol: SpectralSolution, t: float, k: int,
                  region: FrequencyRegion | None = None, tol=1e-9) -> RegionNorm:
    """|| u_hat(t) - A_{k-1} e^{-t |xi|^2} ||_{L2(region)} (full space default).

    This is the quantity sandwiched between the two t^{-n/4-k/2} bounds;
    ``residual_norm_curve`` at the single time t.
    """
    return residual_norm_curve(sol, (t,), k, region, tol)[0]


def residual_norm_curve(sol: SpectralSolution, ts, k: int,
                        region: FrequencyRegion | None = None,
                        tol=1e-9) -> list[RegionNorm]:
    """``residual_norm`` at every t of ``ts``, integrated on shared panels.

    Each time's inner ladder starts at its heat width 1/sqrt(max(t, 1));
    LOW_RADIUS and HIGH_RADIUS bracket the unit sphere, where the solution's
    two decay rates e^{-t|xi|^2} and e^{-t} cross.
    """
    ts = np.asarray(ts, dtype=float)
    if np.any(ts <= 0):
        raise ValueError("t must be positive")
    poly = build_expansion("A", k - 1, moment_table(sol.v, max(k - 1, 0)))
    region = region or FrequencyRegion.full(sol.dimension)
    kinks = (LOW_RADIUS, HIGH_RADIUS)
    return norm_curve(
        lambda ts, radii, dirs: sol.residual_shells(ts, radii, dirs, poly),
        region, ts, tol, inner_scales=1.0 / np.sqrt(np.maximum(ts, 1.0)),
        breakpoints=kinks)
