"""Region-restricted L2 norms in frequency and their closed-form twins.

The quadrature route (`region_l2_norm`) integrates |f|^2 over balls,
annuli, exteriors or all of R^n (n <= 3) and never looks inside f.  The
closed-form route evaluates the same norms for polynomial-times-Gaussian
integrands through exact sphere moments and incomplete-gamma radial
factors.  Keeping both routes independent is the point: each lower-bound
constant below is checked against the generic quadrature of the very
polynomial it summarises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special

from .errors import InsufficientOrderError
from .expansion import ExpansionPolynomial, build_expansion, heat_partial_sum
from .indices import Alpha, degree, indices_of_degree
from .initial_data import (InitialDatum, MomentTable, absolute_moment,
                           moment_table, weighted_l1_norm)
from .quadrature import (adaptive_1d, angular_sums, integrate_radial,
                         radial_breakpoints, truncation_radius)
from .spectral import LowFrequencySymbol, SpectralSolution


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

    ``f(ts, pts)`` receives the times as a 1-D array and an (m, n) array of
    points and returns complex values of shape (len(ts), m), one row per
    time.  All times share one truncation radius (the largest any of them
    needs), one angular rule (stable for every time) and one set of radial
    panels, each sampled once for all times; every time still converges to
    its own relative target ``tol``.  ``inner_scales`` gives per time the
    width of an integrand concentrated near the origin (1/sqrt(t) for
    heat-type weights); the radial split points are the union of their
    geometric ladders plus the kinks in ``breakpoints``.  Norms below
    ``value_floor`` are reported as converged at zero (the relative target
    is meaningless there); the floor squared acts as the absolute
    tolerance of the underlying integrals.  Returns one RegionNorm per time,
    each carrying the evaluation count of the whole curve.
    """
    ts = np.asarray(ts, dtype=float)
    n = region.dimension
    scales = [None] * len(ts) if inner_scales is None else list(inner_scales)
    abs_floor = max(value_floor * value_floor, 1e-300)

    def field(pts):
        return np.abs(np.asarray(f(ts, pts))) ** 2

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
    shape (m,); ``inner_scale``, ``breakpoints`` and ``value_floor`` act as
    in ``norm_curve``.
    """
    (norm,) = norm_curve(lambda ts, pts: np.asarray(f(pts))[None], region,
                         (math.nan,), tol, inner_scales=(inner_scale,),
                         breakpoints=breakpoints, value_floor=value_floor)
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
        num *= special.gamma(a + 0.5)
    return 2.0 * num / special.gamma(degree(alpha) + n / 2.0)


def radial_gaussian_integral(m: int, rate: float, radius=None) -> float:
    """integral_0^R r^m e^{-rate r^2} dr (R = infinity when radius is None)."""
    s = (m + 1) / 2.0
    scale = 0.5 * rate ** (-s) * special.gamma(s)
    if radius is None:
        return scale
    return scale * special.gammainc(s, rate * radius * radius)


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


# ---------------------------------------------------------------------------
# Closed-form lower-bound constants


def increment_lower_constant_1d(k: int, table: MomentTable) -> float:
    """|| B_k e^{-|xi|^2} ||_{L2(|xi| <= 1/2)} in dimension one.

    The increment collapses to (alternating moment sum) * xi^k, so the norm
    is the k-th radial factor times |sum_j (-1)^j M_{2j}| (even k) or
    |sum_j (-1)^j M_{2j+1}| (odd k).
    """
    if table.dimension != 1:
        raise ValueError("this closed form is one-dimensional")
    if table.order < k:
        raise InsufficientOrderError(f"need moments to order {k}")
    if k % 2 == 0:
        coeff = math.fsum((-1.0) ** j * table.moment((2 * j,))
                          for j in range(k // 2 + 1))
    else:
        coeff = math.fsum((-1.0) ** j * table.moment((2 * j + 1,))
                          for j in range((k - 1) // 2 + 1))
    radial = radial_factor_1d(k)
    return radial * abs(coeff)


def radial_factor_1d(k: int) -> float:
    """(2 integral_0^{1/2} xi^{2k} e^{-2 xi^2} dxi)^{1/2}."""
    return math.sqrt(2.0 * radial_gaussian_integral(2 * k, 2.0, 0.5))


@dataclass(frozen=True)
class LowerBoundConstants:
    """Ball-restricted Gaussian moments and the raw-moment functionals that
    enter the order-two increment norm in dimensions n >= 2."""

    dimension: int
    c1: float                      # integral_{|xi|<=1/2} xi_1^4 e^{-2|xi|^2}
    c12: float                     # integral_{|xi|<=1/2} xi_1^2 xi_2^2 e^{-2|xi|^2}
    v_values: tuple[float, ...]    # V_j = integral v - (1/2) integral x_j^2 v
    w_values: dict                 # (j, k) -> integral x_j x_k v,  j < k


def lower_bound_constants(table: MomentTable) -> LowerBoundConstants:
    n = table.dimension
    if n < 2:
        raise ValueError("these constants are defined for n >= 2")
    if table.order < 2:
        raise InsufficientOrderError("need moments to order 2")
    e = lambda j: tuple(2 if i == j else 0 for i in range(n))
    pair = lambda j, k: tuple(1 if i in (j, k) else 0 for i in range(n))
    raw0 = table.raw((0,) * n)
    v_values = tuple(raw0 - 0.5 * table.raw(e(j)) for j in range(n))
    w_values = {(j, k): table.raw(pair(j, k))
                for j in range(n) for k in range(j + 1, n)}
    c1_alpha = tuple(2 if i == 0 else 0 for i in range(n))
    c12_alpha = tuple(1 if i <= 1 else 0 for i in range(n))
    return LowerBoundConstants(
        dimension=n,
        c1=gaussian_monomial_integral(c1_alpha, 2.0, 0.5),
        c12=gaussian_monomial_integral(c12_alpha, 2.0, 0.5),
        v_values=v_values,
        w_values=w_values,
    )


def increment_lower_constant(k: int, table: MomentTable) -> float:
    """|| B_k e^{-|xi|^2} ||_{L2(|xi| <= 1/2)} for n >= 2 and k in {0, 1, 2}.

    k = 0: |M_0| times the ball norm of e^{-|xi|^2};
    k = 1: (sum of squared first moments)^{1/2} times the xi_1^2 factor;
    k = 2: the V/W quadratic form with the two ball constants above.
    Higher k has no closed form here; use region_l2_norm on the built
    polynomial instead.
    """
    n = table.dimension
    if n < 2:
        raise ValueError("use increment_lower_constant_1d in dimension one")
    if k == 0:
        zero = (0,) * n
        ball = gaussian_monomial_integral(zero, 2.0, 0.5)
        return abs(table.moment(zero)) * math.sqrt(ball)
    if k == 1:
        if table.order < 1:
            raise InsufficientOrderError("need moments to order 1")
        sq = math.fsum(table.moment(a) ** 2 for a in indices_of_degree(n, 1))
        c_alpha = tuple(1 if i == 0 else 0 for i in range(n))
        return math.sqrt(gaussian_monomial_integral(c_alpha, 2.0, 0.5) * sq)
    if k == 2:
        c = lower_bound_constants(table)
        quad = c.c1 * math.fsum(v * v for v in c.v_values)
        quad += c.c12 * math.fsum(2.0 * c.v_values[j] * c.v_values[kk]
                                  + c.w_values[(j, kk)] ** 2
                                  for j in range(n) for kk in range(j + 1, n))
        return math.sqrt(max(quad, 0.0))
    raise ValueError("closed forms exist for k in {0, 1, 2} only; "
                     "use region_l2_norm on the built polynomial")


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
    the kinks are the radii where the solution switches representation.
    """
    ts = np.asarray(ts, dtype=float)
    if np.any(ts <= 0):
        raise ValueError("t must be positive")
    poly = build_expansion("A", k - 1, moment_table(sol.v, max(k - 1, 0)))
    region = region or FrequencyRegion.full(sol.dimension)
    eps = sol.band_halfwidth
    kinks = (sol.low_radius, 1.0 - eps, 1.0, 1.0 + eps, sol.high_radius)
    return norm_curve(lambda ts, pts: sol.residual_curve(ts, pts, poly), region,
                      ts, tol, inner_scales=1.0 / np.sqrt(np.maximum(ts, 1.0)),
                      breakpoints=kinks)


# ---------------------------------------------------------------------------
# Grid-based remainder ratios (boundedness proxies for the two key bounds)


def _ray_grid(dimension: int, radii) -> np.ndarray:
    """Deterministic direction x radius grid, no duplicate origin points."""
    if dimension == 1:
        dirs = np.array([[1.0], [-1.0]])
    elif dimension == 2:
        ang = np.arange(8) * (math.pi / 4.0)
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    else:
        base = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1),
                (0, 1, 1), (1, 1, 1), (1, -1, 0), (0, 1, -1), (1, 1, -1)]
        dirs = np.array([d / np.linalg.norm(d) for d in np.asarray(base, float)])
    radii = np.asarray(list(radii), dtype=float)
    return (radii[:, None, None] * dirs[None, :, :]).reshape(-1, dimension)


def taylor_remainder_sup_ratio(v: InitialDatum, gamma: float, radii,
                               tol=1e-10) -> float:
    """sup over a grid of |v_hat - partial sum| / (|xi|^gamma integral |x|^gamma |v|).

    The bound behind the expansion machinery asserts this ratio is finite;
    stability of the grid supremum under refinement is the checkable proxy.
    """
    m = math.floor(gamma)
    table = moment_table(v, m)
    partial = heat_partial_sum(table, m)
    denom_weight = absolute_moment(v, gamma, tol=tol)
    pts = _ray_grid(v.dimension, radii)
    gaps = np.abs(v.fourier_transform(pts) - partial(pts))
    r = np.linalg.norm(pts, axis=1)
    return float(np.max(gaps / (r ** gamma * denom_weight)))


def symbol_gap_sup_ratio(v: InitialDatum, gamma: float, radii,
                         tol=1e-10) -> float:
    """sup over a grid (inside |xi| <= 1/2) of |F^v - A_{[gamma]}| / (|xi|^gamma ||v||_{1,gamma})."""
    radii = [r for r in radii if 0.0 < r <= 0.5]
    m = math.floor(gamma)
    table = moment_table(v, m)
    profile = build_expansion("A", m, table)
    symbol = LowFrequencySymbol(v)
    denom_weight = weighted_l1_norm(v, gamma, tol=tol)
    pts = _ray_grid(v.dimension, radii)
    gaps = np.abs(symbol(pts) - profile(pts))
    r = np.linalg.norm(pts, axis=1)
    return float(np.max(gaps / (r ** gamma * denom_weight)))
