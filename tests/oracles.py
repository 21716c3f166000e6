"""Independent oracles that the tests compare ``dampex`` against.

None of these runs on a ``dampex`` subcommand's path; each recomputes a
number the package computes another way:

* the closed-form twins of the half-ball increment constant, which the
  campaign takes from ``poly_gaussian_l2_norm`` of the built increment;
* brute-force raw moments by quadrature, against the catalog's closed forms;
* weighted L1 norms by scipy's scalar ``quad``, nested per axis, against
  the package's panel engine;
* the residual integrand evaluated point by point through
  ``SpectralSolution.evaluate``, against the shell route of the norms;
* grid suprema of the Taylor-remainder and symbol-gap ratios, the
  boundedness proxies for the two key estimates behind the expansions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from dampex import (InitialDatum, InsufficientOrderError, LowFrequencySymbol,
                    MomentTable, SpectralSolution, build_expansion,
                    gaussian_monomial_integral, heat_partial_sum, moment_table,
                    weighted_l1_norm)
from dampex.indices import indices_of_degree
from dampex.norms import radial_gaussian_integral
from dampex.quadrature import QUAD_LIMIT, adaptive_1d

# ---------------------------------------------------------------------------
# Pointwise residual


def residual_curve(sol: SpectralSolution, ts, xi, poly) -> np.ndarray:
    """Gap u_hat(t, xi) - poly(xi) e^{-t |xi|^2} at every t of ``ts`` on
    points of shape (m, n): one row per time, shape (len(ts), m).

    Each point takes |xi|^2 from its own coordinates and the solution from
    ``evaluate``'s region policy (split forms off the band, the regular
    form on it).
    """
    ts = np.asarray(ts, dtype=float)
    pts = np.asarray(xi, dtype=float)
    s = np.sum(pts * pts, axis=-1)
    return sol.evaluate(ts, pts) - poly(pts) * np.exp(-np.multiply.outer(ts, s))


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
    Higher k has no closed form here.
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
    raise ValueError("closed forms exist for k in {0, 1, 2} only")


# ---------------------------------------------------------------------------
# Quadrature of the data


def quadrature_raw_moment(v: InitialDatum, alpha, tol=1e-10, *,
                          nested=False, abs_floor=1e-300) -> float:
    """Brute-force integral x^alpha v dx, independent of the closed forms.

    Separable data integrates per axis with the adaptive Gauss-Kronrod rule
    and multiplies; ``nested=True`` (or a non-separable datum) forces a full
    tensor integration instead.
    """
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != v.dimension:
        raise ValueError("multi-index length must equal the dimension")
    if not nested and v.separable:
        total = v.amplitude
        for j, m in enumerate(alpha):
            lo, hi = v.axis_interval(j)
            res = adaptive_1d(lambda y, j=j, m=m: y**m * v.axis_value(j, y),
                              lo, hi, tol / (v.dimension + 1), abs_floor=abs_floor,
                              breakpoints=(0.0,))
            total *= res.value
        return total

    def f(x):
        val = float(v.values(np.asarray(x)))
        for xj, m in zip(x, alpha):
            val *= xj**m
        return val

    return nested_quad(f, v, tol, abs_floor=abs_floor)


def absolute_moment(v: InitialDatum, gamma: float, tol=1e-10) -> float:
    """integral |x|^gamma |v(x)| dx (denominator of the Taylor-remainder ratio)."""
    n = v.dimension
    if n == 1:
        lo, hi = v.axis_interval(0)
        return adaptive_1d(
            lambda y: np.abs(y) ** gamma * np.abs(v.values(y[:, None])),
            lo, hi, tol, breakpoints=(0.0,)).value

    def f(x):
        return math.hypot(*x) ** gamma * abs(float(v.values(np.asarray(x))))

    return nested_quad(f, v, tol)


def scipy_weighted_l1_norm(v: InitialDatum, gamma: float, tol=1e-10) -> float:
    """integral (1 + |x|)^gamma |v(x)| dx by ``nested_quad``."""
    def f(x):
        return (1.0 + math.hypot(*x)) ** gamma * abs(float(v.values(np.asarray(x))))

    return nested_quad(f, v, tol)


def nested_quad(field, v: InitialDatum, tol, *, abs_floor=1e-300) -> float:
    """Integral of the scalar ``field(x)`` over the axis intervals of ``v``:
    scipy's adaptive ``quad`` nested per axis, every axis split at 0, one
    Python call per point."""
    n = v.dimension

    def level(axis, fixed):
        lo, hi = v.axis_interval(axis)
        if axis == n - 1:
            def f(x):
                return field(fixed + (x,))
        else:
            def f(x):
                return level(axis + 1, fixed + (x,))
        return integrate.quad(f, lo, hi, epsabs=abs_floor, epsrel=tol,
                              limit=QUAD_LIMIT, points=[0.0] if lo < 0.0 < hi else None,
                              full_output=1)[0]

    return level(0, ())


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


def taylor_remainder_sup_ratio(v: InitialDatum, gamma: float, radii) -> float:
    """sup over a grid of |v_hat - partial sum| / (|xi|^gamma integral |x|^gamma |v|).

    The bound behind the expansion machinery asserts this ratio is finite;
    stability of the grid supremum under refinement is the checkable proxy.
    """
    m = math.floor(gamma)
    partial = heat_partial_sum(moment_table(v, m), m)
    pts = _ray_grid(v.dimension, radii)
    gaps = np.abs(v.fourier_transform(pts) - partial(pts))
    r = np.linalg.norm(pts, axis=1)
    return float(np.max(gaps / (r ** gamma * absolute_moment(v, gamma))))


def symbol_gap_sup_ratio(v: InitialDatum, gamma: float, radii) -> float:
    """sup over a grid (inside |xi| <= 1/2) of |F^v - A_{[gamma]}| / (|xi|^gamma ||v||_{1,gamma})."""
    radii = [r for r in radii if 0.0 < r <= 0.5]
    m = math.floor(gamma)
    profile = build_expansion("A", m, moment_table(v, m))
    pts = _ray_grid(v.dimension, radii)
    gaps = np.abs(LowFrequencySymbol(v)(pts) - profile(pts))
    r = np.linalg.norm(pts, axis=1)
    return float(np.max(gaps / (r ** gamma * weighted_l1_norm(v, gamma))))
