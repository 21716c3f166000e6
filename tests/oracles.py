"""Independent oracles that the tests compare ``dampex`` against.

None of these runs on a ``dampex`` subcommand's path; each recomputes a
number the package computes another way:

* the closed-form twins of the half-ball increment constant, which the
  campaign takes from ``poly_gaussian_l2_norm`` of the built increment;
* the heat increment's norm as a sum of moment products, the twin of
  ``poly_gaussian_l2_norm`` of the built C_k;
* brute-force raw moments by quadrature, against the catalog's closed forms;
* weighted L1 norms by scipy's scalar ``quad``, nested per axis, against
  the package's panel engine;
* transforms as a product of complex per-axis factors, each translation
  carrying its own e^{-i c_j xi_j}, against the package's real product
  times one phase;
* the residual integrand evaluated point by point through
  ``SpectralSolution.evaluate``, against the shell route of the norms;
* the transform, the polynomials, the low-frequency symbol and the
  residual integrand in complex128 throughout, with every unit factor,
  against the real-valued kernels that keep their bits;
* the truncation probe with one field call for the interior shells and
  one per bundle, and two stopping rules (an inward cut over the caller's
  edges, then the outward search), against the probe that samples both
  in its first call and stops by one rule;
* the full angular rules, probe directions and two-point line, both
  directions of every antipodal pair at their own weights, against the
  half rules the norms sample;
* the ``solve`` CSV rows by one f-string and two ``repr`` calls per row,
  against the formatter that formats each distinct value once;
* the heat partial sum P_m built from one moment table, against the
  Case's heat-vanishing head and tail, which read its own C_j;
* the three identities of ``build_expansion`` (additivity, the recurrence
  and homogeneity) on canonical coefficients, against the builder's
  layers: gaps that read 0, or the rounding of a sum, on every table;
* grid suprema of the Taylor-remainder and symbol-gap ratios, the
  boundedness proxies for the two key estimates behind the expansions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from dampex import (Box, ExpansionPolynomial, Gaussian, GaussianMonomial,
                    InitialDatum, InsufficientOrderError, LowFrequencySymbol,
                    MomentTable, Shifted, SpectralSolution, SumDatum, Term,
                    build_expansion, combine, gaussian_monomial_integral,
                    moment_table, quadrature, stable_heat_difference,
                    weighted_l1_norm)
from dampex.indices import degree, indices_of_degree
from dampex.norms import radial_gaussian_integral
from dampex.quadrature import (_LEVEL_SIZES, QUAD_LIMIT, TRUNCATION_CAP,
                               TRUNCATION_FLOOR, TRUNCATION_GROWTH, _on_shells,
                               _probe_directions, _surface, adaptive_1d,
                               circle_nodes, sphere_nodes)

# ---------------------------------------------------------------------------
# Pointwise residual


def residual_curve(sol: SpectralSolution, ts, xi, poly) -> np.ndarray:
    """Gap u_hat(t, xi) - poly(xi) e^{-t |xi|^2} at every t of ``ts`` on
    points of shape (m, n): one row per time, shape (len(ts), m).

    Each point takes |xi|^2 from its own coordinates and the solution from
    ``evaluate``'s default, the regular form.
    """
    ts = np.asarray(ts, dtype=float)
    pts = np.asarray(xi, dtype=float)
    s = np.sum(pts * pts, axis=-1)
    return sol.evaluate(ts, pts) - poly(pts) * np.exp(-np.multiply.outer(ts, s))


# ---------------------------------------------------------------------------
# Transforms


def complex_axis_fourier(v: InitialDatum, j: int, xi_j) -> np.ndarray:
    """The complex transform of axis profile ``j`` of a separable datum,
    from the catalog's closed forms."""
    xi_j = np.asarray(xi_j, dtype=float)
    if isinstance(v, Gaussian):
        return (2.0 * math.sqrt(math.pi * v.scale)
                * np.exp(-v.scale * xi_j * xi_j)) + 0j
    if isinstance(v, Box):
        h = v.half_width
        return 2.0 * h * np.sinc(h * xi_j / np.pi) + 0j
    if isinstance(v, GaussianMonomial):
        a, b = v.scale, v.exponents[j]
        herm = np.polynomial.hermite.hermval(math.sqrt(a) * xi_j,
                                             [0.0] * b + [1.0])
        return ((-1j) ** b * 2.0 * math.sqrt(math.pi * a) * a ** (b / 2.0)
                * herm * np.exp(-a * xi_j * xi_j))
    if isinstance(v, Shifted):
        s = v.dilation
        return (s * np.exp(-1j * v.center[j] * xi_j)
                * complex_axis_fourier(v.base, j, s * xi_j))
    raise TypeError(f"no axis transform for {type(v).__name__}")


def per_axis_fourier_transform(v: InitialDatum, xi) -> np.ndarray:
    """amplitude times the complex axis transforms, multiplied in complex
    arithmetic in axis order; a sum adds its terms."""
    pts = np.asarray(xi, dtype=float)
    if isinstance(v, SumDatum):
        return sum(per_axis_fourier_transform(t, pts) for t in v.terms)
    out = np.full(pts.shape[:-1], v.amplitude, dtype=complex)
    for j in range(v.dimension):
        out = out * complex_axis_fourier(v, j, pts[..., j])
    return out


# ---------------------------------------------------------------------------
# Complex kernels


def complex_fourier_transform(v: InitialDatum, xi) -> np.ndarray:
    """The transform in complex128: the amplitude filled in, the real axis
    factors multiplied in axis order (a translation dilates even by 1),
    the product cast to complex or times its phase taken as complex; a sum
    adds its terms."""
    pts = np.asarray(xi, dtype=float)
    if isinstance(v, SumDatum):
        return sum(complex_fourier_transform(t, pts) for t in v.terms)
    out = np.full(pts.shape[:-1], v.amplitude)
    if v.amplitude != 0.0:
        for j in range(v.dimension):
            out = out * _dilated_axis_fourier(v, j, pts[..., j])
    phase = None if v.amplitude == 0.0 else v.fourier_phase(pts)
    return (out.astype(complex) if phase is None
            else out * np.asarray(phase, dtype=complex))


def _dilated_axis_fourier(v: InitialDatum, j: int, xi_j) -> np.ndarray:
    if isinstance(v, Shifted):
        s = v.dilation
        return s * _dilated_axis_fourier(v.base, j, s * xi_j)
    return v.axis_fourier(j, xi_j)


def complex_term_loop(poly, xi) -> np.ndarray:
    """An expansion polynomial at points (..., n), accumulated in complex128
    with every factor of every term: coefficient times |xi|^p, |xi|^0
    included, times a monomial grown from an all-ones array."""
    pts = np.asarray(xi, dtype=float)
    s = np.sum(pts * pts, axis=-1)
    acc = np.zeros(pts.shape[:-1], dtype=complex)
    for t in poly.terms:
        mono = np.ones_like(s)
        for j, a in enumerate(t.monomial):
            if a:
                mono = mono * pts[..., j] ** a
        acc = acc + t.coefficient * s ** (t.radial_power // 2) * mono
    return acc


def complex_symbol(v: InitialDatum, xi) -> np.ndarray:
    """v_hat(xi) / (1 - |xi|^2) as a complex quotient."""
    pts = np.asarray(xi, dtype=float)
    s = np.sum(pts * pts, axis=-1)
    return complex_fourier_transform(v, pts) / (1.0 - s)


def complex_residual_shells(sol: SpectralSolution, ts, radii, dirs,
                            poly) -> np.ndarray:
    """``SpectralSolution.residual_shells`` from the complex transforms and
    term loop: the regular form minus poly e^{-t r^2} on the shells."""
    ts = np.asarray(ts, dtype=float)[:, None, None]
    radii = np.asarray(radii, dtype=float)
    pts = radii[:, None, None] * dirs
    s = (radii * radii)[:, None]
    f0 = complex_fourier_transform(sol.u0, pts)
    f1 = complex_fourier_transform(sol.u1, pts)
    u_hat = np.exp(-ts) * f0 + stable_heat_difference(ts, s) * (f0 + f1)
    return u_hat - np.exp(-ts * s) * complex_term_loop(poly, pts)


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
    return math.sqrt(2.0 * radial_gaussian_integral(2 * k, 0.5))


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
        c1=gaussian_monomial_integral(c1_alpha, 0.5),
        c12=gaussian_monomial_integral(c12_alpha, 0.5),
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
        ball = gaussian_monomial_integral(zero, 0.5)
        return abs(table.moment(zero)) * math.sqrt(ball)
    if k == 1:
        if table.order < 1:
            raise InsufficientOrderError("need moments to order 1")
        sq = math.fsum(table.moment(a) ** 2 for a in indices_of_degree(n, 1))
        c_alpha = tuple(1 if i == 0 else 0 for i in range(n))
        return math.sqrt(gaussian_monomial_integral(c_alpha, 0.5) * sq)
    if k == 2:
        c = lower_bound_constants(table)
        quad = c.c1 * math.fsum(v * v for v in c.v_values)
        quad += c.c12 * math.fsum(2.0 * c.v_values[j] * c.v_values[kk]
                                  + c.w_values[(j, kk)] ** 2
                                  for j in range(n) for kk in range(j + 1, n))
        return math.sqrt(max(quad, 0.0))
    raise ValueError("closed forms exist for k in {0, 1, 2} only")


def heat_increment_moment_sum(k: int, table: MomentTable, radius=None) -> float:
    """|| C_k e^{-|xi|^2} ||_{L2} over R^n (default) or a ball, from
    |C_k|^2 = sum over |alpha| = k of xi^{2 alpha} times the sum of the
    moment products M_beta M_{2 alpha - beta}."""
    n = table.dimension
    total = 0.0
    for alpha in indices_of_degree(n, k):
        two_alpha = tuple(2 * a for a in alpha)
        inner = 0.0
        for beta1 in indices_of_degree(n, k):
            beta2 = tuple(t - b for t, b in zip(two_alpha, beta1))
            if all(b >= 0 for b in beta2):
                inner += table.moment(beta1) * table.moment(beta2)
        total += gaussian_monomial_integral(alpha, radius) * inner
    return math.sqrt(max(total, 0.0))


# ---------------------------------------------------------------------------
# Quadrature of the data


def quadrature_raw_moment(v: InitialDatum, alpha, tol=1e-10, *,
                          nested=False, abs_floor=1e-300) -> float:
    """Brute-force integral x^alpha v dx, independent of the closed forms.

    Separable data integrates per axis with the adaptive Gauss-Kronrod rule
    and multiplies; ``nested=True`` (or a sum) forces a full tensor
    integration instead.
    """
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != v.dimension:
        raise ValueError("multi-index length must equal the dimension")
    if not nested and not isinstance(v, SumDatum):
        total = v.amplitude
        for j, m in enumerate(alpha):
            lo, hi = v.axis_interval(j)
            res = adaptive_1d(lambda y, j=j, m=m: y**m * v.axis_value(j, y),
                              lo, hi, tol / (v.dimension + 1), abs_floor=abs_floor,
                              breakpoints=(0.0,))
            total *= res.value[0]
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
            lo, hi, tol, breakpoints=(0.0,)).value[0]

    def f(x):
        return math.hypot(*x) ** gamma * abs(float(v.values(np.asarray(x))))

    return nested_quad(f, v, tol)


def scipy_weighted_l1_norm(v: InitialDatum, gamma: float, tol=1e-10,
                           points=()) -> float:
    """integral (1 + |x|)^gamma |v(x)| dx by ``nested_quad``."""
    def f(x):
        return (1.0 + math.hypot(*x)) ** gamma * abs(float(v.values(np.asarray(x))))

    return nested_quad(f, v, tol, points=points, gamma=gamma)


def nested_quad(field, v: InitialDatum, tol, *, abs_floor=1e-300,
                points=(), gamma=0.0) -> float:
    """Integral of the scalar ``field(x)`` over the axis intervals of ``v``
    under the weight (1 + |x|)^gamma: scipy's adaptive ``quad`` nested per
    axis, every axis split at 0 and at the given ``points`` inside it, one
    Python call per point."""
    n = v.dimension

    def level(axis, fixed):
        lo, hi = v.axis_interval(axis, gamma)
        if axis == n - 1:
            def f(x):
                return field(fixed + (x,))
        else:
            def f(x):
                return level(axis + 1, fixed + (x,))
        splits = sorted(p for p in {0.0, *points} if lo < p < hi)
        return integrate.quad(f, lo, hi, epsabs=abs_floor, epsrel=tol,
                              limit=QUAD_LIMIT, points=splits or None,
                              full_output=1)[0]

    return level(0, ())


# ---------------------------------------------------------------------------
# Truncation


def truncation_radius_per_bundle(field, dimension, start, *, rows, edges=()):
    """``truncation_radius`` by two stopping rules, with the interior
    shells and ``edges`` in a field call of their own and each bundle in
    one call: first the inward cut to the smallest edge past which every
    shell probed with the first bundle is negligible, then the outward
    search over the bundles, each stopping on its own probes alone.  The
    same probes, radius and tail bound."""
    dirs = _probe_directions(dimension)

    def shell_maxima(radii):
        return _on_shells(field, radii, dirs, lambda vals: vals.max(axis=-1),
                          rows)

    def bundle(r):
        return np.array([r, r + 1.7, r + 4.3, r * 1.013 + 0.5])

    r = max(start, 1.0)
    edges = np.asarray(edges, dtype=float)
    inner = np.concatenate([r * np.array([1e-3, 1e-2, 0.1, 0.5, 1.0]), edges])
    inner_maxima = shell_maxima(inner)
    peak = inner_maxima.max(axis=-1)
    if np.all(peak <= 0.0):
        return min(r, TRUNCATION_CAP), np.zeros_like(peak)
    first = True
    while r < TRUNCATION_CAP:
        radii = bundle(r)
        maxima = shell_maxima(radii)
        top = maxima.max(axis=-1)
        peak = np.maximum(peak, top)
        if first:
            probed = np.concatenate([inner, radii])
            everything = np.concatenate([inner_maxima, maxima], axis=-1)
            for e in edges:
                past = np.where(probed >= e, everything, 0.0).max(axis=-1)
                if np.all(past <= TRUNCATION_FLOOR * peak):
                    return e, past * _surface(dimension, e) * e
            first = False
        if np.all(top <= TRUNCATION_FLOOR * peak):
            return r, top * _surface(dimension, r) * r
        r *= TRUNCATION_GROWTH
    top = shell_maxima(bundle(TRUNCATION_CAP)).max(axis=-1)
    return TRUNCATION_CAP, top * _surface(dimension, TRUNCATION_CAP) * TRUNCATION_CAP


# ---------------------------------------------------------------------------
# Full angular rules

# the line's two points and their counting weights
FULL_LINE_RULE = (np.array([[1.0], [-1.0]]), np.ones(2))


def full_angular_rule(dimension, level):
    """Angular rule ``level`` with both directions of every antipodal pair,
    each at its own weight: the rule ``quadrature._angular_rule`` halves."""
    size = _LEVEL_SIZES[dimension][level]
    return circle_nodes(size) if dimension == 2 else sphere_nodes(*size)


def full_probe_directions(dimension):
    """The truncation probe's 2 line, 8 circle and 24 sphere directions."""
    if dimension == 1:
        return FULL_LINE_RULE[0]
    return (circle_nodes(8) if dimension == 2 else sphere_nodes(4, 6))[0]


def use_full_rules(monkeypatch):
    """Make every norm sample both directions of each antipodal pair: the
    full rules in place of the half ones in the rule choice, the
    truncation probe and the line."""
    monkeypatch.setattr(quadrature, "_angular_rule", full_angular_rule)
    monkeypatch.setattr(quadrature, "_probe_directions", full_probe_directions)
    monkeypatch.setattr(quadrature, "_LINE_RULE", FULL_LINE_RULE)


# ---------------------------------------------------------------------------
# CSV rows


def format_rows_row_loop(t, coords, row) -> str:
    """The ``solve`` CSV rows of the values ``row`` at time ``t`` and the
    points whose text is ``coords``, one f-string per row."""
    head = repr(t)
    return "".join([f"{head},{c},{re!r},{im!r}\n" for c, re, im
                    in zip(coords, row.real.tolist(), row.imag.tolist())])


# ---------------------------------------------------------------------------
# The identities of build_expansion, on canonical coefficients

# the largest gap each identity may read: additivity and homogeneity add
# no two canonical sums, so they hold exactly; the recurrence reads the
# rounding of |xi|^2 B_{k-2} + C_k against B_k's own sums
IDENTITY_TOLERANCE = {"additivity": 0.0, "recurrence": 1e-12,
                      "homogeneity": 0.0}


def coefficient_gap(lhs: ExpansionPolynomial, *rhs) -> float:
    """max |canonical coefficient of lhs - the sum of those of rhs| over
    the monomials, relative to max(1, max |canonical coefficient of lhs|)."""
    diff = dict(lhs.canonical)
    for poly in rhs:
        for mono, c in poly.canonical:
            diff[mono] = diff.get(mono, 0.0) - c
    return max(map(abs, diff.values()), default=0.0) / _coefficient_scale(lhs)


def off_degree_gap(poly: ExpansionPolynomial) -> float:
    """The largest |canonical coefficient| of a degree other than the
    polynomial's order, relative as in ``coefficient_gap``: 0 exactly when
    poly(xi/c) = c^{-order} poly(xi) for every c > 0."""
    off = [abs(c) for mono, c in poly.canonical if degree(mono) != poly.order]
    return max(off, default=0.0) / _coefficient_scale(poly)


def _coefficient_scale(poly: ExpansionPolynomial) -> float:
    return max([1.0] + [abs(c) for _, c in poly.canonical])


def raised(poly: ExpansionPolynomial) -> ExpansionPolynomial:
    """|xi|^2 poly, term by term."""
    return ExpansionPolynomial(
        kind=poly.kind, order=poly.order + 2, dimension=poly.dimension,
        terms=tuple(Term(t.coefficient, t.radial_power + 2, t.monomial)
                    for t in poly.terms))


def identity_gaps(table: MomentTable, order: int) -> list:
    """(identity, k, gap) for every k <= order, in order of k: additivity
    A_k = A_{k-1} + B_k, the recurrence B_k = |xi|^2 B_{k-2} + C_k from
    k = 2 on, and the homogeneity of B_k, each compared on the canonical
    coefficients of ``build_expansion``'s polynomials."""
    gaps = []
    for k in range(order + 1):
        b_k = build_expansion("B", k, table)
        gaps.append(("additivity", k, coefficient_gap(
            build_expansion("A", k, table), build_expansion("A", k - 1, table),
            b_k)))
        if k >= 2:
            gaps.append(("recurrence", k, coefficient_gap(
                b_k, raised(build_expansion("B", k - 2, table)),
                build_expansion("C", k, table))))
        gaps.append(("homogeneity", k, off_degree_gap(b_k)))
    return gaps


# ---------------------------------------------------------------------------
# Grid-based remainder ratios (boundedness proxies for the two key bounds)


def heat_partial_sum(table: MomentTable, order: int) -> ExpansionPolynomial:
    """sum_{|alpha| <= order} M_alpha (i xi)^alpha; order -1 gives zero."""
    if order < 0:
        return ExpansionPolynomial(kind="sum", order=-1,
                                   dimension=table.dimension, terms=())
    return combine([build_expansion("C", j, table) for j in range(order + 1)])


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
