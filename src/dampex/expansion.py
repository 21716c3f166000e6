"""Moment-built expansion polynomials and their algebraic identities.

Three kinds of polynomials in the frequency variable are built from a
moment table:

* kind ``"A"`` — the order-k profile polynomial, layered sums
  |xi|^{k-2j} * sum_{|alpha| <= 2j} M_alpha (i xi)^alpha (even k; the odd
  branch uses |xi|^{k-1-2j} and |alpha| <= 2j+1).
* kind ``"B"`` — the order-k increment, same layers with |alpha| == 2j
  (resp. 2j+1).  Every term has total degree exactly k, which gives the
  homogeneity B(xi/c) = c^{-k} B(xi).
* kind ``"C"`` — the flat moment layer sum_{|alpha| == k} M_alpha (i xi)^alpha,
  the increment of the plain heat flow.

Terms are kept unsimplified (radial power and monomial separate) so each
polynomial mirrors its defining formula one-to-one; ``canonical()`` expands
the radial powers into monomials for structural checks.  A term
(coefficient, p, alpha) means coefficient * |xi|^p * xi^alpha with the
i^{|alpha|} factor folded into the complex coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, InsufficientOrderError
from .indices import (Alpha, degree, i_power, indices_of_degree,
                      multi_factorial)
from .initial_data import MAX_MOMENT_ORDER, MomentTable, as_points

KINDS = ("A", "B", "C")


@dataclass(frozen=True)
class Term:
    coefficient: complex
    radial_power: int
    monomial: Alpha


@dataclass(frozen=True, eq=False)
class ExpansionPolynomial:
    kind: str
    order: int
    dimension: int
    terms: tuple[Term, ...]

    def __call__(self, xi):
        """Evaluate at points (..., n) (see ``as_points``), of shape (...):
        float64 when every coefficient is real, else complex128.  A term is
        (coefficient * |xi|^p) * xi^alpha without its unit factors.  One
        point goes through the batch path as a batch of one."""
        pts = as_points(xi, self.dimension)
        single = pts.ndim == 1
        if single:
            pts = pts[None]
        powers = {}
        if any(t.radial_power for t in self.terms):
            powers[-1, 1] = np.sum(pts * pts, axis=-1)

        def power(j, a):
            # x_j^a, or |xi|^(2a) for j = -1, once per call: terms share them
            if (j, a) not in powers:
                powers[j, a] = (powers[-1, 1] if j < 0 else pts[..., j]) ** a
            return powers[j, a]

        real = self.is_real
        acc = np.zeros(pts.shape[:-1], dtype=float if real else complex)
        for t in self.terms:
            term = t.coefficient.real if real else t.coefficient
            if t.radial_power // 2:
                term = term * power(-1, t.radial_power // 2)
            mono = None
            for j, a in enumerate(t.monomial):
                if a:
                    mono = power(j, a) if mono is None else mono * power(j, a)
            acc = acc + (term if mono is None else term * mono)
        return acc[0] if single else acc

    @cached_property
    def is_real(self) -> bool:
        """True when every coefficient is real: the layers of even degree,
        all a polynomial has when the data's odd moments vanish."""
        return all(t.coefficient.imag == 0 for t in self.terms)

    @cached_property
    def canonical(self) -> tuple[tuple[Alpha, complex], ...]:
        """Pure-monomial form: radial powers expanded, like terms collected,
        exact-zero coefficients dropped.  Sorted by monomial."""
        acc: dict[Alpha, complex] = {}
        for t in self.terms:
            half = t.radial_power // 2
            for m in indices_of_degree(self.dimension, half):
                mult = math.factorial(half) // multi_factorial(m)
                mono = tuple(2 * mj + aj for mj, aj in zip(m, t.monomial))
                acc[mono] = acc.get(mono, 0.0) + mult * t.coefficient
        return tuple(sorted((mono, c) for mono, c in acc.items() if c != 0))

    @property
    def is_structurally_zero(self) -> bool:
        return not self.canonical


def _layers(kind: str, k: int):
    """(radial_power, layer_degree, exact) triples for each defining layer."""
    exact = kind in ("B", "C")
    if kind == "C":
        return [(0, k, True)]
    if k % 2 == 0:
        return [(k - 2 * j, 2 * j, exact) for j in range(k // 2 + 1)]
    return [(k - 1 - 2 * j, 2 * j + 1, exact) for j in range((k - 1) // 2 + 1)]


def build_expansion(kind: str, k: int, table: MomentTable) -> ExpansionPolynomial:
    """Build the kind/order polynomial from a moment table.

    Kind "A" accepts k = -1 and yields the empty (identically zero)
    polynomial; exact-zero moments produce no terms.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    if kind == "A" and k == -1:
        return ExpansionPolynomial(kind="A", order=-1,
                                   dimension=table.dimension, terms=())
    if k < 0:
        raise ValueError("order must be nonnegative")
    if table.order < k:
        raise InsufficientOrderError(
            f"table holds moments to order {table.order}, need {k}")
    terms = []
    for p, layer_degree, exact in _layers(kind, k):
        degrees = [layer_degree] if exact else range(layer_degree + 1)
        for d in degrees:
            for alpha in indices_of_degree(table.dimension, d):
                if table.is_exact_zero(alpha):
                    continue
                coeff = i_power(d) * table.moment(alpha)
                terms.append(Term(coefficient=coeff, radial_power=p,
                                  monomial=alpha))
    return ExpansionPolynomial(kind=kind, order=k, dimension=table.dimension,
                               terms=tuple(terms))


def combine(polys) -> ExpansionPolynomial:
    """Plain term-list sum of polynomials over one dimension."""
    polys = list(polys)
    if not polys:
        raise ValueError("nothing to combine")
    dims = {p.dimension for p in polys}
    if len(dims) != 1:
        raise ValueError("polynomials must share one dimension")
    terms = tuple(t for p in polys for t in p.terms)
    order = max(p.order for p in polys)
    return ExpansionPolynomial(kind="sum", order=order, dimension=dims.pop(),
                               terms=terms)


def series_ball(tables, order: int, radius: float):
    """The radius rho of the ball |xi| < rho on which the moment series
    tail sum_{order < |alpha| <= top} M_alpha (i xi)^alpha stands in for
    v_hat - sum_{|alpha| <= order} M_alpha (i xi)^alpha, and the order
    ``top`` of that tail; ``tables(m)`` gives v's moments to order >= m.

    With the layer bounds S_j = sum_{|alpha| = j} |M_alpha|, the difference
    rounds to about eps * head, head = sum_{j <= order} S_j rho^j, and the
    gap is about tail = sum_{j > order} S_j rho^j.  rho is the largest
    ``radius`` / 2^i at which tail <= eps^(1/4) head, so that outside the
    ball the difference keeps three quarters of its digits, and at which
    the series reaches roundoff by MAX_MOMENT_ORDER: ``top`` is the first
    order at which two consecutive layers (one parity class of layers may
    vanish) are at most eps times the tail.  It asks for twice the order
    whenever it needs a layer past its table.  Data without a head, whose
    difference does not cancel, or whose table leaves the floats as it
    grows, get rho = 0: the difference everywhere.
    """
    eps = np.finfo(float).eps
    table = tables(max(order, 0))
    try:
        bounds = _layer_bounds(table)
    except OverflowError:           # a layer bound beyond the largest float
        return 0.0, order
    if not any(bounds[:order + 1]):
        return 0.0, order
    while radius > 0.0:
        head = math.fsum(bounds[j] * radius ** j for j in range(order + 1))
        tail, previous = 0.0, math.inf
        for j in range(order + 1, MAX_MOMENT_ORDER + 1):
            if j > table.order:
                try:
                    table = tables(min(2 * j, MAX_MOMENT_ORDER))
                    bounds = _layer_bounds(table)
                except (ConfigError, OverflowError):    # a moment or a bound
                    return 0.0, order                   # beyond the floats
            layer = bounds[j] * radius ** j
            tail += layer
            if tail > eps ** 0.25 * head:
                break
            if max(previous, layer) <= eps * tail:
                return radius, j
            previous = layer
        radius /= 2.0
    return 0.0, order


def _layer_bounds(table: MomentTable) -> list[float]:
    """S_j = sum_{|alpha| = j} |M_alpha| for every j <= table.order."""
    return [math.fsum(abs(table.moment(alpha))
                      for alpha in indices_of_degree(table.dimension, j))
            for j in range(table.order + 1)]


# ---------------------------------------------------------------------------
# Checkable identities


def _property_entry(name: str, order: int, deviation: float,
                    tolerance: float) -> dict:
    """The summary entry of one identity check; ``max_deviation`` is relative
    to the largest left-hand coefficient."""
    return {"check": "property", "name": name, "k": order,
            "status": "pass" if deviation <= tolerance else "fail",
            "max_deviation": deviation, "tolerance": tolerance}


def _deviation(lhs: ExpansionPolynomial, rhs) -> float:
    """max |coefficient of lhs - sum(rhs)| over the canonical monomials,
    over max(1, max |coefficient of lhs|)."""
    diff = dict(lhs.canonical)
    for poly in rhs:
        for mono, c in poly.canonical:
            diff[mono] = diff.get(mono, 0.0) - c
    return max(map(abs, diff.values()), default=0.0) / _scale(lhs)


def _scale(poly: ExpansionPolynomial) -> float:
    return max([1.0] + [abs(c) for _, c in poly.canonical])


def check_property_A(a_k: ExpansionPolynomial, a_prev: ExpansionPolynomial,
                     b_k: ExpansionPolynomial, tolerance=1e-12) -> dict:
    """Additivity: profile_k == profile_{k-1} + increment_k, coefficientwise."""
    return _property_entry("additivity", a_k.order,
                           _deviation(a_k, (a_prev, b_k)), tolerance)


def check_property_B(b_k: ExpansionPolynomial, b_prev: ExpansionPolynomial,
                     top: ExpansionPolynomial, tolerance=1e-12) -> dict:
    """Recurrence: increment_k == |xi|^2 increment_{k-2} + top layer,
    coefficientwise."""
    if b_k.order < 2:
        raise ValueError("the recurrence needs k >= 2")
    raised = ExpansionPolynomial(
        kind=b_prev.kind, order=b_prev.order + 2, dimension=b_prev.dimension,
        terms=tuple(Term(t.coefficient, t.radial_power + 2, t.monomial)
                    for t in b_prev.terms))
    return _property_entry("recurrence", b_k.order,
                           _deviation(b_k, (raised, top)), tolerance)


def check_property_C(poly: ExpansionPolynomial, tolerance=1e-12) -> dict:
    """Homogeneity: every canonical monomial of increment_k has degree k, so
    increment_k(xi/c) == c^{-k} increment_k(xi) for every c > 0.  The
    deviation is the largest |coefficient| of another degree."""
    if poly.kind != "B":
        raise ValueError("homogeneity holds for kind 'B' polynomials")
    off = [abs(c) for mono, c in poly.canonical if degree(mono) != poly.order]
    return _property_entry("homogeneity", poly.order,
                           max(off, default=0.0) / _scale(poly), tolerance)
