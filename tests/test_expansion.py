"""Expansion polynomials: builders, identities, canonical structure."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dampex import (Box, Case, Gaussian, InsufficientOrderError, Shifted,
                    build_expansion, check_property_A, check_property_B,
                    check_property_C, combine, moment_table,
                    property_suite, zero_datum)
from dampex.expansion import ExpansionPolynomial, Term, series_ball
from dampex.indices import degree, indices_of_degree
from dampex.initial_data import GaussianMonomial

from conftest import catalog_1d, catalog_2d, catalog_3d, catalog_families
from oracles import heat_partial_sum


def _sample(dimension, count=100, seed=7, radius=2.0):
    """Uniform points in the ball of the given radius."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((count, dimension))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return g * (radius * rng.random(count) ** (1.0 / dimension))[:, None]


def _check_A(table, k, tolerance=1e-12):
    return check_property_A(build_expansion("A", k, table),
                            build_expansion("A", k - 1, table),
                            build_expansion("B", k, table), tolerance)


def _check_B(table, k, tolerance=1e-12):
    return check_property_B(build_expansion("B", k, table),
                            build_expansion("B", k - 2, table),
                            build_expansion("C", k, table), tolerance)


class TestBuilders:
    def test_increment_order_zero_is_the_mass(self, gaussian_1d):
        table = moment_table(gaussian_1d, 0)
        b0 = build_expansion("B", 0, table)
        assert len(b0.terms) == 1
        t = b0.terms[0]
        assert (t.coefficient, t.radial_power, t.monomial) == \
            (table.moment((0,)), 0, (0,))

    def test_profile_minus_one_is_empty(self, gaussian_1d):
        table = moment_table(gaussian_1d, 0)
        a = build_expansion("A", -1, table)
        assert a.terms == ()
        assert a.is_structurally_zero
        assert a(np.array([0.3])) == 0

    def test_gaussian_second_increment_is_structurally_zero(self):
        for n in (1, 2, 3):
            table = moment_table(Gaussian(dimension=n, scale=1.0), 2)
            b2 = build_expansion("B", 2, table)
            assert b2.terms, "the defining layers are not empty"
            assert b2.canonical == ()
            assert b2.is_structurally_zero

    def test_exact_zero_moments_produce_no_terms(self, gaussian_1d):
        table = moment_table(gaussian_1d, 3)
        b3 = build_expansion("B", 3, table)   # odd moments all vanish
        assert b3.terms == ()

    def test_insufficient_order_is_rejected(self, gaussian_1d):
        table = moment_table(gaussian_1d, 1)
        with pytest.raises(InsufficientOrderError):
            build_expansion("A", 2, table)

    def test_unknown_kind_rejected(self, gaussian_1d):
        with pytest.raises(ValueError):
            build_expansion("D", 0, moment_table(gaussian_1d, 0))


class TestEvaluation:
    def test_empty_polynomial_evaluates_to_zero(self, gaussian_1d):
        a = build_expansion("A", -1, moment_table(gaussian_1d, 0))
        pts = _sample(1, 5)
        assert np.all(a(pts) == 0)

    def test_first_increment_in_2d_reads_off_first_moments(self):
        v = Shifted(base=Gaussian(dimension=2, scale=1.0), center=(0.4, -0.3),
                    dilation=1.0)
        table = moment_table(v, 1)
        b1 = build_expansion("B", 1, table)
        a = table.moment((1, 0))
        b = table.moment((0, 1))
        for s, t in [(0.3, -0.7), (1.1, 0.2)]:
            expected = 1j * (a * s + b * t)
            assert complex(b1(np.array([s, t]))) == pytest.approx(expected, rel=1e-14)

    def test_batch_and_point_paths_agree(self):
        v = Box(dimension=2, half_width=1.0)
        table = moment_table(v, 4)
        poly = build_expansion("A", 4, table)
        pts = _sample(2, 20)
        batch = poly(pts)
        single = np.array([poly(p) for p in pts])
        assert np.max(np.abs(batch - single)) <= 1e-13 * max(1.0, np.max(np.abs(batch)))


class TestIdentities:
    @pytest.mark.parametrize("v", catalog_1d() + catalog_2d() + catalog_3d(),
                             ids=lambda v: f"{v.family}{v.dimension}d")
    def test_additivity_up_to_order_six(self, v):
        k_max = 6 if v.dimension < 3 else 4
        table = moment_table(v, k_max)
        for k in range(k_max + 1):
            rep = _check_A(table, k, tolerance=1e-12)
            assert rep["status"] == "pass", (k, rep["max_deviation"])

    @pytest.mark.parametrize("v", catalog_1d() + catalog_2d(),
                             ids=lambda v: f"{v.family}{v.dimension}d")
    def test_recurrence_up_to_order_six(self, v):
        table = moment_table(v, 6)
        for k in range(2, 7):
            rep = _check_B(table, k, tolerance=1e-12)
            assert rep["status"] == "pass", (k, rep["max_deviation"])

    def test_recurrence_with_only_mass(self):
        # with just M_0 both sides of the order-two recurrence are M_0 |xi|^2
        table = moment_table(Gaussian(dimension=2, scale=1.0), 2)
        pts = _sample(2, 50)
        b2 = build_expansion("B", 2, table)
        m0 = table.moment((0, 0))
        for p in pts[:5]:
            manual = (m0 - table.moment((2, 0))) * p[0] ** 2 \
                + (m0 - table.moment((0, 2))) * p[1] ** 2 \
                - table.moment((1, 1)) * p[0] * p[1]
            assert complex(b2(p)) == pytest.approx(manual, abs=1e-13)

    def test_homogeneity_specific_scale(self, gaussian_1d):
        table = moment_table(gaussian_1d, 2)
        b0 = build_expansion("B", 0, table)
        assert check_property_C(b0, tolerance=1e-13)["status"] == "pass"
        pts = _sample(1, 20)
        assert np.array_equal(b0(pts / 2.0), b0(pts))

    def test_homogeneity_requires_increment_kind(self, gaussian_1d):
        table = moment_table(gaussian_1d, 2)
        a = build_expansion("A", 2, table)
        with pytest.raises(ValueError):
            check_property_C(a)

    def test_zero_data_identities_hold_vacuously(self):
        table = moment_table(zero_datum(2), 4)
        assert _check_A(table, 2)["max_deviation"] == 0.0
        assert _check_B(table, 2)["max_deviation"] == 0.0


@settings(max_examples=60, derandomize=True, deadline=None)
@given(c=st.floats(0.01, 10.0), k=st.integers(0, 4),
       seed=st.integers(0, 2**31))
def test_homogeneity_for_random_scales(c, k, seed):
    # the coefficient check passes, and the values it vouches for scale:
    # B_k(xi/c) == c^{-k} B_k(xi) up to the evaluator's rounding
    v = Shifted(base=Gaussian(dimension=2, scale=1.0), center=(0.4, -0.3),
                dilation=1.0)
    table = moment_table(v, 4)
    poly = build_expansion("B", k, table)
    rep = check_property_C(poly, tolerance=1e-12)
    assert rep["status"] == "pass", rep["max_deviation"]
    pts = _sample(2, 25, seed=seed)
    bound = sum(abs(t.coefficient) for t in poly.terms) * (2.0 / c) ** k
    assert np.max(np.abs(poly(pts / c) - c ** -k * poly(pts))) <= 1e-13 * bound


# The canonical form in exact rational arithmetic, kept as the reference:
# each term's |xi|^(2h) multiplied out one |xi|^2 at a time.

def _exact(poly, raise_by=0):
    """{monomial: (re, im)} of poly times |xi|^(2 raise_by), as Fractions of
    the float coefficients, with zero coefficients dropped."""
    layers = []
    for t in poly.terms:
        c = complex(t.coefficient)
        layer = {t.monomial: (Fraction(c.real), Fraction(c.imag))}
        for _ in range(t.radial_power // 2 + raise_by):
            layer = _exact_sum(*({mono[:j] + (mono[j] + 2,) + mono[j + 1:]: coeff}
                                 for mono, coeff in layer.items()
                                 for j in range(poly.dimension)))
        layers.append(layer)
    return _exact_sum(*layers)


def _exact_sum(*parts):
    out = {}
    for part in parts:
        for mono, (re, im) in part.items():
            old_re, old_im = out.get(mono, (0, 0))
            out[mono] = (old_re + re, old_im + im)
    return {m: c for m, c in out.items() if any(c)}


class TestCoefficientChecks:
    @pytest.mark.parametrize("v", catalog_1d() + catalog_2d() + catalog_3d(),
                             ids=lambda v: f"{v.family}{v.dimension}d")
    def test_checks_match_exact_rationals(self, v):
        table = moment_table(v, 6)
        pts = _sample(v.dimension, 20)
        for k in range(7):
            polys = {kind: build_expansion(kind, k, table)
                     for kind in ("A", "B", "C")}
            for kind, poly in polys.items():
                # a single point is the batch path on a batch of one
                assert [poly(p) for p in pts] == list(poly(pts)), (kind, k)
                # the float canonical form rounds the exact one
                exact = _exact(poly)
                scale = max([1.0] + [abs(complex(*map(float, c)))
                                     for c in exact.values()])
                got = dict(poly.canonical)
                for mono in set(exact) | set(got):
                    want = complex(*map(float, exact.get(mono, (0, 0))))
                    assert abs(got.get(mono, 0.0) - want) <= 1e-15 * scale
            # the identities hold exactly on the coefficients, so the
            # checks see only the float sums' rounding
            b_k = polys["B"]
            assert _exact(polys["A"]) == _exact_sum(
                _exact(build_expansion("A", k - 1, table)), _exact(b_k))
            assert _check_A(table, k)["max_deviation"] <= 1e-15, k
            if k >= 2:
                assert _exact(b_k) == _exact_sum(
                    _exact(build_expansion("B", k - 2, table), raise_by=1),
                    _exact(polys["C"]))
                assert _check_B(table, k)["max_deviation"] <= 1e-15, k
            assert all(sum(mono) == k for mono in _exact(b_k))
            assert check_property_C(b_k)["max_deviation"] == 0.0, k

    def test_nudged_profile_fails_additivity(self):
        table = moment_table(Box(dimension=2, half_width=1.0), 4)
        a_k = build_expansion("A", 4, table)
        first, *rest = a_k.terms
        nudged = ExpansionPolynomial(
            kind="A", order=4, dimension=2,
            terms=(Term(first.coefficient * (1 + 1e-6), first.radial_power,
                        first.monomial), *rest))
        rep = check_property_A(nudged, build_expansion("A", 3, table),
                               build_expansion("B", 4, table))
        assert _check_A(table, 4)["status"] == "pass"
        assert rep["status"] == "fail"
        assert rep["max_deviation"] > 1e5 * rep["tolerance"]

    def test_increment_missing_a_flat_term_fails_the_recurrence(self):
        table = moment_table(Box(dimension=2, half_width=1.0), 4)
        b_k = build_expansion("B", 4, table)
        flat = [t for t in b_k.terms if t.radial_power == 0]
        assert len(flat) > 1
        missing = ExpansionPolynomial(
            kind="B", order=4, dimension=2,
            terms=tuple(t for t in b_k.terms if t is not flat[0]))
        rep = check_property_B(missing, build_expansion("B", 2, table),
                               build_expansion("C", 4, table))
        assert rep["status"] == "fail"
        assert rep["max_deviation"] > 1e5 * rep["tolerance"]

    def test_increment_with_a_term_of_degree_k_plus_one_fails_homogeneity(self):
        table = moment_table(Box(dimension=2, half_width=1.0), 4)
        b_k = build_expansion("B", 4, table)
        stray = ExpansionPolynomial(
            kind="B", order=4, dimension=2,
            terms=(*b_k.terms, Term(0.5, 2, (3, 0))))
        rep = check_property_C(stray)
        assert check_property_C(b_k)["max_deviation"] == 0.0
        assert rep["status"] == "fail"
        assert rep["max_deviation"] > 1e5 * rep["tolerance"]

    def test_single_points_must_match_the_dimension(self, gaussian_1d):
        poly = build_expansion("A", 2, moment_table(gaussian_1d, 2))
        with pytest.raises(ValueError, match="dimension"):
            poly(np.array([1.0, 2.0]))

    def test_batches_must_match_the_dimension(self):
        poly = build_expansion("A", 2, moment_table(Gaussian(dimension=2), 2))
        for shape in ((3, 3), (3, 1), (2, 3, 1)):
            with pytest.raises(ValueError, match="dimension"):
                poly(np.ones(shape))
        assert poly(np.ones((2, 3, 2))).shape == (2, 3)

    def test_property_suite_evaluates_no_polynomial(self, monkeypatch):
        def refuse(self, xi):
            raise AssertionError("the property suite evaluated a polynomial")

        monkeypatch.setattr(ExpansionPolynomial, "__call__", refuse)
        v = Shifted(base=Gaussian(dimension=2, scale=1.0), center=(0.4, -0.3),
                    dilation=1.0)
        case = Case("shifted", v, zero_datum(2), checks=("properties",),
                    k_values=(2,))
        reports = property_suite(case)
        # additivity and homogeneity at k = 0..4, the recurrence from k = 2
        assert [(r["name"], r["k"]) for r in reports if r["k"] == 2] == [
            ("additivity", 2), ("recurrence", 2), ("homogeneity", 2)]
        assert len(reports) == 13
        assert all(r["status"] == "pass" for r in reports)


class TestStructure:
    @pytest.mark.parametrize("v", catalog_1d()[:4] + catalog_2d()[:3],
                             ids=lambda v: f"{v.family}{v.dimension}d")
    def test_increment_terms_have_exact_degree(self, v):
        table = moment_table(v, 5)
        for k in range(6):
            for kind in ("B", "C"):
                poly = build_expansion(kind, k, table)
                for term in poly.terms:
                    assert term.radial_power + sum(term.monomial) == k

    def test_profile_terms_bounded_by_order(self, gaussian_1d):
        table = moment_table(gaussian_1d, 6)
        for k in range(7):
            poly = build_expansion("A", k, table)
            assert all(t.radial_power + sum(t.monomial) <= k
                       for t in poly.terms)

    def test_flat_layer_is_zero_iff_its_moments_vanish(self):
        # monomial data x1 x2 g has no nonzero order-one moments but a
        # nonzero (1,1) moment, so the flat layers split at k = 2
        from dampex import GaussianMonomial
        v = GaussianMonomial(dimension=2, exponents=(1, 1), scale=1.0)
        table = moment_table(v, 2)
        assert build_expansion("C", 0, table).is_structurally_zero
        assert build_expansion("C", 1, table).is_structurally_zero
        assert not build_expansion("C", 2, table).is_structurally_zero

    def test_low_order_increment_zero_iff_moments_zero(self):
        from dampex import GaussianMonomial
        v = GaussianMonomial(dimension=1, exponents=(1,), scale=1.0)
        table = moment_table(v, 1)
        assert build_expansion("B", 0, table).is_structurally_zero  # no mass
        assert not build_expansion("B", 1, table).is_structurally_zero

    def test_canonical_collects_across_layers(self):
        v = Box(dimension=1, half_width=1.0)
        table = moment_table(v, 2)
        b2 = build_expansion("B", 2, table)
        # M_0 |xi|^2 + i^2 M_2 xi^2 collapses to (M_0 - M_2) xi^2
        assert b2.canonical == (((2,), table.moment((0,)) - table.moment((2,))),)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_coefficients_mirror_to_their_conjugates(self, n):
        # real moments times i^|alpha|: c (-1)^|alpha| = conj(c), so
        # P(-xi) = conj P(xi) for every kind (== takes -0.0 for 0.0)
        for v in catalog_families(n):
            table = moment_table(v, 4)
            for kind in ("A", "B", "C"):
                for k in range(5):
                    for alpha, c in build_expansion(kind, k, table).canonical:
                        assert c * (-1) ** degree(alpha) == c.conjugate(), (
                            v, kind, k, alpha)

    def test_combine_concatenates_terms(self, gaussian_1d):
        table = moment_table(gaussian_1d, 2)
        c0 = build_expansion("C", 0, table)
        c2 = build_expansion("C", 2, table)
        s = combine([c0, c2])
        assert len(s.terms) == len(c0.terms) + len(c2.terms)

    def test_heat_partial_sum_matches_taylor_layers(self, gaussian_1d):
        table = moment_table(gaussian_1d, 2)
        partial = heat_partial_sum(table, 2)
        pts = _sample(1, 10)
        expected = table.moment((0,)) + table.moment((2,)) * (1j * pts[:, 0]) ** 2
        assert np.max(np.abs(partial(pts) - expected)) < 1e-14


def _tables(v):
    """A table source for ``series_ball``: moments of v to the order asked."""
    return lambda order: moment_table(v, order)


class TestSeriesBall:
    def test_wide_data_get_a_smaller_ball(self):
        # the series of a half-width-1000 box does not converge on
        # |xi| <= 0.5 by order MAX_MOMENT_ORDER; a smaller ball does
        rho, top = series_ball(_tables(Box(dimension=1, half_width=1000.0)),
                               2, 0.5)
        assert 0.0 < rho < 1e-3 and 2 < top < 30
        narrow, _ = series_ball(_tables(Box(dimension=1, half_width=1.0)),
                                2, 0.5)
        assert rho < narrow <= 0.5

    def test_bounds_on_the_ball(self, gaussian_1d):
        eps = np.finfo(float).eps
        rho, top = series_ball(_tables(gaussian_1d), 2, 0.5)
        table = moment_table(gaussian_1d, top + 2)
        bounds = [sum(abs(table.moment(alpha))
                      for alpha in indices_of_degree(1, j)) * rho ** j
                  for j in range(top + 3)]
        assert sum(bounds[3:top + 1]) <= eps ** 0.25 * sum(bounds[:3])
        assert max(bounds[top - 1:top + 1]) <= eps * sum(bounds[3:top + 1])

    def test_data_without_a_head_need_no_ball(self):
        # x e^{-x^2/4} has M_0 = 0: its difference past order 0 is v_hat
        v = GaussianMonomial(dimension=1, exponents=(1,))
        assert moment_table(v, 0).is_exact_zero((0,))
        assert series_ball(_tables(v), 0, 0.5) == (0.0, 0)

    def test_a_table_that_leaves_the_floats_as_it_grows_gets_no_ball(self):
        # M_0 = 2e-5 is finite, but M_2 ~ 1e150 h^2 / 3 is not: growing the
        # table for the first tail layer raises, and the ball is empty
        box = Box(dimension=1, half_width=1e155, amplitude=1e-160)
        asked = []

        def tables(order):
            asked.append(order)
            return moment_table(box, order)

        assert moment_table(box, 0).moment((0,)) == pytest.approx(2e-5)
        assert series_ball(tables, 0, 0.5) == (0.0, 0)
        assert asked == [0, 2]


class TestBatchEvaluation:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_rounds_as_the_term_by_term_sum(self, n):
        v = Shifted(base=Gaussian(dimension=n, scale=1.3),
                    center=(0.5, -0.3, 0.2)[:n], dilation=0.7)
        table = moment_table(v, 6)
        pts = _sample(n, 12).reshape(3, 4, n)
        for poly in (build_expansion("A", 5, table),
                     build_expansion("B", 4, table),
                     heat_partial_sum(table, 6)):
            s = np.sum(pts * pts, axis=-1)
            expected = np.zeros(s.shape, dtype=complex)
            for t in poly.terms:
                mono = np.ones_like(s)
                for j, a in enumerate(t.monomial):
                    if a:
                        mono = mono * pts[..., j] ** a
                expected = expected + (t.coefficient * s ** (t.radial_power // 2)
                                       * mono)
            assert np.array_equal(poly(pts), expected)
