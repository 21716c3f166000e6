"""Expansion polynomials: builders, identities, canonical structure."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dampex import (Box, Case, Gaussian, InsufficientOrderError, Shifted,
                    build_expansion, check_property_A, check_property_B,
                    check_property_C, combine, heat_partial_sum, moment_table,
                    property_suite, sample_ball, zero_datum)
from dampex.expansion import (ExpansionPolynomial, PointSample, PropertyReport,
                              series_ball)
from dampex.indices import indices_of_degree
from dampex.initial_data import GaussianMonomial

from conftest import catalog_1d, catalog_2d, catalog_3d


def _sample(dimension, count=100, seed=7, radius=2.0):
    rng = np.random.default_rng(seed)
    return sample_ball(rng, dimension, count, radius)


def _check_A(table, k, pts, tolerance=1e-12):
    return check_property_A(build_expansion("A", k, table),
                            build_expansion("A", k - 1, table),
                            build_expansion("B", k, table), PointSample(pts),
                            tolerance)


def _check_B(table, k, pts, tolerance=1e-12):
    return check_property_B(build_expansion("B", k, table),
                            build_expansion("B", k - 2, table),
                            build_expansion("C", k, table), PointSample(pts),
                            tolerance)


def _check_C(poly, c, pts, tolerance=1e-12):
    return check_property_C(poly, c, PointSample(pts), tolerance)


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
        pts = _sample(v.dimension)
        for k in range(k_max + 1):
            rep = _check_A(table, k, pts, tolerance=1e-12)
            assert rep.passed, (k, rep.max_deviation)

    @pytest.mark.parametrize("v", catalog_1d() + catalog_2d(),
                             ids=lambda v: f"{v.family}{v.dimension}d")
    def test_recurrence_up_to_order_six(self, v):
        table = moment_table(v, 6)
        pts = _sample(v.dimension)
        for k in range(2, 7):
            rep = _check_B(table, k, pts, tolerance=1e-12)
            assert rep.passed, (k, rep.max_deviation)

    def test_recurrence_with_only_mass(self):
        # with just M_0 both sides of the order-two recurrence are M_0 |xi|^2
        table = moment_table(Gaussian(dimension=2, scale=1.0), 2)
        pts = _sample(2, 50)
        b2 = build_expansion("B", 2, table)
        m0 = table.moment((0, 0))
        for p in pts[:5]:
            s = float(p @ p)
            manual = (m0 - table.moment((2, 0))) * p[0] ** 2 \
                + (m0 - table.moment((0, 2))) * p[1] ** 2 \
                - table.moment((1, 1)) * p[0] * p[1]
            assert complex(b2(p)) == pytest.approx(manual, abs=1e-13)

    def test_homogeneity_specific_scale(self, gaussian_1d):
        table = moment_table(gaussian_1d, 2)
        b0 = build_expansion("B", 0, table)
        pts = _sample(1, 20)
        rep = _check_C(b0, 2.0, pts, tolerance=1e-13)
        assert rep.passed

    def test_homogeneity_requires_increment_kind(self, gaussian_1d):
        table = moment_table(gaussian_1d, 2)
        a = build_expansion("A", 2, table)
        with pytest.raises(ValueError):
            _check_C(a, 2.0, _sample(1, 5))

    def test_zero_data_identities_hold_vacuously(self):
        table = moment_table(zero_datum(2), 4)
        pts = _sample(2, 20)
        assert _check_A(table, 2, pts).passed
        assert _check_B(table, 2, pts).passed


@settings(max_examples=60, derandomize=True, deadline=None)
@given(c=st.floats(0.01, 10.0), k=st.integers(0, 4),
       seed=st.integers(0, 2**31))
def test_homogeneity_for_random_scales(c, k, seed):
    v = Shifted(base=Gaussian(dimension=2, scale=1.0), center=(0.4, -0.3),
                dilation=1.0)
    table = moment_table(v, 4)
    poly = build_expansion("B", k, table)
    pts = _sample(2, 25, seed=seed)
    rep = _check_C(poly, c, pts, tolerance=1e-12)
    assert rep.passed, rep.max_deviation


# The per-point evaluation the compensated batch replaced, kept as the
# reference: one point at a time, term by term, then math.fsum.

def _ref_value(poly, pt):
    s = float(pt @ pt)
    re, im = [], []
    for t in poly.terms:
        mono = 1.0
        for j, a in enumerate(t.monomial):
            if a:
                mono *= float(pt[j]) ** a
        val = t.coefficient * s ** (t.radial_power // 2) * mono
        re.append(val.real)
        im.append(val.imag)
    return complex(math.fsum(re), math.fsum(im))


def _ref_magnitude(poly, pt):
    s = float(pt @ pt)
    return math.fsum(
        abs(t.coefficient) * s ** (t.radial_power // 2)
        * math.prod(abs(float(pt[j])) ** a
                    for j, a in enumerate(t.monomial) if a)
        for t in poly.terms)


def _ref_check_A(table, k, pts, tolerance):
    a_k = build_expansion("A", k, table)
    a_prev = build_expansion("A", k - 1, table)
    b_k = build_expansion("B", k, table)
    devs, scales = [], [1.0]
    for p in pts:
        lhs = _ref_value(a_k, p)
        rhs = _ref_value(a_prev, p) + _ref_value(b_k, p)
        devs.append(abs(lhs - rhs))
        scales.append(_ref_magnitude(a_k, p))
    scale = max(scales)
    return PropertyReport(name="additivity", order=k, sample_size=len(pts),
                          max_deviation=max(devs) / scale, scale=scale,
                          tolerance=tolerance)


def _ref_check_B(table, k, pts, tolerance):
    b_k = build_expansion("B", k, table)
    b_prev = build_expansion("B", k - 2, table)
    top = build_expansion("C", k, table)
    devs, scales = [], [1.0]
    for p in pts:
        lhs = _ref_value(b_k, p)
        rhs = float(p @ p) * _ref_value(b_prev, p) + _ref_value(top, p)
        devs.append(abs(lhs - rhs))
        scales.append(_ref_magnitude(b_k, p))
    scale = max(scales)
    return PropertyReport(name="recurrence", order=k, sample_size=len(pts),
                          max_deviation=max(devs) / scale, scale=scale,
                          tolerance=tolerance)


def _ref_check_C(poly, c, pts, tolerance):
    devs, scales = [], [1e-300]
    for p in pts:
        lhs = _ref_value(poly, p / c)
        rhs = c ** (-poly.order) * _ref_value(poly, p)
        devs.append(abs(lhs - rhs))
        scales.append(max(_ref_magnitude(poly, p / c),
                          c ** (-poly.order) * _ref_magnitude(poly, p)))
    scale = max(scales)
    return PropertyReport(name="homogeneity", order=poly.order,
                          sample_size=len(pts), max_deviation=max(devs) / scale,
                          scale=scale, tolerance=tolerance)


def _identity_sample(dimension):
    """Points near the origin and out to |xi| = 20: the origin, +-20 on the
    axes, and points with one exact 0.0 coordinate."""
    near = _sample(dimension, 12, seed=11, radius=2.0)
    far = _sample(dimension, 12, seed=12, radius=20.0)
    zeroed = np.concatenate([near[:dimension], far[:dimension]])
    for j in range(dimension):
        zeroed[j, j] = zeroed[dimension + j, j] = 0.0
    axes = np.zeros((3, dimension))
    axes[0, 0], axes[1, -1] = 20.0, -20.0
    return np.concatenate([near, far, zeroed, axes])


class TestCompensatedBatch:
    @pytest.mark.parametrize("v", catalog_1d() + catalog_2d() + catalog_3d(),
                             ids=lambda v: f"{v.family}{v.dimension}d")
    def test_checks_are_bitwise_the_per_point_loops(self, v):
        table = moment_table(v, 6)
        pts = _identity_sample(v.dimension)
        sample = PointSample(pts)
        for k in range(7):
            for kind in ("A", "B", "C"):
                poly = build_expansion(kind, k, table)
                values = [_ref_value(poly, p) for p in pts]
                magnitudes = [_ref_magnitude(poly, p) for p in pts]
                assert poly.compensated(sample) == values, (kind, k)
                assert poly.magnitudes(sample) == magnitudes, (kind, k)
                assert [poly(p) for p in pts] == values, (kind, k)
            assert _check_A(table, k, pts, 1e-12) == \
                _ref_check_A(table, k, pts, 1e-12)
            if k >= 2:
                assert _check_B(table, k, pts, 1e-12) == \
                    _ref_check_B(table, k, pts, 1e-12)
            b_k = build_expansion("B", k, table)
            for c in (0.1, 2.0, 10.0):
                assert _check_C(b_k, c, pts, 1e-12) == \
                    _ref_check_C(b_k, c, pts, 1e-12), (k, c)

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

    def test_property_suite_evaluations_do_not_grow_with_the_sample(
            self, monkeypatch):
        calls = {"batch": 0, "call": 0}

        def counting(name, method):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return method(*args, **kwargs)
            return wrapper

        for attr in ("compensated", "magnitudes"):
            monkeypatch.setattr(ExpansionPolynomial, attr, counting(
                "batch", getattr(ExpansionPolynomial, attr)))
        monkeypatch.setattr(ExpansionPolynomial, "__call__", counting(
            "call", ExpansionPolynomial.__call__))
        v = Shifted(base=Gaussian(dimension=2, scale=1.0), center=(0.4, -0.3),
                    dilation=1.0)
        counts = []
        for size in (100, 1000):
            calls.update(batch=0, call=0)
            case = Case("shifted", v, zero_datum(2), checks=("properties",),
                        k_values=(2,))
            reports = property_suite(case, np.random.default_rng(3),
                                     sample_size=size)
            assert all(r.sample_size == size for r in reports)
            counts.append(dict(calls))
        assert counts[0] == counts[1]
        assert counts[0]["batch"] > 0 and counts[0]["call"] == 0


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


class TestSeriesBall:
    def test_wide_data_get_a_smaller_ball(self):
        # the series of a half-width-1000 box does not converge on
        # |xi| <= 0.5 by order MAX_MOMENT_ORDER; a smaller ball does
        rho, top, _ = series_ball(Box(dimension=1, half_width=1000.0), 2, 0.5)
        assert 0.0 < rho < 1e-3 and 2 < top < 30
        narrow, _, _ = series_ball(Box(dimension=1, half_width=1.0), 2, 0.5)
        assert rho < narrow <= 0.5

    def test_bounds_on_the_ball(self, gaussian_1d):
        eps = np.finfo(float).eps
        rho, top, _ = series_ball(gaussian_1d, 2, 0.5)
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
        assert series_ball(v, 0, 0.5)[:2] == (0.0, 0)


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
