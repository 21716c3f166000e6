"""Catalog data: closed-form moments, transforms and weighted norms."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dampex import (Box, ConfigError, Gaussian, GaussianMonomial,
                    QuadratureError, Shifted, SumDatum, add_data,
                    datum_from_config, gauss_kernel, moment_table,
                    pair_from_config, weighted_l1_norm, zero_datum)
from dampex import initial_data
from dampex.indices import indices_up_to
from dampex.quadrature import adaptive_1d

from conftest import catalog_all, catalog_families
from oracles import (absolute_moment, per_axis_fourier_transform,
                     quadrature_raw_moment, scipy_weighted_l1_norm)

SQRT_PI = math.sqrt(math.pi)


class TestMoments:
    def test_gaussian_mass(self, gaussian_1d):
        assert moment_table(gaussian_1d, 0).moment((0,)) == pytest.approx(
            2 * SQRT_PI, rel=1e-14)

    def test_gaussian_second_raw_and_normalized(self, gaussian_1d):
        # raw second moment is 4 sqrt(pi); the 1/2! normalization halves it,
        # which is exactly what cancels the mass in the order-two increment
        table = moment_table(gaussian_1d, 2)
        assert table.raw((2,)) == pytest.approx(4 * SQRT_PI, rel=1e-14)
        assert table.moment((2,)) == table.moment((0,))

    def test_gaussian_odd_moment_is_exact_zero(self, gaussian_1d):
        table = moment_table(gaussian_1d, 1)
        assert table.moment((1,)) == 0.0
        assert table.is_exact_zero((1,))

    def test_normalization_sign(self):
        v = Shifted(base=Gaussian(dimension=1, scale=1.0), center=(0.6,),
                    dilation=1.0)
        table = moment_table(v, 1)
        raw = table.raw((1,))
        assert raw == pytest.approx(0.6 * 2 * SQRT_PI, rel=1e-13)
        assert table.moment((1,)) == pytest.approx(-raw, rel=1e-15)

    def test_even_data_odd_entries_exact_zero(self):
        table = moment_table(Gaussian(dimension=2, scale=1.0), 4)
        for alpha in table.indices():
            if any(a % 2 for a in alpha):
                assert table.is_exact_zero(alpha)
                assert table.moment(alpha) == 0.0

    @pytest.mark.parametrize("v", catalog_all(), ids=lambda v: f"{v.family}{v.dimension}d")
    def test_closed_form_matches_quadrature_oracle(self, v):
        order = 6 if v.dimension == 1 else (4 if v.dimension == 2 else 3)
        table = moment_table(v, order)
        for alpha in indices_up_to(v.dimension, order):
            closed = table.raw(alpha)
            oracle = quadrature_raw_moment(v, alpha, tol=1e-11,
                                           abs_floor=1e-13)
            if table.is_exact_zero(alpha):
                assert abs(oracle) <= 1e-10 * max(1.0, abs(table.raw((0,) * v.dimension)))
            else:
                assert oracle == pytest.approx(closed, rel=1e-9), alpha

    def test_nested_oracle_agrees_in_2d(self):
        v = Shifted(base=Gaussian(dimension=2, scale=1.0), center=(0.4, -0.3),
                    dilation=1.0)
        table = moment_table(v, 2)
        for alpha in [(0, 0), (1, 1), (2, 0)]:
            nested = quadrature_raw_moment(v, alpha, tol=1e-9, nested=True)
            assert nested == pytest.approx(table.raw(alpha), rel=1e-7)

    def test_sum_moments_are_linear(self):
        a = Gaussian(dimension=1, scale=1.0)
        b = Box(dimension=1, half_width=1.0)
        s = add_data(a, b)
        assert isinstance(s, SumDatum)
        ts, ta, tb = (moment_table(d, 4) for d in (s, a, b))
        for alpha in [(0,), (2,), (4,)]:
            assert ts.raw(alpha) == pytest.approx(
                ta.raw(alpha) + tb.raw(alpha), rel=1e-15)

    def test_a_sum_of_sums_holds_their_terms(self):
        a, b, c = (Gaussian(dimension=1, scale=1.0),
                   Box(dimension=1, half_width=1.0),
                   Gaussian(dimension=1, scale=0.5))
        nested = SumDatum(terms=(SumDatum(terms=(a, b)), c))
        assert nested.terms == (a, b, c)
        assert nested == SumDatum(terms=(a, SumDatum(terms=(b, c))))
        assert moment_table(nested, 4).entries == moment_table(
            SumDatum(terms=(a, b, c)), 4).entries
        with pytest.raises(ValueError, match="only separable data"):
            Shifted(base=nested, center=(0.5,))

    def test_orders_up_to_170_fit_a_float(self):
        # 170! is below the largest float and 171! above it
        table = moment_table(Gaussian(dimension=1, scale=1.0), 170)
        assert math.isfinite(table.moment((170,)))
        for n in (1, 2):
            with pytest.raises(ConfigError, match="171! overflows"):
                moment_table(Gaussian(dimension=n, scale=1.0), 171)

    def test_moments_beyond_the_floats_are_config_errors(self):
        # M_a = 2 h^(a+1) / (a+1)! of a half-width-1e5 box is 3.4e284 at
        # a = 80 and beyond the largest float at a = 90
        box = Box(dimension=1, half_width=1e5)
        assert math.isfinite(moment_table(box, 80).moment((80,)))
        with pytest.raises(ConfigError, match="not a finite float"):
            moment_table(box, 100)
        # its raw moments leave the floats long before: 2 h^71 / 71 at 70
        with pytest.raises(ConfigError, match="overflows a float"):
            moment_table(box, 70).raw((70,))

    def test_quadrature_nonconvergence_is_diagnosed(self):
        # the engine used by the moment oracle reports the achieved error
        # when an integrand defeats the subdivision budget
        from dampex.quadrature import adaptive_1d
        with pytest.raises(QuadratureError) as err:
            adaptive_1d(lambda x: np.sin(1.0 / (x + 1e-12)), 0.0, 1.0, 1e-13)
        assert err.value.error_estimate is not None
        assert err.value.error_estimate > 0


def _mp_raw_axis(mp, datum, a):
    """50-digit integral y^a v_j dy of axis 0 of ``datum`` by the closed forms
    (Gamma functions, powers and the binomial expansion of a shift)."""
    if isinstance(datum, Shifted):
        c, d = mp.mpf(datum.center[0]), mp.mpf(datum.dilation)
        return d * mp.fsum(mp.binomial(a, q) * c ** (a - q) * d ** q
                           * _mp_raw_axis(mp, datum.base, q) for q in range(a + 1))
    if isinstance(datum, Box):
        h = mp.mpf(datum.half_width)
        return 2 * h ** (a + 1) / (a + 1) if a % 2 == 0 else mp.mpf(0)
    b = datum.exponents[0] if isinstance(datum, GaussianMonomial) else 0
    if (a + b) % 2:
        return mp.mpf(0)
    return mp.gamma(mp.mpf(a + b + 1) / 2) * (4 * mp.mpf(datum.scale)) ** (
        mp.mpf(a + b + 1) / 2)


def _mp_moment(mp, datum, alpha):
    """50-digit normalized moment M_alpha of a 1-D datum or of a sum."""
    if isinstance(datum, SumDatum):
        return mp.fsum(_mp_moment(mp, t, alpha) for t in datum.terms)
    (a,) = alpha
    return (mp.mpf(datum.amplitude) * (-1) ** a * _mp_raw_axis(mp, datum, a)
            / mp.factorial(a))


class TestAxisMoments:
    """Normalized moments by recurrence against 50-digit closed forms."""

    DATA = {
        "box": Box(dimension=1, half_width=1.7, amplitude=0.8),
        "gaussian": Gaussian(dimension=1, scale=0.6, amplitude=1.3),
        "monomial": GaussianMonomial(dimension=1, exponents=(3,), scale=1.4),
        "shifted": Shifted(base=Gaussian(dimension=1, scale=0.8), center=(0.7,),
                           dilation=1.6),
        "shifted-box": Shifted(base=Box(dimension=1, half_width=0.5),
                               center=(-1.2,), dilation=0.7),
        "sum": SumDatum(terms=(Box(dimension=1, half_width=1.2),
                               GaussianMonomial(dimension=1, exponents=(2,),
                                                scale=0.5, amplitude=0.3))),
    }

    @pytest.mark.parametrize("name", sorted(DATA))
    def test_order_60_matches_50_digit_moments(self, name):
        mp = pytest.importorskip("mpmath")
        v = self.DATA[name]
        table = moment_table(v, 60)
        with mp.workdps(50):
            for (a,) in table.indices():
                ref = _mp_moment(mp, v, (a,))
                got = table.moment((a,))
                if table.is_exact_zero((a,)):
                    assert got == 0.0 and ref == 0, a
                else:
                    assert abs(got - ref) <= 1e-13 * abs(ref), (a, got, ref)

    @pytest.mark.parametrize("v", [
        Shifted(base=GaussianMonomial(dimension=2, exponents=(1, 2), scale=0.7,
                                      amplitude=1.1),
                center=(0.3, -0.5), dilation=1.3),
        Shifted(base=Box(dimension=3, half_width=0.9, amplitude=1.2),
                center=(0.4, 0.0, -0.6), dilation=0.8)],
        ids=["2d", "3d"])
    def test_multi_d_tables_are_outer_products(self, v):
        mp = pytest.importorskip("mpmath")
        table = moment_table(v, 12)
        base = v.base
        with mp.workdps(50):
            for alpha in [(0,) * v.dimension, (3, 2, 1)[:v.dimension],
                          (0, 5, 7)[:v.dimension], (12,) + (0,) * (v.dimension - 1),
                          (2,) * v.dimension]:
                ref = mp.mpf(base.amplitude)
                for j, a in enumerate(alpha):
                    axis = _axis_datum(base, j)
                    ref *= (-1) ** a * _mp_raw_axis(mp, Shifted(
                        base=axis, center=(v.center[j],), dilation=v.dilation),
                        a) / mp.factorial(a)
                got = table.moment(alpha)
                if table.is_exact_zero(alpha):
                    assert got == 0.0 and ref == 0, alpha
                else:
                    assert abs(got - ref) <= 1e-13 * abs(ref), (alpha, got, ref)


def _axis_datum(v, j):
    """Axis j of a separable datum as a 1-D datum of amplitude 1."""
    if isinstance(v, Box):
        return Box(dimension=1, half_width=v.half_width)
    return GaussianMonomial(dimension=1, exponents=(v.exponents[j],),
                            scale=v.scale)


class TestWeightedNorms:
    def test_zero_function(self):
        assert weighted_l1_norm(zero_datum(1), 2.0) == 0.0

    def test_gamma_zero_equals_mass_for_positive_data(self, gaussian_1d):
        assert weighted_l1_norm(gaussian_1d, 0.0) == pytest.approx(
            2 * SQRT_PI, rel=1e-10)

    def test_gamma_two_against_expanded_closed_form(self, gaussian_1d):
        # (1+|x|)^2 = 1 + 2|x| + x^2; the three gaussian integrals are
        # 2 sqrt(pi), 2*2*2 = 8 and 4 sqrt(pi)
        expected = 6 * SQRT_PI + 8.0
        assert weighted_l1_norm(gaussian_1d, 2.0) == pytest.approx(expected, rel=1e-10)

    def test_noninteger_gamma_runs(self, gaussian_1d):
        val = weighted_l1_norm(gaussian_1d, 2.5)
        assert weighted_l1_norm(gaussian_1d, 2.0) < val < weighted_l1_norm(gaussian_1d, 3.0)

    def test_2d_weighted_norm(self):
        v = Gaussian(dimension=2, scale=1.0)
        # radial closed form: integral (1+r)^0 |v| = 4 pi
        assert weighted_l1_norm(v, 0.0) == pytest.approx(4 * math.pi, rel=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_box_at_gamma_zero_is_its_volume(self, n):
        v = Box(dimension=n, half_width=0.8, amplitude=-1.5)
        assert weighted_l1_norm(v, 0.0) == pytest.approx(1.5 * 1.6**n, rel=1e-12)

    @pytest.mark.parametrize("n, gamma, tol", [
        (1, 3, 1e-10), (2, 1, 1e-10), (2, 2, 1e-10), (3, 0, 1e-10),
        (3, 2, 1e-8)])
    def test_gaussian_at_integer_gamma_against_gamma_ratios(self, n, gamma, tol):
        # (1 + r)^gamma = sum_k C(gamma, k) r^k, and for v = e^{-r^2/(4s)}
        # integral r^k v dx = pi^{n/2} (4s)^{(k+n)/2} Gamma((k+n)/2) / Gamma(n/2)
        s, amplitude = 0.5, -0.7
        expected = abs(amplitude) * math.pi ** (n / 2) * sum(
            math.comb(gamma, k) * (4 * s) ** ((k + n) / 2)
            * math.gamma((k + n) / 2) / math.gamma(n / 2)
            for k in range(gamma + 1))
        v = Gaussian(dimension=n, scale=s, amplitude=amplitude)
        assert weighted_l1_norm(v, gamma, tol=tol) == pytest.approx(
            expected, rel=10 * tol)

    @pytest.mark.parametrize("s", [0.5, 1.0])
    @pytest.mark.parametrize("gamma", [20, 30, 40])
    def test_heavy_weights_reach_the_weighted_tail(self, s, gamma):
        # the weight moves the integrand's bulk out to |x| ~ sqrt(2 s gamma);
        # cut where the bare profile ends, the norm was short by 4.7e-7 at
        # s = 1, gamma = 40
        expected = sum(math.comb(gamma, j) * (4 * s) ** ((j + 1) / 2)
                       * math.gamma((j + 1) / 2) for j in range(gamma + 1))
        assert weighted_l1_norm(Gaussian(dimension=1, scale=s), gamma) == (
            pytest.approx(expected, rel=1e-10))

    @pytest.mark.parametrize("n", [1, 2])
    def test_a_finite_norm_whose_weight_overflows(self, n):
        # (1 + r)^200 overflows where the Gaussian underflows to 0, near the
        # ends of the axis interval; the norm itself is finite, and no
        # warning of the overflow escapes
        mp = pytest.importorskip("mpmath")
        gamma = 200
        with mp.workdps(30):
            area = {1: 2, 2: 2 * mp.pi}[n]
            reference = area * mp.quad(
                lambda r: (1 + r) ** gamma * mp.exp(-r * r / 4) * r ** (n - 1),
                [0, 10, 20, 30, 40, 60, mp.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = weighted_l1_norm(Gaussian(dimension=n, scale=1.0), gamma)
        assert got == pytest.approx(float(reference), rel=1e-10)

    @pytest.mark.parametrize("v, gamma", [
        (Shifted(base=Gaussian(dimension=2, scale=1.0), center=(0.5, -0.3),
                 dilation=1.3), 2.5),
        # the monomial term changes sign, so |v| has kinks
        (SumDatum(terms=(Gaussian(dimension=2, scale=1.0),
                         Shifted(base=GaussianMonomial(dimension=2,
                                                       exponents=(1, 0),
                                                       scale=0.5, amplitude=0.5),
                                 center=(0.3, -0.2), dilation=1.0))), 0.5)])
    def test_2d_norms_match_the_scipy_route(self, v, gamma):
        assert weighted_l1_norm(v, gamma) == pytest.approx(
            scipy_weighted_l1_norm(v, gamma), rel=1e-9)

    def test_2d_jump_case_matches_the_scipy_route_with_faces_as_points(self):
        # |v| jumps at the box's faces x_j = +-0.7
        v = SumDatum(terms=(Box(dimension=2, half_width=0.7),
                            Gaussian(dimension=2, scale=0.5, amplitude=-0.4)))
        assert weighted_l1_norm(v, 0.5) == pytest.approx(
            scipy_weighted_l1_norm(v, 0.5, points=(-0.7, 0.7)), rel=1e-10)

    def test_3d_jump_case_agrees_with_a_tighter_run_of_itself(self):
        # with a face inside a panel, every outer row paid for the
        # bisections at the jump, and this did not finish within 300 s
        v = SumDatum(terms=(Box(dimension=3, half_width=0.7),
                            Gaussian(dimension=3, scale=0.5, amplitude=-0.4)))
        assert weighted_l1_norm(v, 0.5, tol=1e-6) == pytest.approx(
            weighted_l1_norm(v, 0.5, tol=1e-8), rel=1e-6)

    def test_3d_rows_reach_the_next_axis_in_chunks(self, monkeypatch):
        # all rows of an axis once went to the next axis in one call, and
        # this sum peaked at about 200 MiB at tol 1e-10
        rows = []

        def counted(f, *args, **kwargs):
            def g(y):
                out = f(y)
                rows.append(out.size / len(y))
                return out
            return adaptive_1d(g, *args, **kwargs)

        monkeypatch.setattr(initial_data, "adaptive_1d", counted)
        v = SumDatum(terms=(Box(dimension=3, half_width=0.7),
                            Gaussian(dimension=3, scale=0.5, amplitude=-0.4)))
        weighted_l1_norm(v, 0.5, tol=1e-6)
        assert max(rows) <= initial_data.L1_ROW_CHUNK < sum(rows)

    def test_absolute_moment_matches_even_power(self, gaussian_1d):
        assert absolute_moment(gaussian_1d, 2.0) == pytest.approx(
            moment_table(gaussian_1d, 2).raw((2,)), rel=1e-10)


class TestFourierTransforms:
    def test_gauss_kernel_transform(self):
        for n, t in [(1, 0.5), (2, 1.0), (3, 2.0)]:
            g = gauss_kernel(n, t)
            xi = np.full((1, n), 0.4)
            expected = math.exp(-t * 0.16 * n)
            assert g.fourier_transform(xi)[0] == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("v", catalog_all(), ids=lambda v: f"{v.family}{v.dimension}d")
    def test_value_at_zero_equals_mass(self, v):
        xi0 = np.zeros((1, v.dimension))
        mass = moment_table(v, 0).raw((0,) * v.dimension)
        assert v.fourier_transform(xi0)[0] == pytest.approx(mass, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_transform_at_minus_xi_is_the_conjugate(self, n):
        # every catalog datum is real, so v_hat(-xi) = conj v_hat(xi)
        xi = np.random.default_rng(n).uniform(-6.0, 6.0, (200, n))
        for v in catalog_families(n):
            ref = np.conj(v.fourier_transform(xi))
            gap = np.abs(v.fourier_transform(-xi) - ref)
            assert np.all(gap <= 4 * np.finfo(float).eps * np.abs(ref)), v

    def test_box_transform_zero_at_pi(self):
        b = Box(dimension=1, half_width=1.0)
        val = b.fourier_transform(np.array([[math.pi]]))[0]
        assert abs(val) <= 1e-12
        # cross-check a generic point against the quadrature transform
        xi = 1.3
        brute = quadrature_transform(b, np.array([xi]))
        assert b.fourier_transform(np.array([[xi]]))[0] == pytest.approx(brute, rel=1e-9)

    def test_monomial_transform_against_quadrature(self):
        v = GaussianMonomial(dimension=1, exponents=(2,), scale=0.5)
        xi = 0.8
        brute = quadrature_transform(v, np.array([xi]))
        assert complex(v.fourier_transform(np.array([[xi]]))[0]) == pytest.approx(
            brute, rel=1e-9)

    def test_shifted_transform_phase(self):
        base = Gaussian(dimension=1, scale=1.0)
        v = Shifted(base=base, center=(0.7,), dilation=2.0)
        xi = np.array([[0.9]])
        expected = (2.0 * np.exp(-1j * 0.7 * 0.9)
                    * base.fourier_transform(np.array([[1.8]]))[0])
        assert complex(v.fourier_transform(xi)[0]) == pytest.approx(complex(expected),
                                                                    rel=1e-13)

    @pytest.mark.parametrize("v", catalog_all()[:6], ids=lambda v: f"{v.family}{v.dimension}d")
    def test_derivative_moment_duality(self, v):
        # d^alpha v_hat(0) = i^{|alpha|} alpha! M_alpha, checked by
        # Richardson-extrapolated central differences per axis
        table = moment_table(v, 3)
        for alpha in indices_up_to(v.dimension, 3):
            fd = _fd_derivative_at_zero(v, alpha)
            d = sum(alpha)
            expected = (1j ** d) * math.prod(math.factorial(a) for a in alpha) \
                * table.moment(alpha)
            assert fd == pytest.approx(expected, rel=2e-6, abs=2e-6), alpha


def _kernel_family(n):
    """One datum of every transform kernel in dimension n, by name."""
    e1 = (1,) + (0,) * (n - 1)
    center = (0.6, -0.45, 0.3)[:n]
    gaussian = Gaussian(dimension=n, scale=0.7, amplitude=-1.3)
    box = Box(dimension=n, half_width=0.8, amplitude=-0.6)
    odd = GaussianMonomial(dimension=n, exponents=(1,) * n if n % 2 else e1,
                           scale=0.6, amplitude=1.2)
    even = GaussianMonomial(dimension=n, exponents=(2,) + (1,) * (n - 1)
                            if n % 2 else (1,) * n, scale=0.4)
    return {
        "gaussian": gaussian, "box": box,
        "monomial-odd": odd, "monomial-even": even,
        "zero": zero_datum(n),
        "shifted-gaussian": Shifted(base=gaussian, center=center, dilation=1.7),
        "shifted-box": Shifted(base=box, center=center, dilation=0.6),
        "shifted-monomial-odd": Shifted(base=odd, center=center, dilation=1.3),
        "shifted-monomial-even": Shifted(base=even, center=center, dilation=0.8),
        "shifted-shifted": Shifted(base=Shifted(base=odd, center=center[::-1],
                                                dilation=1.4),
                                   center=center, dilation=0.7),
        "sum": SumDatum(terms=(gaussian, box, Shifted(base=odd, center=center,
                                                      dilation=1.3))),
        "sum-unshifted": SumDatum(terms=(gaussian, box, even)),
    }


# transforms the real product times one phase gives exactly, up to the
# sign of zero imaginary parts; the others differ from the per-axis
# complex product only in the rounding of the phase and of the complex
# multiplications
EXACT_KERNELS = {"gaussian", "box", "zero", "monomial-odd", "monomial-even",
                 "sum-unshifted"}
# the kernels whose transforms are float64: no phase factor, or the real
# -1 or 1 of a monomial of even degree
REAL_KERNELS = {"gaussian", "box", "zero", "monomial-even", "sum-unshifted"}


class TestTransformKernels:
    """The transform as amplitude times real axis factors times one phase,
    against the per-axis complex product of ``oracles``."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(_kernel_family(1)))
    def test_matches_per_axis_complex_product(self, n, name):
        v = _kernel_family(n)[name]
        xi = np.random.default_rng(n).normal(scale=3.0, size=(600, n))
        got = v.fourier_transform(xi)
        want = per_axis_fourier_transform(v, xi)
        # data with a real phase or none keeps its real product real
        dtype = np.float64 if name in REAL_KERNELS else np.complex128
        assert got.dtype == dtype and got.shape == (600,)
        if name in EXACT_KERNELS:
            assert np.array_equal(got, want)
            return
        # a few ulps of the largest term: a sum may cancel below its terms
        terms = v.terms if isinstance(v, SumDatum) else (v,)
        scale = sum(np.abs(per_axis_fourier_transform(t, xi)) for t in terms)
        assert np.all(np.abs(got - want) <= 16 * np.finfo(float).eps * scale)

    def test_axis_factors_are_real(self):
        for n in (1, 2, 3):
            for name, v in _kernel_family(n).items():
                if isinstance(v, SumDatum):
                    continue
                for j in range(n):
                    assert np.isrealobj(v.axis_fourier(j, np.linspace(-3, 3, 7))), name

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_zero_datum_evaluates_no_axis(self, n, monkeypatch):
        def refuse(self, j, xi_j):
            raise AssertionError("axis_fourier called on the zero datum")

        monkeypatch.setattr(Gaussian, "axis_fourier", refuse)
        out = zero_datum(n).fourier_transform(np.ones((5, n)))
        assert out.dtype == np.float64
        assert np.array_equal(out, np.zeros(5))


def quadrature_transform(v, xi):
    """Brute-force 1-D Fourier transform oracle."""
    from dampex.quadrature import adaptive_1d
    lo, hi = v.axis_interval(0)
    re = adaptive_1d(lambda y: np.cos(-y * xi[0]) * v.values(y[:, None]),
                     lo, hi, 1e-11, abs_floor=1e-12, breakpoints=(0.0,)).value[0]
    im = adaptive_1d(lambda y: np.sin(-y * xi[0]) * v.values(y[:, None]),
                     lo, hi, 1e-11, abs_floor=1e-12, breakpoints=(0.0,)).value[0]
    return complex(re, im)


def _fd_derivative_at_zero(v, alpha, h=1e-2):
    def deriv(f, axis, hh):
        return lambda pt: (f(_bump(pt, axis, hh)) - f(_bump(pt, axis, -hh))) / (2 * hh)

    def _bump(pt, axis, hh):
        out = list(pt)
        out[axis] += hh
        return tuple(out)

    def eval_at(pt):
        return complex(v.fourier_transform(np.array([pt]))[0])

    def nth(f, axis, order, hh):
        for _ in range(order):
            f = deriv(f, axis, hh)
        return f

    def full(hh):
        f = eval_at
        for axis, a in enumerate(alpha):
            f = nth(f, axis, a, hh)
        return f((0.0,) * v.dimension)

    coarse, fine = full(h), full(h / 2)
    return (4.0 * fine - coarse) / 3.0


class TestConfigLoading:
    def test_round_trip_families(self):
        cfgs = [
            {"family": "gaussian", "dimension": 2, "scale": 0.5, "amplitude": 2.0},
            {"family": "box", "dimension": 1, "half_width": 1.5},
            {"family": "gaussian_monomial", "dimension": 2, "exponents": [1, 0]},
            {"family": "zero", "dimension": 3},
            {"family": "gauss_kernel", "dimension": 1, "t": 2.0},
            {"family": "shifted", "center": [0.5], "dilation": 2.0,
             "base": {"family": "gaussian", "dimension": 1}},
            {"family": "sum", "terms": [
                {"family": "gaussian", "dimension": 1},
                {"family": "box", "dimension": 1}]},
        ]
        for cfg in cfgs:
            datum = datum_from_config(cfg)
            assert datum.dimension == cfg.get("dimension",
                                              datum.dimension)

    def test_rejects_unknown_family(self):
        with pytest.raises(ConfigError):
            datum_from_config({"family": "sampled", "dimension": 1})

    def test_rejects_extra_keys(self):
        with pytest.raises(ConfigError):
            datum_from_config({"family": "gaussian", "dimension": 1, "sigma": 2})

    def test_rejects_dimension_above_three(self):
        with pytest.raises(ConfigError):
            datum_from_config({"family": "gaussian", "dimension": 4})

    @pytest.mark.parametrize("cfg", [
        {"family": "shifted", "dimension": 2, "center": [0.5],
         "base": {"family": "gaussian", "dimension": 1}},
        {"family": "sum", "dimension": 2, "terms": [
            {"family": "gaussian", "dimension": 1},
            {"family": "box", "dimension": 1}]}], ids=["shifted", "sum"])
    def test_rejects_a_stated_dimension_it_does_not_build(self, cfg):
        with pytest.raises(ConfigError, match="states dimension 2 but "
                                              "builds dimension 1"):
            datum_from_config(cfg)

    def test_pair_requires_matching_dimensions(self):
        with pytest.raises(ConfigError):
            pair_from_config({"u0": {"family": "gaussian", "dimension": 1},
                              "u1": {"family": "gaussian", "dimension": 2}})


@settings(max_examples=40, derandomize=True, deadline=None)
@given(center=st.floats(-1.5, 1.5), dilation=st.floats(0.3, 3.0),
       m=st.integers(0, 4))
def test_shifted_moments_match_substitution_oracle(center, dilation, m):
    """integral x^m base((x-c)/s) dx computed two independent ways."""
    base = Gaussian(dimension=1, scale=1.0)
    v = Shifted(base=base, center=(center,), dilation=dilation)
    closed = moment_table(v, m).raw((m,))
    oracle = quadrature_raw_moment(v, (m,), tol=1e-11, abs_floor=1e-12)
    assert oracle == pytest.approx(closed, rel=1e-8, abs=1e-10)
