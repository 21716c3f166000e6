"""Transformed-solution evaluators: representations, band, symbol, residual."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dampex import (Box, Gaussian, LowFrequencySymbol, REPRESENTATIONS, Shifted,
                    SingularEvaluationError, SpectralSolution, add_data,
                    build_expansion, gauss_kernel, moment_table,
                    stable_heat_difference, zero_datum)
from dampex.quadrature import circle_nodes, sphere_nodes
from dampex.spectral import Shells

from oracles import residual_curve


@pytest.fixture(scope="module")
def pair_1d():
    return (Gaussian(dimension=1, scale=1.0),
            Gaussian(dimension=1, scale=0.6, amplitude=0.7))


@pytest.fixture(scope="module")
def sol_1d(pair_1d):
    return SpectralSolution(u0=pair_1d[0], u1=pair_1d[1])


def _safe_sample(rng, n, count, s_gap=0.05, radius=2.0):
    pts = []
    while len(pts) < count:
        xi = rng.uniform(-radius / math.sqrt(n), radius / math.sqrt(n), size=n)
        if abs(xi @ xi - 1.0) > s_gap:
            pts.append(xi)
    return np.array(pts)


def _shape_evaluators(n):
    """Every frequency-side evaluator of points (..., n) in dimension n,
    each with the leading shape it adds to the points' (...)."""
    v = Shifted(base=Gaussian(dimension=n, scale=0.8), center=(0.3,) * n)
    sol = SpectralSolution(u0=v, u1=Box(dimension=n, half_width=0.9))
    return {
        "fourier_transform": (v.fourier_transform, ()),
        "values": (v.values, ()),
        "evaluate": (lambda xi: sol.evaluate(1.5, xi), ()),
        "evaluate-times": (lambda xi: sol.evaluate(np.array([0.5, 2.0]), xi),
                           (2,)),
        "symbol": (LowFrequencySymbol(v), ()),
        "polynomial": (build_expansion("A", 2, moment_table(v, 2)), ()),
    }


@pytest.mark.parametrize("name", ["fourier_transform", "values", "evaluate",
                                  "evaluate-times", "symbol", "polynomial"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_points_map_to_values_of_their_leading_shape(n, name):
    # points (..., n) give values (...); a bare scalar is a point of the line
    f, lead = _shape_evaluators(n)[name]
    rng = np.random.default_rng(n)
    batches = [(np.full(n, 0.3), ()), (rng.uniform(-0.5, 0.5, (4, n)), (4,)),
               (rng.uniform(-0.5, 0.5, (2, 3, n)), (2, 3))]
    for xi, shape in batches:
        assert np.shape(f(xi)) == lead + shape
    if n == 1:
        assert np.shape(f(0.3)) == lead
        np.testing.assert_array_equal(f(0.3), f(np.array([0.3])))
    for bad in [np.zeros(n + 1), np.zeros((4, n + 1))] + [0.3] * (n > 1):
        with pytest.raises(ValueError, match="trailing dimension"):
            f(bad)


class TestRepresentations:
    def test_zero_data_is_zero(self):
        sol = SpectralSolution(u0=zero_datum(2), u1=zero_datum(2))
        pts = np.array([[0.1, 0.2], [1.0, 0.0], [2.5, -1.0]])
        assert np.all(sol.evaluate(3.0, pts) == 0)
        off_sphere = np.array([[0.1, 0.2], [2.5, -1.0]])
        for rep in REPRESENTATIONS:
            assert np.all(sol.evaluate(3.0, off_sphere, rep=rep) == 0)
        assert np.all(sol.evaluate(3.0, pts, rep="2.4") == 0)

    def test_time_zero_recovers_first_datum(self, sol_1d, pair_1d):
        pts = np.linspace(-2.2, 2.2, 41)[:, None]
        vals = sol_1d.evaluate(0.0, pts)
        expected = pair_1d[0].fourier_transform(pts)
        assert np.max(np.abs(vals - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_unit_sphere_closed_form(self, sol_1d, pair_1d):
        # on |xi| = 1 the regular form collapses to e^{-t}(f0 + t(f0+f1))
        t = 2.5
        xi = np.array([1.0])
        f0 = complex(pair_1d[0].fourier_transform(xi[None, :])[0])
        f1 = complex(pair_1d[1].fourier_transform(xi[None, :])[0])
        expected = math.exp(-t) * f0 + t * math.exp(-t) * (f0 + f1)
        assert complex(sol_1d.evaluate(t, xi)) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equivalence_of_all_four_forms(self, n, rng):
        u0 = Gaussian(dimension=n, scale=1.0)
        u1 = Gaussian(dimension=n, scale=0.6, amplitude=0.7)
        sol = SpectralSolution(u0=u0, u1=u1)
        worst = 0.0
        for _ in range(350):
            t = float(rng.uniform(0.0, 50.0))
            xi = _safe_sample(rng, n, 1)[0]
            vals = [complex(sol.evaluate(t, xi, rep=r)) for r in REPRESENTATIONS]
            scale = max(abs(v) for v in vals)
            if scale == 0.0:
                continue
            worst = max(worst,
                        max(abs(a - b) for a in vals for b in vals) / scale)
        assert worst <= 1e-12

    def test_forced_split_form_errors_on_the_sphere(self, sol_1d):
        for rep in ("2.1", "2.2", "2.3"):
            with pytest.raises(SingularEvaluationError):
                sol_1d.evaluate(1.0, np.array([1.0]), rep=rep)

    def test_regular_form_valid_everywhere(self, sol_1d):
        radii = np.array([0.2, 0.999, 1.0, 1.001, 3.0])
        vals = sol_1d.evaluate(1.0, radii[:, None], rep="2.4")
        assert np.all(np.isfinite(vals))

    def test_negative_time_rejected(self, sol_1d):
        with pytest.raises(ValueError):
            sol_1d.evaluate(-1.0, np.array([0.5]))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(t=st.floats(0.0, 50.0), radius=st.floats(0.0, 2.0), angle=st.floats(0.0, 2 * math.pi))
def test_representations_agree_for_arbitrary_points(t, radius, angle):
    if abs(radius * radius - 1.0) <= 0.05:
        radius = 1.5  # keep clear of the split-form guard band
    sol = SpectralSolution(u0=Gaussian(dimension=2, scale=1.0),
                           u1=Gaussian(dimension=2, scale=0.6, amplitude=0.7))
    xi = np.array([radius * math.cos(angle), radius * math.sin(angle)])
    vals = [complex(sol.evaluate(t, xi, rep=r)) for r in REPRESENTATIONS]
    scale = max(abs(v) for v in vals)
    if scale > 0:
        assert max(abs(a - b) for a in vals for b in vals) <= 1e-12 * scale


class TestBand:
    def test_continuity_windows_around_critical_radii(self, sol_1d):
        for t in (0.5, 1.0, 2.0, 5.0, 50.0):
            for center in (1.0 - 1e-3, 1.0, 1.0 + 1e-3):
                radii = np.linspace(center - 5e-7, center + 5e-7, 1001)
                vals = sol_1d.evaluate(t, radii[:, None])
                assert float(np.max(np.abs(np.diff(vals)))) <= 1e-8

    def test_band_lipschitz_bound(self, sol_1d):
        radii = np.linspace(1 - 1.5e-3, 1 + 1.5e-3, 20001)
        vals = sol_1d.evaluate(1.0, radii[:, None])
        spacing = radii[1] - radii[0]
        lipschitz = float(np.max(np.abs(np.diff(vals)))) / spacing
        assert lipschitz < 50.0

    def test_stable_difference_matches_direct_quotient(self):
        # away from s = 1 the factorization and the plain quotient agree
        for t in (0.5, 3.0, 20.0):
            s = np.array([0.2, 0.8, 1.2, 4.0])
            direct = (np.exp(-t * s) - math.exp(-t)) / (1.0 - s)
            assert np.allclose(stable_heat_difference(t, s), direct, rtol=1e-13)

    def test_stable_difference_at_the_sphere(self):
        for t in (0.0, 1.0, 7.5):
            assert stable_heat_difference(t, np.array([1.0]))[0] == \
                pytest.approx(t * math.exp(-t), rel=1e-15)

    def test_band_value_is_the_split_form_limit(self, sol_1d):
        # the regular evaluator on the sphere continues the grouped split
        # form: approaching radii give first-order-close values
        for t in (0.5, 2.0, 10.0):
            on_sphere = complex(sol_1d.evaluate(t, np.array([1.0])))
            for h in (1e-6, 1e-7):
                for r in (1.0 - h, 1.0 + h):
                    near = complex(sol_1d.evaluate(t, np.array([r]),
                                                   rep="2.2"))
                    assert abs(near - on_sphere) <= 50.0 * h


class TestDynamics:
    def test_ode_residual_small(self, rng):
        # finite-difference check of w'' + (1+s) w' + s w = 0 using the
        # uniformly stable regular representation for the stencil
        h = 1e-4
        for n in (1, 2, 3):
            u0 = Gaussian(dimension=n, scale=1.0)
            u1 = Gaussian(dimension=n, scale=0.6, amplitude=0.7)
            sol = SpectralSolution(u0=u0, u1=u1)
            for _ in range(100):
                t = float(rng.uniform(h, 8.0))
                xi = rng.uniform(-2 / math.sqrt(n), 2 / math.sqrt(n), size=n)
                s = float(xi @ xi)
                um, u, up = (complex(sol.evaluate(t + dt, xi, rep="2.4"))
                             for dt in (-h, 0.0, h))
                utt = (up - 2 * u + um) / h**2
                ut = (up - um) / (2 * h)
                resid = utt + (1 + s) * ut + s * u
                scale = max(abs(utt), (1 + s) * abs(ut), s * abs(u), abs(u))
                assert abs(resid) <= 1e-6 * scale

    def test_initial_conditions(self, sol_1d, pair_1d, rng):
        h = 1e-4
        for _ in range(50):
            xi = rng.uniform(-2, 2, size=1)
            f0 = complex(pair_1d[0].fourier_transform(xi[None, :])[0])
            f1 = complex(pair_1d[1].fourier_transform(xi[None, :])[0])
            val0 = complex(sol_1d.evaluate(0.0, xi))
            slope = (-3 * val0 + 4 * complex(sol_1d.evaluate(h, xi))
                     - complex(sol_1d.evaluate(2 * h, xi))) / (2 * h)
            assert val0 == pytest.approx(f0, rel=1e-6, abs=1e-9)
            assert slope == pytest.approx(f1, rel=1e-6, abs=1e-6)


class TestSymbol:
    def test_value_at_zero_is_the_mass(self, pair_1d):
        v = add_data(*pair_1d)
        sym = LowFrequencySymbol(v)
        assert complex(sym(np.zeros(1))) == pytest.approx(
            moment_table(v, 0).raw((0,)), rel=1e-14)

    def test_kernel_value_at_half(self):
        sym = LowFrequencySymbol(gauss_kernel(1, 1.0))
        expected = math.exp(-0.25) / 0.75
        assert complex(sym(np.array([0.5]))) == pytest.approx(expected, rel=1e-14)

    def test_rejects_the_unit_sphere(self, pair_1d):
        sym = LowFrequencySymbol(add_data(*pair_1d))
        with pytest.raises(SingularEvaluationError) as err:
            sym(np.array([1.0]))
        assert err.value.radius == pytest.approx(1.0)


class TestHeatFlow:
    def test_kernel_composition(self):
        # e^{-|xi|^2} times the transform of the time-1 kernel is the
        # time-2 kernel's transform
        xi = np.array([1.0, 0.0])
        val = complex(math.exp(-1.0) * gauss_kernel(2, 1.0).fourier_transform(xi))
        assert val == pytest.approx(math.exp(-2.0), rel=1e-13)
        assert val == pytest.approx(
            complex(gauss_kernel(2, 2.0).fourier_transform(xi)), rel=1e-13)


_LINE = np.array([[1.0], [-1.0]])


class TestResidual:
    def test_zero_data_residual_vanishes(self):
        sol = SpectralSolution(u0=zero_datum(1), u1=zero_datum(1))
        table = moment_table(sol.v, 0)
        poly = build_expansion("A", 0, table)
        radii = np.linspace(0.0, 2.0, 5)
        assert np.all(sol.residual_shells((3.0,), Shells(radii, _LINE), poly) == 0)

    def test_time_zero_residual_at_origin_is_minus_second_mass(self):
        u0 = Gaussian(dimension=1, scale=1.0)
        u1 = Gaussian(dimension=1, scale=0.5, amplitude=0.3)
        sol = SpectralSolution(u0=u0, u1=u1)
        poly = build_expansion("A", 0, moment_table(sol.v, 0))
        val = complex(sol.residual_shells(
            (0.0,), Shells(np.zeros(1), _LINE), poly)[0, 0, 0])
        assert val == pytest.approx(-moment_table(u1, 0).raw((0,)), rel=1e-12)

    def test_against_high_precision_rederivation(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        sqrtpi = mp.sqrt(mp.pi)
        t, xi = mp.mpf(10), mp.mpf("0.1")
        s = xi**2
        f0 = 2 * sqrtpi * mp.e**(-s)
        u_hat = (mp.e**(-t * s) * f0 - mp.e**(-t) * (s * f0)) / (1 - s)
        profile = 2 * sqrtpi          # all gaussian increments above 0 vanish
        expected = complex(u_hat - profile * mp.e**(-t * s))

        u0 = Gaussian(dimension=1, scale=1.0)
        sol = SpectralSolution(u0=u0, u1=zero_datum(1))
        poly = build_expansion("A", 2, moment_table(sol.v, 2))
        got = sol.residual_shells(
            (10.0,), Shells(np.array([0.1]), _LINE), poly)[0, 0]
        assert complex(got[0]) == pytest.approx(expected, rel=1e-12)
        assert got[1] == got[0]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_shell_route_matches_the_pointwise_oracle(self, n):
        # the shells take the 2.4 multipliers and the heat weight once per
        # (t, r); the oracle takes evaluate's regular form and |xi|^2 per
        # point.  Radii straddle the unit sphere and the radii 1 +- 1e-3
        # on either side of it
        u0 = Shifted(base=Gaussian(dimension=n, scale=1.0),
                     center=(0.5, -0.3, 0.2)[:n], dilation=1.0)
        sol = SpectralSolution(u0=u0, u1=Box(dimension=n, half_width=0.8))
        dirs = {1: _LINE, 2: circle_nodes(16)[0], 3: sphere_nodes(6, 12)[0]}[n]
        radii = np.array([p * f for p in (0.5, 1.0 - 1e-3, 1.0, 1.0 + 1e-3, 2.0)
                          for f in (1.0 - 1e-9, 1.0 + 1e-9)])
        ts = np.array([1.0, 1e2, 1e4])
        pts = (radii[:, None, None] * dirs).reshape(-1, n)
        s = np.sum(pts * pts, axis=-1)
        for k in (0, 1, 2):
            poly = build_expansion("A", k, moment_table(sol.v, k))
            got = sol.residual_shells(ts, Shells(radii, dirs), poly).reshape(
                len(ts), -1)
            ref = residual_curve(sol, ts, pts, poly)
            scale = (np.abs(sol.evaluate(ts, pts))
                     + np.abs(poly(pts) * np.exp(-np.multiply.outer(ts, s))))
            assert np.all(np.abs(got - ref) <= 2e-13 * scale)
            assert np.any(got != 0)
