"""Region norms: quadrature engine vs closed forms, residual decay."""

import math

import numpy as np
import pytest
from scipy.special import erf

from dampex import (Box, FrequencyRegion, Gaussian, GaussianMonomial,
                    MomentTable, Shifted, SpectralSolution, SumDatum, add_data,
                    build_expansion, gaussian_monomial_integral,
                    heat_increment_norm, moment_table, poly_gaussian_l2_norm,
                    region_l2_norm, residual_norm, zero_datum)
from dampex import QuadratureError, norms, quadrature
from dampex.indices import indices_of_degree
from dampex.norms import (norm_curve, regularised_lower_gamma,
                          residual_norm_curve)
from dampex.quadrature import (BATCH_POINTS, TRUNCATION_CAP, QuadResult,
                               adaptive_1d, angular_sums, choose_angular_rule,
                               circle_nodes, integrate_radial,
                               radial_breakpoints, sphere_nodes,
                               truncation_radius)
from dampex.spectral import Shells

from conftest import catalog_1d, catalog_2d, catalog_3d
from oracles import (FULL_LINE_RULE, full_angular_rule, full_probe_directions,
                     heat_increment_moment_sum, heat_partial_sum,
                     increment_lower_constant,
                     increment_lower_constant_1d, lower_bound_constants,
                     radial_factor_1d, symbol_gap_sup_ratio,
                     taylor_remainder_sup_ratio, truncation_radius_per_bundle,
                     use_full_rules)

SQRT_PI = math.sqrt(math.pi)


def _weighted(poly):
    return lambda pts: poly(pts) * np.exp(-np.sum(pts * pts, axis=-1))


def _shell_field(point_field):
    """A field on points of shape (..., n) as a one-row field on shells."""
    return lambda radii, dirs: point_field(radii[:, None, None] * dirs)[None]


class TestRegionEngine:
    def test_zero_integrand(self):
        f = lambda pts: np.zeros(pts.shape[0], dtype=complex)
        res = region_l2_norm(f, FrequencyRegion.ball(0.5, 1))
        assert res.value == 0.0

    def test_full_space_gaussian_1d(self):
        f = lambda pts: np.exp(-np.sum(pts * pts, axis=-1)) + 0j
        res = region_l2_norm(f, FrequencyRegion.full(1), 1e-11)
        assert res.value == pytest.approx((math.pi / 2.0) ** 0.25, rel=1e-11)
        assert res.evaluations > 0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_full_space_gaussian_nd(self, n):
        f = lambda pts: np.exp(-np.sum(pts * pts, axis=-1)) + 0j
        res = region_l2_norm(f, FrequencyRegion.full(n), 1e-10)
        assert res.value == pytest.approx((math.pi / 2.0) ** (n / 4.0), rel=1e-9)

    def test_regions_partition_the_line(self):
        f = lambda pts: np.exp(-np.sum(pts * pts, axis=-1)) + 0j
        ball = region_l2_norm(f, FrequencyRegion.ball(0.5, 1), 1e-11).value
        ann = region_l2_norm(f, FrequencyRegion.annulus(0.5, 2.0, 1), 1e-11).value
        ext = region_l2_norm(f, FrequencyRegion.exterior(2.0, 1), 1e-11).value
        full = region_l2_norm(f, FrequencyRegion.full(1), 1e-11).value
        assert math.sqrt(ball**2 + ann**2 + ext**2) == pytest.approx(full, rel=1e-10)

    def test_ball_of_zero_order_increment(self, gaussian_1d):
        table = moment_table(gaussian_1d, 0)
        b0 = build_expansion("B", 0, table)
        got = region_l2_norm(_weighted(b0), FrequencyRegion.ball(0.5, 1), 1e-11)
        expected = table.moment((0,)) * math.sqrt(
            math.sqrt(math.pi / 2.0) * erf(math.sqrt(0.5)))
        assert got.value == pytest.approx(expected, rel=1e-10)

    def test_narrow_peak_is_not_missed(self):
        # heat-type concentration at scale 1/sqrt(t) far below the region size
        t = 1e4
        f = lambda pts: np.exp(-t * np.sum(pts * pts, axis=-1)) + 0j
        res = region_l2_norm(f, FrequencyRegion.ball(2.0, 1), 1e-10, t=t)
        expected = (math.pi / (2 * t)) ** 0.25
        assert res.value == pytest.approx(expected, rel=1e-9)

    def test_region_validation(self):
        with pytest.raises(ValueError):
            FrequencyRegion.annulus(2.0, 1.0, 1)
        with pytest.raises(ValueError):
            FrequencyRegion.ball(1.0, 4)

    def test_nan_radii_are_rejected(self):
        # every comparison with NaN is False, so without the check ball(nan)
        # passed as the full space and annulus(r, nan) as an exterior
        for make in (lambda: FrequencyRegion.ball(math.nan, 2),
                     lambda: FrequencyRegion.exterior(math.nan, 2),
                     lambda: FrequencyRegion.annulus(0.1, math.nan, 2),
                     lambda: FrequencyRegion.annulus(math.nan, 1.0, 2)):
            with pytest.raises(ValueError, match="NaN"):
                make()

    def test_cross_terms_vanish_by_quadrature(self):
        fld = lambda pts: pts[..., 0] * pts[..., 1] * np.exp(-2 * np.sum(pts * pts, axis=-1))
        res = integrate_radial(_shell_field(fld), 2, 0.0, 0.5, 1e-12, rows=1,
                               abs_floor=1e-15)
        assert abs(res.value[0]) <= 1e-14

    def test_truncation_estimate_covers_oscillatory_tails(self):
        # a box transform decays like 1/|xi|, so the exterior tail is only
        # polynomially small; the reported estimate must cover what the
        # truncation discards
        import warnings
        from scipy import integrate as si
        sol = SpectralSolution(u0=Box(dimension=1, half_width=1.0),
                               u1=zero_datum(1))
        t = 1.0

        def one_sided(x):
            return 2.0 * abs(complex(sol.evaluate(t, np.array([[x]]))[0]))**2

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ref, _ = si.quad(one_sided, 2.0, np.inf, epsabs=1e-14,
                             epsrel=1e-12, limit=400)
        ref = math.sqrt(ref)
        res = region_l2_norm(lambda pts: sol.evaluate(t, pts),
                             FrequencyRegion.exterior(2.0, 1), 1e-9)
        assert abs(res.value - ref) <= res.error_estimate


def _shifted_gaussian(n):
    return Shifted(base=Gaussian(dimension=n, scale=1.0),
                   center=(0.5, -0.3, 0.2)[:n], dilation=1.0)


def _heat_weighted(poly, ts):
    def f(shells):
        heat = np.exp(-np.multiply.outer(ts, shells.radii * shells.radii))
        return heat[..., None] * poly(shells.pts)
    return f


class TestPanelEngine:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_increment_curve_follows_homogeneity(self, n, k):
        # B_k is homogeneous of degree k, so substituting xi = eta/sqrt(t)
        # gives ||B_k e^{-t|xi|^2}|| = t^{-n/4-k/2} ||B_k e^{-|eta|^2}||
        poly = build_expansion("B", k, moment_table(_shifted_gaussian(n), k))
        exact = poly_gaussian_l2_norm(poly)
        assert exact > 0
        ts = np.geomspace(1.0, 1e4, 9)
        curve = norm_curve(_heat_weighted(poly, ts), FrequencyRegion.full(n),
                           ts, 1e-11)
        assert curve.value.shape == (len(ts),)
        for value, t in zip(curve.value, ts):
            assert value == pytest.approx(t ** (-n / 4 - k / 2) * exact,
                                          rel=1e-9, abs=0)

    def test_value_floor_holds_a_tiny_norm_to_its_closed_form(self, monkeypatch):
        # |f|^2 = a^2 (e^{-2 r^2/w^2} + e^{-2 (r-p)^2/s^2}) on the ball
        # [-1, 1], with a set so that ||f|| = 1e-11: a smooth part plus a
        # bump between the nodes of the first panel round on [0, 1], which
        # only a bisection finds
        assert norms.VALUE_FLOOR == 1e-14
        w, p, s = 0.2, 0.5372, 0.006
        c = math.sqrt(math.pi / 2)
        unit = (w * c * erf(math.sqrt(2) / w)
                + s * c * (erf(math.sqrt(2) * (1 - p) / s)
                           + erf(math.sqrt(2) * p / s)))
        amp, exact = 1e-11 / math.sqrt(unit), 1e-11

        def field(shells):
            r = np.broadcast_to(shells.radii[:, None], shells.pts.shape[:-1])
            vals = amp * (np.exp(-(r / w) ** 2) + 1j * np.exp(-((r - p) / s) ** 2))
            return vals[None]

        region = FrequencyRegion.ball(1.0, 1)
        nrm = norm_curve(field, region, [1.0])
        assert abs(nrm.value[0] / exact - 1) < 1e-6
        # a floor at 1e-13 accepts the first round, which misses the bump
        monkeypatch.setattr(norms, "VALUE_FLOOR", 1e-13)
        first = norm_curve(field, region, [1.0])
        assert first.evaluations == 21 < nrm.evaluations
        assert abs(first.value[0] / exact - 1) > 0.01

    def test_curve_batches_its_integrand_calls(self):
        # in 1-D a refinement round stays far below the batch cap, so the
        # call count shows the batching over t alone; in 2-D/3-D the cap
        # splits rounds by design, in proportion to the number of times
        n = 1
        v = _shifted_gaussian(n)
        partial = heat_partial_sum(moment_table(v, 1), 1)
        calls = []

        def gap(ts):
            def rows(shells):
                pts, radii = shells.pts, shells.radii
                calls.append(pts.shape[0] * pts.shape[1])
                heat = np.exp(-np.multiply.outer(ts, radii * radii))
                return heat[..., None] * (v.fourier_transform(pts) - partial(pts))
            return rows

        ts = np.geomspace(1.0, 1e4, 17)
        region = FrequencyRegion.full(n)
        curve = norm_curve(gap(ts), region, ts, 1e-9)
        curve_calls = len(calls)
        calls.clear()
        first = norm_curve(gap(ts[:1]), region, ts[:1], 1e-9)
        assert curve_calls <= 3 * len(calls)
        assert curve.value[0] == pytest.approx(first.value[0], rel=1e-9)

    def test_a_curve_is_one_record_of_per_time_arrays(self):
        # one QuadResult for all times: (T,) norms and estimates, the
        # points of the whole curve counted once, a zero row reported as
        # zero; a norm at one time is that record's row 0 as floats
        poly = build_expansion("B", 1, moment_table(_shifted_gaussian(2), 1))
        ts = np.array([0.0, 1.0, 10.0])
        heat = _heat_weighted(poly, ts)

        def field(shells):
            return np.minimum(ts, 1.0)[:, None, None] * heat(shells)

        region = FrequencyRegion.full(2)
        curve = norm_curve(field, region, ts, 1e-10)
        assert type(curve) is QuadResult
        assert curve.value.shape == curve.error_estimate.shape == (len(ts),)
        assert type(curve.evaluations) is int and curve.evaluations > 0
        assert not curve.stalled
        assert curve.value[0] == curve.error_estimate[0] == 0.0
        assert np.all(curve.value[1:] > 0)
        assert np.all(np.isfinite(curve.error_estimate))
        sol = SpectralSolution(u0=_shifted_gaussian(2), u1=zero_datum(2))
        poly = build_expansion("A", 0, moment_table(sol.v, 0))
        curve = residual_norm_curve(sol, ts[1:], poly)
        assert curve.value.shape == curve.error_estimate.shape == (2,)
        one, single = residual_norm(sol, ts[1], 1), residual_norm_curve(
            sol, ts[1:2], poly)
        assert type(one.value) is float and type(one.error_estimate) is float
        assert one == QuadResult(float(single.value[0]),
                                 float(single.error_estimate[0]),
                                 single.evaluations, single.stalled)

    def test_every_integrand_is_rows(self):
        # a 1-D integrand is one row: (1,) arrays, as (T, m) values give (T,)
        one = adaptive_1d(lambda x: np.exp(-x * x), -8.0, 8.0, 1e-12)
        assert one.value.shape == one.error_estimate.shape == (1,)
        assert one.value[0] == pytest.approx(SQRT_PI, rel=1e-12)
        rows = adaptive_1d(lambda x: np.stack([np.exp(-x * x), x * x]),
                           -8.0, 8.0, 1e-12)
        assert rows.value.shape == rows.error_estimate.shape == (2,)
        assert rows.value[0] == one.value[0]
        radial = integrate_radial(
            _shell_field(lambda pts: np.exp(-np.sum(pts * pts, axis=-1))),
            3, 0.0, 8.0, 1e-10, rows=1)
        assert radial.value.shape == radial.error_estimate.shape == (1,)

    def test_field_calls_stay_under_the_batch_cap(self):
        # 17 times on the full finest sphere rule: one shell alone is
        # 1152 x 17 values, more than the cap, so its directions go out in
        # slices
        ts = np.geomspace(1.0, 1e4, 17)
        sizes = []

        def field(radii, dirs):
            sizes.append(len(radii) * len(dirs))
            pts = radii[:, None, None] * dirs
            return np.exp(-np.multiply.outer(ts, np.sum(pts * pts, axis=-1)))

        dirs, weights = sphere_nodes(24, 48)
        radii = np.array([0.01, 0.1, 0.5])
        expected = np.exp(-np.multiply.outer(ts, radii ** 2)) * weights.sum()
        sums = angular_sums(field, radii, dirs, weights, len(ts))
        assert max(sizes) * len(ts) <= BATCH_POINTS
        assert sum(sizes) == len(radii) * len(dirs)
        np.testing.assert_allclose(sums, expected, rtol=1e-13)

    @pytest.mark.parametrize("n", [1, 2])
    def test_residual_curve_matches_single_times(self, n):
        sol = SpectralSolution(u0=_shifted_gaussian(n),
                               u1=Box(dimension=n, half_width=0.8))
        poly = build_expansion("A", 0, moment_table(sol.v, 0))
        ts = np.geomspace(1.0, 1e3, 5)
        radii = np.random.default_rng(3).uniform(0.0, 2.0, 100)
        dirs = np.array([[1.0], [-1.0]]) if n == 1 else circle_nodes(16)[0]
        rows = sol.residual_shells(ts, Shells(radii, dirs), poly)
        for row, t in zip(rows, ts):
            assert np.array_equal(
                row, sol.residual_shells((t,), Shells(radii, dirs), poly)[0])
        curve = residual_norm_curve(sol, ts, poly)
        for value, t in zip(curve.value, ts):
            assert value == pytest.approx(residual_norm(sol, t, 1).value,
                                          rel=1e-9)

    def test_evaluations_count_the_abscissae_received(self):
        received = []

        def rows(x):
            received.append(len(x))
            return np.stack([np.exp(-x * x), np.exp(-100.0 * x * x), np.abs(x)])

        for f, brk in ((lambda x: rows(x)[0], ()), (rows, (0.0,)),
                       (lambda x: rows(x)[2], (0.3,))):
            received.clear()
            res = adaptive_1d(f, -5.0, 5.0, 1e-12, breakpoints=brk)
            assert res.evaluations == sum(received)
        assert res.value == pytest.approx(25.0, rel=1e-12)

    def test_accepted_stall_is_flagged(self):
        # a ripple of amplitude delta that no panel of the budget resolves:
        # on a flat integrand each panel's estimate is its mean deviation,
        # so the total floors at about 0.6 delta, between tol and 100 tol
        tol, delta = 1e-10, 2e-9
        res = adaptive_1d(lambda x: 1.0 + delta * np.sin(1e5 * x), 0.0, 1.0, tol)
        assert res.stalled
        assert tol < res.error_estimate < 100.0 * tol
        assert res.value == pytest.approx(1.0, rel=1e-10)
        smooth = adaptive_1d(lambda x: np.exp(-2.0 * x * x), -5.0, 5.0, tol)
        assert not smooth.stalled
        gaussian = lambda pts: np.exp(-2.0 * np.sum(pts * pts, axis=-1))
        radial = integrate_radial(_shell_field(gaussian), 2, 0.0, 8.0, tol, rows=1)
        assert not radial.stalled
        assert radial.value == pytest.approx(math.pi / 2.0, rel=1e-9)

    def test_a_non_finite_integrand_is_named(self):
        # nothing stalls when the integrand itself is NaN or infinite
        for bad in (np.nan, np.inf):
            with np.errstate(invalid="ignore"), pytest.raises(
                    QuadratureError,
                    match=r"^1-D quadrature: the integrand is not finite on "
                          r"\[0\.0, 2\.0\]$"):
                adaptive_1d(lambda x: np.where(x > 1.5, bad, x), 0.0, 2.0,
                            1e-10)

    def test_region_norms_carry_the_stall_flag(self):
        # the norm is the panel engine's own record, stall flag included
        ripple = region_l2_norm(lambda p: 1.0 + 1e-9 * np.cos(1e5 * p[..., 0]),
                                FrequencyRegion.ball(1.0, 1), tol=1e-10)
        assert ripple.stalled
        assert ripple.value == pytest.approx(math.sqrt(2.0), rel=1e-9)
        gaussian = region_l2_norm(lambda p: np.exp(-np.sum(p * p, axis=-1)),
                                  FrequencyRegion.ball(1.0, 2))
        assert not gaussian.stalled
        # integral over the unit disc of e^{-2 r^2}: pi (1 - e^{-2}) / 2
        assert gaussian.value == pytest.approx(
            math.sqrt(math.pi * (1.0 - math.exp(-2.0)) / 2.0), rel=1e-9)


def _pinned_pair(n):
    u1 = (Box(dimension=2, half_width=0.8) if n == 2
          else Gaussian(dimension=3, scale=0.5, amplitude=0.7))
    return SpectralSolution(u0=_shifted_gaussian(n), u1=u1)


def _heat_region(kind, n, t):
    w = 1.0 / math.sqrt(t)
    return {"full": lambda: FrequencyRegion.full(n),
            "ball": lambda: FrequencyRegion.ball(2.0 * w, n),
            "annulus": lambda: FrequencyRegion.annulus(0.5 * w, 3.0 * w, n),
            "ext": lambda: FrequencyRegion.exterior(w, n)}[kind]()


def _count_rule_builds(monkeypatch):
    """Empty the rule caches and record every circle/sphere rule built."""
    built = []
    for name in ("circle_nodes", "sphere_nodes"):
        real = getattr(quadrature, name)
        monkeypatch.setattr(quadrature, name,
                            lambda *size, real=real: built.append(size) or real(*size))
    quadrature._angular_rule.cache_clear()
    quadrature._probe_directions.cache_clear()
    return built


class TestAngularRuleReuse:
    # (n, region, k, t, norm, evaluations) as computed when the residual was
    # evaluated point by point through evaluate's former default, which
    # switched between the split forms and the regular one; reusing the
    # rules and passing the row count down changed no bit of these.  The
    # counts are the points the panel rounds sample, one direction of each
    # antipodal pair: half those of the full rules
    PINNED = [
        (2, "full", 0, 10.0, 6.056485491628974, 1680),
        (2, "ball", 1, 30.0, 0.15305760852371306, 336),
        (2, "annulus", 2, 100.0, 0.0013637565261636643, 504),
        (2, "ext", 0, 50.0, 0.9910031172133901, 672),
        (2, "full", 1, 300.0, 0.015305885760095212, 672),
        (2, "ext", 2, 10.0, 0.08014523477348881, 1848),
        (3, "full", 2, 10.0, 0.24863850223397158, 6048),
        (3, "ball", 0, 100.0, 2.466062285515298, 1512),
        (3, "annulus", 1, 30.0, 0.26975842522090554, 3024),
        (3, "ext", 1, 1000.0, 0.0025392765922862, 2268),
        (3, "ball", 2, 20.0, 0.04304450575899152, 1512),
        (3, "annulus", 0, 1000.0, 0.39251886092442867, 2268),
    ]
    # the same norms, bit for bit, from the shell route (radial multipliers
    # once per (t, r)); it moved them by at most 6.4e-15 relative.  The
    # evaluation counts above and the two ext/full k = 2 values here are
    # those without panel breakpoints at the radii 1 - 1e-3, 1 and
    # 1 + 1e-3, where the shell route changes no form; dropping them
    # moved the two values by 1.7e-16 and 2.2e-16 relative.  Taking the
    # shifted transform as a real product times one phase e^{-i c.xi} moved
    # six of them by at most 7.5e-15 relative (2-D annulus k = 2).  Taking
    # u_hat from the regular form's own grouping e^{-t} u0_hat + K (u0_hat +
    # u1_hat) moved five by at most 4.9e-15 relative (2-D annulus k = 2).
    # Sampling one direction of each antipodal pair at twice its weight
    # moved four by at most 1.0e-15 relative (2-D annulus k = 2); the full
    # rules still give the values before that, bit for bit.  One doubling
    # heat ladder in place of a ratio-10 one moved five by at most 4.7e-14
    # relative (2-D ext k = 2) and the counts above.  Stopping an unbounded
    # norm at the first ladder edge past its integrand moved one by 1.1e-16
    # relative (2-D full k = 1) and cut three counts
    SHELL_VALUES = {
        (2, "full", 0, 10.0): 6.056485491628974,
        (2, "ball", 1, 30.0): 0.15305760852371306,
        (2, "annulus", 2, 100.0): 0.0013637565261636648,
        (2, "ext", 0, 50.0): 0.9910031172133896,
        (2, "full", 1, 300.0): 0.015305885760095209,
        (2, "ext", 2, 10.0): 0.08014523477349256,
        (3, "full", 2, 10.0): 0.24863850223397152,
        (3, "ball", 0, 100.0): 2.4660622855152976,
        (3, "annulus", 1, 30.0): 0.2697584252209055,
        (3, "ext", 1, 1000.0): 0.0025392765922861997,
        (3, "ball", 2, 20.0): 0.04304450575899171,
        (3, "annulus", 0, 1000.0): 0.39251886092442867,
    }

    @pytest.mark.parametrize("n, kind, k, t, pointwise, evaluations", PINNED)
    def test_residual_norms_are_pinned(self, n, kind, k, t, pointwise,
                                       evaluations, quadratures):
        res = residual_norm(_pinned_pair(n), t, k, _heat_region(kind, n, t))
        assert res.value == self.SHELL_VALUES[(n, kind, k, t)]
        assert res.value == pytest.approx(pointwise, rel=1e-12, abs=0.0)
        assert res.evaluations == evaluations
        # the doubling heat ladder's initial panels converge at once; a
        # ratio-10 ladder took 21 rounds over these twelve requests
        assert [rounds for rounds, _ in quadratures] == [1]

    def test_each_sphere_level_is_built_once(self, monkeypatch):
        built = _count_rule_builds(monkeypatch)
        sol = _pinned_pair(3)
        first = residual_norm(sol, 10.0, 2)
        second = residual_norm(sol, 30.0, 1, _heat_region("annulus", 3, 30.0))
        assert first.value > 0 and second.value > 0
        assert built and len(built) == len(set(built))

    @pytest.mark.parametrize("n, expected", [(2, [(16,), (32,)]),
                                             (3, [(6, 12), (8, 16)])])
    def test_coarsest_choice_builds_two_levels(self, monkeypatch, n, expected):
        # a radial field has the same shell integral under every rule, so
        # the first comparison stops the choice at level 0
        built = _count_rule_builds(monkeypatch)
        field = _shell_field(lambda pts: np.exp(-np.sum(pts * pts, axis=-1)))
        dirs, weights, _ = choose_angular_rule(field, n, [0.5, 1.0], 1e-10, rows=1)
        assert built == expected
        assert len(weights) == {2: 8, 3: 36}[n]
        assert not dirs.flags.writeable and not weights.flags.writeable

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("times", [1, 5])
    def test_norm_curve_never_probes_a_single_point(self, n, times):
        sizes = []
        sol = _pinned_pair(n)
        poly = build_expansion("A", 0, moment_table(sol.v, 0))

        ts = np.geomspace(10.0, 1e3, times)

        def residual(shells):
            sizes.append(shells.pts.shape[0] * shells.pts.shape[1])
            return sol.residual_shells(ts, shells, poly)

        for region in (FrequencyRegion.full(n), FrequencyRegion.ball(0.5, n)):
            sizes.clear()
            norm_curve(residual, region, ts)
            assert sizes and min(sizes) > 1


class TestHeatLadder:
    """One panel ladder per norm: from the narrowest heat width, doubling."""

    @staticmethod
    def _breakpoints(monkeypatch):
        """(lo, hi, breakpoints) of every radial integral a norm makes."""
        seen = []
        real = norms.integrate_radial

        def spy(field, n, lo, hi, tol, **kwargs):
            seen.append((lo, hi, tuple(kwargs["extra_breakpoints"])))
            return real(field, n, lo, hi, tol, **kwargs)

        monkeypatch.setattr(norms, "integrate_radial", spy)
        return seen

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("ts", [(2.0, 30.0, 700.0), (1e4, 100.0),
                                    (0.25, 0.5)])
    def test_a_curve_has_one_ladder_from_its_largest_time(self, monkeypatch,
                                                          n, ts):
        seen = self._breakpoints(monkeypatch)
        sol = _pinned_pair(2) if n == 2 else SpectralSolution(
            u0=_shifted_gaussian(1), u1=Box(dimension=1, half_width=0.8))
        poly = build_expansion("A", 0, moment_table(sol.v, 0))
        residual_norm_curve(sol, ts, poly)
        [(lo, hi, brk)] = seen
        w = 1.0 / math.sqrt(max(max(ts), 1.0))
        ladder = {w * 2.0 ** j for j in range(64) if lo < w * 2.0 ** j < hi}
        kinks = {p for p in (norms.LOW_RADIUS, norms.HIGH_RADIUS) if lo < p < hi}
        assert ladder and brk == tuple(sorted(ladder | kinks))

    @pytest.mark.parametrize("w", [1.0 / math.sqrt(7.0), 1e-3, 1.0])
    def test_the_ladder_doubles_exactly(self, w):
        ladder = radial_breakpoints(0.0, 100.0, w)
        assert ladder[0] == w and ladder[-1] < 100.0 <= 2.0 * ladder[-1]
        ratios = [b / a for a, b in zip(ladder, ladder[1:])]
        assert ratios == [2.0] * (len(ladder) - 1)

    def test_a_nan_time_gives_only_the_kinks(self, monkeypatch):
        seen = self._breakpoints(monkeypatch)

        def gauss(shells):
            return np.exp(-shells.radii * shells.radii)[None, :, None] \
                * np.ones(shells.pts.shape[1])

        norm_curve(gauss, FrequencyRegion.full(2), (math.nan,),
                   breakpoints=(0.5, 2.0))
        region_l2_norm(lambda pts: np.exp(-np.sum(pts * pts, axis=-1)),
                       FrequencyRegion.full(2))
        assert [brk for _, _, brk in seen] == [(0.5, 2.0), ()]


class TestShellFieldCalls:
    """Norm integrands are sampled shell by shell, in few field calls."""

    @pytest.mark.parametrize("n, coarsest, second", [(2, 16, 32), (3, 72, 128)])
    def test_first_two_rules_share_one_field_call(self, n, coarsest, second):
        # a radial field stops the choice at the coarsest rule; each rule
        # of ``coarsest`` or ``second`` full nodes samples half of them,
        # one direction of each antipodal pair
        calls = []

        def field(radii, dirs):
            calls.append(len(dirs))
            return np.exp(-radii * radii)[None, :, None] * np.ones(len(dirs))

        dirs, weights, _ = choose_angular_rule(field, n, [0.5, 1.0], 1e-10, rows=1)
        assert calls == [(coarsest + second) // 2]
        assert len(weights) == coarsest // 2

    def test_full_space_3d_request_makes_pinned_field_calls(self, monkeypatch):
        calls = []
        real = SpectralSolution.residual_shells

        def counted(self, ts, shells, poly):
            calls.append(shells.pts.shape[0] * shells.pts.shape[1])
            return real(self, ts, shells, poly)

        monkeypatch.setattr(SpectralSolution, "residual_shells", counted)
        res = residual_norm(_pinned_pair(3), 10.0, 2)
        # two truncation calls (the interior shells and the four ladder
        # edges below 4 ride with the first bundle), one rule choice probing
        # every ladder edge, one panel round: points per call; the
        # evaluations are the panel round's
        assert calls == [156, 48, 1000, 6048]
        assert res.evaluations == 6048

    @staticmethod
    def _pair(n):
        return SpectralSolution(u0=_shifted_gaussian(n),
                                u1=Box(dimension=n, half_width=0.8))

    @staticmethod
    def _regions(n):
        return (FrequencyRegion.full(n), FrequencyRegion.ball(0.5, n),
                FrequencyRegion.exterior(2.0, n))

    def test_every_norm_is_one_radial_integral(self, monkeypatch):
        # one engine in every dimension: the line's two points are its
        # angular rule
        calls = []
        real = norms.integrate_radial
        monkeypatch.setattr(norms, "integrate_radial", lambda *args, **kwargs:
                            calls.append(args[1]) or real(*args, **kwargs))
        for n in (1, 2, 3):
            for region in self._regions(n):
                calls.clear()
                assert residual_norm(self._pair(n), 30.0, 1, region).value > 0
                assert calls == [n]

    def test_evaluations_count_the_panel_points(self, monkeypatch):
        # the truncation and rule-choice probes sample the field too, but
        # only the panel rounds' points are evaluations
        received, probing = [], []
        real = SpectralSolution.residual_shells

        def counted(self, ts, shells, poly):
            if not probing:
                received.append(shells.pts.shape[0] * shells.pts.shape[1])
            return real(self, ts, shells, poly)

        def probe(module, name):
            real_probe = getattr(module, name)

            def probed(*args, **kwargs):
                probing.append(name)
                try:
                    return real_probe(*args, **kwargs)
                finally:
                    probing.pop()
            monkeypatch.setattr(module, name, probed)

        monkeypatch.setattr(SpectralSolution, "residual_shells", counted)
        probe(norms, "truncation_radius")
        probe(quadrature, "choose_angular_rule")
        for n in (1, 2, 3):
            for region in self._regions(n):
                received.clear()
                res = residual_norm(self._pair(n), 30.0, 1, region)
                assert res.evaluations == sum(received) > 0


def _probe_field(kind):
    """A nonnegative three-row field on shells and its row count: heat-type
    rows concentrated near the origin, 1/r sinc-type rows that stay above
    the truncation floor up to TRUNCATION_CAP, rows that vanish inside
    |xi| = 4.5, or zero."""
    ts = np.array([0.5, 2.0, 10.0])

    def field(radii, dirs):
        if kind == "heat":
            radial = np.exp(-np.multiply.outer(ts, radii * radii))
        elif kind == "sinc":
            radial = np.abs(np.sin(np.multiply.outer(ts, radii))) / radii
        elif kind == "outer":
            radial = np.multiply.outer(ts, (radii > 4.5) * np.exp(-radii))
        else:
            radial = np.zeros((len(ts), len(radii)))
        return radial[..., None] * (1.0 + 0.5 * dirs[:, 0]) ** 2

    return field, len(ts)


class TestTruncationProbe:
    """The interior shells ride in the first bundle's field call; every
    probed value only enters a max, so the radius and the tail bound are
    those of one call per bundle, bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("kind, start", [
        ("heat", 4.0), ("sinc", 4.0), ("zero", 4.0), ("outer", 4.0),
        ("heat", 600.0), ("sinc", 600.0), ("sinc", TRUNCATION_CAP)])
    def test_matches_one_call_per_bundle(self, n, kind, start):
        field, rows = _probe_field(kind)
        radius, tail = truncation_radius(field, n, start, rows=rows)
        expected = truncation_radius_per_bundle(field, n, start, rows=rows)
        assert radius == expected[0]
        assert tail.tobytes() == expected[1].tobytes()
        if kind in ("zero", "outer"):
            # all interior shells vanish: the probe stops before any bundle
            assert radius == start and not tail.any()
        elif kind == "heat" and start < TRUNCATION_CAP:
            assert start < radius < TRUNCATION_CAP and tail.any()
        else:
            assert radius == TRUNCATION_CAP

    @pytest.mark.parametrize("start", [600.0, 2e9])
    def test_the_radius_is_capped_from_every_start(self, start):
        # from 2e9 every interior probe of a Gaussian reads 0, from 600
        # the first does not; both stop at the cap with no tail, so an
        # exterior probed from there samples nothing
        gauss = _shell_field(lambda pts: np.exp(-np.sum(pts * pts, axis=-1)))
        radius, tail = truncation_radius(gauss, 2, start, rows=1)
        assert radius == TRUNCATION_CAP
        assert tail.tolist() == [0.0]
        expected = truncation_radius_per_bundle(gauss, 2, start, rows=1)
        assert expected[0] == radius and expected[1].tolist() == [0.0]
        region = FrequencyRegion.exterior(start, 2)
        assert region_l2_norm(lambda pts: np.exp(-np.sum(pts * pts, axis=-1)),
                              region) == QuadResult(0.0, 0.0, 0)

    def test_an_exterior_past_the_cap_reports_its_tail_bound(self):
        # 1/(1 + t r^2) is not negligible at the cap: past it the norm is
        # 0 with the square root of the tail bound as its error, and no
        # point is sampled
        region = FrequencyRegion.exterior(600.0, 2)
        ts = np.array([1.0, 4.0])

        def f(shells):
            r2 = np.broadcast_to((shells.radii * shells.radii)[:, None],
                                 shells.pts.shape[:-1])
            return 1.0 / (1.0 + np.multiply.outer(ts, r2))

        radius, tail = truncation_radius(
            lambda radii, dirs: np.abs(f(Shells(radii, dirs))) ** 2, 2, 1200.0,
            rows=len(ts))
        assert radius == TRUNCATION_CAP and np.all(tail > 0)
        curve = norm_curve(f, region, ts)
        assert curve.value.tolist() == [0.0, 0.0]
        assert curve.error_estimate.tolist() == np.sqrt(tail).tolist()
        assert curve.evaluations == 0 and not curve.stalled

        def g(pts):
            return 1.0 / (1.0 + np.sum(pts * pts, axis=-1))

        _, (one_tail,) = truncation_radius(
            _shell_field(lambda pts: np.abs(g(pts)) ** 2), 2, 1200.0, rows=1)
        assert one_tail > 0
        assert region_l2_norm(g, region) == QuadResult(0.0, math.sqrt(one_tail), 0)

    def test_first_call_holds_interior_shells_and_first_bundle(self):
        field, rows = _probe_field("heat")
        seen = []

        def recorded(radii, dirs):
            seen.append(radii)
            return field(radii, dirs)

        truncation_radius(recorded, 2, 4.0, rows=rows)
        interior = 4.0 * np.array([1e-3, 1e-2, 0.1, 0.5, 1.0])
        bundle = np.array([4.0, 5.7, 8.3, 4.0 * 1.013 + 0.5])
        np.testing.assert_array_equal(seen[0], np.concatenate([interior, bundle]))
        assert len(seen) > 2 and all(len(radii) == 4 for radii in seen[1:])



def _heat_field(t):
    """e^{-2 t r^2} (1 + omega_1 / 2)^2 on shells: |f|^2 of an anisotropic
    heat profile at time t, one row."""
    def field(radii, dirs):
        return (np.exp(-2.0 * t * radii * radii)[:, None]
                * (1.0 + 0.5 * dirs[:, 0]) ** 2)[None]
    return field


class TestInwardCut:
    """An unbounded norm whose integrand is negligible at its start radius
    stops at the first heat-ladder edge past which every probed shell is
    negligible, never below twice an exterior's inner radius."""

    @staticmethod
    def _spy(monkeypatch):
        """(edges, radius, tail) of every truncation and (lo, hi,
        breakpoints, result) of every radial integral a norm makes."""
        seen = {"truncation": [], "radial": []}
        real_cut, real_radial = norms.truncation_radius, norms.integrate_radial

        def cut(*args, **kwargs):
            radius, tail = real_cut(*args, **kwargs)
            seen["truncation"].append((kwargs.get("edges"), radius, tail))
            return radius, tail

        def radial(field, n, lo, hi, tol, **kwargs):
            res = real_radial(field, n, lo, hi, tol, **kwargs)
            seen["radial"].append((lo, hi, tuple(kwargs["extra_breakpoints"]),
                                   res))
            return res

        monkeypatch.setattr(norms, "truncation_radius", cut)
        monkeypatch.setattr(norms, "integrate_radial", radial)
        return seen

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("t", [1e2, 1e4, 1e8])
    def test_a_heat_field_is_cut_at_its_ladder_edge(self, n, t):
        from scipy import integrate as si
        w = 1.0 / math.sqrt(t)
        radius, (tail,) = truncation_radius(_heat_field(t), n, 4.0, rows=1,
                                            edges=radial_breakpoints(0.0, 4.0, w))
        # e^{-2 t r^2} is within 1e-18 of its peak up to 4.55 w: the edge
        # 4 w keeps e^{-32}, the edge 8 w drops e^{-128}
        assert radius == 8.0 * w
        # the dropped shells by a fine radial quadrature times the exact
        # angular integral |S| (1 + 1 / (4 n)) of (1 + omega_1 / 2)^2
        radial, radial_err = si.quad(
            lambda r: r ** (n - 1) * math.exp(-2.0 * t * r * r),
            radius, radius + 20.0 * w, epsabs=0.0, epsrel=1e-12, limit=200)
        dropped = {2: 2.0 * math.pi, 3: 4.0 * math.pi}[n] * (1.0 + 0.25 / n) * radial
        assert radial_err < 1e-6 * radial and 0.0 < dropped <= tail

    @pytest.mark.parametrize("lo, cut", [(0.0, 8.0), (0.02, 8.0), (0.045, 16.0)])
    def test_the_cut_keeps_twice_the_inner_radius(self, monkeypatch, lo, cut):
        # at t = 1e4 the heat field is negligible past 8 w = 0.08; an
        # exterior of 0.045 keeps [0.045, 0.09] and stops at the next edge
        seen = self._spy(monkeypatch)
        t = 1e4
        w = 1.0 / math.sqrt(t)

        def heat(shells):
            radii = shells.radii
            return np.exp(-np.multiply.outer((t,), radii * radii))[..., None] \
                * np.ones(shells.pts.shape[1])

        curve = norm_curve(heat, FrequencyRegion(2, lo), (t,))
        [(edges, radius, _)] = seen["truncation"]
        [(r_lo, hi, brk, _)] = seen["radial"]
        assert edges == radial_breakpoints(2.0 * lo, 4.0, w)
        assert radius == hi == cut * w and hi >= 2.0 * lo
        # the panels are those of the uncut ladder below the cut
        assert brk == tuple(p for p in radial_breakpoints(r_lo, 4.0, w) if p < hi)
        # integral over |xi| > lo of e^{-2 t |xi|^2}: pi e^{-2 t lo^2} / (2 t)
        exact = math.sqrt(math.pi * math.exp(-2.0 * t * lo * lo) / (2.0 * t))
        assert curve.value[0] == pytest.approx(exact, rel=1e-9)

    def test_a_probed_bump_past_the_peak_holds_the_cut(self):
        # 1e-12 of the peak on the shell of the edge 128 w: every edge up to
        # it has a probe past it above the floor, so the cut is the next
        t = 1e4
        w = 1.0 / math.sqrt(t)
        heat = _heat_field(t)

        def bumped(radii, dirs):
            bump = 1e-12 * np.exp(-((radii - 128.0 * w) / 0.05) ** 2)
            return heat(radii, dirs) + bump[None, :, None]

        edges = radial_breakpoints(0.0, 4.0, w)
        assert truncation_radius(heat, 2, 4.0, rows=1, edges=edges)[0] == 8.0 * w
        radius, _ = truncation_radius(bumped, 2, 4.0, rows=1, edges=edges)
        assert radius == 256.0 * w

    # an exterior of 2 at t = 30 holds only the high-frequency part
    # e^{-t}-small; 2 r_lo = 4 leaves no edge, and an exterior of 0.5 is cut
    PARENT = [(2, 2.0, 1.2574045545922108e-13), (2, 0.5, 0.000377978793203763),
              (3, 2.0, 3.65494379037794e-13), (3, 0.5, 0.001178077382250469)]

    @pytest.mark.parametrize("n, lo, value", PARENT)
    def test_an_exterior_keeps_its_value(self, n, lo, value):
        res = residual_norm(_pinned_pair(n), 30.0, 1, FrequencyRegion.exterior(lo, n))
        assert res.value == pytest.approx(value, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("t, evaluations, rel", [(1e8, 672, 1e-8),
                                                     (1e12, 672, 1e-7)])
    def test_a_narrow_gaussian_norm_stays_near_its_width(self, t, evaluations,
                                                         rel):
        # a 2-D unit Gaussian with u1 = 0 at k = 0: u_hat(t) = 4 pi
        # e^{-t |xi|^2} (1 + O(|xi|^4)) up to e^{-t}, whose norm is
        # 4 pi sqrt(pi / (2 t)) to O(t^-2).  Cut at 0.0008 and 8e-6, the
        # norms sample 672 points (3,192 and 4,200 to radius 4).  What is
        # left of the estimate at t = 1e12, 8.5e-8 relative, is the angular
        # roundoff floor spread over the shell measure (ROADMAP item 16)
        sol = SpectralSolution(u0=Gaussian(dimension=2), u1=zero_datum(2))
        res = residual_norm(sol, t, 0)
        exact = 4.0 * math.pi * math.sqrt(math.pi / (2.0 * t))
        assert res.evaluations == evaluations <= 1000
        assert abs(res.value - exact) <= res.error_estimate <= rel * res.value

    @pytest.mark.parametrize("t", [1e30, 1e300])
    def test_a_tiny_norm_caps_its_estimate(self, monkeypatch, t):
        # the integral's error delta is far above the squared norm, so the
        # estimate is sqrt(delta), not delta / (2 norm) (363 and 3.6e137)
        seen = self._spy(monkeypatch)
        sol = SpectralSolution(u0=Gaussian(dimension=2), u1=zero_datum(2))
        res = residual_norm(sol, t, 0)
        [(_, _, (tail,))] = seen["truncation"]
        [(_, _, _, radial)] = seen["radial"]
        delta = radial.error_estimate[0] + tail
        exact = 4.0 * math.pi * math.sqrt(math.pi / (2.0 * t))
        assert res.value == pytest.approx(exact, rel=1e-15)
        assert delta > 4.0 * res.value ** 2
        assert res.error_estimate == math.sqrt(delta) < 1e-12

    def test_the_estimate_keeps_its_linearisation_below_the_cap(self,
                                                               monkeypatch):
        # delta <= 4 value^2: delta / (2 value), bit for bit
        seen = self._spy(monkeypatch)
        sol = SpectralSolution(u0=Gaussian(dimension=2), u1=zero_datum(2))
        res = residual_norm(sol, 1e4, 0)
        [(_, _, (tail,))] = seen["truncation"]
        [(_, _, _, radial)] = seen["radial"]
        delta = radial.error_estimate[0] + tail
        assert res.error_estimate == delta / (2.0 * res.value)

    def test_a_nan_time_probes_no_edge(self, monkeypatch):
        seen = self._spy(monkeypatch)

        def gauss(pts):
            return np.exp(-np.sum(pts * pts, axis=-1))

        region_l2_norm(gauss, FrequencyRegion.full(2))
        region_l2_norm(gauss, FrequencyRegion.full(2), t=1e4)
        edges = [edges for edges, _, _ in seen["truncation"]]
        assert edges == [(), radial_breakpoints(0.0, 4.0, 0.01)]


def _exit(radius, tail, start, edges):
    """The exit of ``truncation_radius`` that returned ``radius`` and
    ``tail`` from ``start`` with ``edges``."""
    if radius == TRUNCATION_CAP:
        return "cap"
    if radius in edges:
        return "edge"
    if radius == max(start, 1.0):
        return "start" if tail.any() else "zero"
    return "grow"


class TestOneStoppingRule:
    """One rule over the ladder edges, the start radius and each outward
    bundle gives, at every exit, the radius and tail bound of two rules:
    an inward cut over the edges, then the outward search over the
    bundles, each bundle in its own field call."""

    @staticmethod
    def _assert_two_rules(field, n, start, rows, edges, stop):
        radius, tail = truncation_radius(field, n, start, rows=rows,
                                         edges=edges)
        expected = truncation_radius_per_bundle(field, n, start, rows=rows,
                                                edges=edges)
        assert radius == expected[0]
        assert tail.tobytes() == expected[1].tobytes()
        assert _exit(radius, tail, start, edges) == stop

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("t, stop", [
        (1e2, "edge"), (1e4, "edge"), (1e8, "edge"), (2.0, "start"),
        (0.2, "grow")])
    def test_a_heat_field(self, n, t, stop):
        # e^{-2 t r^2} at t = 2 is negligible at 4 but not at the edge
        # 2 sqrt(2); at t = 0.2 not until the bundle at 13.5
        edges = radial_breakpoints(0.0, 4.0, 1.0 / math.sqrt(max(t, 1.0)))
        self._assert_two_rules(_heat_field(t), n, 4.0, 1, edges, stop)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("kind, start, stop", [
        ("heat", 4.0, "grow"), ("sinc", 4.0, "cap"), ("zero", 4.0, "zero"),
        ("outer", 4.0, "zero"), ("heat", 600.0, "cap"), ("sinc", 600.0, "cap")])
    def test_a_probe_field(self, n, kind, start, stop):
        field, rows = _probe_field(kind)
        edges = radial_breakpoints(0.0, start, 1.0 / math.sqrt(10.0))
        self._assert_two_rules(field, n, start, rows, edges, stop)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_the_floor_follows_the_running_peak(self, n):
        # a bump at r = 25, 1e12 times the interior peak, sets the floor
        # once a bundle reaches it: 1e-18 of it is first reached past
        # 43.2, at the bundle 4 * 1.5^6; 1e-18 of the interior peak only
        # past 48.5
        def field(radii, dirs):
            radial = (np.exp(-radii * radii)
                      + 1e12 * np.exp(-(radii - 25.0) ** 2 / 8.0))
            return (radial[:, None] * (1.0 + 0.5 * dirs[:, 0]) ** 2)[None]

        edges = radial_breakpoints(0.0, 4.0, 0.1)
        self._assert_two_rules(field, n, 4.0, 1, edges, "grow")
        assert truncation_radius(field, n, 4.0, rows=1)[0] == 4.0 * 1.5 ** 6


def _half_and_full_sets():
    """Every set of directions a norm samples, its full set and the
    largest |alpha| whose even monomial omega^{2 alpha} its weights
    integrate exactly (None for the probes, which carry no weights)."""
    sets = {"line": (quadrature._LINE_RULE, FULL_LINE_RULE, 8)}
    for n, sizes in quadrature._LEVEL_SIZES.items():
        for level, size in enumerate(sizes):
            # trapezoid: trigonometric degree m - 1; Gauss-Legendre in mu:
            # degree 2 p - 1
            exact = size - 1 if n == 2 else min(2 * size[0] - 1, size[1] - 1)
            sets[f"{n}-D level {level}"] = (quadrature._angular_rule(n, level),
                                            full_angular_rule(n, level),
                                            exact // 2)
    for n in (1, 2, 3):
        sets[f"{n}-D probes"] = ((quadrature._probe_directions(n), None),
                                 (full_probe_directions(n), None), None)
    return sets


_SETS = _half_and_full_sets()


class TestHalfRules:
    """Every norm samples one direction of each antipodal pair at twice its
    weight.  Its integrands are even, |f(-xi)| = |f(xi)|, so the full
    rules give the same norms from twice the points."""

    @pytest.mark.parametrize("name", list(_SETS))
    def test_a_half_set_and_its_antipodes_are_the_full_set(self, name):
        (dirs, weights), (full_dirs, full_weights), _ = _SETS[name]
        assert not dirs.flags.writeable
        # no direction's antipode is in the set: every d_i + d_j stays
        # farther from 0 than half the full set's closest two directions
        gaps = np.abs(full_dirs[:, None, :] - full_dirs[None, :, :]).max(axis=-1)
        spacing = gaps[~np.eye(len(full_dirs), dtype=bool)].min()
        sums = np.abs(dirs[:, None, :] + dirs[None, :, :]).max(axis=-1)
        assert sums.min() > 0.5 * spacing > 0
        assert 2 * len(dirs) == len(full_dirs)
        both = np.concatenate([dirs, -dirs])
        gaps = np.abs(full_dirs[:, None, :] - both[None, :, :]).max(axis=-1)
        match = gaps.argmin(axis=1)
        assert gaps.min(axis=1).max() <= 4 * np.finfo(float).eps
        assert sorted(match) == list(range(len(both)))
        if weights is not None:
            np.testing.assert_array_equal(
                np.concatenate([weights, weights])[match], 2.0 * full_weights)

    @pytest.mark.parametrize("name", [name for name in _SETS
                                      if "probes" not in name])
    def test_weights_sum_to_the_sphere(self, name):
        (dirs, weights), _, _ = _SETS[name]
        area = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}[dirs.shape[1]]
        assert weights.sum() == pytest.approx(area, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("name", [name for name in _SETS
                                      if "probes" not in name])
    def test_even_monomials_are_exact(self, name):
        # every omega^{2 alpha} within the rule's exactness, up to the
        # degree where the Gamma functions of the closed form stay finite
        (dirs, weights), _, exact = _SETS[name]
        n = dirs.shape[1]
        top = min(exact, 160)
        for d in range(top + 1):
            for alpha in indices_of_degree(n, d):
                got = np.prod(dirs ** (2 * np.array(alpha)), axis=1) @ weights
                assert got == pytest.approx(
                    norms.sphere_monomial_integral(alpha), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n, kind, k, t",
                             [case[:4] for case in TestAngularRuleReuse.PINNED])
    def test_pinned_norms_match_the_full_rules(self, monkeypatch, n, kind, k, t):
        region = _heat_region(kind, n, t)
        half = residual_norm(_pinned_pair(n), t, k, region)
        use_full_rules(monkeypatch)
        full = residual_norm(_pinned_pair(n), t, k, region)
        assert half.value == pytest.approx(full.value, rel=1e-14, abs=0.0)
        assert full.evaluations == 2 * half.evaluations

    def test_one_dimensional_curves_match_the_full_rules(self, monkeypatch):
        ts = np.geomspace(1.0, 1e4, 9)
        regions = (FrequencyRegion.full(1), FrequencyRegion.ball(0.5, 1),
                   FrequencyRegion.exterior(2.0, 1))

        def curves():
            for u0 in catalog_1d():
                sol = SpectralSolution(u0=u0, u1=Box(dimension=1, half_width=0.8))
                poly = build_expansion("A", 1, moment_table(sol.v, 1))
                for region in regions:
                    yield residual_norm_curve(sol, ts, poly, region)

        half = list(curves())
        use_full_rules(monkeypatch)
        for one, full in zip(half, curves(), strict=True):
            np.testing.assert_allclose(one.value, full.value, rtol=1e-14,
                                       atol=0.0)
            assert full.evaluations == 2 * one.evaluations


class TestAngularErrorTerm:
    @pytest.mark.parametrize("n, kind, k, t", [(2, "ext", 0, 50.0),
                                               (3, "full", 0, 1000.0)])
    def test_estimate_does_not_follow_the_probe_batching(self, monkeypatch,
                                                         n, kind, k, t):
        # one probe shell per call sums each shell in another BLAS order;
        # with the gap unfloored these estimates moved by 0.8 % and 78 %
        region = _heat_region(kind, n, t)
        batched = residual_norm(_pinned_pair(n), t, k, region)
        real_choose, real_shells = quadrature.choose_angular_rule, quadrature._on_shells

        def one_shell_per_call(field, radii, dirs, reduce, rows):
            return np.concatenate([real_shells(field, [r], dirs, reduce, rows)
                                   for r in radii], axis=-1)

        def choose(*args, **kwargs):
            with monkeypatch.context() as patch:
                patch.setattr(quadrature, "_on_shells", one_shell_per_call)
                return real_choose(*args, **kwargs)

        monkeypatch.setattr(quadrature, "choose_angular_rule", choose)
        single = residual_norm(_pinned_pair(n), t, k, region)
        assert single.value == batched.value
        assert single.evaluations == batched.evaluations
        assert single.error_estimate == pytest.approx(batched.error_estimate,
                                                      rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("name", ["pinned", "anchor"])
    def test_estimate_bounds_the_error(self, name):
        # 40-digit radial references: the three-dimensional data here are
        # radial up to the shift, whose angular mean is a sinc
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            if name == "pinned":
                sol, k, t = _pinned_pair(3), 0, 1000.0
                reference = _pinned_residual_3d(mp, mp.mpf(t))
            else:
                # the anchor's residual cancels: its value is off by 1.5e-9
                sol, k, t = SpectralSolution(Gaussian(3, 1.0), zero_datum(3)), 1, 1e4
                reference = _gaussian_residual_3d(mp, mp.mpf(t))
            res = residual_norm(sol, t, k)
            assert res.error_estimate >= abs(mp.mpf(res.value) - reference)


def _heat_difference(mp, t, s):
    """(e^{-ts} - e^{-t}) / (1 - s), continued by t e^{-t} at s = 1."""
    return (t * mp.exp(-t) if s == 1
            else (mp.exp(-t * s) - mp.exp(-t)) / (1 - s))


def _radial_norm_3d(mp, integrand, t):
    """(4 pi integral_0^inf r^2 integrand(r) dr)^(1/2), split around the
    heat width 1/sqrt(t) and the unit sphere."""
    width = 1 / mp.sqrt(t)
    splits = sorted({mp.mpf(0), mp.mpf(1), mp.inf}
                    | {width * 2 ** j for j in range(-6, 8)})
    return mp.sqrt(mp.quad(lambda r: 4 * mp.pi * r * r * integrand(r), splits))


def _pinned_residual_3d(mp, t):
    """|| u_hat(t) || over R^3 for ``_pinned_pair(3)``: u0 a unit Gaussian
    shifted by c, u1 = 0.7 times the Gaussian of scale 1/2.  The angular
    mean of e^{-i c.xi} over the sphere of radius r is sin(|c| r)/(|c| r)."""
    c = mp.sqrt(mp.mpf("0.25") + mp.mpf("0.09") + mp.mpf("0.04"))

    def integrand(r):
        s = r * r
        g0 = 8 * mp.pi ** mp.mpf(1.5) * mp.exp(-s)
        g1 = mp.mpf("0.7") * (2 * mp.sqrt(mp.pi / 2)) ** 3 * mp.exp(-s / 2)
        heat = _heat_difference(mp, t, s)
        a = mp.exp(-t) + heat
        mean_phase = mp.sin(c * r) / (c * r) if r else mp.mpf(1)
        return (a * a * g0 * g0 + heat * heat * g1 * g1
                + 2 * a * heat * g0 * g1 * mean_phase)
    return _radial_norm_3d(mp, integrand, t)


def _gaussian_residual_3d(mp, t):
    """|| u_hat(t) - M_0 e^{-t|xi|^2} || over R^3 for the unit Gaussian u0
    and u1 = 0 (the residual of k = 1)."""
    mass = 8 * mp.pi ** mp.mpf(1.5)

    def integrand(r):
        s = r * r
        residual = ((mp.exp(-t) + _heat_difference(mp, t, s)) * mass * mp.exp(-s)
                    - mass * mp.exp(-t * s))
        return residual * residual
    return _radial_norm_3d(mp, integrand, t)


class TestGaussianMonomialIntegrals:
    def test_full_space_product_formula(self):
        # independent double-factorial product for integral xi^{2a} e^{-2|xi|^2}
        for alpha in [(0,), (1,), (2,), (1, 1), (2, 0), (1, 0, 1)]:
            n = len(alpha)
            expected = 1.0
            for a in alpha:
                dfac = 1.0
                for m in range(2 * a - 1, 1, -2):
                    dfac *= m
                expected *= dfac / 4.0**a * math.sqrt(math.pi / 2.0)
            got = gaussian_monomial_integral(alpha)
            assert got == pytest.approx(expected, rel=1e-13), alpha

    def test_gamma_closed_forms_against_mpmath(self):
        # every s = (m + 1) / 2 of a radial factor r^m, at the half ball's
        # x = rate R^2 = 2 / 4
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            for m in range(121):
                s = (m + 1) / 2
                gamma = mp.gamma(mp.mpf(s))
                lower = mp.gammainc(mp.mpf(s), 0, mp.mpf("0.5"), regularized=True)
                assert abs(math.gamma(s) - gamma) <= 1e-15 * gamma, s
                assert abs(regularised_lower_gamma(s, 0.5) - lower) <= 1e-15 * lower, s

    def test_ball_constants_ratio(self):
        # integral xi_1^4 = 3 integral xi_1^2 xi_2^2 over any centred ball
        c = lower_bound_constants(moment_table(Gaussian(dimension=2, scale=1.0), 2))
        assert c.c1 == pytest.approx(3.0 * c.c12, rel=1e-13)
        assert c.c1 > 0 and c.c12 > 0


class TestClosedFormsVsQuadrature:
    @pytest.mark.parametrize("v", catalog_1d()[:4],
                             ids=lambda v: f"{v.family}")
    def test_1d_constant_all_orders(self, v):
        table = moment_table(v, 6)
        for k in range(7):
            closed = increment_lower_constant_1d(k, table)
            poly = build_expansion("B", k, table)
            quad = region_l2_norm(_weighted(poly), FrequencyRegion.ball(0.5, 1),
                                  1e-11).value
            exact = poly_gaussian_l2_norm(poly, radius=0.5)
            assert quad == pytest.approx(closed, rel=1e-9, abs=1e-13), k
            assert exact == pytest.approx(closed, rel=1e-12, abs=1e-14), k

    @pytest.mark.parametrize("v", catalog_2d() + catalog_3d(),
                             ids=lambda v: f"{v.family}{v.dimension}d")
    def test_nd_constants_low_orders(self, v):
        table = moment_table(v, 2)
        for k in (0, 1, 2):
            closed = increment_lower_constant(k, table)
            poly = build_expansion("B", k, table)
            quad = region_l2_norm(_weighted(poly),
                                  FrequencyRegion.ball(0.5, v.dimension),
                                  1e-10).value
            assert quad == pytest.approx(closed, rel=1e-8, abs=1e-12), k

    def test_high_order_nd_has_no_closed_form(self):
        table = moment_table(Gaussian(dimension=2, scale=1.0), 3)
        with pytest.raises(ValueError):
            increment_lower_constant(3, table)

    def test_1d_alternating_sum_cancellation(self):
        # gaussian scale 1: the order-two alternating sum is exactly zero
        table = moment_table(Gaussian(dimension=1, scale=1.0), 2)
        assert increment_lower_constant_1d(2, table) == 0.0

    def test_radial_factor_closed_form(self):
        # (2 integral_0^{1/2} e^{-2 xi^2})^{1/2} via the erf identity
        expected = math.sqrt(math.sqrt(math.pi / 2.0) * erf(math.sqrt(0.5)))
        assert radial_factor_1d(0) == pytest.approx(expected, rel=1e-13)
        assert radial_factor_1d(0) == pytest.approx(0.92500, abs=5e-5)

    def test_prop_constant_specialization_w_only(self):
        # synthetic moments: mass and diagonal second moments vanish,
        # a single off-diagonal W survives
        w = 0.37
        alphas = [(0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (1, 1)]
        entries = {a: 0.0 for a in alphas}
        entries[(1, 1)] = w     # (+1/1!1!) raw, so the raw moment is W too
        table = MomentTable(dimension=2, order=2, entries=entries,
                            exact_zeros=frozenset())
        closed = increment_lower_constant(2, table)
        c12 = gaussian_monomial_integral((1, 1), 0.5)
        assert closed == pytest.approx(math.sqrt(c12) * w, rel=1e-13)
        poly = build_expansion("B", 2, table)
        quad = region_l2_norm(_weighted(poly), FrequencyRegion.ball(0.5, 2),
                              1e-10).value
        assert quad == pytest.approx(closed, rel=1e-8)


class TestHeatIncrementNorms:
    def test_zero_order_closed_form(self):
        for n in (1, 2, 3):
            table = moment_table(Gaussian(dimension=n, scale=1.0), 0)
            expected = abs(table.moment((0,) * n)) * (math.pi / 2.0) ** (n / 4.0)
            assert heat_increment_norm(0, table) == pytest.approx(expected, rel=1e-13)

    def test_vanishing_layer_gives_zero(self):
        v = GaussianMonomial(dimension=2, exponents=(1, 1), scale=1.0)
        table = moment_table(v, 1)
        assert heat_increment_norm(0, table) == 0.0
        assert heat_increment_norm(1, table) == 0.0

    def test_first_layer_formula_2d(self):
        v = Shifted(base=Gaussian(dimension=2, scale=1.0), center=(0.4, -0.3),
                    dilation=1.0)
        table = moment_table(v, 1)
        a = table.moment((1, 0))
        b = table.moment((0, 1))
        expected = math.sqrt((a * a + b * b)
                             * gaussian_monomial_integral((1, 0)))
        assert heat_increment_norm(1, table) == pytest.approx(expected, rel=1e-13)

    # (dimension, k), with the 2-D ids kept as the plain order
    CASES = [pytest.param(2, k, id=str(k)) for k in (0, 1, 2)] + [
        pytest.param(3, k, id=f"3d-{k}") for k in (1, 2)]

    @staticmethod
    def _shifted(n):
        return Shifted(base=Gaussian(dimension=n, scale=1.0),
                       center=(0.5, -0.3, 0.2)[:n], dilation=1.0)

    @pytest.mark.parametrize("n, k", CASES)
    def test_against_quadrature(self, n, k):
        table = moment_table(self._shifted(n), 2)
        poly = build_expansion("C", k, table)
        quad = region_l2_norm(_weighted(poly), FrequencyRegion.full(n),
                              1e-10).value
        assert quad == pytest.approx(heat_increment_norm(k, table),
                                     rel=1e-8, abs=1e-12)

    @pytest.mark.parametrize("n, k", CASES)
    def test_ball_restriction_against_quadrature(self, n, k):
        table = moment_table(self._shifted(n), 2)
        poly = build_expansion("C", k, table)
        quad = region_l2_norm(_weighted(poly), FrequencyRegion.ball(0.5, n),
                              1e-10).value
        assert quad == pytest.approx(heat_increment_norm(k, table, radius=0.5),
                                     rel=1e-8, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_matches_the_moment_product_sum(self, n, k):
        # the same closed form summed in another order: a few ulps apart
        v = SumDatum(terms=(self._shifted(n),
                            Box(dimension=n, half_width=0.7, amplitude=-0.4)))
        table = moment_table(v, 3)
        for radius in (None, 0.5):
            assert heat_increment_norm(k, table, radius) == pytest.approx(
                heat_increment_moment_sum(k, table, radius), rel=1e-15)


class TestGenericPolynomialRoute:
    @pytest.mark.parametrize("k", [3, 4])
    def test_orders_beyond_the_closed_forms(self, k):
        # the exact monomial algebra covers every order; cross-check it
        # against plain quadrature where no hand formula exists
        v = Shifted(base=Gaussian(dimension=2, scale=1.0), center=(0.5, -0.3),
                    dilation=1.0)
        table = moment_table(v, 4)
        poly = build_expansion("B", k, table)
        exact = poly_gaussian_l2_norm(poly, radius=0.5)
        quad = region_l2_norm(_weighted(poly), FrequencyRegion.ball(0.5, 2),
                              1e-10).value
        assert exact > 0
        assert quad == pytest.approx(exact, rel=1e-8)


class TestScalingIdentity:
    @pytest.mark.parametrize("t", [1.0, 4.0, 16.0])
    def test_half_ball_rescaling(self, t):
        v = add_data(Gaussian(dimension=1, scale=1.0),
                     Box(dimension=1, half_width=1.0))
        table = moment_table(v, 2)
        b2 = build_expansion("B", 2, table)
        f = lambda pts: b2(pts) * np.exp(-t * np.sum(pts * pts, axis=-1))
        lhs = region_l2_norm(f, FrequencyRegion.ball(0.5, 1), 1e-11).value
        rhs = t ** (-0.25 - 1.0) * region_l2_norm(
            _weighted(b2), FrequencyRegion.ball(math.sqrt(t) / 2.0, 1),
            1e-11).value
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestResidualNorm:
    def test_zero_data(self):
        sol = SpectralSolution(u0=zero_datum(1), u1=zero_datum(1))
        assert residual_norm(sol, 5.0, 0).value == 0.0

    def test_monotone_decay_for_gaussian(self):
        sol = SpectralSolution(u0=Gaussian(dimension=1, scale=1.0),
                               u1=zero_datum(1))
        ts = np.geomspace(1.0, 1e4, 9)
        norms = [residual_norm(sol, float(t), 0).value for t in ts]
        assert all(a > b for a, b in zip(norms, norms[1:]))

    def test_requires_positive_time(self):
        sol = SpectralSolution(u0=Gaussian(dimension=1, scale=1.0),
                               u1=zero_datum(1))
        with pytest.raises(ValueError):
            residual_norm(sol, 0.0, 0)

    def test_region_restriction_is_smaller(self):
        sol = SpectralSolution(u0=Gaussian(dimension=1, scale=1.0),
                               u1=zero_datum(1))
        full = residual_norm(sol, 10.0, 1).value
        ball = residual_norm(sol, 10.0, 1, FrequencyRegion.ball(0.5, 1)).value
        assert 0 < ball < full

    def test_regions_partition_the_plane(self):
        sol = SpectralSolution(u0=Gaussian(dimension=2, scale=1.0),
                               u1=Gaussian(dimension=2, scale=0.5,
                                           amplitude=0.3))
        t = 5.0
        full = residual_norm(sol, t, 1).value
        ball = residual_norm(sol, t, 1, FrequencyRegion.ball(0.5, 2)).value
        ann = residual_norm(sol, t, 1,
                            FrequencyRegion.annulus(0.5, 2.0, 2)).value
        ext = residual_norm(sol, t, 1, FrequencyRegion.exterior(2.0, 2)).value
        assert math.sqrt(ball**2 + ann**2 + ext**2) == pytest.approx(full,
                                                                     rel=1e-8)


class TestSupRatioBounds:
    @pytest.mark.parametrize("gamma", [0.0, 1.0, 2.0, 2.5, 3.0])
    def test_taylor_remainder_ratio_grid_stable(self, gamma, gaussian_1d):
        coarse = taylor_remainder_sup_ratio(gaussian_1d, gamma,
                                            np.geomspace(1e-3, 3.0, 60))
        fine = taylor_remainder_sup_ratio(gaussian_1d, gamma,
                                          np.geomspace(1e-3, 3.0, 120))
        assert math.isfinite(coarse) and math.isfinite(fine)
        assert abs(fine - coarse) <= 0.05 * coarse

    @pytest.mark.parametrize("gamma", [0.0, 1.0, 2.0, 2.5, 3.0])
    def test_symbol_gap_ratio_grid_stable(self, gamma, gaussian_1d):
        coarse = symbol_gap_sup_ratio(gaussian_1d, gamma,
                                      np.geomspace(1e-3, 0.5, 60))
        fine = symbol_gap_sup_ratio(gaussian_1d, gamma,
                                    np.geomspace(1e-3, 0.5, 120))
        assert math.isfinite(coarse) and math.isfinite(fine)
        assert abs(fine - coarse) <= 0.05 * coarse

    def test_symbol_gap_ratio_2d(self):
        v = Shifted(base=Gaussian(dimension=2, scale=1.0), center=(0.4, -0.3),
                    dilation=1.0)
        val = symbol_gap_sup_ratio(v, 1.0, np.geomspace(1e-3, 0.5, 40))
        assert math.isfinite(val) and val > 0
