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
from dampex import norms, quadrature
from dampex.expansion import heat_partial_sum
from dampex.norms import (norm_curve, regularised_lower_gamma,
                          residual_norm_curve)
from dampex.quadrature import (BATCH_POINTS, adaptive_1d, angular_sums,
                               choose_angular_rule, circle_nodes,
                               integrate_radial, sphere_nodes)

from conftest import catalog_1d, catalog_2d, catalog_3d
from oracles import (heat_increment_moment_sum, increment_lower_constant,
                     increment_lower_constant_1d, lower_bound_constants,
                     radial_factor_1d, symbol_gap_sup_ratio,
                     taylor_remainder_sup_ratio)

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
        res = region_l2_norm(f, FrequencyRegion.ball(2.0, 1), 1e-10,
                             inner_scale=1.0 / math.sqrt(t))
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


def _heat_weighted(poly):
    def f(ts, radii, dirs):
        heat = np.exp(-np.multiply.outer(ts, radii * radii))
        return heat[..., None] * poly(radii[:, None, None] * dirs)
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
        curve = norm_curve(_heat_weighted(poly), FrequencyRegion.full(n), ts,
                           1e-11, inner_scales=1.0 / np.sqrt(ts))
        assert len(curve) == len(ts)
        for nrm, t in zip(curve, ts):
            assert nrm.value == pytest.approx(t ** (-n / 4 - k / 2) * exact,
                                              rel=1e-9)

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

        def field(ts, radii, dirs):
            r = np.broadcast_to(radii[:, None], (len(radii), len(dirs)))
            vals = amp * (np.exp(-(r / w) ** 2) + 1j * np.exp(-((r - p) / s) ** 2))
            return np.broadcast_to(vals, (len(ts),) + vals.shape)

        region = FrequencyRegion.ball(1.0, 1)
        (nrm,) = norm_curve(field, region, [1.0])
        assert abs(nrm.value / exact - 1) < 1e-6
        # a floor at 1e-13 accepts the first round, which misses the bump
        monkeypatch.setattr(norms, "VALUE_FLOOR", 1e-13)
        (first,) = norm_curve(field, region, [1.0])
        assert first.evaluations == 2 * 21 < nrm.evaluations
        assert abs(first.value / exact - 1) > 0.01

    def test_curve_batches_its_integrand_calls(self):
        # in 1-D a refinement round stays far below the batch cap, so the
        # call count shows the batching over t alone; in 2-D/3-D the cap
        # splits rounds by design, in proportion to the number of times
        n = 1
        v = _shifted_gaussian(n)
        partial = heat_partial_sum(moment_table(v, 1), 1)
        calls = []

        def gap(ts, radii, dirs):
            calls.append(len(radii) * len(dirs))
            pts = radii[:, None, None] * dirs
            heat = np.exp(-np.multiply.outer(ts, radii * radii))
            return heat[..., None] * (v.fourier_transform(pts) - partial(pts))

        ts = np.geomspace(1.0, 1e4, 17)
        region = FrequencyRegion.full(n)
        curve = norm_curve(gap, region, ts, 1e-9, inner_scales=1.0 / np.sqrt(ts))
        curve_calls = len(calls)
        calls.clear()
        (first,) = norm_curve(gap, region, ts[:1], 1e-9,
                              inner_scales=1.0 / np.sqrt(ts[:1]))
        assert curve_calls <= 3 * len(calls)
        assert curve[0].value == pytest.approx(first.value, rel=1e-9)

    def test_field_calls_stay_under_the_batch_cap(self):
        # 17 times on the finest sphere rule: one shell alone is 1152 x 17
        # values, more than the cap, so its directions go out in slices
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
        rows = sol.residual_shells(ts, radii, dirs, poly)
        for row, t in zip(rows, ts):
            assert np.array_equal(row, sol.residual_shells((t,), radii, dirs, poly)[0])
        curve = residual_norm_curve(sol, ts, 1)
        for nrm, t in zip(curve, ts):
            assert nrm.value == pytest.approx(residual_norm(sol, t, 1).value,
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
    # evaluated point by point through evaluate's region policy; reusing the
    # rules and passing the row count down changed no bit of these
    PINNED = [
        (2, "full", 0, 10.0, 6.056485491628974, 2499),
        (2, "ball", 1, 30.0, 0.15305760852371306, 714),
        (2, "annulus", 2, 100.0, 0.0013637565261636643, 714),
        (2, "ext", 0, 50.0, 0.9910031172133901, 1428),
        (2, "full", 1, 300.0, 0.015305885760095212, 3213),
        (2, "ext", 2, 10.0, 0.08014523477348881, 3213),
        (3, "full", 2, 10.0, 0.24863850223397158, 13797),
        (3, "ball", 0, 100.0, 2.466062285515298, 3066),
        (3, "annulus", 1, 30.0, 0.26975842522090554, 4599),
        (3, "ext", 1, 1000.0, 0.0025392765922862, 16863),
        (3, "ball", 2, 20.0, 0.04304450575899152, 3066),
        (3, "annulus", 0, 1000.0, 0.39251886092442867, 3066),
    ]
    # the same norms, bit for bit, from the shell route (radial multipliers
    # once per (t, r)); it moved them by at most 6.4e-15 relative.  The
    # evaluation counts above and the two ext/full k = 2 values here are
    # those without panel breakpoints at 1 - BAND_HALFWIDTH, 1 and
    # 1 + BAND_HALFWIDTH, where the shell route switches nothing; that
    # moved the two values by 1.7e-16 and 2.2e-16 relative.  Taking the
    # shifted transform as a real product times one phase e^{-i c.xi} moved
    # six of them by at most 7.5e-15 relative (2-D annulus k = 2)
    SHELL_VALUES = {
        (2, "full", 0, 10.0): 6.056485491628974,
        (2, "ball", 1, 30.0): 0.15305760852371306,
        (2, "annulus", 2, 100.0): 0.0013637565261636455,
        (2, "ext", 0, 50.0): 0.9910031172133901,
        (2, "full", 1, 300.0): 0.015305885760095212,
        (2, "ext", 2, 10.0): 0.08014523477348881,
        (3, "full", 2, 10.0): 0.2486385022339716,
        (3, "ball", 0, 100.0): 2.466062285515298,
        (3, "annulus", 1, 30.0): 0.26975842522090554,
        (3, "ext", 1, 1000.0): 0.0025392765922861997,
        (3, "ball", 2, 20.0): 0.04304450575899162,
        (3, "annulus", 0, 1000.0): 0.39251886092442867,
    }

    @pytest.mark.parametrize("n, kind, k, t, pointwise, evaluations", PINNED)
    def test_residual_norms_are_pinned(self, n, kind, k, t, pointwise,
                                       evaluations):
        res = residual_norm(_pinned_pair(n), t, k, _heat_region(kind, n, t))
        assert res.value == self.SHELL_VALUES[(n, kind, k, t)]
        assert res.value == pytest.approx(pointwise, rel=1e-12, abs=0.0)
        assert res.evaluations == evaluations

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
        assert len(weights) == {2: 16, 3: 72}[n]
        assert not dirs.flags.writeable and not weights.flags.writeable

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("times", [1, 5])
    def test_norm_curve_never_probes_a_single_point(self, n, times):
        sizes = []
        sol = _pinned_pair(n)
        poly = build_expansion("A", 0, moment_table(sol.v, 0))

        def residual(ts, radii, dirs):
            sizes.append(len(radii) * len(dirs))
            return sol.residual_shells(ts, radii, dirs, poly)

        ts = np.geomspace(10.0, 1e3, times)
        for region in (FrequencyRegion.full(n), FrequencyRegion.ball(0.5, n)):
            sizes.clear()
            norm_curve(residual, region, ts, inner_scales=1.0 / np.sqrt(ts))
            assert sizes and min(sizes) > 1


class TestShellFieldCalls:
    """Norm integrands are sampled shell by shell, in few field calls."""

    @pytest.mark.parametrize("n, coarsest, second", [(2, 16, 32), (3, 72, 128)])
    def test_first_two_rules_share_one_field_call(self, n, coarsest, second):
        # a radial field stops the choice at the coarsest rule
        calls = []

        def field(radii, dirs):
            calls.append(len(dirs))
            return np.exp(-radii * radii)[None, :, None] * np.ones(len(dirs))

        dirs, weights, _ = choose_angular_rule(field, n, [0.5, 1.0], 1e-10, rows=1)
        assert calls == [coarsest + second]
        assert len(weights) == coarsest

    def test_full_space_3d_request_makes_pinned_field_calls(self, monkeypatch):
        calls = []
        real = SpectralSolution.residual_shells

        def counted(self, ts, radii, dirs, poly):
            calls.append(len(radii) * len(dirs))
            return real(self, ts, radii, dirs, poly)

        monkeypatch.setattr(SpectralSolution, "residual_shells", counted)
        res = residual_norm(_pinned_pair(3), 10.0, 2)
        # three truncation bundles, one rule choice, four panel rounds
        assert len(calls) == 8
        assert res.evaluations == 13797


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
            got = gaussian_monomial_integral(alpha, 2.0, None)
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
        c12 = gaussian_monomial_integral((1, 1), 2.0, 0.5)
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
                             * gaussian_monomial_integral((1, 0), 2.0, None))
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
