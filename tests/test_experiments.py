"""Campaign machinery: fits, sandwiches, limit proxies, reports."""

import json
import math
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import dampex
from dampex import (Box, Case, ConfigError, Gaussian,
                    Shifted, SpectralSolution, TimeGrid, build_expansion,
                    default_config, expected_decay_slope,
                    fit_decay_rate, heat_comparison, moment_table,
                    property_suite, run_report, sandwich_check,
                    vanishing_limit_check, zero_datum)
from dampex.cli import main
from dampex.experiments import load_config, validate_config


def _case(v, **options):
    """A case for datum ``v`` (u1 = 0) with the given checks and orders."""
    return Case("case", v, zero_datum(v.dimension), **options)


@pytest.fixture(scope="module")
def grid():
    return TimeGrid(100.0, 1e4, 9)


class TestTimeGrid:
    def test_rejects_small_t_min(self):
        with pytest.raises(ConfigError):
            TimeGrid(0.5, 10.0, 5)

    def test_rejects_unordered(self):
        with pytest.raises(ConfigError):
            TimeGrid(10.0, 10.0, 5)

    def test_values_are_geometric_increasing(self):
        ts = TimeGrid(1.0, 100.0, 5).values()
        assert np.allclose(np.diff(np.log(ts)), np.log(10.0) / 2)

    def test_values_are_built_once_and_read_only(self):
        grid = TimeGrid(1.0, 100.0, 5)
        ts = grid.values()
        assert grid.values() is ts
        assert np.array_equal(ts, np.geomspace(1.0, 100.0, 5))
        with pytest.raises(ValueError):
            ts[0] = 2.0
        assert ts[0] == 1.0


class TestRateFit:
    def test_gaussian_leading_order(self, grid):
        fit, (ts, norms) = fit_decay_rate(
            _case(Gaussian(dimension=1, scale=1.0)), 0, grid, tolerance=0.05)
        assert fit["expected_slope"] == -0.25
        assert fit["status"] == "pass"
        assert fit["fit_residual"] < 1e-3
        assert len(ts) == len(norms) == grid.points

    def test_degenerate_increment_is_rejected(self, grid):
        fit, curve = fit_decay_rate(_case(Gaussian(dimension=1, scale=1.0),
                                          k_values=(2,)), 2, grid)
        assert fit["status"] == "rejected" and curve is None
        assert "increment vanishes" in fit["diagnostic"]

    @staticmethod
    def _mp_line(mp, x, y):
        """Slope and intercept of the least-squares line through the
        float64 points (x, y), by mpmath's QR solver at 30 digits."""
        with mp.workdps(30):
            design = mp.matrix([[1, mp.mpf(float(v))] for v in x])
            (intercept, slope), _ = mp.qr_solve(
                design, mp.matrix([mp.mpf(float(v)) for v in y]))
            return float(slope), float(intercept)

    def _assert_fit_matches_mpmath(self, mp, entry, ts, norms):
        half = len(ts) // 2
        slope, intercept = self._mp_line(mp, np.log(ts[half:]),
                                         np.log(norms[half:]))
        assert abs(entry["slope"] - slope) <= 1e-14 * abs(slope)
        assert abs(entry["intercept"] - intercept) <= 1e-14 * abs(intercept)

    def test_default_campaign_fits_match_mpmath(self):
        # np.polyfit missed the box-1d k = 2 intercept by 7.4e-14 relative
        mp = pytest.importorskip("mpmath")
        run = validate_config(default_config())
        fits = [fit_decay_rate(case, k, run.grid, tol=run.tol)
                for case in run.cases for k in case.k_values]
        assert len(fits) == 4
        for entry, (ts, norms) in fits:
            self._assert_fit_matches_mpmath(mp, entry, ts, norms)

    def test_hand_made_points_fit_matches_mpmath(self):
        mp = pytest.importorskip("mpmath")

        class Points:
            """A case whose residual curve is fixed: five fitted points
            after four the fit skips."""
            name = "points"
            solution = SpectralSolution(u0=zero_datum(1), u1=zero_datum(1))
            curve = (np.array([1.0, 2.0, 3.0, 5.0, 1e3, 1.7e3, 2.9e3, 6.1e3,
                               1.3e4]),
                     np.array([1.0, 1.0, 1.0, 1.0, 3.1e-2, 2.4e-2, 1.7e-2,
                               1.6e-2, 9.3e-3]))

            def increment_constant(self, k):
                return 1.0

            def increment_vanishes(self, k):
                return False

            def residual_curve(self, k, grid, tol):
                return self.curve

        entry, (ts, norms) = fit_decay_rate(Points(), 0, None)
        self._assert_fit_matches_mpmath(mp, entry, ts, norms)
        assert entry["fit_residual"] > 0.05

    def test_expected_slopes_table(self):
        assert expected_decay_slope(1, 0) == -0.25
        assert expected_decay_slope(2, 1) == -1.0
        assert expected_decay_slope(3, 0) == -0.75


class TestSandwich:
    def test_ratios_bracketed(self, grid):
        rep, (ts, ratios) = sandwich_check(
            _case(Gaussian(dimension=1, scale=1.0)), 0, grid)
        assert rep["empirical_delta"] == grid.t_min
        assert all(r >= 0.5 for r in ratios)
        assert math.isfinite(rep["upper_envelope"])
        assert rep["status"] == "pass"

    def test_reruns_are_identical(self, grid):
        u0 = Gaussian(dimension=1, scale=1.0)
        first = sandwich_check(_case(u0), 0, grid)
        second = sandwich_check(_case(u0), 0, grid)
        assert first[0] == second[0]
        assert np.array_equal(first[1][1], second[1][1])

    def test_zero_data_is_degenerate(self, grid):
        rep, curve = sandwich_check(_case(zero_datum(1)), 0, grid)
        assert rep["status"] == "skipped" and curve is None
        assert "increment vanishes" in rep["diagnostic"]


class TestVanishingChecks:
    @pytest.mark.parametrize("gamma", [0.0, 1.0, 2.0, 2.5])
    def test_heat_variant_decays(self, gamma):
        case = _case(Gaussian(dimension=1, scale=1.0),
                     checks=("vanishing_heat",), gammas=(gamma,))
        rep, _ = vanishing_limit_check(case, TimeGrid(1.0, 1e4, 13),
                                       variant="heat", gamma=gamma)
        assert rep["status"] == "pass", rep

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_low_frequency_variant_decays(self, k):
        case = _case(Gaussian(dimension=1, scale=1.0),
                     checks=("vanishing_low_frequency",), k_values=(k,))
        rep, _ = vanishing_limit_check(case, TimeGrid(1.0, 1e4, 13),
                                       variant="low_frequency", k=k)
        assert rep["status"] == "pass", rep

    def test_zero_data_is_vacuous(self):
        case = _case(zero_datum(1), checks=("vanishing_heat",), gammas=(1.0,))
        rep, _ = vanishing_limit_check(case, TimeGrid(1.0, 100.0, 5),
                                       variant="heat", gamma=1.0)
        assert rep["status"] == "pass" and rep["terminal_fraction"] == 0.0

    def test_ell_weight_variant(self):
        case = _case(Gaussian(dimension=1, scale=1.0),
                     checks=("vanishing_heat",), gammas=(1.0,), ells=(1.0,))
        rep, _ = vanishing_limit_check(case, TimeGrid(1.0, 1e4, 9),
                                       variant="heat", gamma=1.0, ell=1.0)
        assert rep["status"] == "pass"

    def test_uncentered_data_decays_too(self):
        v = Shifted(base=Gaussian(dimension=2, scale=1.0), center=(0.5, -0.3),
                    dilation=1.0)
        case = _case(v, checks=("vanishing_heat",), gammas=(1.0,))
        rep, _ = vanishing_limit_check(case, TimeGrid(1.0, 1e4, 13),
                                       variant="heat", gamma=1.0)
        assert rep["status"] == "pass"

    def test_head_fraction_is_transient_sensitive(self):
        # a pre-asymptotic hump can put the t_min value below the peak; the
        # head-relative fraction then overstates the tail while the
        # peak-relative diagnostic and a later grid start both clear it
        v = Shifted(base=Gaussian(dimension=2, scale=1.0), center=(0.5, -0.3),
                    dilation=1.0)
        case = _case(v, checks=("vanishing_low_frequency",), k_values=(1,))
        early, _ = vanishing_limit_check(case, TimeGrid(1.0, 1e4, 13),
                                         variant="low_frequency", k=1)
        assert early["tail_decreasing"]
        assert early["status"] == "fail"
        assert early["peak_fraction"] < 0.1 < early["terminal_fraction"]
        later, _ = vanishing_limit_check(case, TimeGrid(10.0, 1e4, 13),
                                         variant="low_frequency", k=1)
        assert later["status"] == "pass"

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            vanishing_limit_check(_case(Gaussian(dimension=1, scale=1.0)),
                                  TimeGrid(1.0, 10.0, 3), variant="bogus")

    def test_gamma_outside_the_case_reads_its_own_moments(self):
        # the default checks read moments to order 2; floor(3.0) is past it
        v = Shifted(base=Gaussian(dimension=1, scale=1.0), center=(0.5,),
                    dilation=1.0)
        grid = TimeGrid(1.0, 1e4, 5)
        listed = vanishing_limit_check(
            _case(v, checks=("vanishing_heat",), gammas=(3.0,)), grid,
            variant="heat", gamma=3.0)
        unlisted = _case(v)
        assert unlisted.table.order == 2
        assert np.array_equal(vanishing_limit_check(
            unlisted, grid, variant="heat", gamma=3.0)[1][1], listed[1][1])

    def test_gammas_with_one_floor_share_one_curve(self, monkeypatch):
        from dampex import experiments
        calls = []
        real = experiments.norm_curve
        monkeypatch.setattr(experiments, "norm_curve",
                            lambda *args, **kwargs: calls.append(1)
                            or real(*args, **kwargs))
        gammas = (0.0, 0.5, 2.0, 2.5)
        case = _case(Gaussian(dimension=1, scale=1.0),
                     checks=("vanishing_heat",), gammas=gammas)
        reports = [vanishing_limit_check(case, TimeGrid(1.0, 1e4, 5),
                                         variant="heat", gamma=g)
                   for g in gammas]
        assert len(calls) == 2
        # one raw curve, scaled by each gamma's own exponent
        (ts, scaled_0), (_, scaled_1) = (curve for _, curve in reports[:2])
        assert np.allclose(scaled_1, scaled_0 * ts ** 0.25,
                           rtol=1e-14, atol=0.0)


# 40-digit references for the heat-vanishing norms: each datum's transform
# and its Taylor coefficients in xi (1-D) or in r = |xi| (radial 2-D data)
def _gaussian_series(mp, amplitude, scale, degree):
    """Taylor coefficients of amplitude 2 sqrt(pi scale) e^{-scale x^2}."""
    out = [mp.mpf(0)] * (degree + 1)
    for k in range(degree // 2 + 1):
        out[2 * k] = (amplitude * 2 * mp.sqrt(mp.pi * scale) * (-scale) ** k
                      / mp.factorial(k))
    return out


def _heat_gap_reference(mp, name):
    """(datum pair, transform, Taylor coefficients to degree 3, dimension)."""
    half, degree = mp.mpf(1) / 2, 3
    if name == "gauss-1d":
        u1_amp = mp.mpf(2) / 5
        coeffs = [a + b for a, b in zip(
            _gaussian_series(mp, 1, 1, degree),
            _gaussian_series(mp, u1_amp, half, degree))]
        return ((Gaussian(1, 1.0), Gaussian(1, 0.5, 0.4)),
                lambda x: (2 * mp.sqrt(mp.pi) * mp.exp(-x * x) + u1_amp * 2
                           * mp.sqrt(mp.pi * half) * mp.exp(-half * x * x)),
                coeffs, 1)
    if name == "box":
        coeffs = [2 * (-1) ** (j // 2) / mp.factorial(j + 1) if j % 2 == 0
                  else mp.mpf(0) for j in range(degree + 1)]
        return ((Box(1, 1.0), zero_datum(1)),
                lambda x: 2 * mp.sin(x) / x if x else mp.mpf(2), coeffs, 1)
    if name == "shifted-gauss-1d":
        # e^{-i c xi} times the Gaussian's series, multiplied out
        phase = [(-1j * half) ** j / mp.factorial(j) for j in range(degree + 1)]
        gauss = _gaussian_series(mp, 1, 1, degree)
        coeffs = [mp.fsum(phase[i] * gauss[j - i] for i in range(j + 1))
                  for j in range(degree + 1)]
        return ((Shifted(base=Gaussian(1, 1.0), center=(0.5,), dilation=1.0),
                 zero_datum(1)),
                lambda x: mp.exp(-1j * half * x) * 2 * mp.sqrt(mp.pi)
                * mp.exp(-x * x), coeffs, 1)
    # the 2-D unit Gaussian is radial: 4 pi e^{-r^2}
    coeffs = [2 * mp.sqrt(mp.pi) * c for c in _gaussian_series(mp, 1, 1, degree)]
    return ((Gaussian(2, 1.0), zero_datum(2)),
            lambda r: 4 * mp.pi * mp.exp(-r * r), coeffs, 2)


def _heat_gap_norm(mp, transform, coeffs, m, t, dimension):
    """|| (v_hat - P_m) e^{-t|xi|^2} ||_{L2(R^n)}: the Taylor remainder
    subtracted at the working precision.  |remainder|^2 is even in 1-D
    (real data) and radial in 2-D."""
    def remainder_sq(x):
        return abs(transform(x) - mp.polyval(coeffs[:m + 1][::-1], x)) ** 2

    weight = 2 if dimension == 1 else 2 * mp.pi
    width = 1 / mp.sqrt(t)
    splits = [0] + [width * 4 ** j for j in range(-2, 4)] + [mp.inf]
    total = mp.quad(lambda x: weight * x ** (dimension - 1) * remainder_sq(x)
                    * mp.exp(-2 * t * x * x), splits)
    return mp.sqrt(total)


@pytest.mark.parametrize("name", ["gauss-1d", "box", "shifted-gauss-1d",
                                  "gauss-2d"])
def test_heat_gap_norms_match_the_taylor_remainder(name):
    # the moment-series tail on the low-frequency ball has no cancellation:
    # at gamma >= 2 and t = 1e4 the direct difference was off by up to 7.5e-8
    mp = pytest.importorskip("mpmath")
    grid = TimeGrid(1.0, 1e4, 3)
    with mp.workdps(40):
        (u0, u1), transform, coeffs, n = _heat_gap_reference(mp, name)
        case = Case(name, u0, u1, checks=("vanishing_heat",), gammas=(0.0, 2.0))
        for m in (0, 2):
            ts, norms = case.vanishing_curve(m, 0.0, grid, 1e-9)
            for t, norm in zip(ts, norms):
                ref = _heat_gap_norm(mp, transform, coeffs, m, mp.mpf(float(t)), n)
                assert abs(norm - ref) <= 1e-12 * ref, (m, t, norm, ref)


@pytest.mark.parametrize("k", [2, 4])
def test_heat_ratios_match_the_taylor_remainder(k):
    # the heat residual is the heat-vanishing curve at order k - 1; its own
    # direct difference v_hat - P_{k-1} was off by 7.3e-8 at k = 4, t = 1e4
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        (u0, u1), transform, coeffs, n = _heat_gap_reference(mp, "box")
        _, (ts, heat_ratios) = heat_comparison(
            Case("box", u0, u1, k_values=(k,)), k, TimeGrid(1.0, 1e4, 5))
        # || M_k xi^k e^{-xi^2} ||_{L2(R)} with the box's M_k = 2 / (k+1)!
        full = 2 / mp.factorial(k + 1) * mp.sqrt(mp.quad(
            lambda x: x ** (2 * k) * mp.exp(-2 * x * x), [-mp.inf, 0, mp.inf]))
        for t, ratio in zip(ts, heat_ratios):
            t = mp.mpf(t)
            norm = _heat_gap_norm(mp, transform, coeffs, k - 1, t, n)
            ref = norm / (full * t ** (-mp.mpf(1) / 4 - mp.mpf(k) / 2))
            assert abs(ratio - ref) <= 1e-12 * ref, (t, ratio, ref)


class TestHeatComparison:
    def test_constants_agree_low_orders(self, grid):
        for v in (Gaussian(dimension=1, scale=1.0),
                  Shifted(base=Gaussian(dimension=1, scale=1.0),
                          center=(0.6,), dilation=1.0)):
            case = _case(v, k_values=(0, 1))
            for k in (0, 1):
                rep, _ = heat_comparison(case, k, TimeGrid(100.0, 1e4, 3))
                assert rep["relative_gap"] <= 1e-12
                assert rep["status"] == "pass"

    def test_gaussian_splits_at_order_two(self):
        rep, _ = heat_comparison(_case(Gaussian(dimension=1, scale=1.0),
                                       k_values=(2,)), 2, TimeGrid(100.0, 1e4, 3))
        assert rep["increment_constant"] == 0.0
        assert rep["heat_constant"] > 1e-2

    def test_heat_sandwich_holds(self):
        rep, (_, heat_ratios) = heat_comparison(
            _case(Gaussian(dimension=1, scale=1.0)), 0, TimeGrid(100.0, 1e4, 5))
        assert rep["empirical_delta"] == 100.0
        assert all(r >= 0.5 for r in heat_ratios)

    def test_zero_data_constants_both_vanish(self):
        rep, _ = heat_comparison(_case(zero_datum(1)), 0,
                                 TimeGrid(100.0, 1e3, 3))
        assert rep["increment_constant"] == 0.0
        assert rep["heat_constant"] == 0.0
        assert rep["relative_gap"] == 0.0


class TestPropertySuite:
    def test_all_pass_for_catalog_case(self):
        v = Shifted(base=Gaussian(dimension=2, scale=1.0), center=(0.4, -0.3),
                    dilation=1.0)
        case = _case(v, checks=("properties",), k_values=(2,))
        assert case.property_order == 4
        reports = property_suite(case)
        assert reports and all(r["status"] == "pass" for r in reports)
        assert all(r["case"] == "case" for r in reports)


@pytest.fixture(scope="module")
def small_config():
    return {
        "seed": 7,
        "t_grid": {"t_min": 100.0, "t_max": 1e4, "points": 5},
        "vanishing_t_grid": {"t_min": 1.0, "t_max": 1e3, "points": 7},
        "cases": [
            {"name": "g1", "data": {
                "dimension": 1,
                "u0": {"family": "gaussian", "scale": 1.0},
                "u1": {"family": "zero"}},
             "k_values": [0],
             "checks": ["rate", "sandwich", "heat", "vanishing_heat",
                        "properties"],
             "gammas": [0.0]},
        ],
    }


class TestRunReport:
    def test_bundle_passes_and_writes_files(self, small_config, tmp_path):
        summary = run_report(small_config, tmp_path / "out")
        assert summary["passed"]
        names = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert "summary.json" in names
        assert "norms_k0_g1.csv" in names
        assert "ratios_k0_g1.csv" in names
        assert not [name for name in names if name.endswith(".dat")]

    def test_summary_is_bitwise_deterministic(self, small_config, tmp_path):
        run_report(small_config, tmp_path / "a")
        run_report(small_config, tmp_path / "b")
        assert (tmp_path / "a" / "summary.json").read_bytes() == \
            (tmp_path / "b" / "summary.json").read_bytes()

    def test_exit_contract_failure_is_reported(self, small_config, tmp_path):
        bad = json.loads(json.dumps(small_config))
        bad["rate_tolerance"] = 1e-12      # unreachable on purpose
        summary = run_report(bad, tmp_path / "bad")
        assert not summary["passed"]
        assert summary["n_failed"] >= 1

    def test_degenerate_case_is_recorded_not_failed(self, tmp_path):
        cfg = {
            "t_grid": {"t_min": 100.0, "t_max": 1e3, "points": 3},
            "cases": [{"name": "degenerate",
                       "data": {"dimension": 1,
                                "u0": {"family": "gaussian", "scale": 1.0},
                                "u1": {"family": "zero"}},
                       "k_values": [2],
                       "checks": ["rate", "sandwich"]}],
        }
        summary = run_report(cfg, tmp_path / "deg")
        statuses = {e["check"]: e["status"] for e in summary["entries"]}
        assert statuses["rate"] == "rejected"
        assert statuses["sandwich"] == "skipped"
        assert summary["passed"]

    def test_empty_case_list_is_success(self, tmp_path):
        summary = run_report({"cases": []}, tmp_path / "empty")
        assert summary["passed"]
        assert summary["entries"] == []

    def test_empty_k_range_is_success(self, tmp_path):
        cfg = {"cases": [{"name": "nothing",
                          "data": {"dimension": 1,
                                   "u0": {"family": "gaussian"},
                                   "u1": {"family": "zero"}},
                          "k_values": [],
                          "checks": ["rate", "sandwich", "properties"]}]}
        summary = run_report(cfg, tmp_path / "nok")
        assert summary["passed"]

    def test_curve_files_are_the_names_validation_measured(self, tmp_path,
                                                            monkeypatch):
        cfg = {"t_grid": {"t_min": 100.0, "t_max": 1e3, "points": 3},
               "cases": [{"name": "box",
                          "data": {"dimension": 1,
                                   "u0": {"family": "box", "half_width": 1.0},
                                   "u1": {"family": "zero"}},
                          "k_values": [0, 2],
                          "checks": ["rate", "sandwich"]}]}
        measured = []
        real = Case.curve_file

        def recording(case, check, k):
            measured.append(real(case, check, k)[1])
            return real(case, check, k)

        monkeypatch.setattr(Case, "curve_file", recording)
        validate_config(cfg)
        names = sorted(measured)
        summary = run_report(cfg, tmp_path / "out")
        assert summary["passed"]
        written = sorted(p.name for p in (tmp_path / "out").iterdir()
                         if p.suffix == ".csv")
        assert written == names and len(names) == 4

    def test_validation_rejects_low_t_min(self):
        with pytest.raises(ConfigError):
            validate_config({"t_grid": {"t_min": 0.5, "t_max": 10.0,
                                        "points": 3},
                             "cases": []})

    def test_validation_rejects_unknown_check(self):
        with pytest.raises(ConfigError):
            validate_config({"cases": [{
                "name": "x",
                "data": {"dimension": 1,
                         "u0": {"family": "zero"},
                         "u1": {"family": "zero"}},
                "checks": ["teleport"]}]})

    def test_default_config_is_valid(self):
        validate_config(default_config())

    def test_left_out_settings_take_the_default_config_values(self):
        # one table holds the defaults; a caller that changes the config it
        # got changes neither the next one nor what a bare campaign reads
        changed = default_config()
        changed["t_grid"]["points"] = 3
        changed["quad_tol"] = 1e-3
        settings = {**default_config(), "cases": []}
        bare = validate_config({"cases": []})
        assert bare == validate_config(settings)
        assert (bare.grid, bare.tol) == (TimeGrid(100.0, 1e4, 9), 1e-9)

    @pytest.mark.parametrize("where, key", [
        (None, None), ("top", "quad_tolerance"), ("case", "k_value"),
        ("pair", "u2")])
    def test_schema_and_validation_agree_on_unknown_keys(self, where, key):
        cfg = default_config()
        if where is not None:
            case = cfg["cases"][0]
            {"top": cfg, "case": case, "pair": case["data"]}[where][key] = 1
        assert self._schema_and_code_accept(cfg) == (where is None,) * 2

    @pytest.mark.parametrize("where, key, value", [
        ("datum", "scale", "1.0"), ("datum", "scale", True),
        ("datum", "amplitude", "2"), ("datum", "amplitude", False),
        ("datum", "dimension", True), ("shifted", "center", ["0.3", 0.1]),
        ("shifted", "center", "12"), ("shifted", "dilation", True),
        ("pair", "dimension", True), ("pair", "dimension", 4),
        ("pair", "dimension", None), ("case", "name", 5),
        ("case", "name", "a/b"), ("case", "name", "a\0b")])
    def test_schema_and_validation_agree_on_values(self, where, key, value):
        cfg = default_config()
        gauss, _, shifted = cfg["cases"]
        target = {"datum": gauss["data"]["u0"], "pair": gauss["data"],
                  "shifted": shifted["data"]["u0"], "case": gauss}[where]
        if value is None:
            # the pair drops its dimension and its data carry their own
            del target[key]
            for datum in ("u0", "u1"):
                target[datum]["dimension"] = 1
        else:
            target[key] = value
        assert self._schema_and_code_accept(cfg) == (False, False)

    @staticmethod
    def _schema_and_code_accept(cfg):
        """Whether config-schema.json and validate_config accept ``cfg``."""
        schema = json.loads((Path(dampex.__file__).parent / "config-schema.json")
                            .read_text(encoding="utf-8"))
        try:
            validate_config(cfg)
            code_ok = True
        except ConfigError:
            code_ok = False
        return jsonschema.Draft202012Validator(schema).is_valid(cfg), code_ok

    def test_load_config_round_trip(self, small_config, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(small_config), encoding="utf-8")
        assert load_config(p) == small_config


class TestFailVerdicts:
    """A residual or heat-residual curve a thousand times too small keeps
    every ratio below 1/2: the sandwich and the heat comparison fail with
    no empirical delta, the report counts both and ``dampex report``
    exits 1.  The rate fit only sees the curve's slope and passes."""

    @staticmethod
    def _shrink(monkeypatch, method):
        real = getattr(Case, method)

        def shrunk(self, *args):
            ts, norms = real(self, *args)
            return ts, norms * 1e-3

        monkeypatch.setattr(Case, method, shrunk)

    def test_a_small_residual_fails_the_sandwich(self, grid, monkeypatch):
        self._shrink(monkeypatch, "residual_curve")
        rep, (_, ratios) = sandwich_check(
            _case(Gaussian(dimension=1, scale=1.0)), 0, grid)
        assert rep["status"] == "fail" and rep["empirical_delta"] is None
        assert np.all(ratios < 0.5)

    def test_a_small_heat_residual_fails_the_comparison(self, grid,
                                                        monkeypatch):
        self._shrink(monkeypatch, "vanishing_curve")
        rep, (_, ratios) = heat_comparison(
            _case(Gaussian(dimension=1, scale=1.0)), 0, grid)
        assert rep["relative_gap"] <= 1e-12
        assert rep["status"] == "fail" and rep["empirical_delta"] is None
        assert np.all(ratios < 0.5)

    def test_the_report_counts_both_and_exits_1(self, small_config, tmp_path,
                                               monkeypatch):
        self._shrink(monkeypatch, "residual_curve")
        self._shrink(monkeypatch, "vanishing_curve")
        summary = run_report(small_config, tmp_path / "out")
        statuses = {e["check"]: e["status"] for e in summary["entries"]
                    if e["check"] != "property"}
        assert statuses == {"rate": "pass", "sandwich": "fail",
                            "heat": "fail", "vanishing_heat": "pass"}
        assert summary["n_failed"] == 2 and not summary["passed"]
        config = tmp_path / "config.json"
        config.write_text(json.dumps(small_config), encoding="utf-8")
        assert main(["report", "--config", str(config),
                     "--out-dir", str(tmp_path / "cli")]) == 1


def _counting(calls, key, fn):
    def wrapper(*args, **kwargs):
        calls[key(*args, **kwargs)] += 1
        return fn(*args, **kwargs)
    return wrapper


class TestCampaignState:
    """Every campaign does its own work: per-case state, no module caches."""

    # the heat-vanishing gap from the moment-series tail moved only the
    # vanishing_heat terminal_fraction and peak_fraction fields at gamma 2
    # and 2.5, by 4.8e-9 relative; at gamma 0 and 0.5 the tail's ball lies
    # inside 1/sqrt(t_max) and the fields kept their bytes.  Moments from
    # normalised axis moments moved one field: the shifted-gauss-2d
    # homogeneity max_deviation at k = 3, 8.476354428112349e-17 ->
    # 7.823655490691388e-17.  math.gamma and the incomplete-gamma series in
    # place of scipy.special moved ten fields by 2-3 ulps: lower_constant,
    # min_ratio and upper_envelope (sandwich), increment_constant and
    # heat_constant (heat) of box-1d k = 2 and shifted-gauss-2d k = 1.
    # Property checks on exact coefficients in place of 100 sampled points
    # moved the max_deviation of all 14 property entries and nothing else:
    # gauss-1d homogeneity k = 2 9.524364786302343e-17 -> 0.0; box-1d
    # additivity k = 2 1.5920896932338453e-16 -> 0.0, recurrence k = 2
    # 0.0 -> 3.3306690738754695e-17, homogeneity k = 2
    # 2.338583240411117e-16 -> 0.0, additivity k = 4 7.317955259395423e-17
    # -> 0.0, recurrence k = 4 9.535640696692233e-17 ->
    # 3.503797911873947e-17, homogeneity k = 4 2.225047014192066e-16 -> 0.0;
    # shifted-gauss-2d homogeneity k = 1 2.3257855665673016e-16 -> 0.0,
    # additivity k = 2 1.323002155524255e-17 -> 0.0, recurrence k = 2
    # 3.3147164962192016e-17 -> 0.0, homogeneity k = 2
    # 1.1415580103045311e-16 -> 0.0, additivity k = 3 7.063650495059712e-18
    # -> 0.0, recurrence k = 3 7.575601117178397e-17 -> 0.0, homogeneity
    # k = 3 7.823655490691388e-17 -> 0.0.  The closed-form line in place of
    # np.polyfit moved only the four rate entries' slope (at most 1.8e-15
    # relative), intercept (7.1e-14) and fit_residual (3.4e-9), and made
    # the bytes the same under every AVX2-or-later OpenBLAS kernel.  One
    # doubling heat ladder per curve in place of the union of the times'
    # ratio-10 ladders moved fit_residual by at most 6.8e-10 relative,
    # intercept 4.0e-12, the vanishing fractions 8.6e-13, min_ratio 3.1e-13,
    # slope 9.3e-14 and upper_envelope 6.8e-16, and no status.  One stack
    # of rows per case for its full-space curves, on shared panels, moved
    # box-1d k = 2's fit_residual by 1.5e-10 relative, intercept 1.3e-12,
    # min_ratio 3.9e-14 and slope 3.3e-14, upper_envelope at k = 0 of
    # gauss-1d and box-1d by 1.8e-16 and the vanishing_heat
    # terminal_fraction and peak_fraction at gamma 2 and 2.5 by 1.6e-16;
    # shifted-gauss-2d kept its bytes, and no status moved
    DEFAULT_SUMMARY_SHA256 = (
        "ce31987dc4926c46bcda2bf1ec89093d8acbb13d555a33f381327d4c2eec18a1")

    def test_two_campaigns_do_the_same_quadrature_work(self, tmp_path,
                                                      quadratures):
        work, outputs = [], []
        for run in ("a", "b"):
            quadratures.clear()
            run_report(default_config(), tmp_path / run)
            work.append((len(quadratures),
                         sum(res.evaluations for _, res in quadratures)))
            outputs.append({p.name: p.read_bytes()
                            for p in (tmp_path / run).iterdir()})
        # one stack of full-space curves per case (one heat-vanishing row
        # set per floor of gamma) and the low-frequency ball, none
        # stalling; the panels break only at LOW_RADIUS, HIGH_RADIUS, the
        # tail balls and one doubling heat ladder, which an unbounded norm
        # also stops at
        assert work == [(4, 798), (4, 798)]
        assert outputs[0] == outputs[1]

    def test_default_campaign_accepts_no_stall(self, tmp_path, quadratures):
        # each of the three stacks and the ball converges on the initial
        # panels of its doubling heat ladder, in one round
        assert run_report(default_config(), tmp_path / "out")["passed"]
        assert [rounds for rounds, _ in quadratures] == [1] * 4
        assert not any(res.stalled for _, res in quadratures)

    @staticmethod
    def _count_builds(monkeypatch):
        """Count moment tables and expansion polynomials by every name the
        package binds them under."""
        from collections import Counter
        from dampex import expansion, experiments, initial_data, norms
        counts = Counter()
        for name, real in (("moment_table", initial_data.moment_table),
                           ("build_expansion", expansion.build_expansion)):
            for module in (initial_data, expansion, norms, experiments):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, _counting(
                        counts, lambda *args, _name=name, **kwargs: _name, real))
        return counts

    def test_residual_curve_reads_the_case_profile(self, grid, monkeypatch):
        case = _case(Box(1, 1.0), checks=("rate",), k_values=(2,))
        case.expansion("A", 1)
        counts = self._count_builds(monkeypatch)
        ts, norms = case.residual_curve(2, grid, 1e-9)
        assert not counts
        assert len(norms) == len(ts) and np.all(norms > 0)

    def test_default_campaign_table_and_build_counts(self, tmp_path,
                                                     monkeypatch):
        # the residual curves read each case's A_{k-1}: four tables and four
        # polynomials fewer than when each curve built its own.  The series
        # ball grows the case's one table, and the heat-vanishing head and
        # tail and both heat constants read the case's C_j: twelve tables
        # and twelve polynomials fewer than when the ball grew private
        # tables and each of those built its own C_j
        counts = self._count_builds(monkeypatch)
        run_report(default_config(), tmp_path / "out")
        assert counts == {"moment_table": 8, "build_expansion": 61}

    def test_the_case_table_grows_without_moving_a_polynomial(self, grid):
        # A_{-1} reads no moments, so either curve may be a fresh case's
        # first call
        v = Shifted(base=Gaussian(dimension=2, scale=1.0), center=(0.5, -0.3),
                    dilation=1.0)
        for first in (lambda case: case.residual_curve(0, grid, 1e-9),
                      lambda case: case.vanishing_curve(-1, 0.0, grid, 1e-9)):
            ts, norms = first(_case(v, checks=("rate", "heat")))
            assert len(norms) == len(ts) and np.all(norms > 0)
        # polynomials built before the series ball grew the table keep
        # the terms a table to the grown order gives them
        case = _case(v, checks=("heat", "properties"), k_values=(1,))
        built = {(kind, k): case.expansion(kind, k)
                 for kind in ("A", "B", "C")
                 for k in range(-1 if kind == "A" else 0,
                                case.property_order + 1)}
        start = case.table.order
        case.vanishing_curve(0, 0.0, grid, 1e-9)
        grown = case.table.order
        assert grown > start == case.moment_order
        table = moment_table(case.solution.v, grown)
        for (kind, k), poly in built.items():
            assert poly.terms == build_expansion(kind, k, table).terms

    def test_default_campaign_field_calls_per_curve(self, tmp_path,
                                                    monkeypatch):
        # a field call holds whole shells up to BATCH_POINTS values, and the
        # truncation probe's interior shells ride in its first bundle's
        # call; a change to either shows here, and so does the size of a
        # shell (one direction of each antipodal pair).  Each quadrature in
        # campaign order: its region, dimension, rows and field calls
        from dampex import experiments
        curves = []
        real = experiments.norm_curve

        def spied(f, region, ts, *args, **kwargs):
            record = ["ball" if region.bounded else "full", region.dimension,
                      len(ts), 0]
            curves.append(record)

            def counted(*fargs):
                record[-1] += 1
                return f(*fargs)
            return real(counted, region, ts, *args, **kwargs)

        monkeypatch.setattr(experiments, "norm_curve", spied)
        run_report(default_config(), tmp_path / "out")
        assert curves == [
            # gauss-1d: one stack of the rate and sandwich residual (9
            # times), the heat gap at k - 1 (9) and two gamma floors (17
            # each); the low-frequency half ball (bounded: no truncation)
            ["full", 1, 52, 3], ["ball", 1, 17, 1],
            # box-1d: residuals and heat gaps at k = 0 and 2
            ["full", 1, 36, 2],
            # shifted-gauss-2d: the residual and the heat gap at k = 1
            ["full", 2, 18, 4]]

    def test_default_campaign_builds_each_time_grid_once(self, tmp_path,
                                                         monkeypatch):
        # the two grids build their times when the config is checked; the
        # eleven curves read them
        calls, geomspace = [], np.geomspace
        monkeypatch.setattr(np, "geomspace",
                            lambda *a, **k: calls.append(a) or geomspace(*a, **k))
        run_report(default_config(), tmp_path / "out")
        assert calls == [(100.0, 1e4, 9), (1.0, 1e4, 17)]

    def test_default_summary_bytes_and_build_counts(self, tmp_path,
                                                    monkeypatch):
        import hashlib
        from collections import Counter
        from dampex import expansion, experiments
        builds = Counter()
        monkeypatch.setattr(experiments, "build_expansion", _counting(
            builds, lambda kind, k, table: (id(table), kind, k),
            expansion.build_expansion))
        summary = run_report(default_config(), tmp_path / "out")
        digest = hashlib.sha256(
            (tmp_path / "out" / "summary.json").read_bytes()).hexdigest()
        assert digest == self.DEFAULT_SUMMARY_SHA256
        # each (case, kind, order) polynomial is built once per campaign
        assert builds and max(builds.values()) == 1
        assert summary["passed"]


def _read_curve(case, key, tol):
    """The curve ``key`` (a key of ``Case.integrate_curves``) of ``case``,
    read through the accessor a check reads it by."""
    if key[0] == "residual":
        return case.residual_curve(*key[1:], tol)
    return case.vanishing_curve(*key[1:], tol)


def _drawn_config(seed, monkeypatch):
    """The benchmark's drawn campaign: ``default_config()`` with drawn data;
    ``default_config()`` itself for seed None."""
    if seed is None:
        return default_config()
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads
    return workloads.campaign_config(np.random.default_rng([seed, 1]),
                                     workloads.DatumLedger())


class TestCurveStacks:
    """``run_report`` integrates a case's full-space curves as one stack of
    rows; a curve asked for alone is a stack of one."""

    # sha256 prefixes of the norms' bytes when each curve was its own
    # quadrature, before stacks: the residual in 1-D and 2-D, the heat gap
    # at k - 1 and the heat-vanishing gap without and with a tail ball
    LONE_SHA256 = {
        ("gauss-1d", "residual", 0, "t_grid"): "245910b07c0410cc",
        ("gauss-1d", "vanishing", -1, "t_grid"): "eeb9bc50538893a9",
        ("gauss-1d", "vanishing", 0, "vanishing_t_grid"): "35dcbc41e7b868cf",
        ("gauss-1d", "vanishing", 2, "vanishing_t_grid"): "95e5e82b0144e422",
        ("box-1d", "residual", 0, "t_grid"): "da6412dd6d6c151f",
        ("box-1d", "vanishing", -1, "t_grid"): "f92a9a43562faad8",
        ("box-1d", "residual", 2, "t_grid"): "d3d7f1b58430cb0d",
        ("box-1d", "vanishing", 1, "t_grid"): "14509405994ce248",
        ("shifted-gauss-2d", "residual", 1, "t_grid"): "fc77bfb73b2d8063",
        ("shifted-gauss-2d", "vanishing", 0, "t_grid"): "cdf0430297ff42d8",
    }

    @pytest.mark.parametrize("name, kind, order, grid_key", list(LONE_SHA256),
                             ids=lambda part: str(part))
    def test_a_curve_alone_keeps_its_bytes(self, name, kind, order, grid_key):
        import hashlib
        run = validate_config(default_config())
        case = next(case for case in run.cases if case.name == name)
        grid = run.grid if grid_key == "t_grid" else run.vanishing_grid
        key = ((kind, order, grid) if kind == "residual"
               else (kind, order, 0.0, grid))
        ts, norms = _read_curve(case, key, run.tol)
        assert ts is grid.values()
        digest = hashlib.sha256(norms.tobytes()).hexdigest()[:16]
        assert digest == self.LONE_SHA256[name, kind, order, grid_key]

    @pytest.mark.parametrize("seed", [None, 1, 2, 3])
    def test_stacked_curves_agree_with_lone_ones(self, seed, tmp_path,
                                                 monkeypatch):
        from dampex import experiments
        cfg = _drawn_config(seed, monkeypatch)
        stacked, alone = validate_config(cfg), validate_config(cfg)
        for case, lone in zip(stacked.cases, alone.cases):
            keys = experiments._curve_keys(case, stacked)
            case.integrate_curves(keys, stacked.tol)
            for key in keys:
                ts, norms = _read_curve(case, key, stacked.tol)
                lone_ts, lone_norms = _read_curve(lone, key, stacked.tol)
                assert np.array_equal(ts, lone_ts)
                assert np.allclose(norms, lone_norms, rtol=1e-11, atol=0.0)
        statuses = [e["status"] for e in run_report(
            cfg, tmp_path / "stacked")["entries"]]
        # with no curve named up front, each check integrates its own
        monkeypatch.setattr(experiments, "_curve_keys", lambda case, run: [])
        assert [e["status"] for e in run_report(
            cfg, tmp_path / "lone")["entries"]] == statuses

    def test_the_stack_holds_only_the_curves_the_checks_read(self, tmp_path,
                                                             monkeypatch):
        # zero mass: the order-0 increment vanishes, and the rate and
        # sandwich checks read no curve at k = 0, so none is integrated.  A
        # repeated k and gammas with one floor give one row set each
        from dampex import experiments
        events = []
        real_stack, real_curve = Case.integrate_curves, experiments.norm_curve
        real_fit = experiments.fit_decay_rate
        monkeypatch.setattr(Case, "integrate_curves", lambda case, keys, tol:
                            events.append(("stack", list(keys)))
                            or real_stack(case, keys, tol))
        monkeypatch.setattr(experiments, "norm_curve",
                            lambda f, region, ts, *args, **kwargs:
                            events.append(("rows", len(ts)))
                            or real_curve(f, region, ts, *args, **kwargs))
        monkeypatch.setattr(experiments, "fit_decay_rate",
                            lambda *args, **kwargs: events.append(("rate",))
                            or real_fit(*args, **kwargs))
        cfg = {"cases": [{
            "name": "odd", "k_values": [0, 1, 1], "gammas": [0.0, 0.5, 1.0],
            "checks": ["rate", "sandwich", "heat", "vanishing_heat"],
            "data": {"dimension": 1, "u1": {"family": "zero"},
                     "u0": {"family": "gaussian_monomial", "exponents": [1]}}}]}
        summary = run_report(cfg, tmp_path / "out")
        run = validate_config(cfg)
        grid, late = run.grid, run.vanishing_grid
        assert events[:2] == [
            ("stack", [("vanishing", -1, 0.0, grid), ("residual", 1, grid),
                       ("vanishing", 0, 0.0, grid), ("residual", 1, grid),
                       ("vanishing", 0, 0.0, grid), ("vanishing", 0, 0.0, late),
                       ("vanishing", 0, 0.0, late), ("vanishing", 1, 0.0, late)]),
            # the residual at k = 1 and heat gaps at -1 and 0 on the t grid
            # (9 times each); gaps at 0 and 1 on the vanishing grid (17)
            ("rows", 3 * 9 + 2 * 17)]
        assert events[2:] == [("rate",)] * 3
        statuses = {(e["check"], e.get("k")): e["status"]
                    for e in summary["entries"]}
        assert statuses["rate", 0] == "rejected"
        assert statuses["sandwich", 0] == "skipped"
        assert statuses["rate", 1] == "pass"


def _field_calls(monkeypatch):
    """Per field call of every ``norm_curve``, the ``Shells`` built in it
    and the arguments of each integrand call; and the ``Shells`` built
    outside any field call."""
    from dampex import experiments, norms, spectral
    calls, stray = [], []
    real_init, real_curve = spectral.Shells.__init__, norms.norm_curve

    def init(self, *args):
        real_init(self, *args)
        (calls[-1]["built"] if calls else stray).append(self)

    def curve(f, *args, **kwargs):
        def integrand(*received):
            calls[-1]["received"].append(received)
            return f(*received)
        return real_curve(integrand, *args, **kwargs)

    def spied(real):
        def sampling(field, *args, **kwargs):
            def counted(radii, dirs):
                calls.append({"built": [], "received": []})
                return field(radii, dirs)
            return real(counted, *args, **kwargs)
        return sampling

    monkeypatch.setattr(spectral.Shells, "__init__", init)
    for module in (norms, experiments):
        monkeypatch.setattr(module, "norm_curve", curve)
    for name in ("integrate_radial", "truncation_radius"):
        monkeypatch.setattr(norms, name, spied(getattr(norms, name)))
    return calls, stray


@pytest.mark.parametrize("run", ["campaign", "norm"])
def test_every_field_call_hands_its_integrand_one_shells(run, tmp_path,
                                                         monkeypatch):
    # the default campaign's stacks and low-frequency ball, and one
    # ``dampex norm`` request: each field call builds one Shells, and its
    # integrand receives that object and nothing else
    calls, stray = _field_calls(monkeypatch)
    if run == "campaign":
        run_report(default_config(), tmp_path / "out")
    else:
        data = tmp_path / "pair.json"
        data.write_text(json.dumps({
            "dimension": 2, "u0": {"family": "gaussian", "scale": 1.0},
            "u1": {"family": "box", "half_width": 0.8}}), encoding="utf-8")
        assert main(["norm", "--data", str(data), "--t", "10", "--k", "1",
                     "--out", str(tmp_path / "norm.json")]) == 0
    assert calls and not stray
    assert [len(call["built"]) for call in calls] == [1] * len(calls)
    for call in calls:
        [(received,)] = call["received"]
        assert received is call["built"][0]


def _openblas_config():
    """numpy's OpenBLAS build line, or "" for another BLAS."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return blas.get("openblas configuration") or ""
    except (KeyError, TypeError, ValueError):
        return ""


# the instructions each forced kernel runs; a CPU without them would trap
_KERNEL_NEEDS = {"SkylakeX": "AVX512F", "Haswell": "AVX2", "Zen": "AVX2"}


@pytest.mark.parametrize("kernel", sorted(_KERNEL_NEEDS))
def test_default_summary_bytes_under_every_avx2_blas_kernel(kernel, tmp_path):
    """The default campaign writes the pinned summary bytes whichever
    AVX2-or-later OpenBLAS kernel runs it.

    OPENBLAS_CORETYPE forces a kernel on the child process alone.  The
    pre-AVX2 kernels (Prescott, Nehalem, Sandybridge) are left out: their
    dot products sum the quadrature's ``@`` reductions (``_gk21``,
    ``angular_sums``, ``_sums_and_roundoff``) in another order, which moves
    the curves by up to 3e-16 and so the bytes.
    """
    import hashlib
    import os
    import subprocess
    import sys
    if "DYNAMIC_ARCH" not in _openblas_config():
        pytest.skip("numpy's BLAS is not an OpenBLAS built with DYNAMIC_ARCH, "
                    "so OPENBLAS_CORETYPE picks no kernel")
    from numpy._core._multiarray_umath import __cpu_features__
    if not __cpu_features__.get(_KERNEL_NEEDS[kernel]):
        pytest.skip(f"this CPU lacks {_KERNEL_NEEDS[kernel]}, which the "
                    f"{kernel} kernel needs")
    src = str(Path(dampex.__file__).parents[1])
    code = ("import sys; from dampex import default_config, run_report; "
            "run_report(default_config(), sys.argv[1])")
    env = {**os.environ, "OPENBLAS_CORETYPE": kernel,
           "PYTHONPATH": os.pathsep.join(
               [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    run = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    digest = hashlib.sha256((tmp_path / "summary.json").read_bytes())
    assert digest.hexdigest() == TestCampaignState.DEFAULT_SUMMARY_SHA256
