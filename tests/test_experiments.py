"""Campaign machinery: fits, sandwiches, limit proxies, report bundles."""

import json
import math
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import dampex
from dampex import (Box, Case, ConfigError, DegenerateDataError, Gaussian,
                    Shifted, TimeGrid, default_config, expected_decay_slope,
                    fit_decay_rate, heat_comparison, property_suite,
                    run_report, sandwich_check, vanishing_limit_check,
                    zero_datum)
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


class TestRateFit:
    def test_gaussian_leading_order(self, grid):
        fit = fit_decay_rate(_case(Gaussian(dimension=1, scale=1.0)), 0, grid)
        assert fit.expected_slope == -0.25
        assert fit.within(0.05)
        assert fit.residual < 1e-3

    def test_degenerate_increment_is_rejected(self, grid):
        with pytest.raises(DegenerateDataError):
            fit_decay_rate(_case(Gaussian(dimension=1, scale=1.0),
                                 k_values=(2,)), 2, grid)

    def test_expected_slopes_table(self):
        assert expected_decay_slope(1, 0) == -0.25
        assert expected_decay_slope(2, 1) == -1.0
        assert expected_decay_slope(3, 0) == -0.75


class TestSandwich:
    def test_ratios_bracketed(self, grid):
        rep = sandwich_check(_case(Gaussian(dimension=1, scale=1.0)), 0, grid)
        assert rep.empirical_delta == grid.t_min
        assert all(r >= 0.5 for r in rep.ratios)
        assert math.isfinite(rep.upper_envelope)
        assert rep.satisfied

    def test_reruns_are_identical(self, grid):
        u0 = Gaussian(dimension=1, scale=1.0)
        first = sandwich_check(_case(u0), 0, grid)
        second = sandwich_check(_case(u0), 0, grid)
        assert first.ratios == second.ratios

    def test_zero_data_is_degenerate(self, grid):
        with pytest.raises(DegenerateDataError):
            sandwich_check(_case(zero_datum(1)), 0, grid)


class TestVanishingChecks:
    @pytest.mark.parametrize("gamma", [0.0, 1.0, 2.0, 2.5])
    def test_heat_variant_decays(self, gamma):
        case = _case(Gaussian(dimension=1, scale=1.0),
                     checks=("vanishing_heat",), gammas=(gamma,))
        rep = vanishing_limit_check(case, TimeGrid(1.0, 1e4, 13),
                                    variant="heat", gamma=gamma)
        assert rep.passed, rep

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_low_frequency_variant_decays(self, k):
        case = _case(Gaussian(dimension=1, scale=1.0),
                     checks=("vanishing_low_frequency",), k_values=(k,))
        rep = vanishing_limit_check(case, TimeGrid(1.0, 1e4, 13),
                                    variant="low_frequency", k=k)
        assert rep.passed, rep

    def test_zero_data_is_vacuous(self):
        case = _case(zero_datum(1), checks=("vanishing_heat",), gammas=(1.0,))
        rep = vanishing_limit_check(case, TimeGrid(1.0, 100.0, 5),
                                    variant="heat", gamma=1.0)
        assert rep.passed and rep.terminal_fraction == 0.0

    def test_ell_weight_variant(self):
        case = _case(Gaussian(dimension=1, scale=1.0),
                     checks=("vanishing_heat",), gammas=(1.0,), ells=(1.0,))
        rep = vanishing_limit_check(case, TimeGrid(1.0, 1e4, 9),
                                    variant="heat", gamma=1.0, ell=1.0)
        assert rep.passed

    def test_uncentered_data_decays_too(self):
        v = Shifted(base=Gaussian(dimension=2, scale=1.0), center=(0.5, -0.3),
                    dilation=1.0)
        case = _case(v, checks=("vanishing_heat",), gammas=(1.0,))
        rep = vanishing_limit_check(case, TimeGrid(1.0, 1e4, 13),
                                    variant="heat", gamma=1.0)
        assert rep.passed

    def test_head_fraction_is_transient_sensitive(self):
        # a pre-asymptotic hump can put the t_min value below the peak; the
        # head-relative fraction then overstates the tail while the
        # peak-relative diagnostic and a later grid start both clear it
        v = Shifted(base=Gaussian(dimension=2, scale=1.0), center=(0.5, -0.3),
                    dilation=1.0)
        case = _case(v, checks=("vanishing_low_frequency",), k_values=(1,))
        early = vanishing_limit_check(case, TimeGrid(1.0, 1e4, 13),
                                      variant="low_frequency", k=1)
        assert early.tail_decreasing
        assert not early.passed
        assert early.peak_fraction < 0.1 < early.terminal_fraction
        later = vanishing_limit_check(case, TimeGrid(10.0, 1e4, 13),
                                      variant="low_frequency", k=1)
        assert later.passed

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
        assert vanishing_limit_check(unlisted, grid, variant="heat",
                                     gamma=3.0).scaled == listed.scaled

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
        ts = np.array(reports[0].ts)
        assert np.allclose(np.array(reports[1].scaled),
                           np.array(reports[0].scaled) * ts ** 0.25,
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
        rep = heat_comparison(Case("box", u0, u1, k_values=(k,)), k,
                              TimeGrid(1.0, 1e4, 5))
        # || M_k xi^k e^{-xi^2} ||_{L2(R)} with the box's M_k = 2 / (k+1)!
        full = 2 / mp.factorial(k + 1) * mp.sqrt(mp.quad(
            lambda x: x ** (2 * k) * mp.exp(-2 * x * x), [-mp.inf, 0, mp.inf]))
        for t, ratio in zip(rep.ts, rep.heat_ratios):
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
                rep = heat_comparison(case, k, TimeGrid(100.0, 1e4, 3))
                assert rep.relative_gap <= 1e-12

    def test_gaussian_splits_at_order_two(self):
        rep = heat_comparison(_case(Gaussian(dimension=1, scale=1.0),
                                    k_values=(2,)), 2, TimeGrid(100.0, 1e4, 3))
        assert rep.increment_constant == 0.0
        assert rep.heat_constant > 1e-2

    def test_heat_sandwich_holds(self):
        rep = heat_comparison(_case(Gaussian(dimension=1, scale=1.0)), 0,
                              TimeGrid(100.0, 1e4, 5))
        assert rep.empirical_delta == 100.0
        assert all(r >= 0.5 for r in rep.heat_ratios)

    def test_zero_data_constants_both_vanish(self):
        rep = heat_comparison(_case(zero_datum(1)), 0, TimeGrid(100.0, 1e3, 3))
        assert rep.increment_constant == 0.0
        assert rep.heat_constant == 0.0
        assert rep.relative_gap == 0.0


class TestPropertySuite:
    def test_all_pass_for_catalog_case(self, rng):
        v = Shifted(base=Gaussian(dimension=2, scale=1.0), center=(0.4, -0.3),
                    dilation=1.0)
        case = _case(v, checks=("properties",), k_values=(2,))
        assert case.property_order == 4
        reports = property_suite(case, rng)
        assert reports and all(r.passed for r in reports)


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
        bundle = run_report(small_config, tmp_path / "out")
        assert bundle.passed
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
        bundle = run_report(bad, tmp_path / "bad")
        assert not bundle.passed
        assert bundle.summary["n_failed"] >= 1

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
        bundle = run_report(cfg, tmp_path / "deg")
        statuses = {e["check"]: e["status"] for e in bundle.summary["entries"]}
        assert statuses["rate"] == "rejected"
        assert statuses["sandwich"] == "skipped"
        assert bundle.passed

    def test_empty_case_list_is_success(self, tmp_path):
        bundle = run_report({"cases": []}, tmp_path / "empty")
        assert bundle.passed
        assert bundle.summary["entries"] == []

    def test_empty_k_range_is_success(self, tmp_path):
        cfg = {"cases": [{"name": "nothing",
                          "data": {"dimension": 1,
                                   "u0": {"family": "gaussian"},
                                   "u1": {"family": "zero"}},
                          "k_values": [],
                          "checks": ["rate", "sandwich", "properties"]}]}
        bundle = run_report(cfg, tmp_path / "nok")
        assert bundle.passed

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

    @pytest.mark.parametrize("where, key", [
        (None, None), ("top", "quad_tolerance"), ("case", "k_value"),
        ("pair", "u2")])
    def test_schema_and_validation_agree_on_unknown_keys(self, where, key):
        schema = json.loads((Path(dampex.__file__).parent / "config-schema.json")
                            .read_text(encoding="utf-8"))
        cfg = default_config()
        if where is not None:
            case = cfg["cases"][0]
            {"top": cfg, "case": case, "pair": case["data"]}[where][key] = 1
        schema_ok = jsonschema.Draft202012Validator(schema).is_valid(cfg)
        try:
            validate_config(cfg)
            code_ok = True
        except ConfigError:
            code_ok = False
        assert schema_ok == code_ok == (where is None)

    def test_load_config_round_trip(self, small_config, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(small_config), encoding="utf-8")
        assert load_config(p) == small_config


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
    # heat_constant (heat) of box-1d k = 2 and shifted-gauss-2d k = 1
    DEFAULT_SUMMARY_SHA256 = (
        "edf994c3af36e44c42888be4018265a46b722f9044931cfa3f9248a5d2c68914")

    @staticmethod
    def _count_quadratures(monkeypatch):
        """Record (evaluations, stalled) of every adaptive_1d result."""
        from dampex import initial_data, norms, quadrature
        results = []
        real = quadrature.adaptive_1d

        def counted(*args, **kwargs):
            res = real(*args, **kwargs)
            results.append((res.evaluations, res.stalled))
            return res

        for module in (quadrature, norms, initial_data):
            monkeypatch.setattr(module, "adaptive_1d", counted)
        return results

    def test_two_campaigns_do_the_same_quadrature_work(self, tmp_path,
                                                      monkeypatch):
        results = self._count_quadratures(monkeypatch)
        work, outputs = [], []
        for run in ("a", "b"):
            results.clear()
            bundle = run_report(default_config(), tmp_path / run)
            work.append((len(results), sum(e for e, _ in results)))
            outputs.append({p.name: p.read_bytes() for p in bundle.files})
        # one heat-vanishing curve per floor of gamma, none stalling; the
        # residual panels break only at LOW_RADIUS and HIGH_RADIUS
        assert work == [(11, 5691), (11, 5691)]
        assert outputs[0] == outputs[1]

    def test_default_campaign_accepts_no_stall(self, tmp_path, monkeypatch):
        results = self._count_quadratures(monkeypatch)
        assert run_report(default_config(), tmp_path / "out").passed
        assert results and not any(stalled for _, stalled in results)

    def test_default_summary_bytes_and_build_counts(self, tmp_path,
                                                    monkeypatch):
        import hashlib
        from collections import Counter
        from dampex import expansion, experiments
        builds, samples = Counter(), Counter()
        monkeypatch.setattr(experiments, "build_expansion", _counting(
            builds, lambda kind, k, table: (id(table), kind, k),
            expansion.build_expansion))

        class CountedSample(expansion.PointSample):
            def __init__(self, points):
                samples["all"] += 1
                super().__init__(points)

        for module in (expansion, experiments):
            monkeypatch.setattr(module, "PointSample", CountedSample)
        cfg = default_config()
        bundle = run_report(cfg, tmp_path / "out")
        digest = hashlib.sha256(
            (tmp_path / "out" / "summary.json").read_bytes()).hexdigest()
        assert digest == self.DEFAULT_SUMMARY_SHA256
        # each (case, kind, order) polynomial is built once per campaign
        assert builds and max(builds.values()) == 1
        # one sample per order shared by the A and B checks, plus C's scaled one
        orders = sum(max(case["k_values"]) + 3 for case in cfg["cases"]
                     if "properties" in case["checks"])
        assert samples["all"] == 2 * orders
        assert bundle.passed
