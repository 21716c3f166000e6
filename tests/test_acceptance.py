"""Acceptance suite: one test per shipped guarantee, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance is pinned here; nothing is calibrated
at runtime.
"""

import math
import time

import numpy as np
import pytest

from dampex import (Box, Case, Gaussian, REPRESENTATIONS, Shifted,
                    SpectralSolution, TimeGrid, build_expansion,
                    fit_decay_rate, heat_comparison, heat_increment_norm,
                    moment_table, region_l2_norm, sandwich_check,
                    vanishing_limit_check, zero_datum)
from dampex.norms import FrequencyRegion

from conftest import catalog_all
from oracles import (IDENTITY_TOLERANCE, identity_gaps,
                     increment_lower_constant, increment_lower_constant_1d)

SEED = 20250810


def _stamp(label, t0):
    elapsed = time.monotonic() - t0
    print(f"[PASS] {label} ({elapsed:.1f}s)")
    return elapsed


def _weighted(poly):
    return lambda pts: poly(pts) * np.exp(-np.sum(pts * pts, axis=-1))


# -- criterion 1 -------------------------------------------------------------

def test_gaussian_order_two_increment_vanishes_structurally():
    t0 = time.monotonic()
    for n in (1, 2, 3):
        table = moment_table(Gaussian(dimension=n, scale=1.0), 2)
        b2 = build_expansion("B", 2, table)
        assert b2.is_structurally_zero, f"n={n}: leftover {b2.canonical}"
        if n == 1:
            assert increment_lower_constant_1d(2, table) == 0.0
        else:
            assert increment_lower_constant(2, table) == 0.0
        assert heat_increment_norm(2, table) > 0.0
    elapsed = _stamp("gaussian-order-two-increment-structural-zero", t0)
    assert elapsed < 1.0


# -- criterion 2 -------------------------------------------------------------

def test_increment_constants_match_quadrature_1d():
    t0 = time.monotonic()
    data = [Gaussian(dimension=1, scale=1.0),
            Box(dimension=1, half_width=1.0),
            Shifted(base=Gaussian(dimension=1, scale=1.0), center=(0.6,),
                    dilation=1.0)]
    for v in data:
        table = moment_table(v, 6)
        for k in range(7):
            closed = increment_lower_constant_1d(k, table)
            poly = build_expansion("B", k, table)
            quad = region_l2_norm(_weighted(poly), FrequencyRegion.ball(0.5, 1),
                                  1e-10).value
            if closed == 0.0:
                assert quad <= 1e-12
            else:
                assert abs(quad - closed) <= 1e-8 * closed, (v.family, k)
    elapsed = _stamp("one-dimensional-increment-constants-vs-quadrature", t0)
    assert elapsed < 10.0


# -- criterion 3 -------------------------------------------------------------

def test_increment_constants_match_quadrature_nd():
    t0 = time.monotonic()
    data = [Gaussian(dimension=2, scale=0.25),
            Box(dimension=2, half_width=1.0),
            Shifted(base=Gaussian(dimension=2, scale=1.0), center=(0.4, -0.3),
                    dilation=1.0),          # off-diagonal second moment
            Gaussian(dimension=3, scale=0.25),
            Shifted(base=Gaussian(dimension=3, scale=1.0),
                    center=(0.4, -0.3, 0.2), dilation=1.0)]
    saw_anisotropic = False
    for v in data:
        table = moment_table(v, 2)
        mixed = tuple(1 if i < 2 else 0 for i in range(v.dimension))
        saw_anisotropic |= table.raw(mixed) != 0.0
        for k in (0, 1, 2):
            closed = increment_lower_constant(k, table)
            poly = build_expansion("B", k, table)
            quad = region_l2_norm(_weighted(poly),
                                  FrequencyRegion.ball(0.5, v.dimension),
                                  1e-9).value
            if closed == 0.0:
                assert quad <= 1e-10
            else:
                assert abs(quad - closed) <= 1e-6 * closed, (v.family, k)
    assert saw_anisotropic
    elapsed = _stamp("higher-dimensional-increment-constants-vs-quadrature", t0)
    assert elapsed < 60.0


# -- criterion 4 -------------------------------------------------------------

def test_representation_equivalence_and_band_continuity():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED)
    u0 = Gaussian(dimension=1, scale=1.0)
    u1 = Gaussian(dimension=1, scale=0.6, amplitude=0.7)
    sols = {1: SpectralSolution(u0=u0, u1=u1),
            2: SpectralSolution(u0=Gaussian(dimension=2, scale=1.0),
                                u1=Gaussian(dimension=2, scale=0.6,
                                            amplitude=0.7)),
            3: SpectralSolution(u0=Gaussian(dimension=3, scale=1.0),
                                u1=Gaussian(dimension=3, scale=0.6,
                                            amplitude=0.7))}
    worst = 0.0
    for i in range(1000):
        n = (i % 3) + 1
        sol = sols[n]
        t = float(rng.uniform(0.0, 50.0))
        while True:
            xi = rng.uniform(-2.0 / math.sqrt(n), 2.0 / math.sqrt(n), size=n)
            if abs(float(xi @ xi) - 1.0) > 0.05:
                break
        vals = [complex(sol.evaluate(t, xi, rep=r)) for r in REPRESENTATIONS]
        scale = max(abs(v) for v in vals)
        if scale > 0:
            worst = max(worst, max(abs(a - b) for a in vals for b in vals) / scale)
    assert worst <= 1e-12, worst

    sol = sols[1]
    for t in (0.5, 2.0, 50.0):
        for center in (1.0 - 1e-3, 1.0, 1.0 + 1e-3):
            radii = np.linspace(center - 5e-7, center + 5e-7, 1001)
            vals = sol.evaluate(t, radii[:, None])
            assert float(np.max(np.abs(np.diff(vals)))) <= 1e-8
    elapsed = _stamp("representation-equivalence-and-band-continuity", t0)
    assert elapsed < 5.0


# -- criteria 5 and 6 --------------------------------------------------------

DECAY_CASES = [
    ("n1-k0", Gaussian(dimension=1, scale=1.0),
     Gaussian(dimension=1, scale=0.5, amplitude=0.4), 0),
    ("n1-k1", Shifted(base=Gaussian(dimension=1, scale=1.0), center=(0.6,),
                      dilation=1.0), zero_datum(1), 1),
    ("n1-k2-box", Box(dimension=1, half_width=1.0), zero_datum(1), 2),
    ("n2-k0", Gaussian(dimension=2, scale=1.0), zero_datum(2), 0),
    ("n2-k1", Shifted(base=Gaussian(dimension=2, scale=1.0),
                      center=(0.5, -0.3), dilation=1.0), zero_datum(2), 1),
    ("n2-k2", Gaussian(dimension=2, scale=0.25), zero_datum(2), 2),
    ("n3-k0", Gaussian(dimension=3, scale=1.0), zero_datum(3), 0),
]


@pytest.fixture(scope="module")
def decay_grid():
    return TimeGrid(100.0, 1.0e4, 13)


@pytest.fixture(scope="module")
def decay_fits(decay_grid):
    t0 = time.monotonic()
    cases = {name: (Case(name, u0, u1, k_values=(k,)), k)
             for name, u0, u1, k in DECAY_CASES}
    fits = {name: (fit_decay_rate(case, k, decay_grid, tolerance=0.05)[0],
                   sandwich_check(case, k, decay_grid))
            for name, (case, k) in cases.items()}
    return fits, time.monotonic() - t0


def test_decay_rates_match_the_stated_exponents(decay_fits):
    fits, elapsed = decay_fits
    t0 = time.monotonic()
    for name, (fit, _) in fits.items():
        assert fit["status"] == "pass", (name, fit["slope"],
                                         fit["expected_slope"])
    total = elapsed + (time.monotonic() - t0)
    print(f"[PASS] decay-rate-exponents ({total:.1f}s incl. curves)")
    assert total < 600.0


def test_two_sided_bounds_hold_beyond_reported_delta(decay_fits):
    fits, _ = decay_fits
    t0 = time.monotonic()
    for name, (_, (sw, (ts, ratios))) in fits.items():
        assert sw["empirical_delta"] is not None, name
        kept = [r for t, r in zip(ts, ratios) if t >= sw["empirical_delta"]]
        assert all(r >= 0.5 for r in kept), name
        assert math.isfinite(sw["upper_envelope"]), name
    _stamp("two-sided-decay-bounds", t0)


# -- criterion 7 -------------------------------------------------------------

def test_scaled_remainders_decay():
    t0 = time.monotonic()
    v = Gaussian(dimension=1, scale=1.0)
    grid = TimeGrid(1.0, 1.0e4, 25)
    case = Case("gauss", v, zero_datum(1), k_values=(0, 1, 2),
                checks=("vanishing_heat", "vanishing_low_frequency"),
                gammas=(0.0, 1.0, 2.0, 2.5))
    for gamma in (0.0, 1.0, 2.0, 2.5):
        rep, _ = vanishing_limit_check(case, grid, variant="heat", gamma=gamma)
        assert rep["tail_decreasing"], gamma
        assert rep["terminal_fraction"] < 0.1, (gamma, rep)
    for k in (0, 1, 2):
        rep, _ = vanishing_limit_check(case, grid, variant="low_frequency", k=k)
        assert rep["tail_decreasing"], k
        assert rep["terminal_fraction"] < 0.1, (k, rep)
    elapsed = _stamp("scaled-remainder-decay", t0)
    assert elapsed < 300.0


# -- criterion 8 -------------------------------------------------------------

def test_heat_flow_increment_comparison():
    t0 = time.monotonic()
    grid = TimeGrid(100.0, 1.0e4, 3)
    for v in catalog_all():
        case = Case("catalog", v, zero_datum(v.dimension), k_values=(0, 1))
        for k in (0, 1):
            rep, _ = heat_comparison(case, k, grid)
            assert rep["relative_gap"] <= 1e-12, (v.family, v.dimension, k)
    gauss = Gaussian(dimension=1, scale=1.0)
    rep, _ = heat_comparison(Case("gauss", gauss, zero_datum(1),
                                  k_values=(2,)), 2, grid)
    mass = abs(moment_table(gauss, 0).moment((0,)))
    assert rep["increment_constant"] == 0.0
    assert rep["heat_constant"] > 1e-2 * mass
    _stamp("heat-flow-increment-comparison", t0)


# -- criterion 9 -------------------------------------------------------------

def test_expansion_identities_under_fixed_seed():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED)

    for v in [Gaussian(dimension=1, scale=1.0),
              Box(dimension=1, half_width=1.0),
              Shifted(base=Gaussian(dimension=2, scale=1.0),
                      center=(0.4, -0.3), dilation=1.0),
              Gaussian(dimension=3, scale=1.0)]:
        k_max = 6 if v.dimension < 3 else 4
        table = moment_table(v, k_max)
        # the identities compared on the canonical coefficients
        for name, k, gap in identity_gaps(table, k_max):
            assert gap <= IDENTITY_TOLERANCE[name], (v.family, name, k, gap)
        for k in range(k_max + 1):
            # increments and flat layers are homogeneous of exact degree k
            for kind in ("B", "C"):
                for term in build_expansion(kind, k, table).terms:
                    assert term.radial_power + sum(term.monomial) == k
            assert all(t.radial_power + sum(t.monomial) <= k
                       for t in build_expansion("A", k, table).terms)
            # a flat layer vanishes exactly when its moments do
            flat = build_expansion("C", k, table)
            layer_moments = [table.moment(a) for a in
                             _layer_indices(v.dimension, k)]
            assert flat.is_structurally_zero == all(m == 0.0
                                                    for m in layer_moments)

    # dynamics: the transformed solution solves its characteristic ODE and
    # matches both initial conditions
    h = 1e-4
    sol = SpectralSolution(u0=Gaussian(dimension=1, scale=1.0),
                           u1=Gaussian(dimension=1, scale=0.6, amplitude=0.7))
    for _ in range(100):
        t = float(rng.uniform(h, 8.0))
        xi = rng.uniform(-2.0, 2.0, size=1)
        s = float(xi @ xi)
        um, u, up = (complex(sol.evaluate(t + dt, xi, rep="2.4"))
                     for dt in (-h, 0.0, h))
        utt = (up - 2 * u + um) / h**2
        ut = (up - um) / (2 * h)
        resid = utt + (1 + s) * ut + s * u
        scale = max(abs(utt), (1 + s) * abs(ut), s * abs(u), abs(u))
        assert abs(resid) <= 1e-6 * scale
    for _ in range(50):
        xi = rng.uniform(-2.0, 2.0, size=1)
        f0 = complex(sol.u0.fourier_transform(xi[None, :])[0])
        f1 = complex(sol.u1.fourier_transform(xi[None, :])[0])
        val0 = complex(sol.evaluate(0.0, xi))
        slope = (-3 * val0 + 4 * complex(sol.evaluate(h, xi))
                 - complex(sol.evaluate(2 * h, xi))) / (2 * h)
        assert abs(val0 - f0) <= 1e-6 * max(abs(f0), 1e-12)
        assert abs(slope - f1) <= 1e-6 * max(abs(f1), 1.0)
    _stamp("expansion-identities-fixed-seed", t0)


def _layer_indices(dimension, k):
    from dampex.indices import indices_of_degree
    return indices_of_degree(dimension, k)
