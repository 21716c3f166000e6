"""Verification campaigns: decay-rate fits, two-sided sandwich checks,
vanishing-limit proxies, heat-flow comparison and the property suite.

Everything here is deterministic: quadrature is adaptive but seeded by
nothing, random frequency samples come from an explicit seed, and report
payloads carry no wall-clock data, so identical configs produce identical
JSON output byte for byte.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigError, DegenerateDataError
from .expansion import (PointSample, build_expansion, check_property_A,
                        check_property_B, check_property_C, combine,
                        heat_partial_sum, series_ball)
from .indices import degree
from .initial_data import (MAX_MOMENT_ORDER, InitialDatum, MomentTable,
                           check_keys, moment_table, pair_from_config)
from .norms import (LOW_RADIUS, FrequencyRegion, heat_increment_norm,
                    norm_curve, poly_gaussian_l2_norm, residual_norm_curve)
from .spectral import LowFrequencySymbol, SpectralSolution

DEGENERACY_FLOOR = 1e-12


@dataclass(frozen=True)
class TimeGrid:
    """Geometric time grid; the decay estimates only claim t >= 1."""

    t_min: float
    t_max: float
    points: int

    def __post_init__(self):
        _nonnegative(self.t_min, "t_min")
        _nonnegative(self.t_max, "t_max")
        # 9.0 reads as 9, as JSON Schema's "integer" reads it
        object.__setattr__(self, "points", _integer(self.points, "points"))
        if self.t_min < 1.0:
            raise ConfigError("t_min must be at least 1")
        if self.t_max <= self.t_min:
            raise ConfigError("t_max must exceed t_min")
        if self.points < 2:
            raise ConfigError("a grid needs at least two points")

    def values(self) -> np.ndarray:
        return np.geomspace(self.t_min, self.t_max, self.points)


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    residual: float            # max |log norm - fit| over the fitted points
    t_lo: float
    t_hi: float
    expected_slope: float
    k: int
    ts: tuple[float, ...]           # the whole residual curve
    norms: tuple[float, ...]

    def within(self, tolerance: float) -> bool:
        return abs(self.slope - self.expected_slope) <= tolerance


@dataclass(frozen=True)
class SandwichReport:
    k: int
    lower_constant: float           # || B_k e^{-|xi|^2} || on the half ball
    ts: tuple[float, ...]
    norms: tuple[float, ...]
    ratios: tuple[float, ...]       # norm / (L t^{-n/4-k/2})
    empirical_delta: float | None   # first grid t with ratio >= 1/2 onwards
    upper_envelope: float

    @property
    def satisfied(self) -> bool:
        return (self.empirical_delta is not None
                and math.isfinite(self.upper_envelope))


@dataclass(frozen=True)
class VanishingReport:
    variant: str                     # "heat" or "low_frequency"
    exponent: float                  # t-power applied to the raw norm
    ts: tuple[float, ...]
    scaled: tuple[float, ...]
    tail_decreasing: bool
    terminal_fraction: float         # last value / value at t_min
    peak_fraction: float             # last value / grid maximum (diagnostic)
    target_fraction: float

    @property
    def passed(self) -> bool:
        return self.tail_decreasing and self.terminal_fraction < self.target_fraction


@dataclass(frozen=True)
class HeatComparisonReport:
    k: int
    increment_constant: float        # damped-wave increment, half ball
    heat_constant: float             # heat increment, half ball
    relative_gap: float
    heat_full_constant: float        # || C_k e^{-|xi|^2} || over R^n
    ts: tuple[float, ...]
    heat_ratios: tuple[float, ...]   # heat residual / (full constant * t^-rate)
    empirical_delta: float | None


def expected_decay_slope(dimension: int, k: int) -> float:
    return -dimension / 4.0 - k / 2.0


_CHECKS = ("rate", "sandwich", "heat", "vanishing_heat",
           "vanishing_low_frequency", "properties")
_DEFAULT_CHECKS = ("rate", "sandwich", "heat", "properties")
_CASE_KEYS = {"name", "data", "k_values", "checks", "gammas", "ells"}
_CAMPAIGN_KEYS = {"seed", "quad_tol", "rate_tolerance", "property_tolerance",
                  "decay_fraction", "t_grid", "vanishing_t_grid", "cases"}


@dataclass(eq=False)
class Case:
    """One campaign case: the data pair, its checks and the work they share
    (moment table, polynomials, increment constants, residual and
    vanishing curves), each computed on first use and kept as long as the
    case."""

    name: str
    u0: InitialDatum
    u1: InitialDatum
    checks: tuple[str, ...] = _DEFAULT_CHECKS
    k_values: tuple[int, ...] = (0,)
    gammas: tuple[float, ...] = (0.0,)
    ells: tuple[float, ...] = (0.0,)
    _memo: dict = field(init=False, default_factory=dict, repr=False)

    @classmethod
    def from_config(cls, cfg) -> Case:
        """Parse and check one entry of a campaign's "cases" list."""
        if not isinstance(cfg, dict) or "name" not in cfg or "data" not in cfg:
            raise ConfigError('every case needs "name" and "data"')
        check_keys(cfg, _CASE_KEYS, f"case {cfg['name']!r}")
        u0, u1 = pair_from_config(cfg["data"])
        # gammas and ells stay as given: the summary echoes them
        case = cls(name=cfg["name"], u0=u0, u1=u1,
                   checks=_listed(cfg, "checks", _DEFAULT_CHECKS, _known_check),
                   k_values=_listed(cfg, "k_values", (0,), _integer),
                   gammas=_listed(cfg, "gammas", (0.0,), _nonnegative),
                   ells=_listed(cfg, "ells", (0.0,), _nonnegative))
        if case.moment_order > MAX_MOMENT_ORDER:
            raise ConfigError(
                f"case {case.name!r} reads moments to order "
                f"{case.moment_order}, whose factorial overflows a float")
        return case

    @cached_property
    def solution(self) -> SpectralSolution:
        return SpectralSolution(u0=self.u0, u1=self.u1)

    @property
    def property_order(self) -> int:
        """The highest order the property suite checks."""
        return max(self.k_values, default=0) + 2

    @cached_property
    def moment_order(self) -> int:
        """The largest moment order any of the checks reads."""
        orders = [0]
        if {"rate", "sandwich", "heat", "vanishing_low_frequency"} & set(self.checks):
            orders += self.k_values
        if "vanishing_heat" in self.checks:
            orders += [math.floor(g) for g in self.gammas]
        if "properties" in self.checks:
            orders.append(self.property_order)
        return max(orders)

    @cached_property
    def table(self) -> MomentTable:
        """Moments up to ``moment_order``."""
        return moment_table(self.solution.v, self.moment_order)

    def _once(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def expansion(self, kind: str, k: int):
        """The kind/order polynomial of v = u0 + u1, built once."""
        return self._once(("expansion", kind, k),
                          lambda: build_expansion(kind, k, self.table))

    def increment_constant(self, k: int) -> float:
        """Half-ball norm of the order-k increment, by the exact monomial algebra."""
        return self._once(("increment", k), lambda: poly_gaussian_l2_norm(
            self.expansion("B", k), radius=0.5))

    def moment_scale(self, k: int) -> float:
        """The largest |moment| of order at most k, and at least 1."""
        return max(1.0, max(abs(m) for alpha, m in self.table.entries.items()
                            if degree(alpha) <= k))

    def residual_curve(self, k: int, grid: TimeGrid, tol: float):
        """Grid times and the full-space residual norms for A_{k-1}."""
        def compute():
            ts = grid.values()
            curve = residual_norm_curve(self.solution, ts, k, tol=tol)
            return ts, np.array([nrm.value for nrm in curve])
        return self._once(("curve", k, grid, tol), compute)

    def tail_ball(self, m: int):
        """The radius, at most LOW_RADIUS, of the ball on which the
        heat-vanishing gap past order m is the moment-series tail, the
        tail's top order and a moment table to that order (``series_ball``)."""
        return self._once(("tail ball", m), lambda: series_ball(
            self.solution.v, m, LOW_RADIUS))

    def vanishing_curve(self, m: int, ell: float, grid: TimeGrid, tol: float):
        """Grid times and the norms || |xi|^ell (v_hat - P_m) e^{-t|xi|^2} ||
        over R^n, P_m the moment series to order m.  Every gamma with
        floor m shares the curve.

        Near xi = 0 the difference v_hat - P_m cancels; inside the
        ``tail_ball`` the gap is the series tail past m instead, and the
        ball's radius is a panel breakpoint.  A ball inside the heat scale
        1/sqrt(t) of every grid time holds too small a share of the norms
        for the difference's roundoff in it to count, and is not used.
        """
        def compute():
            v = self.solution.v
            ts = grid.values()
            rho, top, table = self.tail_ball(m)
            if rho * rho * ts[-1] < 1.0:
                rho, top = 0.0, m
            head = heat_partial_sum(table, m)
            # no layers only when rho = 0: no point is inside then
            tail = combine([build_expansion("C", j, table)
                            for j in range(m + 1, top + 1)] or [head])

            def base(radii, dirs):
                pts = radii[:, None, None] * dirs
                inner = radii < rho
                out = np.empty(pts.shape[:-1], dtype=complex)
                if inner.any():
                    out[inner] = tail(pts[inner])
                out[~inner] = v.fourier_transform(pts[~inner]) - head(pts[~inner])
                return out

            return ts, _weighted_norms(base, ell, FrequencyRegion.full(v.dimension),
                                       ts, tol, breakpoints=(rho,))
        return self._once(("vanishing", m, ell, grid, tol), compute)


def _weighted_norms(base, ell, region, ts, tol, breakpoints=()):
    """The norms over ``region`` of r^ell e^{-t r^2} base(radii, dirs), one
    per time of ``ts``; ``base`` returns the (R, m) values on shells."""
    def gap(ts, radii, dirs):
        weight = radii ** ell * np.exp(-np.multiply.outer(ts, radii * radii))
        return weight[..., None] * base(radii, dirs)

    curve = norm_curve(gap, region, ts, tol, inner_scales=1.0 / np.sqrt(ts),
                       breakpoints=breakpoints)
    return np.array([nrm.value for nrm in curve])


def fit_decay_rate(case: Case, k: int, grid: TimeGrid, tol=1e-9) -> RateFit:
    """Least-squares slope of log residual norm against log t.

    Fitted over the upper half of the grid, where the transient terms are
    dead.  Rejects data whose order-k increment vanishes: the decay is then
    strictly faster and the stated exponent does not apply.
    """
    L = case.increment_constant(k)
    if L <= DEGENERACY_FLOOR * case.moment_scale(k):
        raise DegenerateDataError(
            f"order-{k} increment vanishes (constant {L:.3e}); "
            "the residual decays faster than the fitted exponent")
    ts, norms = case.residual_curve(k, grid, tol)
    half = len(ts) // 2
    x = np.log(ts[half:])
    y = np.log(norms[half:])
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.max(np.abs(y - (slope * x + intercept))))
    return RateFit(slope=float(slope), intercept=float(intercept),
                   residual=resid, t_lo=float(ts[half]), t_hi=float(ts[-1]),
                   expected_slope=expected_decay_slope(case.solution.dimension, k),
                   k=k,
                   ts=tuple(map(float, ts)), norms=tuple(map(float, norms)))


def sandwich_check(case: Case, k: int, grid: TimeGrid, tol=1e-9) -> SandwichReport:
    """Two-sided decay check: L/2 <= norm(t) * t^{n/4+k/2} <= C.

    The lower constant L is the half-ball norm of the order-k increment;
    ``empirical_delta`` is the first grid time after which the ratio stays
    at or above 1/2 (the estimates only assert such a time exists).
    """
    L = case.increment_constant(k)
    if L <= DEGENERACY_FLOOR * case.moment_scale(k):
        raise DegenerateDataError(
            f"order-{k} increment vanishes; the sandwich is vacuous")
    ts, norms = case.residual_curve(k, grid, tol)
    rate = expected_decay_slope(case.solution.dimension, k)
    ratios = norms / (L * ts ** rate)
    delta = _first_stable_time(ts, ratios, 0.5)
    return SandwichReport(k=k, lower_constant=L, ts=tuple(map(float, ts)),
                          norms=tuple(map(float, norms)),
                          ratios=tuple(map(float, ratios)),
                          empirical_delta=delta,
                          upper_envelope=float(np.max(ratios)))


def _first_stable_time(ts, ratios, threshold):
    """The first time from which on every ratio is >= threshold, or None."""
    bad = np.flatnonzero(~(np.asarray(ratios) >= threshold))
    start = bad[-1] + 1 if len(bad) else 0
    return float(ts[start]) if start < len(ts) else None


def vanishing_limit_check(case: Case, grid: TimeGrid, *, variant="heat",
                          gamma=0.0, k=0, ell=0.0, target_fraction=0.1,
                          tol=1e-9) -> VanishingReport:
    """Decay proxy for the two scaled-remainder limits.

    variant "heat":  t^{n/4+gamma/2+ell/2} |||xi|^ell (v_hat - partial sum)
    e^{-t|xi|^2}||_{L2(R^n)}, the partial sum to order floor(gamma) (the
    case's ``vanishing_curve``);  variant "low_frequency": the same scaling with
    the symbol gap F^v - A_k on the half ball and exponent n/4+k/2+ell/2.
    A literal limit is not testable; the proxy asserts strict decrease over
    the last decade of the grid plus a small terminal-to-initial fraction.
    """
    v = case.solution.v
    n = v.dimension
    if variant == "heat":
        exponent = n / 4.0 + gamma / 2.0 + ell / 2.0
        ts, norms = case.vanishing_curve(math.floor(gamma), ell, grid, tol)
    elif variant == "low_frequency":
        exponent = n / 4.0 + k / 2.0 + ell / 2.0
        profile = case.expansion("A", k)
        symbol = LowFrequencySymbol(v)

        def base(radii, dirs):
            pts = radii[:, None, None] * dirs
            return symbol(pts) - profile(pts)

        ts = grid.values()
        norms = _weighted_norms(base, ell, FrequencyRegion.ball(0.5, n), ts, tol)
    else:
        raise ValueError("variant must be 'heat' or 'low_frequency'")
    scaled = ts ** exponent * norms
    tail = ts >= ts[-1] / 10.0
    tail_vals = scaled[tail]
    decreasing = bool(np.all(np.diff(tail_vals) < 0.0)) if len(tail_vals) > 1 else False
    head = scaled[0] if scaled[0] > 0 else 1e-300
    fraction = float(scaled[-1] / head)
    peak = float(np.max(scaled)) if np.max(scaled) > 0 else 1e-300
    peak_fraction = float(scaled[-1] / peak)
    if scaled[0] == 0.0 and scaled[-1] == 0.0:
        decreasing, fraction, peak_fraction = True, 0.0, 0.0  # zero gap is vacuous
    return VanishingReport(variant=variant, exponent=exponent,
                           ts=tuple(map(float, ts)),
                           scaled=tuple(map(float, scaled)),
                           tail_decreasing=decreasing,
                           terminal_fraction=fraction,
                           peak_fraction=peak_fraction,
                           target_fraction=target_fraction)


def heat_comparison(case: Case, k: int, grid: TimeGrid,
                    tol=1e-9) -> HeatComparisonReport:
    """Side-by-side lower-bound constants for the damped flow and the heat
    flow, plus the heat-flow sandwich ratios.

    The two increments coincide for k = 0, 1 and generally split at k = 2;
    the canonical Gaussian shows a vanishing damped increment against a
    positive heat increment there.
    """
    table = case.table
    inc = case.increment_constant(k)
    heat_half = heat_increment_norm(k, table, radius=0.5)
    heat_full = heat_increment_norm(k, table, radius=None)
    scale = max(inc, heat_half, 1e-300)
    gap = abs(inc - heat_half) / scale
    rate = expected_decay_slope(case.solution.dimension, k)
    # the heat residual || (v_hat - P_{k-1}) e^{-t|xi|^2} || is the
    # heat-vanishing curve at order k - 1 and ell = 0
    ts, norms = case.vanishing_curve(k - 1, 0.0, grid, tol)
    denom = heat_full * ts ** rate
    ratios = np.array([nrm / d if d > 0 else math.inf
                       for nrm, d in zip(norms.tolist(), denom)])
    delta = _first_stable_time(ts, ratios, 0.5) if heat_full > 0 else None
    return HeatComparisonReport(k=k, increment_constant=inc,
                                heat_constant=heat_half, relative_gap=gap,
                                heat_full_constant=heat_full,
                                ts=tuple(map(float, ts)),
                                heat_ratios=tuple(map(float, ratios)),
                                empirical_delta=delta)


def sample_ball(rng: np.random.Generator, dimension: int, count: int,
                radius=2.0) -> np.ndarray:
    """Uniform sample from the ball of the given radius."""
    g = rng.standard_normal((count, dimension))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    r = radius * rng.random(count) ** (1.0 / dimension)
    return g * r[:, None]


def property_suite(case: Case, rng: np.random.Generator, tolerance=1e-12,
                   sample_size=100):
    """Run the three polynomial identities for every order up to the
    case's ``property_order``, each order on one fresh sample of the ball.

    Per order the draws are the points, then the scale ``c``."""
    reports = []
    for k in range(case.property_order + 1):
        sample = PointSample(sample_ball(rng, case.solution.dimension,
                                         sample_size))
        b_k = case.expansion("B", k)
        reports.append(check_property_A(case.expansion("A", k),
                                        case.expansion("A", k - 1), b_k,
                                        sample, tolerance))
        if k >= 2:
            reports.append(check_property_B(b_k, case.expansion("B", k - 2),
                                            case.expansion("C", k), sample,
                                            tolerance))
        c = float(rng.uniform(0.1, 10.0))
        reports.append(check_property_C(b_k, c, sample, tolerance))
    return reports


# ---------------------------------------------------------------------------
# Campaign driver


def default_config() -> dict:
    """A bundled campaign that exercises every check in a few minutes."""
    return {
        "seed": 20250810,
        "quad_tol": 1e-9,
        "rate_tolerance": 0.05,
        "property_tolerance": 1e-12,
        "decay_fraction": 0.1,
        "t_grid": {"t_min": 100.0, "t_max": 1.0e4, "points": 9},
        "vanishing_t_grid": {"t_min": 1.0, "t_max": 1.0e4, "points": 17},
        "cases": [
            {
                "name": "gauss-1d",
                "data": {"dimension": 1,
                         "u0": {"family": "gaussian", "scale": 1.0},
                         "u1": {"family": "gaussian", "scale": 0.5,
                                "amplitude": 0.4}},
                "k_values": [0],
                "checks": ["rate", "sandwich", "heat", "vanishing_heat",
                           "vanishing_low_frequency", "properties"],
                "gammas": [0.0, 0.5, 2.0, 2.5],
                "ells": [0.0],
            },
            {
                "name": "box-1d",
                "data": {"dimension": 1,
                         "u0": {"family": "box", "half_width": 1.0},
                         "u1": {"family": "zero"}},
                "k_values": [0, 2],
                "checks": ["rate", "sandwich", "heat", "properties"],
            },
            {
                "name": "shifted-gauss-2d",
                "data": {"dimension": 2,
                         "u0": {"family": "shifted", "dilation": 1.0,
                                "center": [0.5, -0.3],
                                "base": {"family": "gaussian", "scale": 1.0,
                                         "dimension": 2}},
                         "u1": {"family": "zero"}},
                "k_values": [1],
                "checks": ["rate", "sandwich", "heat", "properties"],
            },
        ],
    }


def load_config(path) -> dict:
    """Read a JSON config (a campaign, a datum or a pair); ``run_report``
    checks a campaign before any output."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read JSON config {path}: {exc}") from exc


@dataclass(frozen=True)
class Campaign:
    """A checked campaign config: the shared settings and one Case per case."""

    grid: TimeGrid
    vanishing_grid: TimeGrid
    tol: float
    rate_tol: float
    prop_tol: float
    fraction: float
    seed: int
    cases: tuple[Case, ...]


def validate_config(cfg: dict) -> Campaign:
    """Check a campaign config by the rules of ``config-schema.json`` and
    parse it; every violation raises ConfigError."""
    if not isinstance(cfg, dict) or not isinstance(cfg.get("cases"), list):
        raise ConfigError('campaign config must be an object with a "cases" list')
    check_keys(cfg, _CAMPAIGN_KEYS, "the campaign")

    def setting(key, default, top=math.inf):
        x = _nonnegative(cfg.get(key, default), key)
        if not 0 < x <= top:
            raise ConfigError(f"{key} must lie in (0, {top:g}], got {x!r}")
        return float(x)

    return Campaign(
        grid=_grid(cfg, "t_grid", {"t_min": 100.0, "t_max": 1e4, "points": 9}),
        vanishing_grid=_grid(cfg, "vanishing_t_grid",
                             {"t_min": 1.0, "t_max": 1e4, "points": 17}),
        tol=setting("quad_tol", 1e-9),
        rate_tol=setting("rate_tolerance", 0.05),
        prop_tol=setting("property_tolerance", 1e-12),
        fraction=setting("decay_fraction", 0.1, top=1.0),
        seed=_integer(cfg.get("seed", 0), "seed"),
        cases=tuple(Case.from_config(case) for case in cfg["cases"]))


def _grid(cfg, key, default) -> TimeGrid:
    try:
        return TimeGrid(**cfg.get(key, default))
    except (TypeError, ConfigError) as exc:
        raise ConfigError(f"bad {key}: {exc}") from exc


def _integer(x, what) -> int:
    """``x`` as an int if it is an integer >= 0."""
    if isinstance(x, float) and x.is_integer():
        x = int(x)
    if isinstance(x, bool) or not isinstance(x, int) or x < 0:
        raise ConfigError(f"{what} must be an integer >= 0, got {x!r}")
    return x


def _nonnegative(x, what):
    """``x`` if it is a finite number >= 0."""
    if isinstance(x, bool) or not isinstance(x, (int, float)) or not 0 <= x < math.inf:
        raise ConfigError(f"{what} must be a finite number >= 0, got {x!r}")
    return x


def _known_check(name, what):
    if name not in _CHECKS:
        raise ConfigError(f"unknown check {name!r}")
    return name


def _listed(cfg, key, default, item) -> tuple:
    """The list under ``key``, each entry checked by ``item(entry, what)``."""
    values = cfg.get(key, default)
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{key} must be a list, got {values!r}")
    return tuple(item(x, f"{key} entry") for x in values)


@dataclass
class ReportBundle:
    summary: dict
    out_dir: Path
    files: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.summary["passed"]


def run_report(cfg: dict, out_dir) -> ReportBundle:
    """Execute a campaign and write summary.json plus per-case curve files."""
    run = validate_config(cfg)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    files = []
    for case in run.cases:
        curves = {}
        for k in case.k_values:
            if "rate" in case.checks:
                entries.append(_rate_entry(case, k, run, curves))
            if "sandwich" in case.checks:
                entries.append(_sandwich_entry(case, k, run, curves))
            if "heat" in case.checks:
                entries.append(_heat_entry(case, k, run))
        shared = {"target_fraction": run.fraction, "tol": run.tol}
        if "vanishing_heat" in case.checks:
            for gamma, ell in itertools.product(case.gammas, case.ells):
                rep = vanishing_limit_check(
                    case, run.vanishing_grid, variant="heat",
                    gamma=float(gamma), ell=float(ell), **shared)
                entries.append(_vanishing_entry(case.name, rep,
                                                {"gamma": gamma, "ell": ell}))
        if "vanishing_low_frequency" in case.checks:
            for k, ell in itertools.product(case.k_values, case.ells):
                rep = vanishing_limit_check(
                    case, run.vanishing_grid, variant="low_frequency",
                    k=k, ell=float(ell), **shared)
                entries.append(_vanishing_entry(case.name, rep,
                                                {"k": k, "ell": ell}))
        if "properties" in case.checks:
            rng = np.random.default_rng(run.seed)
            entries += [{"case": case.name, "check": "property",
                         "status": "pass" if rep.passed else "fail",
                         "name": rep.name, "k": rep.order,
                         "max_deviation": rep.max_deviation,
                         "tolerance": rep.tolerance}
                        for rep in property_suite(case, rng, run.prop_tol)]
        for label, (ts, vals) in curves.items():
            path = out_dir / f"{label}_{case.name}.csv"
            files.append(_write_csv(path, ("t", label), ts, vals))

    n_failed = sum(1 for e in entries if e["status"] == "fail")
    summary = {
        "config": cfg,
        "entries": entries,
        "n_failed": n_failed,
        "passed": n_failed == 0,
    }
    summary_path = out_dir / "summary.json"
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n",
                            encoding="utf-8")
    files.append(summary_path)
    return ReportBundle(summary=summary, out_dir=out_dir, files=files)


def _rate_entry(case, k, run, curves):
    try:
        fit = fit_decay_rate(case, k, run.grid, run.tol)
    except DegenerateDataError as exc:
        return {"case": case.name, "check": "rate", "k": k,
                "status": "rejected", "diagnostic": str(exc)}
    curves[f"norms_k{k}"] = (fit.ts, fit.norms)
    return {"case": case.name, "check": "rate", "k": k,
            "status": "pass" if fit.within(run.rate_tol) else "fail",
            "slope": fit.slope, "expected_slope": fit.expected_slope,
            "intercept": fit.intercept, "fit_residual": fit.residual,
            "t_lo": fit.t_lo, "t_hi": fit.t_hi, "tolerance": run.rate_tol}


def _sandwich_entry(case, k, run, curves):
    try:
        rep = sandwich_check(case, k, run.grid, run.tol)
    except DegenerateDataError as exc:
        return {"case": case.name, "check": "sandwich", "k": k,
                "status": "skipped", "diagnostic": str(exc)}
    curves[f"ratios_k{k}"] = (rep.ts, rep.ratios)
    return {"case": case.name, "check": "sandwich", "k": k,
            "status": "pass" if rep.satisfied else "fail",
            "lower_constant": rep.lower_constant,
            "empirical_delta": rep.empirical_delta,
            "upper_envelope": rep.upper_envelope,
            "min_ratio": min(rep.ratios)}


def _heat_entry(case, k, run):
    rep = heat_comparison(case, k, run.grid, run.tol)
    # the two increments coincide for k <= 1; from k = 2 on they may differ
    # in either direction, so only the heat-flow sandwich itself is asserted
    ok = rep.relative_gap <= 1e-12 if k <= 1 else True
    sandwich_ok = (rep.heat_full_constant == 0.0
                   or rep.empirical_delta is not None)
    status = "pass" if ok and sandwich_ok else "fail"
    return {"case": case.name, "check": "heat", "k": k, "status": status,
            "increment_constant": rep.increment_constant,
            "heat_constant": rep.heat_constant,
            "relative_gap": rep.relative_gap,
            "heat_full_constant": rep.heat_full_constant,
            "empirical_delta": rep.empirical_delta}


def _vanishing_entry(name, rep, params):
    entry = {"case": name, "check": f"vanishing_{rep.variant}",
             "status": "pass" if rep.passed else "fail",
             "exponent": rep.exponent,
             "terminal_fraction": rep.terminal_fraction,
             "peak_fraction": rep.peak_fraction,
             "target_fraction": rep.target_fraction,
             "tail_decreasing": rep.tail_decreasing}
    entry.update(params)
    return entry


def _write_csv(path: Path, header, ts, vals):
    lines = [",".join(header)]
    lines += [f"{float(t)!r},{float(v)!r}" for t, v in zip(ts, vals)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
