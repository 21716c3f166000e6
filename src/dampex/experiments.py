"""Verification campaigns: decay-rate fits, two-sided sandwich checks,
vanishing-limit proxies and the heat-flow comparison.

Every check here is one a datum can fail.  The identities of
``build_expansion`` (additivity, the recurrence, homogeneity) hold by
construction for every datum, so they are tests of the code, in the test
suite, and no campaign runs them.

Everything here is deterministic: quadrature is adaptive but seeded by
nothing, no check draws random points, and report payloads carry no
wall-clock data, so identical configs produce identical JSON output byte
for byte.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .expansion import build_expansion, combine, series_ball
from .indices import degree
from .initial_data import (MAX_MOMENT_ORDER, InitialDatum, MomentTable,
                           check_keys, integer, listed, moment_table, number,
                           pair_from_config)
from .norms import (LOW_RADIUS, RESIDUAL_BREAKPOINTS, FrequencyRegion,
                    norm_curve, poly_gaussian_l2_norm)
from .spectral import LowFrequencySymbol, SpectralSolution

DEGENERACY_FLOOR = 1e-12  # increment constant over max(1, |moments| to k)
NAME_MAX = 255              # bytes in a file name on Linux and macOS

# perfbench/tracer.py wraps this name, which held the property suite; it
# goes once the tracer stops wrapping it (ROADMAP item 8)
property_suite = None


@dataclass(frozen=True)
class TimeGrid:
    """Geometric time grid; the decay estimates only claim t >= 1."""

    t_min: float
    t_max: float
    points: int

    def __post_init__(self):
        number(self.t_min, "t_min", lambda t: t >= 1.0,
               "must be a finite number >= 1")
        number(self.t_max, "t_max", lambda t: t > self.t_min,
               "must be a finite number > t_min")
        # 9.0 reads as 9, as JSON Schema's "integer" reads it
        object.__setattr__(self, "points", number(
            self.points, "points", lambda p: p >= 2, "must be an integer >= 2",
            integer=True))
        try:
            values = np.geomspace(self.t_min, self.t_max, self.points)
        except (ValueError, MemoryError) as exc:
            raise ConfigError(f"cannot hold {self.points} points") from exc
        values.flags.writeable = False
        object.__setattr__(self, "_values", values)

    def values(self) -> np.ndarray:
        """The grid's times, built once: every call returns the same
        read-only array."""
        return self._values


def expected_decay_slope(dimension: int, k: int) -> float:
    return -dimension / 4.0 - k / 2.0


_CHECKS = ("rate", "sandwich", "heat", "vanishing_heat",
           "vanishing_low_frequency")
# a config that still names the property suite fails rather than passes
_REMOVED = ("was removed: the identities of build_expansion hold for every "
            "datum, so the test suite checks them, not a campaign")
_CASE_KEYS = {"name", "data", "k_values", "checks", "gammas", "ells"}
_CURVES = {"rate": "norms", "sandwich": "ratios"}  # check: curve label
# the campaign settings a config may leave out, at their defaults
_SETTINGS = {"quad_tol": 1e-9, "rate_tolerance": 0.05, "decay_fraction": 0.1,
             "t_grid": {"t_min": 100.0, "t_max": 1.0e4, "points": 9},
             "vanishing_t_grid": {"t_min": 1.0, "t_max": 1.0e4, "points": 17}}
_CAMPAIGN_KEYS = {"seed", "cases", *_SETTINGS}


@dataclass(eq=False)
class Case:
    """One campaign case: the data pair, its checks and the work they share
    (moment table, polynomials, increment constants, residual and
    vanishing curves), each computed on first use and kept as long as the
    case.  The full-space curves are integrated as stacks of rows: all
    that ``run_report`` names at once (``integrate_curves``), any other
    alone, as a stack of one."""

    name: str
    u0: InitialDatum
    u1: InitialDatum
    checks: tuple[str, ...] = ("rate", "sandwich", "heat")
    k_values: tuple[int, ...] = (0,)
    gammas: tuple[float, ...] = (0.0,)
    ells: tuple[float, ...] = (0.0,)
    _memo: dict = field(init=False, default_factory=dict, repr=False)

    @classmethod
    def from_config(cls, cfg) -> Case:
        """Parse and check one entry of a campaign's "cases" list."""
        if not isinstance(cfg, dict) or "name" not in cfg or "data" not in cfg:
            raise ConfigError('every case needs "name" and "data"')
        name = cfg["name"]
        if not isinstance(name, str) or "/" in name or "\0" in name:
            raise ConfigError(f"case name {name!r} must be a string without "
                              "'/' or NUL: it names the case's curve files")
        check_keys(cfg, _CASE_KEYS, f"case {name!r}")
        u0, u1 = pair_from_config(cfg["data"])
        weight = (lambda w: w >= 0, "must be a finite number >= 0")
        # a list left out takes its field's default; gammas and ells stay
        # as given: the summary echoes them
        case = cls(name=name, u0=u0, u1=u1,
                   checks=listed(cfg, "checks", cls.checks, _known_check),
                   k_values=listed(cfg, "k_values", cls.k_values, integer),
                   gammas=listed(cfg, "gammas", cls.gammas, number, *weight),
                   ells=listed(cfg, "ells", cls.ells, number, *weight))
        files = [case.curve_file(check, k)[1] for k in case.k_values
                 for check in _CURVES if check in case.checks]
        try:
            longest = max((len(f.encode()) for f in files), default=0)
        except UnicodeEncodeError:  # a lone surrogate is no file name
            longest = math.inf
        if longest > NAME_MAX:
            raise ConfigError(f"case name {name!r} must be UTF-8 text whose "
                              f"curve file names fit {NAME_MAX} bytes")
        if case.moment_order > MAX_MOMENT_ORDER:
            raise ConfigError(
                f"case {case.name!r} reads moments to order "
                f"{case.moment_order}, whose factorial overflows a float")
        return case

    def curve_file(self, check: str, k: int) -> tuple[str, str]:
        """The column label and the file name of the order-k curve that
        ``check`` ("rate" or "sandwich") writes."""
        label = f"{_CURVES[check]}_k{k}"
        return label, f"{label}_{self.name}.csv"

    @cached_property
    def solution(self) -> SpectralSolution:
        return SpectralSolution(u0=self.u0, u1=self.u1)

    @cached_property
    def moment_order(self) -> int:
        """The largest moment order any of the checks reads."""
        orders = [0]
        if {"rate", "sandwich", "heat", "vanishing_low_frequency"} & set(self.checks):
            orders += self.k_values
        if "vanishing_heat" in self.checks:
            orders += [math.floor(g) for g in self.gammas]
        return max(orders)

    @property
    def table(self) -> MomentTable:
        """The case's one moment table, to at least ``moment_order``."""
        return self.table_to(self.moment_order)

    def table_to(self, order: int) -> MomentTable:
        """The case's moment table: built to ``moment_order`` first and
        rebuilt to ``order`` when it holds less; no moment moves as it grows."""
        table = self._memo.get("table")
        if table is None or table.order < order:
            table = moment_table(self.solution.v, max(order, self.moment_order))
            self._memo["table"] = table
        return table

    def _once(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def expansion(self, kind: str, k: int):
        """The kind/order polynomial of v = u0 + u1, built once."""
        return self._once(("expansion", kind, k),
                          lambda: build_expansion(kind, k, self.table_to(k)))

    def increment_constant(self, k: int) -> float:
        """Half-ball norm of the order-k increment, by the exact monomial algebra."""
        return self._once(("increment", k), lambda: poly_gaussian_l2_norm(
            self.expansion("B", k), radius=0.5))

    def increment_vanishes(self, k: int) -> bool:
        """Whether the order-k increment vanishes, by DEGENERACY_FLOOR."""
        return self.increment_constant(k) <= DEGENERACY_FLOOR * max(1.0, *(
            abs(m) for a, m in self.table.entries.items() if degree(a) <= k))

    def residual_curve(self, k: int, grid: TimeGrid, tol: float):
        """Grid times and the full-space residual norms for the case's
        A_{k-1}: the stack of ``integrate_curves`` that took them, else a
        stack of one."""
        return self._curve(("residual", k, grid), tol)

    def tail_ball(self, m: int):
        """The radius, at most LOW_RADIUS, of the ball on which the
        heat-vanishing gap past order m is the moment-series tail, and the
        tail's top order (``series_ball`` on the case's table)."""
        return self._once(("tail ball", m), lambda: series_ball(
            self.table_to, m, LOW_RADIUS))

    def vanishing_curve(self, m: int, ell: float, grid: TimeGrid, tol: float):
        """Grid times and the norms || |xi|^ell (v_hat - P_m) e^{-t|xi|^2} ||
        over R^n, P_m the moment series to order m: the stack of
        ``integrate_curves`` that took them, else a stack of one.  Every
        gamma with floor m shares the curve.

        Near xi = 0 the difference v_hat - P_m cancels; inside the
        ``tail_ball`` the gap is the series tail past m instead, and the
        ball's radius is a panel breakpoint.  A ball inside the heat scale
        1/sqrt(t) of every grid time holds too small a share of the norms
        for the difference's roundoff in it to count, and is not used.
        """
        return self._curve(("vanishing", m, ell, grid), tol)

    def _curve(self, key, tol):
        if (*key, tol) not in self._memo:
            self.integrate_curves([key], tol)
        return self._memo[(*key, tol)]

    def integrate_curves(self, keys, tol: float):
        """Integrate the full-space curves named by ``keys`` that the case
        does not hold yet as one ``norm_curve`` over a stack of rows, and
        keep each as its own (times, norms).

        A key is ("residual", k, grid), the curve of ``residual_curve``, or
        ("vanishing", m, ell, grid), that of ``vanishing_curve``; a repeated
        key is one row set.  The stack shares one truncation, angular rule
        and set of panels, with the union of its members' breakpoints, and
        every row still converges to its own target ``tol``.  Each member
        is an integrand on the field call's one ``Shells``, so the call
        takes the shell points and the transforms of u0, u1 and v once for
        all members; a stall in any row raises for the whole stack.
        """
        keys = [key for key in dict.fromkeys(keys)
                if (*key, tol) not in self._memo]
        if not keys:
            return
        members = [self._residual_rows(*key[1:]) if key[0] == "residual"
                   else self._gap_rows(*key[1:]) for key in keys]

        def stack(shells):
            return np.concatenate([rows_on(shells) for _, _, rows_on in members])

        norms = norm_curve(
            stack, FrequencyRegion.full(self.solution.dimension),
            np.concatenate([ts for ts, _, _ in members]), tol,
            breakpoints=[b for _, kinks, _ in members for b in kinks]).value
        start = 0
        for key, (ts, _, _) in zip(keys, members):
            self._memo[(*key, tol)] = ts, norms[start:start + len(ts)]
            start += len(ts)

    def _residual_rows(self, k, grid):
        """A residual curve as a stack member: its times, its breakpoints
        (those of every residual norm) and its rows on a ``Shells``."""
        ts, poly = grid.values(), self.expansion("A", k - 1)

        def rows_on(shells):
            return self.solution.residual_shells(ts, shells, poly)
        return ts, RESIDUAL_BREAKPOINTS, rows_on

    def _gap_rows(self, m, ell, grid):
        """A heat-vanishing curve as a stack member: its times, its tail
        ball's radius as its breakpoint and its rows on a ``Shells``."""
        v, ts = self.solution.v, grid.values()
        rho, top = self.tail_ball(m)
        if rho * rho * ts[-1] < 1.0:
            rho, top = 0.0, m
        layers = [self.expansion("C", j) for j in range(top + 1)]
        zero = [self.expansion("A", -1)]
        head = combine(layers[:m + 1] or zero)
        # no layers only when rho = 0: no point is inside then
        tail = combine(layers[m + 1:] or zero)

        def rows_on(shells):
            # real when the transform and the polynomials are
            pts, inner = shells.pts, shells.radii < rho
            if not inner.any():
                gap = shells.transform(v) - head(pts)
            else:
                inside = tail(pts[inner])
                outer = shells.transform(v)[~inner] - head(pts[~inner])
                gap = np.empty(pts.shape[:-1], np.result_type(inside, outer))
                gap[inner] = inside
                gap[~inner] = outer
            return shells.heat(ts, ell) * gap
        return ts, (rho,), rows_on


def fit_decay_rate(case: Case, k: int, grid: TimeGrid, tol=1e-9,
                   tolerance=0.05):
    """Least-squares slope of log residual norm against log t, and whether
    it is within ``tolerance`` of the expected slope; returns the summary
    entry and the curve (ts, norms).

    Fitted over the upper half of the grid, where the transient terms are
    dead, as the closed-form line over centred sums: a solver's rounding
    would follow the BLAS kernel.  Rejects data whose order-k increment
    vanishes, with no curve: the decay is then strictly faster and the
    stated exponent does not apply.
    """
    L = case.increment_constant(k)
    if case.increment_vanishes(k):
        return {"case": case.name, "check": "rate", "k": k,
                "status": "rejected",
                "diagnostic": f"order-{k} increment vanishes (constant "
                              f"{L:.3e}); the residual decays faster than "
                              "the fitted exponent"}, None
    ts, norms = case.residual_curve(k, grid, tol)
    half = len(ts) // 2
    x, y = np.log(ts[half:]), np.log(norms[half:])
    dx = x - x.mean()
    slope = np.sum(dx * (y - y.mean())) / np.sum(dx * dx)
    intercept = y.mean() - slope * x.mean()
    expected = expected_decay_slope(case.solution.dimension, k)
    return {"case": case.name, "check": "rate", "k": k,
            "status": ("pass" if abs(slope - expected) <= tolerance
                       else "fail"),
            "slope": float(slope), "expected_slope": expected,
            "intercept": float(intercept),
            # max |log norm - fit| over the fitted points
            "fit_residual": float(np.max(np.abs(y - (slope * x + intercept)))),
            "t_lo": float(ts[half]), "t_hi": float(ts[-1]),
            "tolerance": tolerance}, (ts, norms)


def sandwich_check(case: Case, k: int, grid: TimeGrid, tol=1e-9):
    """Two-sided decay check: L/2 <= norm(t) * t^{n/4+k/2} <= C; returns
    the summary entry and the curve (ts, ratios), the ratios
    norm / (L t^{-n/4-k/2}).

    The lower constant L is the half-ball norm of the order-k increment;
    ``empirical_delta`` is the first grid time after which the ratio stays
    at or above 1/2 (the estimates only assert such a time exists).  Data
    whose order-k increment vanishes is skipped, with no curve.
    """
    if case.increment_vanishes(k):
        return {"case": case.name, "check": "sandwich", "k": k,
                "status": "skipped",
                "diagnostic": f"order-{k} increment vanishes; the sandwich "
                              "is vacuous"}, None
    ts, norms = case.residual_curve(k, grid, tol)
    L = case.increment_constant(k)
    ratios = _ratios(ts, norms, L, case.solution.dimension, k)
    delta = _first_stable_time(ts, ratios, 0.5)
    upper = float(np.max(ratios))
    entry = {"case": case.name, "check": "sandwich", "k": k,
             "status": ("pass" if delta is not None and math.isfinite(upper)
                        else "fail"),
             "lower_constant": L, "empirical_delta": delta,
             "upper_envelope": upper, "min_ratio": float(np.min(ratios))}
    return entry, (ts, ratios)


def _ratios(ts, norms, constant, n, k):
    """norms / (constant t^{-n/4-k/2}), and inf where the constant is 0."""
    d = constant * ts ** expected_decay_slope(n, k)
    return np.divide(norms, d, out=np.full_like(ts, np.inf), where=d > 0)


def _first_stable_time(ts, ratios, threshold):
    """The first time from which on every ratio is >= threshold, or None."""
    bad = np.flatnonzero(~(np.asarray(ratios) >= threshold))
    start = bad[-1] + 1 if len(bad) else 0
    return float(ts[start]) if start < len(ts) else None


def vanishing_limit_check(case: Case, grid: TimeGrid, *, variant="heat",
                          gamma=0.0, k=0, ell=0.0, target_fraction=0.1,
                          tol=1e-9):
    """Decay proxy for the two scaled-remainder limits; returns the summary
    entry, which echoes gamma (or k) and ell as given, and the curve
    (ts, scaled values).

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
        params = {"gamma": gamma, "ell": ell}
        exponent = n / 4.0 + gamma / 2.0 + ell / 2.0
        ts, norms = case.vanishing_curve(math.floor(gamma), ell, grid, tol)
    elif variant == "low_frequency":
        params = {"k": k, "ell": ell}
        exponent = n / 4.0 + k / 2.0 + ell / 2.0
        profile = case.expansion("A", k)
        symbol = LowFrequencySymbol(v)

        ts = grid.values()

        def gap(shells):
            pts = shells.pts
            return shells.heat(ts, ell) * (symbol(pts) - profile(pts))

        norms = norm_curve(gap, FrequencyRegion.ball(0.5, n), ts, tol).value
    else:
        raise ValueError("variant must be 'heat' or 'low_frequency'")
    scaled = ts ** exponent * norms
    tail = ts >= ts[-1] / 10.0
    tail_vals = scaled[tail]
    decreasing = bool(np.all(np.diff(tail_vals) < 0.0)) if len(tail_vals) > 1 else False
    head = scaled[0] if scaled[0] > 0 else 1e-300
    fraction = float(scaled[-1] / head)
    peak = float(np.max(scaled)) if np.max(scaled) > 0 else 1e-300
    # last value over the grid maximum, a diagnostic only
    peak_fraction = float(scaled[-1] / peak)
    if scaled[0] == 0.0 and scaled[-1] == 0.0:
        decreasing, fraction, peak_fraction = True, 0.0, 0.0  # zero gap is vacuous
    return {"case": case.name, "check": f"vanishing_{variant}",
            "status": ("pass" if decreasing and fraction < target_fraction
                       else "fail"),
            "exponent": exponent, "terminal_fraction": fraction,
            "peak_fraction": peak_fraction, "target_fraction": target_fraction,
            "tail_decreasing": decreasing, **params}, (ts, scaled)


def heat_comparison(case: Case, k: int, grid: TimeGrid, tol=1e-9):
    """Side-by-side lower-bound constants for the damped flow and the heat
    flow, plus the heat-flow sandwich; returns the summary entry and the
    curve (ts, heat ratios), the heat residual over
    || C_k e^{-|xi|^2} ||_{R^n} t^{-n/4-k/2}.

    The two increments coincide for k = 0, 1 and generally split at k = 2;
    the canonical Gaussian shows a vanishing damped increment against a
    positive heat increment there.  So the gap is asserted for k <= 1 only,
    and the heat-flow sandwich for every k.
    """
    inc = case.increment_constant(k)
    heat_half = poly_gaussian_l2_norm(case.expansion("C", k), radius=0.5)
    heat_full = poly_gaussian_l2_norm(case.expansion("C", k), radius=None)
    gap = abs(inc - heat_half) / max(inc, heat_half, 1e-300)
    # the heat residual || (v_hat - P_{k-1}) e^{-t|xi|^2} || is the
    # heat-vanishing curve at order k - 1 and ell = 0
    ts, norms = case.vanishing_curve(k - 1, 0.0, grid, tol)
    ratios = _ratios(ts, norms, heat_full, case.solution.dimension, k)
    delta = _first_stable_time(ts, ratios, 0.5) if heat_full > 0 else None
    ok = gap <= 1e-12 or k > 1
    return {"case": case.name, "check": "heat", "k": k,
            "status": ("pass" if ok and (heat_full == 0.0 or delta is not None)
                       else "fail"),
            "increment_constant": inc, "heat_constant": heat_half,
            "relative_gap": gap, "heat_full_constant": heat_full,
            "empirical_delta": delta}, (ts, ratios)


# ---------------------------------------------------------------------------
# Campaign driver


def default_config() -> dict:
    """A bundled campaign that exercises every check in a few minutes."""
    return {
        "seed": 20250810,
        # a copy: callers may change the dict they get
        **copy.deepcopy(_SETTINGS),
        "cases": [
            {
                "name": "gauss-1d",
                "data": {"dimension": 1,
                         "u0": {"family": "gaussian", "scale": 1.0},
                         "u1": {"family": "gaussian", "scale": 0.5,
                                "amplitude": 0.4}},
                "k_values": [0],
                "checks": ["rate", "sandwich", "heat", "vanishing_heat",
                           "vanishing_low_frequency"],
                "gammas": [0.0, 0.5, 2.0, 2.5],
                "ells": [0.0],
            },
            {
                "name": "box-1d",
                "data": {"dimension": 1,
                         "u0": {"family": "box", "half_width": 1.0},
                         "u1": {"family": "zero"}},
                "k_values": [0, 2],
                "checks": ["rate", "sandwich", "heat"],
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
                "checks": ["rate", "sandwich", "heat"],
            },
        ],
    }


def load_config(path) -> dict:
    """Read a JSON config (a campaign, a datum or a pair); ``run_report``
    checks a campaign before any output."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:     # also bad UTF-8, huge integers
        raise ConfigError(f"cannot read JSON config {path}: {exc}") from exc


@dataclass(frozen=True)
class Campaign:
    """A checked campaign config: the shared settings and one Case per case."""

    grid: TimeGrid
    vanishing_grid: TimeGrid
    tol: float
    rate_tol: float
    fraction: float
    cases: tuple[Case, ...]


def validate_config(cfg: dict) -> Campaign:
    """Check a campaign config by the rules of ``config-schema.json`` and
    parse it; every violation raises ConfigError."""
    if not isinstance(cfg, dict) or not isinstance(cfg.get("cases"), list):
        raise ConfigError('campaign config must be an object with a "cases" list')
    if "property_tolerance" in cfg:
        raise ConfigError(f"the 'property_tolerance' setting {_REMOVED}")
    check_keys(cfg, _CAMPAIGN_KEYS, "the campaign")

    def setting(key, valid=lambda x: x > 0, need="must be a finite number > 0"):
        return float(number(cfg.get(key, _SETTINGS[key]), key, valid, need))

    # no check draws random points, so "seed" drives nothing; it is still
    # checked, and summary.json echoes it with the config
    integer(cfg.get("seed", 0), "seed")
    run = Campaign(
        grid=_grid(cfg, "t_grid"),
        vanishing_grid=_grid(cfg, "vanishing_t_grid"),
        tol=setting("quad_tol"),
        rate_tol=setting("rate_tolerance"),
        fraction=setting("decay_fraction", lambda x: 0 < x <= 1,
                         "must be a finite number in (0, 1]"),
        cases=tuple(Case.from_config(case) for case in cfg["cases"]))
    names = [case.name for case in run.cases]
    if len(set(names)) < len(names):
        raise ConfigError(f"case names must differ, as each case writes its "
                          f"own curve files; got {names}")
    return run


def _grid(cfg, key) -> TimeGrid:
    try:
        return TimeGrid(**cfg.get(key, _SETTINGS[key]))
    except (TypeError, ConfigError) as exc:
        raise ConfigError(f"bad {key}: {exc}") from exc


def _known_check(name, what):
    if name == "properties":
        raise ConfigError(f"the 'properties' check {_REMOVED}")
    if name not in _CHECKS:
        raise ConfigError(f"unknown check {name!r}")
    return name


def run_report(cfg: dict, out_dir) -> dict:
    """Execute a campaign, write summary.json plus per-case curve files and
    return the summary.

    Before its checks, each case integrates the full-space curves they
    will read as one stack (``Case.integrate_curves``); the checks then
    read them through ``Case.residual_curve`` and ``Case.vanishing_curve``.
    """
    run = validate_config(cfg)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for case in run.cases:
        case.integrate_curves(_curve_keys(case, run), run.tol)
        curves = {}
        # grid by keyword: the benchmark's tracer reads the curve length there
        on_grid = {"grid": run.grid, "tol": run.tol}
        for k in case.k_values:
            if "rate" in case.checks:
                entry, curves["rate", k] = fit_decay_rate(
                    case, k, tolerance=run.rate_tol, **on_grid)
                entries.append(entry)
            if "sandwich" in case.checks:
                entry, curves["sandwich", k] = sandwich_check(case, k, **on_grid)
                entries.append(entry)
            if "heat" in case.checks:
                entries.append(heat_comparison(case, k, **on_grid)[0])
        shared = {"target_fraction": run.fraction, "tol": run.tol}
        if "vanishing_heat" in case.checks:
            entries += [vanishing_limit_check(
                case, run.vanishing_grid, variant="heat", gamma=gamma,
                ell=ell, **shared)[0]
                for gamma, ell in itertools.product(case.gammas, case.ells)]
        if "vanishing_low_frequency" in case.checks:
            entries += [vanishing_limit_check(
                case, run.vanishing_grid, variant="low_frequency", k=k,
                ell=ell, **shared)[0]
                for k, ell in itertools.product(case.k_values, case.ells)]
        for (check, k), curve in curves.items():
            if curve is not None:
                label, name = case.curve_file(check, k)
                _write_csv(out_dir / name, ("t", label), *curve)

    n_failed = sum(1 for e in entries if e["status"] == "fail")
    summary = {
        "config": cfg,
        "entries": entries,
        "n_failed": n_failed,
        "passed": n_failed == 0,
    }
    (out_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return summary


def _curve_keys(case: Case, run: Campaign):
    """The keys of the full-space curves that the case's checks read, in
    campaign order: no residual curve for an order whose increment
    vanishes, as the rate and sandwich checks then read none."""
    keys = []
    for k in case.k_values:
        if (not set(_CURVES).isdisjoint(case.checks)
                and not case.increment_vanishes(k)):
            keys.append(("residual", k, run.grid))
        if "heat" in case.checks:
            # the heat residual is the heat-vanishing curve at order k - 1
            keys.append(("vanishing", k - 1, 0.0, run.grid))
    if "vanishing_heat" in case.checks:
        keys += [("vanishing", math.floor(gamma), ell, run.vanishing_grid)
                 for gamma, ell in itertools.product(case.gammas, case.ells)]
    return keys


def _write_csv(path: Path, header, ts, vals):
    lines = [",".join(header)]
    lines += [f"{float(t)!r},{float(v)!r}" for t, v in zip(ts, vals)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
