"""Catalog of initial data with exact Fourier transforms and moments.

Every catalog function is a product of one-dimensional axis profiles
(Gaussian, Gaussian-times-monomial, box) optionally translated and dilated,
or a finite sum of such products.  Keeping the catalog closed-form is what
makes the expansion coefficients and lower-bound constants reproducible to
near machine precision; sampled data is deliberately rejected.

Conventions
-----------
Fourier transform:  F[f](xi) = integral e^{-i x.xi} f(x) dx  (non-unitary).
Normalized moment:  M_alpha(f) = ((-1)^{|alpha|} / alpha!) * integral x^alpha f dx.
Weighted norm:      ||f||_{1,gamma} = integral (1 + |x|)^gamma |f(x)| dx.

Raw moments (the plain integrals) are exposed alongside the normalized
values because closed-form identities in the literature are usually stated
for one convention or the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .indices import Alpha, degree, indices_up_to, multi_factorial
from .quadrature import adaptive_1d, nested_cartesian

_SUPPORT_EPS = 1e-18
# the highest moment order whose factorial, the divisor of M_alpha at
# alpha = (order, 0, ...), stays below the float maximum (170! ~ 7.3e306)
MAX_MOMENT_ORDER = 170


def _double_factorial(m: int) -> float:
    out = 1.0
    while m > 1:
        out *= m
        m -= 2
    return out


def _as_points(x, dimension, allow_complex=False):
    arr = np.asarray(x)
    if not allow_complex:
        arr = arr.astype(float, copy=False)
    if arr.ndim == 0:
        if dimension != 1:
            raise ValueError("scalar point given for dimension > 1")
        arr = arr.reshape(1)
    if arr.shape[-1] != dimension:
        raise ValueError(f"points must have trailing dimension {dimension}")
    return arr


class InitialDatum:
    """Base class: a catalogued function on R^n.

    Separable subclasses implement the per-axis hooks; `values`,
    `fourier_transform` and the moment machinery are assembled here.
    """

    dimension: int
    amplitude: float
    family: str

    # -- per-axis hooks (separable families) --------------------------------

    def axis_value(self, j, y):
        raise NotImplementedError

    def axis_fourier(self, j, xi_j):
        raise NotImplementedError

    def axis_raw_moment(self, j, m) -> float:
        raise NotImplementedError

    def axis_moment_is_zero(self, j, m) -> bool:
        raise NotImplementedError

    def axis_interval(self, j):
        """Interval outside which the axis profile is below
        _SUPPORT_EPS times its peak."""
        raise NotImplementedError

    @property
    def separable(self) -> bool:
        return True

    # -- assembled surface ----------------------------------------------------

    def values(self, x):
        """Pointwise values; x has shape (..., n)."""
        pts = _as_points(x, self.dimension)
        out = np.full(pts.shape[:-1], self.amplitude)
        for j in range(self.dimension):
            out = out * self.axis_value(j, pts[..., j])
        return out

    def fourier_transform(self, xi):
        """Closed-form transform; accepts real (or complex, for analytic
        continuation checks) points of shape (..., n)."""
        pts = _as_points(xi, self.dimension, allow_complex=True)
        out = np.full(pts.shape[:-1], self.amplitude, dtype=complex)
        for j in range(self.dimension):
            out = out * self.axis_fourier(j, pts[..., j])
        return out

    def raw_moment(self, alpha: Alpha) -> float:
        """integral x^alpha v dx by the family closed form."""
        alpha = self._check_alpha(alpha)
        if self.moment_is_exact_zero(alpha):
            return 0.0
        out = self.amplitude
        for j, a in enumerate(alpha):
            out *= self.axis_raw_moment(j, a)
        return out

    def moment(self, alpha: Alpha) -> float:
        """Normalized moment M_alpha = ((-1)^{|alpha|}/alpha!) * raw."""
        alpha = self._check_alpha(alpha)
        raw = self.raw_moment(alpha)
        if raw == 0.0:
            return 0.0
        sign = -1.0 if degree(alpha) % 2 else 1.0
        return sign * raw / multi_factorial(alpha)

    def moment_is_exact_zero(self, alpha: Alpha) -> bool:
        """True when the moment vanishes by a per-axis parity argument."""
        alpha = self._check_alpha(alpha)
        if self.amplitude == 0.0:
            return True
        return any(self.axis_moment_is_zero(j, a) for j, a in enumerate(alpha))

    def _check_alpha(self, alpha) -> Alpha:
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != self.dimension:
            raise ValueError("multi-index length must equal the dimension")
        if any(a < 0 for a in alpha):
            raise ValueError("multi-index entries must be nonnegative")
        return alpha


@dataclass(frozen=True)
class Gaussian(InitialDatum):
    """amplitude * exp(-|x|^2 / (4 scale))."""

    dimension: int
    scale: float = 1.0
    amplitude: float = 1.0
    family: str = field(default="gaussian", init=False)

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    def axis_value(self, j, y):
        return np.exp(-(y * y) / (4.0 * self.scale))

    def axis_fourier(self, j, xi_j):
        return (2.0 * math.sqrt(math.pi * self.scale)
                * np.exp(-self.scale * xi_j * xi_j)) + 0j

    def axis_raw_moment(self, j, m):
        if m % 2:
            return 0.0
        half = m // 2
        return (_double_factorial(m - 1) * (2.0 * self.scale) ** half
                * 2.0 * math.sqrt(math.pi * self.scale))

    def axis_moment_is_zero(self, j, m):
        return m % 2 == 1

    def axis_interval(self, j):
        r = math.sqrt(4.0 * self.scale * math.log(1.0 / _SUPPORT_EPS)) + 1.0
        return (-r, r)


@dataclass(frozen=True)
class GaussianMonomial(InitialDatum):
    """amplitude * x^beta * exp(-|x|^2 / (4 scale))."""

    dimension: int
    exponents: Alpha
    scale: float = 1.0
    amplitude: float = 1.0
    family: str = field(default="gaussian_monomial", init=False)

    def __post_init__(self):
        object.__setattr__(self, "exponents", tuple(int(b) for b in self.exponents))
        if len(self.exponents) != self.dimension:
            raise ValueError("exponents length must equal the dimension")
        if any(b < 0 for b in self.exponents):
            raise ValueError("exponents must be nonnegative")
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    def axis_value(self, j, y):
        return y ** self.exponents[j] * np.exp(-(y * y) / (4.0 * self.scale))

    def axis_fourier(self, j, xi_j):
        # F[y^b g](xi) = i^b d^b/dxi^b F[g](xi); derivatives of exp(-a xi^2)
        # come out through Hermite polynomials.
        a = self.scale
        b = self.exponents[j]
        u = math.sqrt(a) * xi_j
        coeffs = np.zeros(b + 1)
        coeffs[b] = 1.0
        herm = np.polynomial.hermite.hermval(u, coeffs)
        return ((-1j) ** b * 2.0 * math.sqrt(math.pi * a) * a ** (b / 2.0)
                * herm * np.exp(-a * xi_j * xi_j))

    def axis_raw_moment(self, j, m):
        k = m + self.exponents[j]
        if k % 2:
            return 0.0
        return (_double_factorial(k - 1) * (2.0 * self.scale) ** (k // 2)
                * 2.0 * math.sqrt(math.pi * self.scale))

    def axis_moment_is_zero(self, j, m):
        return (m + self.exponents[j]) % 2 == 1

    def axis_interval(self, j):
        r = (math.sqrt(4.0 * self.scale * math.log(1.0 / _SUPPORT_EPS))
             + 3.0 * math.sqrt(self.scale) * (1 + self.exponents[j]))
        return (-r, r)


@dataclass(frozen=True)
class Box(InitialDatum):
    """amplitude on the cube [-h, h]^n, zero outside."""

    dimension: int
    half_width: float = 1.0
    amplitude: float = 1.0
    family: str = field(default="box", init=False)

    def __post_init__(self):
        if self.half_width <= 0:
            raise ValueError("half_width must be positive")

    def axis_value(self, j, y):
        inside = np.abs(y) <= self.half_width
        return np.where(inside, 1.0, 0.0)

    def axis_fourier(self, j, xi_j):
        # 2 sin(h xi)/xi, continued with value 2h at xi = 0
        h = self.half_width
        return 2.0 * h * np.sinc(h * xi_j / np.pi) + 0j

    def axis_raw_moment(self, j, m):
        if m % 2:
            return 0.0
        h = self.half_width
        return 2.0 * h ** (m + 1) / (m + 1)

    def axis_moment_is_zero(self, j, m):
        return m % 2 == 1

    def axis_interval(self, j):
        return (-self.half_width, self.half_width)


@dataclass(frozen=True)
class Shifted(InitialDatum):
    """Dilated-translated variant of a separable base: v(x) = base((x - c)/s)."""

    base: InitialDatum
    center: tuple[float, ...]
    dilation: float = 1.0
    family: str = field(default="shifted", init=False)

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        if len(self.center) != self.base.dimension:
            raise ValueError("center length must equal the base dimension")
        if self.dilation <= 0:
            raise ValueError("dilation must be positive")
        if not self.base.separable:
            raise ValueError("only separable data can be shifted")

    @property
    def dimension(self):
        return self.base.dimension

    @property
    def amplitude(self):
        return self.base.amplitude

    def axis_value(self, j, y):
        return self.base.axis_value(j, (y - self.center[j]) / self.dilation)

    def axis_fourier(self, j, xi_j):
        s = self.dilation
        return (s * np.exp(-1j * self.center[j] * xi_j)
                * self.base.axis_fourier(j, s * xi_j))

    def axis_raw_moment(self, j, m):
        # integral x^m base((x - c)/s) dx = s * sum_q C(m, q) c^{m-q} s^q raw_q
        c = self.center[j]
        s = self.dilation
        total = 0.0
        for q in range(m + 1):
            if self.base.axis_moment_is_zero(j, q):
                continue
            total += (math.comb(m, q) * c ** (m - q) * s ** q
                      * self.base.axis_raw_moment(j, q))
        return s * total

    def axis_moment_is_zero(self, j, m):
        if self.center[j] == 0.0:
            return self.base.axis_moment_is_zero(j, m)
        return all(self.base.axis_moment_is_zero(j, q) for q in range(m + 1))

    def axis_interval(self, j):
        lo, hi = self.base.axis_interval(j)
        c, s = self.center[j], self.dilation
        return (c + s * lo, c + s * hi)


@dataclass(frozen=True)
class SumDatum(InitialDatum):
    """Finite sum of catalog data (not separable in general)."""

    terms: tuple[InitialDatum, ...]
    family: str = field(default="sum", init=False)

    def __post_init__(self):
        if not self.terms:
            raise ValueError("sum needs at least one term")
        dims = {t.dimension for t in self.terms}
        if len(dims) != 1:
            raise ValueError("summed data must share one dimension")

    @property
    def dimension(self):
        return self.terms[0].dimension

    @property
    def amplitude(self):
        return 1.0

    @property
    def separable(self):
        return False

    def values(self, x):
        return sum(t.values(x) for t in self.terms)

    def fourier_transform(self, xi):
        return sum(t.fourier_transform(xi) for t in self.terms)

    def raw_moment(self, alpha):
        alpha = self._check_alpha(alpha)
        return sum(t.raw_moment(alpha) for t in self.terms)

    def moment_is_exact_zero(self, alpha):
        alpha = self._check_alpha(alpha)
        return all(t.moment_is_exact_zero(alpha) for t in self.terms)

    def axis_interval(self, j):
        los, his = zip(*(t.axis_interval(j) for t in self.terms))
        return (min(los), max(his))


def zero_datum(dimension: int) -> InitialDatum:
    """The zero function, realized as an amplitude-0 Gaussian."""
    return Gaussian(dimension=dimension, scale=1.0, amplitude=0.0)


def gauss_kernel(dimension: int, t: float) -> InitialDatum:
    """The heat kernel at time t; its transform is exp(-t |xi|^2)."""
    if t <= 0:
        raise ValueError("t must be positive")
    amp = (4.0 * math.pi * t) ** (-dimension / 2.0)
    return Gaussian(dimension=dimension, scale=t, amplitude=amp)


def add_data(*data: InitialDatum) -> InitialDatum:
    terms = []
    for d in data:
        terms.extend(d.terms if isinstance(d, SumDatum) else [d])
    terms = [t for t in terms if t.amplitude != 0.0] or [terms[0]]
    if len(terms) == 1:
        return terms[0]
    return SumDatum(terms=tuple(terms))


# ---------------------------------------------------------------------------
# Moment tables


@dataclass(frozen=True, eq=False)
class MomentTable:
    """Normalized moments M_alpha for all |alpha| <= order, with raw values
    and exact-zero flags."""

    dimension: int
    order: int
    entries: dict
    raw_entries: dict
    exact_zeros: frozenset

    def moment(self, alpha: Alpha) -> float:
        return self.entries[tuple(alpha)]

    def raw(self, alpha: Alpha) -> float:
        return self.raw_entries[tuple(alpha)]

    def is_exact_zero(self, alpha: Alpha) -> bool:
        return tuple(alpha) in self.exact_zeros

    def indices(self):
        return indices_up_to(self.dimension, self.order)


def moment_table(v: InitialDatum, order: int) -> MomentTable:
    """Every moment of ``v`` up to ``order``.

    The normalised moments divide by alpha!, which is largest at
    alpha = (order, 0, ...); an order whose order! overflows a float
    (order > MAX_MOMENT_ORDER) raises ConfigError.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if order > MAX_MOMENT_ORDER:
        raise ConfigError(f"moment order {order} is too high: "
                          f"{order}! overflows a float")
    entries = {}
    raw_entries = {}
    zeros = set()
    for alpha in indices_up_to(v.dimension, order):
        if v.moment_is_exact_zero(alpha):
            zeros.add(alpha)
            entries[alpha] = 0.0
            raw_entries[alpha] = 0.0
        else:
            raw_entries[alpha] = v.raw_moment(alpha)
            entries[alpha] = v.moment(alpha)
    return MomentTable(dimension=v.dimension, order=order, entries=entries,
                       raw_entries=raw_entries, exact_zeros=frozenset(zeros))


# ---------------------------------------------------------------------------
# Weighted norms


def weighted_l1_norm(v: InitialDatum, gamma: float, tol=1e-10) -> float:
    """integral (1 + |x|)^gamma |v(x)| dx, for a finite gamma >= 0."""
    gamma, tol = float(gamma), float(tol)
    n = v.dimension

    def w(r):
        return (1.0 + r) ** gamma

    if n == 1:
        lo, hi = v.axis_interval(0)

        def f(y):
            return w(np.abs(y)) * np.abs(v.values(y[:, None]))

        return adaptive_1d(f, lo, hi, tol, breakpoints=(0.0,)).value

    bounds = [v.axis_interval(j) for j in range(n)]
    brk = [(0.0,)] * n

    def f(x):
        r = math.sqrt(sum(c * c for c in x))
        return w(r) * abs(float(v.values(np.asarray(x))))

    return nested_cartesian(f, bounds, tol, breakpoints=brk).value


# ---------------------------------------------------------------------------
# Config loading


_FAMILY_KEYS = {
    "gaussian": {"scale", "amplitude"},
    "gaussian_monomial": {"scale", "amplitude", "exponents"},
    "box": {"half_width", "amplitude"},
    "gauss_kernel": {"t"},
    "zero": set(),
    "shifted": {"center", "dilation", "base"},
    "sum": {"terms"},
}


def datum_from_config(cfg: dict, dimension=None) -> InitialDatum:
    """Build a catalog datum from a JSON-style dict.

    Required keys: ``family`` plus the family parameters; ``dimension`` may
    come from the dict or from the enclosing document.
    """
    if not isinstance(cfg, dict):
        raise ConfigError("datum config must be an object")
    fam = cfg.get("family")
    if fam not in _FAMILY_KEYS:
        raise ConfigError(f"unknown family {fam!r}; expected one of "
                          f"{sorted(_FAMILY_KEYS)}")
    n = cfg.get("dimension", dimension)
    if fam not in ("shifted", "sum") and not (isinstance(n, int) and n >= 1):
        raise ConfigError("dimension must be a positive integer")
    if fam not in ("shifted", "sum") and n > 3:
        raise ConfigError("dimensions above 3 are not supported")
    extra = set(cfg) - _FAMILY_KEYS[fam] - {"family", "dimension"}
    if extra:
        raise ConfigError(f"unexpected keys for family {fam!r}: {sorted(extra)}")
    try:
        if fam == "gaussian":
            return Gaussian(dimension=n, scale=float(cfg.get("scale", 1.0)),
                            amplitude=float(cfg.get("amplitude", 1.0)))
        if fam == "gaussian_monomial":
            return GaussianMonomial(dimension=n,
                                    exponents=tuple(cfg["exponents"]),
                                    scale=float(cfg.get("scale", 1.0)),
                                    amplitude=float(cfg.get("amplitude", 1.0)))
        if fam == "box":
            return Box(dimension=n, half_width=float(cfg.get("half_width", 1.0)),
                       amplitude=float(cfg.get("amplitude", 1.0)))
        if fam == "gauss_kernel":
            return gauss_kernel(n, float(cfg.get("t", 1.0)))
        if fam == "zero":
            return zero_datum(n)
        if fam == "shifted":
            base = datum_from_config(cfg["base"], dimension)
            return Shifted(base=base, center=tuple(cfg["center"]),
                           dilation=float(cfg.get("dilation", 1.0)))
        terms = tuple(datum_from_config(c, dimension) for c in cfg["terms"])
        return SumDatum(terms=terms)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad parameters for family {fam!r}: {exc}") from exc


def pair_from_config(cfg: dict):
    """Load (u0, u1) from {"dimension": n, "u0": {...}, "u1": {...}}."""
    if not isinstance(cfg, dict) or "u0" not in cfg or "u1" not in cfg:
        raise ConfigError('pair config needs "u0" and "u1" entries')
    n = cfg.get("dimension")
    u0 = datum_from_config(cfg["u0"], n)
    u1 = datum_from_config(cfg["u1"], n)
    if u0.dimension != u1.dimension:
        raise ConfigError("u0 and u1 must share one dimension")
    return u0, u1


def datum_or_pair_sum(cfg: dict) -> InitialDatum:
    """A single datum, or u0 + u1 when given a pair config."""
    if isinstance(cfg, dict) and "u0" in cfg:
        u0, u1 = pair_from_config(cfg)
        return add_data(u0, u1)
    return datum_from_config(cfg)
