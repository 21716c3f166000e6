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

Every moment comes from one path: each separable family gives its
normalized axis moments (-1)^a integral y^a v_j dy / a! by a recurrence
with no factorial, a table multiplies them out per multi-index, and a sum
adds its terms' tables.  Raw moments (the plain integrals, stated in
the literature as often as the normalized values) are formed from the
table on demand as (-1)^{|alpha|} alpha! M_alpha; a moment, raw or
normalized, that is not a finite float raises ConfigError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .indices import Alpha, degree, indices_up_to, multi_factorial
from .quadrature import adaptive_1d

_SUPPORT_EPS = 1e-18
# the highest moment order whose factorial, the factor alpha! of a printed
# raw moment at alpha = (order, 0, ...), stays below the float maximum
# (170! ~ 7.3e306)
MAX_MOMENT_ORDER = 170


def _two_term(first, start, order, step):
    """mu[a] for a <= order: mu[start] = first, mu[a] = mu[a - 2] * step(a),
    and zero at the other parity."""
    mu = [0.0] * (order + 1)
    for a in range(start, order + 1, 2):
        mu[a] = first if a == start else mu[a - 2] * step(a)
    return mu


def _gaussian_axis_moments(scale, b, order):
    """Normalized moments of y^b exp(-y^2 / (4 scale)): mu[a] carries
    integral y^(a+b) e^{-y^2/(4s)} dy = (a+b-1)!! (2s)^((a+b)/2) 2 sqrt(pi s)
    for even a + b, so mu[a] / mu[a-2] = 2s (a+b-1) / (a (a-1))."""
    start = b % 2
    first = 2.0 * math.sqrt(math.pi * scale)
    for i in range(1, (b + start) // 2 + 1):
        first *= (2 * i - 1) * 2.0 * scale
    return _two_term(-first if start else first, start, order,
                     lambda a: 2.0 * scale * ((a + b - 1) / (a * (a - 1))))


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

    def axis_moments(self, j, order) -> list[float]:
        """Normalized axis moments (-1)^a integral y^a v_j dy / a! for every
        a <= order."""
        raise NotImplementedError

    def axis_moment_is_zero(self, j, m) -> bool:
        """True when axis moment m vanishes by a parity argument."""
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

    def axis_moments(self, j, order):
        return _gaussian_axis_moments(self.scale, 0, order)

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

    def axis_moments(self, j, order):
        return _gaussian_axis_moments(self.scale, self.exponents[j], order)

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

    def axis_moments(self, j, order):
        # 2 h^(a+1) / (a+1)! at even a
        h = self.half_width
        return _two_term(2.0 * h, 0, order, lambda a: h * h / (a * (a + 1)))

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

    def axis_moments(self, j, order):
        # integral x^a base((x - c)/s) dx = s integral (c + s y)^a base(y) dy,
        # whose binomial expansion divided by a! is the Cauchy product of
        # (-c)^i / i! with s^q mu_base[q]; plain float products and sums,
        # which overflow to inf for the table to report where ** and
        # math.fsum would raise
        c, s = self.center[j], self.dilation
        shift, power = [1.0], [1.0]
        for i in range(1, order + 1):
            shift.append(shift[-1] * -c / i)
            power.append(power[-1] * s)
        base = [p * m for p, m in zip(power, self.base.axis_moments(j, order))]
        return [s * sum(shift[a - q] * base[q] for q in range(a + 1))
                for a in range(order + 1)]

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
    """Normalized moments M_alpha for all |alpha| <= order, with exact-zero
    flags."""

    dimension: int
    order: int
    entries: dict
    exact_zeros: frozenset

    def moment(self, alpha: Alpha) -> float:
        return self.entries[tuple(alpha)]

    def raw(self, alpha: Alpha) -> float:
        """integral x^alpha v dx = (-1)^{|alpha|} alpha! M_alpha; ConfigError
        when it overflows a float."""
        alpha = tuple(alpha)
        if alpha in self.exact_zeros:
            return 0.0
        raw = multi_factorial(alpha) * self.entries[alpha]
        if not math.isfinite(raw):
            raise ConfigError(f"raw moment {list(alpha)} of the data "
                              "overflows a float")
        return -raw if degree(alpha) % 2 else raw

    def is_exact_zero(self, alpha: Alpha) -> bool:
        return tuple(alpha) in self.exact_zeros

    def indices(self):
        return indices_up_to(self.dimension, self.order)


def moment_table(v: InitialDatum, order: int) -> MomentTable:
    """Every normalized moment of ``v`` up to ``order``: the product of the
    axis moments of each separable term, summed over the terms.  A moment
    is an exact zero when in every term of nonzero amplitude some axis
    moment vanishes by parity.

    An order above MAX_MOMENT_ORDER, or a moment that is not a finite
    float, raises ConfigError.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if order > MAX_MOMENT_ORDER:
        raise ConfigError(f"moment order {order} is too high: "
                          f"{order}! overflows a float")
    indices = indices_up_to(v.dimension, order)
    entries = dict.fromkeys(indices, 0.0)
    nonzero = set()
    for term in (v.terms if isinstance(v, SumDatum) else (v,)):
        if term.amplitude == 0.0:
            continue
        axes = [term.axis_moments(j, order) for j in range(v.dimension)]
        zero = [[term.axis_moment_is_zero(j, a) for a in range(order + 1)]
                for j in range(v.dimension)]
        for alpha in indices:
            if any(flags[a] for flags, a in zip(zero, alpha)):
                continue
            value = term.amplitude
            for axis, a in zip(axes, alpha):
                value *= axis[a]
            entries[alpha] += value
            nonzero.add(alpha)
    for alpha in indices:
        if alpha in nonzero and not math.isfinite(entries[alpha]):
            raise ConfigError(f"moment {list(alpha)} of the data is not a "
                              "finite float")
    return MomentTable(dimension=v.dimension, order=order, entries=entries,
                       exact_zeros=frozenset(indices) - nonzero)


# ---------------------------------------------------------------------------
# Weighted norms


def weighted_l1_norm(v: InitialDatum, gamma: float, tol=1e-10) -> float:
    """integral (1 + |x|)^gamma |v(x)| dx, for a finite gamma >= 0.

    The panel engine integrates one axis at a time, each split at 0: the
    integral over axis j runs at once for every fixed outer point
    (x_0, ..., x_{j-1}), one integrand row per point.
    """
    gamma, tol = float(gamma), float(tol)
    n = v.dimension

    def over_axis(j, outer):
        """The (P,) integrals over axes j, ..., n-1 at the (P, j) points
        ``outer``."""
        def f(y):
            pts = np.empty((len(outer), len(y), j + 1))
            pts[..., :j] = outer[:, None, :]
            pts[..., j] = y
            if j < n - 1:
                return over_axis(j + 1, pts.reshape(-1, j + 1)).reshape(pts.shape[:2])
            r = np.sqrt((pts * pts).sum(axis=-1))
            return (1.0 + r) ** gamma * np.abs(v.values(pts))

        lo, hi = v.axis_interval(j)
        return adaptive_1d(f, lo, hi, tol, breakpoints=(0.0,)).value

    return float(over_axis(0, np.empty((1, 0)))[0])


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


def check_keys(cfg: dict, known, what):
    """Raise ConfigError naming every key of ``cfg`` outside ``known``."""
    extra = set(cfg) - known
    if extra:
        raise ConfigError(f"unexpected keys for {what}: {sorted(extra)}")


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
    check_keys(cfg, _FAMILY_KEYS[fam] | {"family", "dimension"}, f"family {fam!r}")
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
    check_keys(cfg, {"dimension", "u0", "u1"}, "a pair")
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
