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

A transform is assembled as amplitude times the real axis transforms,
multiplied in axis order, times at most one complex phase: none for
Gaussians and boxes, the constant (-i)^{|beta|} for a Gaussian monomial,
and e^{-i c.xi} = cos(c.xi) - i sin(c.xi) of one dot product for a
translation, times its base's phase at the dilated points.  Without a
phase the transform stays real, a float64 array; a sum is complex when
one of its terms is.  An amplitude-0 datum is float zeros without
evaluating any axis.

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
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .indices import Alpha, degree, indices_up_to, multi_factorial
from .quadrature import adaptive_1d

_SUPPORT_EPS = 1e-18
# outer rows a weighted L1 norm sends to its next axis per call, 21 nodes
# each (about 4096 values); the rows of a chunk share their panels, so the
# chunk also fixes the norm's value
L1_ROW_CHUNK = 195
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


def as_points(x, dimension):
    """``x`` as float points (..., n), which every evaluator maps to values
    (...): a bare scalar is a point of the line, else the last axis is n."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0 and dimension == 1:
        arr = arr.reshape(1)
    if arr.ndim == 0 or arr.shape[-1] != dimension:
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
        """The real axis transform; any complex factor is in fourier_phase."""
        raise NotImplementedError

    def fourier_phase(self, pts):
        """The unimodular factor of the transform at points (..., n): None
        (no factor), a real ±1, or a complex constant or array."""
        return None

    def axis_moments(self, j, order) -> list[float]:
        """Normalized axis moments (-1)^a integral y^a v_j dy / a! for every
        a <= order."""
        raise NotImplementedError

    def axis_moment_is_zero(self, j, m) -> bool:
        """True when axis moment m vanishes by a parity argument."""
        raise NotImplementedError

    def axis_interval(self, j, gamma=0.0):
        """Interval outside which the axis profile, times the weight
        (1 + |y|)^gamma, is below _SUPPORT_EPS times its peak."""
        raise NotImplementedError

    # -- assembled surface ----------------------------------------------------

    def _axis_product(self, axis, pts):
        """amplitude * axis(0, pts[..., 0]) * ... in axis order; zeros
        without calling ``axis`` at amplitude 0."""
        if self.amplitude == 0.0:
            return np.zeros(pts.shape[:-1])
        out = self.amplitude * axis(0, pts[..., 0])
        for j in range(1, self.dimension):
            out = out * axis(j, pts[..., j])
        return out

    def values(self, x):
        """Pointwise values at points (..., n), of shape (...)."""
        pts = as_points(x, self.dimension)
        return self._axis_product(self.axis_value, pts)

    def fourier_transform(self, xi):
        """Closed-form transform at real points (..., n), of shape (...):
        float64 when the datum has no phase (and at amplitude 0), else
        complex128."""
        pts = as_points(xi, self.dimension)
        out = self._axis_product(self.axis_fourier, pts)
        phase = None if self.amplitude == 0.0 else self.fourier_phase(pts)
        return out if phase is None else out * phase


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
                * np.exp(-self.scale * xi_j * xi_j))

    def axis_moments(self, j, order):
        return _gaussian_axis_moments(self.scale, 0, order)

    def axis_moment_is_zero(self, j, m):
        return m % 2 == 1

    def axis_interval(self, j, gamma=0.0):
        r = _gaussian_reach(self.scale, gamma) + 1.0
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
        # come out through Hermite polynomials, as (-i)^b times this real
        # factor.  The (-i)^b of every axis is in fourier_phase.
        a = self.scale
        b = self.exponents[j]
        u = math.sqrt(a) * xi_j
        coeffs = np.zeros(b + 1)
        coeffs[b] = 1.0
        herm = np.polynomial.hermite.hermval(u, coeffs)
        return (2.0 * math.sqrt(math.pi * a) * a ** (b / 2.0)
                * herm * np.exp(-a * xi_j * xi_j))

    def fourier_phase(self, pts):
        # (-i)^|beta|; a real 1, not None, keeps a shifted datum's zero bytes
        return (1.0, -1j, -1.0, 1j)[degree(self.exponents) % 4]

    def axis_moments(self, j, order):
        return _gaussian_axis_moments(self.scale, self.exponents[j], order)

    def axis_moment_is_zero(self, j, m):
        return (m + self.exponents[j]) % 2 == 1

    def axis_interval(self, j, gamma=0.0):
        r = (_gaussian_reach(self.scale, gamma)
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
        return 2.0 * h * np.sinc(h * xi_j / np.pi)

    def axis_moments(self, j, order):
        # 2 h^(a+1) / (a+1)! at even a
        h = self.half_width
        return _two_term(2.0 * h, 0, order, lambda a: h * h / (a * (a + 1)))

    def axis_moment_is_zero(self, j, m):
        return m % 2 == 1

    def axis_interval(self, j, gamma=0.0):
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
        if isinstance(self.base, SumDatum):
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
        # no shortcut for s = 1: 1.0 * x is x, bit for bit
        s = self.dilation
        return s * self.base.axis_fourier(j, s * xi_j)

    def fourier_phase(self, pts):
        # e^{-i c.xi} from one dot product, summed in axis order (a BLAS
        # product may fuse or reorder it), times the base's phase at s xi
        s, c = self.dilation, self.center
        shift = pts[..., 0] * c[0]
        for j in range(1, self.dimension):
            shift = shift + pts[..., j] * c[j]
        phase = np.empty(shift.shape, dtype=complex)
        phase.real = np.cos(shift)
        phase.imag = -np.sin(shift)
        base = self.base.fourier_phase(s * pts)
        return phase if base is None else phase * base

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

    def axis_interval(self, j, gamma=0.0):
        # base ends under (1 + |y|)^gamma; their scaled margins cover s > 1
        lo, hi = self.base.axis_interval(j, gamma)
        c, s = self.center[j], self.dilation
        return (c + s * lo, c + s * hi)


@dataclass(frozen=True)
class SumDatum(InitialDatum):
    """Finite sum of separable catalog data; a sum among the terms given
    contributes its own terms."""

    terms: tuple[InitialDatum, ...]
    family: str = field(default="sum", init=False)

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(
            t for term in self.terms for t in summands(term)))
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

    def values(self, x):
        return sum(t.values(x) for t in self.terms)

    def fourier_transform(self, xi):
        return sum(t.fourier_transform(xi) for t in self.terms)

    def axis_interval(self, j, gamma=0.0):
        los, his = zip(*(t.axis_interval(j, gamma) for t in self.terms))
        return (min(los), max(his))


def _gaussian_reach(scale, gamma):
    """The radius past which (1 + |y|)^gamma e^{-y^2/(4 scale)} stays below
    _SUPPORT_EPS: the fixed point of rho = sqrt(4 scale (log 1/_SUPPORT_EPS
    + gamma log(1 + rho))), climbed from 0 (it contracts at rate < 1/2)."""
    last, rho = -1.0, 0.0
    while rho > last:
        last, rho = rho, math.sqrt(4.0 * scale * (
            math.log(1.0 / _SUPPORT_EPS) + gamma * math.log1p(rho)))
    return rho


def zero_datum(dimension: int) -> InitialDatum:
    """The zero function, realized as an amplitude-0 Gaussian."""
    return Gaussian(dimension=dimension, scale=1.0, amplitude=0.0)


def gauss_kernel(dimension: int, t: float) -> InitialDatum:
    """The heat kernel at time t; its transform is exp(-t |xi|^2)."""
    if t <= 0:
        raise ValueError("t must be positive")
    amp = (4.0 * math.pi * t) ** (-dimension / 2.0)
    return Gaussian(dimension=dimension, scale=t, amplitude=amp)


def summands(v: InitialDatum) -> tuple[InitialDatum, ...]:
    """The separable terms of ``v``: a sum's terms, else ``v`` alone."""
    return v.terms if isinstance(v, SumDatum) else (v,)


def add_data(*data: InitialDatum) -> InitialDatum:
    terms = [t for d in data for t in summands(d)]
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
    for term in summands(v):
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

    The panel engine integrates one axis at a time: the integral over axis
    j runs at once for every fixed outer point (x_0, ..., x_{j-1}), one
    integrand row per point, over the terms' ``axis_interval(j, gamma)``.
    All rows share their panels, so a jump inside a panel would cost every
    row its bisections: axis j is split at 0 and at the ends of every
    term's interval (a box's faces, a shifted box's mapped faces) that lie
    inside the domain.  The rows go to the next axis in chunks, so a
    chunk's panels serve only its own rows and memory stays flat.
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
                rows = pts.reshape(-1, j + 1)
                return np.concatenate(
                    [over_axis(j + 1, rows[i:i + L1_ROW_CHUNK])
                     for i in range(0, len(rows), L1_ROW_CHUNK)]
                ).reshape(pts.shape[:2])
            r = np.sqrt((pts * pts).sum(axis=-1))
            magnitude = np.abs(v.values(pts))
            with np.errstate(over="ignore", invalid="ignore"):
                out = (1.0 + r) ** gamma * magnitude
            bad = ~np.isfinite(out)
            if bad.any():
                # (1 + r)^gamma overflows where |v| underflows: only there
                # is the product taken in log space
                with np.errstate(over="ignore", divide="ignore"):
                    out[bad] = np.exp(gamma * np.log1p(r[bad])
                                      + np.log(magnitude[bad]))
            return out

        lo, hi = v.axis_interval(j, gamma)
        ends = [x for t in summands(v) for x in t.axis_interval(j, gamma)]
        return adaptive_1d(f, lo, hi, tol, breakpoints=(0.0, *ends)).value

    return float(over_axis(0, np.empty((1, 0)))[0])


# ---------------------------------------------------------------------------
# Config loading


_DIMENSION = (lambda n: 1 <= n <= 3, "must be an integer from 1 to 3")
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


def number(x, what, valid=None, need="must be a finite number", *,
           integer=False):
    """``x`` if it is a finite JSON number (not a bool or a string, and in
    the float range), as an int if ``integer`` (JSON's 2.0 is 2); ``valid``
    is the caller's range test and ``need`` its wording.  The one check of
    a number from outside: a config, a datum or the command line."""
    ok = (isinstance(x, (int, float)) and not isinstance(x, bool)
          and abs(x) <= sys.float_info.max
          and (not integer or float(x).is_integer()))
    value = int(x) if ok and integer else x
    if not (ok and (valid is None or valid(value))):
        raise ConfigError(f"bad {what} {x!r}: {need}")
    return value


def integer(x, what) -> int:
    """``x`` as an int if it is an integer >= 0 (JSON's 2.0 is one)."""
    return number(x, what, lambda n: n >= 0, "must be an integer >= 0",
                  integer=True)


def listed(cfg, key, default, item, *rule) -> tuple:
    """The list under ``key``, each entry checked by ``item(x, what, *rule)``."""
    values = cfg.get(key, default)
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{key} must be a list, got {values!r}")
    return tuple(item(x, f"{key} entry", *rule) for x in values)


def datum_from_config(cfg: dict, dimension=None) -> InitialDatum:
    """Build a catalog datum from a JSON-style dict.

    Required keys: ``family`` plus the family parameters, each numeric one
    a finite JSON number; ``dimension`` may come from the dict or from the
    enclosing document, and a stated one must be the one the datum builds.
    """
    if not isinstance(cfg, dict):
        raise ConfigError("datum config must be an object")
    fam = cfg.get("family")
    if fam not in _FAMILY_KEYS:
        raise ConfigError(f"unknown family {fam!r}; expected one of "
                          f"{sorted(_FAMILY_KEYS)}")
    n = cfg.get("dimension", dimension)
    if "dimension" in cfg or fam not in ("shifted", "sum"):
        n = number(n, "dimension", *_DIMENSION, integer=True)
    check_keys(cfg, _FAMILY_KEYS[fam] | {"family", "dimension"}, f"family {fam!r}")

    def param(key):
        return float(number(cfg.get(key, 1.0), key))

    try:
        if fam == "gaussian":
            return Gaussian(dimension=n, scale=param("scale"),
                            amplitude=param("amplitude"))
        if fam == "gaussian_monomial":
            exponents = listed(cfg, "exponents", None, integer)
            return GaussianMonomial(dimension=n, exponents=exponents,
                                    scale=param("scale"),
                                    amplitude=param("amplitude"))
        if fam == "box":
            return Box(dimension=n, half_width=param("half_width"),
                       amplitude=param("amplitude"))
        if fam == "gauss_kernel":
            return gauss_kernel(n, param("t"))
        if fam == "zero":
            return zero_datum(n)
        if fam == "shifted":
            datum = Shifted(base=datum_from_config(cfg["base"], n),
                            center=listed(cfg, "center", None, number),
                            dilation=param("dilation"))
        else:
            datum = SumDatum(terms=tuple(datum_from_config(c, n)
                                         for c in cfg["terms"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad parameters for family {fam!r}: {exc}") from exc
    if "dimension" in cfg and datum.dimension != n:
        raise ConfigError(f"a {fam!r} datum states dimension {n} but builds "
                          f"dimension {datum.dimension}")
    return datum


def pair_from_config(cfg: dict):
    """Load (u0, u1) from {"dimension": n, "u0": {...}, "u1": {...}}; both
    data must have dimension n."""
    if not isinstance(cfg, dict) or not {"dimension", "u0", "u1"} <= set(cfg):
        raise ConfigError('pair config needs "dimension", "u0" and "u1" entries')
    check_keys(cfg, {"dimension", "u0", "u1"}, "a pair")
    n = number(cfg["dimension"], "dimension", *_DIMENSION, integer=True)
    u0 = datum_from_config(cfg["u0"], n)
    u1 = datum_from_config(cfg["u1"], n)
    if not u0.dimension == u1.dimension == n:
        raise ConfigError(f"u0 and u1 must both have the pair's dimension {n}")
    return u0, u1


def datum_or_pair_sum(cfg: dict) -> InitialDatum:
    """A single datum, or u0 + u1 when given a pair config."""
    if isinstance(cfg, dict) and "u0" in cfg:
        u0, u1 = pair_from_config(cfg)
        return add_data(u0, u1)
    return datum_from_config(cfg)
