"""Exact frequency-side evaluation of the damped-wave solution.

After a Fourier transform the Cauchy problem
u_tt - Lap u + u_t - Lap u_t = 0, u(0) = u_0, u_t(0) = u_1 becomes, for
each frequency xi, the scalar ODE

    w'' + (1 + |xi|^2) w' + |xi|^2 w = 0,
    w(0) = u0_hat(xi),  w'(0) = u1_hat(xi),

whose modes decay like e^{-t|xi|^2} and e^{-t}.  The paper gives four
algebraically equivalent closed forms.  Representation ids:

    "2.1"  split form, low-frequency orientation
    "2.2"  grouped form (one coefficient per datum)
    "2.3"  split form, high-frequency orientation
    "2.4"  regular form  e^{-t} u0_hat + K(t,|xi|^2) (u0_hat + u1_hat)

with K(t,s) = (e^{-ts} - e^{-t})/(1 - s), continued by t e^{-t} at s = 1.
The split and grouped forms divide by 1 - |xi|^2 and are refused within
SINGULAR_GUARD of the unit sphere.  The regular form is the default: it
stays well posed on the sphere through the cancellation-safe factorization
K = t e^{-t} phi(t (1 - s)) with phi(z) = (e^z - 1)/z.

The solution operator is a radial Fourier multiplier, so the residual
integrand of the norms, ``residual_shells``, takes K and the heat weight
e^{-t r^2} once per (t, r) on shells xi = r d, and u_hat from the same
regular-form kernel as ``evaluate``, which serves the ``solve`` grids.
``Shells`` holds one field call's points and heat weights and takes each
datum's transform there once, for every integrand that the call evaluates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import SingularEvaluationError
from .initial_data import InitialDatum, add_data, as_points

REPRESENTATIONS = ("2.1", "2.2", "2.3", "2.4")
SINGULAR_GUARD = 1e-12      # forms dividing by 1 - s must stay this far from s = 1
PHI_SWITCH = 0.5            # |z| below which the expm1 factorization is used


def _check_off_sphere(s, what):
    """Raise SingularEvaluationError if any s = |xi|^2 lies within
    SINGULAR_GUARD of 1, where ``what`` divides by 1 - s."""
    bad = np.abs(s - 1.0) <= SINGULAR_GUARD
    if np.any(bad):
        radius = float(np.sqrt(s[bad][0]))
        raise SingularEvaluationError(
            f"{what} is singular at |xi| = 1 (requested |xi| = {radius!r})",
            radius=radius)


def stable_heat_difference(t, s):
    """(e^{-t s} - e^{-t}) / (1 - s), continued across s = 1.

    Uses t e^{-t} phi(t (1 - s)) where the subtraction would cancel and the
    direct quotient elsewhere (where the two exponentials are well separated).
    ``t`` may be an array that broadcasts against ``s`` (a column of times).
    """
    t, s = np.asarray(t, dtype=float), np.asarray(s, dtype=float)
    z = t * (1.0 - s)
    # the quotient everywhere, as an array even for scalars; its 0/0 at
    # s = 1 lies among the small |z| entries overwritten below
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.asarray((np.exp(-t * s) - np.exp(-t)) / (1.0 - s))
    small = np.abs(z) <= PHI_SWITCH
    if small.any():
        ts, zs = np.broadcast_to(t, z.shape)[small], z[small]
        safe = np.where(zs == 0.0, 1.0, zs)
        phi = np.where(zs == 0.0, 1.0, np.expm1(safe) / safe)
        out[small] = ts * np.exp(-ts) * phi
    return out


@dataclass(frozen=True, eq=False)
class SpectralSolution:
    """Evaluator for the transformed solution of one initial-data pair."""

    u0: InitialDatum
    u1: InitialDatum

    def __post_init__(self):
        if self.u0.dimension != self.u1.dimension:
            raise ValueError("u0 and u1 must share one dimension")

    @property
    def dimension(self) -> int:
        return self.u0.dimension

    @cached_property
    def v(self) -> InitialDatum:
        return add_data(self.u0, self.u1)

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, t, xi, rep: str = "2.4"):
        """Transformed solution at time t >= 0 at points (..., n): shape (...).

        ``t`` may also be a 1-D array of times: the transforms are taken once
        and the result gains a leading axis, one row per time.  ``rep`` is
        one representation id, the regular form by default.
        """
        t = np.asarray(t, dtype=float)
        if np.any(t < 0):
            raise ValueError("t must be nonnegative")
        if rep not in REPRESENTATIONS:
            raise ValueError(f"rep must be one of {REPRESENTATIONS}")
        pts = as_points(xi, self.dimension)
        s = np.sum(pts * pts, axis=-1)
        if rep != "2.4":
            _check_off_sphere(s, f"representation {rep}")
        shape = t.shape + s.shape
        pts, s = pts.reshape(-1, self.dimension), s.ravel()
        # complex even for phase-free data, so every form rounds as it
        # always has and ``solve`` keeps its signed zeros
        f0 = self.u0.fourier_transform(pts).astype(complex, copy=False)
        f1 = self.u1.fourier_transform(pts).astype(complex, copy=False)
        t = t[:, None] if t.ndim else t
        out = _REP_FORMULAS[rep](t, s, f0, f1)
        # [()] turns the 0-d result of one point at one time into a scalar
        return out.reshape(shape)[()]

    # -- residual on shells ---------------------------------------------------

    def residual_shells(self, ts, shells: Shells, poly):
        """Gap u_hat(t, xi) - poly(xi) e^{-t |xi|^2} at every t of ``ts`` on
        the points of ``shells``: shape (len(ts), R, m).

        ``poly`` is any callable on points (an expansion polynomial); this is
        the integrand of every residual norm in the decay estimates.  u_hat
        is ``evaluate``'s regular form on the shells: the transforms and
        ``poly`` are evaluated once per point, e^{-t}, K(t, r^2) and
        e^{-t r^2} once per (t, r), and the transforms are shared with the
        other integrands of the field call.  Continuous across the unit
        sphere.  The values are float64 when the transforms and ``poly``
        are real (phase-free data), else complex128.
        """
        ts = np.asarray(ts, dtype=float)
        s = (shells.radii * shells.radii)[:, None]
        # no name holds u_hat, so numpy subtracts in place in its buffer
        return (_rep_24(ts[:, None, None], s, shells.transform(self.u0),
                        shells.transform(self.u1))
                - shells.heat(ts) * poly(shells.pts))


class Shells:
    """The points xi = r d of the shells at ``radii`` and the (m, n) unit
    directions ``dirs``, shape (R, m, n), their heat weights and the data
    transforms there, each transform taken once: ``norms.norm_curve``
    builds one per field call, and every integrand of the call reads it."""

    def __init__(self, radii, dirs):
        self.radii = np.asarray(radii, dtype=float)
        self.pts = self.radii[:, None, None] * dirs
        self._transforms = {}

    def heat(self, ts, ell=0.0):
        """r^ell e^{-t r^2} for every time of ``ts`` and every radius,
        shaped (T, R, 1) to weigh (R, m) values on the shells."""
        r = self.radii
        return (r ** ell * np.exp(-np.multiply.outer(ts, r * r)))[..., None]

    def transform(self, datum: InitialDatum):
        """``datum.fourier_transform`` at the points, shape (R, m)."""
        key = id(datum)
        if key not in self._transforms:
            self._transforms[key] = datum.fourier_transform(self.pts)
        return self._transforms[key]


def _rep_21(t, s, f0, f1):
    denom = 1.0 - s
    return (np.exp(-t * s) * (f0 + f1) - np.exp(-t) * (s * f0 + f1)) / denom


def _rep_22(t, s, f0, f1):
    denom = 1.0 - s
    c0 = (np.exp(-t * s) - s * np.exp(-t)) / denom
    c1 = (np.exp(-t * s) - np.exp(-t)) / denom
    return c0 * f0 + c1 * f1


def _rep_23(t, s, f0, f1):
    denom = s - 1.0
    return (np.exp(-t) * (s * f0 + f1) - np.exp(-t * s) * (f0 + f1)) / denom


def _rep_24(t, s, f0, f1):
    return np.exp(-t) * f0 + stable_heat_difference(t, s) * (f0 + f1)


_REP_FORMULAS = {"2.1": _rep_21, "2.2": _rep_22, "2.3": _rep_23, "2.4": _rep_24}


@dataclass(frozen=True, eq=False)
class LowFrequencySymbol:
    """v_hat(xi) / (1 - |xi|^2): the stationary low-frequency factor that the
    profile polynomials approximate on |xi| <= 1/2."""

    v: InitialDatum

    def __call__(self, xi):
        pts = as_points(xi, self.v.dimension)
        s = np.sum(pts * pts, axis=-1)
        _check_off_sphere(s, "the symbol")
        v_hat = self.v.fourier_transform(pts)
        if np.iscomplexobj(v_hat):
            return v_hat / (1.0 - s)
        # numpy's complex quotient by the real 1 - s scales the real part
        # by the reciprocal; the product keeps its bits
        return v_hat * (1.0 / (1.0 - s))
