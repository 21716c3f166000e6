"""Independent reference values for the benchmark's correctness gates.

Nothing here imports ``dampex``.  The transforms, the solution formula and
the angular averages are written out again from their closed forms, and
every norm reduces to one radial integral done with a fixed panel
Gauss–Legendre rule (agreeing with the pinned values to about 1e-12):

* a pair whose u1 is radial (a centred Gaussian, a sum of them, zero, or in
  1-D a centred box) and whose u0 is radial or a translate of a radial
  profile has û(t, ξ) = e^{-i c·ξ} P(r) + Q(r) with real P, Q;
* the profile A_{k-1} is 0 for k = 0 and M_0 = û(0, 0) for k = 1, and also
  for k = 2 when the data are centred (the first moments vanish);
* the angular mean of cos(c·ξ) over the sphere of radius r is J_0(r|c|) in
  2-D, sin(r|c|)/(r|c|) in 3-D and cos(r|c|) in 1-D.

``residual_norm`` returns None for any request outside that class; those
are checked against values pinned from the parent commit instead.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy import integrate, special

SPHERE_AREA = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}


def _radial_transform(cfg, dimension):
    """(center, g) with datum transform e^{-i center·ξ} g(|ξ|), or None."""
    fam = cfg["family"]
    if fam == "zero":
        return np.zeros(dimension), (lambda r: np.zeros_like(r))
    if fam == "gaussian":
        a, s = cfg.get("amplitude", 1.0), cfg.get("scale", 1.0)
        mass = a * (4.0 * math.pi * s) ** (dimension / 2.0)
        return np.zeros(dimension), (lambda r: mass * np.exp(-s * r * r))
    if fam == "box" and dimension == 1:
        a, h = cfg.get("amplitude", 1.0), cfg.get("half_width", 1.0)
        return np.zeros(1), (lambda r: 2.0 * a * h * np.sinc(h * r / math.pi))
    if fam == "sum":
        parts = [_radial_transform(term, dimension) for term in cfg["terms"]]
        if any(p is None or np.any(p[0]) for p in parts):
            return None
        gs = [p[1] for p in parts]
        return np.zeros(dimension), (lambda r: sum(g(r) for g in gs))
    if fam == "shifted" and cfg.get("dilation", 1.0) == 1.0:
        base = _radial_transform(cfg["base"], dimension)
        if base is None or np.any(base[0]):
            return None
        return np.asarray(cfg["center"], dtype=float), base[1]
    return None


def heat_difference(t, s):
    """K(t, s) = (e^{-ts} - e^{-t}) / (1 - s), with K(t, 1) = t e^{-t}."""
    s = np.asarray(s, dtype=float)
    out = np.empty_like(s)
    below = s < 1.0
    above = s > 1.0
    d = 1.0 - s[below]
    out[below] = np.exp(-t * s[below]) * -np.expm1(-t * d) / d
    d = s[above] - 1.0
    out[above] = np.exp(-t) * -np.expm1(-t * d) / d
    out[~(below | above)] = t * math.exp(-t)
    return out


def _angular_mean_cos(rho, dimension):
    if dimension == 1:
        return np.cos(rho)
    if dimension == 2:
        return special.j0(rho)
    return np.sinc(rho / math.pi)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)
FAR = 16.0


def _radial_integral(integrand, lo, hi, t):
    """∫_lo^hi integrand(r) dr by 24-point Gauss–Legendre on half-panels.

    Panel edges follow a doubling ladder from the heat width 1/sqrt(t) and
    the unit scale, so every panel holds a smooth, well-resolved piece of
    the integrand.  Beyond |ξ| = 16 every integrand here is below
    e^{-2t} times a Gaussian or sinc tail and is dropped.
    """
    w = 1.0 / math.sqrt(t)
    top = min(hi, FAR)
    marks = {w * 2.0 ** j for j in range(-3, 8)} | {0.5, 1.0, 2.0, 4.0, 8.0}
    edges = sorted({lo, top, *(m for m in marks if lo < m < top)})
    edges = np.asarray(edges)
    mids = 0.5 * (edges[:-1] + edges[1:])
    edges = np.sort(np.concatenate([edges, mids]))
    a, b = edges[:-1, None], edges[1:, None]
    half = 0.5 * (b - a)
    r = (a + half * (_GL_NODES[None, :] + 1.0)).ravel()
    wts = (half * _GL_WEIGHTS[None, :]).ravel()
    return float(wts @ integrand(r))


def region_radii(spec: str):
    """(lo, hi) of a CLI region spec: full | ball:r | annulus:a,b | ext:r."""
    kind, _, rest = spec.partition(":")
    if kind == "full":
        return 0.0, math.inf
    if kind == "ball":
        return 0.0, float(rest)
    if kind == "annulus":
        a, b = (float(x) for x in rest.split(","))
        return a, b
    if kind == "ext":
        return float(rest), math.inf
    raise ValueError(spec)


def residual_norm(pair, t, k, region="full"):
    """‖û(t) − A_{k−1} e^{−t|ξ|²}‖ over a region, or None if unsupported."""
    n = pair["dimension"]
    first = _radial_transform(pair["u0"], n)
    second = _radial_transform(pair["u1"], n)
    if first is None or second is None or np.any(second[0]) or k > 2:
        return None
    c0, g0 = first
    g1 = second[1]
    shift = float(np.linalg.norm(c0))
    if shift > 0.0 and k == 2:
        return None                       # A_1 carries i m·ξ: not radial
    m0 = float(g0(np.zeros(1))[0] + g1(np.zeros(1))[0])
    profile = 0.0 if k == 0 else m0
    lo, hi = region_radii(region)

    def integrand(r):
        s = r * r
        kk = heat_difference(t, s)
        p = (math.exp(-t) + kk) * g0(r)
        b = kk * g1(r) - profile * np.exp(-t * s)
        if shift == 0.0:
            sq = (p + b) ** 2
        else:
            sq = p * p + b * b + 2.0 * p * b * _angular_mean_cos(shift * r, n)
        return SPHERE_AREA[n] * r ** (n - 1) * sq

    return math.sqrt(max(_radial_integral(integrand, lo, hi, t), 0.0))


def is_radial_pair(pair) -> bool:
    """True when both data are centred radial profiles."""
    n = pair["dimension"]
    parts = [_radial_transform(pair[u], n) for u in ("u0", "u1")]
    return all(p is not None and not np.any(p[0]) for p in parts)


# ---------------------------------------------------------------------------
# campaign constants: ‖P e^{−|ξ|²}‖ for the monomial polynomials that occur


def _poly_gaussian_norm(n, coeff, power, radius):
    """‖coeff · ξ_1^power e^{−|ξ|²}‖ over the ball |ξ| <= radius (or R^n).

    ``power`` is 0 or 2 in 1-D (ξ^power) and 0 or 1 in 2-D, where the
    angular mean of ξ_1² is r²/2.
    """
    ang = 0.5 if (n == 2 and power == 1) else 1.0

    def integrand(r):
        return SPHERE_AREA[n] * ang * r ** (n - 1 + 2 * power) * math.exp(-2 * r * r)

    hi = math.inf if radius is None else radius
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val = integrate.quad(integrand, 0.0, hi, epsabs=0.0, epsrel=1e-13)[0]
    return abs(coeff) * math.sqrt(val)


def campaign_constants(pair, k):
    """Increment constants of one campaign case at order k.

    Returns (L, heat_half, heat_full): L = ‖B_k e^{−|ξ|²}‖ on the half ball,
    and the half-ball and full-space norms of the heat increment C_k.
    Supports the three cases of the bundled campaign: centred 1-D data
    with k in {0, 2} and a shifted 2-D Gaussian with k = 1.
    """
    n = pair["dimension"]
    u0 = pair["u0"]
    if n == 1 and k == 0:
        c0, g0 = _radial_transform(u0, 1)
        g1 = _radial_transform(pair["u1"], 1)[1]
        m0 = float(g0(np.zeros(1))[0] + g1(np.zeros(1))[0])
        inc, heat = (m0, 0), (m0, 0)
    elif n == 1 and k == 2 and u0["family"] == "box":
        a, h = u0.get("amplitude", 1.0), u0.get("half_width", 1.0)
        m0, m2 = 2.0 * a * h, a * h ** 3 / 3.0
        inc, heat = (m0 - m2, 2), (m2, 2)   # B_2 = (M0 - M2) ξ², C_2 = -M2 ξ²
    elif n == 2 and k == 1 and u0["family"] == "shifted":
        base = u0["base"]
        mass = base.get("amplitude", 1.0) * 4.0 * math.pi * base.get("scale", 1.0)
        first = mass * float(np.linalg.norm(u0["center"]))
        inc, heat = (first, 1), (first, 1)  # B_1 = C_1 = -i M0 (c·ξ)
    else:
        raise ValueError("no closed form for this campaign case")
    return (_poly_gaussian_norm(n, inc[0], inc[1], 0.5),
            _poly_gaussian_norm(n, heat[0], heat[1], 0.5),
            _poly_gaussian_norm(n, heat[0], heat[1], None))
