"""The default solution form is the regular form 2.4: checked against a
50-digit rederivation on |xi| <= 6, across the unit sphere and at times
from 0 to 1e4, for ``evaluate`` and for the residual integrand
``residual_shells``, and ``solve --rep auto`` writes the bytes of
``--rep 2.4``.
"""

import json

import numpy as np
import pytest

from dampex import Box, Gaussian, Shifted, SpectralSolution
from dampex.cli import main
from dampex.spectral import Shells

mp = pytest.importorskip("mpmath")

TIMES = (0.0, 1e-6, 0.01, 1.0, 40.0, 700.0, 1e4)
# values below this are too close to underflow for a relative error
TINY = 1e-290


def _pairs():
    """Gaussian u0 and a box u1 of negative amplitude in 1-D to 3-D, and a
    shifted Gaussian u0 in 3-D; in 1-D and 3-D also two Gaussians whose
    masses cancel, v_hat(0) = 0, as under a moment condition."""
    pairs = {f"{n}d": (Gaussian(dimension=n, scale=1.0),
                       Box(dimension=n, half_width=0.8, amplitude=-0.5))
             for n in (1, 2, 3)}
    pairs["3d-shifted"] = (Shifted(base=Gaussian(dimension=3, scale=1.0),
                                   center=(0.4, -0.3, 0.2)),
                           Box(dimension=3, half_width=0.8, amplitude=-0.5))
    for n in (1, 3):
        pairs[f"{n}d-zero-mass"] = (
            Gaussian(dimension=n, scale=1.0),
            Gaussian(dimension=n, scale=1.2, amplitude=-1.2 ** (-n / 2)))
    return pairs


PAIRS = sorted(_pairs())


def _points(rng, n):
    """285 points with |xi| <= 6 and 15 at radii 1, 1 +- 1e-3 and
    1 +- 1e-6."""
    radii = np.concatenate([rng.uniform(0.0, 6.0, 285),
                            np.repeat([1.0 - 1e-3, 1.0 - 1e-6, 1.0,
                                       1.0 + 1e-6, 1.0 + 1e-3], 3)])
    dirs = rng.standard_normal((radii.size, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return radii[:, None] * dirs


def _reference(t, xi, f0, f1):
    """u_hat = e^{-t} f0 + K(t, s)(f0 + f1) in 50 digits, with s = |xi|^2
    exact for the float coordinates ``xi`` and the float transforms ``f0``,
    ``f1``; also the size |e^{-t} f0| + |K (f0 + f1)| of its two terms."""
    with mp.workdps(50):
        t = mp.mpf(t)
        s = mp.fsum(mp.mpf(float(x)) ** 2 for x in xi)
        f0, f1 = mp.mpc(complex(f0)), mp.mpc(complex(f1))
        k = (t * mp.exp(-t) if s == 1
             else (mp.exp(-t * s) - mp.exp(-t)) / (1 - s))
        head, tail = mp.exp(-t) * f0, k * (f0 + f1)
        return complex(head + tail), float(abs(head) + abs(tail))


def _worst_by_time(got, coords, f0, f1):
    """The worst error of the rows ``got`` (one per time of TIMES, one
    column per point) relative to the size of the regular form's terms at
    each time, over the points where |u_hat| exceeds TINY; s = |xi|^2 comes
    from the float coordinates ``coords`` of each point.

    That size is |u_hat| except near a zero of u_hat, where the two terms
    cancel; there no evaluation from the float transforms is closer than
    about one ulp of the terms (one 3-D point at t = 40 has terms 9.8e3
    times |u_hat|).
    """
    worst = {}
    for row, t in zip(got, TIMES):
        errs = [abs(complex(val) - ref) / size
                for val, (ref, size) in zip(row, (
                    _reference(t, xi, a, b)
                    for xi, a, b in zip(coords, f0, f1)))
                if abs(ref) > TINY]
        worst[t] = max(errs)
    return worst


@pytest.mark.parametrize("name", PAIRS)
def test_default_form_matches_the_50_digit_solution(name, rng):
    u0, u1 = _pairs()[name]
    pts = _points(rng, u0.dimension)
    got = SpectralSolution(u0=u0, u1=u1).evaluate(np.array(TIMES), pts)
    worst = _worst_by_time(got, pts, u0.fourier_transform(pts),
                           u1.fourier_transform(pts))
    assert max(worst.values()) <= 1e-13, worst


def _shells(rng, n):
    """Shell radii from 1e-4 to 6, with 1, 1 +- 1e-3 and 1 +- 1e-6 among
    them, and unit directions: the two of the line, or four drawn ones."""
    radii = np.concatenate([[1e-4, 1e-3, 1e-2, 0.1], rng.uniform(0.0, 6.0, 30),
                            [1.0 - 1e-3, 1.0 - 1e-6, 1.0, 1.0 + 1e-6,
                             1.0 + 1e-3]])
    if n == 1:
        return radii, np.array([[1.0], [-1.0]])
    dirs = rng.standard_normal((4, n))
    return radii, dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


@pytest.mark.parametrize("name", PAIRS)
def test_residual_shells_match_the_50_digit_solution(name, rng):
    # with the zero polynomial the residual integrand is u_hat itself, with
    # s = r^2 of the shell radius r
    u0, u1 = _pairs()[name]
    radii, dirs = _shells(rng, u0.dimension)
    pts = (radii[:, None, None] * dirs).reshape(-1, u0.dimension)
    got = SpectralSolution(u0=u0, u1=u1).residual_shells(
        np.array(TIMES), Shells(radii, dirs),
        lambda xi: np.zeros(xi.shape[:-1]))
    assert got.shape == (len(TIMES), len(radii), len(dirs))
    worst = _worst_by_time(got.reshape(len(TIMES), -1),
                           np.repeat(radii, len(dirs))[:, None],
                           u0.fourier_transform(pts),
                           u1.fourier_transform(pts))
    assert max(worst.values()) <= 1e-13, worst


# grids that hold points inside, outside and (in 1-D) on the unit sphere
_GRIDS = {1: "lin:-2,2,41", 2: "lin:-1.5,1.5,13", 3: "lin:-1.2,1.2,7"}


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_solve_auto_writes_the_bytes_of_the_regular_form(dimension, tmp_path):
    cfg = tmp_path / "pair.json"
    cfg.write_text(json.dumps({
        "dimension": dimension,
        "u0": {"family": "gaussian", "scale": 1.0},
        "u1": {"family": "box", "half_width": 0.8, "amplitude": -0.5}}),
        encoding="utf-8")
    outputs = {}
    for rep in ("auto", "2.4"):
        out = tmp_path / f"{rep}.csv"
        assert main(["solve", "--data", str(cfg), "--t", "0.0,1e-06,1.0,40.0",
                     "--xi-grid", _GRIDS[dimension], "--rep", rep,
                     "--out", str(out)]) == 0
        outputs[rep] = out.read_bytes()
    radii = [np.hypot.reduce([float(c) for c in line.split(",")[1:-2]])
             for line in outputs["auto"].decode().splitlines()[1:]]
    assert min(radii) < 1.0 < max(radii)
    assert outputs["auto"] == outputs["2.4"]
