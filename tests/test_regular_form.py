"""The default solution form is the regular form 2.4: checked against a
50-digit rederivation on |xi| <= 6, across the unit sphere and at times
from 0 to 1e4, and ``solve --rep auto`` writes the bytes of ``--rep 2.4``.
"""

import json

import numpy as np
import pytest

from dampex import Box, Gaussian, Shifted, SpectralSolution
from dampex.cli import main

mp = pytest.importorskip("mpmath")

TIMES = (0.0, 1e-6, 0.01, 1.0, 40.0, 700.0, 1e4)
# values below this are too close to underflow for a relative error
TINY = 1e-290


def _pairs():
    """Gaussian u0 and a box u1 of negative amplitude in 1-D to 3-D, and a
    shifted Gaussian u0 in 3-D."""
    pairs = {f"{n}d": (Gaussian(dimension=n, scale=1.0),
                       Box(dimension=n, half_width=0.8, amplitude=-0.5))
             for n in (1, 2, 3)}
    pairs["3d-shifted"] = (Shifted(base=Gaussian(dimension=3, scale=1.0),
                                   center=(0.4, -0.3, 0.2)),
                           Box(dimension=3, half_width=0.8, amplitude=-0.5))
    return pairs


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
    exact for the float point ``xi`` and the float transforms ``f0``, ``f1``;
    also the size |e^{-t} f0| + |K (f0 + f1)| of its two terms."""
    with mp.workdps(50):
        t = mp.mpf(t)
        s = mp.fsum(mp.mpf(float(x)) ** 2 for x in xi)
        f0, f1 = mp.mpc(complex(f0)), mp.mpc(complex(f1))
        k = (t * mp.exp(-t) if s == 1
             else (mp.exp(-t * s) - mp.exp(-t)) / (1 - s))
        head, tail = mp.exp(-t) * f0, k * (f0 + f1)
        return complex(head + tail), float(abs(head) + abs(tail))


def _worst_relative_errors(u0, u1, pts):
    """The default ``evaluate``'s worst error relative to the size of the
    regular form's terms at each time of TIMES, over the points where
    |u_hat| exceeds TINY.

    That size is |u_hat| except near a zero of u_hat, where the two terms
    cancel; there no evaluation from the float transforms is closer than
    about one ulp of the terms (one 3-D point at t = 40 has terms 9.8e3
    times |u_hat|).
    """
    got = SpectralSolution(u0=u0, u1=u1).evaluate(np.array(TIMES), pts)
    f0, f1 = u0.fourier_transform(pts), u1.fourier_transform(pts)
    worst = {}
    for row, t in zip(got, TIMES):
        errs = [abs(complex(val) - ref) / size
                for val, (ref, size) in zip(row, (
                    _reference(t, xi, a, b) for xi, a, b in zip(pts, f0, f1)))
                if abs(ref) > TINY]
        worst[t] = max(errs)
    return worst


@pytest.mark.parametrize("name", ["1d", "2d", "3d", "3d-shifted"])
def test_default_form_matches_the_50_digit_solution(name, rng):
    u0, u1 = _pairs()[name]
    worst = _worst_relative_errors(u0, u1, _points(rng, u0.dimension))
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
