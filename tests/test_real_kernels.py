"""Real-valued kernels against the complex ones of ``oracles``, bit for bit.

Real transforms (no phase, or the real -1 of a monomial of degree 2 mod 4)
and polynomials with real coefficients are float64; their values must be
the real parts of the complex128 kernels, byte for byte, with nothing but
zeros left in the imaginary parts.  Complex results must equal the complex
kernels.
"""

import numpy as np
import pytest

from dampex import (Box, Gaussian, GaussianMonomial, LowFrequencySymbol,
                    REPRESENTATIONS, Shifted, SpectralSolution, SumDatum,
                    build_expansion, moment_table)
from dampex.spectral import Shells

from oracles import (complex_fourier_transform, complex_residual_shells,
                     complex_symbol, complex_term_loop)

# the origin, radii on both sides of the unit sphere (outside the symbol's
# guard of 1e-12) and past it
RADII = np.array([0.0, 1e-3, 0.25, 0.5, 0.999, 1.0 - 1e-9, 1.0 + 1e-9,
                  1.001, 1.5, 3.7])
# data with a real transform; "monomial-even" has degree 2, phase -1
REAL = {"gaussian", "box", "sum", "monomial-even"}
# data whose odd moments vanish: every polynomial has real coefficients
EVEN = REAL


def _data(n):
    """One datum per kernel in dimension n, by name."""
    center = (0.6, -0.45, 0.3)[:n]
    gaussian = Gaussian(dimension=n, scale=0.7, amplitude=-1.3)
    box = Box(dimension=n, half_width=0.8, amplitude=0.6)
    even = GaussianMonomial(dimension=n, exponents=(2,) + (0,) * (n - 1),
                            scale=0.6, amplitude=1.2)
    return {
        "gaussian": gaussian, "box": box, "monomial-even": even,
        "monomial-odd": GaussianMonomial(dimension=n, scale=0.5,
                                         exponents=(0,) * (n - 1) + (1,)),
        "shifted": Shifted(base=gaussian, center=center),
        "shifted-box": Shifted(base=box, center=center, dilation=0.6),
        "sum": SumDatum(terms=(gaussian, box)),
        "sum-mixed": SumDatum(terms=(box, even, Shifted(
            base=gaussian, center=center[::-1], dilation=1.3))),
    }


def _directions(n, m):
    """m unit directions with zero and negative coordinates; the two of the
    line when n = 1."""
    if n == 1:
        return np.array([[1.0], [-1.0]])
    dirs = np.random.default_rng(40 + n).normal(size=(m, n))
    dirs[::3, 0] = 0.0
    dirs[1::3, -1] = 0.0
    return dirs / np.linalg.norm(dirs, axis=-1, keepdims=True)


def _points(n, m=60):
    return (RADII[:, None, None] * _directions(n, m)).reshape(-1, n)


def _assert_same_bits(new, old):
    """``new`` holds the complex ``old``'s real parts byte for byte: a
    float64 ``new`` leaves only zero imaginary parts in ``old``, a complex
    one equals it."""
    assert old.dtype == np.complex128 and new.shape == old.shape
    assert new.real.tobytes() == old.real.tobytes()
    if new.dtype == np.float64:
        assert np.all(old.imag == 0.0)
    else:
        assert new.dtype == np.complex128 and np.array_equal(new, old)


def _polynomials(v):
    """A_k for k = -1..7, B_k and C_k for k = 0..7 of ``v``."""
    table = moment_table(v, 7)
    return ([build_expansion("A", k, table) for k in range(-1, 8)]
            + [build_expansion(kind, k, table)
               for kind in ("B", "C") for k in range(8)])


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(_data(1)))
class TestRealKernels:
    def test_transform(self, n, name):
        v = _data(n)[name]
        pts = _points(n)
        got = v.fourier_transform(pts)
        assert got.dtype == (np.float64 if name in REAL
                             else np.complex128)
        _assert_same_bits(got, complex_fourier_transform(v, pts))

    def test_polynomials(self, n, name):
        pts = _points(n)
        polys = _polynomials(_data(n)[name])
        assert len(polys) == 25
        for poly in polys:
            got = poly(pts)
            assert got.dtype == (np.float64 if poly.is_real
                                 else np.complex128)
            _assert_same_bits(got, complex_term_loop(poly, pts))
        assert all(p.is_real for p in polys) == (name in EVEN)

    def test_symbol(self, n, name):
        v = _data(n)[name]
        pts = _points(n, m=400)
        got = LowFrequencySymbol(v)(pts)
        want = complex_symbol(v, pts)
        assert got.real.tobytes() == want.real.tobytes()
        assert (np.abs(got) ** 2).tobytes() == (np.abs(want) ** 2).tobytes()
        if name in REAL:
            assert got.dtype == np.float64 and np.all(want.imag == 0.0)
        else:
            # a complex transform still takes the complex quotient
            assert got.tobytes() == want.tobytes()

    def test_residual_shells(self, n, name):
        u0 = _data(n)[name]
        u1 = Box(dimension=n, half_width=1.1, amplitude=-0.4)
        sol = SpectralSolution(u0=u0, u1=u1)
        table = moment_table(sol.v, 3)
        ts = np.array([0.0, 0.37, 1.0, 37.0, 1e3])
        dirs = _directions(n, 60)
        for k in range(4):
            poly = build_expansion("A", k - 1, table)
            got = sol.residual_shells(ts, Shells(RADII, dirs), poly)
            want = complex_residual_shells(sol, ts, RADII, dirs, poly)
            assert got.dtype == (np.float64 if name in REAL
                                 else np.complex128)
            _assert_same_bits(got, want)
            assert ((np.abs(got) ** 2).tobytes()
                    == (np.abs(want) ** 2).tobytes())


@pytest.mark.parametrize("rep", REPRESENTATIONS)
def test_evaluate_stays_complex_on_phase_free_data(rep):
    for n in (1, 2, 3):
        data = _data(n)
        sol = SpectralSolution(u0=data["gaussian"], u1=data["box"])
        pts = _points(n, m=8)
        got = sol.evaluate(np.array([0.0, 0.5, 3.0]), pts, rep=rep)
        assert got.dtype == np.complex128 and got.shape == (3, len(pts))
        assert sol.evaluate(0.5, pts[0], rep=rep).dtype == np.complex128
