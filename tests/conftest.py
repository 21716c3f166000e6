import numpy as np
import pytest

from dampex import (Box, Gaussian, GaussianMonomial, Shifted, add_data,
                    gauss_kernel, initial_data, norms, quadrature, zero_datum)


def catalog_1d():
    return [
        Gaussian(dimension=1, scale=1.0),
        Gaussian(dimension=1, scale=0.25, amplitude=1.5),
        Box(dimension=1, half_width=1.0),
        GaussianMonomial(dimension=1, exponents=(1,), scale=1.0),
        GaussianMonomial(dimension=1, exponents=(2,), scale=0.5),
        Shifted(base=Gaussian(dimension=1, scale=1.0), center=(0.6,), dilation=1.0),
        Shifted(base=Box(dimension=1, half_width=1.0), center=(0.5,), dilation=2.0),
    ]


def catalog_2d():
    return [
        Gaussian(dimension=2, scale=1.0),
        Gaussian(dimension=2, scale=0.25),
        Box(dimension=2, half_width=1.0),
        GaussianMonomial(dimension=2, exponents=(1, 1), scale=1.0),
        Shifted(base=Gaussian(dimension=2, scale=1.0), center=(0.4, -0.3),
                dilation=1.0),
    ]


def catalog_3d():
    return [
        Gaussian(dimension=3, scale=1.0),
        Gaussian(dimension=3, scale=0.25),
        Shifted(base=Gaussian(dimension=3, scale=1.0), center=(0.4, -0.3, 0.2),
                dilation=1.0),
    ]


def catalog_all():
    return catalog_1d() + catalog_2d() + catalog_3d()


def catalog_families(n):
    """One datum of every config family in dimension n: the separable
    families, each shifted, and a sum of three of them."""
    gauss = Gaussian(dimension=n, scale=0.7, amplitude=1.3)
    mono = GaussianMonomial(dimension=n, exponents=(1, 2, 3)[:n], scale=0.6)
    box = Box(dimension=n, half_width=0.9)
    center = (0.4, -0.3, 0.25)[:n]
    shifted = [Shifted(base=base, center=center, dilation=s)
               for base, s in ((gauss, 1.5), (mono, 0.8), (box, 2.0))]
    return [gauss, mono, box, gauss_kernel(n, 0.5), zero_datum(n), *shifted,
            add_data(gauss, shifted[2], mono)]


@pytest.fixture
def quadratures(monkeypatch):
    """One [rounds, result] record per adaptive_1d call, by every name the
    package binds it under; a panel round is one integrand call."""
    calls = []
    real = quadrature.adaptive_1d

    def counted(f, *args, **kwargs):
        call = [0, None]
        calls.append(call)

        def each_round(x):
            call[0] += 1
            return f(x)
        call[1] = real(each_round, *args, **kwargs)
        return call[1]

    for module in (quadrature, norms, initial_data):
        if hasattr(module, "adaptive_1d"):
            monkeypatch.setattr(module, "adaptive_1d", counted)
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(20250810)


@pytest.fixture(scope="session")
def gaussian_1d():
    return Gaussian(dimension=1, scale=1.0)
