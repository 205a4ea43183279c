import time

import numpy as np
import pytest
from hypothesis import settings

import subfrac

settings.register_profile("suite", deadline=None, max_examples=50, derandomize=True)
settings.load_profile("suite")

# wall-clock of expensive session fixtures, for the acceptance budget checks
FIXTURE_SECONDS: dict = {}


def _decompose(kind, n, L, dims, mode):
    spec = subfrac.GridSpec(n_per_axis=n, extent=L, dims=dims, mode=mode)
    op = subfrac.assemble_operator(kind, spec)
    t0 = time.perf_counter()
    dec = subfrac.spectral_decompose(op)
    FIXTURE_SECONDS[(kind, n, L, dims, mode)] = time.perf_counter() - t0
    return op, dec


def fft_gap(dec, s, phi):
    """Max relative node gap of J^s phi on dec from J^s phi on the FFT (torus) or DST (box)."""
    fourier = subfrac.fourier_decompose(subfrac.assemble_operator("euclid", phi.spec))
    fft = subfrac.fractional_power(fourier, s, phi).values
    gap = np.abs(subfrac.fractional_power(dec, s, phi).values - fft).max(initial=0.0)
    return float(gap / max(np.abs(fft).max(initial=0.0), 1e-300))


@pytest.fixture(scope="session")
def heis9():
    """J1 on the 9^3 Heisenberg box [-2,2]^3."""
    return _decompose("j1", 9, 2.0, 3, "heisenberg")


@pytest.fixture(scope="session")
def heis15():
    """J1 on the 15^3 Heisenberg box [-4,4]^3 (the 3375-node acceptance grid)."""
    return _decompose("j1", 15, 4.0, 3, "heisenberg")


@pytest.fixture(scope="session")
def heis15_fine():
    """J1 on the better-resolved 15^3 box [-2,2]^3, for derivative-norm fits."""
    return _decompose("j1", 15, 2.0, 3, "heisenberg")


@pytest.fixture(scope="session")
def torus64():
    """1-D periodic Laplacian, n=64 on [-10,10): the extension oracle grid."""
    return _decompose("euclid", 64, 10.0, 1, "euclidean_torus")


@pytest.fixture(scope="session")
def torus256():
    """Fine 1-D torus for resolved kernel-decay fits."""
    return _decompose("euclid", 256, 10.0, 1, "euclidean_torus")


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
