"""Fourier diagonalization of the euclid Laplacian: the CLI's route on the torus and the box.

Per axis the forward-difference operator is circulant on the torus, and the
Dirichlet second difference (a zero ghost one h outside each face) on the
box.  So the FFT diagonalizes the torus with symbol (2 - 2 cos(2 pi k / n))
/ h^2, k = 0 .. n - 1, and the orthonormal DST-I the box with symbol
(2 - 2 cos(pi k / (n + 1))) / h^2, k = 1 .. n, each summed over the axes.
The torus symbol is built from min(k, n - k), so mirrored and (in 2-D)
axis-permuted frequencies share bitwise-equal values and every degeneracy of
the spectrum is exact.  The tests hold both transforms to the dense route.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ConfigError
from .spectral import SpectralDecomposition, _check_finite
from .stencils import DiscreteOperator


def fourier_decompose(op: DiscreteOperator) -> SpectralDecomposition:
    """The FFT (torus) or DST-I (box) diagonalization of an assembled euclid Laplacian.

    One block that the transform diagonalizes, its eigenvalues the symbol at
    each flattened (x3-fastest) frequency, in the transform's order, not
    sorted.  Only the forward-difference Laplacian ("euclid") is diagonalized
    so; anything else raises ConfigError.  eigen_probe checks the result
    against the operator.
    """
    if op.kind != "euclid":
        raise ConfigError(f"the Fourier route diagonalizes the euclid operator, not {op.kind!r}")
    _check_finite(op)
    spec = op.spec
    n, h, dims = spec.n_per_axis, spec.spacing, spec.dims
    shape, axes = (n,) * dims, tuple(range(1, dims + 1))
    if spec.periodic:
        k = np.arange(n)
        # cos(2 pi (n - k) / n) and cos(2 pi k / n) differ in the last bit
        axis = (2.0 - 2.0 * np.cos(2.0 * np.pi * np.minimum(k, n - k) / n)) / (h * h)
        forward, inverse = np.fft.fftn, np.fft.ifftn
    else:
        import scipy.fft  # only the box loads it

        axis = (2.0 - 2.0 * np.cos(np.pi * np.arange(1, n + 1) / (n + 1))) / (h * h)
        # the orthonormal DST-I is its own inverse
        forward = inverse = functools.partial(scipy.fft.dstn, type=1, norm="ortho")
    mesh = np.meshgrid(*([axis] * dims), indexing="ij")
    return SpectralDecomposition(
        eigenvalues=sum(mesh).ravel(), blocks=(spec.n_nodes,), spec=spec,
        forward=lambda f: forward(f.reshape(shape)).ravel(),
        inverse=lambda c: inverse(c.reshape(-1, *shape), axes=axes).real.reshape(len(c), -1))
