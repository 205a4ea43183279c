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

import numpy as np

from .errors import ConfigError
from .spectral import SpectralDecomposition, _check_finite
from .stencils import DiscreteOperator


def _dst1(x: np.ndarray, axes=None) -> np.ndarray:
    """The orthonormal DST-I of x along each of `axes` (all by default); it is its own inverse.

    Along an axis of length n it is the real FFT X of the odd extension
    [0, x, 0, -x reversed], of length 2(n + 1): y = -Im(X[1 : n + 1]) /
    sqrt(2(n + 1)).  numpy.fft, which the torus uses too, is loaded with
    the package, and scipy.fft would cost a box run its import.
    """
    for a in range(x.ndim) if axes is None else axes:
        y = np.moveaxis(x, a, -1)
        n = y.shape[-1]
        odd = np.zeros(y.shape[:-1] + (2 * n + 2,))
        odd[..., 1:n + 1] = y
        np.negative(y[..., ::-1], out=odd[..., n + 2:])
        x = np.moveaxis(np.fft.rfft(odd)[..., 1:n + 1].imag / -np.sqrt(2.0 * (n + 1)), -1, a)
    return x


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
        axis = (2.0 - 2.0 * np.cos(np.pi * np.arange(1, n + 1) / (n + 1))) / (h * h)
        # the orthonormal DST-I is its own inverse
        forward = inverse = _dst1
    mesh = np.meshgrid(*([axis] * dims), indexing="ij")
    return SpectralDecomposition(
        eigenvalues=sum(mesh).ravel(), blocks=(spec.n_nodes,), spec=spec,
        forward=lambda f: forward(f.reshape(shape)).ravel(),
        inverse=lambda c: inverse(c.reshape(-1, *shape), axes=axes).real.reshape(len(c), -1))
