"""Fourier diagonalization of the discrete torus Laplacian: the CLI's route on the torus.

The forward-difference torus operator is circulant per axis, so the FFT
diagonalizes it exactly with symbol (2 - 2 cos(2 pi k / n)) / h^2, tensorized
across dims.  The symbol is built from min(k, n - k), so mirrored and (in 2-D)
axis-permuted frequencies share bitwise-equal values and every degeneracy of
the spectrum is exact.  Multipliers applied through this path agree with the
dense eigendecomposition to roundoff (same operator, two diagonalizations);
the tests hold the two routes together.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .group import GridFunction, GridSpec
from .spectral import _check_finite, _checked_values, _fields
from .stencils import DiscreteOperator


@dataclass
class FourierDiagonal:
    """Discrete-Laplacian symbol on a euclidean torus, flattened x3-fastest.

    A `spectral.Spectrum`: eigenvalues[k] is the symbol at the flattened
    frequency index k, in FFT order, not sorted.
    """

    spec: GridSpec
    eigenvalues: np.ndarray = field(repr=False)

    @classmethod
    def for_spec(cls, spec: GridSpec) -> "FourierDiagonal":
        if not spec.periodic:
            raise ConfigError(f"Fourier diagonal requires euclidean_torus, got {spec.mode}")
        n = spec.n_per_axis
        h = spec.spacing
        k = np.arange(n)
        # cos(2 pi (n - k) / n) and cos(2 pi k / n) differ in the last bit
        axis = (2.0 - 2.0 * np.cos(2.0 * np.pi * np.minimum(k, n - k) / n)) / (h * h)
        mesh = np.meshgrid(*([axis] * spec.dims), indexing="ij")
        return cls(spec=spec, eigenvalues=sum(mesh).ravel())

    def apply_values(self, values: np.ndarray,
                     f: GridFunction) -> GridFunction | list[GridFunction]:
        """Apply a per-mode multiplier: ifftn(values * fftn(f)), real part.

        Every row of values, a 1-D values as one row, shares the one
        fftn(f) and goes through one ifftn batched over the row axis.
        """
        values = _checked_values(self, values, f)
        rows = np.atleast_2d(values)
        shape = (self.spec.n_per_axis,) * self.spec.dims
        out = np.fft.ifftn(rows.reshape((-1, *shape)) * np.fft.fftn(f.shaped()),
                           axes=tuple(range(1, self.spec.dims + 1)))
        return _fields(self.spec, values, np.ascontiguousarray(out.real).reshape(len(rows), -1))


def fourier_decompose(op: DiscreteOperator) -> FourierDiagonal:
    """The FFT diagonalization of an assembled torus Laplacian.

    Only the forward-difference Laplacian ("euclid") on a euclidean torus is
    circulant; anything else raises ConfigError.  eigen_probe checks the
    result against the operator.
    """
    if op.kind != "euclid":
        raise ConfigError(f"the FFT diagonalizes the euclid torus operator, not {op.kind!r}")
    _check_finite(op)
    return FourierDiagonal.for_spec(op.spec)

