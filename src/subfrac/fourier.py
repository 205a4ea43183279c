"""Fourier diagonalization of the discrete torus Laplacian: the ground-truth path.

The forward-difference torus operator is circulant per axis, so the FFT
diagonalizes it exactly with symbol (2 - 2 cos(2 pi k / n)) / h^2, tensorized
across dims.  Multipliers applied through this path must agree with the dense
eigendecomposition to roundoff: same operator, two diagonalizations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .group import GridFunction, GridSpec
from .spectral import Spectrum, _checked_values, fractional_power


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
        if spec.mode != "euclidean_torus":
            raise ConfigError(f"Fourier diagonal requires euclidean_torus, got {spec.mode}")
        n = spec.n_per_axis
        h = spec.spacing
        axis = (2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n)) / (h * h)
        mesh = np.meshgrid(*([axis] * spec.dims), indexing="ij")
        return cls(spec=spec, eigenvalues=sum(mesh).ravel())

    def apply_values(self, values: np.ndarray, f: GridFunction) -> GridFunction:
        """Apply a per-mode multiplier: ifftn(values * fftn(f)), real part."""
        values = _checked_values(self, values, f)
        shape = (self.spec.n_per_axis,) * self.spec.dims
        fh = np.fft.fftn(f.shaped())
        out = np.fft.ifftn(values.reshape(shape) * fh)
        return GridFunction(self.spec, np.real(out).ravel())


def cross_validate(dec: Spectrum, s: float, phi: GridFunction) -> float:
    """Max relative node deviation of J^s phi on dec from the FFT path."""
    dense = fractional_power(dec, s, phi).values
    fft = fractional_power(FourierDiagonal.for_spec(phi.spec), s, phi).values
    scale = max(np.abs(fft).max(initial=0.0), 1e-300)
    return float(np.abs(dense - fft).max(initial=0.0) / scale)
