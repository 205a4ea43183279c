"""Fourier diagonalization of the discrete torus Laplacian: the ground-truth path.

The forward-difference torus operator is circulant per axis, so the FFT
diagonalizes it exactly with symbol (2 - 2 cos(2 pi k / n)) / h^2, tensorized
across dims.  Multipliers applied through this path must agree with the dense
eigendecomposition to roundoff: same operator, two diagonalizations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, GridMismatchError
from .group import GridFunction, GridSpec
from .spectral import SpectralDecomposition, positive_power


@dataclass
class FourierDiagonal:
    """Discrete-Laplacian symbol on a euclidean torus, flattened x3-fastest."""

    spec: GridSpec
    symbol: np.ndarray = field(repr=False)

    @classmethod
    def for_spec(cls, spec: GridSpec) -> "FourierDiagonal":
        if spec.mode != "euclidean_torus":
            raise ConfigError(f"Fourier diagonal requires euclidean_torus, got {spec.mode}")
        n = spec.n_per_axis
        h = spec.spacing
        axis = (2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n)) / (h * h)
        mesh = np.meshgrid(*([axis] * spec.dims), indexing="ij")
        return cls(spec=spec, symbol=sum(mesh).ravel())

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.symbol

    def apply_values(self, values: np.ndarray, f: GridFunction) -> GridFunction:
        """Apply a per-mode multiplier: ifftn(values * fftn(f)), real part."""
        if f.spec != self.spec:
            raise GridMismatchError("function grid does not match the diagonalization")
        shape = (self.spec.n_per_axis,) * self.spec.dims
        fh = np.fft.fftn(f.shaped())
        out = np.fft.ifftn(np.asarray(values).reshape(shape) * fh)
        return GridFunction(self.spec, np.real(out).ravel())

    def apply_multiplier(self, m: Callable, f: GridFunction) -> GridFunction:
        return self.apply_values(np.asarray(m(self.symbol), dtype=float), f)


def fourier_fractional(phi: GridFunction, s: float) -> GridFunction:
    """(-Delta_h)^s phi through the FFT; the constant mode maps to 0."""
    if s <= 0:
        raise ConfigError(f"fractional power needs s > 0, got {s}")
    diag = FourierDiagonal.for_spec(phi.spec)
    return diag.apply_values(positive_power(diag.symbol, s), phi)


def cross_validate(dec: SpectralDecomposition, s: float, phi: GridFunction) -> float:
    """Max relative node deviation of dense-spectral J^s phi from the FFT path."""
    from .spectral import fractional_power

    dense = fractional_power(dec, s, phi).values
    fft = fourier_fractional(phi, s).values
    scale = max(np.abs(fft).max(initial=0.0), 1e-300)
    return float(np.abs(dense - fft).max(initial=0.0) / scale)
