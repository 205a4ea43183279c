"""Refusals at the package's boundaries: each bad call raises its SubfracError subclass."""

import numpy as np
import pytest

import subfrac
from subfrac import GridFunction, GridSpec
from subfrac.errors import ConfigError, GridMismatchError

SPEC = GridSpec(5, 1.0, dims=3, mode="heisenberg")
OTHER = GridSpec(7, 1.0, dims=3, mode="heisenberg")


def _bump(spec):
    return subfrac.gaussian_bump(spec, [0.1, -0.2, 0.0], 0.5)


def _op(spec):
    return subfrac.assemble_operator("j1", spec)


CASES = {
    "dense apply, other grid": (
        GridMismatchError, "does not match the diagonalization",
        lambda: subfrac.spectral_decompose(_op(SPEC)).apply_values(
            np.ones(SPEC.n_nodes), _bump(OTHER))),
    "Krylov extension, other grid": (
        GridMismatchError, "does not match the Krylov spectrum",
        lambda: subfrac.krylov_spectrum(_op(SPEC), _bump(SPEC), 4).extended(_op(OTHER), 8)),
    "field apply, other grid": (
        GridMismatchError, "different grids",
        lambda: subfrac.build_vector_field("X1", "centered", SPEC).apply(_bump(OTHER))),
    "field apply, rectangular matrix": (
        ConfigError, "rectangular",
        lambda: subfrac.build_vector_field("X1", "forward", SPEC).apply(_bump(SPEC))),
    "operator apply, other grid": (
        GridMismatchError, "different grids",
        lambda: _op(SPEC).apply(_bump(OTHER))),
    "unknown scheme": (
        ConfigError, "unknown scheme 'backward'",
        lambda: subfrac.build_vector_field("X1", "backward", SPEC)),
    "ball volumes of a 1-D group": (
        ConfigError, "need a group of 3 axes, got 1",
        lambda: subfrac.measure_ball_volumes(
            [1.0], 0.1, GridSpec(5, 1.0, dims=1, mode="euclidean_box").group)),
    "unknown mode": (
        ConfigError, "unknown mode 'hyperbolic'",
        lambda: GridSpec(5, 1.0, dims=3, mode="hyperbolic")),
    "two nodes an axis": (
        ConfigError, "n_per_axis must be >= 3",
        lambda: GridSpec(2, 1.0, dims=1, mode="euclidean_torus")),
    "bump center of the wrong size": (
        ConfigError, "center must have 3 components",
        lambda: subfrac.gaussian_bump(SPEC, [0.0, 0.0], 0.5)),
    "scalar ODE at lambda = 0": (
        ConfigError, "needs lambda > 0",
        lambda: subfrac.scalar_ode_residual(0.5, 0.0, 0.1)),
    "scalar ODE at lambda < 0": (
        ConfigError, "needs lambda > 0",
        lambda: subfrac.scalar_ode_residual(0.5, -1.0, 0.1)),
}


@pytest.mark.parametrize("case", list(CASES))
def test_bad_call_raises(case):
    error, message, call = CASES[case]
    with pytest.raises(error, match=message):
        call()
