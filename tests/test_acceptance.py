"""Acceptance battery: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Stated wall-clock budgets are asserted; the expensive shared
decompositions are session fixtures and their build time is charged to the
criterion that owns the grid (criterion 3 for the 3375-node operator, which
criterion 8 then reuses).
"""

import time
import warnings
from contextlib import contextmanager

import numpy as np
import pytest

import subfrac
from subfrac import (
    ExtensionParams,
    GridFunction,
    GridSpec,
    assemble_operator,
    boundary_limit,
    extension_constant,
    extension_constant_quadrature,
    extension_solve,
    fractional_power,
    gaussian_bound_check,
    gaussian_bump,
    group_convolve,
    heat_apply,
    kernel_norm_decay,
    lp_norm,
    path_agreement,
    pde_residual,
    random_bump,
    scalar_ode_residual,
    spectral_decompose,
    volume_growth_fit,
)
from subfrac.group import GROUPS
from subfrac.stencils import apply_multi_index
from conftest import FIXTURE_SECONDS, fft_gap


@contextmanager
def criterion(num: int, label: str, budget_s: float, extra_s: float = 0.0):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\nFAIL criterion-{num:02d} {label}")
        raise
    elapsed = time.perf_counter() - t0 + extra_s
    print(f"\nPASS criterion-{num:02d} {label} [{elapsed:.2f}s < {budget_s:.0f}s]")
    assert elapsed < budget_s


def test_criterion_01_extension_constant():
    with criterion(1, "C(s) closed form vs direct quadrature", 1.0):
        assert extension_constant(0.5) == 1.0
        for s in (0.1, 0.3, 0.5, 0.7, 0.9):
            closed = extension_constant(s)
            quad = extension_constant_quadrature(s)
            assert abs(closed - quad) <= 1e-10 * closed


def test_criterion_02_limit_identity_torus(torus64):
    op, dec = torus64
    spec = op.spec
    phi = gaussian_bump(spec, [0.2 * spec.extent], 8 * spec.spacing)
    with criterion(2, "boundary limit on euclidean_torus n=64", 10.0):
        for s in (0.3, 0.5, 0.7):
            params = ExtensionParams(s=s, t_values=(0.2, 0.1, 0.05))
            res = boundary_limit(dec, extension_solve(dec, params, phi), phi)
            assert res.rel_error <= 1e-3, (s, res.rel_error)


def test_criterion_03_limit_identity_heisenberg(heis15, rng):
    op, dec = heis15
    decomposition_s = FIXTURE_SECONDS[("j1", 15, 4.0, 3, "heisenberg")]
    phi = random_bump(op.spec, rng)
    with criterion(3, "boundary limit on heisenberg n=15 (incl. decomposition)",
                   300.0, extra_s=decomposition_s):
        for s in (0.3, 0.5, 0.7):
            params = ExtensionParams(s=s, t_values=(0.1, 0.05, 0.025))
            res = boundary_limit(dec, extension_solve(dec, params, phi), phi)
            assert res.rel_error <= 2e-2, (s, res.rel_error)


def test_criterion_04_extension_pde(torus64, heis15, rng):
    with criterion(4, "extension PDE residuals (scalar and grid level)", 30.0):
        for _ in range(20):
            s = rng.uniform(0.1, 0.9)
            lam = rng.uniform(0.1, 50.0)
            t = rng.uniform(0.05, 2.0)
            assert scalar_ode_residual(s, lam, t) <= 1e-8
        op, dec = torus64
        phi = random_bump(op.spec, rng)
        params = ExtensionParams(s=0.5, t_values=(1.0, 0.5, 0.1))
        assert pde_residual(extension_solve(dec, params, phi)) <= 1e-6
        op15, dec15 = heis15
        phi15 = random_bump(op15.spec, rng)
        for s in (0.3, 0.7):
            params = ExtensionParams(s=s, t_values=(0.5,))
            assert pde_residual(extension_solve(dec15, params, phi15)) <= 1e-5


def test_criterion_05_oracle_equivalence(torus64, heis9, rng):
    with criterion(5, "Fourier oracle and PATH A/B agreement", 30.0):
        op, dec = torus64
        phi = GridFunction(op.spec, rng.standard_normal(op.spec.n_nodes))
        assert fft_gap(dec, 0.5, phi) <= 1e-10
        spec2 = GridSpec(16, 1.0, 2, "euclidean_torus")
        dec2 = spectral_decompose(assemble_operator("euclid", spec2))
        phi2 = GridFunction(spec2, rng.standard_normal(spec2.n_nodes))
        assert fft_gap(dec2, 0.3, phi2) <= 1e-10
        op9, dec9 = heis9
        phi9 = random_bump(op9.spec, rng)
        params = ExtensionParams(s=0.45, t_values=(0.8, 0.3))
        assert path_agreement(dec9, [extension_solve(dec9, params, phi9)], phi9)[0][0] <= 1e-6
        vals = random_bump(op.spec, rng).values
        phi_t = GridFunction(op.spec, vals - vals.mean())
        params = ExtensionParams(s=0.3, t_values=(0.5,))
        assert path_agreement(dec, [extension_solve(dec, params, phi_t)], phi_t)[0][0] <= 1e-6


def test_criterion_06_semigroup_axioms(heis9, rng):
    op, dec = heis9
    spec = op.spec
    with criterion(6, "heat semigroup axioms and L^p contraction", 30.0):
        f = GridFunction(spec, rng.standard_normal(spec.n_nodes))
        assert np.array_equal(heat_apply(dec, 0.0, f).values, f.values)  # H_0 = Id exactly
        for _ in range(20):
            t1, t2 = rng.uniform(0.01, 2.0, 2)
            two = heat_apply(dec, t1, heat_apply(dec, t2, f))
            one = heat_apply(dec, t1 + t2, f)
            gap = lp_norm(GridFunction(spec, two.values - one.values), 2)
            assert gap <= 1e-11 * lp_norm(one, 2)
        for _ in range(50):
            g = GridFunction(spec, rng.standard_normal(spec.n_nodes))
            for t in (0.1, 1.0):
                u = heat_apply(dec, t, g)
                for p in (1, 2, np.inf):
                    assert lp_norm(u, p) <= lp_norm(g, p) * (1 + 1e-12)


def test_criterion_07_fractional_additivity(heis9, rng):
    op, dec = heis9
    spec = op.spec
    with criterion(7, "fractional power additivity", 10.0):
        f = GridFunction(spec, rng.standard_normal(spec.n_nodes))
        for _ in range(20):
            s1, s2 = rng.uniform(0.05, 0.95, 2)
            comp = fractional_power(dec, s1, fractional_power(dec, s2, f))
            direct = fractional_power(dec, s1 + s2, f)
            gap = lp_norm(GridFunction(spec, comp.values - direct.values), 2)
            assert gap <= 1e-10 * lp_norm(direct, 2)


def test_criterion_08_kernel_decay(heis15):
    op, dec = heis15
    with criterion(8, "kernel norm decay slopes on heisenberg n=15", 300.0):
        ts = np.geomspace(0.16, 1.6, 7)  # one decade through the resolvable window
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            l1 = kernel_norm_decay(dec, 0.5, 1, ts)
            l2 = kernel_norm_decay(dec, 0.5, 2, ts)
        assert abs(l1.fitted_slope - (-0.5)) <= 0.15, l1.fitted_slope
        assert abs(l2.fitted_slope - (-1.5)) <= 0.2, l2.fitted_slope


def test_criterion_09_gaussian_bound():
    with criterion(9, "heat kernel Gaussian bound log-gap stability", 60.0):
        spec = GridSpec(15, 1.5, 3, "heisenberg")
        dec = spectral_decompose(assemble_operator("j1", spec))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            res = gaussian_bound_check(dec, (0.1, 0.2, 0.4), 0.5)
        assert np.isfinite(res.log_gaps).all()
        assert res.spread < 2.0, res.spread
        assert res.stable


def test_criterion_10_volume_growth():
    with criterion(10, "homogeneous ball volume growth", 60.0):
        fit = volume_growth_fit(np.geomspace(1.0, 4.0, 6), 0.05, GROUPS["heisenberg"])
        assert abs(fit.fitted_slope - 4.0) <= 0.3, fit.fitted_slope
        control = volume_growth_fit(np.geomspace(1.0, 4.0, 6), 0.05, GROUPS["euclidean_box"])
        assert abs(control.fitted_slope - 3.0) <= 0.2, control.fitted_slope


def test_criterion_11_algebra(rng):
    with criterion(11, "group algebra, commutator, Young inequality", 10.0):
        group = GROUPS["heisenberg"]
        mul, dilate, norm = group.mul, group.dilate, group.norm
        x, y, z = rng.uniform(-4, 4, (3, 10000, 3))
        assoc = np.abs(mul(mul(x, y), z) - mul(x, mul(y, z)))
        scale = np.abs(mul(x, mul(y, z))).max() + 1.0
        assert assoc.max() / scale <= 1e-12
        assert np.abs(mul(x, group.inverse(x))).max() <= 1e-12
        for alpha in (0.5, 2.0, 10.0):
            n0 = norm(x)
            gap = np.abs(norm(dilate(alpha, x)) - alpha * n0)
            assert (gap / (alpha * n0 + 1e-300)).max() <= 1e-12
            auto = np.abs(dilate(alpha, mul(x, y)) - mul(dilate(alpha, x), dilate(alpha, y)))
            assert auto.max() / (alpha ** 2 * scale) <= 1e-12

        spec = GridSpec(9, 2.0, 3, "heisenberg")
        coords = spec.node_coordinates()
        x1, x2, x3 = coords.T
        inner = np.abs(coords).max(axis=1) <= spec.extent - 2 * spec.spacing
        for vals in (np.ones_like(x1), x1, x2, x3, x1 * x1, x1 * x2,
                     x1 * x3, x2 * x2, x2 * x3, x3 * x3):
            f = GridFunction(spec, vals)
            comm = (apply_multi_index(["X1", "X2"], f).values
                    - apply_multi_index(["X2", "X1"], f).values)
            tf = apply_multi_index(["T"], f).values
            assert np.abs((comm - tf)[inner]).max() <= 1e-12 * max(np.abs(tf).max(), 1.0)

        yspec = GridSpec(7, 2.0, 3, "heisenberg")
        for _ in range(50):
            f = GridFunction(yspec, np.abs(rng.standard_normal(yspec.n_nodes)))
            g = GridFunction(yspec, np.abs(rng.standard_normal(yspec.n_nodes)))
            conv = group_convolve(f, g)
            for (p, q, r) in ((1, 1, 1), (1, 2, 2), (2, 2, np.inf), (1, np.inf, np.inf)):
                assert lp_norm(conv, r) <= lp_norm(f, p) * lp_norm(g, q) + 1e-9


def test_criterion_12_initial_value(torus64):
    op, dec = torus64
    spec = op.spec
    phi = gaussian_bump(spec, [0.2 * spec.extent], 8 * spec.spacing)
    with criterion(12, "initial value and non-expansiveness", 10.0):
        params = ExtensionParams(s=0.5, t_values=(1e-3,))
        u = extension_solve(dec, params, phi).u[0]
        gap = lp_norm(GridFunction(spec, u.values - phi.values), 2)
        assert gap / lp_norm(phi, 2) <= 0.01
        for s in (0.3, 0.5, 0.7):
            params = ExtensionParams(s=s, t_values=(0.2, 0.1, 0.05, 1e-3))
            ratios = [lp_norm(u, 2) / lp_norm(phi, 2)
                      for u in extension_solve(dec, params, phi).u]
            # non-expansive: ||u(t)||_2 <= ||phi||_2 at every t
            assert (np.array(ratios) <= 1.0 + 1e-12).all()
