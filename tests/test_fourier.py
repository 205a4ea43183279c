import dataclasses

import numpy as np
import pytest

import subfrac
from subfrac import (
    ExtensionParams,
    GridFunction,
    GridSpec,
    assemble_operator,
    boundary_limit,
    eigen_probe,
    extension_constant,
    extension_solve,
    extension_solve_tau_grid,
    fourier_decompose,
    fractional_power,
    gaussian_bump,
    heat_apply,
    heat_kernel_column,
    integral,
    kernel_norm_decay,
    lp_norm,
    random_bump,
    spectral_decompose,
    subordination_integral,
)
from subfrac.estimates import resolvable_t_window
from subfrac.errors import ConfigError
from conftest import fft_gap


@pytest.fixture(scope="module")
def torus2d():
    spec = GridSpec(16, 1.0, 2, "euclidean_torus")
    op = assemble_operator("euclid", spec)
    return op, spectral_decompose(op)


def test_fourier_decompose_needs_the_torus_laplacian(torus64):
    # the euclid Laplacian, which the FFT diagonalizes on the torus and the
    # DST on the box; no other operator
    op, _ = torus64
    box = assemble_operator("euclid", GridSpec(9, 1.0, 1, "euclidean_box"))
    for grid in (op, box):
        assert max(eigen_probe(grid, fourier_decompose(grid))) <= 1e-12
    with pytest.raises(ConfigError, match="euclid operator, not 'j1'"):
        fourier_decompose(dataclasses.replace(op, kind="j1"))


# the Dirichlet box in 1-D, 2-D and 3-D, for the DST against the dense eigh
BOXES = {"box1d": GridSpec(41, 10.0, 1, "euclidean_box"),
         "box2d": GridSpec(25, 4.0, 2, "euclidean_box"),
         "box3d": GridSpec(9, 4.0, 3, "euclidean_box")}


@pytest.fixture(scope="module", params=list(BOXES))
def box(request):
    op = assemble_operator("euclid", BOXES[request.param])
    return op, spectral_decompose(op)


def test_box_closed_form_matches_dense_eigenvalues(box):
    # per axis the Dirichlet second difference with a zero ghost one h
    # outside each face: (4 / h^2) sin^2(k pi / (2 (n + 1))), k = 1 .. n
    op, dec = box
    n, h, dims = op.spec.n_per_axis, op.spec.spacing, op.spec.dims
    axis = 4.0 / h ** 2 * np.sin(np.arange(1, n + 1) * np.pi / (2 * (n + 1))) ** 2
    closed = np.sort(sum(np.meshgrid(*[axis] * dims, indexing="ij")).ravel())
    assert np.abs(closed - dec.eigenvalues).max() <= 1e-14 * dec.eigenvalues[-1]


@pytest.mark.parametrize("s", [0.3, 0.7])
def test_dst_matches_dense_on_the_box(box, rng, s):
    op, dec = box
    dst = fourier_decompose(op)
    lam_max = dec.eigenvalues[-1]
    assert np.abs(np.sort(dst.eigenvalues) - dec.eigenvalues).max() <= 1e-13 * lam_max
    phi = GridFunction(op.spec, rng.standard_normal(op.spec.n_nodes))
    assert fft_gap(dec, s, phi) <= 1e-12


def test_mirrored_and_permuted_frequencies_share_one_symbol_value(monkeypatch):
    # the degeneracies of the torus spectrum are exact, so PATH B integrates
    # at most one quadrature row per class {(+-k1, +-k2), (+-k2, +-k1)}
    import subfrac.extension as ext

    n = 48
    spec = GridSpec(n, 10.0, 2, "euclidean_torus")
    diag = fourier_decompose(assemble_operator("euclid", spec))
    sym = diag.eigenvalues.reshape(n, n)
    mirror = -np.arange(n) % n
    assert np.array_equal(sym[mirror], sym)
    assert np.array_equal(sym[:, mirror], sym)
    assert np.array_equal(sym.T, sym)

    rows = []

    def counted(s, q, k=0, scale=None):
        rows.append(len(q))
        return subordination_integral(s, q, k, scale=scale)

    monkeypatch.setattr(ext, "subordination_integral", counted)
    phi = GridFunction(spec, np.random.default_rng(5).standard_normal(spec.n_nodes))
    t = 0.2
    extension_solve_tau_grid(diag, [ExtensionParams(s=0.5, t_values=(t,))], phi)
    folded = np.minimum(np.arange(n), n - np.arange(n))
    k1, k2 = np.meshgrid(folded, folded, indexing="ij")
    classes = {(min(a, b), max(a, b)) for a, b in zip(k1.ravel(), k2.ravel())}
    assert len(classes) == 325
    assert rows == [np.unique(sym).size]
    assert rows[0] <= len(classes)


def test_symbol_multiset_matches_dense_eigenvalues(torus64, torus2d):
    for op, dec in (torus64, torus2d):
        sym = np.sort(fourier_decompose(op).eigenvalues)
        assert np.abs(sym - dec.eigenvalues).max() <= 1e-9
        assert sym[0] == 0.0


def test_fractional_s1_matches_operator(torus64, rng):
    op, dec = torus64
    phi = GridFunction(op.spec, rng.standard_normal(op.spec.n_nodes))
    got = fractional_power(fourier_decompose(op), 1.0, phi).values
    want = op.apply(phi).values
    assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max()


def test_constant_maps_to_zero(torus64):
    op, _ = torus64
    phi = GridFunction(op.spec, np.full(op.spec.n_nodes, 3.0))
    got = fractional_power(fourier_decompose(op), 0.5, phi).values
    assert np.abs(got).max() <= 1e-12


def test_single_mode_diagonal_action(torus64):
    op, _ = torus64
    spec = op.spec
    n = spec.n_per_axis
    diag = fourier_decompose(op)
    k = 5
    x = spec.axis_coordinates()
    mode = np.cos(2 * np.pi * k * np.arange(n) / n)
    out = fractional_power(diag, 0.4, GridFunction(spec, mode)).values
    lam = diag.eigenvalues[k]
    assert np.abs(out - lam ** 0.4 * mode).max() <= 1e-10 * lam ** 0.4


@pytest.mark.parametrize("s,tol", [(0.5, 1e-10), (1.0, 1e-11)])
def test_dense_matches_fft_1d(torus64, rng, s, tol):
    op, dec = torus64
    phi = GridFunction(op.spec, rng.standard_normal(op.spec.n_nodes))
    assert fft_gap(dec, s, phi) <= tol


def test_dense_matches_fft_2d(torus2d, rng):
    op, dec = torus2d
    phi = GridFunction(op.spec, rng.standard_normal(op.spec.n_nodes))
    assert fft_gap(dec, 0.3, phi) <= 1e-10


def test_boundary_limit_through_fourier_path(torus64):
    # the extension sweep accepts the FFT diagonalization in place of the
    # dense one and must reproduce -C(s) (-Delta_h)^s phi at the same tolerance
    op, _ = torus64
    spec = op.spec
    diag = fourier_decompose(op)
    phi = gaussian_bump(spec, [0.2 * spec.extent], 8 * spec.spacing)
    for s in (0.3, 0.7):
        params = ExtensionParams(s=s, t_values=(0.2, 0.1, 0.05))
        res = boundary_limit(diag, extension_solve(diag, params, phi), phi)
        want = -extension_constant(s) * fractional_power(diag, s, phi).values
        gap = lp_norm(GridFunction(spec, res.extrapolated.values - want), 2)
        assert gap / lp_norm(GridFunction(spec, want), 2) <= 1e-3


def test_fourier_path_error_shrinks_under_refinement(torus64):
    op, _ = torus64
    spec = op.spec
    diag = fourier_decompose(op)
    phi = gaussian_bump(spec, [0.2 * spec.extent], 8 * spec.spacing)
    errs = []
    for t0 in (0.4, 0.2, 0.1):
        params = ExtensionParams(s=0.5, t_values=(t0, t0 / 2, t0 / 4))
        errs.append(boundary_limit(diag, extension_solve(diag, params, phi), phi).rel_error)
    assert errs[2] < errs[1] < errs[0]


def _extension_u_and_du(spectrum, phi, g, rng):
    # s = 0.5 at t = 0.3 on white-noise data, the extension spot check
    profile = extension_solve(spectrum, ExtensionParams(s=0.5, t_values=(0.3,)), phi)
    return profile.u[0].values, profile.du_dt[0].values


def _limit_extrapolated(spectrum, phi, g, rng):
    data = random_bump(spectrum.spec, rng)
    params = ExtensionParams(s=0.5, t_values=(0.2, 0.1, 0.05))
    return [boundary_limit(spectrum, extension_solve(spectrum, params, data), data)
            .extrapolated.values]


def _kernel_norm_fits(spectrum, phi, g, rng):
    lo, hi = resolvable_t_window(spectrum.spec)
    t_values = np.geomspace(1.1 * lo, 0.9 * hi, 4)
    fits = [kernel_norm_decay(spectrum, 0.4, p, t_values) for p in (1, 2)]
    return [x for fit in fits for x in (fit.norms, fit.fitted_slope)]


SPECTRUM_CALLS = {
    "fractional_power": lambda sp, phi, g, rng: [fractional_power(sp, 0.3, phi).values],
    "heat_apply": lambda sp, phi, g, rng: [heat_apply(sp, 0.05, phi).values],
    "heat_kernel_column": lambda sp, phi, g, rng: [heat_kernel_column(sp, 0.05).values],
    "apply_multiplier": lambda sp, phi, g, rng: [
        sp.apply_values(np.sin(sp.eigenvalues) / np.maximum(sp.eigenvalues, 1.0), phi).values
    ],
    "spectral_pairing": lambda sp, phi, g, rng: [
        integral(GridFunction(g.spec, sp.apply_values(sp.eigenvalues, phi).values * g.values))
    ],
    "extension_solve": _extension_u_and_du,
    "boundary_limit": _limit_extrapolated,
    "kernel_norm_decay": _kernel_norm_fits,
}


@pytest.mark.parametrize("call", sorted(SPECTRUM_CALLS))
@pytest.mark.parametrize("grid", ["torus64", "torus2d"])
def test_dense_and_fourier_spectra_agree(request, grid, call):
    # the functional calculus sees only the Spectrum members, so the dense
    # eigenbasis and the FFT must give the same numbers to roundoff
    op, dec = request.getfixturevalue(grid)
    diag = fourier_decompose(op)
    results = []
    for spectrum in (dec, diag):
        rng = np.random.default_rng(20240817)
        phi = GridFunction(op.spec, rng.standard_normal(op.spec.n_nodes))
        g = GridFunction(op.spec, rng.standard_normal(op.spec.n_nodes))
        results.append(SPECTRUM_CALLS[call](spectrum, phi, g, rng))
    for dense, fft in zip(*results):
        dense, fft = np.atleast_1d(dense), np.atleast_1d(fft)
        assert np.abs(dense - fft).max() <= 1e-10 * np.abs(dense).max()
