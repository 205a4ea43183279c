import warnings

import numpy as np
import pytest

from subfrac import (
    GridFunction,
    GridSpec,
    apply_multi_index,
    assemble_operator,
    fit_loglog,
    gaussian_bound_check,
    heat_kernel_column,
    integral,
    kernel_norm_decay,
    kernel_reconstruction_gap,
    lp_norm,
    measure_ball_volumes,
    spectral_decompose,
    volume_growth_fit,
)
from subfrac.errors import ConfigError
from subfrac.group import GROUPS

HEISENBERG, EUCLIDEAN = GROUPS["heisenberg"], GROUPS["euclidean_box"]


# ---------------------------------------------------------------------------
# fitting machinery
# ---------------------------------------------------------------------------

def test_fit_recovers_exact_power_law():
    t = np.geomspace(0.1, 10, 9)
    fit = fit_loglog(t, 3.7 * t ** -1.25)
    assert fit.fitted_slope == pytest.approx(-1.25, abs=1e-12)
    assert fit.slope_ci <= 1e-12
    assert fit.residual <= 1e-12


def test_fit_validation():
    with pytest.raises(ConfigError):
        fit_loglog([0.1], [1.0])
    with pytest.raises(ConfigError):
        fit_loglog([0.1, -0.2], [1.0, 1.0])


def test_fit_rejects_equal_samples(capfd):
    # one distinct sample leaves the slope undetermined; LAPACK must not see it
    with pytest.raises(ConfigError, match="two distinct samples"):
        fit_loglog([1, 1, 1], [1, 2, 3])
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("t, norms", [
    ([1.0, 2.0, 3.0], [1.0, np.nan, 2.0]),
    ([1.0, np.inf, 3.0], [1.0, 1.5, 2.0]),
    ([1.0, 2.0, 3.0], [1.0, np.inf, 2.0]),
], ids=["nan-norm", "inf-t", "inf-norm"])
def test_fit_rejects_non_finite_samples(t, norms):
    with pytest.raises(ConfigError, match="finite"):
        fit_loglog(t, norms)


# ---------------------------------------------------------------------------
# kernel norm decay
# ---------------------------------------------------------------------------

def test_kernel_decay_euclid_torus(torus256):
    op, dec = torus256
    ts = np.geomspace(0.05, 0.5, 7)
    fit1 = kernel_norm_decay(dec, 0.5, 1, ts)
    assert abs(fit1.fitted_slope - (-0.5)) <= 0.1
    # p = 2 targets -s - N/4, with homogeneous dimension N = 1 on the 1-D torus
    fit2 = kernel_norm_decay(dec, 0.5, 2, ts)
    assert abs(fit2.fitted_slope - (-0.75)) <= 0.1


def test_kernel_decay_small_s_limit(torus256):
    op, dec = torus256
    ts = np.geomspace(0.05, 0.5, 7)
    fit = kernel_norm_decay(dec, 0.05, 1, ts)
    assert abs(fit.fitted_slope - (-0.05)) <= 0.1


def test_kernel_decay_heisenberg(heis15):
    # resolution (low t) trades against Dirichlet leakage (high t); the decade
    # [0.16, 1.6] threads both for s = 1/2 on the 15^3 box
    op, dec = heis15
    ts = np.geomspace(0.16, 1.6, 7)
    with pytest.warns(RuntimeWarning):
        fit1 = kernel_norm_decay(dec, 0.5, 1, ts)
    assert abs(fit1.fitted_slope - (-0.5)) <= 0.15
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fit2 = kernel_norm_decay(dec, 0.5, 2, ts)
    assert abs(fit2.fitted_slope - (-1.5)) <= 0.2


def test_kernel_decay_window_validation(torus256):
    op, dec = torus256
    with pytest.raises(ConfigError):
        kernel_norm_decay(dec, 0.5, 1, [1e-7, 1e-6])
    with pytest.raises(ConfigError):
        kernel_norm_decay(dec, 0.5, 3, [0.1, 0.2])
    with pytest.raises(ConfigError):
        kernel_norm_decay(dec, -0.5, 1, [0.1, 0.2])


# ---------------------------------------------------------------------------
# Gaussian bound
# ---------------------------------------------------------------------------

def test_gaussian_bound_euclid_constant(torus256):
    # the exact Gaussian makes the log-gap t-independent up to discretization
    op, dec = torus256
    res = gaussian_bound_check(dec, (0.05, 0.1, 0.2, 0.4), 0.5)
    assert res.stable
    assert res.spread <= 0.05


def test_gaussian_bound_heisenberg():
    spec = GridSpec(13, 1.5, 3, "heisenberg")
    dec = spectral_decompose(assemble_operator("j1", spec))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = gaussian_bound_check(dec, (0.1, 0.2, 0.4), 0.5)
    assert res.stable
    assert np.isfinite(res.log_gaps).all()
    assert res.spread < 2.0


def test_gaussian_bound_requires_positive_epsilon(torus256):
    op, dec = torus256
    with pytest.raises(ConfigError):
        gaussian_bound_check(dec, (0.1,), 0.0)


# ---------------------------------------------------------------------------
# volume growth
# ---------------------------------------------------------------------------

def test_volume_doubles_as_r_fourth():
    # lattice-count bias is O(h * surface/volume) ~ 3% at h = 0.05, r = 1
    vols = measure_ball_volumes([1.0, 2.0], 0.05, HEISENBERG)
    assert vols[1] / vols[0] == pytest.approx(16.0, rel=0.05)


def test_volume_matches_the_closed_form_unit_ball():
    # V(r) = (pi^2/8) r^4 for the quartic norm; the lattice count at h = 0.05
    # is within 1.6e-3 for r >= 1.32 (r = 1 is 3.6e-2 low)
    r = np.geomspace(1.0, 4.0, 6)[1:]
    vols = measure_ball_volumes(r, 0.05, HEISENBERG)
    assert np.abs(vols / (np.pi ** 2 / 8.0 * r ** 4) - 1.0).max() <= 2e-3


def _slab_count(r_values, lattice_h, group):
    """Brute-force oracle: every lattice point's norm, one x1 slab at a time."""
    r = np.asarray(sorted(r_values), dtype=float)
    rmax = r.max()
    r3max = rmax * rmax / 4.0 if group is HEISENBERG else rmax
    ax12 = np.arange(-rmax, rmax + lattice_h / 2.0, lattice_h)
    ax3 = np.arange(-r3max, r3max + lattice_h / 2.0, lattice_h)
    counts = np.zeros(r.size, dtype=np.int64)
    x2g, x3g = np.meshgrid(ax12, ax3, indexing="ij")
    for x1 in ax12:
        if group is HEISENBERG:
            r2 = x1 * x1 + x2g ** 2
            d = ((r2 * r2 + 16.0 * x3g ** 2) ** 0.25).ravel()
        else:
            d = np.sqrt(x1 * x1 + x2g ** 2 + x3g ** 2).ravel()
        counts += np.searchsorted(np.sort(d), r, side="left")
    return counts


@pytest.mark.parametrize("group", [HEISENBERG, EUCLIDEAN], ids=["heisenberg", "euclidean"])
@pytest.mark.parametrize("r, lattice_h", [
    (np.geomspace(1.0, 4.0, 6), 0.05),  # the radii and spacing of verify-all
    (np.linspace(0.7, 3.3, 9), 0.07),
])
def test_column_count_matches_the_slab_oracle(r, lattice_h, group):
    # the per-column search counts exactly the points whose norm is below r
    vols = measure_ball_volumes(r, lattice_h, group)
    assert np.array_equal(vols, _slab_count(r, lattice_h, group) * lattice_h ** 3)


def test_volume_growth_slope():
    fit = volume_growth_fit(np.geomspace(1.0, 4.0, 6), 0.05, HEISENBERG)
    assert abs(fit.fitted_slope - 4.0) <= 0.3


def test_volume_growth_euclid_control():
    fit = volume_growth_fit(np.geomspace(1.0, 4.0, 6), 0.05, EUCLIDEAN)
    assert abs(fit.fitted_slope - 3.0) <= 0.2


@pytest.mark.parametrize("r_values, lattice_h", [
    ([1.0, 2.0], 0.0),
    ([1.0, 2.0], np.nan),
    ([1.0, 2.0], -0.1),
    ([1.0, np.nan], 0.1),
    ([1.0, np.inf], 0.1),
], ids=["zero-h", "nan-h", "negative-h", "nan-radius", "inf-radius"])
def test_ball_volumes_reject_a_bad_lattice_or_radius(r_values, lattice_h):
    with pytest.raises(ConfigError, match="finite"):
        measure_ball_volumes(r_values, lattice_h, HEISENBERG)


def test_ball_volumes_reject_no_radii():
    with pytest.raises(ConfigError, match="at least one radius"):
        measure_ball_volumes([], 0.1, HEISENBERG)


def test_volume_growth_rejects_no_radii():
    with pytest.raises(ConfigError, match="at least one radius"):
        volume_growth_fit([], 0.1, HEISENBERG)


def test_volume_growth_rejects_a_negative_lattice_step():
    with pytest.raises(ConfigError, match="lattice_h must be finite and > 0"):
        volume_growth_fit([1.0, 2.0], -0.1, HEISENBERG)


def test_volume_growth_undersampled():
    with pytest.raises(ConfigError):
        volume_growth_fit([1.0, 2.0], 0.5, HEISENBERG)


# ---------------------------------------------------------------------------
# heat-kernel norms
# ---------------------------------------------------------------------------

def test_weighted_mass_is_flat(heis15):
    op, dec = heis15
    ts = np.geomspace(0.15, 1.5, 7)
    fit = fit_loglog(ts, [lp_norm(heat_kernel_column(dec, t), 1) for t in ts])
    assert abs(fit.fitted_slope) <= 0.1
    # |.|_1 picks up the discrete undershoot wiggles on top of the unit mass
    assert lp_norm(heat_kernel_column(dec, 0.3), 1) == pytest.approx(1.0, abs=2e-2)


def test_weighted_x1_slope(heis15_fine):
    # ||X^I h_t||_p falls as t^(-|I|/2 - N/(2p')); -1/2 for I = (X1), p = 1
    op, dec = heis15_fine
    ts = np.geomspace(0.08, 0.8, 7)
    norms = [lp_norm(apply_multi_index(["X1"], heat_kernel_column(dec, t)), 1) for t in ts]
    fit = fit_loglog(ts, norms)
    assert abs(fit.fitted_slope - (-0.5)) <= 0.15


def test_weighted_euclid_closed_form(torus256):
    # 1-D Gaussian first moment: int (1+|x|) h_t = 1 + 2 sqrt(t/pi); the
    # kernel is centered at the node x = 0
    op, dec = torus256
    weight = 1.0 + np.abs(op.spec.node_coordinates()[:, 0])
    for t in (0.1, 0.3):
        got = integral(GridFunction(op.spec, weight * heat_kernel_column(dec, t).values))
        assert got == pytest.approx(1.0 + 2.0 * np.sqrt(t / np.pi), rel=5e-3)


# ---------------------------------------------------------------------------
# multiplier-kernel reconstruction
# ---------------------------------------------------------------------------

@pytest.mark.xfail(
    strict=True,
    reason="1e-3 is unattainable at dense-cap resolution: the gap reads 2.6e-2 "
    "at s = 0.3 on the 15^3 box, and a cubic interpolation along x3 in place "
    "of the linear one only moved it to 2.2e-2, so most of it likely comes "
    "from the box's J not being invariant under group translations, not "
    "from the interpolation of the peaked kernels",
)
def test_kernel_reconstruction_spec_tolerance(heis15):
    op, dec = heis15
    assert kernel_reconstruction_gap(dec, 0.3, 0.5) <= 1e-3


def test_kernel_reconstruction_achievable(heis15):
    # same identity at the tolerance the grid supports (measured 2.6e-2 and
    # 5.3e-2 at h = 0.57)
    op, dec = heis15
    assert kernel_reconstruction_gap(dec, 0.3, 0.5) <= 5e-2
    assert kernel_reconstruction_gap(dec, 0.5, 0.5) <= 8e-2
