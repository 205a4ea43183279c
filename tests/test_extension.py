import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import gamma, kv

import subfrac
from subfrac import (
    ExtensionParams,
    GridFunction,
    boundary_limit,
    extension_constant,
    extension_constant_quadrature,
    extension_multiplier_values,
    extension_solve,
    extension_solve_tau_grid,
    fractional_power,
    gaussian_bump,
    lp_norm,
    path_agreement,
    pde_residual,
    scalar_ode_residual,
    subordination_integral,
)
from subfrac.errors import AccuracyError, ConfigError
from subfrac.extension import _check_second_derivative


def bessel_F(s, t, lam):
    """Independent closed form: F = 2^{1-s}/Gamma(s) (t sqrt(lam))^s K_s(t sqrt(lam))."""
    z = t * np.sqrt(lam)
    return 2.0 ** (1 - s) / gamma(s) * z ** s * kv(s, z)


def multiplier(s, t, lam):
    """F_s(t, lambda) at one spectral point, from the closed-form multipliers."""
    return float(extension_multiplier_values(s, t, np.array([lam]))[0][0])


def torus_bump(spec):
    return gaussian_bump(spec, [0.2 * spec.extent], 8 * spec.spacing)


# ---------------------------------------------------------------------------
# the constant C(s)
# ---------------------------------------------------------------------------

def test_constant_closed_form_values():
    assert extension_constant(0.5) == 1.0
    for s in (0.1, 0.3, 0.5, 0.7, 0.9):
        want = 4.0 ** (1 - s) * gamma(1 - s) / (2 * gamma(s))
        assert extension_constant(s) == pytest.approx(want, rel=0)


def test_constant_vs_direct_quadrature():
    # from a QUAD_NODES-interval first level, within QUAD_DOUBLINGS, out to
    # both ends of (0, 1)
    for s in (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.9999):
        closed = extension_constant(s)
        quad = extension_constant_quadrature(s)
        assert abs(closed - quad) <= 1e-10 * closed


def test_constant_domain():
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ConfigError):
            extension_constant(bad)


# ---------------------------------------------------------------------------
# scalar multiplier
# ---------------------------------------------------------------------------

def test_multiplier_bessel_half():
    # K_{1/2} closed form: F = e^{-t sqrt(lam)}
    got = multiplier(0.5, 1.0, 1.0)
    assert got == pytest.approx(np.exp(-1.0), rel=1e-9)


def test_multiplier_lambda_zero_scalar_convention():
    # the kernel mode passes through at every t, as on the operator paths
    assert multiplier(0.5, 1.0, 0.0) == 1.0


def test_multiplier_matches_bessel_oracle(rng):
    for _ in range(25):
        s = rng.uniform(0.05, 0.95)
        t = rng.uniform(0.01, 3.0)
        lam = rng.uniform(0.05, 50.0)
        got = multiplier(s, t, lam)
        assert got == pytest.approx(bessel_F(s, t, lam), rel=1e-9, abs=1e-12)


def test_multiplier_bounds_and_monotonicity():
    lams = np.array([0.0, 0.3, 1.0, 7.0, 50.0, 400.0])
    for s in (0.1, 0.3, 0.5, 0.7, 0.9):
        prev = np.ones_like(lams)  # F(0, .) = 1
        for t in np.linspace(0.0, 10.0, 21)[1:]:
            vals, _, _ = extension_multiplier_values(s, t, lams)
            assert (vals >= 0.0).all() and (vals <= 1.0).all()
            assert (vals <= prev + 1e-10).all()
            prev = vals


def test_derivative_multiplier_vanishes_at_kernel_mode():
    _, vals, _ = extension_multiplier_values(0.5, 1.0, np.array([0.0, 1.0]))
    assert vals[0] == 0.0
    assert vals[1] < 0.0


@given(
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=0.0, max_value=10.0, exclude_min=True),
    st.floats(min_value=0.0, max_value=500.0),
)
def test_multiplier_in_unit_interval(s, t, lam):
    v = multiplier(s, t, lam)
    assert 0.0 <= v <= 1.0


@given(
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=0.01, max_value=5.0),
    st.floats(min_value=0.5, max_value=3.0),
    st.floats(min_value=0.01, max_value=100.0),
)
def test_multiplier_nonincreasing_in_t(s, t, factor, lam):
    early = multiplier(s, t, lam)
    late = multiplier(s, t * (1.0 + factor), lam)
    assert late <= early + 1e-10


def test_subordination_integral_bessel_family():
    # G_k = 2/Gamma(s) q^{(s-k)/2} K_{s-k}(2 sqrt(q)) for k = 0, 1, 2
    for s in (0.25, 0.6):
        for q in (1e-4, 0.1, 4.0):
            for k in (0, 1, 2):
                got = subordination_integral(s, np.array([q]), k)[0]
                want = 2.0 / gamma(s) * q ** ((s - k) / 2.0) * kv(s - k, 2.0 * np.sqrt(q))
                assert got[0] == pytest.approx(want, rel=1e-9)


def test_subordination_integral_validation(monkeypatch):
    with pytest.raises(ConfigError):
        subordination_integral(0.5, np.array([0.0]), 1)
    with pytest.raises(ConfigError):
        subordination_integral(1.2, np.array([1.0]), 0)
    with pytest.raises(ConfigError):
        subordination_integral(0.5, np.array([np.nan]), 0)
    # a sweep takes one scale >= 0 per s, and k = 0
    for s, k, scale in (([0.5, 0.3], 0, [1.0]), ([0.5], 1, [1.0]), ([0.5], 0, [-1.0]),
                        ([0.5], 0, [np.nan]), ([0.5, 0.3], 0, None)):
        with pytest.raises(ConfigError):
            subordination_integral(s, np.array([1.0]), k, scale=scale)
    monkeypatch.setattr(subfrac.extension, "QUAD_NODES", 4)
    monkeypatch.setattr(subfrac.extension, "QUAD_RTOL", 1e-12)
    monkeypatch.setattr(subfrac.extension, "QUAD_DOUBLINGS", 0)
    with pytest.raises(AccuracyError):
        subordination_integral(0.5, np.array([1.0]), 0)


def test_subordination_integral_infinite_q():
    # q = inf is the mirror of q = 0: every G_k is exactly 0, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in (0, 1, 2):
            got = subordination_integral(0.5, np.array([1.0, np.inf]), k)[0]
            want = 2.0 / gamma(0.5) * kv(0.5 - k, 2.0)
            assert got[0] == pytest.approx(want, rel=1e-9) and got[1] == 0.0
        got = subordination_integral(np.array([0.5, 0.5]), np.array([0.0, 1.0]), 0,
                                     scale=np.array([1.0, np.inf]))[0]
        assert got[0, 0] == got[0, 1] == 1.0 and got[1, 1] == 0.0
        assert got[1, 0] == pytest.approx(2.0 / gamma(0.5) * kv(0.5, 2.0), rel=1e-9)


def test_subordination_integral_tiny_q():
    # s - k < 0 with a tiny q: the peak of the log-axis integrand must not
    # cancel to zero
    for k, q in ((1, 1e-300), (2, 1e-150)):
        got = subordination_integral(0.5, np.array([q]), k)[0]
        want = 2.0 / gamma(0.5) * q ** ((0.5 - k) / 2.0) * kv(0.5 - k, 2.0 * np.sqrt(q))
        assert got[0] == pytest.approx(want, rel=1e-9)


EXACT_CASES = (
    [(0, s, q) for s in (0.01, 0.1, 0.5, 0.99)
     for q in (5e-324, 1e-310, 1e-300, 1e-12, 1.0, 1e4)]
    + [(k, 0.5, q) for k in (1, 2) for q in (1e-300, 1e-150, 1e-12, 1.0, 1e4)
       if (k, q) != (2, 1e-300)]
)


def test_quadrature_engine_is_exact():
    # down to the smallest subnormal q, where the q-term matters only far out
    # on the negative log axis, and without a floating-point warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k, s, q in EXACT_CASES:
            got = subordination_integral(s, np.array([q]), k)[0]
            want = 2.0 / gamma(s) * q ** ((s - k) / 2.0) * kv(s - k, 2.0 * np.sqrt(q))
            assert got[0] == pytest.approx(want, rel=1e-12), (k, s, q)
        for s in (0.01, 0.5, 0.99, 0.999, 0.9999):
            assert extension_constant_quadrature(s) == pytest.approx(
                extension_constant(s), rel=1e-14)


def test_quadrature_levels_nest(monkeypatch):
    # a call that converges after k doublings evaluates the integrand at the
    # QUAD_NODES 2^k + 1 nodes of its finest level, each exactly once, both
    # for one pair and for a sweep of pairs on the shared grid
    import subfrac.extension as ext

    monkeypatch.setattr(ext, "QUAD_NODES", 16)
    evaluate = ext._level_sums
    seen = []

    def counted(a, log_c, x, log_x, shift, sig, weight):
        seen.extend(sig)
        return evaluate(a, log_c, x, log_x, shift, sig, weight)

    monkeypatch.setattr(ext, "_level_sums", counted)
    q = np.array([1e-3, 1.0, 10.0])
    s, scale = np.array([0.5, 0.3]), np.array([1.0, 0.25])
    calls = (
        (lambda: subordination_integral(0.5, q, 0)[0],
         2.0 / gamma(0.5) * q ** 0.25 * kv(0.5, 2.0 * np.sqrt(q))),
        (lambda: subordination_integral(s, q, 0, scale=scale)[0],
         2.0 / gamma(s) * np.outer(q, scale) ** (s / 2.0)
         * kv(s, 2.0 * np.sqrt(np.outer(q, scale)))),
    )
    for call, want in calls:
        seen.clear()
        monkeypatch.setattr(ext, "QUAD_DOUBLINGS", 6)
        got = call()
        nodes = np.sort(seen)
        k = int(np.log2((nodes.size - 1) // 16))
        assert k >= 2 and nodes.size == 16 * 2 ** k + 1
        assert np.unique(nodes).size == nodes.size
        np.testing.assert_allclose(np.diff(nodes), (nodes[-1] - nodes[0]) / (16 * 2 ** k),
                                   rtol=1e-9)
        np.testing.assert_allclose(got, want, rtol=1e-10)
        # one doubling fewer does not converge, so k is the doubling count
        monkeypatch.setattr(ext, "QUAD_DOUBLINGS", k - 1)
        with pytest.raises(AccuracyError):
            call()


def test_closed_form_matches_quadrature():
    # PATH A's Bessel-K triple against G_0, G_1, G_2 by quadrature
    lam = np.geomspace(1e-3, 1e3, 25)
    for s in (0.1, 0.5, 0.9):
        for t in (0.05, 0.5, 2.0):
            q = lam * t * t / 4.0
            g0 = subordination_integral(s, q, 0)[0]
            g1 = subordination_integral(s, q, 1)[0]
            g2 = subordination_integral(s, q, 2)[0]
            F, dF, ddF = extension_multiplier_values(s, t, lam)
            np.testing.assert_allclose(F, g0, rtol=1e-9, atol=1e-300)
            np.testing.assert_allclose(dF, -(lam * t / 2.0) * g1, rtol=1e-9, atol=1e-300)
            want = (lam ** 2 * t * t / 4.0) * g2 - (lam / 2.0) * g1
            scale = (lam ** 2 * t * t / 4.0) * g2 + (lam / 2.0) * g1
            assert (np.abs(ddF - want) <= 1e-9 * scale).all()


def test_multipliers_raise_no_warning():
    lam = np.geomspace(1e-296, 1e6, 600)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in (0.05, 0.5, 0.95):
            for t in (1e-3, 0.025, 0.2, 10.0):
                F, dF, ddF = extension_multiplier_values(s, t, lam)
                assert np.isfinite(ddF).all()
                assert ((F >= 0.0) & (F <= 1.0)).all() and (dF <= 0.0).all()


def test_multipliers_need_finite_positive_t():
    for bad in (0.0, -0.1, np.nan, np.inf):
        with pytest.raises(ConfigError):
            extension_multiplier_values(0.5, bad, np.array([1.0]))


def test_multipliers_pass_every_mode_when_t_squared_underflows():
    # t * t is 0 in floating point, so every q is 0 and every mode passes through
    F, dF, ddF = extension_multiplier_values(0.5, 5e-324, np.array([0.0, 1.0, 500.0]))
    assert (F == 1.0).all() and (dF == 0.0).all() and (ddF == 0.0).all()


@pytest.mark.parametrize("t, lam", [(1e-150, 1.0), (2e-155, 500.0)])
def test_cancelled_second_derivative_is_accuracy_error(t, lam):
    # at s = 1/2 both terms of d2F/dt2 grow like sqrt(lam)/t while their
    # difference stays near lam F: these inputs gave 1.8e134 and -inf
    one = np.array([lam])
    with pytest.raises(AccuracyError, match="cancels to roundoff"):
        _check_second_derivative(0.5, t, one, *extension_multiplier_values(0.5, t, one))
    # the 64-node unit torus has lam from 0 to 16384, both of these among them
    spec = subfrac.GridSpec(64, 1.0, 1, "euclidean_torus")
    dec = subfrac.fourier_decompose(subfrac.assemble_operator("euclid", spec))
    with pytest.raises(AccuracyError, match="cancels to roundoff"):
        extension_solve(dec, ExtensionParams(s=0.5, t_values=(t,)), torus_bump(spec))


def test_second_derivative_with_half_its_digits_passes():
    # above the threshold the ODE at s = 1/2, F'' = lam F, holds to about
    # eps * 2 / (t sqrt(lam)) relative; a mode whose own ddF is noise but
    # far below the spectrum's largest passes
    lam = np.array([1.0, 500.0])
    F, dF, ddF = extension_multiplier_values(0.5, 1e-6, lam)
    _check_second_derivative(0.5, 1e-6, lam, F, dF, ddF)
    np.testing.assert_allclose(ddF, lam * F, rtol=1e-8)
    lam = np.array([1e-221, 1.0])
    _check_second_derivative(0.5, 1.0, lam, *extension_multiplier_values(0.5, 1.0, lam))


def test_a_mode_that_passes_through_loses_its_second_derivative():
    # below the normal double range of q = lam t^2/4 a mode passes through
    # with ddF = 0, so all of its d2F/dt2 is lost: refused when it carries
    # the spectrum's scale, kept when it lies far below the largest mode
    lam = np.array([1.0, 40.0])
    F, dF, ddF = extension_multiplier_values(0.5, 1e-160, lam)
    assert (F == 1.0).all() and (ddF == 0.0).all()
    with pytest.raises(AccuracyError):
        _check_second_derivative(0.5, 1e-160, lam, F, dF, ddF)
    with pytest.raises(AccuracyError):
        scalar_ode_residual(0.5, 1.0, 1e-200)
    lam = np.array([1e-310, 1.0])
    _check_second_derivative(0.5, 1.0, lam, *extension_multiplier_values(0.5, 1.0, lam))


def test_scalar_ode_residual_random(rng):
    # the diagonalized extension equation F'' + ((1-2s)/t) F' = lam F
    for _ in range(20):
        s = rng.uniform(0.1, 0.9)
        lam = rng.uniform(0.1, 50.0)
        t = rng.uniform(0.05, 2.0)
        assert scalar_ode_residual(s, lam, t) <= 1e-8


def test_scalar_ode_residual_refuses_a_cancelled_second_derivative():
    # at t = 1e-150 d2F/dt2 is 1.8e134 of cancellation noise, whose residual
    # would read as the plausible 1.0
    with pytest.raises(AccuracyError, match="cancels to roundoff"):
        scalar_ode_residual(0.5, 1.0, 1e-150)


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------

def test_extension_params_validation():
    with pytest.raises(ConfigError):
        ExtensionParams(s=0.0, t_values=(0.1,))
    with pytest.raises(ConfigError):
        ExtensionParams(s=1.0, t_values=(0.1,))
    with pytest.raises(ConfigError):
        ExtensionParams(s=0.5, t_values=(0.1, 0.2))
    with pytest.raises(ConfigError):
        ExtensionParams(s=0.5, t_values=(0.1, -0.05))
    p = ExtensionParams(s=0.5, t_values=(0.2, 0.1))
    assert p.t_values == (0.2, 0.1)


def test_extension_params_reject_non_finite_t():
    for ts in ((np.nan,), (0.2, np.nan), (np.inf, 0.1)):
        with pytest.raises(ConfigError):
            ExtensionParams(s=0.5, t_values=ts)


@given(st.one_of(
    st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=4),
    st.sets(st.floats(min_value=1e-300, max_value=1e300), max_size=4).map(
        lambda ts: sorted(ts, reverse=True)),
))
def test_extension_params_accepts_exactly_valid_sweeps(ts):
    valid = (len(ts) > 0 and all(0.0 < t < np.inf for t in ts)
             and all(b < a for a, b in zip(ts, ts[1:])))
    try:
        params = ExtensionParams(s=0.5, t_values=tuple(ts))
    except ConfigError:
        assert not valid
    else:
        assert valid
        assert params.t_values == tuple(ts)


# ---------------------------------------------------------------------------
# grid-level solution
# ---------------------------------------------------------------------------

def test_initial_value_on_torus(torus64):
    op, dec = torus64
    phi = torus_bump(op.spec)
    params = ExtensionParams(s=0.5, t_values=(1e-3,))
    u = extension_solve(dec, params, phi).u[0]
    gap = lp_norm(GridFunction(op.spec, u.values - phi.values), 2)
    assert gap / lp_norm(phi, 2) <= 0.01


def test_solution_on_eigenvector_is_scalar_multiplier(torus64):
    op, dec = torus64
    k = 5
    v = GridFunction(op.spec, dec.eigenvector(k))
    lam = dec.eigenvalues[k]
    params = ExtensionParams(s=0.3, t_values=(0.7,))
    u = extension_solve(dec, params, v).u[0]
    F = multiplier(0.3, 0.7, lam)
    assert np.abs(u.values - F * v.values).max() <= 1e-9


def test_kernel_mode_passthrough(torus64):
    # constant phi: u(t) = phi for all t and d_t u = 0, on PATH A and PATH B
    op, dec = torus64
    phi = GridFunction(op.spec, np.full(op.spec.n_nodes, 2.5))
    params = ExtensionParams(s=0.4, t_values=(1.0, 0.5))
    prof = extension_solve(dec, params, phi)
    for u, du in zip(prof.u, prof.du_dt):
        assert np.abs(u.values - 2.5).max() <= 1e-10
        assert np.abs(du.values).max() <= 1e-10
    fields = extension_solve_tau_grid(dec, [params], phi)[0][0]
    for u in fields:
        assert np.abs(u.values - 2.5).max() <= 1e-12


def test_path_a_vs_path_b_heisenberg(heis9, rng):
    op, dec = heis9
    phi = subfrac.random_bump(op.spec, rng)
    params = ExtensionParams(s=0.45, t_values=(0.8, 0.3))
    assert path_agreement(dec, [extension_solve(dec, params, phi)], phi)[0][0] <= 1e-6


def test_path_a_vs_path_b_torus_mean_zero(torus64, rng):
    # both routes pass the kernel mode through, so the mean may be there or not
    op, dec = torus64
    vals = subfrac.random_bump(op.spec, rng).values
    params = ExtensionParams(s=0.3, t_values=(0.5,))
    for phi in (GridFunction(op.spec, vals - vals.mean()), GridFunction(op.spec, vals)):
        assert path_agreement(dec, [extension_solve(dec, params, phi)], phi)[0][0] <= 1e-6


class CountedQuadrature:
    """subordination_integral, recording the number of rows and the result of each call."""

    def __init__(self):
        self.rows, self.results = [], []

    def __call__(self, s, q, k=0, scale=None):
        result = subordination_integral(s, q, k, scale=scale)
        self.rows.append(len(q))
        self.results.append(result)
        return result


def test_tau_grid_one_quadrature_row_per_distinct_eigenvalue(torus64, monkeypatch):
    # the torus spectrum repeats eigenvalues; PATH B integrates each distinct
    # eigenvalue once for the whole sweep and must give the same numbers as
    # one row per eigenvalue
    import subfrac.extension as ext

    op, dec = torus64
    phi = torus_bump(op.spec)
    sweep = [ExtensionParams(s=s, t_values=(0.3, 0.1)) for s in (0.4, 0.7)]
    counted = CountedQuadrature()
    monkeypatch.setattr(ext, "subordination_integral", counted)
    fields = extension_solve_tau_grid(dec, sweep, phi)[0]
    lam = dec.eigenvalues
    assert counted.rows == [np.unique(lam).size] and counted.rows[0] < lam.size
    s = np.array([0.4, 0.4, 0.7, 0.7])
    scale = np.array([0.3, 0.1, 0.3, 0.1]) ** 2 / 4.0
    per_eigenvalue = subordination_integral(s, lam, 0, scale=scale)[0]
    got = [u.values for us in fields for u in us]
    want = [u.values for u in dec.apply_values(per_eigenvalue.T, phi)]
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14 * np.abs(want).max())


class CountedSpectrum:
    """A Spectrum that counts apply_values calls and the rows of each."""

    def __init__(self, dec):
        self.spec, self.eigenvalues, self.dec, self.rows = dec.spec, dec.eigenvalues, dec, []

    def apply_values(self, values, f):
        self.rows.append(np.shape(values)[0] if np.ndim(values) == 2 else None)
        return self.dec.apply_values(values, f)


def test_one_batched_apply_per_s(heis9, rng, monkeypatch):
    # PATH A takes its 4 |t| fields from one apply per s; PATH B takes the
    # |s| |t| fields of the whole sweep from one quadrature call and one apply
    import subfrac.extension as ext

    op, dec = heis9
    phi = subfrac.random_bump(op.spec, rng)
    ts = (0.2, 0.1, 0.05)
    sweep = [ExtensionParams(s=s, t_values=ts) for s in (0.3, 0.7)]
    counted = CountedSpectrum(dec)
    profiles = [extension_solve(counted, params, phi) for params in sweep]
    assert counted.rows == [4 * len(ts)] * len(sweep)
    quadrature = CountedQuadrature()
    monkeypatch.setattr(ext, "subordination_integral", quadrature)
    fields, deltas, doublings = extension_solve_tau_grid(counted, sweep, phi)
    assert counted.rows == [4 * len(ts)] * len(sweep) + [len(sweep) * len(ts)]
    assert quadrature.rows == [np.unique(dec.eigenvalues).size]
    assert len(fields) == len(deltas) == len(sweep)
    assert all(0.0 <= d <= subfrac.extension.QUAD_RTOL for d in deltas)
    assert 1 <= doublings <= subfrac.extension.QUAD_DOUBLINGS
    for profile, us in zip(profiles, fields):
        assert len(us) == len(ts)
        for u, ub in zip(profile.u, us):
            assert np.linalg.norm(u.values - ub.values) <= 1e-6 * np.linalg.norm(u.values)


@pytest.mark.parametrize("grid, s_values", [
    ("heis9", (0.1, 0.3, 0.5, 0.7, 0.9)),
    ("torus2d", (0.3, 0.5, 0.7)),
])
def test_path_b_converges_after_one_doubling(grid, s_values, request, rng):
    # the sweeps of the heis9 and torus2d verify-all runs: the QUAD_NODES
    # first level is already at roundoff, and one doubling proves it
    if grid == "torus2d":
        spec = subfrac.GridSpec(48, 10.0, 2, "euclidean_torus")
        dec = subfrac.fourier_decompose(subfrac.assemble_operator("euclid", spec))
    else:
        _, dec = request.getfixturevalue(grid)
    phi = subfrac.random_bump(dec.spec, rng)
    sweep = [ExtensionParams(s=s, t_values=(0.2, 0.1, 0.05)) for s in s_values]
    _, deltas, doublings = extension_solve_tau_grid(dec, sweep, phi)
    assert doublings == 1
    assert all(0.0 <= d <= subfrac.extension.QUAD_RTOL for d in deltas)


@pytest.mark.parametrize("grid", ["heis9", "torus64"])
def test_sweep_matches_per_pair_quadrature(grid, request, rng, monkeypatch):
    # the shared grid of the sweep against subordination_integral(s, q, 0)
    # of each pair (s, t) on its own grid, with q = lambda t^2/4
    import subfrac.extension as ext

    op, dec = request.getfixturevalue(grid)
    phi = subfrac.random_bump(op.spec, rng)
    ts = (0.2, 0.1, 0.05)
    sweep = [ExtensionParams(s=s, t_values=ts) for s in (0.1, 0.3, 0.5, 0.7, 0.9)]
    counted = CountedQuadrature()
    monkeypatch.setattr(ext, "subordination_integral", counted)
    fields = extension_solve_tau_grid(dec, sweep, phi)[0]
    g0 = counted.results[0][0]
    lam, index = np.unique(dec.eigenvalues, return_inverse=True)
    pairs = [(params.s, t) for params in sweep for t in ts]
    assert g0.shape == (lam.size, len(pairs))
    for col, ((s, t), ub) in enumerate(zip(pairs, (u for us in fields for u in us))):
        want = subordination_integral(s, lam * t * t / 4.0, 0)[0]
        np.testing.assert_allclose(g0[:, col], want, rtol=1e-13, atol=0)
        ua = dec.apply_values(want[index], phi)
        assert np.linalg.norm(ua.values - ub.values) <= 1e-13 * np.linalg.norm(ua.values)


def test_huge_t_modes_vanish_on_both_paths(torus64):
    # q = lambda t^2/4 overflows to inf: F and its derivatives are exactly 0,
    # the mirror of the q < tiny pass-through, and the kernel mode still
    # passes through
    op, dec = torus64
    phi = GridFunction(op.spec, torus_bump(op.spec).values + 1.5)
    params = ExtensionParams(s=0.5, t_values=(1e300, 1e299, 1e154))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in params.t_values:
            F, dF, ddF = extension_multiplier_values(0.5, t, np.array([0.0, 1e6, 500.0]))
            assert F[0] == 1.0 and (F[1:] == 0.0).all()
            assert (dF == 0.0).all() and (ddF == 0.0).all()
        profile = extension_solve(dec, params, phi)
        (fields,), (delta,), doublings = extension_solve_tau_grid(dec, [params], phi)
    mean = np.full(op.spec.n_nodes, phi.values.mean())
    for u, ub in zip(profile.u, fields):
        np.testing.assert_allclose(u.values, mean, rtol=0, atol=1e-12)
        np.testing.assert_allclose(ub.values, mean, rtol=0, atol=1e-12)
    assert delta == 0.0 and doublings >= 0


def test_huge_t_modes_stay_out_of_the_grid(torus64, monkeypatch):
    # a pair whose every q overflows adds nothing to the shared grid
    import subfrac.extension as ext

    op, dec = torus64
    phi = torus_bump(op.spec)
    evaluate = ext._level_sums
    spans = []

    def recorded(a, log_c, x, log_x, shift, sig, weight):
        spans.append((sig.min(), sig.max()))
        return evaluate(a, log_c, x, log_x, shift, sig, weight)

    monkeypatch.setattr(ext, "_level_sums", recorded)
    runs = []
    for ts in ((0.2, 0.1), (1e300, 0.2, 0.1)):
        spans.clear()
        sweep = [ExtensionParams(s=s, t_values=ts) for s in (0.3, 0.6)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fields, deltas, doublings = extension_solve_tau_grid(dec, sweep, phi)
        runs.append((spans[0], doublings, [us[-2:] for us in fields]))
    (span, doublings, fields), (span_huge, doublings_huge, fields_huge) = runs
    assert span_huge == span and doublings_huge == doublings
    for us, us_huge in zip(fields, fields_huge):
        for u, uh in zip(us, us_huge):
            np.testing.assert_allclose(uh.values, u.values, rtol=1e-14,
                                       atol=1e-14 * np.abs(u.values).max())


# ---------------------------------------------------------------------------
# t-derivatives
# ---------------------------------------------------------------------------

def test_dt_matches_finite_differences(torus64):
    op, dec = torus64
    phi = torus_bump(op.spec)
    t0, d = 0.5, 1e-4
    params = ExtensionParams(s=0.35, t_values=(t0 + d, t0, t0 - d))
    prof = extension_solve(dec, params, phi)
    fd = (prof.u[0].values - prof.u[2].values) / (2 * d)
    an = extension_solve(dec, ExtensionParams(s=0.35, t_values=(t0,)), phi).du_dt[0].values
    assert np.abs(fd - an).max() <= 1e-6 * np.abs(an).max()


def test_dtt_matches_finite_differences(torus64):
    op, dec = torus64
    phi = torus_bump(op.spec)
    t0, d = 0.5, 1e-4
    params = ExtensionParams(s=0.65, t_values=(t0 + d, t0, t0 - d))
    prof = extension_solve(dec, params, phi)
    fd = (prof.u[0].values - 2 * prof.u[1].values + prof.u[2].values) / d ** 2
    _, _, ddF = extension_multiplier_values(0.65, t0, dec.eigenvalues)
    an = dec.apply_values(ddF, phi).values
    assert np.abs(fd - an).max() <= 1e-5 * np.abs(an).max()


def test_dt_multiplier_fd_error_is_second_order():
    # scalar check: |(F(t+d) - F(t-d))/(2d) - F'(t)| shrinks by ~4x per halving
    s, lam, t = 0.35, 2.7, 0.6
    errs = []
    for d in (1e-2, 5e-3, 2.5e-3):
        hi, _, _ = extension_multiplier_values(s, t + d, np.array([lam]))
        lo, _, _ = extension_multiplier_values(s, t - d, np.array([lam]))
        _, an, _ = extension_multiplier_values(s, t, np.array([lam]))
        errs.append(abs((hi[0] - lo[0]) / (2 * d) - an[0]))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.1)


def test_dt_negative_on_positive_modes(torus64):
    op, dec = torus64
    k = 7
    v = GridFunction(op.spec, dec.eigenvector(k))
    for t in (0.1, 0.5, 2.0):
        du = extension_solve(dec, ExtensionParams(s=0.5, t_values=(t,)), v).du_dt[0]
        coeff = dec.eigenvector(k) @ du.values
        assert coeff < 0.0


def test_dtt_half_s_exponential():
    # s = 1/2, lam = 1: F(t) = e^{-t}, so the second derivative equals F
    v0, _, v2 = extension_multiplier_values(0.5, 0.8, np.array([1.0]))
    assert v2[0] == pytest.approx(v0[0], rel=1e-9)
    assert v0[0] == pytest.approx(np.exp(-0.8), rel=1e-9)


# ---------------------------------------------------------------------------
# PDE residual
# ---------------------------------------------------------------------------

def test_pde_residual_single_mode(torus64):
    op, dec = torus64
    v = GridFunction(op.spec, dec.eigenvector(3))
    params = ExtensionParams(s=0.5, t_values=(1.0,))
    assert pde_residual(extension_solve(dec, params, v)) <= 1e-8


def test_pde_residual_torus(torus64, rng):
    op, dec = torus64
    phi = subfrac.random_bump(op.spec, rng)
    for s in (0.3, 0.5, 0.7):
        params = ExtensionParams(s=s, t_values=(1.0, 0.5, 0.1))
        assert pde_residual(extension_solve(dec, params, phi)) <= 1e-6


def test_pde_residual_heisenberg(heis15, rng):
    op, dec = heis15
    phi = subfrac.random_bump(op.spec, rng)
    for s in (0.3, 0.7):
        params = ExtensionParams(s=s, t_values=(0.5,))
        assert pde_residual(extension_solve(dec, params, phi)) <= 1e-5


# ---------------------------------------------------------------------------
# boundary limit
# ---------------------------------------------------------------------------

def test_boundary_limit_single_mode_scalar():
    # s = 1/2: t^{1-2s} d_t F = -sqrt(lam) e^{-t sqrt(lam)} -> -C(1/2) lam^{1/2}
    lam = 3.7
    for t in (0.2, 0.1, 0.05):
        _, vals, _ = extension_multiplier_values(0.5, t, np.array([lam]))
        want = -np.sqrt(lam) * np.exp(-t * np.sqrt(lam))
        assert vals[0] == pytest.approx(want, rel=1e-9)
    assert extension_constant(0.5) == 1.0


def test_boundary_limit_torus(torus64):
    op, dec = torus64
    phi = torus_bump(op.spec)
    for s in (0.3, 0.5, 0.7):
        params = ExtensionParams(s=s, t_values=(0.2, 0.1, 0.05))
        res = boundary_limit(dec, extension_solve(dec, params, phi), phi)
        assert res.rel_error <= 1e-3
        assert not res.used_fallback


def test_boundary_limit_error_shrinks_with_sweep(torus64):
    op, dec = torus64
    phi = torus_bump(op.spec)
    errs = []
    for t0 in (0.4, 0.2, 0.1):
        params = ExtensionParams(s=0.6, t_values=(t0, t0 / 2, t0 / 4))
        errs.append(boundary_limit(dec, extension_solve(dec, params, phi), phi).rel_error)
    assert errs[2] < errs[1] < errs[0]


def test_boundary_limit_reference_is_fractional_power(torus64):
    op, dec = torus64
    phi = torus_bump(op.spec)
    params = ExtensionParams(s=0.5, t_values=(0.2, 0.1, 0.05))
    res = boundary_limit(dec, extension_solve(dec, params, phi), phi)
    want = -extension_constant(0.5) * fractional_power(dec, 0.5, phi).values
    assert np.abs(res.reference.values - want).max() <= 1e-12 * np.abs(want).max()


def test_boundary_limit_needs_three_points(torus64):
    op, dec = torus64
    phi = torus_bump(op.spec)
    with pytest.raises(ConfigError):
        params = ExtensionParams(s=0.5, t_values=(0.2, 0.1))
        boundary_limit(dec, extension_solve(dec, params, phi), phi)


def test_boundary_limit_fallback_wiring(torus64, monkeypatch):
    # when the sweep does not close in on the extrapolant, the result must warn
    # and fall back to the raw smallest-t value; force that by pinning the
    # extrapolant to the largest-t sweep entry
    import subfrac.extension as ext

    op, dec = torus64
    phi = torus_bump(op.spec)
    params = ExtensionParams(s=0.5, t_values=(0.2, 0.1, 0.05))
    monkeypatch.setattr(ext, "_extrapolate_three", lambda ts, ws, dws, s: np.array(ws[0]))
    with pytest.warns(RuntimeWarning):
        res = ext.boundary_limit(dec, extension_solve(dec, params, phi), phi)
    assert res.used_fallback
    assert np.array_equal(res.extrapolated.values, res.sweep_values[-1].values)


@pytest.mark.parametrize("c", [3.0, 0.01])
def test_boundary_limit_with_phi_in_the_kernel_reads_against_the_data_scale(c):
    # a constant is the torus kernel, so the reference -C(s) J^s phi is 0
    # and the error is taken against max(||phi||_2, 1) instead
    spec = subfrac.GridSpec(64, 10.0, 1, "euclidean_torus")
    dec = subfrac.fourier_decompose(subfrac.assemble_operator("euclid", spec))
    phi = GridFunction(spec, np.full(spec.n_nodes, c))
    psi = torus_bump(spec)
    profile = extension_solve(dec, ExtensionParams(s=0.5, t_values=(0.2, 0.1, 0.05)), psi)
    res = boundary_limit(dec, profile, phi)
    assert not res.reference.values.any()
    assert res.rel_error == lp_norm(res.extrapolated, 2) / max(lp_norm(phi, 2), 1.0)


# ---------------------------------------------------------------------------
# wellposedness
# ---------------------------------------------------------------------------

def test_wellposedness_report(torus64, rng):
    op, dec = torus64
    phi = subfrac.random_bump(op.spec, rng)
    params = ExtensionParams(s=0.5, t_values=(2.0, 1.0, 0.5, 0.1, 1e-3))
    profile = extension_solve(dec, params, phi)
    phinorm = lp_norm(phi, 2)
    ratios = np.array([lp_norm(u, 2) / phinorm for u in profile.u])
    ju_norms = np.array([lp_norm(ju, 2) for ju in profile.ju])
    # the sharp spectral bound ||J u(t)||_2 <= max_i lambda_i F_s(t, lambda_i) ||phi||_2
    lam = np.unique(dec.eigenvalues)
    ju_bounds = phinorm * np.array([
        (lam * extension_multiplier_values(params.s, t, lam)[0]).max(initial=0.0)
        for t in params.t_values])
    # non-expansive, and J u(t) in L^2 within the bound
    assert (ratios <= 1.0 + 1e-12).all()
    assert np.isfinite(ju_norms).all() and (ju_norms <= ju_bounds + 1e-9).all()
    # F decreasing in t: later (smaller t) ratios are larger
    assert (np.diff(ratios) >= -1e-10).all()
    assert ratios[-1] <= 1.0 + 1e-12
    assert (ju_norms <= ju_bounds + 1e-9).all()
