import dataclasses
import re

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.blas
import scipy.sparse as sp

import subfrac
from subfrac import (
    GridFunction,
    GridSpec,
    assemble_operator,
    eigen_probe,
    fourier_decompose,
    fractional_power,
    heat_apply,
    heat_kernel_column,
    integral,
    krylov_spectrum,
    lp_norm,
    random_bump,
    spectral_decompose,
)
from subfrac.errors import CapacityError, ConfigError, EvaluationError, GridMismatchError
from subfrac.extension import ExtensionParams, boundary_limit, extension_solve
from subfrac.group import GROUPS
from subfrac.spectral import _clamped
from subfrac.stencils import DiscreteOperator


@pytest.fixture(scope="module")
def torus_small():
    spec = GridSpec(64, 1.0, 1, "euclidean_torus")
    op = assemble_operator("euclid", spec)
    return op, spectral_decompose(op)


def grid_fn(spec, rng):
    return GridFunction(spec, rng.standard_normal(spec.n_nodes))


def dense_basis(dec):
    """The N x N eigenbasis of a SpectralDecomposition, one accessor column at a time."""
    return np.column_stack([dec.eigenvector(k) for k in range(dec.n)])


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

def test_dirichlet_3node_eigenvalues():
    spec = GridSpec(3, 1.0, 1, "euclidean_box")  # h = 1
    dec = spectral_decompose(assemble_operator("euclid", spec))
    want = np.array([2 - np.sqrt(2), 2.0, 2 + np.sqrt(2)])
    assert np.abs(dec.eigenvalues - want).max() <= 1e-12


def test_zero_operator():
    spec = GridSpec(5, 1.0, 1, "euclidean_box")
    op = DiscreteOperator(kind="euclid", matrix=sp.csr_matrix((5, 5)), spec=spec)
    dec = spectral_decompose(op)
    assert np.array_equal(dec.eigenvalues, np.zeros(5))
    Q = dense_basis(dec)
    assert np.abs(Q.T @ Q - np.eye(5)).max() <= 1e-12


def test_clamp_counts_the_eigenvalues_it_sets_to_zero(heis9, torus64, rng):
    # the torus's constant mode comes out of eigh at roundoff and is set to
    # 0; j1 on the Dirichlet box has no kernel; an exact 0 is not counted
    # and the FFT's symbol is not clamped at all
    w, count = _clamped(np.array([-1e-14, 0.0, 1e-13, 1.0]))
    assert np.array_equal(w, [0.0, 0.0, 0.0, 1.0]) and count == 2
    assert torus64[1].clamped == 1 and torus64[1].eigenvalues[0] == 0.0
    op, dec = heis9
    assert dec.clamped == 0 and krylov_spectrum(op, grid_fn(op.spec, rng), 32).clamped == 0
    assert fourier_decompose(torus64[0]).clamped is None


def test_orthonormality_and_reconstruction(heis9):
    op, dec = heis9
    Q = dense_basis(dec)
    assert np.abs(Q.T @ Q - np.eye(dec.n)).max() <= 1e-10
    A = op.matrix.toarray()
    recon = (Q * dec.eigenvalues) @ Q.T
    assert np.abs(recon - A).max() <= 1e-8 * np.abs(A).max()


def test_eigenbasis_orthogonal_to_roundoff(heis9):
    # the divide-and-conquer driver; the MRRR driver (evr) gives 4.5e-13 here
    _, dec = heis9
    Q = dense_basis(dec)
    assert np.abs(Q.T @ Q - np.eye(dec.n)).max() <= 1e-13


def test_eigen_probe_passes_and_flags_broken_bases(heis9, torus_small):
    op, dec = heis9
    orthogonality, residual = eigen_probe(op, dec)
    assert orthogonality <= 1e-12 and residual <= 1e-12
    first = dec.blocks[0]
    scaled = np.r_[1.001, np.ones(len(first) - 1)]
    skewed = dataclasses.replace(dec, blocks=(first * scaled, *dec.blocks[1:]))
    assert eigen_probe(op, skewed)[0] >= 1e-6
    shifted = dataclasses.replace(dec, eigenvalues=dec.eigenvalues * (1.0 + 1e-6))
    assert eigen_probe(op, shifted)[1] >= 1e-8
    # the same probe on the FFT diagonalization of a torus, through apply_values
    op, _ = torus_small
    diag = fourier_decompose(op)
    orthogonality, residual = eigen_probe(op, diag)
    assert orthogonality <= 1e-12 and residual <= 1e-12
    scaled = dataclasses.replace(diag, eigenvalues=diag.eigenvalues * (1.0 + 1e-6))
    assert eigen_probe(op, scaled)[1] >= 1e-8


def test_trace_preserved(heis9):
    op, dec = heis9
    tr = op.matrix.diagonal().sum()
    assert abs(dec.eigenvalues.sum() - tr) <= 1e-8 * abs(tr)


def test_capacity_error():
    # 19^3 = 6859 nodes, over DENSE_LIMIT: refused before densifying
    spec = GridSpec(19, 1.0, 3, "euclidean_box")
    op = assemble_operator("euclid", spec)
    with pytest.raises(CapacityError):
        spectral_decompose(op)


def test_non_psd_operator_is_config_error():
    spec = GridSpec(9, 1.0, 1, "euclidean_box")
    op = assemble_operator("euclid", spec)
    negated = DiscreteOperator(op.kind, -op.matrix, spec)
    with pytest.raises(ConfigError, match="not PSD"):
        spectral_decompose(negated)


def _box_operator_with_entry(bad) -> DiscreteOperator:
    spec = GridSpec(9, 1.0, 1, "euclidean_box")
    op = assemble_operator("euclid", spec)
    matrix = op.matrix.copy()
    matrix.data[3] = bad
    return DiscreteOperator(op.kind, matrix, spec)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_operator_is_config_error(bad):
    with pytest.raises(ConfigError, match="non-finite"):
        spectral_decompose(_box_operator_with_entry(bad))


# ---------------------------------------------------------------------------
# the split by the grid's involution, against one plain eigh
# ---------------------------------------------------------------------------

SPLIT_GRIDS = {
    "heis7-j1": ("j1", GridSpec(7, 2.0, 3, "heisenberg")),
    "heis7-j3": ("j3", GridSpec(7, 2.0, 3, "heisenberg")),
    "heis9-j1": ("j1", GridSpec(9, 2.0, 3, "heisenberg")),
    "heis9-j3": ("j3", GridSpec(9, 2.0, 3, "heisenberg")),
    "box1d": ("euclid", GridSpec(9, 1.0, 1, "euclidean_box")),
    "box2d": ("euclid", GridSpec(9, 1.0, 2, "euclidean_box")),
    "box3d": ("euclid", GridSpec(7, 1.0, 3, "euclidean_box")),
    "torus2d": ("euclid", GridSpec(12, 1.0, 2, "euclidean_torus")),
}


def _scaled_rows(lam, lam_max):
    """lam / lam_max and exp(-lam / lam_max): multipliers whose error stays at roundoff."""
    return np.array([lam / lam_max, np.exp(-lam / lam_max)])


def _matches_plain_eigh(op, dec, f):
    """Eigenvalue and apply gaps of dec against scipy's eigh of the dense matrix."""
    w, Q = scipy.linalg.eigh(op.matrix.toarray())
    w = np.clip(w, 0.0, None)
    lam_gap = np.abs(dec.eigenvalues - w).max() / w[-1]
    want = [Q @ (row * (Q.T @ f.values)) for row in _scaled_rows(w, w[-1])]
    got = dec.apply_values(_scaled_rows(dec.eigenvalues, w[-1]), f)
    got_1d = dec.apply_values(_scaled_rows(dec.eigenvalues, w[-1])[1], f)
    apply_gap = max(np.linalg.norm(g.values - v) / np.linalg.norm(v)
                    for g, v in zip([*got, got_1d], [*want, want[1]]))
    return lam_gap, apply_gap


@pytest.mark.parametrize("name", list(SPLIT_GRIDS))
def test_split_matches_one_plain_eigh(name, rng):
    kind, spec = SPLIT_GRIDS[name]
    op = assemble_operator(kind, spec)
    dec = spectral_decompose(op)
    assert len(dec.blocks) == 2
    assert sum(len(Q) for Q in dec.blocks) == dec.n
    lam_gap, apply_gap = _matches_plain_eigh(op, dec, grid_fn(spec, rng))
    assert lam_gap <= 1e-12 and apply_gap <= 1e-12


def _table_grids():
    """One small grid per (mode, operator, dims) of the group table; odd and even n on a torus."""
    for mode, group in GROUPS.items():
        for kind in group.operators:
            for dims in group.dims:
                for n in (6, 7) if mode == "euclidean_torus" else (5,):
                    yield pytest.param(kind, GridSpec(n, 1.0, dims, mode),
                                       id=f"{mode}-{kind}-{dims}d-n{n}")


@pytest.mark.parametrize("kind, spec", _table_grids())
def test_every_table_operator_commutes_with_its_involution(kind, spec):
    # a wrong field, weight or axis permutation in the table would silently
    # cost the dense split, so each operator must pass its test
    A = assemble_operator(kind, spec).matrix
    perm = subfrac.spectral._grid_involution(spec)
    assert np.array_equal(perm[perm], np.arange(spec.n_nodes))
    assert abs(A[perm][:, perm] - A).sum(axis=1).max() <= subfrac.spectral.SPLIT_TOL * abs(A).max()


@pytest.mark.parametrize("spec", [GridSpec(9, 2.0, 3, "heisenberg"),
                                  GridSpec(7, 1.5, 2, "euclidean_box")],
                         ids=["heis9", "box2d"])
def test_fold_maps_are_the_sparse_products(spec, rng):
    # U^T f and (U c^T)^T by index arithmetic sum each output's two terms
    # in U's stored order, so they are bitwise the sparse products, signed
    # zeros included
    from subfrac.spectral import _fold_basis, _grid_involution, _two_entry_product

    U, sizes = _fold_basis(_grid_involution(spec))
    assert len(sizes) == 2
    f = rng.standard_normal(spec.n_nodes)
    f[::7] = -0.0
    c = rng.standard_normal((3, spec.n_nodes))
    c[:, ::5] = -0.0
    UT = U.T.tocsr()
    assert _two_entry_product(UT)(f).tobytes() == (UT @ f).tobytes()
    assert _two_entry_product(U)(c).tobytes() == np.ascontiguousarray((U @ c.T).T).tobytes()
    # the identity permutation folds nothing
    I, sizes = _fold_basis(np.arange(spec.n_nodes))
    assert sizes == [spec.n_nodes]
    assert _two_entry_product(I)(f).tobytes() == (f + 0.0).tobytes()


def _perturbed(op, node, size):
    """op with size * max|A| added to its diagonal entry at node: still symmetric and PSD."""
    bump = sp.csr_matrix(([size * abs(op.matrix).max()], ([node], [node])), shape=op.matrix.shape)
    return DiscreteOperator(op.kind, (op.matrix + bump).tocsr(), op.spec)


def test_an_operator_that_breaks_the_involution_takes_one_block(rng):
    op = assemble_operator("euclid", SPLIT_GRIDS["box2d"][1])
    f = grid_fn(op.spec, rng)
    # node 3 and its mirror differ by the bump in A - P A P: roundoff-sized,
    # under SPLIT_TOL, it keeps the split; a real one takes the one block U = I
    for size, blocks in ((0.1 * subfrac.spectral.SPLIT_TOL, 2), (0.5, 1)):
        bumped = _perturbed(op, 3, size)
        dec = spectral_decompose(bumped)
        assert len(dec.blocks) == blocks
        orthogonality, residual = eigen_probe(bumped, dec)
        assert orthogonality <= 1e-12 and residual <= 1e-12
        lam_gap, apply_gap = _matches_plain_eigh(bumped, dec, f)
        assert lam_gap <= 1e-12 and apply_gap <= 1e-12
    # one block with U = I: bitwise the plain evd eigh
    w, Q = scipy.linalg.eigh(bumped.matrix.toarray(order="F"), driver="evd")
    assert np.array_equal(dec.blocks[0], Q)
    assert np.array_equal(dec.positions, np.arange(dec.n))


def test_split_decompose_peak_stays_under_one_plain_eigh(heis9):
    # two half-order eigh calls hold about a third of what one full-order
    # evd eigh does: the N x N matrix it overwrites with Q, and its workspace
    import tracemalloc

    op, _ = heis9

    def peak(decompose):
        tracemalloc.start()
        try:
            decompose()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    plain = peak(lambda: scipy.linalg.eigh(op.matrix.toarray(order="F"), driver="evd",
                                           overwrite_a=True, check_finite=False))
    assert peak(lambda: spectral_decompose(op)) < plain / 2


# ---------------------------------------------------------------------------
# Krylov (Ritz) spectra, against the dense eigenbasis
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def krylov_routes(heis9, heis15):
    """(dense decomposition, 512-step Ritz spectrum of f, f) per route.

    The route named after its grid is reorthogonalized and starts from phi,
    as `limit` does; its `_plain` twin takes the plain recurrence from A phi,
    as the sparse identity does.
    """
    routes = {}
    for name, (op, dec) in (("heis9", heis9), ("heis15", heis15)):
        phi = random_bump(op.spec, np.random.default_rng(77))
        a_phi = op.apply(phi)
        routes[name] = (dec, krylov_spectrum(op, phi, 512), phi)
        routes[f"{name}_plain"] = (
            dec, krylov_spectrum(op, a_phi, 512, reorthogonalize=False), a_phi)
    return routes


def _limit_fields(sp, phi):
    fields = []
    for s in (0.1, 0.5, 0.9):
        params = ExtensionParams(s=s, t_values=(0.2, 0.1, 0.05))
        res = boundary_limit(sp, extension_solve(sp, params, phi), phi)
        fields += [res.extrapolated.values, res.reference.values]
    return fields


def _extension_fields(sp, phi):
    profile = extension_solve(sp, ExtensionParams(s=0.5, t_values=(0.2, 0.1, 0.05)), phi)
    return [f.values for f in profile.u + profile.du_dt]


KRYLOV_CALLS = {
    "fractional_power": lambda sp, phi: [fractional_power(sp, s, phi).values
                                         for s in (0.1, 0.5, 0.9)],
    "heat_apply": lambda sp, phi: [heat_apply(sp, t, phi).values for t in (0.01, 0.1, 1.0)],
    "extension_solve": _extension_fields,
    "boundary_limit": _limit_fields,
}


@pytest.mark.parametrize("call", sorted(KRYLOV_CALLS))
@pytest.mark.parametrize("route", ["heis9", "heis15", "heis9_plain", "heis15_plain"])
def test_dense_and_krylov_spectra_agree(krylov_routes, route, call):
    # the functional calculus sees only the Spectrum members, so the dense
    # eigenbasis and the Ritz spectrum of f must give the same m(J) f
    dec, kry, phi = krylov_routes[route]
    for dense, ritz in zip(KRYLOV_CALLS[call](dec, phi), KRYLOV_CALLS[call](kry, phi)):
        assert np.linalg.norm(ritz - dense) <= 1e-11 * np.linalg.norm(dense)


def test_krylov_capped_at_n_reproduces_dense(heis9, rng):
    op, dec = heis9
    phi = grid_fn(op.spec, rng)
    kry = krylov_spectrum(op, phi, 10 * dec.n)
    assert kry.steps <= dec.n and kry.exhaustive
    V = kry.basis
    assert np.abs(V @ V.T - np.eye(kry.steps)).max() <= 1e-12
    for m in (lambda lam: lam, lambda lam: np.exp(-0.5 * lam), lambda lam: lam ** 0.3):
        want = dec.apply_values(m(dec.eigenvalues), phi).values
        got = kry.apply_values(m(kry.eigenvalues), phi).values
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_krylov_eigenvector_start_stops_early(heis9):
    op, dec = heis9
    k = 100
    phi = GridFunction(op.spec, 3.0 * dec.eigenvector(k))
    kry = krylov_spectrum(op, phi, 64)
    assert kry.steps == 1 and kry.exhaustive
    assert abs(kry.eigenvalues[0] - dec.eigenvalues[k]) <= 1e-12 * dec.eigenvalues[-1]
    got = fractional_power(kry, 0.4, phi).values
    assert np.abs(got - dec.eigenvalues[k] ** 0.4 * phi.values).max() <= 1e-12 * np.abs(got).max()


def test_krylov_extended_is_the_longer_run(heis9, rng):
    # in either mode, continuing the recurrence repeats no step, keeps the
    # mode and changes no bit; only the reorthogonalized basis is exact at
    # N steps
    op, _ = heis9
    phi = grid_fn(op.spec, rng)
    for mode in (True, False):
        longer = krylov_spectrum(op, phi, 32, reorthogonalize=mode).extended(op, 64)
        fresh = krylov_spectrum(op, phi, 64, reorthogonalize=mode)
        assert longer.steps == 64 and not longer.exhaustive
        assert longer.reorthogonalize is fresh.reorthogonalize is mode
        for name in ("eigenvalues", "basis", "alpha", "beta", "residual"):
            assert np.array_equal(getattr(longer, name), getattr(fresh, name)), (mode, name)
        assert longer.scale == fresh.scale
        capped = longer.extended(op, 10 * op.spec.n_nodes)
        assert capped.steps == op.spec.n_nodes and capped.exhaustive is mode
        assert capped.reorthogonalize is mode
        assert capped.extended(op, 10 * op.spec.n_nodes) is capped


def test_krylov_stays_orthogonal_on_a_clustered_spectrum():
    # the 48^2 torus has 2304 eigenvalues but only 305 distinct ones, so the
    # Ritz values converge early and the three-term recurrence alone would
    # lose orthogonality; the Gram-Schmidt passes keep it, though not every
    # step makes one
    spec = GridSpec(48, 10.0, 2, "euclidean_torus")
    op = assemble_operator("euclid", spec)
    phi = GridFunction(spec, np.random.default_rng(0).standard_normal(spec.n_nodes))
    kry = krylov_spectrum(op, phi, 1024)
    assert kry.steps == 1024 and 0 < kry.passes < kry.steps
    V = kry.basis
    assert np.abs(V @ V.T - np.eye(kry.steps)).max() <= 1e-14


def test_krylov_foreign_vector_is_evaluation_error(heis9, rng):
    op, _ = heis9
    phi, other = grid_fn(op.spec, rng), grid_fn(op.spec, rng)
    kry = krylov_spectrum(op, phi, 16)
    assert np.isfinite(fractional_power(kry, 0.5, phi).values).all()
    with pytest.raises(EvaluationError, match="start vector"):
        fractional_power(kry, 0.5, other)
    with pytest.raises(EvaluationError, match="start vector"):
        heat_kernel_column(kry, 0.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_krylov_non_finite_operator_is_config_error(bad):
    op = _box_operator_with_entry(bad)
    with pytest.raises(ConfigError, match="non-finite"):
        krylov_spectrum(op, GridFunction(op.spec, np.ones(op.spec.n_nodes)), 4)


def test_krylov_rejects_bad_start_and_non_psd():
    spec = GridSpec(9, 1.0, 1, "euclidean_box")
    op = assemble_operator("euclid", spec)
    for vals in (np.zeros(9), np.full(9, np.nan)):
        with pytest.raises(ConfigError, match="start vector"):
            krylov_spectrum(op, GridFunction(spec, vals), 4)
    with pytest.raises(ConfigError, match="at least one step"):
        krylov_spectrum(op, GridFunction(spec, np.ones(9)), 0)
    with pytest.raises(GridMismatchError):
        krylov_spectrum(op, GridFunction(GridSpec(9, 2.0, 1, "euclidean_box"), np.ones(9)), 4)
    negated = DiscreteOperator(op.kind, -op.matrix, spec)
    with pytest.raises(ConfigError, match="not PSD"):
        krylov_spectrum(negated, GridFunction(spec, np.ones(9)), 4)


def test_krylov_capacity_is_the_dense_memory_ceiling(monkeypatch):
    import subfrac.spectral as spectral

    spec = GridSpec(9, 1.0, 1, "euclidean_box")
    op = assemble_operator("euclid", spec)
    phi = GridFunction(spec, np.ones(9))
    monkeypatch.setattr(spectral, "DENSE_LIMIT", 5)  # 25 doubles: 2 steps of 9 nodes
    assert krylov_spectrum(op, phi, 2).steps == 2
    with pytest.raises(CapacityError):
        krylov_spectrum(op, phi, 3)


# ---------------------------------------------------------------------------
# multipliers
# ---------------------------------------------------------------------------

def test_multiplier_identity_and_reconstruction(heis9, rng):
    op, dec = heis9
    f = grid_fn(op.spec, rng)
    same = dec.apply_values(np.ones_like(dec.eigenvalues), f)
    assert np.abs(same.values - f.values).max() <= 1e-10 * np.abs(f.values).max()
    af = dec.apply_values(dec.eigenvalues, f)
    ref = op.apply(f)
    assert np.abs(af.values - ref.values).max() <= 1e-9 * np.abs(ref.values).max()


def test_multiplier_square_vs_double_apply(heis9, rng):
    op, dec = heis9
    f = grid_fn(op.spec, rng)
    sq = dec.apply_values(dec.eigenvalues ** 2, f)
    ref = op.apply(op.apply(f))
    assert lp_norm(GridFunction(op.spec, sq.values - ref.values), 2) <= 1e-9 * lp_norm(ref, 2)


def test_multiplier_nan_reports_eigenvalue(torus_small, rng):
    op, dec = torus_small
    bad = np.where(dec.eigenvalues > 1.0, np.nan, 1.0)
    with pytest.raises(EvaluationError):
        dec.apply_values(bad, grid_fn(op.spec, rng))


def test_scalar_multiplier_is_evaluation_error(torus_small, rng):
    # a multiplier must give one value per eigenvalue; a scalar is not
    # broadcast into the constant multiplier
    op, dec = torus_small
    with pytest.raises(EvaluationError, match="one value per eigenvalue"):
        dec.apply_values(1.0, grid_fn(op.spec, rng))


def _routes(heis9, rng):
    """(spectrum, f) on the dense heis9 eigenbasis, the Ritz spectrum of f on
    heis9, the FFT diagonal of a 2-D torus and the DST diagonal of a 2-D box."""
    op, dec = heis9
    f = grid_fn(op.spec, rng)
    torus = GridSpec(12, 1.0, 2, "euclidean_torus")
    box = GridSpec(9, 1.0, 2, "euclidean_box")
    return {
        "dense": (dec, f),
        "krylov": (krylov_spectrum(op, f, 64), f),
        "fft": (fourier_decompose(assemble_operator("euclid", torus)), grid_fn(torus, rng)),
        "dst": (fourier_decompose(assemble_operator("euclid", box)), grid_fn(box, rng)),
    }


@pytest.mark.parametrize("route", ["dense", "krylov", "fft", "dst"])
def test_batched_apply_matches_one_row_at_a_time(heis9, rng, route):
    spectrum, f = _routes(heis9, rng)[route]
    lam = spectrum.eigenvalues
    rows = np.array([np.ones_like(lam), lam, np.exp(-0.3 * lam), lam ** 0.7 / (1.0 + lam),
                     -np.cos(lam)])
    batch = spectrum.apply_values(rows, f)
    assert isinstance(batch, list) and len(batch) == len(rows)
    for row, got in zip(rows, batch):
        want = spectrum.apply_values(row, f)
        assert isinstance(want, GridFunction) and got.spec == f.spec
        assert np.linalg.norm(got.values - want.values) <= 1e-14 * np.linalg.norm(want.values)


@pytest.mark.parametrize("route", ["dense", "krylov", "fft", "dst"])
def test_batched_apply_checks_shape_and_finiteness(heis9, rng, route):
    spectrum, f = _routes(heis9, rng)[route]
    lam = spectrum.eigenvalues
    with pytest.raises(EvaluationError, match="one value per eigenvalue"):
        spectrum.apply_values(np.ones((2, 2, lam.size)), f)
    with pytest.raises(EvaluationError, match="one value per eigenvalue"):
        spectrum.apply_values(np.ones((2, lam.size + 1)), f)
    rows = np.ones((3, lam.size))
    k = lam.size // 2
    rows[2, k] = np.nan
    with pytest.raises(EvaluationError, match=re.escape(f"lambda={lam[k]!r}")):
        spectrum.apply_values(rows, f)


class BlasRecorder:
    """Stands in for the BLAS module of `spectral`, recording the routines called."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        routine = getattr(scipy.linalg.blas, name)

        def recorded(*args, **kwargs):
            self.calls.append(name)
            return routine(*args, **kwargs)

        return recorded


def _dense_rows(lam):
    return np.array([np.ones_like(lam), lam, np.exp(-0.3 * lam), -np.cos(lam)])


@pytest.mark.parametrize("order", ["F", "C"])
def test_dense_apply_runs_in_scipy_blas(heis9, rng, monkeypatch, order):
    # each block's Q^T f and synthesis go through scipy's dgemv, and a batch
    # of rows through one dgemm; one row takes the 1-D dgemv, so it is
    # bitwise the 1-D apply.  A C-ordered block is converted once, on
    # construction.
    import subfrac.spectral as spectral

    op, dec = heis9
    assert len(dec.blocks) == 2
    assert all(Q.flags.f_contiguous for Q in dec.blocks)
    dec = dataclasses.replace(dec, blocks=[np.array(Q, order=order) for Q in dec.blocks])
    assert all(Q.flags.f_contiguous for Q in dec.blocks)
    Q, f = dense_basis(dec), grid_fn(op.spec, rng)
    rows = _dense_rows(dec.eigenvalues)
    blas = BlasRecorder()
    monkeypatch.setattr(spectral, "blas", blas)

    one_d = dec.apply_values(rows[1], f)
    assert blas.calls == ["dgemv", "dgemv"] * 2
    one_row = dec.apply_values(rows[1:2], f)
    assert blas.calls[4:] == ["dgemv", "dgemv"] * 2
    assert len(one_row) == 1 and np.array_equal(one_row[0].values, one_d.values)
    batch = dec.apply_values(rows, f)
    assert blas.calls[8:] == ["dgemv", "dgemm"] * 2
    for row, got in zip(rows, batch):
        want = Q @ (row * (Q.T @ f.values))
        assert np.linalg.norm(got.values - want) <= 1e-14 * np.linalg.norm(want)


@pytest.mark.parametrize("order", ["F", "C"])
def test_dense_apply_makes_no_copy_of_the_eigenbasis(heis9, rng, order):
    import tracemalloc

    op, dec = heis9
    dec = dataclasses.replace(dec, blocks=[np.array(Q, order=order) for Q in dec.blocks])
    f = grid_fn(op.spec, rng)
    rows = _dense_rows(dec.eigenvalues)
    for values in (rows[1], rows[1:2], rows):
        tracemalloc.start()
        try:
            dec.apply_values(values, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < dec.n ** 2 * 8 / 2
        # nor of any one block
        assert peak < min(Q.nbytes for Q in dec.blocks) / 2


def test_krylov_route_runs_in_scipy_blas(heis9, rng, monkeypatch):
    # a Gram-Schmidt pass makes two dgemv calls (h = V w, then w -= V^T h),
    # and only a reorthogonalized step may make one: a plain step makes
    # none; one applied row makes two dgemv (on Y, then on V^T), bitwise
    # its 1-D apply, and a batch of rows two dgemm, one pass over V^T
    import subfrac.spectral as spectral

    op, _ = heis9
    f = grid_fn(op.spec, rng)
    blas = BlasRecorder()
    monkeypatch.setattr(spectral, "blas", blas)
    for mode in (True, False):
        del blas.calls[:]
        kry = krylov_spectrum(op, f, 16, reorthogonalize=mode)
        assert blas.calls.count("dgemv") == 2 * kry.passes, mode
        kry = kry.extended(op, 24)
        assert blas.calls.count("dgemv") == 2 * kry.passes, mode
        assert kry.passes <= kry.steps and (kry.passes > 0) is mode
        Y, V = kry.ritz_vectors, kry.basis
        rows = np.array([kry.eigenvalues, np.exp(-kry.eigenvalues), np.ones(kry.steps)])
        del blas.calls[:]
        one_d = kry.apply_values(rows[0], f)
        assert [c for c in blas.calls if c.startswith("dgem")] == ["dgemv", "dgemv"]
        del blas.calls[:]
        one_row = kry.apply_values(rows[:1], f)
        assert [c for c in blas.calls if c.startswith("dgem")] == ["dgemv", "dgemv"]
        assert len(one_row) == 1 and np.array_equal(one_row[0].values, one_d.values)
        del blas.calls[:]
        batch = kry.apply_values(rows, f)
        assert [c for c in blas.calls if c.startswith("dgem")] == ["dgemm", "dgemm"]
        for row, got in zip(rows, batch):
            want = np.linalg.norm(f.values) * (V.T @ (Y @ (row * Y[0])))
            assert np.linalg.norm(got.values - want) <= 1e-14 * np.linalg.norm(want)


def test_krylov_passes_only_where_orthogonality_is_lost():
    # partial reorthogonalization skips the Gram-Schmidt pass on the steps
    # where Simon's estimate stays under PRO_ETA, yet keeps the basis
    # orthonormal to a few eps; heis15-limit's grid and doubling length
    spec = GridSpec(15, 4.0, 3, "heisenberg")
    op = assemble_operator("j1", spec)
    kry = krylov_spectrum(op, random_bump(spec, np.random.default_rng(7)), 256)
    assert kry.steps == 256 and 0 < kry.passes < kry.steps
    V = kry.basis
    assert np.abs(V @ V.T - np.eye(kry.steps)).max() <= 1e-14


def test_krylov_extension_allocates_only_the_new_basis(heis9, rng):
    # doubling a k-step spectrum allocates the 2k x N basis and O(N + k^2)
    # besides: no k x N temporary, and no copy of the old basis beyond the
    # one into the new
    import tracemalloc

    op, _ = heis9
    f, k, N = grid_fn(op.spec, rng), 32, op.spec.n_nodes
    for mode in (True, False):
        kry = krylov_spectrum(op, f, k, reorthogonalize=mode)
        tracemalloc.start()
        try:
            longer = kry.extended(op, 2 * k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert longer.steps == 2 * k
        assert longer.basis.nbytes <= peak < longer.basis.nbytes + k * N * 8, mode


def test_krylov_doubling_keeps_one_basis(heis9, rng):
    # after a doubling the k-step spectrum's basis is a view of the longer
    # basis's leading rows, so the two share one buffer; the shorter
    # spectrum's applies keep their bits, and extending it again allocates
    # a fresh basis and gives the same longer spectrum
    op, _ = heis9
    f, k = grid_fn(op.spec, rng), 32
    for mode in (True, False):
        kry = krylov_spectrum(op, f, k, reorthogonalize=mode)
        rows = np.array([kry.eigenvalues, np.exp(-kry.eigenvalues), np.ones(k)])

        def applies():
            return [kry.apply_values(rows[0], f).values,
                    *(g.values for g in kry.apply_values(rows, f))]

        before = applies()
        longer = kry.extended(op, 2 * k)
        assert np.shares_memory(kry.basis, longer.basis), mode
        assert kry.basis.shape == (k, op.spec.n_nodes)
        assert all(np.array_equal(a, b) for a, b in zip(applies(), before)), mode
        again = kry.extended(op, 2 * k)
        assert not np.shares_memory(again.basis, longer.basis), mode
        for name in ("eigenvalues", "ritz_vectors", "basis", "alpha", "beta", "residual",
                     "omega"):
            assert np.array_equal(getattr(again, name), getattr(longer, name)), (mode, name)
        assert (again.scale, again.passes, again.pending) == (longer.scale, longer.passes,
                                                              longer.pending)


def _reference_lanczos(A, f, steps, reorthogonalize):
    """The Lanczos recurrence in plain numpy: basis, alpha and beta."""
    V, alpha, beta = np.zeros((steps, f.size)), np.zeros(steps), np.zeros(steps - 1)
    V[0] = f / np.linalg.norm(f)
    for j in range(steps):
        if j > 0:
            beta[j - 1] = np.linalg.norm(w)
            V[j] = w / beta[j - 1]
        w = A @ V[j]
        if j > 0:
            w = w - beta[j - 1] * V[j - 1]
        alpha[j] = V[j] @ w
        w = w - alpha[j] * V[j]
        if reorthogonalize:
            h = V[:j + 1] @ w
            w = w - h @ V[:j + 1]
            alpha[j] += h[j]
    return V, alpha, beta


@pytest.mark.parametrize("mode, steps", [(True, 64), (False, 16)])
def test_krylov_matches_the_plain_numpy_recurrence(heis9, rng, mode, steps):
    # the plain recurrence amplifies rounding at the rate it loses
    # orthogonality, so two sound implementations part after about 20 steps
    # on heis9; at 16 the basis is still orthogonal to 1e-13
    op, _ = heis9
    f = grid_fn(op.spec, rng)
    kry = krylov_spectrum(op, f, steps, reorthogonalize=mode)
    V, alpha, beta = _reference_lanczos(op.matrix, f.values, steps, mode)
    scale = np.abs(alpha).max()
    assert np.abs(kry.basis - V).max() <= 1e-12
    assert np.abs(kry.alpha - alpha).max() <= 1e-12 * scale
    assert np.abs(kry.beta - beta).max() <= 1e-12 * scale


def test_bounded_multiplier_is_l2_nonexpansive(torus_small, rng):
    op, dec = torus_small
    f = grid_fn(op.spec, rng)
    lam = dec.eigenvalues
    out = dec.apply_values(np.sin(lam) / np.maximum(lam, 1.0), f)
    assert lp_norm(out, 2) <= lp_norm(f, 2) * (1 + 1e-12)


# ---------------------------------------------------------------------------
# fractional powers
# ---------------------------------------------------------------------------

def test_fractional_s1_is_operator(heis9, rng):
    op, dec = heis9
    f = grid_fn(op.spec, rng)
    frac = fractional_power(dec, 1.0, f)
    ref = op.apply(f)
    assert np.abs(frac.values - ref.values).max() <= 1e-9 * np.abs(ref.values).max()


def test_fractional_on_eigenvector(heis9):
    op, dec = heis9
    k = dec.n // 3
    v = GridFunction(op.spec, dec.eigenvector(k))
    out = fractional_power(dec, 0.37, v)
    assert np.abs(out.values - dec.eigenvalues[k] ** 0.37 * v.values).max() <= 1e-10


def test_fractional_half_half_composes_to_one(heis9, rng):
    op, dec = heis9
    f = grid_fn(op.spec, rng)
    comp = fractional_power(dec, 0.5, fractional_power(dec, 0.5, f))
    direct = fractional_power(dec, 1.0, f)
    gap = lp_norm(GridFunction(op.spec, comp.values - direct.values), 2)
    assert gap <= 1e-10 * lp_norm(direct, 2)


def test_fractional_additivity(heis9, rng):
    op, dec = heis9
    f = grid_fn(op.spec, rng)
    for _ in range(20):
        s1, s2 = rng.uniform(0.05, 0.95, 2)
        comp = fractional_power(dec, s1, fractional_power(dec, s2, f))
        direct = fractional_power(dec, s1 + s2, f)
        gap = lp_norm(GridFunction(op.spec, comp.values - direct.values), 2)
        assert gap <= 1e-10 * lp_norm(direct, 2)


def test_fractional_domain_error(heis9, rng):
    op, dec = heis9
    with pytest.raises(ConfigError):
        fractional_power(dec, 0.0, grid_fn(op.spec, rng))
    with pytest.raises(ConfigError):
        fractional_power(dec, -0.5, grid_fn(op.spec, rng))


# ---------------------------------------------------------------------------
# heat semigroup
# ---------------------------------------------------------------------------

def test_heat_identity_exact(heis9, rng):
    op, dec = heis9
    f = grid_fn(op.spec, rng)
    out = heat_apply(dec, 0.0, f)
    # e^{-0*lam} == 1 exactly, so H_0 f reproduces f up to the two dense products
    assert np.abs(out.values - f.values).max() <= 1e-12 * np.abs(f.values).max()


def test_heat_semigroup_property(heis9, rng):
    op, dec = heis9
    f = grid_fn(op.spec, rng)
    for _ in range(20):
        t1, t2 = rng.uniform(0.01, 2.0, 2)
        two = heat_apply(dec, t1, heat_apply(dec, t2, f))
        one = heat_apply(dec, t1 + t2, f)
        assert lp_norm(GridFunction(op.spec, two.values - one.values), 2) <= 1e-11 * lp_norm(one, 2)


def test_heat_contraction_all_p(heis9, rng):
    op, dec = heis9
    for _ in range(10):
        f = grid_fn(op.spec, rng)
        for t in (0.1, 1.0):
            u = heat_apply(dec, t, f)
            for p in (1, 2, np.inf):
                assert lp_norm(u, p) <= lp_norm(f, p) * (1 + 1e-9)


def test_heat_negative_t_rejected(heis9, rng):
    op, dec = heis9
    with pytest.raises(ConfigError):
        heat_apply(dec, -0.1, grid_fn(op.spec, rng))


def test_fractional_commutes_with_heat(heis9, rng):
    op, dec = heis9
    f = grid_fn(op.spec, rng)
    a = fractional_power(dec, 0.6, heat_apply(dec, 0.3, f))
    b = heat_apply(dec, 0.3, fractional_power(dec, 0.6, f))
    assert lp_norm(GridFunction(op.spec, a.values - b.values), 2) <= 1e-11 * lp_norm(a, 2)


# ---------------------------------------------------------------------------
# heat kernel columns
# ---------------------------------------------------------------------------

def test_kernel_mass_exact_on_torus(torus_small):
    op, dec = torus_small
    for t in (0.01, 0.1, 1.0):
        col = heat_kernel_column(dec, t)
        assert abs(integral(col) - 1.0) <= 1e-9


def test_kernel_mass_on_dirichlet_box(heis15):
    # Dirichlet truncation absorbs mass; negligible while sqrt(t) << L
    op, dec = heis15
    assert abs(integral(heat_kernel_column(dec, 0.5)) - 1.0) <= 1e-3
    assert abs(integral(heat_kernel_column(dec, 0.1)) - 1.0) <= 1e-6


def test_kernel_positivity():
    # euclid operators are M-matrices: e^{-tA} is entrywise nonnegative
    spec = GridSpec(65, 2.0, 1, "euclidean_box")
    dec = spectral_decompose(assemble_operator("euclid", spec))
    for t in (0.05, 0.5):
        col = heat_kernel_column(dec, t)
        assert col.values.min() >= -1e-8


def test_kernel_positivity_heisenberg(heis15):
    # variable-coefficient rows break the M-matrix sign pattern; overshoot is
    # bounded by the consistency error (measured ~6e-3 of the peak at t=0.1)
    op, dec = heis15
    for t in (0.1, 0.3):
        col = heat_kernel_column(dec, t).values
        assert col.min() >= -0.02 * col.max()


def test_kernel_even_in_euclid(torus_small):
    op, dec = torus_small
    col = heat_kernel_column(dec, 0.05).shaped()
    c = op.spec.center_index()
    n = op.spec.n_per_axis
    for k in range(1, n // 2):
        assert col[(c + k) % n] == pytest.approx(col[(c - k) % n], rel=1e-10, abs=1e-13)


def test_kernel_requires_positive_t(torus_small):
    op, dec = torus_small
    with pytest.raises(ConfigError):
        heat_kernel_column(dec, 0.0)


# ---------------------------------------------------------------------------
# time derivative of the semigroup
# ---------------------------------------------------------------------------

def _heat_time_derivative_check(dec, t, f, rel_step=1e-4):
    """Relative residual of d/dt H_t f = -J H_t f by centered differences in t."""
    dt = rel_step * t
    fwd = heat_apply(dec, t + dt, f).values
    bwd = heat_apply(dec, t - dt, f).values
    lam = dec.eigenvalues
    gen = dec.apply_values(lam * np.exp(-t * lam), f).values  # J H_t f
    return float(np.linalg.norm((fwd - bwd) / (2.0 * dt) + gen) / np.linalg.norm(gen))


def test_derivative_check_single_mode(torus64):
    # scalar case: residual is the centered-difference truncation (delta*lam)^2/6
    op, dec = torus64
    v = GridFunction(op.spec, dec.eigenvector(1))
    assert _heat_time_derivative_check(dec, 0.5, v) <= 1e-8


def test_derivative_check_random(torus64, rng):
    op, dec = torus64
    f = grid_fn(op.spec, rng)
    assert _heat_time_derivative_check(dec, 0.5, f) <= 1e-6


def test_derivative_check_second_order(torus64, rng):
    op, dec = torus64
    f = grid_fn(op.spec, rng)
    r1 = _heat_time_derivative_check(dec, 0.4, f, rel_step=1e-3)
    r2 = _heat_time_derivative_check(dec, 0.4, f, rel_step=5e-4)
    assert r2 <= r1 / 4 * 1.5  # second order in the step, with margin
    # doubling t at fixed delta/t ratio doubles the absolute step: residual
    # stays within the second-order factor 4 (up to spectral reweighting)
    r_t = _heat_time_derivative_check(dec, 0.8, f, rel_step=1e-3)
    assert r_t <= 4.5 * r1


# ---------------------------------------------------------------------------
# spectral pairing
# ---------------------------------------------------------------------------

def _pairing(f, g):
    """Haar-weighted L^2 pairing."""
    return integral(GridFunction(f.spec, f.values * g.values))


def test_pairing_parseval(heis9, rng):
    op, dec = heis9
    f = grid_fn(op.spec, rng)
    g = grid_fn(op.spec, rng)
    ip = _pairing(f, g)
    pairing = _pairing(dec.apply_values(np.ones_like(dec.eigenvalues), f), g)
    assert pairing == pytest.approx(ip, rel=1e-11)


def test_pairing_identity_multiplier(heis9, rng):
    op, dec = heis9
    f = grid_fn(op.spec, rng)
    g = grid_fn(op.spec, rng)
    lhs = _pairing(dec.apply_values(dec.eigenvalues, f), g)
    rhs = _pairing(op.apply(f), g)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_pairing_psd(heis9, rng):
    op, dec = heis9
    f = grid_fn(op.spec, rng)
    assert _pairing(dec.apply_values(dec.eigenvalues, f), f) >= 0.0


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def test_spectrum_csv(tmp_path, torus_small):
    op, dec = torus_small
    path = tmp_path / "spectrum.csv"
    subfrac.export_spectrum_csv(dec, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "index,eigenvalue"
    got = np.array([float(line.split(",")[1]) for line in lines[1:]])
    assert np.array_equal(got, dec.eigenvalues)  # 17 significant digits round-trip


# ---------------------------------------------------------------------------
# the thread count of scipy's BLAS on the dense route
# ---------------------------------------------------------------------------

def _thread_api():
    import subfrac.spectral as spectral

    return spectral._thread_api()


needs_thread_api = pytest.mark.skipif(_thread_api() is None,
                                      reason="scipy's BLAS has no OpenBLAS thread API")


@pytest.fixture()
def two_threads():
    """scipy's BLAS set to two threads for the test, the count before restored after."""
    api = _thread_api()
    previous = api.get()
    api.set(2)
    try:
        if api.get() != 2:
            pytest.skip("scipy's BLAS does not take a second thread here")
        yield api
    finally:
        api.set(previous)


def _threads_seen(monkeypatch, api):
    """Record the thread count at every eigh, eigh_tridiagonal and spectral.py BLAS call."""
    import subfrac.spectral as spectral

    seen = []
    eigh = scipy.linalg.eigh

    def counted(routine):
        def call(*args, **kwargs):
            seen.append(api.get())
            return routine(*args, **kwargs)
        return call

    class Blas:
        def __getattr__(self, name):
            return counted(getattr(scipy.linalg.blas, name))

    monkeypatch.setattr(scipy.linalg, "eigh", counted(eigh))
    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", counted(scipy.linalg.eigh_tridiagonal))
    monkeypatch.setattr(spectral, "blas", Blas())
    return seen


def _decompose_and_apply(op, rng):
    dec = spectral_decompose(op)
    f = grid_fn(op.spec, rng)
    dec.apply_values(dec.eigenvalues, f)
    dec.apply_values(np.array([dec.eigenvalues, np.ones(dec.n)]), f)
    return dec


@needs_thread_api
def test_dense_route_below_the_cut_runs_on_one_thread(heis9, rng, monkeypatch, two_threads):
    # heis9's blocks have orders 369 and 360: the eigh and every apply run
    # on one thread, and the count comes back after each
    op, _ = heis9
    seen = _threads_seen(monkeypatch, two_threads)
    dec = _decompose_and_apply(op, rng)
    assert dec.order == 369 and dec.blas_threads == 1
    assert len(seen) == 2 + 4 + 4 and set(seen) == {1}
    assert two_threads.get() == 2


@needs_thread_api
def test_dense_route_at_the_cut_keeps_the_thread_count(heis9, rng, monkeypatch, two_threads):
    import subfrac.spectral as spectral

    op, _ = heis9
    monkeypatch.setattr(spectral, "SERIAL_ORDER", 369)
    seen = _threads_seen(monkeypatch, two_threads)
    dec = _decompose_and_apply(op, rng)
    assert dec.blas_threads == 2
    assert len(seen) == 10 and set(seen) == {2}


@needs_thread_api
def test_krylov_route_runs_on_one_thread(heis9, rng, monkeypatch, two_threads):
    # in either mode the Lanczos steps, the tridiagonal eigh, the applies and
    # the orthogonality check run on one thread whatever the count outside,
    # and the count comes back after each, an exception included
    import subfrac.spectral as spectral

    op, _ = heis9
    f = grid_fn(op.spec, rng)
    seen = _threads_seen(monkeypatch, two_threads)
    for mode in (True, False):
        kry = krylov_spectrum(op, f, 16, reorthogonalize=mode).extended(op, 32)
        assert two_threads.get() == 2
        kry.apply_values(kry.eigenvalues, f)
        kry.apply_values(np.array([kry.eigenvalues, np.ones(kry.steps)]), f)
        assert two_threads.get() == 2
        kry.orthogonality()
        assert two_threads.get() == 2 and kry.blas_threads == 1
    # 2 x (32 steps of at least 3 calls, 2 eigh_tridiagonal calls, 2 apply
    # dgemv and 2 apply dgemm, a dsyrk)
    assert len(seen) > 2 * (3 * 32 + 2 + 4 + 1) and set(seen) == {1}

    def failing(*args, **kwargs):
        assert two_threads.get() == 1
        raise RuntimeError("inside")

    monkeypatch.setattr(spectral, "blas", type("Failing", (), {"dgemv": staticmethod(failing),
                                                             "dnrm2": scipy.linalg.blas.dnrm2})())
    with pytest.raises(RuntimeError, match="inside"):
        kry.apply_values(kry.eigenvalues, f)
    assert two_threads.get() == 2


@needs_thread_api
def test_thread_count_comes_back_after_the_scope_and_after_an_exception(two_threads):
    import subfrac.spectral as spectral

    with spectral._serial_blas(True) as threads:
        assert threads == 1 and two_threads.get() == 1
    assert two_threads.get() == 2
    with pytest.raises(RuntimeError, match="inside"):
        with spectral._serial_blas(True):
            assert two_threads.get() == 1
            raise RuntimeError("inside")
    assert two_threads.get() == 2
    with spectral._serial_blas(False) as threads:
        assert threads == 2 and two_threads.get() == 2


@needs_thread_api
def test_without_a_thread_api_the_scope_does_nothing(heis9, rng, monkeypatch, two_threads):
    # a BLAS without OpenBLAS's thread functions (MKL, Accelerate) is left
    # at its own count, and the route records None
    import subfrac.spectral as spectral

    monkeypatch.setattr(spectral, "_THREAD_SYMBOLS", (("no_such_get", "no_such_set"),))
    spectral._thread_api.cache_clear()
    try:
        assert spectral._thread_api() is None
        assert spectral.blas_thread_api() == {"api": None, "default_threads": None}
        with spectral._serial_blas(True) as threads:
            assert threads is None and two_threads.get() == 2
        op, want = heis9
        dec = _decompose_and_apply(op, rng)
        assert dec.blas_threads is None
        assert np.abs(dec.eigenvalues - want.eigenvalues).max() <= 1e-12 * want.eigenvalues.max()
    finally:
        spectral._thread_api.cache_clear()
    assert two_threads.get() == 2
