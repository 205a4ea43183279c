import hashlib

import numpy as np
import pytest
import sympy

import subfrac
from subfrac import (
    GridFunction,
    GridSpec,
    apply_multi_index,
    assemble_operator,
    build_vector_field,
    check_homogeneity,
    group_convolve,
)
from subfrac.errors import ConfigError


def heis(n=9, L=2.0):
    return GridSpec(n, L, 3, "heisenberg")


def interior_mask(spec, margin=1):
    n = spec.n_per_axis
    m = np.full((n,) * spec.dims, False)
    sl = tuple(slice(margin, n - margin) for _ in range(spec.dims))
    m[sl] = True
    return m.ravel()


# ---------------------------------------------------------------------------
# vector fields
# ---------------------------------------------------------------------------

def test_x1_kills_constants():
    # zero at every node whose stencil does not clip the Dirichlet boundary
    spec = heis()
    X1 = build_vector_field("X1", "centered", spec)
    out = X1.apply(GridFunction(spec, np.ones(spec.n_nodes))).values
    assert np.abs(out[interior_mask(spec)]).max() == 0.0


def test_x1_on_x3_gives_minus_half_x2():
    spec = heis()
    coords = spec.node_coordinates()
    X1 = build_vector_field("X1", "centered", spec)
    out = X1.apply(GridFunction(spec, coords[:, 2])).values
    mask = interior_mask(spec)
    assert np.abs(out[mask] - (-coords[mask, 1] / 2)).max() <= 1e-13


def test_t_on_x3_is_one():
    spec = heis()
    coords = spec.node_coordinates()
    T = build_vector_field("T", "centered", spec)
    out = T.apply(GridFunction(spec, coords[:, 2])).values
    mask = interior_mask(spec)
    assert np.abs(out[mask] - 1.0).max() <= 1e-13


def test_centered_antisymmetric_on_interior(rng):
    # <X f, g> = -<f, X g> for interior-supported f, g (exact: the x3-coefficient
    # does not depend on x3, so the centered matrix is antisymmetric there)
    spec = heis()
    mask = interior_mask(spec, margin=2)
    f = np.where(mask, rng.standard_normal(spec.n_nodes), 0.0)
    g = np.where(mask, rng.standard_normal(spec.n_nodes), 0.0)
    for kind in ("X1", "X2", "T"):
        M = build_vector_field(kind, "centered", spec).matrix
        lhs = (M @ f) @ g
        rhs = -f @ (M @ g)
        assert abs(lhs - rhs) <= 1e-11 * (abs(lhs) + 1.0)


def test_field_mode_compatibility():
    with pytest.raises(ConfigError):
        build_vector_field("X1", "centered", GridSpec(9, 1.0, 1, "euclidean_box"))
    with pytest.raises(ConfigError):
        build_vector_field("partial_1", "centered", heis())
    with pytest.raises(ConfigError):
        build_vector_field("partial_3", "centered", GridSpec(9, 1.0, 2, "euclidean_box"))


# ---------------------------------------------------------------------------
# multi-index composition
# ---------------------------------------------------------------------------

def test_empty_index_is_identity(rng):
    spec = heis()
    f = GridFunction(spec, rng.standard_normal(spec.n_nodes))
    assert np.array_equal(apply_multi_index([], f).values, f.values)


def test_commutator_on_x3_equals_one():
    spec = heis()
    coords = spec.node_coordinates()
    f = GridFunction(spec, coords[:, 2])
    ab = apply_multi_index(["X1", "X2"], f).values
    ba = apply_multi_index(["X2", "X1"], f).values
    mask = interior_mask(spec, margin=2)
    assert np.abs((ab - ba)[mask] - 1.0).max() <= 1e-12


def test_double_x1_on_x1_squared():
    spec = heis()
    coords = spec.node_coordinates()
    f = GridFunction(spec, coords[:, 0] ** 2)
    out = apply_multi_index(["X1", "X1"], f).values
    mask = interior_mask(spec, margin=2)
    assert np.abs(out[mask] - 2.0).max() <= 1e-12


def test_commutator_equals_t_on_all_quadratics():
    # machine precision on every monomial of total degree <= 2
    spec = heis()
    coords = spec.node_coordinates()
    x1, x2, x3 = coords.T
    monomials = [
        np.ones_like(x1), x1, x2, x3,
        x1 * x1, x1 * x2, x1 * x3, x2 * x2, x2 * x3, x3 * x3,
    ]
    mask = interior_mask(spec, margin=2)
    for vals in monomials:
        f = GridFunction(spec, vals)
        ab = apply_multi_index(["X1", "X2"], f).values
        ba = apply_multi_index(["X2", "X1"], f).values
        tf = apply_multi_index(["T"], f).values
        scale = max(np.abs(tf[mask]).max(), 1.0)
        assert np.abs((ab - ba - tf)[mask]).max() <= 1e-12 * scale


# ---------------------------------------------------------------------------
# homogeneity
# ---------------------------------------------------------------------------

def test_homogeneity_x1_quadratic():
    spec = heis()

    def f(x1, x2, x3):
        return x1 * x1 + 2.0 * x2 * x3 - x3

    assert check_homogeneity("X1", f, 2.0, spec) <= 1e-12


def test_homogeneity_t_linear():
    spec = heis()

    def f(x1, x2, x3):
        return x3

    for alpha in (0.5, 2.0, 7.0):
        assert check_homogeneity("T", f, alpha, spec) <= 1e-12


def test_homogeneity_smooth_closure():
    # the two-sided stencil identity is exact for any f when the right side
    # uses the dilated lattice steps
    spec = heis()

    def f(x1, x2, x3):
        return np.sin(x1) * np.exp(-0.3 * x2) + np.cos(x3)

    assert check_homogeneity("X2", f, 3.0, spec) <= 1e-12


def test_homogeneity_negative_control():
    spec = heis()

    def f(x1, x2, x3):
        return x1 * x1 + x2 * x3

    # asserting degree 2 for X1 (true degree 1) must produce an O(1) deviation
    assert check_homogeneity("X1", f, 2.0, spec, degree=2) > 0.1


@pytest.mark.parametrize("kind, alpha, spec", [
    ("X3", 2.0, heis()),
    ("partial_1", 2.0, GridSpec(9, 2.0, 1, "euclidean_box")),
    ("X1", float("nan"), heis()),
    ("X1", float("inf"), heis()),
], ids=["unknown-field", "euclidean-field", "nan-alpha", "inf-alpha"])
def test_homogeneity_rejects_what_it_cannot_check(kind, alpha, spec):
    with pytest.raises(ConfigError):
        check_homogeneity(kind, lambda x1, x2, x3: x1 * x2 + x3, alpha, spec)


# ---------------------------------------------------------------------------
# operator assembly
# ---------------------------------------------------------------------------

def test_euclid_1d_dirichlet_matrix():
    spec = GridSpec(3, 1.0, 1, "euclidean_box")
    op = assemble_operator("euclid", spec)
    want = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
    assert np.array_equal(op.matrix.toarray(), want / spec.spacing ** 2)


def test_assembled_operator_is_bitwise_symmetric():
    for kind, spec in [("j1", heis()), ("j3", heis()),
                       ("euclid", GridSpec(9, 1.0, 2, "euclidean_box"))]:
        op = assemble_operator(kind, spec)
        assert abs(op.matrix - op.matrix.T).max() == 0.0


def test_j1_on_horizontal_quadratic():
    # J1 (x1^2 + x2^2) = -(X1^2 + X2^2)(x1^2 + x2^2) = -4; the forward-scheme
    # cross terms vanish for x3-independent data, so interior rows are exact
    spec = heis()
    coords = spec.node_coordinates()
    f = GridFunction(spec, coords[:, 0] ** 2 + coords[:, 1] ** 2)
    out = assemble_operator("j1", spec).apply(f).values
    inner = (np.abs(coords) <= spec.extent / 2).all(axis=1)
    assert np.abs(out[inner] + 4.0).max() <= 1e-10


def test_quadratic_form_is_sum_of_field_norms(rng):
    spec = heis(7)
    op = assemble_operator("j1", spec)
    fields = [build_vector_field(kind, "forward", spec) for kind in ("X1", "X2")]
    for _ in range(100):
        v = rng.standard_normal(spec.n_nodes)
        quad = v @ (op.matrix @ v)
        parts = sum(np.linalg.norm(B.matrix @ v) ** 2 for B in fields)
        assert quad >= 0.0
        assert abs(quad - parts) <= 1e-10 * max(parts, 1.0)


def test_psd_and_hypoellipticity_proxy():
    # J1 uses only 2 of 3 directions yet the Dirichlet truncation has a
    # strictly positive bottom eigenvalue (the bracket direction enters
    # through the variable coefficients)
    spec = heis(7)
    op = assemble_operator("j1", spec)
    w = np.linalg.eigvalsh(op.matrix.toarray())
    assert w[0] > 1e-8
    assert w[0] >= -1e-10 * abs(w[-1])


def test_operator_kind_validation():
    with pytest.raises(ConfigError):
        assemble_operator("j1", GridSpec(9, 1.0, 1, "euclidean_box"))
    with pytest.raises(ConfigError):
        assemble_operator("euclid", heis())
    with pytest.raises(ConfigError):
        assemble_operator("j2", heis())


# ---------------------------------------------------------------------------
# operator application
# ---------------------------------------------------------------------------

def test_apply_zero_and_linearity(rng):
    spec = heis(7)
    op = assemble_operator("j3", spec)
    zero = op.apply(GridFunction(spec, np.zeros(spec.n_nodes))).values
    assert np.abs(zero).max() == 0.0
    f = rng.standard_normal(spec.n_nodes)
    g = rng.standard_normal(spec.n_nodes)
    lin = op.apply(GridFunction(spec, 2.5 * f - 1.5 * g)).values
    ref = 2.5 * op.apply(GridFunction(spec, f)).values - 1.5 * op.apply(GridFunction(spec, g)).values
    assert np.abs(lin - ref).max() <= 1e-13 * np.abs(ref).max()


def test_torus_fourier_modes_are_eigenvectors():
    spec = GridSpec(16, 1.0, 1, "euclidean_torus")
    op = assemble_operator("euclid", spec)
    n = spec.n_per_axis
    h = spec.spacing
    x = spec.axis_coordinates()
    for k in (1, 3, 7):
        mode = np.cos(2 * np.pi * k * (x + spec.extent) / (2 * spec.extent))
        lam = (2 - 2 * np.cos(2 * np.pi * k / n)) / h ** 2
        out = op.apply(GridFunction(spec, mode)).values
        assert np.abs(out - lam * mode).max() <= 1e-10 * max(lam, 1.0)
    # cross-check the symbol against a dense eigendecomposition
    w = np.sort(np.linalg.eigvalsh(op.matrix.toarray()))
    sym = np.sort((2 - 2 * np.cos(2 * np.pi * np.arange(n) / n)) / h ** 2)
    assert np.abs(w - sym).max() <= 1e-9


# ---------------------------------------------------------------------------
# consistency order
# ---------------------------------------------------------------------------

def _sympy_fields():
    x1, x2, x3 = sympy.symbols("x1 x2 x3")
    X1 = lambda g: sympy.diff(g, x1) - x2 / 2 * sympy.diff(g, x3)
    X2 = lambda g: sympy.diff(g, x2) + x1 / 2 * sympy.diff(g, x3)
    T = lambda g: sympy.diff(g, x3)
    return (x1, x2, x3), X1, X2, T


@pytest.mark.parametrize("kind,min_order", [("j1", 1.0), ("j3", 1.0)])
def test_heisenberg_consistency_order(kind, min_order):
    (x1, x2, x3), X1, X2, T = _sympy_fields()
    a = 2.0
    fsym = sympy.exp(-a * (x1 ** 2 + x2 ** 2 + x3 ** 2))
    Jsym = -(X1(X1(fsym)) + X2(X2(fsym)))
    if kind == "j3":
        Jsym -= T(T(fsym))
    f_np = sympy.lambdify((x1, x2, x3), fsym, "numpy")
    Jf_np = sympy.lambdify((x1, x2, x3), Jsym, "numpy")
    errs = []
    hs = []
    for n in (9, 17, 33):
        spec = GridSpec(n, 4.0, 3, "heisenberg")
        coords = spec.node_coordinates()
        f = GridFunction(spec, f_np(*coords.T))
        out = assemble_operator(kind, spec).apply(f).values
        errs.append(np.abs(out - Jf_np(*coords.T)).max())
        hs.append(spec.spacing)
    orders = np.log(np.array(errs[:-1]) / errs[1:]) / np.log(np.array(hs[:-1]) / hs[1:])
    assert orders.min() >= min_order


def test_euclid_consistency_order_two():
    a = 1.0
    errs, hs = [], []
    for n in (33, 65, 129, 257):
        spec = GridSpec(n, 4.0, 1, "euclidean_box")
        x = spec.node_coordinates().ravel()
        f = GridFunction(spec, np.exp(-a * x ** 2))
        exact = -(4 * a * a * x * x - 2 * a) * np.exp(-a * x ** 2)  # -f''
        out = assemble_operator("euclid", spec).apply(f).values
        errs.append(np.abs(out - exact).max())
        hs.append(spec.spacing)
    orders = np.log(np.array(errs[:-1]) / errs[1:]) / np.log(np.array(hs[:-1]) / hs[1:])
    # observed order climbs to the asymptotic rate 2 from below
    assert orders.min() >= 1.9
    assert orders[-1] >= 1.99


# ---------------------------------------------------------------------------
# interaction with convolution
# ---------------------------------------------------------------------------

def test_field_commutes_with_convolution():
    # X^I (f * g) = f * (X^I g) for |I| = 1; tolerance is the O(h^2) stencil
    # error plus the x3-interpolation error of the twisted shifts
    errs = {}
    for n in (9, 13):
        spec = GridSpec(n, 2.0, 3, "heisenberg")
        coords = spec.node_coordinates()
        w = 0.4
        f = GridFunction(spec, np.exp(-((coords - np.array([0.3, -0.2, 0.1])) ** 2).sum(1) / (2 * w * w)))
        g = GridFunction(spec, np.exp(-((coords - np.array([-0.2, 0.1, 0.25])) ** 2).sum(1) / (2 * w * w)))
        X1 = build_vector_field("X1", "centered", spec)
        lhs = X1.apply(group_convolve(f, g)).values
        rhs = group_convolve(f, X1.apply(g)).values
        mask = interior_mask(spec)
        errs[n] = np.abs((lhs - rhs)[mask]).max() / np.abs(rhs).max()
    assert errs[9] <= 0.1
    assert errs[13] < errs[9]


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def test_matrix_market_round_trip(tmp_path):
    spec = GridSpec(5, 1.0, 1, "euclidean_box")
    op = assemble_operator("euclid", spec)
    path = tmp_path / "operator.mtx"
    subfrac.export_matrix_market(op, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "%%MatrixMarket matrix coordinate real symmetric"
    n_rows, n_cols, nnz = (int(v) for v in lines[1].split())
    assert (n_rows, n_cols) == op.matrix.shape
    assert nnz == len(lines) - 2
    dense = np.zeros((n_rows, n_cols))
    for line in lines[2:]:
        i, j, v = line.split()
        i, j, v = int(i) - 1, int(j) - 1, float(v)
        dense[i, j] = v
        dense[j, i] = v
    assert np.array_equal(dense, op.matrix.toarray())


# ---------------------------------------------------------------------------
# golden assembly: sha256 of the forward-scheme operators and of the dense
# centered fields, so a stencil change that moves any bit of either fails here
# ---------------------------------------------------------------------------

GOLDEN_GRIDS = {
    "heis7": GridSpec(7, 2.0, 3, "heisenberg"),
    "box2d": GridSpec(7, 1.5, 2, "euclidean_box"),
    "torus3d": GridSpec(6, 1.0, 3, "euclidean_torus"),
}

GOLDEN_OPERATORS = {
    ("heis7", "j1"): "d99565364c80bf956bb8489746f6a026bc953e0881caeead41b886f21b173019",
    ("heis7", "j3"): "19dcccce2825335665bcad636184715341980b40360d7070206d1bdbcbbd4717",
    ("box2d", "euclid"): "4b1112ca36b75fcdbedd62aee7095da58a25a9bf1fd9f9f50e6b5a8248f26b1a",
    ("torus3d", "euclid"): "536b091b87cf625fb7559570318980086ef8886db325448b6b96f0fb210770a6",
}

GOLDEN_FIELDS = {
    ("heis7", "X1"): "c45750ec80cd7f077f2720d25b5df584955230d6bc802182f1324d449525210b",
    ("heis7", "X2"): "e96250b4253d9a2a34328d7594cf8a99dbaa07bf4d95546b2f744f3d9806cd73",
    ("heis7", "T"): "2e9be99f02df5ca4fafa92f16d98a6af56519515143d98a8bee3afd3a0cb85c3",
    ("box2d", "partial_1"): "3ad1a3e6bb376830af2328a34daeaae4956bb45f51cb85e991ce40b206c991c3",
    ("box2d", "partial_2"): "a1c101d990eb6a4b1587ab3a86c9caadd1534ceea315d6cfe3c00b4206e63da9",
    ("torus3d", "partial_1"): "8311294f0f8a3e7b9180ec0debe44cf7f90ff63e8db433a39f60816c4c67bb0a",
    ("torus3d", "partial_2"): "61cad2e5e8ad35233349770cc8b4ecfef3a284271e46a505ee60201f55c283c7",
    ("torus3d", "partial_3"): "1553cc278db77ce63db6c4d21c6fbf1f7809932317bef0c8c4ddca6e803aea4b",
}


def _sha256(*arrays):
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("grid, kind", sorted(GOLDEN_OPERATORS))
def test_assembled_operator_matches_its_golden_digest(grid, kind):
    A = assemble_operator(kind, GOLDEN_GRIDS[grid]).matrix
    got = _sha256(A.data, A.indices.astype(np.int64), A.indptr.astype(np.int64))
    assert got == GOLDEN_OPERATORS[grid, kind]


@pytest.mark.parametrize("grid, kind", sorted(GOLDEN_FIELDS))
def test_centered_field_matches_its_golden_digest(grid, kind):
    M = build_vector_field(kind, "centered", GOLDEN_GRIDS[grid]).matrix
    assert _sha256(M.toarray()) == GOLDEN_FIELDS[grid, kind]
