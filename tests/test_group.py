import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import subfrac
from subfrac import (
    GridFunction,
    GridSpec,
    group_convolve,
    integral,
    lp_norm,
)
from subfrac.errors import ConfigError, GridMismatchError
from subfrac.group import GROUPS

H = GROUPS["heisenberg"]

coord = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
point = st.tuples(coord, coord, coord)
scale = st.floats(min_value=0.1, max_value=10.0)


# ---------------------------------------------------------------------------
# group law
# ---------------------------------------------------------------------------

def test_identity_element():
    assert np.array_equal(H.mul((0, 0, 0), (1.5, -2.0, 3.25)), [1.5, -2.0, 3.25])


def test_group_law_twist():
    assert np.array_equal(H.mul((1, 0, 0), (0, 1, 0)), [1, 1, 0.5])


def test_non_commutative_third_coordinate():
    ab = H.mul((1, 0, 0), (0, 1, 0))
    ba = H.mul((0, 1, 0), (1, 0, 0))
    assert ab[2] == 0.5 and ba[2] == -0.5


def test_inverse_examples():
    assert np.array_equal(H.inverse((0, 0, 0)), [0, 0, 0])
    assert np.array_equal(H.inverse((1, 2, 3)), [-1, -2, -3])
    assert np.array_equal(H.mul((1, 2, 3), H.inverse((1, 2, 3))), [0, 0, 0])


def test_inverse_property_batch(rng):
    x = rng.uniform(-5, 5, (1000, 3))
    assert np.abs(H.mul(H.inverse(x), x)).max() == 0.0


@given(point, point, point)
def test_associativity(x, y, z):
    left = H.mul(H.mul(x, y), z)
    right = H.mul(x, H.mul(y, z))
    scale_ = np.abs(right).max() + 1.0
    assert np.abs(left - right).max() <= 1e-12 * scale_


@given(point, point, scale)
def test_dilation_is_automorphism(x, y, alpha):
    left = H.dilate(alpha, H.mul(x, y))
    right = H.mul(H.dilate(alpha, x), H.dilate(alpha, y))
    assert np.abs(left - right).max() <= 1e-12 * (np.abs(right).max() + 1.0)


def test_dilate_examples():
    assert np.array_equal(H.dilate(1.0, (3, -1, 2)), [3, -1, 2])
    assert np.array_equal(H.dilate(2.0, (1, 1, 1)), [2, 2, 4])
    with pytest.raises(ConfigError):
        H.dilate(0.0, (1, 1, 1))
    with pytest.raises(ConfigError):
        H.dilate(-2.0, (1, 1, 1))


@pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
def test_dilate_rejects_a_non_finite_factor(alpha):
    with pytest.raises(ConfigError, match="finite"):
        H.dilate(alpha, (1, 1, 1))


def test_norm_examples():
    assert H.norm((1, 0, 0)) == 1.0
    assert H.norm((0, 0, 1)) == 2.0  # 16^(1/4)
    assert H.norm((3, 4, 0)) == 5.0
    assert H.norm((0, 0, 0)) == 0.0


@given(point, st.sampled_from([0.5, 2.0, 10.0]))
def test_norm_homogeneity(x, alpha):
    n = H.norm(x)
    assert abs(H.norm(H.dilate(alpha, x)) - alpha * n) <= 1e-12 * alpha * n + 1e-15


def test_distance():
    assert H.distance((1, 2, 3), (1, 2, 3)) == 0.0
    assert H.distance((0, 0, 1), (0, 0, 0)) == 2.0


@given(point, point, point)
def test_distance_left_invariance(x, y, z):
    d0 = H.distance(x, y)
    d1 = H.distance(H.mul(z, x), H.mul(z, y))
    assert abs(d0 - d1) <= 1e-9 * (d0 + 1.0)


# ---------------------------------------------------------------------------
# the law and norm of every GROUPS entry, read off its fields, weights and gauge
# ---------------------------------------------------------------------------

TABLE_GROUPS = {
    "heisenberg": H,
    **{f"euclidean{d}d": GridSpec(5, 1.0, dims=d, mode="euclidean_box").group
       for d in (1, 2, 3)},
}


@pytest.mark.parametrize("name", TABLE_GROUPS)
def test_law_differentiates_to_the_fields(name, rng):
    # X_j(x) = d/de x.(e e_j) at e = 0, by a central difference
    group = TABLE_GROUPS[name]
    axes = len(group.weights)
    x = rng.uniform(-3, 3, (200, axes))
    eps = 1e-6
    for terms in group.fields.values():
        want = np.zeros_like(x)
        for axis, c, coord in terms:
            want[:, axis] += c if coord is None else c * x[:, coord]
        step = np.zeros(axes)
        step[next(axis for axis, _, coord in terms if coord is None)] = eps
        got = (group.mul(x, step) - group.mul(x, -step)) / (2.0 * eps)
        assert np.abs(got - want).max() <= 1e-8


@pytest.mark.parametrize("name", TABLE_GROUPS)
def test_law_is_a_group_law_and_the_norm_is_homogeneous(name, rng):
    group = TABLE_GROUPS[name]
    x, y, z = rng.uniform(-3, 3, (3, 1000, len(group.weights)))
    scale = np.abs(group.mul(x, group.mul(y, z))).max() + 1.0
    assoc = group.mul(group.mul(x, y), z) - group.mul(x, group.mul(y, z))
    assert np.abs(assoc).max() <= 1e-12 * scale
    # x^-1 = -x holds because B(x, y) = x.y - x - y is antisymmetric
    twist = group.mul(x, y) - x - y
    assert np.abs(twist + (group.mul(y, x) - y - x)).max() <= 1e-12 * scale
    assert np.abs(group.mul(x, group.inverse(x))).max() <= 1e-12
    assert np.abs(group.mul(group.inverse(x), x)).max() <= 1e-12
    n = group.norm(x)
    for alpha in (0.5, 2.0, 10.0):
        assert np.abs(group.norm(group.dilate(alpha, x)) - alpha * n).max() <= 1e-12 * alpha * n.max()


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3, 1e8, 1e20])
def test_heisenberg_law_and_norm_are_bitwise_the_closed_forms(scale, rng):
    x, y = rng.uniform(-scale, scale, (2, 10000, 3))
    law = x + y
    law[:, 2] += 0.5 * (x[:, 0] * y[:, 1] - y[:, 0] * x[:, 1])
    r2 = x[:, 0] ** 2 + x[:, 1] ** 2
    norm = (r2 * r2 + 16.0 * x[:, 2] ** 2) ** 0.25
    assert H.mul(x, y).tobytes() == law.tobytes()
    assert H.norm(x).tobytes() == norm.tobytes()


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def test_make_grid_1d():
    spec = GridSpec(3, 1.0, dims=1, mode="euclidean_box")
    assert np.array_equal(spec.node_coordinates().ravel(), [-1.0, 0.0, 1.0])


def test_make_grid_spacing_and_center():
    spec = GridSpec(5, 2.0, dims=1, mode="euclidean_box")
    assert spec.spacing == 1.0
    assert spec.center_index() == 2
    assert spec.node_coordinates()[spec.center_index(), 0] == 0.0


def test_make_grid_3d_counts():
    spec = GridSpec(17, 4.0, dims=3, mode="heisenberg")
    assert spec.spacing == 0.5
    assert spec.n_nodes == 17 ** 3 == 4913
    coords = spec.node_coordinates()
    assert coords.shape == (4913, 3)
    # x3-fastest: consecutive flat indices advance the last coordinate
    assert np.array_equal(coords[1] - coords[0], [0.0, 0.0, 0.5])


def test_even_n_rejected_on_box_modes():
    with pytest.raises(ConfigError):
        GridSpec(8, 1.0, dims=1, mode="euclidean_box")
    with pytest.raises(ConfigError):
        GridSpec(10, 1.0, dims=3, mode="heisenberg")
    # torus admits even n; the origin is then a node
    spec = GridSpec(8, 1.0, dims=1, mode="euclidean_torus")
    assert spec.node_coordinates()[spec.center_index(), 0] == 0.0


INTERIOR_SPECS = {
    "heisenberg": GridSpec(7, 1.3, dims=3, mode="heisenberg"),
    "box1d": GridSpec(9, 1.3, dims=1, mode="euclidean_box"),
    "box2d": GridSpec(7, 1.3, dims=2, mode="euclidean_box"),
    "torus1d": GridSpec(8, 1.3, dims=1, mode="euclidean_torus"),
    "torus2d": GridSpec(7, 1.3, dims=2, mode="euclidean_torus"),
}


@pytest.mark.parametrize("margin", [0, 1, 2])
@pytest.mark.parametrize("name", list(INTERIOR_SPECS))
def test_interior_holds_the_nodes_margin_steps_inside(name, margin):
    spec = INTERIOR_SPECS[name]
    n = spec.n_per_axis
    # node order is C order over the axes, the last axis fastest
    want = [all(margin <= i < n - margin for i in index)
            for index in itertools.product(range(n), repeat=spec.dims)]
    assert spec.interior(margin).tolist() == want


@pytest.mark.parametrize("name", [k for k, spec in INTERIOR_SPECS.items() if not spec.periodic])
def test_box_interior_is_the_nodes_off_the_faces(name):
    # the coordinate rule |x_k| < L - h/2 that the Gaussian-bound check read
    spec = INTERIOR_SPECS[name]
    rule = (np.abs(spec.node_coordinates()) < spec.extent - 0.5 * spec.spacing).all(axis=1)
    assert np.array_equal(spec.interior(1), rule)


def test_heisenberg_requires_3d():
    with pytest.raises(ConfigError):
        GridSpec(5, 1.0, dims=2, mode="heisenberg")


def test_non_finite_extent_rejected():
    for extent in (np.nan, np.inf):
        with pytest.raises(ConfigError):
            GridSpec(5, extent, dims=1, mode="euclidean_box")


# ---------------------------------------------------------------------------
# norms and integrals
# ---------------------------------------------------------------------------

def test_lp_norm_zero_function():
    spec = GridSpec(5, 1.0, dims=1, mode="euclidean_box")
    z = GridFunction(spec, np.zeros(5))
    for p in (1, 2, np.inf):
        assert lp_norm(z, p) == 0.0


def test_l1_norm_of_constant_is_riemann_sum():
    # plain weight h per node, both endpoints included: h*n = 2L + h exactly
    spec = GridSpec(9, 1.0, dims=1, mode="euclidean_box")
    one = GridFunction(spec, np.ones(9))
    assert lp_norm(one, 1) == pytest.approx(spec.spacing * 9, rel=0, abs=1e-15)
    assert lp_norm(one, 1) == pytest.approx(2.0 + spec.spacing, rel=0, abs=1e-15)
    # on the torus the node weights tile the period exactly
    tspec = GridSpec(8, 1.0, dims=1, mode="euclidean_torus")
    tone = GridFunction(tspec, np.ones(8))
    assert lp_norm(tone, 1) == pytest.approx(2.0, rel=0, abs=1e-15)


def test_norm_scaling_and_unsupported_p(rng):
    spec = GridSpec(7, 2.0, dims=1, mode="euclidean_box")
    f = GridFunction(spec, rng.standard_normal(7))
    cf = GridFunction(spec, -3.5 * f.values)
    for p in (1, 2, np.inf):
        assert lp_norm(cf, p) == pytest.approx(3.5 * lp_norm(f, p), rel=1e-14)
    with pytest.raises(ConfigError):
        lp_norm(f, 3)


def test_l2_norm_past_the_double_range_of_its_square():
    # w sum(v^2) overflows, the norm itself does not
    spec = GridSpec(5, 1e50, dims=3, mode="heisenberg")
    f = GridFunction(spec, np.full(spec.n_nodes, 1e150))
    with np.errstate(over="raise"):
        got = lp_norm(f, 2)
    want = 1e150 * spec.spacing ** 1.5 * np.sqrt(spec.n_nodes)
    assert got == pytest.approx(want, rel=1e-14)


def test_integral_weight():
    spec = GridSpec(5, 1.0, dims=2, mode="euclidean_box")
    f = GridFunction(spec, np.ones(25))
    assert integral(f) == pytest.approx(spec.spacing ** 2 * 25, rel=0)


def test_gridfunction_size_validation():
    spec = GridSpec(5, 1.0, dims=1, mode="euclidean_box")
    with pytest.raises(GridMismatchError):
        GridFunction(spec, np.zeros(6))


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def _delta(spec):
    vals = np.zeros(spec.n_nodes)
    vals[spec.center_index()] = spec.spacing ** (-spec.dims)
    return GridFunction(spec, vals)


def test_convolution_identity_heisenberg(rng):
    spec = GridSpec(9, 2.0, dims=3, mode="heisenberg")
    f = GridFunction(spec, rng.standard_normal(spec.n_nodes))
    out = group_convolve(f, _delta(spec))
    # the group-law offset at y = x is exactly the identity node: no interpolation error
    assert np.abs(out.values - f.values).max() <= 1e-12 * np.abs(f.values).max()


def test_convolution_identity_torus(rng):
    spec = GridSpec(16, 1.0, dims=1, mode="euclidean_torus")
    f = GridFunction(spec, rng.standard_normal(16))
    out = group_convolve(f, _delta(spec))
    assert np.abs(out.values - f.values).max() <= 1e-12


def test_convolution_matches_brute_force_heisenberg(rng):
    spec = GridSpec(5, 2.0, dims=3, mode="heisenberg")
    f = GridFunction(spec, rng.standard_normal(spec.n_nodes))
    g = GridFunction(spec, rng.standard_normal(spec.n_nodes))
    got = group_convolve(f, g).values

    h = spec.spacing
    L = spec.extent
    n = spec.n_per_axis
    g3 = g.shaped()

    def g_interp(z):
        i1 = round((z[0] + L) / h)
        i2 = round((z[1] + L) / h)
        if not (0 <= i1 < n and 0 <= i2 < n):
            return 0.0
        ri = (z[2] + L) / h
        k = int(np.floor(ri))
        w = ri - k
        v0 = g3[i1, i2, k] if 0 <= k < n else 0.0
        v1 = g3[i1, i2, k + 1] if 0 <= k + 1 < n else 0.0
        return (1 - w) * v0 + w * v1

    coords = spec.node_coordinates()
    fv = f.values
    want = np.empty(spec.n_nodes)
    for a, x in enumerate(coords):
        acc = 0.0
        for b, y in enumerate(coords):
            z = H.mul(H.inverse(y), x)
            acc += fv[b] * g_interp(z)
        want[a] = acc * h ** 3
    assert np.abs(got - want).max() <= 1e-12 * (np.abs(want).max() + 1.0)


def _convolve_by_pairs(f3, g3, spec):
    """The Heisenberg convolution as a Python loop over every (a1, a2): the reference."""
    n, h, ax = spec.n_per_axis, spec.spacing, spec.axis_coordinates()
    half, group = (n - 1) // 2, spec.group
    out = np.zeros((n, n, n))
    gpad = np.zeros((n, n, n + 2))
    gpad[:, :, 1 : n + 1] = g3
    b1g, b2g = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    b_inverse = group.inverse(np.stack([ax[b1g], ax[b2g], np.zeros((n, n))], axis=-1))
    m = np.arange(2 * n - 1)
    for a1 in range(n):
        for a2 in range(n):
            c1, c2 = a1 - b1g + half, a2 - b2g + half
            valid = (c1 >= 0) & (c1 < n) & (c2 >= 0) & (c2 < n)
            twist = group.mul(b_inverse, (ax[a1], ax[a2], 0.0))[..., 2]
            ridx = m[None, :] - (n - 1) + half + twist[valid][:, None] / h
            in_range = (ridx >= -1) & (ridx < n)
            k = np.floor(np.where(in_range, ridx, 0.0)).astype(int)
            w = ridx - k
            rows = gpad[c1[valid], c2[valid], :]
            samp = (1.0 - w) * np.take_along_axis(rows, k + 1, axis=1)
            samp += w * np.take_along_axis(rows, k + 2, axis=1)
            samp[~in_range] = 0.0
            windows = np.lib.stride_tricks.sliding_window_view(samp, n, axis=1)
            out[a1, a2, :] += np.einsum("qb,qab->a", f3[b1g[valid], b2g[valid], ::-1], windows)
    return out * h ** 3


@pytest.mark.parametrize("n, L", [(9, 2.0), (15, 4.0)])
def test_convolution_matches_the_pair_loop(rng, n, L):
    # the batched rows keep each (a, b) pair's arithmetic and are added per
    # a2 in the loop's order: bitwise the loop wherever einsum sums a row as
    # it does inside the loop's block, and within 1e-15 of it in any case.
    # f is noise and g a bump, so f * g and g * f differ; both are checked
    spec = GridSpec(n, L, dims=3, mode="heisenberg")
    f = GridFunction(spec, rng.standard_normal(spec.n_nodes))
    g = subfrac.random_bump(spec, rng)
    for a, b in ((f, g), (g, f)):
        got = group_convolve(a, b).shaped()
        want = _convolve_by_pairs(a.shaped(), b.shaped(), spec)
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def test_torus_box_indicator_gives_triangle():
    # brute-force double-sum oracle for the periodic 1-D convolution
    spec = GridSpec(16, 1.0, dims=1, mode="euclidean_torus")
    h = spec.spacing
    vals = np.zeros(16)
    vals[6:10] = 1.0
    f = GridFunction(spec, vals)
    got = group_convolve(f, f).values
    # center-origin indexing: g at coordinate (i-j)h lives at array index i-j+n/2
    c = spec.center_index()
    want = np.empty(16)
    for i in range(16):
        want[i] = h * sum(vals[j] * vals[(i - j + c) % 16] for j in range(16))
    assert np.abs(got - want).max() <= 1e-13
    # triangle shape: unimodal with peak value h * (indicator width)
    assert want.max() == pytest.approx(4 * h)


@pytest.mark.parametrize("dims, n", [(1, 9), (2, 7), (3, 5)])
def test_convolution_matches_brute_force_box(rng, dims, n):
    # the zero-extended euclidean sum h^dims sum_y f(y) g(x - y), over every
    # pair of nodes; node k sits at (k - c) h, so x_i - y_j is node i - j + c
    spec = GridSpec(n, 1.5, dims=dims, mode="euclidean_box")
    f = GridFunction(spec, rng.standard_normal(spec.n_nodes))
    g = GridFunction(spec, rng.standard_normal(spec.n_nodes))
    got = group_convolve(f, g).shaped()
    f3, g3, c = f.shaped(), g.shaped(), (n - 1) // 2
    want = np.zeros_like(got)
    for i in np.ndindex(got.shape):
        for j in np.ndindex(got.shape):
            k = tuple(a - b + c for a, b in zip(i, j))
            if all(0 <= x < n for x in k):
                want[i] += f3[j] * g3[k]
    want *= spec.spacing ** dims
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("p,q,r", [(1, 1, 1), (1, 2, 2), (2, 2, np.inf), (1, np.inf, np.inf)])
def test_young_inequality_heisenberg(p, q, r, rng):
    spec = GridSpec(7, 2.0, dims=3, mode="heisenberg")
    for _ in range(12):
        f = GridFunction(spec, np.abs(rng.standard_normal(spec.n_nodes)))
        g = GridFunction(spec, np.abs(rng.standard_normal(spec.n_nodes)))
        conv = group_convolve(f, g)
        assert lp_norm(conv, r) <= lp_norm(f, p) * lp_norm(g, q) + 1e-9


def test_convolution_spec_mismatch(rng):
    a = GridSpec(5, 1.0, dims=1, mode="euclidean_box")
    b = GridSpec(7, 1.0, dims=1, mode="euclidean_box")
    with pytest.raises(GridMismatchError):
        group_convolve(GridFunction(a, np.zeros(5)), GridFunction(b, np.zeros(7)))


# ---------------------------------------------------------------------------
# GF1 round trip
# ---------------------------------------------------------------------------

def test_gf1_round_trip_bit_exact(tmp_path, rng):
    spec = GridSpec(9, 0.1 + 0.2, dims=3, mode="heisenberg")  # non-representable L
    f = GridFunction(spec, rng.standard_normal(spec.n_nodes))
    path = tmp_path / "f.gf1"
    subfrac.write_gf1(path, f)
    g = subfrac.read_gf1(path)
    assert g.spec == spec
    assert np.array_equal(g.values, f.values)
    header = path.read_bytes().split(b"\n", 1)[0]
    assert header.startswith(b"GF1 3 9 ")


def test_gf1_truncated_payload(tmp_path):
    spec = GridSpec(5, 1.0, dims=1, mode="euclidean_box")
    path = tmp_path / "bad.gf1"
    subfrac.write_gf1(path, GridFunction(spec, np.ones(5)))
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(ConfigError):
        subfrac.read_gf1(path)


def test_gf1_rejects_other_files(tmp_path):
    path = tmp_path / "not.gf1"
    path.write_bytes(b"hello world\n")
    with pytest.raises(ConfigError):
        subfrac.read_gf1(path)


def _gf1_bytes():
    return b"GF1 1 5 1.0 euclidean_box\n" + np.arange(5.0).astype("<f8").tobytes()


def test_gf1_rejects_trailing_data(tmp_path):
    path = tmp_path / "long.gf1"
    path.write_bytes(_gf1_bytes())
    assert np.array_equal(subfrac.read_gf1(path).values, np.arange(5.0))
    path.write_bytes(_gf1_bytes() + bytes(16))
    with pytest.raises(ConfigError, match="payload has 56 bytes"):
        subfrac.read_gf1(path)


def test_gf1_rejects_a_non_numeric_header_field(tmp_path):
    path = tmp_path / "bad.gf1"
    path.write_bytes(_gf1_bytes().replace(b"GF1 1 5", b"GF1 x 5", 1))
    with pytest.raises(ConfigError, match="non-numeric"):
        subfrac.read_gf1(path)


def test_gf1_rejects_a_non_ascii_header(tmp_path):
    path = tmp_path / "bad.gf1"
    path.write_bytes(_gf1_bytes().replace(b"euclidean_box", "euclidean_böx".encode(), 1))
    with pytest.raises(ConfigError, match="not ASCII"):
        subfrac.read_gf1(path)


class FailingFile:
    """A file on a full disk: a write stores the first half of its data, then raises."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        raise OSError("no space left")


@pytest.mark.parametrize(
    "writer", ["write_gf1", "export_spectrum_csv", "export_matrix_market"])
def test_a_failed_write_keeps_the_old_file(tmp_path, monkeypatch, writer):
    import subfrac.group as group

    spec = GridSpec(5, 1.0, dims=1, mode="euclidean_box")
    op = subfrac.assemble_operator("euclid", spec)
    write = {
        "write_gf1": lambda path: subfrac.write_gf1(path, GridFunction(spec, np.ones(5))),
        "export_spectrum_csv":
            lambda path: subfrac.export_spectrum_csv(subfrac.spectral_decompose(op), path),
        "export_matrix_market": lambda path: subfrac.export_matrix_market(op, path),
    }[writer]
    path = tmp_path / "out"
    path.write_bytes(b"old contents")
    opened = []

    def failing_open(file, *args, **kwargs):
        opened.append(file)
        return FailingFile(open(file, *args, **kwargs))

    monkeypatch.setattr(group, "open", failing_open, raising=False)
    with pytest.raises(OSError, match="no space left"):
        write(path)
    assert opened == [tmp_path / "out.tmp"]
    assert path.read_bytes() == b"old contents"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
    monkeypatch.undo()
    write(path)
    assert path.read_bytes() != b"old contents"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
