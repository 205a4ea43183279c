"""Each mode's group (GROUPS) with its law and norm; box/torus grids, convolution.

Grids are uniform boxes [-L, L]^dims with nodes enumerated x3-fastest (C
order over axes x1, x2, x3).  The Haar measure is Lebesgue measure,
discretized as the plain Riemann weight h^dims per node (no endpoint
halving, so Parseval against the matrix inner product is exact).
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, GridMismatchError


@dataclass(frozen=True)
class Group:
    """One mode's group: the one place its structure is written.

    fields: the (axis, coefficient, coordinate) terms of each field, the sum
    of coefficient * x[coordinate] * d/dx_axis (coordinate None: a constant).
    A field's degree is the weight of its constant-coefficient axis.
    operators: the fields X_j of each J = sum_j X_j^T X_j.  weights: the
    dilation weight w_k of each axis, delta_a x = (a^w_k x_k); they sum to
    the homogeneous dimension Q.  involution: the axis permutation p of the
    grid involution x -> -x[p].  dims: the grid dimensions the mode allows.
    gauge: the weight of the top-weight axes in the homogeneous norm.

    Points are arrays (..., axes).  The step-2 law x.y = x + y + B(x, y) is
    read off the fields: X_j, whose constant term is on axis j, is
    d/de x.(e e_j) = e_j + B(x, e_j), so each coordinate term (axis, c, coord)
    of X_j adds c x[coord] y[j] to the axis.  B is antisymmetric: x^-1 = -x.
    A power a^w is a product of w factors, as pow(a, 2) can differ from a * a.
    """

    fields: dict
    operators: dict
    weights: tuple
    involution: tuple
    dims: tuple
    gauge: float

    def mul(self, x, y) -> np.ndarray:
        """x.y; B's terms on an axis are summed before x + y takes them, which
        rounds as the closed form (x1 y2 - y1 x2)/2 does on heisenberg."""
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        twist = {}
        for terms in self.fields.values():
            own = next(axis for axis, _, coord in terms if coord is None)
            for axis, c, coord in terms:
                if coord is not None:
                    term = c * x[..., coord] * y[..., own]
                    twist[axis] = twist[axis] + term if axis in twist else term
        out = x + y
        for axis, b in twist.items():
            out[..., axis] += b
        return out

    def inverse(self, x) -> np.ndarray:
        return -np.asarray(x, dtype=float)

    def dilate(self, alpha: float, x) -> np.ndarray:
        """(a^w_k x_k), an automorphism."""
        if not 0 < alpha < np.inf:
            raise ConfigError(f"dilation factor must be finite and > 0, got {alpha}")
        factors = np.array([math.prod([alpha] * w) for w in self.weights], dtype=float)
        return np.asarray(x, dtype=float) * factors

    def norm(self, x) -> np.ndarray:
        """(|x'|^(2w) + gauge |x''|^2)^(1/(2w)), |x| if every weight is 1.

        x' holds the weight-1 axes and x'' those of the top weight w.
        """
        x = np.asarray(x, dtype=float)
        w = max(self.weights)
        if w == 1:
            return np.sqrt((x ** 2).sum(axis=-1))
        low = [k for k, wk in enumerate(self.weights) if wk == 1]
        top = [k for k, wk in enumerate(self.weights) if wk == w]
        lead = math.prod([(x[..., low] ** 2).sum(axis=-1)] * w)
        return (lead + self.gauge * (x[..., top] ** 2).sum(axis=-1)) ** (1.0 / (2 * w))

    def distance(self, x, y) -> np.ndarray:
        """The left-invariant norm(y^-1.x)."""
        return self.norm(self.mul(self.inverse(y), x))


# a euclidean grid takes the first dims axes of R^3, with J = -sum_k d_k^2
_EUCLIDEAN = Group(
    fields={f"partial_{k}": ((k - 1, 1.0, None),) for k in (1, 2, 3)},
    operators={"euclid": ("partial_1", "partial_2", "partial_3")},
    weights=(1, 1, 1), involution=(0, 1, 2), dims=(1, 2, 3), gauge=1.0)

GROUPS = {
    # X1 = d1 - (x2/2) d3, X2 = d2 + (x1/2) d3 and T = [X1, X2] = d3.  The involution
    # x -> (-x2, -x1, -x3) maps X1, X2, T to -X2, -X1, -T, so it commutes with j1 and j3
    "heisenberg": Group(
        fields={"X1": ((0, 1.0, None), (2, -0.5, 1)),
                "X2": ((1, 1.0, None), (2, 0.5, 0)),
                "T": ((2, 1.0, None),)},
        operators={"j1": ("X1", "X2"), "j3": ("X1", "X2", "T")},
        weights=(1, 1, 2), involution=(1, 0, 2), dims=(3,), gauge=16.0),
    "euclidean_box": _EUCLIDEAN,
    "euclidean_torus": _EUCLIDEAN,
}
MODES = tuple(GROUPS)


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Uniform box discretization of [-L, L]^dims.

    Box modes (heisenberg, euclidean_box) carry both endpoints and require odd
    n_per_axis so the origin is a node: h = 2L/(n-1).  The torus identifies
    -L with L, drops the right endpoint and allows any n >= 3: h = 2L/n.
    """

    n_per_axis: int
    extent: float
    dims: int = 3
    mode: str = "heisenberg"

    def __post_init__(self):
        # normalize numpy scalars so header formatting and equality are plain
        object.__setattr__(self, "n_per_axis", int(self.n_per_axis))
        object.__setattr__(self, "extent", float(self.extent))
        object.__setattr__(self, "dims", int(self.dims))
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.dims not in GROUPS[self.mode].dims:
            raise ConfigError(f"{self.mode} grids take dims in {GROUPS[self.mode].dims}, "
                              f"got dims={self.dims}")
        if not 0.0 < self.extent < np.inf:
            raise ConfigError(f"extent must be finite and > 0, got {self.extent}")
        if self.n_per_axis < 3:
            raise ConfigError(f"n_per_axis must be >= 3, got {self.n_per_axis}")
        if not self.periodic and self.n_per_axis % 2 == 0:
            raise ConfigError(
                f"box modes need odd n_per_axis (origin must be a node), got {self.n_per_axis}"
            )
        # the group law's x1 x2 terms are O(L^2) and the eigenvalues O(1/h^2),
        # and the norms square both, so L^4 and 1/h^4 must be doubles; the
        # norms also weigh by h^dims and its inverse, and past the double
        # range Python's float ** raises
        with np.errstate(over="ignore", divide="ignore"):
            h = np.float64(self.spacing)
            scales = [np.float64(self.extent) ** 4, h ** -4, h ** self.dims, h ** -self.dims]
        if not np.isfinite(scales).all():
            raise ConfigError(f"extent {self.extent} with n_per_axis={self.n_per_axis} "
                              f"puts L^4, 1/h^4 or h^{self.dims} out of the double range")

    @property
    def spacing(self) -> float:
        if self.periodic:
            return 2.0 * self.extent / self.n_per_axis
        return 2.0 * self.extent / (self.n_per_axis - 1)

    @property
    def n_nodes(self) -> int:
        return self.n_per_axis ** self.dims

    @property
    def periodic(self) -> bool:
        return self.mode == "euclidean_torus"

    @property
    def group(self) -> Group:
        """The mode's group on this grid's dims axes, with the fields along them only."""
        g, d = GROUPS[self.mode], self.dims
        fields = {k: v for k, v in g.fields.items() if all(a < d for a, _, _ in v)}
        ops = {k: tuple(f for f in v if f in fields) for k, v in g.operators.items()}
        return replace(g, fields=fields, operators=ops, weights=g.weights[:d],
                       involution=g.involution[:d], dims=(d,))

    def axis_coordinates(self) -> np.ndarray:
        """Per-axis node coordinates i*h - L."""
        return -self.extent + self.spacing * np.arange(self.n_per_axis)

    def node_coordinates(self) -> np.ndarray:
        """(N, dims) coordinates in x3-fastest order (last axis fastest)."""
        ax = self.axis_coordinates()
        grids = np.meshgrid(*([ax] * self.dims), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)

    def center_index(self) -> int:
        """Flat index of the origin (box) or the node nearest it (odd-n torus)."""
        n = self.n_per_axis
        return int(np.ravel_multi_index((n // 2,) * self.dims, (n,) * self.dims))

    def interior(self, margin: int) -> np.ndarray:
        """Mask of the nodes whose every index lies in [margin, n - margin)."""
        n = self.n_per_axis
        idx = np.indices((n,) * self.dims).reshape(self.dims, -1)
        return ((idx >= margin) & (idx < n - margin)).all(axis=0)

    def shaped(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values).reshape((self.n_per_axis,) * self.dims)


@dataclass
class GridFunction:
    """Real samples on a grid, x3-fastest, treated as immutable once built."""

    spec: GridSpec
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).ravel()
        if v.size != self.spec.n_nodes:
            raise GridMismatchError(
                f"expected {self.spec.n_nodes} values for this grid, got {v.size}"
            )
        object.__setattr__(self, "values", v)

    def shaped(self) -> np.ndarray:
        return self.spec.shaped(self.values)


def integral(f: GridFunction) -> float:
    """Haar (= Lebesgue) integral as the plain Riemann sum h^dims * sum."""
    return float(f.spec.spacing ** f.spec.dims * f.values.sum())


def lp_norm(f: GridFunction, p) -> float:
    """Haar-weighted discrete L^p norm for p in {1, 2, inf}."""
    if p == np.inf:
        return float(np.abs(f.values).max(initial=0.0))
    w = f.spec.spacing ** f.spec.dims
    if p == 1:
        return float(w * np.abs(f.values).sum())
    if p == 2:
        with np.errstate(over="ignore"):
            square = w * np.square(f.values).sum()
        if square < np.inf or not np.isfinite(f.values).all():
            return float(np.sqrt(square))
        # finite values whose weighted square sum is past the double range:
        # scale by the largest |value| before squaring
        top = np.abs(f.values).max()
        return float(top * np.sqrt(w) * np.linalg.norm(f.values / top))
    raise ConfigError(f"unsupported p={p!r}; expected 1, 2 or inf")


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def group_convolve(f: GridFunction, g: GridFunction) -> GridFunction:
    """Discrete f*g(x) = h^dims * sum_y f(y) g(y^{-1}.x).

    heisenberg: the group-law offset is exact in x1, x2 (lattice-aligned);
    the law's x3 term makes the x3 component off-lattice, sampled by linear
    interpolation along x3 with zero extension outside the box.  Euclidean
    modes reduce to ordinary (torus-periodic or zero-padded) convolution.
    """
    spec = f.spec
    if g.spec != spec:
        raise GridMismatchError(f"grid mismatch: {f.spec} vs {g.spec}")
    h = spec.spacing
    if spec.periodic:
        # re-index g so the coordinate origin (center node) sits at array index 0,
        # then circular convolution is exactly the coordinate-space sum
        c = spec.n_per_axis // 2
        g0 = np.roll(g.shaped(), (-c,) * spec.dims, axis=tuple(range(spec.dims)))
        fh = np.fft.fftn(f.shaped())
        gh = np.fft.fftn(g0)
        out = np.real(np.fft.ifftn(fh * gh)) * h ** spec.dims
        return GridFunction(spec, out.ravel())
    if spec.mode == "euclidean_box":
        from scipy.signal import convolve as _conv

        full = _conv(f.shaped(), g.shaped(), mode="full", method="auto")
        c = (spec.n_per_axis - 1) // 2
        sl = tuple(slice(c, c + spec.n_per_axis) for _ in range(spec.dims))
        return GridFunction(spec, full[sl].ravel() * h ** spec.dims)
    return GridFunction(spec, _heisenberg_convolve(f.shaped(), g.shaped(), spec).ravel())


def _heisenberg_convolve(f3: np.ndarray, g3: np.ndarray, spec: GridSpec) -> np.ndarray:
    n = spec.n_per_axis
    h = spec.spacing
    ax = spec.axis_coordinates()
    half = (n - 1) // 2
    group = spec.group
    out = np.zeros((n, n, n))
    # integer index k along x3 maps to gpad[..., k+1]; both pads are zero
    gpad = np.zeros((n, n, n + 2))
    gpad[:, :, 1 : n + 1] = g3
    b1g, b2g = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    # b^-1.a for b = (x1, x2, 0) has the x3 offset a3 - b3 + ((-b).(a1, a2, 0))_3
    b_inverse = group.inverse(np.stack([ax[b1g], ax[b2g], np.zeros((n, n))], axis=-1))
    m = np.arange(2 * n - 1)
    for a1 in range(n):
        for a2 in range(n):
            c1 = a1 - b1g + half
            c2 = a2 - b2g + half
            valid = (c1 >= 0) & (c1 < n) & (c2 >= 0) & (c2 < n)
            if not valid.any():
                continue
            twist = group.mul(b_inverse, (ax[a1], ax[a2], 0.0))[..., 2]
            vb1 = b1g[valid]
            vb2 = b2g[valid]
            vc1 = c1[valid]
            vc2 = c2[valid]
            shift = twist[valid] / h
            # row q, offset m = a3-b3+(n-1): sample g at real x3-index
            ridx = m[None, :] - (n - 1) + half + shift[:, None]
            # floor(ridx) in [-1, n - 1], tested before a far-off index overflows
            # the cast, so k + 1 and k + 2 index gpad's n + 2 columns
            in_range = (ridx >= -1) & (ridx < n)
            k = np.floor(np.where(in_range, ridx, 0.0)).astype(int)
            w = ridx - k
            rows = gpad[vc1, vc2, :]
            samp = (1.0 - w) * np.take_along_axis(rows, k + 1, axis=1)
            samp += w * np.take_along_axis(rows, k + 2, axis=1)
            samp[~in_range] = 0.0
            # out[a3] = sum_q sum_b3 f[q, b3] * samp[q, a3 - b3 + n - 1]
            windows = np.lib.stride_tricks.sliding_window_view(samp, n, axis=1)
            out[a1, a2, :] += np.einsum(
                "qb,qab->a", f3[vb1, vb2, ::-1], windows
            )
    return out * h ** 3


# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------

RANDOM_BUMPS = 3


def gaussian_bump(spec: GridSpec, center, width: float) -> GridFunction:
    """Euclidean Gaussian exp(-|x-c|^2 / (2 width^2)) sampled on the grid.

    On the torus the bump is periodized over +/-1 period images per axis so
    the sampled function is smooth as a periodic function.
    """
    coords = spec.node_coordinates()
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if center.size != spec.dims:
        raise ConfigError(f"center must have {spec.dims} components")
    if spec.periodic:
        vals = np.zeros(spec.n_nodes)
        period = 2.0 * spec.extent
        shifts = np.array([-period, 0.0, period])
        mesh = np.meshgrid(*([shifts] * spec.dims), indexing="ij")
        for off in zip(*[g.ravel() for g in mesh]):
            d2 = ((coords - (center + np.asarray(off))) ** 2).sum(axis=1)
            vals += np.exp(-d2 / (2.0 * width ** 2))
        return GridFunction(spec, vals)
    d2 = ((coords - center) ** 2).sum(axis=1)
    return GridFunction(spec, np.exp(-d2 / (2.0 * width ** 2)))


def random_bump(spec: GridSpec, rng: np.random.Generator) -> GridFunction:
    """Seeded sum of RANDOM_BUMPS Gaussian bumps with centers in the inner half-box.

    Their width is max(4h, L/8), so the bumps stay machine-resolvable.
    """
    L = spec.extent
    width = max(4.0 * spec.spacing, L / 8.0)
    vals = np.zeros(spec.n_nodes)
    for _ in range(RANDOM_BUMPS):
        center = rng.uniform(-L / 2, L / 2, size=spec.dims)
        amp = rng.uniform(0.5, 1.5) * rng.choice([-1.0, 1.0])
        vals += amp * gaussian_bump(spec, center, width).values
    return GridFunction(spec, vals)


# ---------------------------------------------------------------------------
# output files and the GF1 format
# ---------------------------------------------------------------------------

@contextmanager
def _atomic_open(path, mode: str = "w"):
    """Write `path` through `path`.tmp, moved onto it only once the block completes.

    A text mode writes ASCII.  A write that raises leaves `path` as it was
    and removes the temp file.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "ascii") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_gf1(path, f: GridFunction) -> None:
    """One ASCII header line, then N little-endian float64 in x3-fastest order."""
    spec = f.spec
    header = f"GF1 {spec.dims} {spec.n_per_axis} {spec.extent!r} {spec.mode}\n"
    with _atomic_open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(f.values.astype("<f8").tobytes())


def read_gf1(path) -> GridFunction:
    """The GridFunction of a write_gf1 file.

    Raises ConfigError on a header that is not ASCII, not five fields or not
    numeric where it must be, and on a payload of any size but N float64.
    """
    with open(path, "rb") as fh:
        try:
            header = fh.readline().decode("ascii").rstrip("\n")
        except UnicodeDecodeError:
            raise ConfigError("not a GF1 file: the header is not ASCII") from None
        parts = header.split(" ")
        if len(parts) != 5 or parts[0] != "GF1":
            raise ConfigError(f"not a GF1 file: header {header!r}")
        try:
            dims, n, L = int(parts[1]), int(parts[2]), float(parts[3])
        except ValueError:
            raise ConfigError(f"GF1 header has a non-numeric field: {header!r}") from None
        spec = GridSpec(n_per_axis=n, extent=L, dims=dims, mode=parts[4])
        # sized from the file before reading, so a bad header allocates nothing
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size != 8 * spec.n_nodes:
            raise ConfigError(
                f"GF1 payload has {size} bytes; {spec.n_nodes} float64 need {8 * spec.n_nodes}")
        values = np.frombuffer(fh.read(), dtype="<f8").copy()
    return GridFunction(spec, values)
