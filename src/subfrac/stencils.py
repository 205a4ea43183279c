"""Discrete left-invariant vector fields and sub-Laplacian assembly.

Every field is assembled from one table, STENCILS, of difference schemes:

* centered (N x N) — antisymmetric in the interior and exact on polynomials of
  degree <= 2; used for the algebraic identities (commutators, homogeneity,
  convolution commutation).
* forward — one-sided differences with the variable coefficient frozen at the
  left node of the pair.  In box modes the rows live on a ghost-extended grid
  (one extra low-side layer per axis) so that sum_j B_j^T B_j carries the full
  Dirichlet quadratic form; on the torus the rows wrap and stay square.

The assembled operator A = sum_j B_j^T B_j realizes the POSITIVE sub-Laplacian
(-sum_j X_j^2): symmetric and PSD by construction, consistent to O(h) at
interior nodes (O(h^2) for the constant-coefficient euclid case).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, GridMismatchError
from .group import GridFunction, GridSpec, _atomic_open, dilate

FIELD_DEGREE = {"X1": 1, "X2": 1, "T": 2}

OPERATOR_FIELDS = {
    "j1": ("X1", "X2"),
    "j3": ("X1", "X2", "T"),
}

# (offset, weight) pairs of each difference scheme: row x of the field with
# coefficient c along axis k holds weight * c(x) / h at column x + offset * e_k
STENCILS = {
    "centered": ((1, 0.5), (-1, -0.5)),
    "forward": ((1, 1.0), (0, -1.0)),
}


@dataclass
class VectorFieldMatrix:
    """Sparse stencil realization of one left-invariant field."""

    kind: str
    matrix: sp.csr_matrix = field(repr=False)
    spec: GridSpec

    def apply(self, f: GridFunction) -> GridFunction:
        if f.spec != self.spec:
            raise GridMismatchError("field and function live on different grids")
        if self.matrix.shape[0] != self.spec.n_nodes:
            raise ConfigError(
                "forward-scheme matrices are rectangular (assembly only); "
                "use scheme='centered' to apply a field to a GridFunction"
            )
        return GridFunction(self.spec, self.matrix @ f.values)


@dataclass
class DiscreteOperator:
    """Symmetric PSD matrix realizing a positive sub-Laplacian on a grid."""

    kind: str
    matrix: sp.csr_matrix = field(repr=False)
    spec: GridSpec

    def apply(self, f: GridFunction) -> GridFunction:
        if f.spec != self.spec:
            raise GridMismatchError("operator and function live on different grids")
        return GridFunction(self.spec, self.matrix @ f.values)


def _field_terms(kind: str, spec: GridSpec) -> list:
    """(axis, coefficient(coords)) pairs making up the field."""
    dims = spec.dims
    if kind in ("X1", "X2", "T"):
        if spec.mode != "heisenberg":
            raise ConfigError(f"field {kind} requires heisenberg mode, got {spec.mode}")
        if kind == "X1":
            return [(0, None), (2, lambda c: -0.5 * c[:, 1])]
        if kind == "X2":
            return [(1, None), (2, lambda c: 0.5 * c[:, 0])]
        return [(2, None)]
    if kind.startswith("partial_"):
        k = int(kind.split("_")[1])
        if not 1 <= k <= dims:
            raise ConfigError(f"{kind} out of range for dims={dims}")
        if spec.mode == "heisenberg":
            raise ConfigError("partial_k fields are for euclidean modes")
        return [(k - 1, None)]
    raise ConfigError(f"unknown field kind {kind!r}")


def _multi_index_arrays(n: int, dims: int, lo: int = 0):
    axes = [np.arange(lo, n) for _ in range(dims)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return [g.ravel() for g in mesh]


def _flat_index(idx: Sequence[np.ndarray], n: int) -> np.ndarray:
    flat = idx[0]
    for a in idx[1:]:
        flat = flat * n + a
    return flat


def _interior_mask(spec: GridSpec, margin: int) -> np.ndarray:
    """Nodes at least `margin` steps from every face of the grid."""
    n = spec.n_per_axis
    idx = _multi_index_arrays(n, spec.dims)
    return np.logical_and.reduce([(a >= margin) & (a < n - margin) for a in idx])


def build_vector_field(kind: str, scheme: str, spec: GridSpec) -> VectorFieldMatrix:
    """Sparse stencil matrix for X1, X2, T or partial_k.

    Box columns are clipped at the Dirichlet boundary; torus columns wrap.
    forward rows in box modes sit on the ghost-extended (n+1)^dims grid (a
    low-side layer at index -1), so the adjoint carries the boundary edges.
    """
    if scheme not in STENCILS:
        raise ConfigError(f"unknown scheme {scheme!r}")
    terms = _field_terms(kind, spec)
    n, h = spec.n_per_axis, spec.spacing
    lo = -1 if scheme == "forward" and not spec.periodic else 0
    idx = _multi_index_arrays(n, spec.dims, lo=lo)
    rows = _flat_index([a - lo for a in idx], n - lo)
    coords = np.stack([-spec.extent + h * a for a in idx], axis=-1)
    entries = []
    for axis, coeff in terms:
        c = np.full(rows.size, 1.0) if coeff is None else coeff(coords)
        for offset, weight in STENCILS[scheme]:
            target = [a + offset if k == axis else a for k, a in enumerate(idx)]
            if spec.periodic:
                target = [np.mod(t, n) for t in target]
            vals = weight * c / h
            keep = np.logical_and.reduce([vals != 0] + [(t >= 0) & (t < n) for t in target])
            entries.append((rows[keep], _flat_index([t[keep] for t in target], n), vals[keep]))
    r, cols, vals = (np.concatenate(e) for e in zip(*entries))
    mat = sp.csr_matrix((vals, (r, cols)), shape=(rows.size, spec.n_nodes))
    return VectorFieldMatrix(kind=kind, matrix=mat, spec=spec)


def apply_multi_index(index: Sequence[str], f: GridFunction) -> GridFunction:
    """Left-to-right composition X_{j1} ... X_{jb} f; empty index is the identity."""
    out = f
    for kind in reversed(list(index)):
        out = build_vector_field(kind, "centered", f.spec).apply(out)
    return out


def check_homogeneity(kind: str, f: Callable, alpha: float, spec: GridSpec,
                      degree: int | None = None) -> float:
    """Max relative deviation of X_j(f o delta_a) from a^deg (X_j f) o delta_a.

    f is a closure evaluable at arbitrary (x1, x2, x3); the right-hand stencil
    is taken on the dilated lattice (steps a*h along x1/x2, a^2*h along x3) so
    both sides share one stencil scale.
    """
    if not 0 < alpha < np.inf:
        raise ConfigError(f"alpha must be finite and > 0, got {alpha}")
    if kind not in FIELD_DEGREE:
        raise ConfigError(f"field {kind!r} has no homogeneity degree; expected one of "
                          f"{tuple(FIELD_DEGREE)}")
    if degree is None:
        degree = FIELD_DEGREE[kind]
    terms = _field_terms(kind, spec)
    pts = spec.node_coordinates()[_interior_mask(spec, 1)]

    def centered(func, x, steps):
        """The centered field stencil of func at the points x, step steps[axis]."""
        out = np.zeros(len(x))
        for axis, coeff in terms:
            e = np.zeros(3)
            e[axis] = steps[axis]
            c = 1.0 if coeff is None else coeff(x)
            out += c * (func(*(x + e).T) - func(*(x - e).T)) / (2.0 * steps[axis])
        return out

    def g(x1, x2, x3):
        return f(*dilate(alpha, np.stack([x1, x2, x3], axis=-1)).T)

    # the lattice stencil of g = f o delta_a against the dilated-lattice stencil of f
    h = spec.spacing
    lhs = centered(g, pts, (h, h, h))
    rhs = centered(f, dilate(alpha, pts), dilate(alpha, (h, h, h))) * alpha ** degree
    scale = max(np.abs(rhs).max(initial=0.0), 1.0)
    return float(np.abs(lhs - rhs).max(initial=0.0) / scale)


def assemble_operator(kind: str, spec: GridSpec) -> DiscreteOperator:
    """A = sum_j B_j^T B_j over the forward-scheme fields of the family."""
    kind = kind.lower()
    if kind == "euclid":
        if spec.mode == "heisenberg":
            raise ConfigError("euclid operator requires a euclidean mode")
        names = tuple(f"partial_{k}" for k in range(1, spec.dims + 1))
    elif kind in OPERATOR_FIELDS:
        if spec.mode != "heisenberg":
            raise ConfigError(f"{kind} requires heisenberg mode")
        names = OPERATOR_FIELDS[kind]
    else:
        raise ConfigError(f"unknown operator kind {kind!r}; expected j1, j3 or euclid")
    fields = [build_vector_field(name, "forward", spec) for name in names]
    N = spec.n_nodes
    A = sp.csr_matrix((N, N))
    for f in fields:
        A = A + f.matrix.T @ f.matrix
    # symmetrize exactly; B^T B is symmetric up to roundoff in the sparse product
    A = ((A + A.T) * 0.5).tocsr()
    return DiscreteOperator(kind=kind, matrix=A, spec=spec)


def export_matrix_market(op: DiscreteOperator, path) -> None:
    """Coordinate text export, 1-indexed lower triangle, symmetric convention."""
    coo = sp.tril(op.matrix).tocoo()
    with _atomic_open(path) as fh:
        fh.write("%%MatrixMarket matrix coordinate real symmetric\n")
        fh.write(f"{op.matrix.shape[0]} {op.matrix.shape[1]} {coo.nnz}\n")
        for i, j, v in zip(coo.row, coo.col, coo.data):
            fh.write(f"{i + 1} {j + 1} {v:.17g}\n")
