"""Discrete left-invariant vector fields and sub-Laplacian assembly.

Two stencil schemes coexist:

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


@dataclass
class VectorFieldMatrix:
    """Sparse stencil realization of one left-invariant field."""

    kind: str
    scheme: str
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
    fields_used: list
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


def build_vector_field(kind: str, scheme: str, spec: GridSpec) -> VectorFieldMatrix:
    """Sparse stencil matrix for X1, X2, T or partial_k.

    centered: rows = grid nodes, Dirichlet clipping (box) or wraparound
    (torus).  forward: coefficient at the left node of the pair; box modes get
    ghost rows so the adjoint carries the boundary edges.
    """
    if scheme not in ("centered", "forward"):
        raise ConfigError(f"unknown scheme {scheme!r}")
    terms = _field_terms(kind, spec)
    n = spec.n_per_axis
    dims = spec.dims
    h = spec.spacing
    N = spec.n_nodes

    if scheme == "centered":
        idx = _multi_index_arrays(n, dims)
        rows_flat = _flat_index(idx, n)
        coords = spec.node_coordinates()
        entries_r, entries_c, entries_v = [], [], []

        def add(target_idx, vals):
            if spec.periodic:
                cols = _flat_index([np.mod(t, n) for t in target_idx], n)
                keep = np.full(N, True)
            else:
                keep = np.full(N, True)
                for t in target_idx:
                    keep &= (t >= 0) & (t < n)
                cols = _flat_index([np.clip(t, 0, n - 1) for t in target_idx], n)
            entries_r.append(rows_flat[keep])
            entries_c.append(cols[keep])
            entries_v.append(np.broadcast_to(vals, (N,))[keep])

        for axis, coeff in terms:
            c = np.full(N, 1.0) if coeff is None else coeff(coords)
            plus = [idx[a] + (1 if a == axis else 0) for a in range(dims)]
            minus = [idx[a] - (1 if a == axis else 0) for a in range(dims)]
            add(plus, c / (2.0 * h))
            add(minus, -c / (2.0 * h))
        mat = sp.csr_matrix(
            (np.concatenate(entries_v), (np.concatenate(entries_r), np.concatenate(entries_c))),
            shape=(N, N),
        )
        return VectorFieldMatrix(kind=kind, scheme="centered", matrix=mat, spec=spec)

    # forward scheme
    if spec.periodic:
        idx = _multi_index_arrays(n, dims)
        rows_flat = _flat_index(idx, n)
        n_rows = N
        coords = spec.node_coordinates()
    else:
        # ghost layer at index -1 on every axis; rows indexed on the (n+1)^dims grid
        idx = _multi_index_arrays(n, dims, lo=-1)
        rows_flat = _flat_index([a + 1 for a in idx], n + 1)
        n_rows = (n + 1) ** dims
        coords = np.stack(
            [-spec.extent + h * a.astype(float) for a in idx], axis=-1
        )

    entries_r, entries_c, entries_v = [], [], []

    def add_fwd(target_idx, vals):
        if spec.periodic:
            cols = _flat_index([np.mod(t, n) for t in target_idx], n)
            keep = vals != 0
        else:
            keep = vals != 0
            for t in target_idx:
                keep &= (t >= 0) & (t < n)
            cols = _flat_index([np.clip(t, 0, n - 1) for t in target_idx], n)
        entries_r.append(rows_flat[keep])
        entries_c.append(cols[keep])
        entries_v.append(vals[keep])

    for axis, coeff in terms:
        c = np.full(rows_flat.size, 1.0) if coeff is None else coeff(coords)
        plus = [idx[a] + (1 if a == axis else 0) for a in range(len(idx))]
        here = list(idx)
        add_fwd(plus, c / h)
        add_fwd(here, -c / h)
    mat = sp.csr_matrix(
        (np.concatenate(entries_v), (np.concatenate(entries_r), np.concatenate(entries_c))),
        shape=(n_rows, N),
    )
    return VectorFieldMatrix(kind=kind, scheme="forward", matrix=mat, spec=spec)


def apply_multi_index(index: Sequence[str], f: GridFunction,
                      scheme: str = "centered") -> GridFunction:
    """Left-to-right composition X_{j1} ... X_{jb} f; empty index is the identity."""
    out = f
    for kind in reversed(list(index)):
        out = build_vector_field(kind, scheme, f.spec).apply(out)
    return out


def check_homogeneity(kind: str, f: Callable, alpha: float, spec: GridSpec,
                      degree: int | None = None) -> float:
    """Max relative deviation of X_j(f o delta_a) from a^deg (X_j f) o delta_a.

    f is a closure evaluable at arbitrary (x1, x2, x3); the right-hand stencil
    is taken on the dilated lattice (steps a*h along x1/x2, a^2*h along x3) so
    both sides share one stencil scale.
    """
    if alpha <= 0:
        raise ConfigError("alpha must be > 0")
    if degree is None:
        degree = FIELD_DEGREE[kind]
    terms = _field_terms(kind, spec)
    h = spec.spacing
    coords = spec.node_coordinates()
    n = spec.n_per_axis
    interior = np.full(spec.n_nodes, True)
    idx = _multi_index_arrays(n, spec.dims)
    for a in idx:
        interior &= (a >= 1) & (a <= n - 2)
    pts = coords[interior]

    def g(x1, x2, x3):
        d = dilate(alpha, np.stack([x1, x2, x3], axis=-1))
        return f(d[..., 0], d[..., 1], d[..., 2])

    # lattice stencil applied to g = f o delta_a
    lhs = np.zeros(len(pts))
    for (axis, coeff) in terms:
        e = np.zeros(3)
        e[axis] = h
        fp = g(*(pts + e).T)
        fm = g(*(pts - e).T)
        c = np.full(len(pts), 1.0) if coeff is None else coeff(pts)
        lhs += c * (fp - fm) / (2.0 * h)

    dil_pts = dilate(alpha, pts)
    rhs = np.zeros(len(dil_pts))
    for (axis, coeff) in terms:
        step = alpha * h if axis != 2 else alpha * alpha * h
        e = np.zeros(3)
        e[axis] = step
        fp = f(*(dil_pts + e).T)
        fm = f(*(dil_pts - e).T)
        c = np.full(len(dil_pts), 1.0) if coeff is None else coeff(dil_pts)
        rhs += c * (fp - fm) / (2.0 * step)
    rhs *= alpha ** degree

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
    return DiscreteOperator(kind=kind, matrix=A, fields_used=fields, spec=spec)


def export_matrix_market(op: DiscreteOperator, path) -> None:
    """Coordinate text export, 1-indexed lower triangle, symmetric convention."""
    coo = sp.tril(op.matrix).tocoo()
    with _atomic_open(path) as fh:
        fh.write("%%MatrixMarket matrix coordinate real symmetric\n")
        fh.write(f"{op.matrix.shape[0]} {op.matrix.shape[1]} {coo.nnz}\n")
        for i, j, v in zip(coo.row, coo.col, coo.data):
            fh.write(f"{i + 1} {j + 1} {v:.17g}\n")
