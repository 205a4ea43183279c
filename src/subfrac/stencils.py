"""Discrete left-invariant vector fields and sub-Laplacian assembly.

The fields and operators of each mode are those of its group in
group.GROUPS.  Every field is assembled from one table, STENCILS, of
difference schemes:

* centered (N x N) — antisymmetric in the interior and exact on polynomials of
  degree <= 2; used for the algebraic identities (commutators, homogeneity,
  convolution commutation).
* forward — one-sided differences with the variable coefficient frozen at the
  left node of the pair.  In box modes the rows live on a ghost-extended grid
  (one extra low-side layer per axis) so that sum_j B_j^T B_j carries the full
  Dirichlet quadratic form; on the torus the rows wrap and stay square.

The assembled operator A = sum_j B_j^T B_j realizes the POSITIVE sub-Laplacian
(-sum_j X_j^2): symmetric and PSD by construction, consistent to O(h^2) at
interior nodes for euclid.  For j1 and j3 the observed orders from n = 9 to
17, 33 and 65 are 1.41, 1.83 and 1.96 (L = 4, a Gaussian): each frozen
coefficient (x2 in X1, x1 in X2) is constant along the axis it differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, GridMismatchError
from .group import GridFunction, GridSpec, _atomic_open

# (offset, weight) pairs of each difference scheme: row x of the field with
# coefficient c along axis k holds weight * c(x) / h at column x + offset * e_k
STENCILS = {
    "centered": ((1, 0.5), (-1, -0.5)),
    "forward": ((1, 1.0), (0, -1.0)),
}


@dataclass
class DiscreteOperator:
    """Sparse grid matrix: one field's stencil, or an assembled (symmetric PSD) sub-Laplacian."""

    kind: str
    matrix: sp.csr_matrix = field(repr=False)
    spec: GridSpec

    def apply(self, f: GridFunction) -> GridFunction:
        if f.spec != self.spec:
            raise GridMismatchError("operator and function live on different grids")
        if self.matrix.shape[0] != self.spec.n_nodes:
            raise ConfigError(
                "forward-scheme matrices are rectangular (assembly only); "
                "use scheme='centered' to apply a field to a GridFunction"
            )
        return GridFunction(self.spec, self.matrix @ f.values)


def _field_terms(kind: str, spec: GridSpec) -> tuple:
    """The (axis, coefficient, coordinate) terms of a field of the grid's group."""
    fields = spec.group.fields
    if kind not in fields:
        raise ConfigError(f"unknown field {kind!r} on a {spec.dims}-D {spec.mode} grid; "
                          f"expected one of {tuple(fields)}")
    return fields[kind]


def build_vector_field(kind: str, scheme: str, spec: GridSpec) -> DiscreteOperator:
    """Sparse stencil matrix of one field of the grid's group.

    Box columns are clipped at the Dirichlet boundary; torus columns wrap.
    forward rows in box modes sit on the ghost-extended (n+1)^dims grid (a
    low-side layer at index -1), so the adjoint carries the boundary edges.
    """
    if scheme not in STENCILS:
        raise ConfigError(f"unknown scheme {scheme!r}")
    terms = _field_terms(kind, spec)
    n, h = spec.n_per_axis, spec.spacing
    lo = -1 if scheme == "forward" and not spec.periodic else 0
    # the row nodes' multi-indices, in row order
    idx = np.indices((n - lo,) * spec.dims).reshape(spec.dims, -1) + lo
    rows = np.arange(idx.shape[1])
    coords = np.stack([-spec.extent + h * a for a in idx], axis=-1)
    entries = []
    for axis, coeff, coord in terms:
        c = np.full(rows.size, coeff) if coord is None else coeff * coords[:, coord]
        for offset, weight in STENCILS[scheme]:
            target = [a + offset if k == axis else a for k, a in enumerate(idx)]
            if spec.periodic:
                target = [np.mod(t, n) for t in target]
            vals = weight * c / h
            keep = np.logical_and.reduce([vals != 0] + [(t >= 0) & (t < n) for t in target])
            cols = np.ravel_multi_index([t[keep] for t in target], (n,) * spec.dims)
            entries.append((rows[keep], cols, vals[keep]))
    r, cols, vals = (np.concatenate(e) for e in zip(*entries))
    mat = sp.csr_matrix((vals, (r, cols)), shape=(rows.size, spec.n_nodes))
    return DiscreteOperator(kind=kind, matrix=mat, spec=spec)


def apply_multi_index(index: Sequence[str], f: GridFunction) -> GridFunction:
    """Left-to-right composition X_{j1} ... X_{jb} f; empty index is the identity."""
    out = f
    for kind in reversed(list(index)):
        out = build_vector_field(kind, "centered", f.spec).apply(out)
    return out


def check_homogeneity(kind: str, f: Callable, alpha: float, spec: GridSpec,
                      degree: int | None = None) -> float:
    """Max relative deviation of X_j(f o delta_a) from a^deg (X_j f) o delta_a.

    f is a closure evaluable at arbitrary points (x1, ..., x_dims); the
    right-hand stencil is taken on the dilated lattice (step a^w_k h along
    axis k, w_k its weight) so both sides share one stencil scale.
    """
    weights = spec.group.weights
    if len(set(weights)) == 1:
        raise ConfigError(f"{spec.mode} dilations scale every axis alike, so field {kind!r} "
                          "has no graded homogeneity to check")
    terms = _field_terms(kind, spec)
    if degree is None:
        degree = next(weights[axis] for axis, _, coord in terms if coord is None)
    stretch = spec.group.dilate(alpha, np.ones(spec.dims))
    pts = spec.node_coordinates()[spec.interior(1)]

    def centered(func, x, steps):
        """The centered field stencil of func at the points x, step steps[axis]."""
        out = np.zeros(len(x))
        for axis, coeff, coord in terms:
            e = np.zeros(spec.dims)
            e[axis] = steps[axis]
            c = coeff if coord is None else coeff * x[:, coord]
            diff = sum(w * func(*(x + o * e).T) for o, w in STENCILS["centered"])
            out += c * diff / steps[axis]
        return out

    def g(*x):
        return f(*(np.stack(x, axis=-1) * stretch).T)

    # the lattice stencil of g = f o delta_a against the dilated-lattice stencil of f
    steps = np.full(spec.dims, spec.spacing)
    lhs = centered(g, pts, steps)
    rhs = centered(f, pts * stretch, steps * stretch) * alpha ** degree
    scale = max(np.abs(rhs).max(initial=0.0), 1.0)
    return float(np.abs(lhs - rhs).max(initial=0.0) / scale)


def assemble_operator(kind: str, spec: GridSpec) -> DiscreteOperator:
    """A = sum_j B_j^T B_j over the forward-scheme fields of the operator."""
    kind = kind.lower()
    operators = spec.group.operators
    if kind not in operators:
        raise ConfigError(f"unknown operator kind {kind!r} on a {spec.mode} grid; "
                          f"expected one of {tuple(operators)}")
    fields = [build_vector_field(name, "forward", spec) for name in operators[kind]]
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
    rows = "".join(f"{i + 1} {j + 1} {v:.17g}\n"
                   for i, j, v in zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()))
    with _atomic_open(path) as fh:
        fh.write("%%MatrixMarket matrix coordinate real symmetric\n"
                 f"{op.matrix.shape[0]} {op.matrix.shape[1]} {coo.nnz}\n{rows}")
