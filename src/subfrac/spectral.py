"""Dense and Krylov diagonalizations and the spectral functional calculus m(J).

A multiplier m acts as m(J) = W diag(m(lambda)) W*.  Everything here other
than the decompositions themselves goes through the three members of
`Spectrum`, so fractional powers, the heat semigroup and heat-kernel columns
run unchanged on a full diagonalization (`SpectralDecomposition`: a
transform, then blocks; the dense eigh here, the FFT and DST in `fourier`)
and on the Ritz spectrum of one vector (`KrylovSpectrum`), which gives m(J) f
for that vector alone without forming the eigenbasis (Higham, Functions of
Matrices, SIAM 2008, ch. 13; Musco, Musco and Sidford, SODA 2018).
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Protocol

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.linalg import blas

from .errors import CapacityError, ConfigError, EvaluationError, GridMismatchError
from .group import GridFunction, GridSpec, _atomic_open
from .stencils import DiscreteOperator

DENSE_LIMIT = 6000

EIG_CLAMP = 1e-10  # relative floor below which roundoff-negative eigenvalues clamp to 0

# the dense eigh splits by a grid involution P when the row sums of
# |P A P - A| stay within this fraction of max|A|.  The split then
# diagonalizes (A + P A P) / 2 exactly; the half-difference it drops has
# 2-norm at most half that row-sum bound, and max|A| <= lambda_max for a PSD
# A, so the dropped part moves each eigenvalue, and the eigen probes'
# residual, by at most 5e-15 of lambda_max: 200x under their 1e-12 bound.
# Assembly roundoff leaves up to 6e-16 on the Heisenberg grids.
SPLIT_TOL = 1e-14

# the dense route runs scipy's OpenBLAS on one thread when its largest eigh
# block has a lower order.  On a 2-vCPU box, two threads against one took
# 15-18 ms vs 15-20 ms for an evd eigh of order 369, 20-26 vs 22-30 ms at
# 450, 29-32 vs 33-44 ms at 512 and 0.57-0.68 vs 0.88-1.0 s at 1695; one
# apply took 45-61 vs 48-59 us at 369 and 0.95-1.1 vs 1.9-2.1 ms at 1695.
# Below the cut the second thread saves no time, yet it spins for about
# 0.1 s after each threaded call, and the results on one thread do not
# depend on the thread count the process started with.
SERIAL_ORDER = 512

# the thread-count functions of the scipy-openblas wheels (ILP64 and LP64),
# then upstream OpenBLAS's: (get, set) symbol names
_THREAD_SYMBOLS = tuple((f"{prefix}get_num_threads{suffix}", f"{prefix}set_num_threads{suffix}")
                        for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""),
                                               ("openblas_", "64_"), ("openblas_", "")))

# a Lanczos residual this far below the largest ||A v|| seen marks an
# invariant Krylov subspace, on which the Ritz spectrum is exact
KRYLOV_BREAKDOWN = 1e-12

# partial reorthogonalization (Simon, Math. Comp. 42, 1984, 115-142; Larsen's
# PROPACK): a reorthogonalized Lanczos step makes its Gram-Schmidt pass only
# when the estimated overlap of the new basis row with an older one exceeds
# PRO_ETA, and once more on the step after.  On heis15 (seed 7) 91 of 256
# steps make one, and max|V V^T - I| reads 1.8e-15 (0.9e-15 with a pass on
# every step).
PRO_ETA = 1e-13


class Spectrum(Protocol):
    """A diagonalization of a positive self-adjoint operator on `spec`.

    `apply_values(values, f)` applies diag(values) in the eigenbasis, with
    values[i] the multiplier at eigenvalues[i], and returns a GridFunction.
    A 2-D `values` holds one multiplier per row; the call then returns the
    list of their GridFunctions, from one pass over f and the eigenbasis
    (row by row on a Ritz spectrum).
    """

    spec: GridSpec
    eigenvalues: np.ndarray

    def apply_values(self, values: np.ndarray,
                     f: GridFunction) -> GridFunction | list[GridFunction]: ...


class _ThreadAPI(NamedTuple):
    """The thread count of the OpenBLAS behind scipy.linalg.blas: its setter's name, get and set."""

    name: str
    get: Callable[[], int]
    set: Callable[[int], None]


@functools.cache
def _thread_api() -> _ThreadAPI | None:
    """The thread-count functions of scipy's BLAS, or None when it has none (MKL, Accelerate).

    They are looked up through the extension module that scipy.linalg.blas
    loads, so its dynamic linker resolves them in the very BLAS it calls.
    """
    try:
        from scipy.linalg import _fblas

        lib = ctypes.CDLL(_fblas.__file__)
    except (ImportError, OSError):
        return None
    for get_name, set_name in _THREAD_SYMBOLS:
        get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return _ThreadAPI(set_name, get, set_)
    return None


def blas_thread_api() -> dict:
    """The thread-count setter found in scipy's BLAS and the count in effect outside
    the one-thread scopes, both None when there is no such setter."""
    api = _thread_api()
    return {"api": api and api.name, "default_threads": api and api.get()}


@contextmanager
def _serial_blas(serial: bool):
    """Run scipy's BLAS on one thread inside the block when `serial` holds.

    Yields the thread count in effect inside (None without a thread API);
    the count before is restored on the way out, an exception included.
    The count is process-wide, so scopes in concurrent Python threads would
    restore each other's counts.
    """
    api = _thread_api()
    if api is None or not serial:
        yield api and api.get()
        return
    previous = api.get()
    api.set(1)
    try:
        yield 1
    finally:
        api.set(previous)


def _checked_values(spectrum: Spectrum, values, f: GridFunction) -> np.ndarray:
    """values as floats, after checking the grid of f and one finite value per eigenvalue.

    values is one multiplier (1-D) or one per row (2-D).
    """
    if f.spec != spectrum.spec:
        raise GridMismatchError("function grid does not match the diagonalization")
    values = np.asarray(values, dtype=float)
    lam = spectrum.eigenvalues
    if values.ndim not in (1, 2) or values.shape[-1:] != lam.shape:
        raise EvaluationError(
            f"multiplier has shape {values.shape}, not one value per eigenvalue {lam.shape} "
            "(or one row of them per output)"
        )
    bad = ~np.isfinite(values)
    if bad.any():
        # the last axis of the first bad entry indexes the eigenvalue
        raise EvaluationError(
            f"multiplier is not finite at lambda={lam[np.nonzero(bad)[-1][0]]!r}")
    return values


def _fields(spec: GridSpec, values: np.ndarray, rows) -> GridFunction | list[GridFunction]:
    """The GridFunction of each output row: one for a 1-D values, their list for a 2-D one."""
    out = [GridFunction(spec, row) for row in rows]
    return out if values.ndim == 2 else out[0]


@dataclass
class SpectralDecomposition:
    """Eigenvalues >= 0 of an operator and its eigenbasis W diag(Q_1, Q_2, ...).

    The orthogonal or unitary transform W is given as `forward` (f -> W* f)
    and `inverse` (rows x N coefficients -> the real part of W c, row by
    row).  Each of `blocks` is a dense Q_b, the eigenbasis of one diagonal
    block of W* A W, or the size of a block that W already diagonalizes.
    `positions[j]` is the index in `eigenvalues` of column j of diag(Q_b),
    or None when the eigenvalues keep the transform's order.  No N x N
    dense array is held.  Each Q_b is held in Fortran order, as scipy's eigh
    returns it; a C-ordered one is converted once, here.
    """

    eigenvalues: np.ndarray = field(repr=False)
    blocks: tuple = field(repr=False)
    spec: GridSpec
    forward: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    inverse: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    positions: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.blocks = tuple(Q if np.ndim(Q) == 0 else np.asfortranarray(Q, dtype=float)
                            for Q in self.blocks)

    @property
    def n(self) -> int:
        return self.eigenvalues.size

    @property
    def order(self) -> int:
        """The order of the largest dense block, 0 when W diagonalizes every block."""
        return max((len(Q) for Q, _ in self._columns() if Q is not None), default=0)

    @property
    def blas_threads(self) -> int | None:
        """The thread count of scipy's BLAS in this decomposition's eigh and applies.

        One below SERIAL_ORDER; None without a dense block, or when scipy's
        BLAS has no thread API.
        """
        api = _thread_api()
        if api is None or not self.order:
            return None
        return 1 if self.order < SERIAL_ORDER else api.get()

    def _columns(self):
        """Each block, its dense Q_b or None, with the slice of the columns of W that it spans."""
        start = 0
        for Q in self.blocks:
            dense = np.ndim(Q) == 2
            size = len(Q) if dense else Q
            yield (Q if dense else None), slice(start, start + size)
            start += size

    def eigenvector(self, k: int) -> np.ndarray:
        """The unit eigenvector of eigenvalues[k], as N values (on a real transform)."""
        k = range(self.n)[k]
        j = k if self.positions is None else np.flatnonzero(self.positions == k)[0]
        column = np.zeros(self.n)
        column[j] = 1.0
        for Q, cols in self._columns():
            if Q is not None and cols.start <= j < cols.stop:
                column[cols] = Q[:, j - cols.start]
        return self.inverse(column[None])[0]

    def apply_values(self, values: np.ndarray,
                     f: GridFunction) -> GridFunction | list[GridFunction]:
        """Apply diag(values) in the eigenbasis: W diag(Q_b) (values * diag(Q_b)^T W* f).

        W* f is taken once, and W once over every output row.  A block that
        W diagonalizes is multiplied through.  A dense block's Q_b^T W* f is
        a dgemv call; the rows of a 2-D values share it and go through one
        dgemm, and a single row, 1-D or not, takes one dgemv.  The products
        run in scipy's BLAS, whose LAPACK built Q_b: the numpy and scipy
        wheels each load their own OpenBLAS with its own thread pool, and
        waking numpy's pool beside scipy's for these O(N^2) products costs
        more than the products do.  f2py hands the Fortran-ordered Q_b to
        BLAS without a copy.  Below SERIAL_ORDER the products run on one
        thread, as the eigh did.
        """
        values = _checked_values(self, values, f)
        # the multipliers in the column order of diag(Q_b), one row per output
        v = np.atleast_2d(values)
        if self.positions is not None:
            v = v[:, self.positions]
        g = self.forward(f.values)
        c = np.empty((len(v), self.n), dtype=g.dtype)
        # a decomposition without a dense block calls no BLAS
        with _serial_blas(0 < self.order < SERIAL_ORDER):
            for Q, cols in self._columns():
                if Q is None:
                    np.multiply(v[:, cols], g[cols], out=c[:, cols])
                    continue
                b = blas.dgemv(1.0, Q, g[cols], trans=1)
                if len(v) == 1:
                    # one row as a dgemv, not a one-column dgemm: 19 vs 22 us
                    # at order 365, and 0.50 vs 0.91 ms at 1695 on two threads
                    c[0, cols] = blas.dgemv(1.0, Q, v[0, cols] * b)
                else:
                    # Q (v * b)^T is k x rows, one column per output
                    c[:, cols] = blas.dgemm(1.0, Q, (v[:, cols] * b).T).T
        return _fields(self.spec, values, np.ascontiguousarray(self.inverse(c)))


def _grid_involution(spec: GridSpec) -> np.ndarray:
    """The grid's involution as a node permutation: node i maps to node perm[i].

    It is x -> -x[p], with p the axis permutation of the group's involution
    (group.GROUPS), reflected through the box's center or modulo the torus.
    """
    n, dims = spec.n_per_axis, spec.dims
    a = np.indices((n,) * dims).reshape(dims, -1)[list(spec.group.involution)]
    image = -a % n if spec.periodic else n - 1 - a
    return np.ravel_multi_index(tuple(image), (n,) * dims)


def _fold_basis(perm: np.ndarray) -> tuple[sp.csr_matrix, list[int]]:
    """The orthogonal N x N basis U = [U_e U_o] of an involution P, and its block sizes.

    Each orbit {i, P(i)} gives U_e the column (e_i + e_P(i)) / sqrt(2), or
    e_i on a fixed node, and gives U_o the column (e_i - e_P(i)) / sqrt(2)
    when i != P(i).  U_e spans the vectors P keeps and U_o those it
    negates, so U^T A U is block diagonal for any A that commutes with P.
    An empty U_o is left out of the sizes: the identity permutation gives
    U = I and one block.
    """
    N = perm.size
    rep = np.flatnonzero(np.arange(N) <= perm)  # the lower node of each orbit
    partner = perm[rep]
    paired = np.flatnonzero(partner != rep)
    k, p, r = rep.size, paired.size, np.sqrt(0.5)
    weight = np.ones(k)
    weight[paired] = r
    odd = k + np.arange(p)
    U = sp.csr_matrix((np.r_[weight, np.full(2 * p, r), np.full(p, -r)],
                       (np.r_[rep, partner[paired], rep[paired], partner[paired]],
                        np.r_[np.arange(k), paired, odd, odd])), shape=(N, N))
    return U, [size for size in (k, p) if size]


def spectral_decompose(op: DiscreteOperator) -> SpectralDecomposition:
    """Full symmetric eigendecomposition, split by the grid's involution.

    When the assembled matrix A commutes with the node permutation P of
    _grid_involution (within SPLIT_TOL), U^T A U is block diagonal in the
    fold basis U of P (see _fold_basis), and each of its two blocks takes
    its own eigh at about half the order: a quarter of the memory and an
    eighth of the flops of one full eigh.  Any other operator is one block
    with U = I.  LAPACK's divide-and-conquer driver (evd) computes each
    block, on one thread of scipy's BLAS when the larger block's order is
    below SERIAL_ORDER; the eigenvalues merge into one ascending array by a
    stable sort, and roundoff-negative ones clamp to 0.  eigen_probe checks
    the result against the operator.
    """
    check_dense_capacity(op.spec)
    _check_finite(op)
    N = op.spec.n_nodes
    A = op.matrix
    perm = _grid_involution(op.spec)
    if abs(A[perm][:, perm] - A).sum(axis=1).max() > SPLIT_TOL * abs(A).max():
        perm = np.arange(N)
    U, sizes = _fold_basis(perm)
    B = (U.T @ A @ U).tocsr()
    ends = np.cumsum(sizes)
    # Fortran order lets LAPACK overwrite each densified block in place; a
    # C-ordered array would cost scipy a hidden copy
    with _serial_blas(max(sizes) < SERIAL_ORDER):
        pairs = [scipy.linalg.eigh(B[a:b, a:b].toarray(order="F"), driver="evd",
                                   overwrite_a=True, check_finite=False)
                 for a, b in zip(ends - sizes, ends)]
    w = np.concatenate([lam for lam, _ in pairs])
    order = np.argsort(w, kind="stable")
    positions = np.empty(N, dtype=np.intp)
    positions[order] = np.arange(N)
    return SpectralDecomposition(eigenvalues=_clamped(w[order]), blocks=tuple(Q for _, Q in pairs),
                                 spec=op.spec, forward=U.T.tocsr().__matmul__,
                                 inverse=lambda c: (U @ c.T).T, positions=positions)


def check_dense_capacity(spec: GridSpec) -> None:
    """Raise CapacityError when spec has more nodes than the dense route takes."""
    N = spec.n_nodes
    if N > DENSE_LIMIT:
        raise CapacityError(
            f"grid has {N} nodes, over the dense eigendecomposition limit {DENSE_LIMIT}; "
            "use a smaller grid"
        )


def _check_finite(op: DiscreteOperator) -> None:
    if not np.isfinite(op.matrix.data).all():
        raise ConfigError("operator has a non-finite entry")


def _clamped(w: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues w of a PSD operator, roundoff-scale ones set to 0.

    Raises ConfigError when w[0] is negative beyond roundoff.
    """
    scale = max(abs(w[0]), abs(w[-1]))
    if w[0] < -EIG_CLAMP * scale:
        raise ConfigError(
            f"operator is not PSD: min eigenvalue {w[0]:.3e} at scale {scale:.3e}"
        )
    # snap roundoff-scale eigenvalues (either sign) to exact zero so that
    # lambda^s does not amplify a spurious +1e-13 kernel eigenvalue
    w = np.where(np.abs(w) < EIG_CLAMP * scale, 0.0, w)
    return np.clip(w, 0.0, None)


@dataclass
class KrylovSpectrum:
    """The Ritz spectrum of one vector f: m(J) f ~ ||f|| V^T Y (m(theta) * Y[0]).

    The rows of V are the Lanczos basis of the Krylov space of f, T = V A V^T
    is the tridiagonal (alpha on the diagonal, beta beside it), and theta
    (the eigenvalues, ascending) and the columns of Y are its eigenpairs.
    A `Spectrum` for f alone: apply_values raises EvaluationError for any
    other vector.  `reorthogonalize` records how the basis was built (see
    krylov_spectrum), and `passes` how many of its steps made a Gram-Schmidt
    pass.  `exhaustive` marks a basis that spans an invariant subspace
    containing f, where the result is exact: a breakdown, or N
    reorthogonalized steps.  `residual` (the A v of the last step, less its
    projection on the basis), `scale` (the largest ||A v|| seen, the ||T||
    of the estimate), `omega` (the estimate's last two rows) and `pending`
    (whether the next step makes a pass) let `extended` continue the
    recurrence.
    """

    spec: GridSpec
    eigenvalues: np.ndarray = field(repr=False)
    ritz_vectors: np.ndarray = field(repr=False)
    basis: np.ndarray = field(repr=False)
    alpha: np.ndarray = field(repr=False)
    beta: np.ndarray = field(repr=False)
    start: np.ndarray = field(repr=False)
    exhaustive: bool
    reorthogonalize: bool
    passes: int
    residual: np.ndarray = field(repr=False)
    scale: float
    omega: np.ndarray = field(repr=False)
    pending: bool

    @property
    def steps(self) -> int:
        return self.eigenvalues.size

    @property
    def blas_threads(self) -> int | None:
        """The thread count of scipy's BLAS in this spectrum's steps and applies.

        One, the whole Krylov route's count; None when scipy's BLAS has no
        thread API.
        """
        return _thread_api() and 1

    @_serial_blas(True)
    def apply_values(self, values: np.ndarray,
                     f: GridFunction) -> GridFunction | list[GridFunction]:
        """Apply diag(values) over the Ritz values: ||f|| V^T Y (values * Y[0]).

        f and values are checked once per call.  Each row then takes two
        dgemv calls in scipy's BLAS on one thread, the pool the Lanczos
        steps and the dense route use (see SpectralDecomposition.apply_values):
        one on Y and one on V^T, the transpose of the C-ordered basis, which
        is Fortran-ordered and so goes to BLAS without a copy.  The rows of a
        2-D values are applied one at a time, each bitwise its 1-D apply: as
        one (rows x k)(k x N) gemm, OpenBLAS threads the small product and
        keeps a second thread's buffer resident, which saves a few
        milliseconds but costs CPU and about 0.5 MiB of peak memory on a
        15^3 grid (the reason eigen_probe loops too).
        """
        values = _checked_values(self, values, f)
        if not np.array_equal(f.values, self.start):
            raise EvaluationError("a Krylov spectrum applies only to its start vector")
        Y, first = self.ritz_vectors, self.ritz_vectors[0]
        norm = blas.dnrm2(self.start)
        return _fields(self.spec, values,
                       [blas.dgemv(1.0, self.basis.T, blas.dgemv(norm, Y, row * first))
                        for row in np.atleast_2d(values)])

    @_serial_blas(True)
    def orthogonality(self) -> float:
        """max |V V^T - I|: how far the Lanczos basis is from orthonormal."""
        # the upper triangle of V V^T, from the Fortran-ordered V^T without a copy
        gram = np.triu(blas.dsyrk(1.0, self.basis.T, trans=1))
        return float(np.abs(gram - np.eye(self.steps)).max())

    @_serial_blas(True)
    def extended(self, op: DiscreteOperator, steps: int) -> "KrylovSpectrum":
        """This spectrum continued to min(steps, N) Lanczos steps on op.

        The steps already taken are kept, not recomputed, and the new ones
        are taken in the same mode from the carried recurrence state, so the
        result is bitwise the one krylov_spectrum(op, f, steps,
        reorthogonalize=...) gives.  An exhaustive spectrum, or one already
        `steps` long, is returned as it is.
        """
        if op.spec != self.spec:
            raise GridMismatchError("operator grid does not match the Krylov spectrum")
        steps = krylov_steps(op.spec, steps)
        _check_finite(op)
        if self.exhaustive or steps <= self.steps:
            return self
        return _lanczos(op, self.start, steps, self.reorthogonalize, self)


def krylov_step_cap(spec: GridSpec) -> int:
    """The most Lanczos steps whose basis, steps x N doubles, fits in DENSE_LIMIT^2."""
    return DENSE_LIMIT ** 2 // spec.n_nodes


def krylov_steps(spec: GridSpec, steps: int) -> int:
    """min(steps, N), after the step and memory checks of a Krylov basis on spec."""
    if steps < 1:
        raise ConfigError(f"a Krylov spectrum needs at least one step, got {steps}")
    N = spec.n_nodes
    steps = min(steps, N)
    if steps > krylov_step_cap(spec):
        raise CapacityError(
            f"{steps} Krylov steps on {N} nodes exceed the {DENSE_LIMIT}^2-double "
            "memory limit; use a smaller grid"
        )
    return steps


def _overlap_estimate(omega: np.ndarray, alpha: np.ndarray, beta: np.ndarray,
                      j: int, a: float, b: float, norm: float) -> np.ndarray:
    """Simon's estimate of v_{j+1} . v_k for k = 0 .. j + 1, from step j's alpha a and beta b.

    omega[1] holds the estimate of v_j . v_k (k <= j) and omega[0] that of
    v_{j-1} . v_k (k < j); alpha[:j] and beta[:j] are filled.  Each k < j
    follows
      b w_{j+1,k} = beta_k w_{j,k+1} + (alpha_k - a) w_{j,k}
                    + beta_{k-1} w_{j,k-1} - beta_{j-1} w_{j-1,k} + 3 eps (beta_k + b),
    the roundoff term taking the sign of the rest; w_{j+1,j} = eps ||T|| / b,
    with norm for ||T||, and w_{j+1,j+1} = 1.
    """
    eps = np.finfo(float).eps
    row = np.empty(j + 2)
    row[j], row[j + 1] = eps * norm / b, 1.0
    if j > 0:
        current, previous = omega[1], omega[0]
        t = beta[:j] * current[1:j + 1]
        t += (alpha[:j] - a) * current[:j]
        t[1:] += beta[:j - 1] * current[:j - 1]
        t -= beta[j - 1] * previous[:j]
        t += np.copysign(3.0 * eps * (beta[:j] + b), t)
        np.divide(t, b, out=row[:j])
    return row


def _lanczos(op: DiscreteOperator, start: np.ndarray, steps: int, reorthogonalize: bool,
             prior: KrylovSpectrum | None = None) -> KrylovSpectrum:
    """The Ritz spectrum of start after `steps` Lanczos steps, continuing `prior` when given.

    prior's basis, alpha and beta are copied into the new arrays, and the
    loop resumes from its residual and recurrence state.  A breakdown at
    step j cuts V, alpha and beta to j steps and marks the spectrum
    exhaustive.  Every vector operation is a level-1 or level-2 call in
    scipy's BLAS, on the one thread its callers set, that updates w in
    place, so a step allocates only the product A V[j] and O(j) for the
    estimate; the Gram-Schmidt pass hands V[:j+1]^T, Fortran-ordered, to
    dgemv without a copy.
    """
    A = op.matrix
    V = np.empty((steps, op.spec.n_nodes))
    alpha, beta = np.empty(steps), np.empty(steps - 1)
    # rows 0 and 1: the overlap estimates of the last two basis rows
    omega = np.zeros((2, steps + 1))
    if prior is None:
        done, w, scale, pending, passes = 0, None, 0.0, False, 0
        np.divide(start, blas.dnrm2(start), out=V[0])
        omega[1, 0] = 1.0
    else:
        done = prior.steps
        V[:done], alpha[:done], beta[:done - 1] = prior.basis, prior.alpha, prior.beta
        omega[:, :done + 1] = prior.omega
        w, scale, pending, passes = prior.residual, prior.scale, prior.pending, prior.passes
    # without orthogonality, N steps need not span the whole space
    exhaustive = reorthogonalize and steps == op.spec.n_nodes
    for j in range(done, steps):
        if j > 0:
            beta[j - 1] = blas.dnrm2(w)
            if beta[j - 1] <= KRYLOV_BREAKDOWN * scale:
                V, alpha, beta, exhaustive = V[:j], alpha[:j], beta[:j - 1], True
                break
            np.divide(w, beta[j - 1], out=V[j])
        w = A @ V[j]
        scale = max(scale, blas.dnrm2(w))
        # the three-term recurrence, O(N), then (reorthogonalized) one
        # classical Gram-Schmidt pass over the whole basis, O(j N), on
        # the steps where the estimate says roundoff has built up
        if j > 0:
            w = blas.daxpy(V[j - 1], w, a=-beta[j - 1])
        a = blas.ddot(V[j], w)
        w = blas.daxpy(V[j], w, a=-a)
        # a residual norm b at the breakdown level ends the loop on the next step
        if reorthogonalize and (b := blas.dnrm2(w)) > KRYLOV_BREAKDOWN * scale:
            row = _overlap_estimate(omega, alpha, beta, j, a, b, scale)
            if pending or (j > 0 and np.abs(row[:j]).max() > PRO_ETA):
                basis = V[:j + 1].T
                h = blas.dgemv(1.0, basis, w, trans=1)
                w = blas.dgemv(-1.0, basis, h, beta=1.0, y=w, overwrite_y=1)
                a += h[j]
                row[:j] = np.finfo(float).eps
                pending, passes = not pending, passes + 1
            omega[0, :j + 1] = omega[1, :j + 1]
            omega[1, :j + 2] = row
        alpha[j] = a
    theta, Y = scipy.linalg.eigh_tridiagonal(alpha, beta)
    return KrylovSpectrum(spec=op.spec, eigenvalues=_clamped(theta), ritz_vectors=Y, basis=V,
                          alpha=alpha, beta=beta, start=start, exhaustive=exhaustive,
                          reorthogonalize=reorthogonalize, passes=passes, residual=w,
                          scale=scale, omega=omega, pending=pending)


@_serial_blas(True)
def krylov_spectrum(op: DiscreteOperator, f: GridFunction, steps: int, *,
                    reorthogonalize: bool = True) -> KrylovSpectrum:
    """Ritz spectrum of f after min(steps, N) Lanczos steps on the assembled operator.

    With `reorthogonalize` (partial reorthogonalization), each step takes
    the three-term recurrence, and Simon's O(j) recurrence estimates the
    overlap of the new basis row with each older one: when an estimate
    exceeds PRO_ETA, that step and the next make one classical Gram-Schmidt
    pass against the whole basis, which resets the estimates to eps.  The
    basis stays orthonormal to a few eps, and N steps give the exact
    spectrum.  Without it, step j takes the plain three-term recurrence
    alone, O(N) vector work instead of O(j N): the basis loses
    orthogonality once Ritz values converge, but the Ritz approximation of
    m(J) f stays close to the best polynomial one (Musco, Musco and Sidford,
    SODA 2018), and only a breakdown makes it exact.  Either way the
    process stops early at an invariant subspace, and a 2-D apply_values
    applies its rows one at a time (a batched gemm keeps a second OpenBLAS
    thread's buffer resident).  Every vector product runs in scipy's BLAS,
    the one pool of scipy's eigh_tridiagonal and of the dense route, so
    numpy's OpenBLAS pool is never woken to contend with it; the steps, the
    tridiagonal eigh, the applies and `orthogonality` run it on one thread,
    so their results do not depend on the thread count the process started
    with.  The basis is a C-ordered steps x N array whose transpose reaches
    BLAS as a Fortran array, without a copy.  It holds steps x N doubles,
    and a request above DENSE_LIMIT^2 of them, the memory of the dense route
    at its limit, raises CapacityError.  The ceiling bounds one basis; a
    doubling by `extended` briefly holds the old half-length basis beside
    the new one, 1.5 bases in all.
    """
    if f.spec != op.spec:
        raise GridMismatchError("start vector grid does not match the operator")
    steps = krylov_steps(op.spec, steps)
    _check_finite(op)
    start = f.values.copy()
    norm = blas.dnrm2(start)
    if not 0.0 < norm < np.inf:
        raise ConfigError(f"Krylov start vector must be finite and nonzero, norm {norm}")
    return _lanczos(op, start, steps, reorthogonalize)


def eigen_probe(op: DiscreteOperator, dec: Spectrum) -> tuple[float, float]:
    """Orthogonality and residual of a diagonalization of op, on a random block.

    With x the 4 rows of a fixed-seed Gaussian block X, returns
    ||apply(1, x) - x|| / ||X|| and ||A x - apply(lambda, x)|| / (lambda_max ||X||)
    in Frobenius norms, through `apply_values` alone: O(N^2) work on the
    dense eigenbasis, where forming Q^T Q or AQ - Q Lambda would be O(N^3),
    and O(N log N) on the FFT or DST.  A is the assembled sparse operator, so the
    residual does not come from the diagonalization and also covers the
    eigenvalues that were clamped to 0.
    """
    spec, lam = dec.spec, dec.eigenvalues
    ones = np.ones_like(lam)
    # one row at a time: as a block product, OpenBLAS threads the gemm and
    # keeps a second thread's buffer resident (+2.4 MiB at N = 729, 2 threads)
    X = np.random.default_rng(0).standard_normal((4, spec.n_nodes))
    x_norm = np.linalg.norm(X)
    orthogonality = np.linalg.norm(
        [dec.apply_values(ones, GridFunction(spec, x)).values - x for x in X]) / x_norm
    residual = np.linalg.norm(
        [op.matrix @ x - dec.apply_values(lam, GridFunction(spec, x)).values for x in X])
    scale = lam.max() * x_norm
    return float(orthogonality), float(residual / scale if scale > 0 else residual)


def positive_power(lam: np.ndarray, s: float) -> np.ndarray:
    """lambda^s on lambda > 0 and 0 elsewhere, so the kernel maps to 0 (s > 0)."""
    vals = np.where(lam > 0, lam, 1.0) ** s
    vals[lam <= 0] = 0.0
    return vals


def fractional_power(dec: Spectrum, s: float, f: GridFunction) -> GridFunction:
    """J^s f via the multiplier lambda^s (0^s = 0); requires s > 0."""
    if s <= 0:
        raise ConfigError(f"fractional power needs s > 0, got {s}")
    return dec.apply_values(positive_power(dec.eigenvalues, s), f)


def heat_apply(dec: Spectrum, t: float, f: GridFunction) -> GridFunction:
    """H_t f = e^{-tJ} f; t >= 0, and H_0 is the identity exactly."""
    if t < 0:
        raise ConfigError(f"heat semigroup needs t >= 0, got {t}")
    if t == 0.0:
        return GridFunction(f.spec, f.values.copy())
    return dec.apply_values(np.exp(-t * dec.eigenvalues), f)


def delta_function(spec: GridSpec) -> GridFunction:
    """Discrete delta at the center node, scaled by h^{-dims} so its integral is 1."""
    vals = np.zeros(spec.n_nodes)
    vals[spec.center_index()] = spec.spacing ** (-spec.dims)
    return GridFunction(spec, vals)


def heat_kernel_column(dec: Spectrum, t: float) -> GridFunction:
    """H_t applied to the unit-mass delta at the center x0; approximates h_t(x0^{-1}.x)."""
    if t <= 0:
        raise ConfigError(f"kernel column needs t > 0, got {t}")
    return heat_apply(dec, t, delta_function(dec.spec))


def export_spectrum_csv(dec: Spectrum, path) -> None:
    """CSV `index,eigenvalue` of the ascending eigenvalues at full float64 precision."""
    rows = [f"{i},{lam:.17g}\n" for i, lam in enumerate(np.sort(dec.eigenvalues).tolist())]
    with _atomic_open(path) as fh:
        fh.write("index,eigenvalue\n" + "".join(rows))
