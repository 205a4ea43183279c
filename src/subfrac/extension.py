"""Subordination solution of the extension problem and its boundary limit.

For one spectral point lambda >= 0 the solution multiplier is

    F_s(t, lambda) = (1/Gamma(s)) int_0^inf e^{-tau*lambda} lambda^s
                     e^{-t^2/(4 tau)} tau^{s-1} dtau,

so u(t) = F_s(t, J) phi.  The exact change of variables rho = lambda*tau turns
F_s and its t-derivatives into the one-parameter family

    G_k(s, q) = (1/Gamma(s)) int_0^inf e^{-rho} rho^{s-1-k} e^{-q/rho} drho
              = 2 q^{(s-k)/2} K_{s-k}(2 sqrt(q)) / Gamma(s),
    q = lambda t^2 / 4,

with F = G_0, dF/dt = -(lambda t/2) G_1 and
d2F/dt2 = (lambda^2 t^2/4) G_2 - (lambda/2) G_1.  PATH A evaluates these in
closed form with the modified Bessel function K (Caffarelli-Silvestre 2007,
Stinga-Torrea 2010).

PATH B evaluates the first formula instead, the heat-semigroup integral, by
the trapezoid rule on the log axis tau = e^sigma:

    F_s(t, lambda) = lambda^s/Gamma(s) int exp(-lambda e^sigma)
                     exp(s sigma - (t^2/4) e^{-sigma}) dsigma.

The first factor depends only on lambda and the second only on the pair
(s, t), so one table exp(-lambda e^sigma) over the distinct eigenvalues
serves the whole sweep: at each level it is built one block of nodes at a
time and contracted with the weights of every pair by one dgemm.  The
integrand decays exponentially at both ends and the rule converges
geometrically; the grid is cut where the integrands fall QUAD_TAIL log-units
below their peaks, and its levels nest: the first has QUAD_NODES intervals,
and each doubling adds only the midpoints, until successive levels agree to
QUAD_RTOL for every pair (Trefethen and Weideman, SIAM Review 56, 2014).
subordination_integral(s, q, k) and the C(s) cross-check are the one-pair
case of the same engine, where each row is scaled by its integrand's peak.

The boundary limit t^{1-2s} d_t u -> -C(s) J^s phi carries the constant
C(s) = 4^{1-s} Gamma(1-s) / (2 Gamma(s)), validated against direct quadrature
of the defining integral (1/Gamma(s)) int_0^inf e^{-1/(4u)} / (2 u^{2-s}) du,
integrated by parts once so that its integrand decays fast at both ends.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import blas
from scipy.special import gamma as _gamma
from scipy.special import kve

from .errors import AccuracyError, ConfigError
from .group import GridFunction, lp_norm
from .spectral import Spectrum, positive_power

# log-axis trapezoid controls of the quadrature validation routes.  The
# first level has QUAD_NODES intervals; at 100 it is already at roundoff on
# the heis9 and torus2d sweeps, so PATH B converges after one doubling (201
# nodes, where a 400-interval start took 801 to prove the same), and the C(s)
# cross-check converges within two from s = 0.01 to 0.9999
QUAD_NODES = 100
QUAD_RTOL = 1e-10
QUAD_TAIL = 40.0
QUAD_DOUBLINGS = 6
# nodes per block of the quadrature table, which bounds it to 512 bytes a row
_NODE_BLOCK = 64


@dataclass(frozen=True)
class ExtensionParams:
    """s in (0,1) and a descending positive t-sweep."""

    s: float
    t_values: tuple

    def __post_init__(self):
        _check_s(self.s)
        ts = tuple(float(t) for t in self.t_values)
        if not ts:
            raise ConfigError("the t sweep is empty")
        if not all(0.0 < t < np.inf for t in ts):
            raise ConfigError(f"all t values must be finite and > 0, got {ts}")
        if any(b >= a for a, b in zip(ts, ts[1:])):
            raise ConfigError("t values must be strictly descending")
        object.__setattr__(self, "t_values", ts)


def _check_s(s: float) -> None:
    if not 0.0 < s < 1.0:
        raise ConfigError(f"s must lie strictly in (0, 1), got {s}")


# ---------------------------------------------------------------------------
# closed-form multipliers (PATH A)
# ---------------------------------------------------------------------------

def extension_multiplier_values(s: float, t: float,
                                lam: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(F, dF/dt, d2F/dt2) at time t > 0 over a spectrum lam >= 0.

    Each G_k enters multiplied by the power of q that keeps it bounded as
    q -> 0, so nothing overflows: q G_1 = 2 q^{(1+s)/2} K_{1-s}(2 sqrt q) /
    Gamma(s) and q G_2 = 2 q^{s/2} K_{2-s}(2 sqrt q) / Gamma(s).  The
    lambda = 0 kernel mode passes through: F = 1 and both derivatives 0, so
    u(t) -> phi as t -> 0 holds including the mean on a torus.  Modes whose
    q = lam t^2/4 lies below the normal double range, where K_{2-s} can
    overflow, pass through the same way; their F differs from 1 by O(q^s).
    Modes so far out that e^{-2 sqrt q} underflows, q = inf among them, are
    the mirror case: F and both derivatives are exactly 0 (and kve, NaN past
    z ~ 1e10, is not evaluated there).  F is clamped into [0, 1].  d2F/dt2
    is the difference of two terms that, near s = 1/2, cancel as q -> 0;
    _check_second_derivative tells when that has cost it half its digits.
    K_{2-s} is evaluated, not taken from the recurrence K_{2-s} = K_s +
    (2(1-s)/z) K_{1-s}: that would make d2F/dt2 equal lam F - ((1-2s)/t)
    dF/dt, the extension ODE itself, and pde_residual would test nothing.
    """
    _check_s(s)
    if not 0.0 < t < np.inf:
        raise ConfigError(f"multipliers need a finite t > 0, got {t}")
    lam = np.asarray(lam, dtype=float)
    with np.errstate(over="ignore"):
        q = lam * t * t / 4.0
    z = 2.0 * np.sqrt(np.maximum(q, 0.0))
    far = np.exp(-z) == 0.0
    F, dF, ddF = np.where(far, 0.0, 1.0), np.zeros_like(lam), np.zeros_like(lam)
    pos = (q >= np.finfo(float).tiny) & ~far
    if not pos.any():
        # every mode passes through or vanishes; t may be so small that t * t is 0
        return F, dF, ddF
    q, lam, z = q[pos], lam[pos], z[pos]
    # kve(nu, z) = K_nu(z) e^z, so the factor e^{-z} is taken apart
    c = 2.0 / _gamma(s) * np.exp(-z)
    g0 = c * q ** (s / 2.0) * kve(s, z)
    qg1 = c * q ** ((1.0 + s) / 2.0) * kve(1.0 - s, z)
    qg2 = c * q ** (s / 2.0) * kve(2.0 - s, z)
    F[pos] = np.clip(g0, 0.0, 1.0)
    dF[pos] = -(2.0 / t) * qg1  # -(lam t/2) G_1
    ddF[pos] = lam * qg2 - (2.0 / (t * t)) * qg1  # (lam^2 t^2/4) G_2 - (lam/2) G_1
    return F, dF, ddF


def _check_second_derivative(s: float, t: float, lam: np.ndarray, F: np.ndarray,
                             dF: np.ndarray, ddF: np.ndarray) -> None:
    """Raise AccuracyError when d2F/dt2 over the spectrum lam has lost half its digits.

    ddF is (lam^2 t^2/4) G_2 less (lam/2) G_1 = -dF/t.  Near s = 1/2 both
    terms grow like sqrt(lam)/t as q = lam t^2/4 -> 0 while ddF stays near
    lam F, so the difference loses about log10(1/q)/2 digits.  Each term
    carries a rounding error of eps times its size.  The check is normwise,
    against the largest |ddF| + lam F over the spectrum: the noise of a
    mode with a tiny lambda lies below what a field built from ddF can
    resolve, and so does not count.  A mode with dF = 0 and lam F > 0
    passed through, its q below the normal double range, so all of its
    d2F/dt2, about lam F, is lost.  ddF is not replaced by
    lam F - ((1-2s)/t) dF: that is the ODE, which pde_residual then could
    not test.
    """
    eps = np.finfo(float).eps
    finite = np.isfinite(ddF).all()
    shrink = -dF / t  # (lam/2) G_1
    noise = max(eps * (np.abs(ddF + shrink) + np.abs(shrink)).max(initial=0.0),
                (lam * F)[dF == 0].max(initial=0.0))
    size = (np.abs(ddF) + lam * F).max(initial=0.0)
    if not (finite and noise <= np.sqrt(eps) * size):
        raise AccuracyError(
            f"d2F/dt2 at s={s}, t={t} cancels to roundoff; t is too small for this spectrum",
            noise / size if finite and size > 0 else np.inf)


def scalar_ode_residual(s: float, lam: float, t: float) -> float:
    """Relative residual of F'' + ((1-2s)/t) F' - lambda F = 0 at one point.

    Raises AccuracyError where F'' has cancelled, as extension_solve does.
    """
    if lam <= 0 or t <= 0:
        raise ConfigError("scalar ODE residual needs lambda > 0 and t > 0")
    spectrum = np.array([lam])
    values = extension_multiplier_values(s, t, spectrum)
    _check_second_derivative(s, t, spectrum, *values)
    F, dF, ddF = (v[0] for v in values)
    res = ddF + (1.0 - 2.0 * s) / t * dF - lam * F
    scale = abs(lam * F) + abs(ddF) + abs((1.0 - 2.0 * s) / t * dF)
    return abs(res) / scale if scale > 0 else abs(res)


# ---------------------------------------------------------------------------
# log-axis quadrature (the validation routes)
# ---------------------------------------------------------------------------

def _exponent(a, log_c, log_x, sig):
    """a sigma - c e^{-sigma} - x e^sigma, broadcast, with both exponentials in log form.

    Neither can overflow while the integrand is above the cutoff, and one
    that overflows past it correctly gives -inf; c = 0 or x = 0 (log -inf)
    drops its term.
    """
    return a * sig - np.exp(log_c - sig) - np.exp(log_x + sig)


def _peaks(a, c, x):
    """Per case, the crest sigma and the log-peak of exp(a sigma - c e^{-sigma} - x e^sigma).

    e^sigma solves x y^2 - a y - c = 0; for a < 0 the textbook root cancels
    when x c is tiny, so take its rationalized form.  All arguments are 1-D
    arrays of one length, one entry per case.
    """
    log_c, log_x = np.log(c), np.log(x)
    root = 2.0 * np.sqrt(a * a / 4.0 + x * c)
    up = a >= 0
    crest = np.empty(a.shape)
    crest[up] = np.log(a[up] + root[up]) - np.log(2.0) - log_x[up]
    crest[~up] = np.log(2.0) + log_c[~up] - np.log(root[~up] - a[~up])
    return crest, _exponent(a, log_c, log_x, crest)


def _cut(a, c, x, crest, floor, step):
    """Per case, the first crest + m step (m = 0, 1, 2, ...) where the exponent is <= floor.

    The exponent is concave, so once below the floor it stays below; the
    steps are tried in growing spans, all cases at once.
    """
    log_c, log_x = np.log(c)[:, None], np.log(x)[:, None]
    span = 64
    while True:
        sig = crest[:, None] + step * np.arange(span)
        above = _exponent(a[:, None], log_c, log_x, sig) > floor[:, None]
        if not above.all(axis=1).any():
            return crest + step * np.argmin(above, axis=1)
        span *= 4


def _level_sums(a, log_c, x, log_x, shift, sig, weight):
    """Per row i and pair p, sum_j weight_j exp(a_p s_j - c_p e^{-s_j} - x_i e^{s_j} - shift_i).

    The table exp(-x e^sigma) is built one block of _NODE_BLOCK nodes at a
    time, with its exp taken in place, and contracted with the pairs'
    weights exp(a sigma - c e^{-sigma}) by one dgemm per block.  With one
    pair (shift given) the pair's weight and each row's shift go into the
    table's exponent instead, and the contraction is by the quadrature
    weights alone.  On the nodes where e^sigma overflows (a suffix of the
    ascending nodes) the table keeps the exact log form exp(log x + sigma).
    """
    acc = np.zeros((x.size, a.size), order="F")
    neg_x = -x
    for start in range(0, sig.size, _NODE_BLOCK):
        nodes = sig[start:start + _NODE_BLOCK, None]
        grow = np.exp(nodes)
        table = grow * neg_x  # nodes x rows, so table.T is Fortran-ordered for BLAS
        big = np.isinf(grow[:, 0])
        if big.any():
            table[big] = -np.exp(nodes[big] + log_x)
        pair = a * nodes - np.exp(log_c - nodes)
        weights = weight[start:start + _NODE_BLOCK, None]
        if shift is None:
            weights = weights * np.exp(pair)
        else:
            table += pair
            table -= shift
        np.exp(table, out=table)
        acc = blas.dgemm(1.0, table.T, weights, 1.0, acc, overwrite_c=True)
    return acc


def _log_axis_quadrature(a: np.ndarray, x: np.ndarray,
                         c: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """K[i, p] = int exp(a_p u - e^u - x_i c_p e^{-u}) du over the real line.

    K is Gamma(s) G_k(s, x_i c_p) with a_p = s - k.  The shift u = sigma +
    log x_i separates it into a table over the rows and weights over the
    pairs, K = x^a int exp(-x e^sigma) exp(a sigma - c e^{-sigma}) dsigma,
    so every row x_i > 0 and pair (a_p, c_p >= 0) share one grid, cut where
    the integrands of the smallest and the largest row of each pair fall
    QUAD_TAIL below their peaks.  Level j of the trapezoid rule has
    QUAD_NODES 2^j intervals on that grid, so the levels nest: each doubling
    evaluates only the new midpoints, until every pair has converged.  With
    one pair each row is scaled by its integrand's peak, known in closed
    form.  A (row, pair) whose integrand lies below the smallest double
    everywhere, such as one with x c = inf, is exactly 0 and is left out of
    the edge march.  Returns K, the last relative refinement delta of each
    pair and the number of doublings taken.
    """
    with np.errstate(over="ignore", divide="ignore"):
        log_x, log_c = np.log(x), np.log(c)
        q = np.multiply.outer(x, c)
        ok = q < np.inf
        A, C, X = (np.broadcast_to(v, q.shape)[ok] for v in (a, c, x[:, None]))
        peak = np.full(q.shape, -np.inf)
        peak[ok] = _peaks(A, C, X)[1]
        # the log of each x^a-scaled integrand's largest value
        lead = np.full(q.shape, -np.inf)
        lead[ok] = A * np.log(X) + peak[ok]
        null = ~(lead > np.log(np.finfo(float).smallest_subnormal) - QUAD_TAIL)
        if null.all():
            return np.zeros(q.shape), np.zeros(a.size), 0

        # the grid covers the smallest and the largest live row of each pair
        live = ~null
        cases = live.any(axis=0)
        rows = np.broadcast_to(x[:, None], q.shape)
        ex = np.concatenate([np.where(live, rows, np.inf).min(axis=0)[cases],
                             np.where(live, rows, -np.inf).max(axis=0)[cases]])
        ea, ec = np.tile(a[cases], 2), np.tile(c[cases], 2)
        crest, top = _peaks(ea, ec, ex)
        floor = top - QUAD_TAIL
        lo = _cut(ea, ec, ex, crest, floor, -1.0).min() - 0.5
        hi = _cut(ea, ec, ex, crest, floor, 1.0).max() + 0.5

        if a.size == 1:
            shift = np.where(null[:, 0], 0.0, peak[:, 0])
            scale = np.where(null, 0.0, np.exp(lead))
        else:
            shift = None
            scale = np.where(null, 0.0, np.exp(a * log_x[:, None]))

        def level(sig, weight):
            return _level_sums(a, log_c, x, log_x, shift, sig, weight)

        n = QUAD_NODES
        h = (hi - lo) / n
        weight = np.full(n + 1, h)
        weight[[0, -1]] = h / 2.0
        total = level(lo + h * np.arange(n + 1), weight)
        vals = scale * total
        deltas = np.full(a.size, np.inf)
        for doublings in range(1, QUAD_DOUBLINGS + 1):
            mids = lo + h * (np.arange(n) + 0.5)
            h /= 2.0
            n *= 2
            total = total / 2.0 + level(mids, np.full(mids.size, h))
            prev, vals = vals, scale * total
            deltas = (np.abs(vals - prev) / np.maximum(np.abs(vals), 1e-300)).max(axis=0)
            if deltas.max() <= QUAD_RTOL:
                return vals, deltas, doublings
    raise AccuracyError("log-axis quadrature did not converge", float(deltas.max()))


def subordination_integral(s, q, k: int = 0, scale=None) -> tuple[np.ndarray, float, int]:
    """G_k(s, q) for an array of q >= 0 by quadrature.

    Returns the values, the last refinement delta and the number of doublings.

    q = 0 is allowed only for k = 0 (where G_0 = 1 exactly by the Gamma
    normalization and is returned without quadrature); q = inf gives 0.

    With `scale`, one call covers a sweep of pairs (s_p, scale_p): s and
    scale are 1-D and of one length, k is 0, and the values are the
    len(q) x len(scale) array G_0(s_p, q_i scale_p), all on one grid, with
    one delta per pair.  PATH B passes the eigenvalues as q and t_p^2/4 as
    the scales.
    """
    pairs = np.atleast_1d(np.asarray(s, dtype=float))
    for sp in pairs:
        _check_s(sp)
    c = np.ones(1) if scale is None else np.atleast_1d(np.asarray(scale, dtype=float))
    if c.shape != pairs.shape or (scale is not None and k != 0):
        raise ConfigError("a sweep takes k = 0 and one scale per s")
    if not (c >= 0).all():
        raise ConfigError("scales must be >= 0")
    q = np.atleast_1d(np.asarray(q, dtype=float))
    if not (q >= 0).all():
        raise ConfigError("q must be >= 0")
    out = np.ones((q.size, pairs.size))
    zero = q == 0.0
    if zero.any() and k != 0:
        raise ConfigError("G_k at q=0 is only defined for k=0")
    deltas, doublings = np.zeros(pairs.size), 0
    pos = ~zero
    if pos.any():
        vals, deltas, doublings = _log_axis_quadrature(pairs - k, q[pos], c)
        out[pos] = vals / _gamma(pairs)
    if scale is not None:
        return out, deltas, doublings
    return out[:, 0], float(deltas[0]), doublings


# ---------------------------------------------------------------------------
# the constant C(s)
# ---------------------------------------------------------------------------

def extension_constant(s: float) -> float:
    """C(s) = 4^{1-s} Gamma(1-s) / (2 Gamma(s)); C(1/2) = 1."""
    _check_s(s)
    return float(4.0 ** (1.0 - s) * _gamma(1.0 - s) / (2.0 * _gamma(s)))


def extension_constant_quadrature(s: float) -> float:
    """C(s) by direct quadrature of (1/Gamma(s)) int e^{-1/(4u)}/(2 u^{2-s}) du.

    With rho = 1/(4u) the integral is (4^{1-s}/2) int rho^{-s} e^{-rho} drho.
    On the log axis that integrand's left tail decays only like
    e^{(1-s) sigma}, too slowly to converge as s -> 1, so it is integrated
    by parts once: the boundary term vanishes for s < 1, leaving
    (4^{1-s}/(2(1-s))) int rho^{1-s} e^{-rho} drho, the log-axis integral
    with a = 2 - s and x c = 0 (x = 1, c = 0).
    """
    _check_s(s)
    vals = _log_axis_quadrature(np.array([2.0 - s]), np.ones(1), np.zeros(1))[0]
    return float(4.0 ** (1.0 - s) / (2.0 * (1.0 - s)) * vals[0, 0] / _gamma(s))


# ---------------------------------------------------------------------------
# grid-level solution, derivatives, residuals
# ---------------------------------------------------------------------------

@dataclass
class ExtensionProfile:
    """u(t_j, .), its first two t-derivatives and J u(t_j, .) over the sweep."""

    params: ExtensionParams
    u: list
    du_dt: list
    ddu_dt2: list
    ju: list


def extension_solve(dec: Spectrum, params: ExtensionParams,
                    phi: GridFunction) -> ExtensionProfile:
    """PATH A: the closed-form Bessel-K multipliers, evaluated once per t.

    The multipliers are elementwise in lambda, so they are evaluated once per
    distinct eigenvalue and gathered back.  All 4 |t| fields come from one
    batched apply.
    """
    lam, index = np.unique(dec.eigenvalues, return_inverse=True)
    rows = []
    for t in params.t_values:
        F, dF, ddF = extension_multiplier_values(params.s, t, lam)
        _check_second_derivative(params.s, t, lam, F, dF, ddF)
        rows += [F, dF, ddF, lam * F]
    fields = dec.apply_values(np.array(rows)[:, index], phi)
    return ExtensionProfile(params=params, u=fields[0::4], du_dt=fields[1::4],
                            ddu_dt2=fields[2::4], ju=fields[3::4])


def extension_solve_tau_grid(dec: Spectrum, sweep: Sequence[ExtensionParams],
                             phi: GridFunction) -> tuple:
    """PATH B: G_0 by quadrature, for a whole sweep over s on one log-axis grid.

    Every pair (s, t) of the sweep and every distinct eigenvalue lambda > 0
    share one call of subordination_integral: one table exp(-lambda e^sigma)
    per level, contracted with the weights of all pairs at once.  The
    lambda = 0 kernel mode has q = 0, where G_0 = 1 exactly, so it passes
    through as in PATH A; a mode whose q = lambda t^2/4 overflows has
    G_0 = 0.  The |s| |t| fields come from one batched apply.

    Returns the list of u(t) per t for each params, the largest last
    refinement delta of each params' pairs, and the doublings of the shared
    grid.
    """
    s = np.array([p.s for p in sweep for _ in p.t_values])
    t = np.array([t for p in sweep for t in p.t_values])
    lam, index = np.unique(dec.eigenvalues, return_inverse=True)
    with np.errstate(over="ignore"):
        scale = t * t / 4.0
    g0, pair_deltas, doublings = subordination_integral(s, lam, 0, scale=scale)
    fields = dec.apply_values(g0.T[:, index], phi)
    cuts = np.cumsum([0] + [len(p.t_values) for p in sweep])
    us = [fields[a:b] for a, b in zip(cuts, cuts[1:])]
    deltas = [float(pair_deltas[a:b].max()) for a, b in zip(cuts, cuts[1:])]
    return us, deltas, doublings


def path_agreement(dec: Spectrum, profiles: Sequence[ExtensionProfile],
                   phi: GridFunction) -> tuple:
    """Max over each profile's t sweep of the relative L2 gap between PATH A and PATH B.

    `profiles` is the sweep over s, whose PATH B runs as one
    extension_solve_tau_grid call.  Returns the gap and PATH B's largest
    quadrature refinement delta per profile, and the record of the shared
    grid: its node counts, QUAD_RTOL, QUAD_TAIL, its doublings and its
    largest delta.
    """
    fields, deltas, doublings = extension_solve_tau_grid(
        dec, [p.params for p in profiles], phi)
    grid = {
        "initial_nodes": QUAD_NODES + 1,  # QUAD_NODES intervals
        "rtol": QUAD_RTOL,
        "tail": QUAD_TAIL,
        # 0 nodes when no mode needed quadrature
        "final_nodes": QUAD_NODES * 2 ** doublings + 1 if doublings else 0,
        "doublings": doublings,
        "final_delta": max(deltas),
    }
    gaps = []
    for prof, b in zip(profiles, fields):
        worst = 0.0
        for ua, ub in zip(prof.u, b):
            denom = max(lp_norm(ua, 2), 1e-300)
            worst = max(worst, lp_norm(GridFunction(phi.spec, ua.values - ub.values), 2) / denom)
        gaps.append(worst)
    return gaps, deltas, grid


def pde_residual(profile: ExtensionProfile) -> float:
    """Worst relative residual of d_t^2 u + ((1-2s)/t) d_t u - J u = 0 over the sweep.

    The three terms come from Bessel functions of three different orders, so
    the residual checks the closed forms against the equation.
    """
    s = profile.params.s
    worst = 0.0
    for t, du, ddu, ju in zip(profile.params.t_values, profile.du_dt,
                              profile.ddu_dt2, profile.ju):
        num = np.linalg.norm(ddu.values + (1.0 - 2.0 * s) / t * du.values - ju.values)
        den = np.linalg.norm(ju.values) + np.linalg.norm(ddu.values)
        worst = max(worst, float(num / den) if den > 0 else float(num))
    return worst


# ---------------------------------------------------------------------------
# boundary limit
# ---------------------------------------------------------------------------

@dataclass
class BoundaryLimitResult:
    extrapolated: GridFunction
    reference: GridFunction
    rel_error: float
    sweep_t: tuple
    sweep_values: list
    used_fallback: bool


def extrapolation_weights(ts: Sequence[float], s: float) -> np.ndarray:
    """The weights that take w(0) from values and t-derivatives at three points (Hermite).

    Fits w(t) = sum_p c_p t^p over the first six powers of the small-t
    expansion, p in (0, 2-2s, 2, 4-2s, 4, 6-2s), and returns the six
    weights of c_0 = w(0): three on the values, three on t times the
    derivatives.  The derivative rows are multiplied by t and t is scaled by
    its largest value, which keeps the system well conditioned and leaves
    c_0 unchanged.  Within a few 1e-16 of s = 0 or 1, two columns coincide
    in double precision and the system is singular; that raises
    AccuracyError.
    """
    p = np.array([0.0, 2.0 - 2.0 * s, 2.0, 4.0 - 2.0 * s, 4.0, 6.0 - 2.0 * s])
    powers = (np.asarray(ts) / max(ts))[:, None] ** p
    M = np.vstack([powers, p * powers])
    try:
        return np.linalg.solve(M.T, np.eye(6)[0])
    except np.linalg.LinAlgError as exc:
        raise AccuracyError(f"the boundary-limit extrapolation at s={s} is singular: two of "
                            f"its powers {p.tolist()} coincide in double precision",
                            np.inf) from exc


def _extrapolate_three(ts: Sequence[float], ws: Sequence[np.ndarray],
                       dws: Sequence[np.ndarray], s: float) -> np.ndarray:
    """w(0) from values w and t-derivatives dw at three points, by extrapolation_weights."""
    data = [*ws, *(t * dw for t, dw in zip(ts, dws))]
    return sum(wt * d for wt, d in zip(extrapolation_weights(ts, s), data))


def boundary_limit(dec: Spectrum, profile: ExtensionProfile,
                   phi: GridFunction) -> BoundaryLimitResult:
    """Extrapolate t^{1-2s} d_t u to t = 0 and compare with -C(s) J^s phi.

    Reads d_t u and d_t^2 u from the profile that extension_solve built from
    dec and phi, and uses the values and exact t-derivatives at the three
    smallest sweep points for the extrapolant.  If the sweep does not approach
    it monotonically the extrapolation assumption failed; a warning is raised
    and the smallest-t raw value is returned instead.
    """
    params = profile.params
    if len(params.t_values) < 3:
        raise ConfigError("boundary limit needs at least 3 sweep points")
    s = params.s
    sweep, slopes = [], []
    for t, du, ddu in zip(params.t_values, profile.du_dt, profile.ddu_dt2):
        sweep.append(GridFunction(phi.spec, t ** (1.0 - 2.0 * s) * du.values))
        slopes.append((1.0 - 2.0 * s) * t ** (-2.0 * s) * du.values
                      + t ** (1.0 - 2.0 * s) * ddu.values)

    ext_vals = _extrapolate_three(
        params.t_values[-3:],
        [w.values for w in sweep[-3:]],
        slopes[-3:],
        s,
    )
    reference = dec.apply_values(-extension_constant(s) * positive_power(dec.eigenvalues, s), phi)

    dists = [np.linalg.norm(w.values - ext_vals) for w in sweep]
    used_fallback = not all(d1 > d2 for d1, d2 in zip(dists, dists[1:]))
    if used_fallback:
        warnings.warn(
            "boundary-limit sweep is not monotone toward the extrapolant; "
            f"falling back to the raw value at t={params.t_values[-1]} "
            f"(sweep distances {dists})",
            RuntimeWarning,
        )
        ext_vals = sweep[-1].values

    extrapolated = GridFunction(phi.spec, ext_vals)
    # J^s phi = 0 (phi in the kernel) makes the relative error ill-posed;
    # report against the data scale instead
    denom = lp_norm(reference, 2)
    if denom == 0.0:
        denom = max(lp_norm(phi, 2), 1.0)
    gap = GridFunction(phi.spec, ext_vals - reference.values)
    return BoundaryLimitResult(
        extrapolated=extrapolated,
        reference=reference,
        rel_error=lp_norm(gap, 2) / denom,
        sweep_t=params.t_values,
        sweep_values=sweep,
        used_fallback=used_fallback,
    )
