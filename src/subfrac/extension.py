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
Stinga-Torrea 2010).  The validation routes evaluate the integrals instead, by
the trapezoid rule on the log axis rho = e^sigma, where the integrand decays
exponentially at both ends and the rule converges geometrically; the grid is
cut where the integrand falls QUAD_TAIL log-units below its peak, and its
levels nest: the first has QUAD_NODES intervals, and each doubling adds only
the midpoints, until successive levels agree to QUAD_RTOL (Trefethen and
Weideman, SIAM Review 56, 2014).

The boundary limit t^{1-2s} d_t u -> -C(s) J^s phi carries the constant
C(s) = 4^{1-s} Gamma(1-s) / (2 Gamma(s)), validated against direct quadrature
of the defining integral (1/Gamma(s)) int_0^inf e^{-1/(4u)} / (2 u^{2-s}) du.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import gamma as _gamma
from scipy.special import kve

from .errors import AccuracyError, ConfigError
from .group import GridFunction, lp_norm
from .spectral import Spectrum, positive_power

# log-axis trapezoid controls of the quadrature validation routes
QUAD_NODES = 400
QUAD_RTOL = 1e-10
QUAD_TAIL = 40.0
QUAD_DOUBLINGS = 6


@dataclass(frozen=True)
class ExtensionParams:
    """s in (0,1) and a descending positive t-sweep."""

    s: float
    t_values: tuple

    def __post_init__(self):
        if not 0.0 < self.s < 1.0:
            raise ConfigError(f"s must lie strictly in (0, 1), got {self.s}")
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
        raise ConfigError(f"s must lie in (0, 1), got {s}")


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
    F is clamped into [0, 1].
    """
    _check_s(s)
    if not 0.0 < t < np.inf:
        raise ConfigError(f"multipliers need a finite t > 0, got {t}")
    lam = np.asarray(lam, dtype=float)
    F, dF, ddF = np.ones_like(lam), np.zeros_like(lam), np.zeros_like(lam)
    q = lam * t * t / 4.0
    pos = q >= np.finfo(float).tiny
    if not pos.any():
        # every mode passes through; t may be so small that t * t is 0
        return F, dF, ddF
    q, lam = q[pos], lam[pos]
    z = 2.0 * np.sqrt(q)
    # kve(nu, z) = K_nu(z) e^z; the factor e^{-z} underflows to 0 harmlessly
    c = 2.0 / _gamma(s) * np.exp(-z)
    g0 = c * q ** (s / 2.0) * kve(s, z)
    qg1 = c * q ** ((1.0 + s) / 2.0) * kve(1.0 - s, z)
    qg2 = c * q ** (s / 2.0) * kve(2.0 - s, z)
    F[pos] = np.clip(g0, 0.0, 1.0)
    dF[pos] = -(2.0 / t) * qg1  # -(lam t/2) G_1
    ddF[pos] = lam * qg2 - (2.0 / (t * t)) * qg1  # (lam^2 t^2/4) G_2 - (lam/2) G_1
    return F, dF, ddF


def scalar_ode_residual(s: float, lam: float, t: float) -> float:
    """Relative residual of F'' + ((1-2s)/t) F' - lambda F = 0 at one point."""
    if lam <= 0 or t <= 0:
        raise ConfigError("scalar ODE residual needs lambda > 0 and t > 0")
    F, dF, ddF = (v[0] for v in extension_multiplier_values(s, t, np.array([lam])))
    res = ddF + (1.0 - 2.0 * s) / t * dF - lam * F
    scale = abs(lam * F) + abs(ddF) + abs((1.0 - 2.0 * s) / t * dF)
    return abs(res) / scale if scale > 0 else abs(res)


# ---------------------------------------------------------------------------
# log-axis quadrature (the validation routes)
# ---------------------------------------------------------------------------

def _node_sums(a: float, q: np.ndarray, log_q: np.ndarray, peak: np.ndarray,
               sig: np.ndarray) -> np.ndarray:
    """Per q, the sum over the ascending nodes sig of exp(a sigma - e^sigma - q e^{-sigma} - peak).

    The q-term is the outer product q e^{-sigma}, so the only 2-D exp is the
    final one, taken in place.  On the columns where e^{-sigma} overflows (a
    prefix of the ascending nodes) the q-term keeps the exact log form
    exp(log q - sigma) instead; q = 0 then drops it as log q = -inf.  A
    q-term that overflows to inf, where one grid serves a wide range of q,
    correctly gives the node the value 0.
    """
    with np.errstate(over="ignore"):
        decay = np.exp(-sig)
        cut = np.count_nonzero(np.isinf(decay))
        head = a * sig - np.exp(sig)
        buf = np.multiply.outer(q, decay[cut:])
        buf += peak[:, None]
        np.subtract(head[cut:], buf, out=buf)
        np.exp(buf, out=buf)
        total = buf.sum(axis=1)
        if cut:
            expo = head[:cut] - np.exp(log_q[:, None] - sig[:cut]) - peak[:, None]
            total += np.exp(expo).sum(axis=1)
    return total


def _log_axis_quadrature(a: float, q: np.ndarray) -> tuple[np.ndarray, float, int]:
    """int exp(a sigma - e^sigma - q e^{-sigma}) dsigma over the real line, per q.

    All q >= 0 share one grid, cut where the integrands of the smallest and
    the largest q fall QUAD_TAIL below their peaks; q = 0 needs a > 0.  Level
    j of the trapezoid rule has QUAD_NODES 2^j intervals on that grid, so the
    levels nest: each doubling evaluates only the new midpoints.  Each row is
    scaled by the integrand's peak, known in closed form.  Returns the values,
    the last relative refinement delta and the number of doublings taken.
    """
    with np.errstate(divide="ignore"):
        log_q = np.log(q)  # -inf at q = 0 drops the q-term

    def g(sig, lq):
        # the q-term in log form: exp(log q - sigma) cannot overflow while the
        # march is still above the cutoff
        return a * sig - np.exp(sig) - np.exp(lq - sig)

    def crest(qq):
        # the peak e^sigma solves x^2 - a x - q = 0; for a < 0 the textbook
        # root cancels to 0 when q is tiny, so take its rationalized form
        root = np.sqrt(a * a + 4.0 * qq)
        return np.log((a + root) / 2.0 if a >= 0 else 2.0 * qq / (root - a))

    edges = []
    for qe, lq in ((q.min(), log_q.min()), (q.max(), log_q.max())):
        s0 = crest(qe)
        floor = g(s0, lq) - QUAD_TAIL
        lo = hi = s0
        while g(lo, lq) > floor:
            lo -= 1.0
        while g(hi, lq) > floor:
            hi += 1.0
        edges += [lo, hi]
    lo, hi = min(edges) - 0.5, max(edges) + 0.5

    peak = g(crest(q), log_q)
    scale = np.exp(peak)
    n = QUAD_NODES
    h = (hi - lo) / n
    inner = lo + h * np.arange(1, n)
    total = h * (_node_sums(a, q, log_q, peak, inner)
                 + 0.5 * _node_sums(a, q, log_q, peak, np.array([lo, hi])))
    vals = scale * total
    delta = np.inf
    for doublings in range(1, QUAD_DOUBLINGS + 1):
        mids = lo + h * (np.arange(n) + 0.5)
        h /= 2.0
        n *= 2
        total = total / 2.0 + h * _node_sums(a, q, log_q, peak, mids)
        prev, vals = vals, scale * total
        delta = float(np.max(np.abs(vals - prev) / np.maximum(np.abs(vals), 1e-300)))
        if delta <= QUAD_RTOL:
            return vals, delta, doublings
    raise AccuracyError("log-axis quadrature did not converge", delta)


def subordination_integral(s: float, q, k: int = 0) -> tuple[np.ndarray, float, int]:
    """G_k(s, q) for an array of q >= 0 by quadrature.

    Returns the values, the last refinement delta and the number of doublings.

    q = 0 is allowed only for k = 0 (where G_0 = 1 exactly by the Gamma
    normalization and is returned without quadrature).
    """
    _check_s(s)
    q = np.atleast_1d(np.asarray(q, dtype=float))
    if (q < 0).any():
        raise ConfigError("q must be >= 0")
    out = np.empty_like(q)
    zero = q == 0.0
    if zero.any():
        if k != 0:
            raise ConfigError("G_k at q=0 is only defined for k=0")
        out[zero] = 1.0
    pos = ~zero
    if not pos.any():
        return out, 0.0, 0
    vals, delta, doublings = _log_axis_quadrature(s - k, q[pos])
    out[pos] = vals / _gamma(s)
    return out, delta, doublings


# ---------------------------------------------------------------------------
# the constant C(s)
# ---------------------------------------------------------------------------

def extension_constant(s: float) -> float:
    """C(s) = 4^{1-s} Gamma(1-s) / (2 Gamma(s)); C(1/2) = 1."""
    _check_s(s)
    return float(4.0 ** (1.0 - s) * _gamma(1.0 - s) / (2.0 * _gamma(s)))


def extension_constant_quadrature(s: float) -> float:
    """C(s) by direct quadrature of (1/Gamma(s)) int e^{-1/(4u)}/(2 u^{2-s}) du.

    With rho = 1/(4u) the integral is (4^{1-s}/2) int rho^{-s} e^{-rho} drho,
    the log-axis integral with a = 1 - s and q = 0.
    """
    _check_s(s)
    vals = _log_axis_quadrature(1.0 - s, np.zeros(1))[0]
    return float(4.0 ** (1.0 - s) / 2.0 * vals[0] / _gamma(s))


# ---------------------------------------------------------------------------
# grid-level solution, derivatives, residuals
# ---------------------------------------------------------------------------

@dataclass
class ExtensionProfile:
    """u(t_j, .), its first two t-derivatives and J u(t_j, .) over the sweep.

    lam_f_max[j] is the largest lambda F_s(t_j, lambda) over the spectrum, so
    ||J u(t_j)||_2 <= lam_f_max[j] ||phi||_2.
    """

    params: ExtensionParams
    u: list
    du_dt: list
    ddu_dt2: list
    ju: list
    lam_f_max: np.ndarray


def extension_solve(dec: Spectrum, params: ExtensionParams,
                    phi: GridFunction) -> ExtensionProfile:
    """PATH A: the closed-form Bessel-K multipliers, evaluated once per t.

    The multipliers are elementwise in lambda, so they are evaluated once per
    distinct eigenvalue and gathered back.  All 4 |t| fields come from one
    batched apply.
    """
    lam, index = np.unique(dec.eigenvalues, return_inverse=True)
    rows, lam_f_max = [], []
    for t in params.t_values:
        F, dF, ddF = extension_multiplier_values(params.s, t, lam)
        lam_f = lam * F
        rows += [F, dF, ddF, lam_f]
        lam_f_max.append(float(lam_f.max(initial=0.0)))
    fields = dec.apply_values(np.array(rows)[:, index], phi)
    return ExtensionProfile(params=params, u=fields[0::4], du_dt=fields[1::4],
                            ddu_dt2=fields[2::4], ju=fields[3::4],
                            lam_f_max=np.array(lam_f_max))


def extension_solve_tau_grid(dec: Spectrum, params: ExtensionParams,
                             phi: GridFunction) -> tuple[list, float, int]:
    """PATH B: G_0 by quadrature on one log-axis grid shared by all eigenvalues.

    The lambda = 0 kernel mode has q = 0, where subordination_integral gives
    G_0 = 1 exactly, so it passes through as in PATH A.  Repeated eigenvalues
    share one quadrature row, and the fields of the sweep come from one
    batched apply.  Returns u(t) per t, and the largest last refinement delta
    and the most doublings of the quadratures.
    """
    rows, delta, doublings = [], 0.0, 0
    for t in params.t_values:
        q, index = np.unique(dec.eigenvalues * t * t / 4.0, return_inverse=True)
        g0, last, taken = subordination_integral(params.s, q, 0)
        rows.append(g0[index])
        delta, doublings = max(delta, last), max(doublings, taken)
    return dec.apply_values(np.array(rows), phi), delta, doublings


def path_agreement(dec: Spectrum, profile: ExtensionProfile,
                   phi: GridFunction) -> tuple[float, float, int]:
    """Max over the sweep of the relative L2 gap between PATH A and PATH B.

    Returns the gap, and PATH B's largest quadrature refinement delta and
    most doublings.
    """
    b, delta, doublings = extension_solve_tau_grid(dec, profile.params, phi)
    worst = 0.0
    for ua, ub in zip(profile.u, b):
        denom = max(lp_norm(ua, 2), 1e-300)
        worst = max(worst, lp_norm(GridFunction(phi.spec, ua.values - ub.values), 2) / denom)
    return worst, delta, doublings


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


def _extrapolate_three(ts: Sequence[float], ws: Sequence[np.ndarray],
                       dws: Sequence[np.ndarray], s: float) -> np.ndarray:
    """w(0) from values w and t-derivatives dw at three points (Hermite).

    Fits w(t) = sum_p c_p t^p over the first six powers of the small-t
    expansion, p in (0, 2-2s, 2, 4-2s, 4, 6-2s).  The derivative rows are
    multiplied by t and t is scaled by its largest value, which keeps the
    system well conditioned and leaves c_0 unchanged.
    """
    p = np.array([0.0, 2.0 - 2.0 * s, 2.0, 4.0 - 2.0 * s, 4.0, 6.0 - 2.0 * s])
    powers = (np.asarray(ts) / max(ts))[:, None] ** p
    M = np.vstack([powers, p * powers])
    weights = np.linalg.solve(M.T, np.eye(6)[0])
    data = [*ws, *(t * dw for t, dw in zip(ts, dws))]
    return sum(wt * d for wt, d in zip(weights, data))


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


# ---------------------------------------------------------------------------
# well-posedness report
# ---------------------------------------------------------------------------

@dataclass
class WellposednessReport:
    t_values: tuple
    norm_ratios: np.ndarray       # ||u(t)||_2 / ||phi||_2
    ju_norms: np.ndarray          # ||J u(t)||_2
    ju_bounds: np.ndarray         # max_i lambda_i F_s(t, lambda_i) * ||phi||_2
    non_expansive: bool
    monotone: bool
    in_domain: bool


def l2_wellposedness_check(profile: ExtensionProfile,
                           phi: GridFunction) -> WellposednessReport:
    """||u(t)||_2 <= ||phi||_2 and J u(t) in L^2 with the sharp spectral bound."""
    phinorm = lp_norm(phi, 2)
    ratios = np.array([lp_norm(u, 2) / max(phinorm, 1e-300) for u in profile.u])
    junorms = np.array([lp_norm(ju, 2) for ju in profile.ju])
    bounds = profile.lam_f_max * phinorm
    return WellposednessReport(
        t_values=profile.params.t_values,
        norm_ratios=ratios,
        ju_norms=junorms,
        ju_bounds=bounds,
        non_expansive=bool((ratios <= 1.0 + 1e-12).all()),
        # t descends along the sweep and F grows as t falls, so ratios rise
        monotone=bool((np.diff(ratios) >= -1e-10).all()),
        in_domain=bool(np.isfinite(junorms).all() and (junorms <= bounds + 1e-9).all()),
    )
