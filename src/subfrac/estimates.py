"""Quantitative checks: kernel-norm decay laws, Gaussian bounds, volume growth.

Every inequality here carries an unquantified constant in the theory, so the
tests target EXPONENTS: norms are swept over t, fitted on log-log axes by
least squares, and the fitted slope is compared against the predicted rate.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .group import GridSpec, Group, lp_norm
from .spectral import Spectrum, delta_function, heat_kernel_column, positive_power

# largest spread of the Gaussian-bound log gaps over t that counts as stable
GAUSSIAN_STABILITY_WINDOW = 2.0
# fewest lattice points the smallest ball of a volume-growth fit may hold
VOLUME_MIN_POINTS = 1000
# half-width of the reconstruction window, as a fraction of the extent L
RECONSTRUCTION_WINDOW = 0.5


@dataclass
class DecayFit:
    """Least-squares slope of log(norm) against log(t), with 1-sigma half-width."""

    t_samples: np.ndarray
    norms: np.ndarray
    fitted_slope: float
    slope_ci: float
    residual: float


def _finite_positive(x: np.ndarray) -> bool:
    return bool(np.all((x > 0) & (x < np.inf)))


def fit_loglog(t_samples: Sequence[float], norms: Sequence[float]) -> DecayFit:
    t = np.asarray(t_samples, dtype=float)
    y = np.asarray(norms, dtype=float)
    if t.size < 2:
        raise ConfigError("need at least two samples to fit a slope")
    if not (_finite_positive(t) and _finite_positive(y)):
        raise ConfigError("log-log fit needs finite positive samples and norms")
    x = np.log(t)
    if np.ptp(x) == 0:
        raise ConfigError(f"log-log fit needs two distinct samples, got only {t[0]:g}")
    ly = np.log(y)
    slope, intercept = np.polyfit(x, ly, 1)
    pred = slope * x + intercept
    resid = ly - pred
    if t.size > 2:
        sigma2 = float(resid @ resid) / (t.size - 2)
        ci = math.sqrt(sigma2 / float(((x - x.mean()) ** 2).sum()))
    else:
        ci = 0.0
    return DecayFit(
        t_samples=t,
        norms=y,
        fitted_slope=float(slope),
        slope_ci=float(ci),
        residual=float(np.abs(resid).max()),
    )


def resolvable_t_window(spec: GridSpec) -> tuple[float, float]:
    """[h^2, (L/4)^2]: below, the kernel is unresolved; above, the boundary bites."""
    h = spec.spacing
    return h * h, (spec.extent / 4.0) ** 2


def check_t_window(spec: GridSpec, t_values: Sequence[float]) -> None:
    """Warn outside the advisory window, refuse far outside it."""
    lo, hi = resolvable_t_window(spec)
    t = np.asarray(t_values, dtype=float)
    if (t < lo / 8.0).any() or (t > (spec.extent / 2.0) ** 2).any():
        raise ConfigError(
            f"t range {t.min():.3g}..{t.max():.3g} is far outside the resolvable "
            f"window [{lo:.3g}, {hi:.3g}] of this grid"
        )
    if (t < lo).any() or (t > hi).any():
        warnings.warn(
            f"t range {t.min():.3g}..{t.max():.3g} leaves the advisory resolvable "
            f"window [{lo:.3g}, {hi:.3g}]; fitted exponents may carry resolution "
            "or boundary bias",
            RuntimeWarning,
        )


def kernel_norm_decay(dec: Spectrum, s: float, p: int,
                      t_values: Sequence[float]) -> DecayFit:
    """Fit ||J^s h_t||_p over t; predicted slopes -s (p=1), -s - Q/4 (p=2).

    Q is the homogeneous dimension, the sum of the group's dilation weights
    (GridSpec.group): 4 on heisenberg, dims on a euclidean grid.
    """
    if p not in (1, 2):
        raise ConfigError(f"p must be 1 or 2, got {p}")
    if s <= 0:
        raise ConfigError("s must be > 0")
    check_t_window(dec.spec, t_values)
    delta = delta_function(dec.spec)
    lam = dec.eigenvalues
    svals = positive_power(lam, s)
    norms = []
    for t in t_values:
        col = dec.apply_values(svals * np.exp(-t * lam), delta)
        norms.append(lp_norm(col, p))
    return fit_loglog(t_values, norms)


# ---------------------------------------------------------------------------
# Gaussian upper bound
# ---------------------------------------------------------------------------

@dataclass
class GaussianBoundResult:
    t_values: tuple
    log_gaps: np.ndarray          # per t: max over nodes of the log-gap statistic
    spread: float                 # max - min over the t set
    skipped: tuple                # per t: nonpositive kernel values skipped
    stable: bool                  # finite and spread < 2 natural-log units


def _displacements(spec: GridSpec) -> np.ndarray:
    """Node displacement from the kernel center, minimal-image on the torus."""
    coords = spec.node_coordinates()
    center = coords[spec.center_index()]
    rel = coords - center
    if spec.periodic:
        period = 2.0 * spec.extent
        rel = (rel + spec.extent) % period - spec.extent
    return rel


def ball_volume(spec: GridSpec, r: float) -> float:
    """V(r) = V(1) r^Q, Q the homogeneous dimension of the grid's group.

    The quartic-norm unit ball has V(1) = pi int_0^1 r sqrt(1 - r^4) dr = pi^2/8;
    a euclidean grid's is the unit ball of R^dims.
    """
    Q, dims = sum(spec.group.weights), spec.dims
    if spec.mode == "heisenberg":
        return math.pi ** 2 / 8.0 * r ** Q
    return math.pi ** (dims / 2.0) / math.gamma(dims / 2.0 + 1.0) * r ** Q


def gaussian_bound_check(dec: Spectrum, t_values: Sequence[float],
                         epsilon: float) -> GaussianBoundResult:
    """Log-gap statistic for h_t(x) <= C [V(sqrt t)]^{-1} exp(-|x|^2/(4(1+eps)t)).

    G(t) = max_x [log h_t(x) + |x|^2/(4(1+eps)t) + log V(sqrt t)] over interior
    nodes carrying genuine kernel signal; a finite, t-stable G certifies the
    bound's shape.  Nonpositive values and values below the roundoff floor of
    the spectral sum (1e3 * eps_machine * peak) are skipped and counted: where
    the true kernel underflows, the column holds noise, not kernel.
    epsilon must be > 0 (the bound genuinely fails at epsilon = 0).
    """
    if epsilon <= 0:
        raise ConfigError("epsilon must be > 0")
    spec = dec.spec
    check_t_window(spec, t_values)
    rel = _displacements(spec)
    dist = spec.group.norm(rel)
    interior = spec.interior(0 if spec.periodic else 1)
    gaps, skipped = [], []
    for t in t_values:
        col = heat_kernel_column(dec, t).values
        floor = 1e3 * np.finfo(float).eps * col.max()
        pos = interior & (col > floor)
        skipped.append(int(interior.sum() - pos.sum()))
        g = (
            np.log(col[pos])
            + dist[pos] ** 2 / (4.0 * (1.0 + epsilon) * t)
            + np.log(ball_volume(spec, math.sqrt(t)))
        )
        gaps.append(float(g.max()))
    gaps = np.array(gaps)
    spread = float(gaps.max() - gaps.min())
    return GaussianBoundResult(
        t_values=tuple(float(t) for t in t_values),
        log_gaps=gaps,
        spread=spread,
        skipped=tuple(skipped),
        stable=bool(np.isfinite(gaps).all() and spread < GAUSSIAN_STABILITY_WINDOW),
    )


# ---------------------------------------------------------------------------
# volume growth
# ---------------------------------------------------------------------------

def measure_ball_volumes(r_values: Sequence[float], lattice_h: float,
                         group: Group) -> np.ndarray:
    """Lebesgue volume of the balls of group.norm in R^3, by lattice count times h^3.

    Counted one (x1, x2) column at a time: with rho^2 = x1^2 + x2^2 and w
    the weight of x3, the norm is below r exactly where
    gauge x3^2 < r^(2w) - rho^(2w), so each column's count is a search of
    the sorted x3 terms, shared by every column.
    """
    r = np.asarray(sorted(r_values), dtype=float)
    if r.size == 0:
        raise ConfigError("need at least one radius")
    if not _finite_positive(r):
        raise ConfigError(f"radii must be finite and positive, got {r_values}")
    if not 0 < lattice_h < np.inf:
        raise ConfigError(f"lattice_h must be finite and > 0, got {lattice_h}")
    if len(group.weights) != 3:
        raise ConfigError(f"ball volumes need a group of 3 axes, got {len(group.weights)}")
    w, gauge = group.weights[2], group.gauge
    rmax = r.max()
    # norm < r forces |x1|, |x2| <= r and |x3| <= r^w / sqrt(gauge)
    r3max = math.prod([rmax] * w) / math.sqrt(gauge)
    ax12 = np.arange(-rmax, rmax + lattice_h / 2.0, lattice_h)
    ax3 = np.arange(-r3max, r3max + lattice_h / 2.0, lattice_h)
    rho2 = (ax12[:, None] ** 2 + ax12[None, :] ** 2).ravel()
    room = r[:, None] ** (2 * w) - (rho2 ** w)[None, :]
    counts = np.searchsorted(np.sort(gauge * ax3 ** 2), room, side="left").sum(axis=1)
    return counts * lattice_h ** 3


def volume_growth_fit(r_values: Sequence[float], lattice_h: float, group: Group) -> DecayFit:
    """Fit log V(r) against log r; the slope targets Q, the sum of the group's weights."""
    vols = measure_ball_volumes(r_values, lattice_h, group)
    smallest = vols.min() / lattice_h ** 3
    if smallest < VOLUME_MIN_POINTS:
        raise ConfigError(
            f"smallest ball holds only {int(smallest)} lattice points "
            f"(< {VOLUME_MIN_POINTS}); decrease lattice_h"
        )
    return fit_loglog(sorted(r_values), vols)


# ---------------------------------------------------------------------------
# multiplier-kernel reconstruction, exercised through m(lambda) = lambda^s e^{-lambda}
# ---------------------------------------------------------------------------

def kernel_reconstruction_gap(dec: Spectrum, s: float, t: float) -> float:
    """Relative gap between ||J^s h_t||_1 and its convolution reconstruction.

    J^s h_t = (t/2)^{-s} M * h_{t/2} exactly in the spectral calculus, where M
    is the kernel of m((t/2) J) with m(lambda) = lambda^s e^{-lambda}; here the
    right side is reassembled with the discrete group convolution and both L1
    norms are taken over the inner window |x_i| <= RECONSTRUCTION_WINDOW * L.
    """
    from .group import group_convolve

    spec = dec.spec
    lam = dec.eigenvalues
    delta = delta_function(spec)
    svals = positive_power(lam, s)
    direct = dec.apply_values(svals * np.exp(-t * lam), delta)
    m_vals = positive_power((t / 2.0) * lam, s)
    M = dec.apply_values(m_vals * np.exp(-(t / 2.0) * lam), delta)
    ht2 = dec.apply_values(np.exp(-(t / 2.0) * lam), delta)
    recon = group_convolve(M, ht2)
    scale = (t / 2.0) ** (-s)
    coords = spec.node_coordinates()
    window = (np.abs(coords) <= RECONSTRUCTION_WINDOW * spec.extent).all(axis=1)
    w = spec.spacing ** spec.dims
    l1_direct = w * np.abs(direct.values[window]).sum()
    l1_recon = scale * w * np.abs(recon.values[window]).sum()
    return abs(l1_recon - l1_direct) / max(l1_direct, 1e-300)
