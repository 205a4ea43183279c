"""Batch experiment runner: assemble, spectrum, frac, heat, extend, limit, verify-all.

Configuration is a flat key=value file plus command-line overrides.  KEYS
holds each config key once: its field, parser, hashed text and flag.  A sha256
hash of the flat config is embedded in the run report and manifests for
provenance.  Two runs with the same config and seed produce a
bitwise-identical "report" subtree in results.json; timestamps and wall-clock
live in a separate "provenance" field excluded from the hash.  Output files
are written atomically (temp + rename).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .errors import ConfigError, SubfracError
from .estimates import volume_growth_fit
from .extension import (
    QUAD_DOUBLINGS,
    QUAD_RTOL,
    ExtensionParams,
    boundary_limit,
    extension_constant,
    extension_constant_quadrature,
    extension_solve,
    path_agreement,
    pde_residual,
)
from .fourier import fourier_decompose
from .group import (
    _atomic_open,
    GROUPS,
    MODES,
    GridFunction,
    GridSpec,
    group_convolve,
    integral,
    lp_norm,
    random_bump,
    write_gf1,
)
from .spectral import (
    blas_thread_api,
    eigen_probe,
    fractional_power,
    heat_apply,
    heat_kernel_column,
    krylov_spectrum,
    krylov_step_cap,
    positive_power,
    spectral_decompose,
    export_spectrum_csv,
)
from .stencils import (
    apply_multi_index,
    assemble_operator,
    check_homogeneity,
    export_matrix_market,
)

# the kinds that solve the extension problem over the t sweep, and those of
# them that take its boundary limit (EXPERIMENT_KINDS, every kind, is RUNNERS' keys)
EXTENSION_KINDS = ("extend", "limit", "verify-all")
LIMIT_KINDS = ("limit", "verify-all")

# the Krylov route of `limit`: first basis size, and the agreement of the
# boundary-limit outputs between k/2 and k steps at which the doubling stops
KRYLOV_START = 32
KRYLOV_RTOL = 1e-10

# the grid and operator of each mode, where the config leaves them out.
# Euclidean grids default to a wide extent so the standard sweeps sit in the
# asymptotic regime of smooth seeded data; a box needs an odd n, so that the
# origin is a node
MODE_DEFAULTS = {
    "heisenberg": {"op": "j1", "n": 9, "L": 2.0, "dims": 3},
    "euclidean_box": {"op": "euclid", "n": 65, "L": 10.0, "dims": 1},
    "euclidean_torus": {"op": "euclid", "n": 64, "L": 10.0, "dims": 1},
}


def _parse_floats(text: str) -> tuple:
    try:
        values = tuple(float(x) for x in text.split(",") if x)
    except ValueError as exc:
        raise ConfigError(f"bad float list {text!r}") from exc
    if not all(np.isfinite(values)):
        raise ConfigError(f"float list {text!r} has a non-finite value")
    return values


def _parse_tol(text: str) -> float:
    tol = float(text)
    if not 0.0 < tol < np.inf:  # a 0 would read as the default of the mode
        raise ConfigError(f"tol must be finite and > 0, got {tol}")
    return tol


def _float_text(value) -> str:
    return repr(float(value))


def _floats_text(values) -> str:
    return ",".join(map(_float_text, values))


class Key(NamedTuple):
    """One config key: the ExperimentConfig field it sets, the parser of its
    text (in a config file and as a flag), its text in the hashed config (None
    when it is not hashed) and the argparse options of its flag beyond `type`."""

    field: str
    parse: Callable = str
    text: Callable | None = str
    flag: dict = {}


KEYS = {
    # the positional KIND, which overrides a config file's kind=
    "kind": Key("kind"),
    "mode": Key("mode", flag={"choices": MODES}),
    "op": Key("op", flag={"choices": tuple(dict.fromkeys(
        op for g in GROUPS.values() for op in g.operators))}),
    "n": Key("n", int),
    "L": Key("L", float, _float_text),
    "dims": Key("dims", int, flag={"choices": sorted(
        {d for g in GROUPS.values() for d in g.dims})}),
    "s": Key("s_values", _parse_floats, _floats_text,
             {"help": "comma-separated s values in (0,1)"}),
    "t": Key("t_values", _parse_floats, _floats_text,
             {"help": "comma-separated descending t values"}),
    "tol": Key("tol", _parse_tol, _float_text,
               {"help": "bound of the boundary_limit_rel_error_s=* checks "
                        "(default 2e-2 on heisenberg, 1e-3 otherwise); "
                        "every other check keeps its own bound"}),
    "seed": Key("seed", int),
    # where a run writes is no part of what it computes
    "out": Key("out", text=None),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One run's settings; op, n, L and dims left as None take MODE_DEFAULTS[mode]."""

    kind: str
    mode: str = "heisenberg"
    op: str | None = None
    n: int | None = None
    L: float | None = None
    dims: int | None = None
    s_values: tuple = (0.5,)
    t_values: tuple = (0.2, 0.1, 0.05)
    tol: float = 0.0  # boundary-limit bound; 0 means the default of the mode
    seed: int = 1234
    out: str = "runs"
    spec: GridSpec = field(init=False, repr=False, compare=False)
    # the ExtensionParams of each s on the extension kinds, empty on the others
    sweeps: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}; expected one of "
                              f"{EXPERIMENT_KINDS}")
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        for key, value in MODE_DEFAULTS[self.mode].items():
            if getattr(self, key) is None:
                object.__setattr__(self, key, value)
        for key, values in (("s", self.s_values), ("t", self.t_values)):
            if not values:
                raise ConfigError(f"the {key} sweep is empty")
            # each value names its checks and output files, so a repeat would
            # report one check twice and overwrite its files
            if len(set(values)) != len(values):
                raise ConfigError(f"the {key} sweep repeats a value: {values}")
        if self.op not in GROUPS[self.mode].operators:
            raise ConfigError(f"{self.mode} grids carry the operators "
                              f"{tuple(GROUPS[self.mode].operators)}, got op={self.op}")
        if not 0.0 <= self.tol < np.inf:
            raise ConfigError(f"tol must be finite and >= 0, got {self.tol}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        # the sweeps the extension kinds run, and the three points the limit
        # extrapolates from, are checked here, before any decomposition is
        # paid for or file written
        object.__setattr__(self, "sweeps", tuple(
            ExtensionParams(s=s, t_values=self.t_values) for s in self.s_values
        ) if self.kind in EXTENSION_KINDS else ())
        if self.kind in LIMIT_KINDS and len(self.t_values) < 3:
            raise ConfigError(
                f"{self.kind} needs at least 3 t values for the boundary limit, "
                f"got {self.t_values}")
        if self.kind == "frac":
            for s in self.s_values:
                if s <= 0:
                    raise ConfigError(f"fractional power needs s > 0, got {s}")
        # a bad grid is refused here too, before run() makes the output directory
        object.__setattr__(self, "spec", GridSpec(n_per_axis=self.n, extent=self.L,
                                                  dims=self.dims, mode=self.mode))
        # heat takes any order of t, but H_t needs t >= 0 and the kernel
        # column of the torus checks t > 0
        if self.kind == "heat":
            for t in self.t_values:
                if t < 0:
                    raise ConfigError(f"heat semigroup needs t >= 0, got {t}")
                if t == 0 and self.spec.periodic:
                    raise ConfigError(f"the torus kernel column needs t > 0, got {t}")
        if self.kind == "verify-all" and self.mode == "heisenberg":
            # the commutator check reads the nodes two steps inside every
            # face, and the norms of the Young check grow like L^4.5
            if self.n < 5:
                raise ConfigError(f"heisenberg verify-all needs n >= 5, got n={self.n}")
            if not self.L < np.finfo(float).max ** 0.2:
                raise ConfigError(f"heisenberg verify-all needs L^5 to be a double, got L={self.L}")

    def flat(self) -> dict:
        """The hashed config: the text of each hashed key."""
        return {name: key.text(getattr(self, key.field))
                for name, key in KEYS.items() if key.text}

    def hash(self) -> str:
        blob = "\n".join(f"{k}={v}" for k, v in sorted(self.flat().items()))
        return hashlib.sha256(blob.encode("ascii")).hexdigest()


@dataclass
class CheckResult:
    name: str
    achieved: float
    target: float
    tolerance: float
    passed: bool


@dataclass
class RunReport:
    config: ExperimentConfig
    checks: list = field(default_factory=list)
    wall_clock: dict = field(default_factory=dict)
    # the BLAS thread count of the run's dense eigh and applies; None when it ran none
    dense_threads: int | None = None

    def add(self, name: str, achieved: float, target: float, tolerance: float) -> None:
        ok = abs(achieved - target) <= tolerance
        self.checks.append(CheckResult(name, float(achieved), float(target), float(tolerance),
                                       bool(ok)))

    def add_upper(self, name: str, achieved: float, bound: float) -> None:
        """Check of the form achieved <= bound."""
        self.checks.append(CheckResult(name, float(achieved), 0.0, float(bound),
                                       bool(achieved <= bound)))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def atomic_write_text(path: Path, text: str) -> None:
    with _atomic_open(path) as fh:
        fh.write(text)


def report_payload(report: RunReport) -> dict:
    """The report subtree of results.json: deterministic, no timestamps."""
    return {
        "config": report.config.flat(),
        "config_hash": report.config.hash(),
        "version": __version__,
        "passed": report.passed,
        "checks": [asdict(c) for c in report.checks],
    }


def report_json(report: RunReport) -> str:
    return json.dumps(report_payload(report), sort_keys=True, indent=2)


def report_render(report: RunReport) -> str:
    """Human-readable table; failing lines carry a FAIL prefix."""
    lines = [
        f"experiment {report.config.kind}  mode={report.config.mode}  "
        f"n={report.config.n}  L={report.config.L}  hash={report.config.hash()[:12]}"
    ]
    for c in report.checks:
        tag = "PASS" if c.passed else "FAIL"
        lines.append(
            f"{tag} {c.name}: achieved={c.achieved:.6g} target={c.target:.6g} "
            f"tol={c.tolerance:.3g}"
        )
    lines.append(f"{'PASS' if report.passed else 'FAIL'} overall")
    return "\n".join(lines)


def write_results(report: RunReport, out_dir: Path) -> None:
    envelope = {
        "provenance": {
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "wall_clock_s": report.wall_clock,
            "blas": {**blas_thread_api(), "dense_threads": report.dense_threads},
        },
        "report": report_payload(report),
    }
    atomic_write_text(out_dir / "results.json", json.dumps(envelope, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _phi(config: ExperimentConfig, spec: GridSpec) -> GridFunction:
    return random_bump(spec, np.random.default_rng(config.seed))


def run_assemble(config: ExperimentConfig, report: RunReport, out_dir: Path) -> None:
    spec = config.spec
    op = assemble_operator(config.op, spec)
    export_matrix_market(op, out_dir / "operator.mtx")
    sym_gap = abs(op.matrix - op.matrix.T).max()
    report.add_upper("operator_symmetry_gap", float(sym_gap), 0.0)
    rng = np.random.default_rng(config.seed)
    qmin = min(
        float(v @ (op.matrix @ v)) for v in rng.standard_normal((20, spec.n_nodes))
    )
    report.add_upper("operator_quadratic_form_min", max(-qmin, 0.0), 1e-10)


def run_spectrum(config: ExperimentConfig, report: RunReport, out_dir: Path):
    """Diagonalize the operator: the FFT on a torus, the dense eigh otherwise.

    Either way, the probes check the result against the assembled matrix.
    """
    spec = config.spec
    op = assemble_operator(config.op, spec)
    if spec.periodic:
        dec = fourier_decompose(op)
    else:
        dec = spectral_decompose(op)
        report.dense_threads = dec.blas_threads
    export_spectrum_csv(dec, out_dir / "spectrum.csv")
    report.add_upper("min_eigenvalue_negativity", max(-dec.eigenvalues.min(), 0.0), 0.0)
    orthogonality, residual = eigen_probe(op, dec)
    report.add_upper("eigen_orthogonality_probe", orthogonality, 1e-12)
    report.add_upper("eigen_residual_probe", residual, 1e-12)
    trace = op.matrix.diagonal().sum()
    trace_gap = abs(dec.eigenvalues.sum() - trace)
    report.add_upper("trace_identity_rel", float(trace_gap / max(abs(trace), 1e-300)), 1e-8)
    return dec


def run_frac(config: ExperimentConfig, report: RunReport, out_dir: Path, dec,
             phi: GridFunction) -> None:
    spec = config.spec
    for s in config.s_values:
        out = fractional_power(dec, s, phi)
        write_gf1(out_dir / f"frac_s{s!r}.gf1", out)
        half = fractional_power(dec, s / 2.0, fractional_power(dec, s / 2.0, phi))
        gap = lp_norm(GridFunction(spec, half.values - out.values), 2)
        report.add_upper(
            f"fractional_additivity_s={s}", gap / max(lp_norm(out, 2), 1e-300), 1e-10
        )


def run_heat(config: ExperimentConfig, report: RunReport, out_dir: Path, dec,
             phi: GridFunction) -> None:
    spec = config.spec
    ident = heat_apply(dec, 0.0, phi)
    report.add_upper(
        "heat_identity_at_t0",
        float(np.abs(ident.values - phi.values).max()),
        0.0,
    )
    for t in config.t_values:
        u = heat_apply(dec, t, phi)
        write_gf1(out_dir / f"heat_t{t!r}.gf1", u)
        two_step = heat_apply(dec, t / 2.0, heat_apply(dec, t / 2.0, phi))
        gap = lp_norm(GridFunction(spec, two_step.values - u.values), 2)
        report.add_upper(
            f"semigroup_residual_t={t}", gap / max(lp_norm(u, 2), 1e-300), 1e-11
        )
        for p in (1, 2, np.inf):
            report.add_upper(
                f"contraction_p={p}_t={t}",
                max(lp_norm(u, p) - lp_norm(phi, p), 0.0),
                1e-9 * max(lp_norm(phi, p), 1.0),
            )
        if spec.periodic:
            col = heat_kernel_column(dec, t)
            report.add_upper(f"kernel_mass_gap_t={t}", abs(integral(col) - 1.0), 1e-9)


def run_extend(config: ExperimentConfig, report: RunReport, out_dir: Path, dec,
               phi: GridFunction) -> list:
    """The extend checks of each s; returns the extension profile of each s."""
    spec = config.spec
    res_tol = 1e-5 if spec.mode == "heisenberg" else 1e-6
    phi_norm = max(lp_norm(phi, 2), 1e-300)
    profiles = [extension_solve(dec, params, phi) for params in config.sweeps]
    # PATH B for the whole sweep: one quadrature grid and one batched apply
    agreements, quad_deltas, grid = path_agreement(dec, profiles, phi)
    for params, profile, agreement, quad_delta in zip(config.sweeps, profiles, agreements,
                                                      quad_deltas):
        s = params.s
        for t, u, du in zip(params.t_values, profile.u, profile.du_dt):
            write_gf1(out_dir / f"extend_u_s{s!r}_t{t!r}.gf1", u)
            write_gf1(out_dir / f"extend_dudt_s{s!r}_t{t!r}.gf1", du)
        report.add_upper(f"path_a_vs_b_s={s}", agreement, 1e-6)
        report.add_upper(f"path_b_quadrature_delta_s={s}", quad_delta, QUAD_RTOL)
        report.add_upper(f"path_b_quadrature_doublings_s={s}", grid["doublings"],
                         QUAD_DOUBLINGS)
        # ||u(t)||_2 <= ||phi||_2 over the sweep
        report.add_upper(f"non_expansive_s={s}",
                         float(np.max([lp_norm(u, 2) for u in profile.u]) / phi_norm - 1.0),
                         1e-12)
        report.add_upper(f"pde_residual_s={s}", pde_residual(profile), res_tol)
        manifest = {
            "s": s,
            "t_values": list(params.t_values),
            "quadrature": grid,
            "path_agreement": agreement,
            "C_s_used": extension_constant(s),
            "config_hash": config.hash(),
        }
        atomic_write_text(
            out_dir / f"extend_manifest_s{s!r}.json",
            json.dumps(manifest, sort_keys=True, indent=2) + "\n",
        )
    return profiles


def _relative_gap(a: GridFunction, b: GridFunction) -> float:
    return float(np.linalg.norm(a.values - b.values) / max(np.linalg.norm(b.values), 1e-300))


def _krylov_limit_spectrum(op, phi: GridFunction, sweeps: list):
    """The Ritz spectrum of phi on which every boundary limit in `sweeps` has converged.

    The steps k start at KRYLOV_START and double until, for every sweep, the
    extrapolated and reference fields of the k/2-step spectrum agree with
    those of the k-step one to KRYLOV_RTOL, or until the basis is
    exhaustive, when the Ritz spectrum is exact and each gap is 0.  Each
    doubling continues the Lanczos recurrence of the last basis, so the
    k/2-step spectrum is the previous level and its limits are kept, not
    recomputed.  Returns the spectrum, the gap of each sweep and the
    extension profile of each sweep on that spectrum.
    """
    kry, previous = krylov_spectrum(op, phi, KRYLOV_START), None
    while True:
        profiles = [extension_solve(kry, params, phi) for params in sweeps]
        if kry.exhaustive:
            return kry, [0.0] * len(sweeps), profiles
        # these limits only test convergence; the reported ones are computed
        # again on the final spectrum, where a fallback warning is real
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            current = [boundary_limit(kry, profile, phi) for profile in profiles]
        if previous is not None:
            gaps = [max(_relative_gap(part.extrapolated, full.extrapolated),
                        _relative_gap(part.reference, full.reference))
                    for part, full in zip(previous, current)]
            if max(gaps) <= KRYLOV_RTOL:
                return kry, gaps, profiles
        previous = current
        kry = kry.extended(op, 2 * kry.steps)


def run_limit(config: ExperimentConfig, report: RunReport, out_dir: Path, dec=None,
              profiles=None, phi=None) -> None:
    """The boundary limit of each s.

    Without a decomposition handed in, a Dirichlet grid (lambda_min > 0)
    takes the Krylov route; a torus, whose zero mode the Ritz values resolve
    slowly, takes the FFT diagonalization of run_spectrum.  `profiles`, one
    per s, are extension profiles of dec and this run's phi, to be read
    instead of built again, and `phi` is that seeded phi when the caller
    built it already.

    On the Krylov route the sparse identity checks J^{-s}(A phi) = J^{1-s} phi
    for each s, with A the assembled matrix: J^{1-s} phi comes from the
    reorthogonalized Ritz spectrum of phi, and J^{-s} from one second
    spectrum, of as many steps, started from A phi and built by the plain
    three-term recurrence, so two algorithms compute the two sides.
    """
    spec = config.spec
    phi = _phi(config, spec) if phi is None else phi
    sweeps = config.sweeps
    krylov = dec is None and not spec.periodic
    if krylov:
        op = assemble_operator(config.op, spec)
        t0 = time.perf_counter()
        dec, gaps, profiles = _krylov_limit_spectrum(op, phi, sweeps)
        report.wall_clock["limit_krylov_doubling"] = time.perf_counter() - t0
        report.add_upper("krylov_orthogonality", dec.orthogonality(), 1e-12)
    elif dec is None:
        dec = run_spectrum(config, report, out_dir)
    if not profiles:
        profiles = [extension_solve(dec, params, phi) for params in sweeps]
    results = [boundary_limit(dec, profile, phi) for profile in profiles]
    if krylov:
        # the basis of A phi is built only once phi's is dropped, so the run
        # holds one full-length basis at a time
        steps = dec.steps
        psis = [fractional_power(dec, 1.0 - params.s, phi) for params in sweeps]
        del dec
        a_phi = op.apply(phi)
        t0 = time.perf_counter()
        kry = krylov_spectrum(op, a_phi, steps, reorthogonalize=False)
        report.wall_clock["limit_krylov_plain"] = time.perf_counter() - t0
        identities = [
            _relative_gap(kry.apply_values(positive_power(kry.eigenvalues, -params.s), a_phi), psi)
            for psi, params in zip(psis, sweeps)]
    tol = config.tol or (2e-2 if spec.mode == "heisenberg" else 1e-3)
    for i, (params, result) in enumerate(zip(sweeps, results)):
        s, c_s = params.s, extension_constant(params.s)
        report.add_upper(f"C_s_closed_vs_quadrature_s={s}",
                         abs(c_s - extension_constant_quadrature(s)) / c_s, 1e-10)
        if krylov:
            report.add_upper(f"krylov_steps_s={s}", steps, krylov_step_cap(spec))
            report.add_upper(f"krylov_delta_s={s}", gaps[i], KRYLOV_RTOL)
            report.add_upper(f"sparse_identity_s={s}", identities[i], 1e-12)
        write_gf1(out_dir / f"limit_extrapolated_s{s!r}.gf1", result.extrapolated)
        write_gf1(out_dir / f"limit_reference_s{s!r}.gf1", result.reference)
        rows = ["t,rel_distance_to_extrapolant"]
        for t, wv in zip(result.sweep_t, result.sweep_values):
            d = lp_norm(GridFunction(spec, wv.values - result.extrapolated.values), 2)
            rows.append(f"{t:.17g},{d / max(lp_norm(result.reference, 2), 1e-300):.17g}")
        atomic_write_text(out_dir / f"limit_sweep_s{s!r}.csv", "\n".join(rows) + "\n")
        report.add_upper(f"boundary_limit_rel_error_s={s}", result.rel_error, tol)
        report.add_upper(f"boundary_limit_fallback_s={s}", float(result.used_fallback), 0.0)


def commutator_residual(spec: GridSpec) -> tuple[float, float]:
    """The residual of [X1, X2] f = T f on f = x1 x2 + x3, and its bound.

    The stencils are exact on f, so on the nodes two steps inside every face
    the residual is roundoff, below 4 eps (1 + m)^2 max|f| / h^2 with m the
    largest |x1| or |x2| there.  The bound is that or 1e-10; from L ~ 2e7 at
    n = 11 it passes 1, and the check can no longer resolve an O(1) error.
    """
    coords = spec.node_coordinates()
    f = GridFunction(spec, coords[:, 0] * coords[:, 1] + coords[:, 2])
    ab = apply_multi_index(["X1", "X2"], f).values
    ba = apply_multi_index(["X2", "X1"], f).values
    tf = apply_multi_index(["T"], f).values
    inner = spec.interior(2)
    m = np.abs(coords[inner, :2]).max()
    roundoff = (1.0 + m) ** 2 * np.abs(f.values[inner]).max() / spec.spacing ** 2
    bound = max(1e-10, 4.0 * np.finfo(float).eps * roundoff)
    return float(np.abs((ab - ba - tf)[inner]).max()), float(bound)


def run_verify_all(config: ExperimentConfig, report: RunReport, out_dir: Path) -> None:
    spec = config.spec
    rng = np.random.default_rng(config.seed)

    if spec.mode == "heisenberg":
        # group algebra residuals
        group = spec.group
        mul, dilate, norm = group.mul, group.dilate, group.norm
        x, y, z = rng.uniform(-3, 3, (3, 1000, 3))
        assoc = np.abs(mul(mul(x, y), z) - mul(x, mul(y, z)))
        scale = np.abs(mul(x, mul(y, z))).max() + 1.0
        report.add_upper("group_associativity", float(assoc.max() / scale), 1e-12)
        inv = np.abs(mul(x, group.inverse(x)))
        report.add_upper("group_inverse", float(inv.max()), 1e-12)
        for alpha in (0.5, 2.0, 10.0):
            hom = np.abs(norm(dilate(alpha, x)) - alpha * norm(x))
            report.add_upper(
                f"norm_homogeneity_alpha={alpha}",
                float((hom / (alpha * norm(x) + 1e-300)).max()),
                1e-12,
            )
            auto = np.abs(dilate(alpha, mul(x, y)) - mul(dilate(alpha, x), dilate(alpha, y)))
            report.add_upper(f"dilation_automorphism_alpha={alpha}", float(auto.max() / scale), 1e-12)
        left = np.abs(group.distance(mul(z, x), mul(z, y)) - group.distance(x, y))
        report.add_upper("distance_left_invariance", float(left.max()), 1e-9)
        report.add_upper("commutator_equals_T", *commutator_residual(spec))

        # Young's inequality spot check
        fa = np.abs(random_bump(spec, rng).values)
        ga = np.abs(random_bump(spec, rng).values)
        f1 = GridFunction(spec, fa)
        g1 = GridFunction(spec, ga)
        conv = group_convolve(f1, g1)
        young_gap = lp_norm(conv, 2) - lp_norm(f1, 1) * lp_norm(g1, 2)
        report.add_upper("young_1_2_2", max(young_gap, 0.0), 1e-9)

        # stencil homogeneity under the dilation structure (exact identity)
        def smooth(x1, x2, x3):
            return np.sin(x1) / (1.0 + x2 * x2) + np.cos(x3) * x1

        for kind in group.fields:
            report.add_upper(
                f"homogeneity_{kind}", check_homogeneity(kind, smooth, 2.0, spec), 1e-12
            )

        # homogeneous-ball volume growth (grid-independent lattice count)
        fit = volume_growth_fit(np.geomspace(1.0, 4.0, 6), 0.05, group)
        report.add("volume_growth_slope", fit.fitted_slope, sum(group.weights), 0.3)
        control = volume_growth_fit(np.geomspace(1.0, 4.0, 6), 0.05, GROUPS["euclidean_box"])
        report.add("volume_growth_euclid_control", control.fitted_slope, 3.0, 0.2)

    def timed(stage, runner, *args):
        t0 = time.perf_counter()
        out = runner(config, report, out_dir, *args)
        report.wall_clock[stage] = time.perf_counter() - t0
        return out

    dec = timed("spectrum", run_spectrum)
    # one seeded phi for every stage, as each would build the same one
    phi = _phi(config, spec)
    timed("frac", run_frac, dec, phi)
    timed("heat", run_heat, dec, phi)
    profiles = timed("extend", run_extend, dec, phi)
    timed("limit", run_limit, dec, profiles, phi)


def _standalone(runner):
    """runner as a kind of its own, on the run's spectrum and seeded phi."""
    return lambda config, report, out_dir: runner(
        config, report, out_dir, run_spectrum(config, report, out_dir), _phi(config, config.spec))


RUNNERS = {
    "assemble": run_assemble,
    "spectrum": run_spectrum,
    "frac": _standalone(run_frac),
    "heat": _standalone(run_heat),
    "extend": _standalone(run_extend),
    "limit": run_limit,
    "verify-all": run_verify_all,
}
EXPERIMENT_KINDS = tuple(RUNNERS)


def run(config: ExperimentConfig) -> RunReport:
    report = RunReport(config=config)
    out_dir = Path(config.out) / config.kind
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    RUNNERS[config.kind](config, report, out_dir)
    report.wall_clock[config.kind] = time.perf_counter() - t0
    write_results(report, out_dir)
    return report


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _flag_type(parse: Callable) -> Callable:
    """parse for argparse, which reports a ConfigError as a usage error."""
    @functools.wraps(parse)  # argparse names the type in "invalid int value"
    def convert(text: str):
        try:
            return parse(text)
        except ConfigError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return convert


def _read_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    values = {}
    for line_no, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subfrac",
        usage="%(prog)s KIND [flags]",
        description="Fractional sub-Laplacians by heat-semigroup subordination: "
                    "experiments and verification batteries.",
    )
    parser.add_argument("kind", choices=EXPERIMENT_KINDS, help="the experiment to run")
    parser.add_argument("--config", help="flat key=value config file, which flags override")
    for name, key in KEYS.items():
        if name != "kind":
            parser.add_argument(f"--{name}", type=_flag_type(key.parse), **key.flag)
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    values = {}
    if args.config:
        for name, text in _read_config_file(args.config).items():
            if name not in KEYS:
                raise ConfigError(f"unknown config key {name!r}")
            try:
                values[name] = KEYS[name].parse(text)
            except ValueError as exc:
                raise ConfigError(f"{args.config}: bad value for {name!r}: {exc}") from exc
    values.update((name, getattr(args, name)) for name in KEYS
                  if getattr(args, name) is not None)
    return ExperimentConfig(**{KEYS[name].field: value for name, value in values.items()})


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        report = run(config)
    except SubfracError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report_render(report))
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
