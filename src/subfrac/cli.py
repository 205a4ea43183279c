"""Batch experiment runner: assemble, spectrum, frac, heat, extend, limit, verify-all.

Configuration is a flat key=value file plus command-line overrides.  KEYS
holds each config key once: its field, parser, hashed text and flag.  RUNNERS
gives each kind's stages, which run in order on one Run.  A sha256
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
    extrapolation_weights,
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
    check_dense_capacity,
    eigen_probe,
    fractional_power,
    heat_apply,
    heat_kernel_column,
    krylov_spectrum,
    krylov_step_cap,
    krylov_steps,
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
    # the route of every kind but assemble: the euclid operator's transform
    # (`fourier`); for j1 and j3, Lanczos on `limit` (`krylov`), else the dense eigh
    fourier: bool = field(init=False, repr=False, compare=False)
    krylov: bool = field(init=False, repr=False, compare=False)

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
        if self.kind in LIMIT_KINDS:
            if len(self.t_values) < 3:
                raise ConfigError(
                    f"{self.kind} needs at least 3 t values for the boundary limit, "
                    f"got {self.t_values}")
            # an s whose extrapolation is singular raises AccuracyError
            for params in self.sweeps:
                extrapolation_weights(params.t_values[-3:], params.s)
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
        object.__setattr__(self, "fourier", self.op == "euclid")
        object.__setattr__(self, "krylov", self.kind == "limit" and not self.fourier)
        # a grid past its route's capacity is refused before it is assembled
        if self.krylov:
            krylov_steps(self.spec, KRYLOV_START)
        elif self.kind != "assemble" and not self.fourier:
            check_dense_capacity(self.spec)
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
class Run:
    """One CLI run: its config, output directory, checks and wall times.

    The pieces its stages share are built once, on first use: the assembled
    `op`, the seeded `phi`, the diagonalization `dec` and the extension
    `profiles` of each s.
    """

    config: ExperimentConfig
    out_dir: Path
    checks: list = field(default_factory=list)
    wall_clock: dict = field(default_factory=dict)
    # the Krylov route's BLAS threads and its reorthogonalized spectrum's
    # Gram-Schmidt passes and steps; None off that route
    krylov_threads: int | None = None
    gram_schmidt: dict | None = None

    @property
    def spec(self) -> GridSpec:
        return self.config.spec

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

    @functools.cached_property
    def op(self):
        return assemble_operator(self.config.op, self.spec)

    @functools.cached_property
    def phi(self) -> GridFunction:
        return random_bump(self.spec, np.random.default_rng(self.config.seed))

    @functools.cached_property
    def dec(self):
        """Diagonalize the operator: its transform when it is euclid, the dense eigh otherwise.

        Either way, spectrum.csv records the eigenvalues and the probes check
        the result against the assembled matrix.
        """
        op = self.op
        dec = fourier_decompose(op) if self.config.fourier else spectral_decompose(op)
        export_spectrum_csv(dec, self.out_dir / "spectrum.csv")
        self.add_upper("min_eigenvalue_negativity", max(-dec.eigenvalues.min(), 0.0), 0.0)
        orthogonality, residual = eigen_probe(op, dec)
        self.add_upper("eigen_orthogonality_probe", orthogonality, 1e-12)
        self.add_upper("eigen_residual_probe", residual, 1e-12)
        trace = op.matrix.diagonal().sum()
        trace_gap = abs(dec.eigenvalues.sum() - trace)
        self.add_upper("trace_identity_rel", float(trace_gap / max(abs(trace), 1e-300)), 1e-8)
        return dec

    @functools.cached_property
    def profiles(self) -> list:
        return [extension_solve(self.dec, params, self.phi) for params in self.config.sweeps]


def atomic_write_text(path: Path, text: str) -> None:
    with _atomic_open(path) as fh:
        fh.write(text)


def report_payload(run: Run) -> dict:
    """The report subtree of results.json: deterministic, no timestamps."""
    return {
        "config": run.config.flat(),
        "config_hash": run.config.hash(),
        "version": __version__,
        "passed": run.passed,
        "checks": [asdict(c) for c in run.checks],
    }


def report_json(run: Run) -> str:
    return json.dumps(report_payload(run), sort_keys=True, indent=2)


def report_render(run: Run) -> str:
    """Human-readable table; failing lines carry a FAIL prefix."""
    lines = [
        f"experiment {run.config.kind}  mode={run.config.mode}  "
        f"n={run.config.n}  L={run.config.L}  hash={run.config.hash()[:12]}"
    ]
    for c in run.checks:
        tag = "PASS" if c.passed else "FAIL"
        lines.append(
            f"{tag} {c.name}: achieved={c.achieved:.6g} target={c.target:.6g} "
            f"tol={c.tolerance:.3g}"
        )
    lines.append(f"{'PASS' if run.passed else 'FAIL'} overall")
    return "\n".join(lines)


def write_results(run: Run) -> None:
    envelope = {
        "provenance": {
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "wall_clock_s": run.wall_clock,
            # the BLAS threads of the run's dense eigh and applies, and of
            # its Krylov route; None when it took no such route
            "blas": {**blas_thread_api(),
                     "dense_threads": getattr(vars(run).get("dec"), "blas_threads", None),
                     "krylov_threads": run.krylov_threads},
            "gram_schmidt": run.gram_schmidt,
        },
        "report": report_payload(run),
    }
    atomic_write_text(run.out_dir / "results.json",
                      json.dumps(envelope, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def run_assemble(run: Run) -> None:
    op = run.op
    export_matrix_market(op, run.out_dir / "operator.mtx")
    sym_gap = abs(op.matrix - op.matrix.T).max()
    run.add_upper("operator_symmetry_gap", float(sym_gap), 0.0)
    rng = np.random.default_rng(run.config.seed)
    qmin = min(
        float(v @ (op.matrix @ v)) for v in rng.standard_normal((20, run.spec.n_nodes))
    )
    run.add_upper("operator_quadratic_form_min", max(-qmin, 0.0), 1e-10)


def run_spectrum(run: Run) -> None:
    run.dec  # built, written and checked on first use


def run_frac(run: Run) -> None:
    dec, phi = run.dec, run.phi
    for s in run.config.s_values:
        out = fractional_power(dec, s, phi)
        write_gf1(run.out_dir / f"frac_s{s!r}.gf1", out)
        half = fractional_power(dec, s / 2.0, fractional_power(dec, s / 2.0, phi))
        gap = lp_norm(GridFunction(run.spec, half.values - out.values), 2)
        run.add_upper(
            f"fractional_additivity_s={s}", gap / max(lp_norm(out, 2), 1e-300), 1e-10
        )


def run_heat(run: Run) -> None:
    dec, phi = run.dec, run.phi
    ident = heat_apply(dec, 0.0, phi)
    run.add_upper(
        "heat_identity_at_t0",
        float(np.abs(ident.values - phi.values).max()),
        0.0,
    )
    for t in run.config.t_values:
        u = heat_apply(dec, t, phi)
        write_gf1(run.out_dir / f"heat_t{t!r}.gf1", u)
        two_step = heat_apply(dec, t / 2.0, heat_apply(dec, t / 2.0, phi))
        gap = lp_norm(GridFunction(run.spec, two_step.values - u.values), 2)
        run.add_upper(
            f"semigroup_residual_t={t}", gap / max(lp_norm(u, 2), 1e-300), 1e-11
        )
        for p in (1, 2, np.inf):
            run.add_upper(
                f"contraction_p={p}_t={t}",
                max(lp_norm(u, p) - lp_norm(phi, p), 0.0),
                1e-9 * max(lp_norm(phi, p), 1.0),
            )
        if run.spec.periodic:
            col = heat_kernel_column(dec, t)
            run.add_upper(f"kernel_mass_gap_t={t}", abs(integral(col) - 1.0), 1e-9)


def run_extend(run: Run) -> None:
    phi, sweeps = run.phi, run.config.sweeps
    res_tol = 1e-5 if run.spec.mode == "heisenberg" else 1e-6
    phi_norm = max(lp_norm(phi, 2), 1e-300)
    profiles = run.profiles
    # PATH B for the whole sweep: one quadrature grid and one batched apply
    agreements, quad_deltas, grid = path_agreement(run.dec, profiles, phi)
    for params, profile, agreement, quad_delta in zip(sweeps, profiles, agreements,
                                                      quad_deltas):
        s = params.s
        for t, u, du in zip(params.t_values, profile.u, profile.du_dt):
            write_gf1(run.out_dir / f"extend_u_s{s!r}_t{t!r}.gf1", u)
            write_gf1(run.out_dir / f"extend_dudt_s{s!r}_t{t!r}.gf1", du)
        run.add_upper(f"path_a_vs_b_s={s}", agreement, 1e-6)
        run.add_upper(f"path_b_quadrature_delta_s={s}", quad_delta, QUAD_RTOL)
        run.add_upper(f"path_b_quadrature_doublings_s={s}", grid["doublings"],
                      QUAD_DOUBLINGS)
        # ||u(t)||_2 <= ||phi||_2 over the sweep
        run.add_upper(f"non_expansive_s={s}",
                      float(np.max([lp_norm(u, 2) for u in profile.u]) / phi_norm - 1.0),
                      1e-12)
        run.add_upper(f"pde_residual_s={s}", pde_residual(profile), res_tol)
        manifest = {
            "s": s,
            "t_values": list(params.t_values),
            "quadrature": grid,
            "path_agreement": agreement,
            "C_s_used": extension_constant(s),
            "config_hash": run.config.hash(),
        }
        atomic_write_text(
            run.out_dir / f"extend_manifest_s{s!r}.json",
            json.dumps(manifest, sort_keys=True, indent=2) + "\n",
        )


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


def run_limit(run: Run) -> None:
    """The boundary limit of each s.

    A `limit` of a Heisenberg operator takes the Krylov route; the euclid
    operator, which its transform diagonalizes in O(N log N), and verify-all
    read the run's diagonalization and extension profiles.

    On the Krylov route the sparse identity checks J^{-s}(A phi) = J^{1-s} phi
    for each s, with A the assembled matrix: J^{1-s} phi comes from the
    reorthogonalized Ritz spectrum of phi, and J^{-s} from one second
    spectrum, of as many steps, started from A phi and built by the plain
    three-term recurrence, so two algorithms compute the two sides.
    """
    spec, sweeps, phi = run.spec, run.config.sweeps, run.phi
    krylov = run.config.krylov
    if krylov:
        t0 = time.perf_counter()
        dec, gaps, profiles = _krylov_limit_spectrum(run.op, phi, sweeps)
        run.wall_clock["limit_krylov_doubling"] = time.perf_counter() - t0
        run.krylov_threads = dec.blas_threads
        run.gram_schmidt = {"passes": dec.passes, "steps": dec.steps}
        run.add_upper("krylov_orthogonality", dec.orthogonality(), 1e-12)
    else:
        dec, profiles = run.dec, run.profiles
    results = [boundary_limit(dec, profile, phi) for profile in profiles]
    if krylov:
        # the basis of A phi is built only once phi's is dropped, so the run
        # holds one full-length basis at a time
        steps = dec.steps
        psis = [fractional_power(dec, 1.0 - params.s, phi) for params in sweeps]
        del dec
        a_phi = run.op.apply(phi)
        t0 = time.perf_counter()
        kry = krylov_spectrum(run.op, a_phi, steps, reorthogonalize=False)
        run.wall_clock["limit_krylov_plain"] = time.perf_counter() - t0
        identities = [
            _relative_gap(kry.apply_values(positive_power(kry.eigenvalues, -params.s), a_phi), psi)
            for psi, params in zip(psis, sweeps)]
    tol = run.config.tol or (2e-2 if spec.mode == "heisenberg" else 1e-3)
    for i, (params, result) in enumerate(zip(sweeps, results)):
        s, c_s = params.s, extension_constant(params.s)
        run.add_upper(f"C_s_closed_vs_quadrature_s={s}",
                      abs(c_s - extension_constant_quadrature(s)) / c_s, 1e-10)
        if krylov:
            run.add_upper(f"krylov_steps_s={s}", steps, krylov_step_cap(spec))
            run.add_upper(f"krylov_delta_s={s}", gaps[i], KRYLOV_RTOL)
            run.add_upper(f"sparse_identity_s={s}", identities[i], 1e-12)
        write_gf1(run.out_dir / f"limit_extrapolated_s{s!r}.gf1", result.extrapolated)
        write_gf1(run.out_dir / f"limit_reference_s{s!r}.gf1", result.reference)
        rows = ["t,rel_distance_to_extrapolant"]
        for t, wv in zip(result.sweep_t, result.sweep_values):
            d = lp_norm(GridFunction(spec, wv.values - result.extrapolated.values), 2)
            rows.append(f"{t:.17g},{d / max(lp_norm(result.reference, 2), 1e-300):.17g}")
        atomic_write_text(run.out_dir / f"limit_sweep_s{s!r}.csv", "\n".join(rows) + "\n")
        run.add_upper(f"boundary_limit_rel_error_s={s}", result.rel_error, tol)
        run.add_upper(f"boundary_limit_fallback_s={s}", float(result.used_fallback), 0.0)


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


def run_group(run: Run) -> None:
    """The Heisenberg group's algebra, convolution, stencil and volume checks."""
    spec = run.spec
    if spec.mode != "heisenberg":
        return
    rng = np.random.default_rng(run.config.seed)

    # group algebra residuals
    group = spec.group
    mul, dilate, norm = group.mul, group.dilate, group.norm
    x, y, z = rng.uniform(-3, 3, (3, 1000, 3))
    assoc = np.abs(mul(mul(x, y), z) - mul(x, mul(y, z)))
    scale = np.abs(mul(x, mul(y, z))).max() + 1.0
    run.add_upper("group_associativity", float(assoc.max() / scale), 1e-12)
    inv = np.abs(mul(x, group.inverse(x)))
    run.add_upper("group_inverse", float(inv.max()), 1e-12)
    for alpha in (0.5, 2.0, 10.0):
        hom = np.abs(norm(dilate(alpha, x)) - alpha * norm(x))
        run.add_upper(
            f"norm_homogeneity_alpha={alpha}",
            float((hom / (alpha * norm(x) + 1e-300)).max()),
            1e-12,
        )
        auto = np.abs(dilate(alpha, mul(x, y)) - mul(dilate(alpha, x), dilate(alpha, y)))
        run.add_upper(f"dilation_automorphism_alpha={alpha}", float(auto.max() / scale), 1e-12)
    left = np.abs(group.distance(mul(z, x), mul(z, y)) - group.distance(x, y))
    run.add_upper("distance_left_invariance", float(left.max()), 1e-9)
    run.add_upper("commutator_equals_T", *commutator_residual(spec))

    # Young's inequality spot check
    fa = np.abs(random_bump(spec, rng).values)
    ga = np.abs(random_bump(spec, rng).values)
    f1 = GridFunction(spec, fa)
    g1 = GridFunction(spec, ga)
    conv = group_convolve(f1, g1)
    young_gap = lp_norm(conv, 2) - lp_norm(f1, 1) * lp_norm(g1, 2)
    run.add_upper("young_1_2_2", max(young_gap, 0.0), 1e-9)

    # stencil homogeneity under the dilation structure (exact identity)
    def smooth(x1, x2, x3):
        return np.sin(x1) / (1.0 + x2 * x2) + np.cos(x3) * x1

    for kind in group.fields:
        run.add_upper(
            f"homogeneity_{kind}", check_homogeneity(kind, smooth, 2.0, spec), 1e-12
        )

    # homogeneous-ball volume growth (grid-independent lattice count)
    fit = volume_growth_fit(np.geomspace(1.0, 4.0, 6), 0.05, group)
    run.add("volume_growth_slope", fit.fitted_slope, sum(group.weights), 0.3)
    control = volume_growth_fit(np.geomspace(1.0, 4.0, 6), 0.05, GROUPS["euclidean_box"])
    run.add("volume_growth_euclid_control", control.fitted_slope, 3.0, 0.2)


# the stages of each kind, run in order on one Run
RUNNERS = {
    "assemble": (run_assemble,),
    "spectrum": (run_spectrum,),
    "frac": (run_frac,),
    "heat": (run_heat,),
    "extend": (run_extend,),
    "limit": (run_limit,),
    "verify-all": (run_group, run_spectrum, run_frac, run_heat, run_extend, run_limit),
}
EXPERIMENT_KINDS = tuple(RUNNERS)


def run(config: ExperimentConfig) -> Run:
    """Run and time each stage of the kind, then time the whole run under the kind's name."""
    out_dir = Path(config.out) / config.kind
    out_dir.mkdir(parents=True, exist_ok=True)
    current = Run(config, out_dir)
    start = time.perf_counter()
    for stage in RUNNERS[config.kind]:
        t0 = time.perf_counter()
        stage(current)
        current.wall_clock[stage.__name__.removeprefix("run_")] = time.perf_counter() - t0
    current.wall_clock[config.kind] = time.perf_counter() - start
    write_results(current)
    return current


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
        finished = run(config_from_args(args))
    except SubfracError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report_render(finished))
    return 0 if finished.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
