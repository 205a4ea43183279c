"""The benchmark's trace contract: the names perfbench/tracer.py wraps by string.

The tracer wraps functions by module attribute name and counts calls by span
name, so a rename in the package silently zeroes a per-layer metric instead
of failing.  This runs two traced verify-all jobs, on a torus (the FFT
route) and on a small Heisenberg grid (the dense route), and checks that the
spans and counters it relies on are still produced, and that PATH B makes
one quadrature call per job.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

# span names a traced torus verify-all job must produce; the torus runs on
# the FFT diagonalization
TORUS_SPANS = {
    "cli.run",
    "stencils.assemble_operator",
    "extension.extension_multiplier_values",
    "extension.subordination_integral",
    "extension.extension_solve_tau_grid",
    "extension.boundary_limit",
    "fourier.fourier_decompose",
    "group.write_gf1",
}
# and a traced Heisenberg verify-all job, on the dense eigenbasis
HEISENBERG_SPANS = {
    "cli.run",
    "spectral.spectral_decompose",
    "spectral.SpectralDecomposition.apply_values",
    "estimates.volume_growth_fit",
    "group.group_convolve",
}

NONZERO_METRICS = (
    "spectral.decompose_calls",
    "spectral.dense_order",
    "spectral.apply_calls",
    "spectral.apply_bytes",
    "extension.multiplier_calls",
    "extension.multiplier_evals",
    "extension.quadrature_calls",
    "fourier.calls",
)

JOBS = {
    "torus": (["--mode", "euclidean_torus", "--dims", "1", "--n", "32", "--L", "10"],
              TORUS_SPANS),
    "heisenberg": (["--mode", "heisenberg", "--n", "5", "--L", "2"], HEISENBERG_SPANS),
}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_torus_job_feeds_every_layer_metric(tmp_path):
    # the torus job and a small Heisenberg job between them feed every metric
    tracer = _load_tracer()
    metrics = []
    for name, (grid, expected) in JOBS.items():
        stats = tmp_path / f"{name}.json"
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-W", "always", str(PERFBENCH / "job.py"), str(stats), "1",
             "verify-all", *grid, "--s", "0.5", "--t", "0.2,0.1,0.05", "--out", str(out)],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

        spans = json.loads(stats.read_text())["spans"]
        assert expected <= {span["name"] for span in spans}, name
        # PATH B integrates the whole s x t sweep in one quadrature call
        tau_grid = [i for i, span in enumerate(spans)
                    if span["name"] == "extension.extension_solve_tau_grid"]
        assert len(tau_grid) == 1, name
        under = [span for span in spans if span["parent"] == tau_grid[0]
                 and span["name"] == "extension.subordination_integral"]
        assert len(under) == 1, name
        report = json.loads((out / "verify-all" / "results.json").read_text())["report"]
        metrics.append(tracer.layer_metrics(spans, 0, len(report["checks"]), 0))
    for key in NONZERO_METRICS:
        assert any(m[key] > 0 for m in metrics), key
