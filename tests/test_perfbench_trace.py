"""The benchmark's trace contract: the names perfbench/tracer.py wraps by string.

The tracer wraps functions by module attribute name and counts calls by span
name, so a rename in the package silently zeroes a per-layer metric instead
of failing.  This runs one traced benchmark job and checks that the spans
and counters it relies on are still produced.
"""

import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

# span names a traced torus verify-all job must produce
TORUS_SPANS = {
    "cli.run",
    "stencils.assemble_operator",
    "spectral.spectral_decompose",
    "spectral.SpectralDecomposition.apply_values",
    "extension.extension_multiplier_values",
    "extension.subordination_integral",
    "extension.extension_solve_tau_grid",
    "extension.boundary_limit",
    "fourier.cross_validate",
    "group.write_gf1",
}
# wrapped by the tracer too, but reached only by a Heisenberg verify-all
HEISENBERG_ONLY = ("estimates.volume_growth_fit", "group.group_convolve")

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


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_torus_job_feeds_every_layer_metric(tmp_path):
    stats = tmp_path / "stats.json"
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-W", "always", str(PERFBENCH / "job.py"), str(stats), "1",
         "verify-all", "--mode", "euclidean_torus", "--dims", "1", "--n", "32",
         "--L", "10", "--s", "0.5", "--t", "0.2,0.1,0.05", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr

    spans = json.loads(stats.read_text())["spans"]
    assert TORUS_SPANS <= {span["name"] for span in spans}
    for name in HEISENBERG_ONLY:
        module, attr = name.split(".")
        fn = getattr(importlib.import_module(f"subfrac.{module}"), attr)
        assert inspect.isfunction(fn) and fn.__module__ == f"subfrac.{module}"

    checks = json.loads((out / "verify-all" / "results.json").read_text())["report"]["checks"]
    metrics = _load_tracer().layer_metrics(spans, 0, len(checks), 0)
    for key in NONZERO_METRICS:
        assert metrics[key] > 0, key
