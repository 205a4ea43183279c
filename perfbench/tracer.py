"""Span tracing of the subfrac layers, installed from outside the package.

`Tracer.install` wraps every public function that the modules `stencils`,
`spectral`, `extension`, `fourier`, `group`, `estimates` and `cli` define,
at the module attribute and at the name under which `cli` imported it, plus
the dense apply `SpectralDecomposition.apply_values`.  Internal calls that go
through a module global (extension's own call to `subordination_integral`,
say) are therefore traced too; calls through a name another module imported
before the wrapping are not.  Each call records one span: its name, start,
end, the index of its parent span and, for a few functions, a count taken
from the arguments or the result.  Spans stay in memory until the job ends.

`layer_metrics` turns the spans of one job into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time

MODULES = ("stencils", "spectral", "extension", "fourier", "group", "estimates", "cli")

APPLY = "spectral.SpectralDecomposition.apply_values"

# span name -> count taken from (bound arguments, result)
COUNTS = {
    "stencils.assemble_operator": lambda a, r: r.matrix.nnz,
    "spectral.spectral_decompose": lambda a, r: r.n,
    # computed, not measured: each dense apply streams Q twice (Q^T f, then Q c)
    APPLY: lambda a, r: 2 * a["self"].n ** 2 * 8,
    "extension.extension_multiplier_values": lambda a, r: len(a["lam"]),
    "group.write_gf1": lambda a, r: os.path.getsize(a["path"]),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn):
        count = COUNTS.get(name)
        signature = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._open[-1] if self._open else None,
                    "start": time.perf_counter()}
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if count:
                span["count"] = int(count(signature.bind(*args, **kwargs).arguments, result))
            return result

        return traced

    def install(self):
        cli = importlib.import_module("subfrac.cli")
        for short in MODULES:
            module = importlib.import_module(f"subfrac.{short}")
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                traced = self.wrap(f"{short}.{attr}", obj)
                setattr(module, attr, traced)
                if getattr(cli, attr, None) is obj:
                    setattr(cli, attr, traced)
        spectral = importlib.import_module("subfrac.spectral")
        cls = spectral.SpectralDecomposition
        cls.apply_values = self.wrap(APPLY, cls.apply_values)


def _self_time(spans, index, children):
    """Duration of a span minus the union of its direct children's intervals."""
    span = spans[index]
    covered, reach = 0.0, span["start"]
    for child in sorted((spans[c] for c in children.get(index, ())), key=lambda s: s["start"]):
        start = max(child["start"], reach)
        if child["end"] > start:
            covered += child["end"] - start
            reach = child["end"]
    return span["end"] - span["start"] - covered


def layer_metrics(spans, fallbacks, checks, output_bytes):
    """Per-layer metrics of one traced job.

    `fallbacks` is the number of boundary-limit fallback warnings the job
    printed, `checks` the number of checks in its report and `output_bytes`
    the size of everything it wrote.
    """
    def spans_of(name):
        return [s for s in spans if s["name"] == name]

    def busy(name):
        return sum(s["end"] - s["start"] for s in spans_of(name))

    def calls(name):
        return len(spans_of(name))

    def counted(name):
        return sum(s["count"] for s in spans_of(name))

    children = {}
    for i, s in enumerate(spans):
        children.setdefault(s["parent"], []).append(i)
    # cli self time: every cli span inside cli.run, less the other layers it called
    in_run = set()
    stack = [i for i, s in enumerate(spans) if s["name"] == "cli.run"]
    while stack:
        i = stack.pop()
        if spans[i]["name"].startswith("cli."):
            in_run.add(i)
            stack.extend(children.get(i, ()))
    limits = calls("extension.boundary_limit")
    return {
        "stencils.assemble_s": busy("stencils.assemble_operator"),
        "stencils.nnz": counted("stencils.assemble_operator"),
        "spectral.decompose_s": busy("spectral.spectral_decompose"),
        "spectral.decompose_calls": calls("spectral.spectral_decompose"),
        "spectral.dense_order": counted("spectral.spectral_decompose"),
        "spectral.apply_s": busy(APPLY),
        "spectral.apply_calls": calls(APPLY),
        "spectral.apply_bytes": counted(APPLY),
        "extension.multiplier_s": busy("extension.extension_multiplier_values"),
        "extension.multiplier_calls": calls("extension.extension_multiplier_values"),
        "extension.multiplier_evals": counted("extension.extension_multiplier_values"),
        "extension.quadrature_s": busy("extension.subordination_integral"),
        "extension.quadrature_calls": calls("extension.subordination_integral"),
        "extension.tau_grid_s": busy("extension.extension_solve_tau_grid"),
        "extension.limit_s": busy("extension.boundary_limit"),
        "extension.limit_fallbacks": fallbacks,
        "extension.limit_useful_ratio": (limits - fallbacks) / limits if limits else 0.0,
        "fourier.cross_validate_s": busy("fourier.cross_validate"),
        "fourier.calls": sum(1 for s in spans if s["name"].startswith("fourier.")),
        "group.convolve_s": busy("group.group_convolve"),
        "group.gf1_write_s": busy("group.write_gf1"),
        "group.gf1_bytes": counted("group.write_gf1"),
        "estimates.volume_growth_s": busy("estimates.volume_growth_fit"),
        "cli.self_s": sum(_self_time(spans, i, children) for i in in_run),
        "cli.output_bytes": output_bytes,
        "cli.checks": checks,
    }
