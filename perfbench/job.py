"""One benchmark job: a fresh process that runs `subfrac.cli.main(argv)` once.

    python3 -W always perfbench/job.py STATS TRACE [CLI ARGS...]

Imports the package from the `src/` directory next to this one, notes the
moment the CLI is ready, runs it and writes STATS (JSON): the ready time on
the system-wide monotonic clock, the wall and CPU seconds inside `main`, the
peak resident memory of the process and, when TRACE is 1, the spans.  With
no CLI arguments it only imports and reports the machine, which is how the
benchmark measures set-up time.
"""

import json
import os
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from subfrac import cli  # noqa: E402  (the import is part of set-up time)

ready = time.monotonic()


def _openblas():
    """Version and thread count in effect of every OpenBLAS this process loaded."""
    import ctypes

    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        paths = {fields[5] for fields in map(str.split, fh)
                 if len(fields) == 6 and "openblas" in os.path.basename(fields[5]).lower()}
    found = {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        found[os.path.basename(path)] = {}
        # symbol names of the scipy-openblas wheels (ILP64 and LP64), then upstream's
        for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""),
                               ("openblas_", "64_"), ("openblas_", "")):
            get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_config.restype = ctypes.c_char_p
                found[os.path.basename(path)] = {"config": get_config().decode(),
                                                 "threads": get_threads()}
                break
    return found


def machine():
    import platform

    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own BLAS)

    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _openblas(),
        "blas_env": {k: v for k, v in os.environ.items()
                     if k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main():
    stats_path, trace, argv = Path(sys.argv[1]), sys.argv[2] == "1", sys.argv[3:]
    stats = {"ready": ready, "subfrac": cli.__file__}
    if not argv:
        stats["machine"] = machine()
        stats_path.write_text(json.dumps(stats))
        return 0
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    try:
        return cli.main(argv)
    finally:
        stats["job_s"] = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        stats["cpu_s"] = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        stats["peak_rss_kib"] = after.ru_maxrss
        if tracer is not None:
            stats["spans"] = tracer.spans
        stats_path.write_text(json.dumps(stats))


if __name__ == "__main__":
    sys.exit(main())
