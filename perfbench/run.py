"""Benchmark of the subfrac CLI as users run it.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the package from
`src/` and builds nothing.  One closed-loop client runs one job at a time.
Each job is a fresh `python -W always` process (perfbench/job.py) that runs
`subfrac.cli.main` with the workload's arguments and a `--seed` derived from
the benchmark seed and the job's index, so no job reuses another job's
decomposition.  Jobs start while the next one is predicted to finish within
`--seconds`; three import-only processes measure set-up time first.

With `--trace 0` the last line reports the end-to-end metrics; with
`--trace 1` every job runs twice, untraced and then traced, the two reports
must be byte-identical, and the last line reports the per-layer metrics of
the traced runs.  Every job's outputs are checked from outside; see
`check_outputs`.  perfbench/README.md says why each workload is there and
which end-to-end metric each layer metric should move.
"""

import argparse
import hashlib
import json
import math
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from tracer import layer_metrics

ROOT = Path(__file__).resolve().parent.parent
JOB = ROOT / "perfbench" / "job.py"
WORK = ROOT / ".perfbench_work"

# name -> (CLI subcommand, flags); the reasons are in perfbench/README.md
WORKLOADS = {
    "heis15-limit": ("limit", {"mode": "heisenberg", "op": "j1", "n": "15", "L": "4",
                               "s": "0.5", "t": "0.2,0.1,0.05"}),
    "heis9-verify": ("verify-all", {"mode": "heisenberg", "n": "9", "L": "2",
                                    "s": "0.1,0.3,0.5,0.7,0.9", "t": "0.2,0.1,0.05"}),
    "torus2d-verify": ("verify-all", {"mode": "euclidean_torus", "dims": "2", "n": "48",
                                      "L": "10", "s": "0.3,0.5,0.7"}),
}
SETUP_PROBES = 3
JOB_TIMEOUT_S = 150
FALLBACK = re.compile(r"RuntimeWarning: .*not monotone.*falling back")


def job_seed(workload, seed, index):
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode("ascii")).digest()
    return int.from_bytes(digest[:4], "little")


def cpu_clocks():
    """Machine-wide busy and stolen CPU seconds, and those of this process and its children.

    Their change over a job shows how much other work shared the machine.
    """
    with open("/proc/stat", encoding="ascii") as fh:
        user, nice, system, _, _, irq, softirq, steal = map(int, fh.readline().split()[1:9])
    tick = os.sysconf("SC_CLK_TCK")
    ours = sum(getattr(resource.getrusage(who), field)
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
               for field in ("ru_utime", "ru_stime"))
    return (user + nice + system + irq + softirq) / tick, steal / tick, ours


def spawn(stats, trace, argv):
    """Run job.py; return (process result or None on timeout, spawn time)."""
    stats.unlink(missing_ok=True)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "-W", "always", str(JOB), str(stats), str(int(trace)), *argv],
            cwd=ROOT, capture_output=True, text=True, timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, spawned
    return proc, spawned


def read_stats(stats, spawned, problems):
    data = json.loads(stats.read_text())
    if not data["subfrac"].startswith(str(ROOT / "src") + os.sep):
        problems.append(f"subfrac imported from {data['subfrac']}, not from this checkout")
    data["setup_s"] = data["ready"] - spawned
    return data


def probe(work, problems):
    """One import-only process: its set-up time and the machine it saw."""
    stats = work / "probe.json"
    proc, spawned = spawn(stats, False, [])
    if proc is None or proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed:\n{proc.stderr if proc else 'timeout'}")
    return read_stats(stats, spawned, problems)


def _values(text):
    """A config value as the CLI records it: floats where it parses, else the text."""
    try:
        return tuple(float(x) for x in str(text).split(","))
    except ValueError:
        return str(text)


def _read_gf1(path):
    with open(path, "rb") as fh:
        fh.readline()
        return np.frombuffer(fh.read(), dtype="<f8")


def check_outputs(job, kind, options, proc, out):
    """Judge one finished job from outside.

    A job fails on a nonzero exit, a traceback or `error:` line, a FAIL check
    in results.json, a missing or non-finite boundary-limit error, or a
    boundary-limit fallback warning.  Output that contradicts itself (config
    or hash not what was sent, pass flags, exit code and FAIL lines that
    disagree, a reported limit error the written fields do not reproduce) is
    a problem, which makes the run incorrect.
    """
    failures, problems = job["failures"], job["problems"]
    if proc.returncode != 0:
        failures.append(f"exit code {proc.returncode}")
    text = proc.stdout + proc.stderr
    if "Traceback (most recent call last)" in text or re.search(r"^error:", text, re.M):
        failures.append("traceback or error line")
    job["fallbacks"] = len(FALLBACK.findall(proc.stderr))
    if job["fallbacks"]:
        failures.append(f"{job['fallbacks']} boundary-limit fallback warning(s)")
    path = out / kind / "results.json"
    if not path.is_file():
        failures.append("no results.json")
        return
    report = json.loads(path.read_text())["report"]
    job["report"] = json.dumps(report, sort_keys=True)
    config = report["config"]
    for key, sent in dict(options, kind=kind, seed=str(job["seed"])).items():
        if _values(config.get(key)) != _values(sent):
            problems.append(f"config {key}={config.get(key)!r} but {sent!r} was sent")
    blob = "\n".join(f"{k}={v}" for k, v in sorted(config.items()))
    if hashlib.sha256(blob.encode("ascii")).hexdigest() != report["config_hash"]:
        problems.append("config_hash is not the hash of the config")
    failing = sorted(c["name"] for c in report["checks"] if not c["passed"])
    printed = sorted(line[5:].split(":")[0] for line in proc.stdout.splitlines()
                     if line.startswith("FAIL ") and line != "FAIL overall")
    if report["passed"] != (not failing) or printed != failing:
        problems.append("report pass flag, checks and FAIL lines disagree")
    if proc.returncode in (0, 1) and (proc.returncode == 0) != report["passed"]:
        problems.append(f"exit code {proc.returncode} but report passed={report['passed']}")
    failures.extend(f"FAIL {name}" for name in failing)
    job["checks"] = len(report["checks"])
    job["output_bytes"] = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())

    errors = []
    for s in (float(x) for x in options["s"].split(",")):
        name = f"boundary_limit_rel_error_s={s}"
        achieved = next((c["achieved"] for c in report["checks"] if c["name"] == name), None)
        if achieved is None or not math.isfinite(achieved):
            failures.append(f"{name} missing or not finite")
            continue
        fields = [out / kind / f"limit_{which}_s{s!r}.gf1" for which in ("extrapolated", "reference")]
        if not all(f.is_file() for f in fields):
            problems.append(f"{name} reported but its fields were not written")
            continue
        ext, ref = map(_read_gf1, fields)
        recomputed = float(np.linalg.norm(ext - ref) / np.linalg.norm(ref))
        if not math.isclose(recomputed, achieved, rel_tol=1e-9):
            problems.append(f"{name}: reported {achieved!r}, written fields give {recomputed!r}")
        errors.append(achieved)
    if len(errors) == len(options["s"].split(",")):
        job["limit_rel_error"] = max(errors)


def run_job(workload, seed, trace, work):
    kind, options = WORKLOADS[workload]
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    argv = [kind, *(x for k, v in options.items() for x in (f"--{k}", v)),
            "--seed", str(seed), "--out", str(out)]
    job = {"seed": seed, "traced": trace, "failures": [], "problems": []}
    stats = work / "stats.json"
    before = cpu_clocks()
    proc, spawned = spawn(stats, trace, argv)
    busy, job["steal_s"], ours = (b - a for a, b in zip(before, cpu_clocks()))
    job["other_cpu_s"] = busy - ours
    if proc is None:
        job["failures"].append(f"timed out after {JOB_TIMEOUT_S} s")
        return job
    check_outputs(job, kind, options, proc, out)
    if stats.is_file():
        job.update(read_stats(stats, spawned, job["problems"]))
    shutil.rmtree(out, ignore_errors=True)
    return job


def measure(workload, seed, seconds, trace, work):
    """Set-up probes, then jobs until the next is predicted to overrun `seconds`."""
    problems = []
    probes = [probe(work, problems) for _ in range(SETUP_PROBES + 1)][1:]  # first warms caches
    jobs = []
    start = time.monotonic()
    index = 0
    while True:
        s = job_seed(workload, seed, index)
        plain = run_job(workload, s, False, work)
        jobs.append(plain)
        if trace:
            traced = run_job(workload, s, True, work)
            jobs.append(traced)
            if "report" in plain and "report" in traced and plain["report"] != traced["report"]:
                problems.append(f"seed {s}: traced report differs from the untraced one")
        index += 1
        elapsed = time.monotonic() - start
        if elapsed + elapsed / index > seconds:
            return probes, jobs, problems


def median(values, what):
    if not values:
        raise SystemExit(f"error: no job produced {what}")
    return statistics.median(values)


def end_to_end(probes, jobs):
    done = [j for j in jobs if "job_s" in j]
    limit_rel_error = median([j["limit_rel_error"] for j in jobs if "limit_rel_error" in j],
                             "a boundary-limit error")
    return {
        "job_s": median([j["job_s"] for j in done], "a time"),
        "job_cpu_s": median([j["cpu_s"] for j in done], "a CPU time"),
        "setup_s": median([p["setup_s"] for p in probes + done], "a set-up time"),
        "peak_rss_mib": median([j["peak_rss_kib"] / 1024 for j in done], "a memory peak"),
        "limit_rel_error": limit_rel_error,
        # the error varies several-fold with the seeded data; its digits vary little
        "limit_digits": -math.log10(limit_rel_error),
        "fail_frac": sum(1 for j in jobs if j["failures"]) / len(jobs),
    }


def per_layer(jobs):
    traced = [j for j in jobs if j["traced"] and "spans" in j and "report" in j]
    rows = [layer_metrics(j["spans"], j["fallbacks"], j["checks"], j["output_bytes"])
            for j in traced]
    if not rows:
        raise SystemExit("error: no traced job finished")
    metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    plain = {j["seed"]: j["job_s"] for j in jobs if not j["traced"] and "job_s" in j}
    ratios = [j["job_s"] / plain[j["seed"]] for j in traced if j["seed"] in plain]
    metrics["trace.overhead_ratio"] = median(ratios, "an untraced and traced pair")
    metrics["trace.job_s"] = statistics.median(j["job_s"] for j in traced)
    metrics["trace.untraced_job_s"] = median(list(plain.values()), "an untraced time")
    return metrics


def declared_metrics(trace):
    """Metric names and units in the order BENCHMARK.json declares them."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in bench["per_layer" if trace else "end_to_end"]]


UNITS = {"limit_rel_error": "1", "fail_frac": "1", "trace.job_s": "s", "trace.untraced_job_s": "s"}


def run_workload(workload, seed, seconds, trace):
    work = WORK / f"{workload}-{seed}-{int(trace)}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        probes, jobs, problems = measure(workload, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("machine " + json.dumps(probes[0]["machine"], sort_keys=True))
    for j in jobs:
        if "job_s" in j:
            print(f"job seed {j['seed']} traced={int(j['traced'])}: job_s {j['job_s']:.4f} "
                  f"cpu_s {j['cpu_s']:.4f} setup_s {j['setup_s']:.4f} "
                  f"steal_s {j['steal_s']:.2f} other_cpu_s {j['other_cpu_s']:.2f}")
        problems.extend(f"seed {j['seed']}: {p}" for p in j["problems"])
        for f in j["failures"]:
            print(f"job failed: {workload} seed {j['seed']} traced={int(j['traced'])}: {f}")
    for p in problems:
        print(f"problem: {p}")
    computed = per_layer(jobs) if trace else end_to_end(probes, jobs)
    units = dict(UNITS, **dict(declared_metrics(trace)))
    done = sum(1 for j in jobs if "job_s" in j)
    print(f"workload {workload}  seed {seed}  trace {int(trace)}  jobs {len(jobs)} "
          f"({done} timed)  set-up probes {len(probes)}")
    for name, value in computed.items():
        print(f"  {name:28s} {value:.6g} {units[name]}")
    if trace:
        job_s = computed["trace.job_s"]
        print(f"  share of traced job_s: spectral.decompose_s "
              f"{computed['spectral.decompose_s'] / job_s:.1%}, extension.multiplier_s "
              f"{computed['extension.multiplier_s'] / job_s:.1%}")
    failed = sum(1 for j in jobs if j["failures"])
    return not problems, len(jobs), failed, computed


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a terminated run unwinds, so subprocess.run kills and reaps the running job
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if not (ROOT / "src" / "subfrac" / "cli.py").is_file():
        raise SystemExit(f"error: no subfrac sources under {ROOT / 'src'}")

    declared = declared_metrics(args.trace)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in names:
        correct, attempted, failed, computed = run_workload(
            workload, args.seed, args.seconds, args.trace == 1)
        result["correct"] &= correct
        result["attempted"] += attempted
        result["failed"] += failed
        prefix = f"{workload}." if len(names) > 1 else ""
        for name, unit in declared:
            result["metrics"][prefix + name] = {"value": computed[name], "unit": unit}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
