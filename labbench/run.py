#!/usr/bin/env python3
"""zarank benchmark: one workload per run, closed loop, exact checks.

Usage, from the repository root:

    python3 labbench/run.py --workload sweep-predicates --seed 0 \
        --seconds 15 --trace 0

The run imports `zarank` from `src/` next to this directory, makes the
workload's inputs from the seed, and repeats passes over the workload's
jobs until the passes' walls add up to `--seconds`.  Every output is
checked exactly, untimed, as soon as its pass ends.  The end-to-end times
are scaled to reference speed by a reference loop timed beside them
(reference.py).  The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json.  `--trace
1` alternates untraced and traced passes and reports the per-layer
metrics, including the tracing overhead (traced minus untraced median
pass wall).

A human-readable summary and the environment go to standard error; the
full record, with every span of a traced run, goes to
`.bench_out/<workload>-seed<seed>-trace<0|1>.json`.

`--record-goldens` re-runs the sweeps once at the default seed, checks
them with the naive oracles, and rewrites labbench/goldens.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

# Set-up samples per run: this process plus fresh interpreters.
SETUP_SAMPLES = 9
CHILD_TIMEOUT = 60
# Seconds of job time between two reference-loop samples in a pass.
REF_INTERVAL_S = 0.5

sys.path.insert(0, HERE)
import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def fail(message: str) -> None:
    print(f"labbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_zarank():
    """Import every zarank module from the checkout's src/."""
    sys.path.insert(0, SRC)
    import zarank.bounds
    import zarank.cli
    import zarank.exactnum
    import zarank.experiments
    import zarank.geometry
    import zarank.kernels
    import zarank.partition
    import zarank.polynomials
    if os.path.dirname(os.path.abspath(zarank.__file__)) != \
            os.path.join(SRC, "zarank"):
        fail(f"imported zarank from {zarank.__file__}, not from {SRC}")
    return types.SimpleNamespace(
        cli=zarank.cli, experiments=zarank.experiments,
        geometry=zarank.geometry, kernels=zarank.kernels,
        partition=zarank.partition, polynomials=zarank.polynomials,
        bounds=zarank.bounds, exactnum=zarank.exactnum)


def timed_setup(workload: str, seed: int, workdir: str):
    """(seconds, zarank namespace, jobs): import zarank and make inputs."""
    t0 = time.perf_counter()
    z = import_zarank()
    jobs = workloads.setup(workload, seed, z, workdir)
    return time.perf_counter() - t0, z, jobs


def setup_in_child(workload: str, seed: int) -> tuple[float, float]:
    """(set-up seconds, reference loop seconds) in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        fail(f"set-up in a fresh interpreter failed: {proc.stderr.strip()}")
    raw, loop_s = proc.stdout.strip().splitlines()[-1].split()
    return float(raw), float(loop_s)


def environment(z) -> dict:
    import mpmath
    import numpy
    return {
        "backend": z.kernels.active_backend(),
        "numba_imported": "numba" in sys.modules,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "cpu_count": os.cpu_count(),
        "ZARANK_THREADS": os.environ.get("ZARANK_THREADS"),
        "ZARANK_BACKEND": os.environ.get("ZARANK_BACKEND"),
    }


def run_pass(jobs) -> tuple[float, float, list, list]:
    """Run every job once; a job that raises yields its exception.
    Returns the jobs' wall, the same wall scaled to reference speed, the
    reference-loop samples and the outputs.  The loop is sampled at the
    start, then between jobs after every REF_INTERVAL_S of job time and
    after the last job.  Each stretch of jobs between two samples is
    scaled by the mean of the two.  The samples are not part of the
    wall."""
    outputs, loop_times = [], [reference.sample()]
    wall = scaled = stretch = 0.0
    for i, job in enumerate(jobs):
        t0 = time.perf_counter()
        try:
            outputs.append(job.run())
        except Exception as exc:  # counted as a failed job
            outputs.append(exc)
        took = time.perf_counter() - t0
        wall += took
        stretch += took
        if stretch >= REF_INTERVAL_S or i == len(jobs) - 1:
            loop_times.append(reference.sample())
            scaled += reference.scale(
                stretch, (loop_times[-2] + loop_times[-1]) / 2)
            stretch = 0.0
    return wall, scaled, loop_times, outputs


class Checker:
    """Checks each pass's outputs as soon as the pass ends, so that no
    output outlives its pass.  The exact check runs once per distinct
    output of a job; a repeat of a checked output gets the same verdict.
    Only the digests' verdicts and the failure lines are kept."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.verdicts: list[dict[str, str | None]] = [{} for _ in jobs]
        self.failures: list[str] = []
        self.passes = 0

    def check(self, outputs: list) -> None:
        for job, out, verdicts in zip(self.jobs, outputs, self.verdicts):
            problem = _problem(job, out, verdicts)
            if problem is not None:
                self.failures.append(f"pass {self.passes} {job.name}: "
                                     f"{problem}")
        self.passes += 1


def _problem(job, out, verdicts: dict) -> str | None:
    if isinstance(out, Exception):
        return f"raised {type(out).__name__}: {out}"
    try:
        key = job.digest(out)
    except Exception as exc:
        return f"digest failed: {type(exc).__name__}: {exc}"
    if key not in verdicts:
        try:
            job.check(out)
            verdicts[key] = None
        except Exception as exc:
            verdicts[key] = f"{type(exc).__name__}: {exc}"
    return verdicts[key]


def loop(jobs, seconds: float, checker: Checker):
    """Untraced passes until their walls add up to `seconds` (at least
    one pass); each pass is checked, untimed, as soon as it ends.
    Returns the walls, the scaled walls and each pass's reference-loop
    samples."""
    walls, scaled, loop_times = [], [], []
    while sum(walls) < seconds:
        wall, wall_scaled, samples, outputs = run_pass(jobs)
        walls.append(wall)
        scaled.append(wall_scaled)
        loop_times.append(samples)
        checker.check(outputs)
    return walls, scaled, loop_times


def traced_loop(z, jobs, seconds: float, checker: Checker):
    """Untraced and traced passes in turn until their walls add up to
    `seconds`, so that drift in the machine's speed affects both alike.
    Returns the untraced walls, the per-layer metrics of each traced pass
    and the traced passes' spans."""
    tracer = spans.Tracer()
    main_thread = threading.get_ident()
    walls, per_pass, all_spans = [], [], []
    while sum(walls) + sum(p["trace.wall_s"] for p in per_pass) < seconds:
        wall, _, _, outputs = run_pass(jobs)
        walls.append(wall)
        checker.check(outputs)
        tracer.spans = []
        spans.install(tracer, z)
        try:
            wall, _, _, outputs = run_pass(jobs)
        finally:
            tracer.uninstall()
        summary = spans.summarise(tracer.spans, wall, main_thread)
        summary["trace.wall_s"] = wall
        spans.finalise(tracer.spans)
        per_pass.append(summary)
        checker.check(outputs)
        all_spans.append(tracer.spans)
    return walls, per_pass, all_spans


def span_records(all_spans) -> list:
    return [[p, s.sid, s.name, s.start, s.end, s.parent, s.thread, s.attrs]
            for p, pass_spans in enumerate(all_spans) for s in pass_spans]


def record_goldens(z) -> None:
    goldens = {}
    for workload in workloads.SWEEPS:
        goldens[workload] = {}
        with tempfile.TemporaryDirectory(dir=OUT) as workdir:
            for job in workloads.sweep_jobs(workload, workloads.DEFAULT_SEED,
                                            z, workdir, goldens=None):
                out = job.run()
                job.check(out)
                goldens[workload][job.name] = workloads.sweep_summary(out)
    blocks = []
    for workload, jobs in sorted(goldens.items()):
        lines = ",\n".join(f"  {json.dumps(name)}: {json.dumps(g)}"
                           for name, g in sorted(jobs.items()))
        blocks.append(f" {json.dumps(workload)}: {{\n{lines}\n }}")
    with open(workloads.GOLDENS, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(blocks) + "\n}\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--record-goldens", action="store_true")
    args = ap.parse_args(argv)

    for path in (BENCHMARK_JSON, os.path.join(SRC, "zarank", "__init__.py")):
        if not os.path.isfile(path):
            fail(f"{path} is missing; run from a zarank checkout")
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        bench = json.load(fh)
    os.makedirs(OUT, exist_ok=True)

    if args.record_goldens:
        record_goldens(import_zarank())
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        own_setup, z, jobs = timed_setup(args.workload, args.seed, workdir)
        own_loop = reference.speed_now()
        if args.setup_only:
            print(repr(own_setup), repr(own_loop))
            return 0
        setup_samples = [(own_setup, own_loop)] + [
            setup_in_child(args.workload, args.seed)
            for _ in range(SETUP_SAMPLES - 1)]
        env = environment(z)
        for line in (f"{k}={v}" for k, v in env.items()):
            print(f"env {line}", file=sys.stderr)

        record = {"workload": args.workload, "seed": args.seed,
                  "trace": args.trace, "environment": env,
                  "setup_samples_s": [raw for raw, _ in setup_samples],
                  "setup_loop_s": [loop_s for _, loop_s in setup_samples]}
        checker = Checker(jobs)
        if args.trace:
            walls, per_pass, all_spans = traced_loop(z, jobs, args.seconds,
                                                     checker)
            metrics = {name: statistics.median(p[name] for p in per_pass)
                       for name in per_pass[0]}
            metrics["trace.overhead_s"] = (metrics["trace.wall_s"]
                                           - statistics.median(walls))
            record["traced_passes"] = per_pass
            record["spans"] = span_records(all_spans)
            wanted = bench["per_layer"]
        else:
            walls, scaled, loop_times = loop(jobs, args.seconds, checker)
            metrics = {
                "wall_s": statistics.median(scaled),
                "setup_s": statistics.median(
                    reference.scale(w, s) for w, s in setup_samples)}
            record["pass_scaled_s"] = scaled
            record["pass_loop_samples_s"] = loop_times
            raw_setup = statistics.median(w for w, _ in setup_samples)
            print(f"raw medians: pass {statistics.median(walls):.4f} s, "
                  f"set-up {raw_setup:.4f} s", file=sys.stderr)
            wanted = bench["end_to_end"]
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = peak_kb / 1024
        record["pass_walls_s"] = walls

    failures = checker.failures
    attempted = len(jobs) * checker.passes
    metrics["ok_frac"] = 1 - len(failures) / attempted
    record["failures"] = failures
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)

    result_metrics = {}
    for m in wanted:
        value = metrics[m["name"]]
        result_metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        label = " (computed)" if m["name"] in spans.COMPUTED else ""
        print(f"{m['name']:34s} {value:14.6g} {m['unit']}{label}",
              file=sys.stderr)
    print(f"passes={checker.passes} jobs/pass={len(jobs)} "
          f"failed={len(failures)} fail_frac={len(failures) / attempted}",
          file=sys.stderr)

    record["metrics"] = metrics
    record["computed"] = list(spans.COMPUTED)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, default=repr)

    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
