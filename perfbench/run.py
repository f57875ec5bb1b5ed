#!/usr/bin/env python3
"""Benchmark of epdiff-radial's three headline jobs, timed end to end and per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in ``workloads.py`` and explained in ``README.md``.
One run repeats the workload's fixed job list (a "pass") until S seconds
have gone by, at least twice, in this one process with every BLAS/OpenMP
pool pinned to one thread.

* ``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: the
  pass time normalized by a reference kernel timed between jobs (see
  ``reference.py``), the median of five fresh-process set-up probes, peak
  RSS, the share of jobs that passed their checks, and the worst
  error/tolerance.
* ``--trace 1`` alternates untraced and traced passes (see ``tracer.py``)
  and reports the per-layer metrics: counts from the first traced pass,
  which every later traced pass must repeat exactly, and median times.

Human-readable lines start with '#'; the last line of standard output is
one JSON object.  Details (machine block, per-pass and per-job figures)
go to ``perfbench/out/<workload>-seed<N>-trace<0|1>.json`` and, when
traced, the spans to ``perfbench/out/<workload>-spans.csv.gz``.
"""

import argparse
import inspect
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import bootstrap

bootstrap.pin_threads()  # before numpy is imported, here or by the library

import reference  # noqa: E402

SETUP_PROBES = 5
MIN_PASSES = 2


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap, ap.parse_args(argv)


def machine_block():
    import numpy
    import scipy

    cpu = {}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key, sep, val = line.partition(":")
                key = key.strip()
                if sep and key in ("model name", "cache size") and key not in cpu:
                    cpu[key] = val.strip()
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu.get("model name"),
        "cache_size": cpu.get("cache size"),
        "threads": {var: os.environ.get(var) for var in bootstrap.THREAD_VARS},
    }


def setup_probe(workload, seed):
    """Seconds for a fresh process to import the package and build job 1."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, str(bootstrap.HERE / "setup_probe.py"), workload, str(seed)],
        check=True, stdout=subprocess.DEVNULL, timeout=120,
    )
    return time.perf_counter() - start


def segments(job):
    """Run ``job`` as a generator that yields where the job yields.

    Returns the job's check ratios, also when the job is a plain function.
    """
    result = job()
    if inspect.isgenerator(result):
        result = yield from result
    return result


def run_job(job, ref_before):
    """(seconds, ref-normalized time, check ratios, last kernel time) of one job.

    The reference kernel runs after the job and at each point where a
    generator job yields.  Each segment's time is divided by the mean of
    the kernel times just before and just after it, and the quotients are
    summed: the job's time in kernel units.
    """
    steps = segments(job)
    seconds = norm = 0.0
    done = False
    while not done:
        start = time.perf_counter()
        try:
            next(steps)
        except StopIteration as stop:
            ratios, done = stop.value, True
        segment = time.perf_counter() - start
        ref_after = reference.timed()
        seconds += segment
        norm += segment / (0.5 * (ref_before + ref_after))
        ref_before = ref_after
    return seconds, norm, ratios, ref_before


def run_pass(jobs, tracer=None):
    """Run every job once: {"wall_s", "jobs": [per-job outcome]}.

    ``wall_s`` is the sum of the job times, without the reference kernel.
    """
    outcomes = []
    ref_before = reference.timed()
    for index, (job_id, _, job) in enumerate(jobs):
        if tracer:
            tracer.job = index
        error = None
        start = time.perf_counter()
        try:
            seconds, norm, ratios, ref_before = run_job(job, ref_before)
        except Exception as exc:  # a job that raises fails; the others still run
            seconds = time.perf_counter() - start
            norm, ratios = seconds / ref_before, {}
            error = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
            ref_before = reference.timed()
        outcomes.append({
            "job": job_id,
            "seconds": seconds,
            "norm": norm,
            "ok": error is None and all(r <= 1.0 for r in ratios.values()),
            "ratios": ratios,
            "error": error,
        })
    return {"wall_s": sum(o["seconds"] for o in outcomes), "jobs": outcomes}


def run_traced_pass(jobs, tracer):
    tracer.install()
    try:
        result = run_pass(jobs, tracer)
    finally:
        tracer.uninstall()
        tracer.job = -1
    result["spans"], result["counts"] = tracer.take()
    return result


def measure(jobs, seconds, tracer=None):
    """(untraced passes, traced passes) until ``seconds`` have gone by.

    With a tracer, untraced and traced passes alternate, so that both see
    the same machine conditions; each kind runs at least MIN_PASSES times.
    """
    start = time.perf_counter()
    plain, traced = [], []
    while len(plain) < MIN_PASSES or time.perf_counter() - start < seconds:
        plain.append(run_pass(jobs))
        if tracer:
            traced.append(run_traced_pass(jobs, tracer))
    return plain, traced


def norm_pass(passes):
    """Seconds of a pass at nominal machine speed.

    Each job's median time in reference-kernel units over the run's passes,
    summed over jobs and scaled by ``reference.NOMINAL_S``: a pass as it
    would run if the kernel took its nominal time (see reference.py).
    """
    per_job = zip(*([o["norm"] for o in p["jobs"]] for p in passes))
    return reference.NOMINAL_S * sum(statistics.median(ratios) for ratios in per_job)


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def end_to_end(args, jobs):
    setup = [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    passes, _ = measure(jobs, args.seconds)
    outcomes = [o for p in passes for o in p["jobs"]]
    ratios = [r for o in outcomes for r in o["ratios"].values() if math.isfinite(r)]
    metrics = {
        "setup_s": (statistics.median(setup), setup),
        "norm_wall_s": (norm_pass(passes), [norm_pass([p]) for p in passes]),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, None),
        "passed_frac": (sum(o["ok"] for o in outcomes) / len(outcomes), None),
        "err_ratio": (max(ratios, default=0.0), None),
    }
    return metrics, passes, {}


def per_layer(args, jobs):
    from tracer import Tracer

    tracer = Tracer()
    plain, traced = measure(jobs, args.seconds, tracer)
    summaries = [tracer.summary(p["spans"], p["counts"], p["wall_s"] * 1e9)
                 for p in traced]
    first, _, first_work = summaries[0]
    counters = {k: v for k, v in first.items() if isinstance(v, int)}
    repeat = all(
        work == first_work
        and {k: v for k, v in m.items() if isinstance(v, int)} == counters
        for m, _, work in summaries[1:]
    )
    metrics = {}
    for name, value in first.items():
        samples = [m[name] for m, _, _ in summaries]
        metrics[name] = (value, None) if isinstance(value, int) else (
            statistics.median(samples), samples)
    metrics["trace.overhead_frac"] = (norm_pass(traced) / norm_pass(plain) - 1.0, None)
    tracer.write_spans(
        bootstrap.OUT / f"{args.workload}-spans.csv.gz",
        [(i, [j[0] for j in jobs], p["spans"]) for i, p in enumerate(traced)],
    )
    extra = {
        "counters_repeat": repeat,
        "layer_self_s": {
            layer: statistics.median(lay[layer] for _, lay, _ in summaries)
            for layer in summaries[0][1]
        },
        "work": first_work,
        "untraced_norm_pass_s": norm_pass(plain),
        "traced_norm_pass_s": norm_pass(traced),
    }
    for p in traced:
        del p["spans"], p["counts"]
        p["traced"] = True
    return metrics, plain + traced, extra


def main(argv=None):
    ap, args = parse_args(argv)
    bootstrap.load_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    with open(bootstrap.ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    jobs = workloads.make_jobs(args.workload, args.seed,
                               bootstrap.OUT / "work" / args.workload)
    measure_fn = per_layer if args.trace else end_to_end
    metrics, passes, extra = measure_fn(args, jobs)
    outcomes = [o for p in passes for o in p["jobs"]]

    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics declared but not measured: {missing}")
    failed = sum(not o["ok"] for o in outcomes)
    correct = failed == 0 and extra.get("counters_repeat", True)

    machine = machine_block()
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g} passes={len(passes)}")
    print("# machine: " + json.dumps(machine))
    for o in outcomes:
        if not o["ok"]:
            print(f"# FAILED {o['job']}: {o['error'] or o['ratios']}")
    if "counters_repeat" in extra and not extra["counters_repeat"]:
        print("# FAILED work counters differ between traced passes")
    result = {}
    for m in declared:
        value, samples = metrics[m["name"]]
        result[m["name"]] = {"value": value, "unit": m["unit"]}
        spread = ""
        if samples:
            q1, med, q3 = quartiles(samples)
            spread = f"  (n={len(samples)}: median {med:.6g}, q1 {q1:.6g}, q3 {q3:.6g})"
        print(f"# {m['name']} = {value:.6g} {m['unit']}{spread}")
    q1, med, q3 = quartiles([p["wall_s"] for p in passes])
    print(f"# pass wall time, not normalized: median {med:.6g} s, q1 {q1:.6g}, q3 {q3:.6g}")

    bootstrap.OUT.mkdir(parents=True, exist_ok=True)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "inputs": {job_id: bump for job_id, bump, _ in jobs},
        "metrics": {name: {"value": v, "samples": s} for name, (v, s) in metrics.items()},
        "passes": passes,
        **extra,
    }
    detail_path = bootstrap.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(detail_path, "w") as fh:
        json.dump(detail, fh, indent=1, default=float)
    print(json.dumps({
        "correct": bool(correct),
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
