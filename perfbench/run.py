"""Benchmark of the nonlocalsolver package: one workload per process.

    python3 perfbench/run.py --workload fd_plan --seed 1 --seconds 36 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics, from runs of each request with the tracer installed, paired with
untraced runs. ``--workload all`` runs each workload in its own process. ``--smoke`` runs one short
pass with a tiny pool. The last line of standard output is one JSON object.
"""

import os

# Fixed BLAS thread count, set before numpy is first imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("fd_plan", "spectral_sweep", "cli_small")
MIN_REQUESTS = 100  # so that p90 has at least ten samples beyond it
SETUP_REPEATS = 3
CPU_SWITCH_S = 0.5
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import nonlocalsolver; print(time.perf_counter() - t)"
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny pool, one pass")
    return p.parse_args(argv)


def metric_specs(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def import_seconds():
    """Median wall time of ``import nonlocalsolver`` in fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC], check=True,
                             capture_output=True, text=True, timeout=60)
        times.append(float(out.stdout))
    return statistics.median(times)


def _cache_sizes():
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            if entry.startswith("index"):
                with open(os.path.join(base, entry, "level")) as fh:
                    level = fh.read().strip()
                with open(os.path.join(base, entry, "type")) as fh:
                    kind = fh.read().strip()
                with open(os.path.join(base, entry, "size")) as fh:
                    sizes[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = fh.read().strip()
    except OSError:
        pass
    return sizes


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                         text=True, timeout=30)
    return out.stdout.strip() or "unknown"


def environment(seed):
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "caches_per_core": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "commit": _commit(),
        "seed": seed,
    }


def timed_phase(workload, seconds, min_requests):
    """Closed loop, one client: walk the pool until time and count are both met.

    Every CPU_SWITCH_S seconds the loop moves to the next CPU the process may
    use. On a shared host the speed of each CPU drifts on its own, by up to a
    third over a few seconds; a run that stays on one CPU samples that CPU's
    drift, while a run that visits them all averages it.
    """
    cpus = sorted(os.sched_getaffinity(0))
    outcomes = []
    turn = 0
    start = switch_at = perf_counter()
    try:
        while len(outcomes) < min_requests or perf_counter() - start < seconds:
            if perf_counter() >= switch_at:
                os.sched_setaffinity(0, {cpus[turn % len(cpus)]})
                turn += 1
                switch_at = perf_counter() + CPU_SWITCH_S
            outcomes.append(workload.run(len(outcomes) % workload.pool_size))
    finally:
        os.sched_setaffinity(0, cpus)
    return outcomes


def setup(workload, repeats, clear_lazy_caches):
    """Build and warm up ``repeats`` times; keep the last build and every time."""
    times, warm = [], []
    for _ in range(repeats):
        clear_lazy_caches()
        t0 = perf_counter()
        workload.build()
        warm.extend(workload.run(i) for i in workload.warmup_indices())
        times.append(perf_counter() - t0)
    return times, warm


def summarize(outcomes):
    lat_ms = [o.elapsed * 1e3 for o in outcomes]
    q = statistics.quantiles(lat_ms, n=10)
    busy = sum(o.elapsed for o in outcomes)
    return {
        "solve_ms_p50": q[4],
        "solve_ms_p90": q[8],
        "samples_per_s": sum(o.samples for o in outcomes) / busy,
        "digits_min": min(o.digits for o in outcomes),
    }


def report_failures(outcomes, label):
    bad = [(i, o.error) for i, o in enumerate(outcomes) if o.error]
    for i, err in bad[:5]:
        print(f"FAILED {label} request {i}: {err}")
    return len(bad)


def run_one(args):
    if not os.path.isfile(os.path.join(SRC, "nonlocalsolver", "__init__.py")):
        sys.exit(f"error: no package source under {SRC}")
    sys.path.insert(0, SRC)
    import nonlocalsolver

    if os.path.dirname(os.path.dirname(os.path.abspath(nonlocalsolver.__file__))) != SRC:
        sys.exit(f"error: imported nonlocalsolver from {nonlocalsolver.__file__}, not {SRC}")
    import workloads as wl

    specs = metric_specs(args.trace)
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    cls = wl.WORKLOADS[args.workload]
    kwargs = {"workdir": workdir} if cls is wl.CliSmall else {}
    workload = cls(args.seed, smoke=args.smoke, **kwargs)
    try:
        workload.compute_references()
        setup_times, warm = setup(workload, 1 if (args.trace or args.smoke) else SETUP_REPEATS,
                                   wl.clear_lazy_caches)
        failed = report_failures(warm, "warm-up")
        if args.trace:
            metrics, attempted, failed_run = traced_run(workload, args)
        else:
            min_requests = workload.pool_size if args.smoke else max(MIN_REQUESTS, workload.pool_size)
            outcomes = timed_phase(workload, 0.0 if args.smoke else args.seconds, min_requests)
            failed_run = report_failures(outcomes, "timed")
            attempted = len(outcomes)
            metrics = summarize(outcomes)
            import_s = import_seconds()
            metrics["setup_s"] = import_s + statistics.median(setup_times)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            print(f"requests {attempted} (pool {workload.pool_size}), "
                  f"fail_frac {failed_run / attempted:.4g}, tolerance {workload.tolerance:g}, "
                  f"setup repeats {len(setup_times)}, import_s {import_s:.4f}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed += failed_run
    out = {}
    for spec in specs:
        value = metrics[spec["name"]]
        out[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{args.workload} {spec['name']} {value:.6g} {spec['unit']}")
    result = {"correct": failed == 0, "attempted": attempted + len(warm),
              "failed": failed, "metrics": out}
    print(json.dumps(result))


def traced_run(workload, args):
    """Each request runs untraced, then traced, back to back; figures per pass.

    Pairing the two runs of a request keeps drift in machine speed out of the
    tracing overhead.
    """
    from tracer import Tracer

    tracer = Tracer()
    untraced, traced = [], []
    start = perf_counter()
    passes = 0
    while passes == 0 or (not args.smoke and perf_counter() - start < args.seconds / 2):
        for i in range(workload.pool_size):
            untraced.append(workload.run(i))
            tracer.request = len(traced)
            with tracer:
                traced.append(workload.run(i))
        passes += 1
    outdir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(outdir, exist_ok=True)
    tracer.write(os.path.join(outdir, f"spans_{args.workload}_seed{args.seed}.csv.gz"))
    # the resolvent count of every request, from the spans (CLI requests build
    # their operators inside the CLI, out of the benchmark's reach)
    counts = tracer.resolvents_by_request()
    for req, o in enumerate(traced):
        want = workload.expected_resolvents(req % workload.pool_size)
        got = counts.get(req, 0)
        if o.error is None and got != want and "operators.resolvent" in tracer.names:
            o.error = f"traced resolvent calls {got}, expected {want}"
    failed = report_failures(untraced, "untraced") + report_failures(traced, "traced")
    metrics = tracer.layer_metrics(passes)
    t_plain = sum(o.elapsed for o in untraced)
    t_traced = sum(o.elapsed for o in traced)
    p50_plain = statistics.median(o.elapsed for o in untraced)
    p50_traced = statistics.median(o.elapsed for o in traced)
    metrics["trace.overhead_frac"] = t_traced / t_plain - 1.0
    metrics["trace.overhead_ms_p50"] = (p50_traced - p50_plain) * 1e3
    print(f"passes {passes} x pool {workload.pool_size}; untraced {t_plain:.4f} s, "
          f"traced {t_traced:.4f} s; absent names: {', '.join(tracer.absent) or 'none'}")
    return metrics, len(untraced) + len(traced), failed


def run_all(args):
    """Each workload in its own process, so peak memory is per workload."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit(f"error: workload {name} exited with {proc.returncode}")
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        run_all(args)
    else:
        run_one(args)


if __name__ == "__main__":
    main()
