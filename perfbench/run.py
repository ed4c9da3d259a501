"""maxentkit benchmark: one command, three workloads, end-to-end or traced.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload sweep_dense --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs a fixed amount of work untraced and then traced, and
reports per-layer metrics and the tracing overhead.  Human-readable
lines come first; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller
record (environment, hashes, tail percentile, span file) is written
under ``.perfbench_out/`` in the checkout.

The package is imported from ``src/`` of the checkout; without it the
command exits with status 2 and prints no result.
"""

import os

# One BLAS thread for every process of the benchmark: this must happen
# before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("sweep_dense", "sweep_sparse", "select_library")
SETUP_REPEATS = 5

NOT_MEASURED = {
    "solver.newton_batch_iterations": (
        "Newton iterations inside _newton_batch are not visible from outside "
        "the package; they wait for per-task telemetry in the program"
    ),
}


def _tail(samples):
    """Highest whole percentile with at least ten samples beyond it
    (nearest rank), as (value, percentile); the maximum when there are
    ten samples or fewer."""
    xs = sorted(samples)
    k = len(xs)
    if k <= 10:
        return xs[-1], 100
    pct = (100 * (k - 10)) // k
    return xs[math.ceil(pct * k / 100) - 1], pct


def _environment():
    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
    }


def _host_loop_ms(repeats=15):
    """Median time of a fixed pure-Python loop: a gauge of how fast the
    host runs at the moment, recorded beside the figures because a
    shared host can drift by a third over minutes."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        times.append(time.perf_counter() - t0)
    return 1000 * statistics.median(times)


def _setup_probe(workload):
    """Child process: time imports plus the workload's set-up."""
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import workloads

    workloads.setup(workload)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


def _setup_times(workload):
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe", workload],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def _end_to_end(out, setup_times):
    p50 = statistics.median(out.latencies)
    tail, pct = _tail(out.latencies)
    kept = 1.0 - out.fits_failed / out.fits_attempted
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "tasks_per_s": (len(out.latencies) / sum(out.latencies), "1/s"),
        "task_s.p50": (p50, "s"),
        "task_s.tail": (tail, "s"),
        "fits_kept_frac": (kept, "ratio"),
        "peak_rss_mb": (out.peak_rss_mb, "MB"),
    }
    notes = [
        f"latency samples={len(out.latencies)} p50={p50:.4f}s "
        f"tail=p{pct} {tail:.4f}s",
        f"fits attempted={out.fits_attempted} dropped={out.fits_failed} "
        f"failed_frac={out.fits_failed / out.fits_attempted:.3e}",
        "setup runs=" + " ".join(f"{t:.4f}" for t in setup_times),
    ]
    extra = {"tail_percentile": pct, "latency_samples": len(out.latencies),
             "failed_frac": out.fits_failed / out.fits_attempted}
    return metrics, notes, extra


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one task or one select, for the self-test")
    parser.add_argument("--setup-probe", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "maxentkit", "__init__.py")):
        print(f"no package sources at {SRC}/maxentkit; run from the repository root",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        return _setup_probe(args.setup_probe)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")

    sys.path.insert(0, SRC)
    import maxentkit
    import workloads
    from tracer import Tracer, focus_shares, layer_metrics

    if not os.path.abspath(maxentkit.__file__).startswith(SRC + os.sep):
        print(f"maxentkit imported from {maxentkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    mods = {name: sys.modules[f"maxentkit.{name}"]
            for name in ("bench", "selection", "solver", "ising")}

    os.makedirs(OUT, exist_ok=True)
    store = workloads.HashStore(os.path.join(OUT, "hashes.json"), os.path.join(SRC, "maxentkit"))
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    env = _environment()
    host_before = _host_loop_ms()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    sweep = args.workload in workloads.SWEEPS
    try:
        if args.trace == 0:
            setup_times = _setup_times(args.workload)
            if sweep:
                out = workloads.measure_sweep(
                    args.workload, args.seed, args.seconds, args.smoke, workdir, store,
                )
            else:
                out = workloads.measure_library(
                    workloads.setup(args.workload), args.seed, args.seconds,
                    args.smoke, store,
                )
            metrics, notes, extra = _end_to_end(out, setup_times)
        else:
            tracer = Tracer()
            if sweep:
                out, plain_s = workloads.trace_sweep(
                    args.workload, args.seed, args.seconds, args.smoke, workdir,
                    tracer, mods,
                )
            else:
                out, plain_s = workloads.trace_library(
                    workloads.setup(args.workload), args.seed, args.seconds,
                    args.smoke, tracer, mods,
                )
            metrics = layer_metrics(tracer, "bench.task" if sweep else "selection.select")
            overhead = out.wall_s - plain_s
            metrics["trace.overhead_s"] = (overhead, "s")
            metrics["trace.overhead_frac"] = (overhead / plain_s, "ratio")
            metrics["failed_frac"] = (out.fits_failed / out.fits_attempted, "ratio")
            trace_path = os.path.join(OUT, f"trace-{tag}.json")
            tracer.write(trace_path, {"workload": args.workload, "seed": args.seed,
                                      "environment": env})
            notes = [
                f"traced ops={out.attempted} untraced={plain_s:.3f}s "
                f"traced={out.wall_s:.3f}s overhead={overhead:+.3f}s",
                f"spans written to {os.path.relpath(trace_path, ROOT)}",
            ]
            label, share, floor = focus_shares(metrics)[args.workload]
            notes.append(f"focus {label} = {share:.3f} (expected >= {floor:.2f}: "
                         f"{'PASS' if share >= floor else 'FAIL'})")
            notes += [f"not measured: {k}: {v}" for k, v in NOT_MEASURED.items()]
            if tracer.unpatched:
                notes.append("unpatched names: " + ", ".join(tracer.unpatched))
            extra = {"not_measured": NOT_MEASURED, "unpatched": tracer.unpatched}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    store.save()
    env["host_loop_ms"] = [round(host_before, 3), round(_host_loop_ms(), 3)]

    correct = not out.problems
    for line in [f"environment {json.dumps(env, sort_keys=True)}",
                 f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
                 f"trace={args.trace} ops={out.attempted} wall={out.wall_s:.3f}s"]:
        print(line)
    for line in out.info + notes:
        print(line)
    for name in sorted(metrics):
        value, unit = metrics[name]
        print(f"metric {name} = {value:.6g} {unit}")
    for problem in out.problems[:20]:
        print(f"CHECK FAILED: {problem}")

    result = {
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=env, info=out.info, notes=notes,
                  problems=out.problems, **extra)
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
