"""spanlab benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload concentric-limits --seed 1 --seconds 30 --trace 0

Run from anywhere inside a spanlab checkout; the package is imported from the
checkout's ``src/``.  The timed passes run in this process, one call after
another.  With ``--trace 0`` the last line of standard output reports the
end-to-end metrics; with ``--trace 1`` untraced and traced passes alternate
and the last line reports the per-layer metrics.  The lines before it hold
the full report: environment, every check against its tolerance, sample
counts and tail percentiles.  The exit code is nonzero, with no result line,
when the checkout has no spanlab sources or the benchmark itself breaks.
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
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
SPAN_DIR = ROOT / "perfbench-out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def limit_blas_threads() -> int:
    """Run BLAS on one thread; returns the CPUs this process may use.

    One thread is within any CPU count.  On a shared two-CPU machine a second
    BLAS thread made model-scan's pass times spread about three times wider
    and saved dense-eccentric about an eighth of its time.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def import_spanlab():
    package = ROOT / "src" / "spanlab"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no spanlab sources at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import spanlab

    if Path(spanlab.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported spanlab from {spanlab.__file__}, not {package}")
    return spanlab


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set the workload up, print the wall clock and exit (used to time set-up)",
    )
    return parser.parse_args(argv)


# -- environment -------------------------------------------------------------------


def git_commit() -> str | None:
    """HEAD of the checkout's git metadata, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_runtime_threads() -> int | None:
    """Threads OpenBLAS reports for numpy's bundled copy, when it can be asked."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(nproc: int, seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_runtime_threads() or int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": nproc,
        "cpu": cpu_model(),
        "seed": seed,
    }


# -- statistics ----------------------------------------------------------------------


def tail(values) -> dict | None:
    """Highest of p90/p99/p99.9 with at least ten samples beyond it."""
    values = sorted(values)
    best = None
    for p in (90.0, 99.0, 99.9):
        if len(values) * (1.0 - p / 100.0) >= 10.0:
            index = min(len(values) - 1, int(round(p / 100.0 * (len(values) - 1))))
            best = {"p": p, "value": values[index]}
    return best


def summary(values, unit: str) -> dict:
    return {
        "median": statistics.median(values),
        "unit": unit,
        "samples": len(values),
        "tail": tail(values),
    }


# -- measurement ---------------------------------------------------------------------


def time_setup_in_child(args) -> float:
    """Seconds from launching a fresh interpreter to the end of its set-up."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-only",
    ]
    launched = time.time()
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=120, check=False
    )
    if done.returncode != 0:
        raise SystemExit(f"perfbench: set-up child failed:\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1]) - launched


def measure(workload, seconds: float, trace: bool):
    """Passes until the next one would end after ``seconds``; at least one.

    With tracing, each round is an untraced pass followed by a traced one.
    """
    from spans import TARGETS, Tracer
    from workloads import Outcome

    outcome = Outcome()
    plain, traced, tracers = [], [], []
    rounds = []
    begin = time.perf_counter()
    while True:
        started = time.perf_counter()
        result = workload.run_pass()
        workload.check(result, outcome)
        result.outputs = None  # keep peak memory independent of the pass count
        plain.append(result)
        if trace:
            with Tracer(TARGETS) as tracer:
                result = workload.run_pass()
            workload.check(result, outcome)
            result.outputs = None
            traced.append(result)
            tracers.append(tracer)
        rounds.append(time.perf_counter() - started)
        if time.perf_counter() - begin + statistics.median(rounds) > seconds:
            return outcome, plain, traced, tracers


def end_to_end(plain, setup_samples) -> dict:
    """End-to-end metrics: (value, unit) plus their sample summaries."""
    run_s = [p.run_s for p in plain]
    deep_s = [p.deep_s for p in plain]
    rate = [p.points / p.run_s for p in plain]
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "run_s": summary(run_s, "s"),
        "setup_s": summary(setup_samples, "s"),
        "deep_step_s": summary(deep_s, "s"),
        "points_per_s": summary(rate, "1/s"),
        "peak_rss_mb": {"median": peak, "unit": "MB", "samples": 1, "tail": None},
    }


def span_selfcheck(workload_name: str, tracers, setup_tracer) -> dict:
    """Expected spans that saw no call, and spans that must stay absent."""
    from spans import SETUP_TARGETS, TARGETS, metric_name

    def calls(tracer, name: str) -> int:
        return tracer.stats[name].calls if name in tracer.stats else 0

    zero = []
    for targets, group, label in (
        (TARGETS, tracers, "timed"),
        (SETUP_TARGETS, [setup_tracer], "setup"),
    ):
        for target, names in targets.items():
            name = metric_name(target)
            if workload_name in names and any(calls(t, name) == 0 for t in group):
                zero.append(f"{label}:{name}")
    forbidden = []
    if workload_name == "dense-eccentric" and any(
        calls(t, "dirichlet.gram_diagonal") for t in tracers
    ):
        forbidden.append("timed:dirichlet.gram_diagonal")
    missing = sorted(set(setup_tracer.missing) | {m for t in tracers for m in t.missing})
    return {"zero_calls": zero, "forbidden_calls": forbidden, "missing_targets": missing}


def write_spans(args, tracer) -> str:
    SPAN_DIR.mkdir(exist_ok=True)
    path = SPAN_DIR / f"{args.workload}-seed{args.seed}.spans.json"
    rows = [
        {"id": i, "parent": p, "name": n, "start": s, "end": e}
        for i, p, n, s, e in tracer.spans
    ]
    path.write_text(json.dumps(rows) + "\n", encoding="utf-8")
    return str(path.relative_to(ROOT))


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = limit_blas_threads()
    if args.setup_only:
        import_spanlab()
        from workloads import WORKLOADS

        WORKLOADS[args.workload](args.seed).setup()
        print(repr(time.time()))
        return 0

    import_spanlab()
    from spans import SETUP_TARGETS, Tracer, layer_metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    setup_samples = [time_setup_in_child(args) for _ in range(SETUP_REPEATS)]

    workload = WORKLOADS[args.workload](args.seed)
    with Tracer(SETUP_TARGETS if args.trace else ()) as setup_tracer:
        workload.setup()
    outcome, plain, traced, tracers = measure(workload, args.seconds, bool(args.trace))
    e2e = end_to_end(plain, setup_samples)

    report = {
        "workload": workload.name,
        "why": workload.why,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(nproc, args.seed),
        "loop": "closed, one client",
        "passes": len(plain),
        "end_to_end": e2e,
        "failed_frac": outcome.failed / max(outcome.attempted, 1),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "checks": outcome.checks,
        "errors": outcome.errors,
        "diagnostics": workload.diagnostics(),
    }
    if plain[0].point_s:
        report["point_latency_s"] = summary([s for p in plain for s in p.point_s], "s")
    if args.trace:
        traced_run_s = statistics.median(p.run_s for p in traced)
        overhead = traced_run_s - e2e["run_s"]["median"]
        per_layer = layer_metrics(tracers, setup_tracer, overhead)
        report.update(
            traced_passes=len(traced),
            tracing_overhead={
                "traced_run_s": traced_run_s,
                "untraced_run_s": e2e["run_s"]["median"],
                "overhead_s": overhead,
                "overhead_share": overhead / e2e["run_s"]["median"],
            },
            degrees_per_pass=[t.degrees for t in tracers],
            setup_degrees=setup_tracer.degrees,
            calls_repeat=all(
                {n: s.calls for n, s in t.stats.items()}
                == {n: s.calls for n, s in tracers[0].stats.items()}
                for t in tracers
            ),
            span_selfcheck=span_selfcheck(workload.name, tracers, setup_tracer),
            spans_file=write_spans(args, tracers[0]),
            per_layer_notes=(
                "dirichlet.gram_dense.gflop and .mbytes are computed from the basis size "
                "and node count, not measured; .s, .self_s and .calls are per traced pass"
            ),
        )
        metrics = {name: {"value": v, "unit": u} for name, (v, u, _) in per_layer.items()}
    else:
        metrics = {name: {"value": m["median"], "unit": m["unit"]} for name, m in e2e.items()}

    print(json.dumps(report, indent=1, default=str))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
