"""Benchmark of the flaglets library, measured from outside through its public API.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The library is imported from ``src/`` next to this directory; without it the
run exits with code 2 and prints no result.  Inputs are made from the seed
before any timing.  Each run is a closed loop of operations in one process
(the next op starts when the previous one returns), with BLAS on one thread:
on a small shared host a second BLAS thread waits on a core that neighbours
also use, which made ops slower and their times less steady.

``--trace 0`` reports the end-to-end metrics:

- ``setup_s``: median over SETUP_SAMPLES fresh processes of the wall time from
  the first library call after input generation to the end of the first op.
  This process is one sample; the others are child processes run first.
- ``op_p50_ref``: median over the warm ops run for ``--seconds`` of the op's
  wall time divided by the time of one pass of a fixed numpy reference
  computation (see bench_reference): the mean of the median pass times of
  the reference batches run just before and just after the op, each batch
  lasting REF_SHARE of the op before it.  The host's speed drifts by tens of
  percent over tens of seconds; the ratio cancels most of that drift, and a
  change to the library moves only the op time.  The raw median wall time of
  an op, ``op_p50_s``, and of a reference pass are in the metadata line.
- ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` wraps every layer's public callables (see bench_trace) and
reports per-layer call counts and self seconds, per warm op and for the cold
start, plus ``trace_overhead_frac``: warm ops alternate untraced and traced,
and the ratio of their medians, minus 1, is the overhead.

Every op is checked; an op that raises or fails its check counts as failed.
The last line of standard output is the result object; the line before it
holds the run's metadata (seed, sizes, library and BLAS versions, threads,
sample counts, failure fraction and the largest measured error).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"

SETUP_SAMPLES = 4
BLAS_THREADS = 1
# reference time run after each warm op, as a share of that op's time
REF_SHARE = 0.2
MIN_OPS = 2
PROBE_TIMEOUT_S = 120

# Layer callables whose calls and self time are reported, per warm op and
# for the cold start.
SPANS = (
    "sphere_harmonics.sht_inverse",
    "sphere_harmonics.sht_forward",
    "sphere_harmonics.legendre_matrix",
    "flag_transform.flag_forward",
    "flag_transform.flag_inverse",
    "flag_transform.FlagPlan",
    "quadrature.gauss_legendre",
    "quadrature.gauss_laguerre_gen",
    "radial_laguerre.basis_matrix",
    "radial_laguerre.radial_nodes",
    "kernel_tiling.build_flaglet_kernels",
    "kernel_tiling.build_sphere_kernels",
    "kernel_tiling.k_lambda",
    "flaglet_transform.flaglet_analyze",
    "flaglet_transform.flaglet_synthesize",
    "flaglet_transform.threshold_denoise",
    "flaglet_transform.FlagletDecomposition.scale_energies",
    "sphere_wavelets.sphere_analyze",
    "sphere_wavelets.sphere_synthesize",
    "io_container.write_container",
    "io_container.read_container",
)

# Per-op counts read from an op's outputs, with their units.
COUNTERS = {
    "flaglet_transform.stored_samples": "count",
    "sphere_wavelets.stored_samples": "count",
    "io_container.bytes": "B",
}


# Every metric a traced run reports, with its unit: per warm op, `.calls` and
# `.self_s`; over the cold start (set-up plus first op), `.cold_calls` and
# `.cold_s` (self seconds).
PER_LAYER_UNITS = {
    f"{name}.{suffix}": unit
    for name in SPANS
    for suffix, unit in (("calls", "count"), ("self_s", "s"), ("cold_calls", "count"), ("cold_s", "s"))
}
PER_LAYER_UNITS.update(COUNTERS)
PER_LAYER_UNITS["trace_overhead_frac"] = "ratio"
PER_LAYER_UNITS["check.max_rel_err"] = "ratio"

END_TO_END_UNITS = {"setup_s": "s", "op_p50_ref": "ref", "peak_rss_mb": "MB"}


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def set_blas_threads():
    """Run BLAS on BLAS_THREADS threads; must happen before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


@dataclass
class Outcome:
    seconds: float
    err: float | None
    failure: str | None
    counters: dict = field(default_factory=dict)


def attempt(workload) -> Outcome:
    """Run and check one op; an exception or a failed check is a failure."""
    t0 = perf_counter()
    try:
        out = workload.op()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return Outcome(perf_counter() - t0, None, "op raised")
    seconds = perf_counter() - t0
    try:
        err, failure = workload.check(out)
        counters = workload.counters(out)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return Outcome(seconds, None, "check raised")
    if failure is not None:
        print(f"failed op: {failure}", file=sys.stderr)
    return Outcome(seconds, err, failure, counters)


def cold_start(workload) -> tuple[float, Outcome]:
    """Set up and run the first op; returns the set-up time and the op's outcome."""
    t0 = perf_counter()
    workload.setup()
    setup_s = perf_counter() - t0
    first = attempt(workload)
    return setup_s + first.seconds, first


def run_ops(workload, seconds: float, tracer=None, reference=None, first_s: float = 0.0):
    """Closed loop of warm ops for `seconds`; with a tracer, every second op is traced.

    With a reference, a batch of reference passes runs before the first op
    (sized by the cold op's time, `first_s`) and after every op; the median
    pass time of each batch is returned next to the outcomes.
    """
    outcomes, refs = [], []
    if reference is not None:
        refs.append(reference.time_batch(REF_SHARE * first_s))
    start = perf_counter()
    while len(outcomes) < MIN_OPS or perf_counter() - start < seconds:
        if tracer is not None and len(outcomes) % 2 == 1:
            tracer.phase = len(outcomes)
        outcomes.append(attempt(workload))
        if tracer is not None:
            tracer.phase = None
        if reference is not None:
            refs.append(reference.time_batch(REF_SHARE * outcomes[-1].seconds))
    return outcomes, refs


def relative_times(warm: list[Outcome], refs: list[float]) -> list[float]:
    """Each op's time over the mean reference pass of the batches before and after it."""
    return [o.seconds / (0.5 * (refs[i] + refs[i + 1])) for i, o in enumerate(warm)]


def probe_setup(args) -> tuple[float, Outcome]:
    """Cold start in a fresh child process; returns its set-up time and first op."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited with code {proc.returncode}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return probe["setup_s"], Outcome(**probe["first"])


def metadata(args, workload, outcomes: list[Outcome], n_warm: int, failed: int,
             timings: dict) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    errs = [o.err for o in outcomes if o.err is not None]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "sizes": workload.sizes,
        "op_samples": n_warm,
        "setup_samples": len(outcomes) - n_warm,
        "ops_failed_frac": failed / len(outcomes),
        "max_rel_err": max(errs) if errs else None,
        **timings,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": usable_cores(),
    }


def traced_metrics(tracer, warm: list[Outcome]) -> dict:
    traced = warm[1::2]
    n = len(traced)
    per_op = tracer.totals(lambda phase: phase != "cold")
    cold = tracer.totals(lambda phase: phase == "cold")
    values = {}
    for name in SPANS:
        calls, self_s = per_op.get(name, (0, 0.0))
        values[f"{name}.calls"] = calls / n
        values[f"{name}.self_s"] = self_s / n
        calls, self_s = cold.get(name, (0, 0.0))
        values[f"{name}.cold_calls"] = calls
        values[f"{name}.cold_s"] = self_s
    for name in COUNTERS:
        values[name] = statistics.median(o.counters.get(name, 0) for o in warm)
    values["trace_overhead_frac"] = (
        statistics.median(o.seconds for o in traced)
        / statistics.median(o.seconds for o in warm[0::2])
        - 1.0
    )
    # an op that raised has no error to report; count it as a total loss
    values["check.max_rel_err"] = max(1.0 if o.err is None else o.err for o in warm)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests only")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "flaglets" / "__init__.py").is_file():
        print(f"flaglets sources not found under {SRC}", file=sys.stderr)
        return 2
    set_blas_threads()
    sys.path.insert(0, str(SRC))

    import flaglets  # noqa: F401  (loads every layer before wrapping)
    import bench_reference
    import bench_trace

    tracer = None
    if args.trace:
        tracer = bench_trace.Tracer()
        bench_trace.install(tracer)

    from bench_workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.probe:
        workload = WORKLOADS[args.workload](args.seed, args.smoke)
        setup_s, first = cold_start(workload)
        print(json.dumps({"setup_s": setup_s, "first": asdict(first)}))
        return 0

    probes = [] if args.trace else [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    if tracer is not None:
        tracer.phase = "cold"
    setup_s, first = cold_start(workload)
    if tracer is not None:
        tracer.phase = None
    # made after the cold start, which must not find numpy already warmed up
    reference = None if args.trace else bench_reference.Reference()
    warm, refs = run_ops(workload, args.seconds, tracer, reference, first.seconds)

    outcomes = [o for _, o in probes] + [first] + warm
    failed = sum(o.failure is not None for o in outcomes)
    timings = {"op_p50_s": statistics.median(o.seconds for o in warm)}
    if args.trace:
        metrics = {name: {"value": v, "unit": PER_LAYER_UNITS[name]}
                   for name, v in traced_metrics(tracer, warm).items()}
    else:
        timings["ref_pass_p50_s"] = statistics.median(refs)
        values = {
            "setup_s": statistics.median([s for s, _ in probes] + [setup_s]),
            "op_p50_ref": statistics.median(relative_times(warm, refs)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]}
                   for name, v in values.items()}
    print(json.dumps({"run": metadata(args, workload, outcomes, len(warm), failed, timings)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
