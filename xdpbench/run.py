"""Run one benchmark workload and print its metrics.

    python3 xdpbench/run.py --workload fft-paper --seed 7 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from its
``src/``.  With ``--trace 0`` the workload runs passes until ``--seconds``
would be exceeded (at least one) and reports the end-to-end metrics;
with ``--trace 1`` it runs one untraced pass and one traced pass and
reports the per-layer metrics.  Every pass is checked against numpy or
closed-form references; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` and the exit
code is non-zero if any operation failed.  See ``xdpbench/README.md``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import hostspeed  # noqa: E402

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = HERE / ".work"
SETUP_REPEATS = 3


def fail(message: str, code: int = 2) -> None:
    print(f"xdpbench: {message}", file=sys.stderr)
    sys.exit(code)


def import_workloads():
    """Import the library from this checkout's ``src/`` (and nowhere
    else), with the backend and engine mode at their defaults."""
    if not (SRC / "repro" / "__init__.py").is_file():
        fail(f"no library sources at {SRC}; run from a full checkout")
    for var in ("REPRO_BACKEND", "REPRO_ENGINE_MODE"):
        os.environ.pop(var, None)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        fail(f"imported repro from {repro.__file__}, not {SRC}")
    import workloads

    return workloads


def percentile(xs: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    xs = sorted(xs)
    return xs[min(len(xs) - 1, max(0, round(q * (len(xs) - 1))))]


def timed_setup(wl, seed: int, speed) -> tuple[object, float]:
    """Build the inputs ``SETUP_REPEATS`` times, then warm up once;
    returns the last state and the import + median build + warm-up
    seconds, host-speed normalized."""
    t0 = time.perf_counter()
    builds = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        state = wl.setup(seed)
        builds.append(time.perf_counter() - t)
    t1 = time.perf_counter()
    wl.warmup(state, speed)
    t2 = time.perf_counter()
    raw = t0 - T_START + statistics.median(builds) + t2 - t1
    return state, raw * speed.factor(T_START, t2)


#: what a checked pass keeps (the outputs themselves are dropped)
SUMMARY = ("wall_s", "raw_wall_s", "compile_s", "sim_s", "makespan",
           "messages", "cold_round_s", "job_latencies_s", "attempted")


def run_checked(wl, state, speed, failures: list[str]) -> tuple[dict, object]:
    out = wl.run_pass(state, speed)
    wl.validate(state, out, speed)
    bad, det = wl.check(state, out)
    failures += bad
    summary = {k: out[k] for k in SUMMARY if k in out}
    summary["failed"] = min(len(bad), out["attempted"])
    return summary, det


def end_to_end(wl, state, speed, seconds: float, failures: list[str]):
    passes, dets = [], []
    t0 = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        out, det = run_checked(wl, state, speed, failures)
        out["span_s"] = time.perf_counter() - t_pass
        passes.append(out)
        dets.append(det)
        per_pass = statistics.median(p["span_s"] for p in passes)
        if time.perf_counter() - t0 + per_pass > seconds:
            break
    if any(d != dets[0] for d in dets):
        failures.append("deterministic outputs differ between passes")

    def med(key):
        return statistics.median(p[key] for p in passes)

    def latency_ms(q):
        """The median over passes of each pass's job-latency percentile:
        a pass the host slowed throughout moves a pooled percentile, not
        this."""
        return 1e3 * statistics.median(
            percentile(p["job_latencies_s"], q) for p in passes)

    first = passes[0]
    metrics = {
        "wall_s": (med("wall_s"), "s"),
        "compile_s": (med("compile_s"), "s"),
        "sim_s": (med("sim_s"), "s"),
        "makespan_vt": (first["makespan"], "vt"),
        "messages": (first["messages"], "count"),
        # a service's cold round comes once per pass (a fresh store each
        # time); elsewhere the run's first pass is its cold round
        "cold_round_s": (med("cold_round_s") if "cold_round_s" in first
                         else first["wall_s"], "s"),
        "warm_job_p50_ms": (latency_ms(0.50), "ms"),
        "warm_job_p99_ms": (latency_ms(0.99), "ms"),
        "peak_rss_mib": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MiB"),
    }
    info = {"passes": len(passes),
            "warm_job_samples": sum(len(p["job_latencies_s"])
                                    for p in passes),
            "raw_wall_s": round(med("raw_wall_s"), 4)}
    return passes, dets[0], metrics, info


def per_layer(wl, state, speed, failures: list[str]):
    import numpy as np
    import tracing
    import workloads

    reference, det = run_checked(wl, state, speed, failures)
    tracer = tracing.Tracer()
    tracing.install(tracer, extra_modules=(workloads,))
    tracer.pass_id = 1
    try:
        t0 = time.perf_counter()
        traced = wl.run_pass(state, speed)
        window_s = time.perf_counter() - t0
    finally:
        tracer.restore()
    wl.validate(state, traced, speed)
    bad, traced_det = wl.check(state, traced)
    failures += bad
    if traced_det != det:
        failures.append("deterministic outputs differ with tracing on")
    metrics = tracing.layer_metrics(
        tracer, window_s, traced["wall_s"] / traced["raw_wall_s"],
        traced["wall_s"], reference["wall_s"], wl.layer_counts(traced))
    spans_path = WORKDIR / f"spans-{wl.name}.npz"
    with open(spans_path, "wb") as fh:
        np.savez(fh, spans=tracer.spans(), names=np.array(tracer.names))
    summary = {k: traced[k] for k in SUMMARY if k in traced}
    summary["failed"] = min(len(bad), traced["attempted"])
    info = {"spans": len(tracer.spans()),
            "spans_file": str(spans_path.relative_to(ROOT))}
    return [reference, summary], det, metrics, info


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    with hostspeed.HostSpeed() as speed:
        return run(args, speed)


def run(args: argparse.Namespace, speed) -> int:
    workloads = import_workloads()
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; "
             f"pick from {', '.join(workloads.WORKLOADS)}")
    WORKDIR.mkdir(exist_ok=True)
    wl = workloads.make(args.workload, str(WORKDIR))
    state, setup_s = timed_setup(wl, args.seed, speed)

    failures: list[str] = []
    if args.trace:
        passes, det, metrics, info = per_layer(wl, state, speed, failures)
    else:
        passes, det, metrics, info = end_to_end(wl, state, speed,
                                                args.seconds, failures)
        metrics["setup_s"] = (setup_s, "s")
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)

    for line in failures:
        print(f"FAIL {line}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          + ", ".join(f"{k}={v}" for k, v in info.items()))
    print(f"failed_frac: {failed}/{attempted}")
    print(f"deterministic outputs sha256: {workloads.det_digest(det)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
