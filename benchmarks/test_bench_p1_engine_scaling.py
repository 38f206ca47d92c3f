"""P1 — engine hot-path scaling (O(log P) scheduling, indexed matching).

Runs the workqueue (section 2.7) and FFT-pipeline (section 4) node
programs at nprocs in {8, 64, 256}, measuring wall-clock and effects/sec
on the indexed engine **and live against the seed-reference engine** (a
faithful reimplementation of the pre-rewrite O(P)-scan hot path).
Because the baseline runs on the same machine in the same process, the
recorded speedups are machine-independent.

The sweep doubles as a semantics regression: both engines must agree
exactly on virtual makespan, message counts, and effect counts
(``run_engine_bench`` raises otherwise).

Results are recorded to ``BENCH_engine.json`` at the repo root; compare a
later engine against it with ``python -m repro bench --diff``.
"""

from pathlib import Path

from conftest import emit

from repro.report.record import write_json_atomic

from repro.apps.enginebench import format_bench, run_engine_bench

BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

#: Acceptance bar: the indexed engine must process effects at least this
#: many times faster than the seed engine on the workqueue at P=256.
REQUIRED_SPEEDUP_AT_256 = 2.0


def _emit_results(results: dict) -> None:
    rows = [
        [c["program"], c["nprocs"], c["engine"], f"{c['wall_s']:.3f}",
         c["effects"], c["effects_per_sec"], f"{c['makespan']:.0f}"]
        for c in results["cases"]
    ]
    emit(
        "P1 — engine hot-path scaling (indexed vs seed reference)",
        ["program", "P", "engine", "wall_s", "effects", "eff/sec", "makespan"],
        rows,
    )


def test_p1_smoke_small_scale(benchmark):
    """Quick CI-friendly check: both engines agree and the harness runs."""
    results = run_engine_bench((8,), ("workqueue", "fft"), jobs_per_proc=8)
    _emit_results(results)
    by_engine = {}
    for c in results["cases"]:
        by_engine.setdefault((c["program"], c["nprocs"]), {})[c["engine"]] = c
    for (prog, p), engines in by_engine.items():
        assert {"indexed", "seed-reference"} <= set(engines), (prog, p)
        assert engines["indexed"]["makespan"] == engines["seed-reference"]["makespan"]
        assert engines["indexed"]["effects"] > 0
    benchmark.pedantic(
        lambda: run_engine_bench((8,), ("workqueue",), jobs_per_proc=8,
                                 seed_reference=False),
        rounds=1, iterations=1,
    )


def test_p1_engine_scaling_full(benchmark):
    """The full sweep: records BENCH_engine.json, asserts the 2x bar."""
    results = run_engine_bench((8, 64, 256), ("workqueue", "fft"),
                               jobs_per_proc=16)
    _emit_results(results)
    print(format_bench(results))

    speedup = results["speedups"]["workqueue@256"]
    assert speedup >= REQUIRED_SPEEDUP_AT_256, (
        f"indexed engine is only {speedup}x the seed engine at P=256 "
        f"(need >= {REQUIRED_SPEEDUP_AT_256}x)"
    )
    # Throughput must not collapse with P: the indexed engine at P=256
    # should sustain at least half its P=8 effects/sec (the seed engine
    # drops to well under that).
    rate = {
        (c["program"], c["nprocs"]): c["effects_per_sec"]
        for c in results["cases"] if c["engine"] == "indexed"
    }
    assert rate[("workqueue", 256)] >= 0.5 * rate[("workqueue", 8)]

    write_json_atomic(BENCH_FILE, results)
    benchmark.extra_info["speedups"] = results["speedups"]
    benchmark.extra_info["bench_file"] = str(BENCH_FILE)
    benchmark.pedantic(
        lambda: run_engine_bench((64,), ("workqueue",), jobs_per_proc=16,
                                 seed_reference=False),
        rounds=1, iterations=1,
    )
