"""The benchmark's four workloads.

Each workload has these parts:

* ``setup(seed)`` builds everything a pass needs — program sources,
  seeded inputs and their numpy references; ``warmup(state, speed)``
  runs a small instance first.  Both are timed as set-up;
* ``run_pass(state, speed)`` is the measured work: one pass over the
  workload's operations through the library's public entry points,
  returning raw outputs and per-pass timings;
* ``validate(state, out, speed)`` re-runs, outside the pass (and outside
  a traced pass's tracing), what the checks and the compile and
  simulation timings need;
* ``check(state, out)`` compares every output with a reference that does
  not come from the compiler under test, and returns the failures plus
  the pass's deterministic outputs (which must repeat exactly across
  passes, runs, seeds and tracing);
* ``layer_counts(out)`` gives the per-layer values a traced pass's
  results carry rather than its spans.

Every workload runs on the ``msg`` backend under the default machine
model.  Library entry points are called through this module's globals,
so the traced run's wrappers (``tracing.py``) see the calls.
"""

from __future__ import annotations

import gc
import hashlib
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.apps.fft3d import fft3d_source
from repro.apps.jacobi import jacobi_source
from repro.apps.matmul import matmul_source
from repro.apps.workqueue import workqueue_source
from repro.core.analysis.verify_comm import verify_communication
from repro.core.codegen import lower
from repro.core.ir.parser import parse_program
from repro.core.ir.printer import print_program
from repro.core.ir.verify import verify_program
from repro.core.opt import optimize
from repro.machine.model import MachineModel
from repro.serve.jobs import JobSpec
from repro.serve.service import ServeSession
from repro.serve.supervisor import SupervisorConfig
from repro.tune.evaluate import EvalCache, EvalTask, seed_arrays
from repro.tune.search import tune

from hostspeed import HostSpeed, io_point, write_io_record

BACKEND = "msg"
clock = time.perf_counter


# ---------------------------------------------------------------------- #
# independent references (numpy / closed form, never the compiler)
# ---------------------------------------------------------------------- #


def jacobi_reference(a0: np.ndarray, sweeps: int) -> np.ndarray:
    """Three-point averaging sweeps with fixed end points."""
    a = a0.copy()
    for _ in range(sweeps):
        b = a.copy()
        b[1:-1] = (a[:-2] + a[1:-1] + a[2:]) / 3.0
        a = b
    return a


def workqueue_ok(acc0: np.ndarray, acc: np.ndarray, njobs: int) -> bool:
    """The §2.7 pool's invariant on ``ACC``: the master (pid 1) claims
    nothing, every job value ``1..njobs`` is claimed exactly once, and
    each worker ``w`` adds the values of exactly its quota of distinct
    jobs.

    Which worker claims which job follows the pool's FIFO matching and
    so depends on timing: at P >= 32 it is no longer the round-robin
    deal, so ``ACC`` is checked against what the pool guarantees rather
    than against one assignment.
    """
    gained = acc - acc0
    nworkers = len(acc) - 1
    base, extra = divmod(njobs, nworkers)
    if not np.isclose(gained[0], 0.0):
        return False
    if not np.isclose(gained.sum(), njobs * (njobs + 1) / 2):
        return False
    for w in range(1, nworkers + 1):
        quota = base + (1 if w <= extra else 0)
        low = quota * (quota + 1) / 2
        high = quota * (2 * njobs - quota + 1) / 2
        if not low - 1e-6 <= gained[w] <= high + 1e-6:
            return False
    return True


def close(got: np.ndarray, want: np.ndarray, scale: float = 1.0) -> bool:
    return got.shape == want.shape and bool(
        np.allclose(got, want, atol=1e-9 * scale)
    )


def matches(got: np.ndarray, want) -> bool:
    if callable(want):
        return want(got)
    return close(got, *want)


# ---------------------------------------------------------------------- #
# the `repro run FILE` pipeline
# ---------------------------------------------------------------------- #


@dataclass
class PipelineOp:
    """One program through parse/translate -> verify -> optimize -O2 ->
    (verify_comm) -> lower -> simulate."""

    label: str
    nprocs: int
    #: Builds the unoptimized IL+XDP program (parses, or parses and
    #: translates a sequential source); timed as compile work.
    frontend: Callable[[], Any]
    inputs: dict[str, np.ndarray]
    #: array name -> (reference value, tolerance scale), or -> a
    #: predicate on the output
    expect: dict[str, tuple[np.ndarray, float] | Callable[[np.ndarray], bool]]
    verify_comm: bool = False


def run_pipeline(op: PipelineOp) -> dict:
    t0 = clock()
    program = op.frontend()
    verify_program(program)
    result = optimize(program, op.nprocs, level=2, backend=BACKEND)
    events = None
    comm_ok = True
    if op.verify_comm:
        report = verify_communication(result.program, op.nprocs,
                                      backend=BACKEND)
        events, comm_ok = report.events, report.ok
    runner = lower(result.program, op.nprocs, backend=BACKEND)
    t1 = clock()
    for name, values in op.inputs.items():
        runner.write_global(name, values)
    stats = runner.run()
    outputs = {name: runner.read_global(name) for name in op.expect}
    t2 = clock()
    return {
        "label": op.label,
        "times": (t0, t1, t2),
        "makespan": stats.makespan,
        "messages": stats.total_messages,
        "effects": stats.effects_processed,
        "verify_comm_events": events,
        "comm_ok": comm_ok,
        "reports": list(result.reports),
        "outputs": outputs,
    }


def check_pipeline(ops: list[PipelineOp], raws: list[dict]):
    failures, det = [], []
    for op, raw in zip(ops, raws):
        if "error" in raw:
            failures.append(f"{op.label}: {raw['error']}")
            continue
        wrong = [f"{name} differs from reference"
                 for name, want in op.expect.items()
                 if not matches(raw["outputs"][name], want)]
        if not raw["comm_ok"]:
            wrong.append("verify_comm reported errors")
        if wrong:
            failures.append(f"{op.label}: {'; '.join(wrong)}")
        det.append([op.label, raw["makespan"], raw["messages"],
                    raw["effects"], raw["verify_comm_events"],
                    raw["reports"]])
    return failures, det


def pipeline_pass(ops: list[PipelineOp], speed: HostSpeed) -> dict:
    """All ops in order; the compile and the simulation of each op are
    host-speed normalized each over its own interval (on `spmd-p64` a
    compile is a few hundred milliseconds before a simulation of
    seconds, and scaled by the whole op's factor it spread 14%)."""
    raws = []
    raw_wall = 0.0
    for op in ops:
        gc.collect()  # every operation starts from the same collector state
        t0 = clock()
        try:
            raw = run_pipeline(op)
            c0, c1, c2 = raw.pop("times")
            raw["compile_s"] = speed.seconds(c0, c1)
            raw["sim_s"] = speed.seconds(c1, c2)
            raw["latency_s"] = raw["compile_s"] + raw["sim_s"]
        except Exception as exc:  # one failed operation must not end the run
            raw = {"label": op.label, "error": f"{type(exc).__name__}: {exc}"}
        raw_wall += clock() - t0
        raws.append(raw)
    ok = [r for r in raws if "error" not in r]
    return {
        "raws": raws,
        "wall_s": sum(r["latency_s"] for r in ok),
        "raw_wall_s": raw_wall,
        "compile_s": sum(r["compile_s"] for r in ok),
        "sim_s": sum(r["sim_s"] for r in ok),
        "makespan": sum(r["makespan"] for r in ok),
        "messages": sum(r["messages"] for r in ok),
        # outside a service, one job is one pass
        "job_latencies_s": [sum(r["latency_s"] for r in ok)],
        "attempted": len(ops),
    }


def _parse(text: str) -> Callable[[], Any]:
    return lambda: parse_program(text)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _complex_cube(rng: np.random.Generator, n: int) -> np.ndarray:
    return (rng.standard_normal((n, n, n))
            + 1j * rng.standard_normal((n, n, n)))


def fft_ops(seed: int, n: int, nprocs: int) -> list[PipelineOp]:
    ops = []
    for stage in (0, 1, 2, 3):
        a0 = _complex_cube(_rng(seed, stage), n)
        ops.append(PipelineOp(
            label=f"fft3d/stage{stage} n={n} P={nprocs}",
            nprocs=nprocs,
            frontend=_parse(fft3d_source(n, nprocs, stage)),
            inputs={"A": a0},
            expect={"A": (np.fft.fftn(a0), float(n) ** 3)},
            verify_comm=True,
        ))
    return ops


def spmd_ops(seed: int, nprocs: int, *, jacobi_n: int, naive_n: int,
             matmul_n: int, jobs_per_worker: int) -> list[PipelineOp]:
    a0 = _rng(seed, 0).standard_normal(jacobi_n)
    halo = print_program(jacobi_source(jacobi_n, nprocs, 8, "halo-overlap"))
    n0 = _rng(seed, 1).standard_normal(naive_n)
    rng = _rng(seed, 2)
    ma, mb = (rng.standard_normal((matmul_n, matmul_n)) for _ in range(2))
    blk = matmul_n // nprocs
    rotating = np.stack([mb[p * blk:(p + 1) * blk, :] for p in range(nprocs)])
    njobs = jobs_per_worker * (nprocs - 1)
    acc0 = _rng(seed, 3).standard_normal(nprocs)
    return [
        PipelineOp(
            label=f"jacobi/halo-overlap n={jacobi_n} P={nprocs}",
            nprocs=nprocs, frontend=_parse(halo),
            inputs={"A": a0, "B": np.zeros(jacobi_n)},
            expect={"A": (jacobi_reference(a0, 8), 1.0)},
        ),
        PipelineOp(
            label=f"jacobi/naive n={naive_n} P={nprocs}",
            nprocs=nprocs,
            # the sequential source, parsed and translated to IL+XDP
            frontend=lambda: jacobi_source(naive_n, nprocs, 4, "naive"),
            inputs={"A": n0, "B": np.zeros(naive_n)},
            expect={"A": (jacobi_reference(n0, 4), 1.0)},
        ),
        PipelineOp(
            label=f"matmul/summa n={matmul_n} P={nprocs}",
            nprocs=nprocs,
            frontend=_parse(matmul_source(matmul_n, nprocs, "summa")),
            inputs={"A0": ma, "B": mb},
            expect={"C": (ma @ mb, float(matmul_n))},
        ),
        PipelineOp(
            label=f"matmul/cannon n={matmul_n} P={nprocs}",
            nprocs=nprocs,
            frontend=_parse(matmul_source(matmul_n, nprocs, "cannon")),
            inputs={"A": ma, "V": rotating},
            expect={"C": (ma @ mb, float(matmul_n))},
        ),
        PipelineOp(
            label=f"workqueue njobs={njobs} P={nprocs}",
            nprocs=nprocs,
            frontend=_parse(workqueue_source(njobs, nprocs)),
            inputs={"ACC": acc0},
            expect={"ACC": lambda acc: workqueue_ok(acc0, acc, njobs)},
        ),
    ]


class FFTPaper:
    """§4 3-D FFT at the paper's scale, stages 0-3, with verify_comm."""

    name = "fft-paper"
    N, P = 16, 16

    def setup(self, seed: int) -> list[PipelineOp]:
        return fft_ops(seed, self.N, self.P)

    def warmup(self, state: Any, speed: HostSpeed) -> None:
        """One small instance of the pipeline before timing."""
        for op in fft_ops(0, 4, 4):
            run_pipeline(op)

    def run_pass(self, ops: list[PipelineOp], speed: HostSpeed) -> dict:
        return pipeline_pass(ops, speed)

    def validate(self, ops: list[PipelineOp], out: dict,
                 speed: HostSpeed) -> None:
        """Work after the pass that it needs checked or timed (none: the
        pipeline times compile and simulation itself)."""

    def check(self, ops: list[PipelineOp], out: dict):
        return check_pipeline(ops, out["raws"])

    def layer_counts(self, out: dict) -> dict:
        """Per-layer values read from a traced pass's results."""
        return {}


class SPMDP64(FFTPaper):
    """Five programs at P=64 on the default `repro run` pipeline (-O2,
    no verify_comm)."""

    name = "spmd-p64"

    def setup(self, seed: int) -> list[PipelineOp]:
        return spmd_ops(seed, 64, jacobi_n=1024, naive_n=256, matmul_n=128,
                        jobs_per_worker=16)

    def warmup(self, state: Any, speed: HostSpeed) -> None:
        for op in spmd_ops(0, 4, jacobi_n=16, naive_n=16, matmul_n=8,
                           jobs_per_worker=2):
            run_pipeline(op)


# ---------------------------------------------------------------------- #
# tune-fft
# ---------------------------------------------------------------------- #


@dataclass
class TuneState:
    seed: int
    source: str
    a0: np.ndarray
    reference: np.ndarray
    model: MachineModel = field(default_factory=MachineModel)


class TuneFFT:
    """The §4 placement search at paper scale (n=16, P=16)."""

    name = "tune-fft"
    N, P = 16, 16
    COMPILE_REPEATS, SIM_REPEATS = 25, 7

    def setup(self, seed: int) -> TuneState:
        source = fft3d_source(self.N, self.P, 0)
        a0 = seed_arrays(parse_program(source), seed)["A"]
        return TuneState(seed, source, a0, np.fft.fftn(a0))

    def warmup(self, state: Any, speed: HostSpeed) -> None:
        FFTPaper().warmup(state, speed)

    def run_pass(self, st: TuneState, speed: HostSpeed) -> dict:
        cache = EvalCache()
        gc.collect()
        t0 = clock()
        try:
            res = tune(st.source, self.P, seed=st.seed, parallel=False,
                       budget_s=None, cache=cache)
            error = None
        except Exception as exc:  # reported by check(), counted as failed
            res, error = None, f"{type(exc).__name__}: {exc}"
        t1 = clock()
        wall = speed.seconds(t0, t1)
        return {
            "result": res, "error": error, "cache": cache,
            "wall_s": wall, "raw_wall_s": t1 - t0,
            "makespan": res.makespan if res else 0.0,
            "job_latencies_s": [wall], "attempted": 1,
        }

    def validate(self, st: TuneState, out: dict, speed: HostSpeed) -> None:
        """Re-run the winner outside the tuner: its compile and
        simulation times (medians of a few repeats; one compile is too
        short to time) and an output to check against numpy."""
        out.update(compile_s=0.0, sim_s=0.0, messages=0)
        res = out["result"]
        if res is None:
            return
        compile_s, sim_s = [], []
        for i in range(self.COMPILE_REPEATS):
            gc.collect()
            t1 = clock()
            program = parse_program(res.source)
            verify_program(program)
            runner = lower(program, self.P, model=st.model, backend=BACKEND)
            t2 = clock()
            compile_s.append(speed.seconds(t1, t2))
            if i >= self.SIM_REPEATS:
                continue
            runner.write_global("A", st.a0)
            stats = runner.run()
            got = runner.read_global("A")
            sim_s.append(speed.seconds(t2, clock()))
        out.update(
            compile_s=statistics.median(compile_s),
            sim_s=statistics.median(sim_s),
            messages=stats.total_messages,
            winner_A=got, winner_makespan=stats.makespan,
        )

    def layer_counts(self, out: dict) -> dict:
        res = out.get("result")
        if res is None:
            return {}
        return {
            "tune.engine_runs": out["cache"].engine_runs,
            "tune.engine_evaluated": res.evaluated - 1,  # minus the baseline
            "tune.space_size": res.space_size,
            "tune.shortlist": res.shortlist_size,
            "tune.rank_corr": res.rank_correlation or 0.0,
        }

    def check(self, st: TuneState, out: dict):
        if out["error"]:
            return [f"tune: {out['error']}"], None
        res, cache = out["result"], out["cache"]
        failures = []
        if not res.semantics_preserved:
            failures.append("tune: semantics_preserved is false")
        if out["winner_makespan"] != res.makespan:
            failures.append("tune: winner re-run makespan differs")
        if not close(out["winner_A"], st.reference, float(self.N) ** 3):
            failures.append("tune: winner output differs from numpy fftn")

        def cached(program) -> Any:
            task = EvalTask(program, self.P, st.model, seed=st.seed,
                            backend=BACKEND)
            return cache.get(task.digest)

        winner = cached(res.source)
        baseline = cached(print_program(parse_program(st.source)))
        if winner is None or baseline is None:
            failures.append("tune: winner or baseline evaluation missing")
        elif not winner.matches(baseline.arrays):
            failures.append("tune: winner result differs from baseline")
        det = {
            "layouts": [c.key for c in res.phase_layouts],
            "realization": res.realization,
            "makespan": res.makespan,
            "baseline_makespan": res.baseline_makespan,
            "messages": out["messages"],
            "space_size": res.space_size,
            "shortlist": res.shortlist_size,
            "rank_corr": res.rank_correlation,
            "evaluated": res.evaluated,
        }
        return failures, det


# ---------------------------------------------------------------------- #
# serve-replay
# ---------------------------------------------------------------------- #


@dataclass
class ServeState:
    seed: int
    workdir: str
    specs: list[JobSpec]
    #: run-job label -> numpy check of the job's final arrays
    run_checks: dict[str, Callable[[dict], bool]]
    #: the record the warm rounds' calibration loop reads
    io_record: str
    #: the run jobs recomputed in-process (see ServeReplay.reference)
    reference: dict | None = None


class ServeReplay:
    """A closed loop with one client over a `ServeSession` with two
    supervisor workers: a cold round, then warm rounds of store reads."""

    name = "serve-replay"
    WARM_ROUNDS = 1000
    #: warm rounds between two calibration points
    BLOCK = 10
    WORKERS = 2
    REPEATS = 3

    def __init__(self, workdir: str):
        self.workdir = workdir

    @staticmethod
    def mix(seed: int) -> list[JobSpec]:
        jac = print_program(jacobi_source(128, 16, 4, "halo-overlap"))
        fft2 = fft3d_source(16, 16, 2)
        fft3 = fft3d_source(16, 16, 3)
        fft3_p8 = fft3d_source(8, 8, 3)
        summa = matmul_source(32, 16, "summa")
        cannon = matmul_source(16, 8, "cannon")
        wq = workqueue_source(16 * 7, 8)
        jobs = [
            ("compile", fft3, 16, "compile:fft3d/stage3"),
            ("check", fft2, 16, "check:fft3d/stage2"),
            ("run", fft2, 16, "run:fft3d/stage2"),
            ("run", fft3_p8, 8, "run:fft3d/stage3-p8"),
            ("compile", jac, 16, "compile:jacobi"),
            ("check", jac, 16, "check:jacobi"),
            ("run", jac, 16, "run:jacobi"),
            ("check", summa, 16, "check:matmul/summa"),
            ("run", summa, 16, "run:matmul/summa"),
            ("compile", cannon, 8, "compile:matmul/cannon"),
            ("check", wq, 8, "check:workqueue"),
            ("run", wq, 8, "run:workqueue"),
        ]
        return [
            JobSpec(kind=kind, source=src, nprocs=p, backend=BACKEND,
                    seed=seed, label=label, timeout_s=120.0)
            for kind, src, p, label in jobs
        ]

    @staticmethod
    def _run_check(spec: JobSpec):
        """The numpy expectation for a run job's final arrays, given the
        seeded inputs the job body writes (``seed_arrays``)."""
        program = parse_program(spec.source)
        a = seed_arrays(program, spec.seed)
        label = spec.label
        if label.startswith("run:fft3d"):
            n = a["A"].shape[0]
            want = {"A": (np.fft.fftn(a["A"]), float(n) ** 3)}
        elif label == "run:jacobi":
            want = {"A": (jacobi_reference(a["A"], 4), 1.0)}
        elif label == "run:matmul/summa":
            n = a["C"].shape[0]
            want = {"C": (a["C"] + a["A0"] @ a["B"], float(n))}
        else:
            acc0 = a["ACC"]
            want = {"ACC": lambda acc: workqueue_ok(acc0, acc, 16 * 7)}

        def ok(arrays: dict) -> bool:
            return all(matches(arrays[k], w) for k, w in want.items())

        return ok

    def setup(self, seed: int) -> ServeState:
        specs = self.mix(seed)
        checks = {s.label: self._run_check(s) for s in specs
                  if s.kind == "run"}
        record = f"{self.workdir}/io-calibration.json"
        write_io_record(record)
        return ServeState(seed, self.workdir, specs, checks, record)

    def warmup(self, st: ServeState, speed: HostSpeed) -> None:
        """The in-process reference first (it must run before any worker
        is forked), then one throwaway cold and warm round so that the
        first pass's cold round is not also the process's first."""
        FFTPaper().warmup(st, speed)
        st.reference = self.reference(st, speed)
        root = tempfile.mkdtemp(prefix="warm-", dir=st.workdir)
        try:
            session = ServeSession(root, SupervisorConfig(
                workers=self.WORKERS, seed=st.seed, timeout_s=120.0))
            session.run_jobs(st.specs)
            session.run_jobs(st.specs)
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def run_pass(self, st: ServeState, speed: HostSpeed) -> dict:
        root = tempfile.mkdtemp(prefix="store-", dir=st.workdir)
        try:
            session = ServeSession(root, SupervisorConfig(
                workers=self.WORKERS, seed=st.seed, timeout_s=120.0))
            # The forked workers inherit the pin, so the cold round runs
            # on the core the sampler times.  Given both cores, the
            # workers ran at whatever speed the neighbours left the other
            # core, which the sampler never saw: the cold round then
            # spread 10-20% from run to run.
            gc.collect()
            t0 = clock()
            cold = session.run_jobs(st.specs)
            t1 = clock()
            cold_s = speed.seconds(t0, t1)
            sup = session.last_supervisor_stats
            cold_store = (session.store.stats.hits,
                          session.store.stats.misses)
            # The sampler pauses: warm jobs take a fraction of a
            # millisecond, and one calibration loop would delay them.
            # Store-like loops between blocks time the warm rounds.
            with speed.paused():
                warm, latencies, warm_s, warm_raw = [], [], 0.0, 0.0
                gc.collect()
                before = io_point(st.io_record)
                for _ in range(self.WARM_ROUNDS // self.BLOCK):
                    t2 = clock()
                    block = [session.run_jobs(st.specs)
                             for _ in range(self.BLOCK)]
                    t3 = clock()
                    after = io_point(st.io_record)
                    f = (before + after) / 2.0
                    before = after
                    warm_s += (t3 - t2) * f
                    warm_raw += t3 - t2
                    latencies += [o.latency_s * f for rnd in block
                                  for o in rnd]
                    warm += block
            stats = session.store.stats
            warm_store = (stats.hits - cold_store[0],
                          stats.misses - cold_store[1])
        finally:
            shutil.rmtree(root, ignore_errors=True)
        runs = [o.value or {} for o in cold if o.kind == "run"]
        return {
            "cold": cold, "warm": warm,
            "wall_s": cold_s + warm_s, "raw_wall_s": t1 - t0 + warm_raw,
            "cold_round_s": cold_s,
            "compile_s": st.reference["compile_s"],
            "sim_s": st.reference["sim_s"],
            "makespan": sum(v.get("makespan", 0.0) for v in runs),
            "messages": sum(v.get("total_messages", 0) for v in runs),
            "cold_store": cold_store, "warm_store": warm_store,
            "dispatched": sup.dispatched if sup else 0,
            "retries": sup.retries if sup else 0,
            "job_latencies_s": latencies,
            "attempted": len(st.specs) * (1 + self.WARM_ROUNDS),
        }

    def reference(self, st: ServeState, speed: HostSpeed) -> dict:
        """Redo every job of the mix in-process, as its job body does, a
        few times: per run job, whether its arrays match numpy and their
        sha256; and the median host-speed normalized seconds of the
        compile work (parse, verify, optimize, verify_comm, lower) and of
        the simulations.  Runs in the warm-up, before any worker is
        forked: after a round of forked workers the sampler thread gets
        the interpreter lock less often and in-process timings spread
        twice as wide."""
        compile_s, sim_s, jobs = [], [], {}
        for _ in range(self.REPEATS):
            c = s = 0.0
            for spec in st.specs:
                gc.collect()
                t0 = clock()
                program = parse_program(spec.source)
                if spec.kind == "compile":
                    verify_program(program)
                    optimize(program, spec.nprocs, level=spec.opt_level,
                             backend=BACKEND)
                elif spec.kind == "check":
                    verify_communication(program, spec.nprocs,
                                         backend=BACKEND)
                else:
                    runner = lower(program, spec.nprocs, backend=BACKEND)
                t1 = clock()
                c += speed.seconds(t0, t1)
                if spec.kind != "run":
                    continue
                for name, arr in seed_arrays(program, spec.seed).items():
                    runner.write_global(name, arr)
                runner.run()
                arrays = {d.name: runner.read_global(d.name)
                          for d in program.array_decls() if not d.universal}
                s += speed.seconds(t1, clock())
                sha = hashlib.sha256()
                for arr in arrays.values():
                    sha.update(np.ascontiguousarray(arr).tobytes())
                jobs[spec.label] = (st.run_checks[spec.label](arrays),
                                    sha.hexdigest())
            compile_s.append(c)
            sim_s.append(s)
        return {"compile_s": statistics.median(compile_s),
                "sim_s": statistics.median(sim_s), "jobs": jobs}

    def validate(self, st: ServeState, out: dict, speed: HostSpeed) -> None:
        """Nothing: the run jobs' in-process reference is computed once,
        in the warm-up."""

    def layer_counts(self, out: dict) -> dict:
        hits, misses = out["warm_store"]
        return {
            "store.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "supervisor.dispatched": out["dispatched"],
            "supervisor.retries": out["retries"],
        }

    def check(self, st: ServeState, out: dict):
        failures = []
        cold_values = {}
        for o in out["cold"]:
            if o.status != "ok":
                failures.append(f"cold {o.label}: status {o.status}")
            cold_values[o.label] = o.value
        for rnd in out["warm"]:
            for o in rnd:
                if o.status != "cached":
                    failures.append(f"warm {o.label}: status {o.status}")
                elif o.value != cold_values.get(o.label):
                    failures.append(f"warm {o.label}: payload differs "
                                    "from cold")
        for label, value in cold_values.items():
            if label.startswith("check:") and not (value or {}).get("ok"):
                failures.append(f"{label}: verify_comm reported errors")
        for label, (ok, sha) in st.reference["jobs"].items():
            if not ok:
                failures.append(f"{label}: arrays differ from numpy")
            if (cold_values.get(label) or {}).get("result_sha256") != sha:
                failures.append(f"{label}: served result differs from the "
                                "in-process run")
        hits, misses = out["warm_store"]
        if misses or hits != len(st.specs) * self.WARM_ROUNDS:
            failures.append(f"warm store hit ratio {hits}/{hits + misses}"
                            " is not 1.0")
        det = {
            "statuses": [[o.label, o.status, o.attempts] for o in out["cold"]],
            "cold_store": out["cold_store"],
            "warm_store": out["warm_store"],
            "dispatched": out["dispatched"],
            "makespans": {o.label: (o.value or {}).get("makespan")
                          for o in out["cold"] if o.kind == "run"},
        }
        return failures, det


def make(name: str, workdir: str):
    if name == "fft-paper":
        return FFTPaper()
    if name == "spmd-p64":
        return SPMDP64()
    if name == "tune-fft":
        return TuneFFT()
    if name == "serve-replay":
        return ServeReplay(workdir)
    raise KeyError(name)


WORKLOADS = ("fft-paper", "spmd-p64", "tune-fft", "serve-replay")


def det_digest(det: Any) -> str:
    return hashlib.sha256(repr(det).encode()).hexdigest()
