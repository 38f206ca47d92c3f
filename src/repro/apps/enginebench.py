"""Engine-scaling benchmark harness (``repro bench``).

The ROADMAP's north star is an engine that runs "as fast as the hardware
allows" at large processor counts; this module measures that.  It drives
two effect-layer node programs across a sweep of processor counts:

* **workqueue** — the paper's section-2.7 dynamic load-balancing pool
  (:mod:`repro.apps.workqueue`).  All traffic shares one message name, so
  it stresses FIFO matching on a single hot ``(kind, name)`` key plus the
  scheduler itself.
* **fft** — an effect-layer distillation of the section-4 3-D FFT
  redistribution: every processor pipelines per-column compute with a
  directed all-to-all transpose (each column's transfer is injected as
  soon as it is produced, the paper's stage-2 overlap), then awaits and
  consumes its incoming slabs.  Every transfer has a distinct name, so it
  stresses the indexed matching tables and completion batching.

Speedups are measured **live** against :class:`SeedReferenceEngine`, a
faithful re-implementation of the seed engine's hot path (O(P) runnable
scan per effect, O(n) deque scans per match).  Measuring the baseline on
the same machine at the same moment makes the recorded speedup
machine-independent, unlike comparing wall-clock numbers across hosts.
Both engines must produce *identical virtual results* (makespan, message
counts) — the bench asserts this, so it doubles as a semantics regression
check on the scheduler/matching rewrite.

The sweep finishes with a DAMOV-style bottleneck classifier: the
top-scale case of every program is profiled once on the indexed engine
and its wall time is bucketed into *dispatch* (scheduler loops),
*matching* (transport rendezvous), *completion-application* (symbol-table
and memory updates) and *app* (node programs); its virtual time is split
into *compute*, *network* (send/recv occupancy) and *fence* (idle).  The
dominant bucket names the bottleneck, so a regression report says "this
made dispatch the bottleneck again" rather than just "it got slower".

Results are recorded to ``BENCH_engine.json`` by ``repro bench`` (or the
``benchmarks/test_bench_p1_engine_scaling.py`` harness) and compared with
``repro bench --diff BENCH_engine.json``.
"""

from __future__ import annotations

import cProfile
import heapq
import pstats
import time
from collections import deque
from dataclasses import asdict, dataclass

from ..core.errors import BudgetExhaustedError
from ..core.sections import section, unit_sections_1d
from ..distributions import Block, Distribution, ProcessorGrid, Segmentation
from ..machine.effects import Compute, RecvInit, Send, WaitAccessible
from ..machine.engine import Engine, ProcessorContext, _Proc
from ..machine.faults import FaultModel
from ..machine.message import MessageName, TransferKind
from ..machine.model import MachineModel
from ..machine.reliable import ReliableTransport
from ..machine.stats import RunStats
from ..machine.transport.base import PendingRecv
from ..machine.transport.msg import MessagePassingTransport
from .workqueue import make_job_costs, run_workqueue

__all__ = [
    "SeedReferenceEngine",
    "run_fft_pipeline",
    "run_engine_bench",
    "classify_case",
    "measure_faults_overhead",
    "format_bench",
    "diff_bench",
    "BenchCase",
]

#: Model used by all bench cases (fixed so virtual results are comparable).
BENCH_MODEL = MachineModel(o_send=1.0, o_recv=1.0, alpha=10.0, per_byte=0.0)


class _SeedReferenceTransport(MessagePassingTransport):
    """The seed engine's matching path: linear per-key deque scans.

    Replaces the indexed :class:`~repro.machine.message.MessagePool` /
    :class:`~repro.machine.transport.base.RecvIndex` structures with the
    original flat deques and O(n) scans, behind the same
    :class:`Transport` interface.
    """

    def reset(self) -> None:
        # Parent reset provides what the inherited ``send`` needs (name
        # interning, model-constant snapshots); the flat deque dicts then
        # shadow the indexed structures with the seed's linear-scan ones.
        super().reset()
        self._unclaimed = {}
        self._pending = {}

    def route(self, msg) -> None:
        key = (msg.kind, msg.name)
        queue = self._pending.get(key)
        if queue:
            for i, recv in enumerate(queue):
                if msg.dst is None or msg.dst == recv.pid:
                    del queue[i]
                    self._match(msg, recv)
                    return
        self._unclaimed.setdefault(key, deque()).append(msg)

    def recv_init(self, proc, eff) -> None:
        core = self.core
        st = proc.ctx.symtab
        proc.clock += core.model.o_recv
        proc.stats.recv_overhead += core.model.o_recv
        into_var, into_sec = eff.destination()
        name = MessageName(eff.var, eff.sec)
        if eff.kind is TransferKind.VALUE:
            st.begin_value_receive(into_var, into_sec)
        else:
            st.acquire_ownership(into_var, into_sec, transitional=True)
        recv = PendingRecv(
            seq=next(core._seq),
            pid=proc.pid,
            init_time=proc.clock,
            kind=eff.kind,
            name=name,
            into_var=into_var,
            into_sec=into_sec,
        )
        core._emit(proc.clock, proc.pid, "recv-init", f"{eff.kind.value} {name}")
        key = (eff.kind, name)
        pool = self._unclaimed.get(key)
        if pool:
            for i, msg in enumerate(pool):
                if msg.dst is None or msg.dst == proc.pid:
                    del pool[i]
                    self._match(msg, recv)
                    return
        self._pending.setdefault(key, deque()).append(recv)

    def on_crash(self, proc) -> None:  # pragma: no cover - bench runs faultless
        for key, queue in list(self._pending.items()):
            self._pending[key] = deque(r for r in queue if r.pid != proc.pid)

    def unclaimed_count(self) -> int:
        return sum(len(q) for q in self._unclaimed.values())

    def unmatched_count(self) -> int:
        return sum(len(q) for q in self._pending.values())

    def pending_by_pid(self):  # pragma: no cover - diagnostics only
        out: dict[int, list[tuple[float, str]]] = {}
        for (kind, name), queue in self._pending.items():
            for r in queue:
                out.setdefault(r.pid, []).append((
                    r.init_time,
                    f"{kind.value} {name} (into {r.into_var}{r.into_sec}, "
                    f"posted t={r.init_time:.2f})",
                ))
        return out

    def unclaimed_listing(self):  # pragma: no cover - diagnostics only
        for _, pool in sorted(
            self._unclaimed.items(), key=lambda kv: (kv[0][0].value, str(kv[0][1]))
        ):
            for m in sorted(pool, key=lambda m: m.seq):
                yield str(m)


class SeedReferenceEngine(Engine):
    """The seed engine's hot path, kept as a live perf baseline.

    Reproduces the pre-rewrite behavior exactly: every scheduling step
    rescans all processors for the min-clock runnable one, and message
    matching scans per-key deques linearly
    (:class:`_SeedReferenceTransport`).  Virtual-time semantics are
    identical to :class:`~repro.machine.engine.Engine`; only the
    algorithmic complexity differs.  Do not use outside benchmarking.
    """

    def __init__(self, nprocs, model=None, **kw):
        kw.setdefault("transport", _SeedReferenceTransport())
        super().__init__(nprocs, model, **kw)

    def run(self, program) -> RunStats:
        self._reset_run_state()
        procs = []
        for pid in range(self.nprocs):
            ctx = ProcessorContext(pid, self.symtabs[pid], self.nprocs)
            procs.append(_Proc(pid, ctx, program(ctx)))
        self._procs = procs

        budget = self.max_effects
        while True:
            runnable = [p for p in procs if p.runnable]
            if not runnable:
                if all(p.done for p in procs):
                    break
                blocked = [p for p in procs if p.blocked_on is not None]
                if not self._try_unblock(blocked):
                    self._report_deadlock(blocked)
                continue
            proc = min(runnable, key=lambda p: (p.clock, p.pid))
            budget -= 1
            if budget < 0:
                raise BudgetExhaustedError(
                    f"effect budget ({self.max_effects}) exhausted"
                )
            self._effects += 1
            self._step(proc)

        return self._collect_stats(procs)

    def _apply_due_completions(self, proc) -> None:
        while proc.completions and proc.completions[0].time <= proc.clock:
            c = heapq.heappop(proc.completions)
            self._apply_completion(proc, c)


class _PreFaultSendEngine(Engine):
    """Baseline for :func:`measure_faults_overhead`.

    Since the scheduler/transport split, fault injection is *middleware*:
    an unwrapped transport's injection seam goes straight to routing, so
    the fault-free hot path carries no fault branch at all and the
    pre-fault baseline is the production engine itself.  The separate
    name is kept so recorded bench entries stay comparable across
    refactors (and the measured ``overhead_disabled_pct`` now documents
    that the hook's fault-free cost is zero by construction, modulo
    timer noise).
    """


def measure_faults_overhead(
    nprocs: int = 64, *, jobs_per_proc: int = 16, repeats: int = 5
) -> dict:
    """Price the fault-injection hook on the fault-free hot path.

    Runs the P=``nprocs`` dynamic workqueue three ways, ``repeats``
    times each, keeping the minimum wall (the least-noisy estimate):

    * ``prefault`` — :class:`_PreFaultSendEngine`, the send tail with no
      fault hook at all (the pre-fault-layer engine);
    * ``disabled`` — the production :class:`Engine` with no FaultModel
      (the shipped default: one ``is None`` branch per send);
    * ``inert`` — the production engine with ``FaultModel.none()`` plus
      a reliable transport, i.e. the full protocol machinery engaged on
      a fault-free network.

    All three must produce identical makespans (asserted).  The headline
    number is ``overhead_disabled_pct`` — the acceptance bar is < 5%.
    """
    njobs = jobs_per_proc * nprocs
    costs = make_job_costs(njobs, skew=4.0, seed=7)

    def one(engine_cls) -> tuple[float, float]:
        t0 = time.perf_counter()
        stats = run_workqueue(
            njobs, nprocs, scheme="dynamic", costs=costs,
            model=BENCH_MODEL, engine_cls=engine_cls,
        ).stats
        return time.perf_counter() - t0, stats.makespan

    def inert_factory(n, model):
        return Engine(
            n, model, seed=7, faults=FaultModel.none(),
            reliable=ReliableTransport(),
        )

    one(Engine)  # warmup (untimed result discarded)
    # Interleave the variants so drift (thermal, allocator growth) hits
    # all three equally; keep the minimum wall of each.
    walls = {"prefault": float("inf"), "disabled": float("inf"),
             "inert": float("inf")}
    makespans = {}
    for _ in range(repeats):
        for key, cls in (
            ("prefault", _PreFaultSendEngine),
            ("disabled", Engine),
            ("inert", inert_factory),
        ):
            w, m = one(cls)
            walls[key] = min(walls[key], w)
            makespans[key] = m
    pre_w, dis_w, inert_w = (
        walls["prefault"], walls["disabled"], walls["inert"]
    )
    pre_m, dis_m, inert_m = (
        makespans["prefault"], makespans["disabled"], makespans["inert"]
    )
    if not (pre_m == dis_m == inert_m):
        raise AssertionError(
            f"faults-off semantics diverged: makespans "
            f"prefault={pre_m} disabled={dis_m} inert={inert_m}"
        )
    return {
        "program": "workqueue",
        "nprocs": nprocs,
        "jobs_per_proc": jobs_per_proc,
        "repeats": repeats,
        "wall_prefault_s": round(pre_w, 4),
        "wall_disabled_s": round(dis_w, 4),
        "wall_inert_s": round(inert_w, 4),
        "overhead_disabled_pct": round((dis_w - pre_w) / pre_w * 100, 2),
        "overhead_inert_pct": round((inert_w - pre_w) / pre_w * 100, 2),
    }


# ---------------------------------------------------------------------- #
# the FFT-pipeline node program
# ---------------------------------------------------------------------- #


def _linear_seg(extent: int, nprocs: int) -> Segmentation:
    dist = Distribution(section((1, extent)), (Block(),), ProcessorGrid((nprocs,)))
    return Segmentation(dist, (1,))


def run_fft_pipeline(
    nprocs: int,
    *,
    col_cost: float = 10.0,
    consume_cost: float = 5.0,
    model: MachineModel | None = None,
    engine_cls: type[Engine] = Engine,
    backend: str | None = None,
) -> RunStats:
    """Pipelined all-to-all transpose modeled on the section-4 FFT stage 2.

    Processor ``p`` owns the ``p``-th block of ``A`` and ``B`` (extent
    ``P*P``, one element per segment).  It computes each of its ``P``
    columns in turn and immediately injects a directed transfer of the
    just-finished column to its transpose owner, then awaits and consumes
    the ``P - 1`` slabs addressed to it.  Receives are all posted up
    front (initiation/completion split, paper section 2.5) so transfer
    latency overlaps the remaining compute — the stage-2 pipelining.
    """
    # Only forward ``backend`` when set, so factory callables without a
    # ``backend`` parameter keep working.
    engine_kw = {} if backend is None else {"backend": backend}
    engine = engine_cls(
        nprocs, model if model is not None else BENCH_MODEL, **engine_kw
    )
    extent = nprocs * nprocs
    engine.declare("A", _linear_seg(extent, nprocs))
    engine.declare("B", _linear_seg(extent, nprocs))

    # The placement is static, so the section descriptors (and the
    # loop-invariant compute effects) are built once up front — the
    # compile-time explicitness the engine's tag caches key off — rather
    # than re-deriving ~4(P-1) fresh sections inside every node program.
    secs = unit_sections_1d(1, extent)
    col_fx = Compute(col_cost, flops=int(col_cost))
    consume_fx = Compute(consume_cost, flops=int(consume_cost))

    def prog(ctx: ProcessorContext):
        P = ctx.nprocs
        pid = ctx.pid
        base = pid * P
        # Post every receive up front: one incoming slab per peer.
        for src in range(P):
            if src == pid:
                continue
            yield RecvInit(
                TransferKind.VALUE, "A", secs[src * P + pid],
                into_var="B", into_sec=secs[base + src],
            )
        # Compute each column; ship it to its transpose owner immediately.
        write = ctx.symtab.write
        for j in range(P):
            yield col_fx
            if j == pid:
                continue  # the diagonal column stays local
            elem = secs[base + j]
            write("A", elem, float(base + j))
            yield Send(TransferKind.VALUE, "A", elem, dests=(j,))
        # Consume incoming slabs as they complete.
        for src in range(P):
            if src == pid:
                continue
            yield WaitAccessible("B", secs[base + src])
            yield consume_fx

    return engine.run(prog)


# ---------------------------------------------------------------------- #
# the bench runner
# ---------------------------------------------------------------------- #


@dataclass
class BenchCase:
    """One (program, nprocs, engine) measurement."""

    program: str
    nprocs: int
    engine: str
    wall_s: float
    effects: int
    effects_per_sec: float
    makespan: float
    messages: int


def _execute(
    program: str, nprocs: int, engine_cls, *, jobs_per_proc: int
) -> RunStats:
    """Run one bench program to completion; the timing is the caller's."""
    if program == "workqueue":
        njobs = jobs_per_proc * nprocs
        costs = make_job_costs(njobs, skew=4.0, seed=7)
        return run_workqueue(
            njobs, nprocs, scheme="dynamic", costs=costs,
            model=BENCH_MODEL, engine_cls=engine_cls,
        ).stats
    if program == "fft":
        return run_fft_pipeline(nprocs, engine_cls=engine_cls)
    raise ValueError(f"unknown bench program {program!r}")


def _run_case(
    program: str,
    nprocs: int,
    engine_name: str,
    engine_cls,
    *,
    jobs_per_proc: int,
) -> BenchCase:
    t0 = time.perf_counter()
    stats = _execute(program, nprocs, engine_cls, jobs_per_proc=jobs_per_proc)
    wall = time.perf_counter() - t0
    # Rate guard: perf_counter can return equal stamps around a very fast
    # run (coarse clock, suspended VM).  Clamp the divisor to the clock's
    # plausible resolution instead of recording a zero or infinite rate,
    # and round the rate to a whole number so recorded files diff cleanly.
    rate = stats.effects_processed / max(wall, 1e-9)
    return BenchCase(
        program=program,
        nprocs=nprocs,
        engine=engine_name,
        wall_s=round(wall, 4),
        effects=stats.effects_processed,
        effects_per_sec=int(round(rate)),
        makespan=stats.makespan,
        messages=stats.total_messages,
    )


# ---------------------------------------------------------------------- #
# DAMOV-style bottleneck classification
# ---------------------------------------------------------------------- #

#: Wall-time bucket per source area.  Python-level frames are attributed
#: to the layer that owns the file; C primitives (dict/heapq/numpy calls)
#: have no frame of their own and land in ``other``, so the buckets rank
#: *interpreted* work.
_WALL_BUCKETS = (
    ("matching", ("/machine/transport/", "/machine/message.py",
                  "/machine/reliable.py", "/machine/faults.py")),
    ("dispatch", ("/machine/scheduler.py", "/machine/engine.py")),
    ("completion", ("/runtime/symtab.py", "/runtime/memory.py",
                    "/core/sections.py")),
    ("app", ("/apps/",)),
)


def _classify_wall(profile: cProfile.Profile) -> dict[str, float]:
    """Bucket a profile's per-frame internal time by engine layer."""
    buckets = dict.fromkeys(
        [name for name, _ in _WALL_BUCKETS] + ["other"], 0.0
    )
    for (filename, _lineno, _fn), (_cc, _nc, tt, _ct, _callers) in (
        pstats.Stats(profile).stats.items()
    ):
        f = filename.replace("\\", "/")
        for bucket, needles in _WALL_BUCKETS:
            if any(n in f for n in needles):
                buckets[bucket] += tt
                break
        else:
            buckets["other"] += tt
    total = sum(buckets.values())
    if total <= 0.0:
        return {k: 0.0 for k in buckets}
    return {k: round(v / total, 4) for k, v in buckets.items()}


def _classify_virtual(stats: RunStats) -> dict[str, float]:
    """Split aggregate virtual processor-time into compute/network/fence."""
    parts = {
        "compute": stats.total_compute_time,
        "network": stats.total_overhead,
        "fence": stats.total_idle_time,
    }
    total = sum(parts.values())
    if total <= 0.0:
        return {k: 0.0 for k in parts}
    return {k: round(v / total, 4) for k, v in parts.items()}


def classify_case(
    program: str,
    nprocs: int,
    engine_name: str,
    engine_cls,
    *,
    jobs_per_proc: int,
) -> dict:
    """Profile one case and name its wall-time and virtual-time bottleneck.

    The wall answer says where the *implementation* spends host time
    (dispatch vs. matching vs. completion-application vs. the node
    programs); the virtual answer says what the *simulated machine* is
    bound by (compute vs. network occupancy vs. fence/idle time).  The
    two axes are independent — e.g. a fence-bound program can still be
    dispatch-bound on the host.
    """
    profile = cProfile.Profile()
    profile.enable()
    stats = _execute(program, nprocs, engine_cls, jobs_per_proc=jobs_per_proc)
    profile.disable()
    wall = _classify_wall(profile)
    virtual = _classify_virtual(stats)
    return {
        "program": program,
        "nprocs": nprocs,
        "engine": engine_name,
        "wall": wall,
        "bottleneck_wall": max(wall, key=wall.__getitem__),
        "virtual": virtual,
        "bottleneck_virtual": max(virtual, key=virtual.__getitem__),
    }


def run_engine_bench(
    nprocs_list: tuple[int, ...] = (8, 64, 256),
    programs: tuple[str, ...] = ("workqueue", "fft"),
    *,
    jobs_per_proc: int = 16,
    seed_reference: bool = True,
    seed_fft_max_procs: int = 64,
    classify: bool = True,
) -> dict:
    """Run the scaling sweep; return a JSON-serializable results dict.

    Every case runs on the indexed engine.  The seed-reference baseline is
    skipped for the FFT transpose above ``seed_fft_max_procs``
    processors (its O(P) scan over O(P^2) effects makes the baseline
    itself cubic — the very pathology the rewrite removes).  When both
    engines run a case, their virtual results must agree exactly; a
    mismatch raises.  With ``classify``, the largest case of each
    program is profiled once and its bottleneck recorded
    (see :func:`classify_case`).
    """
    # Untimed warmup: the first engine run in a process pays one-time
    # numpy/code-path initialization that would otherwise be billed to
    # whichever case happens to run first.
    warm: list = [Engine]
    if seed_reference:
        warm.append(SeedReferenceEngine)
    for engine_cls in warm:
        _run_case("workqueue", 2, "warmup", engine_cls, jobs_per_proc=2)

    cases: list[BenchCase] = []
    speedups: dict[str, float] = {}
    for program in programs:
        for nprocs in nprocs_list:
            new = _run_case(
                program, nprocs, "indexed", Engine, jobs_per_proc=jobs_per_proc
            )
            cases.append(new)
            if not seed_reference:
                continue
            if program == "fft" and nprocs > seed_fft_max_procs:
                continue
            old = _run_case(
                program, nprocs, "seed-reference", SeedReferenceEngine,
                jobs_per_proc=jobs_per_proc,
            )
            cases.append(old)
            if (old.makespan, old.messages, old.effects) != (
                new.makespan, new.messages, new.effects
            ):
                raise AssertionError(
                    f"engine semantics diverged on {program}@{nprocs}: "
                    f"seed {(old.makespan, old.messages, old.effects)} vs "
                    f"indexed {(new.makespan, new.messages, new.effects)}"
                )
            if old.effects_per_sec:
                speedups[f"{program}@{nprocs}"] = round(
                    new.effects_per_sec / old.effects_per_sec, 2
                )
    classifier = [
        classify_case(
            program, max(nprocs_list), "indexed", Engine,
            jobs_per_proc=jobs_per_proc,
        )
        for program in programs
    ] if classify else []
    return {
        "schema": 2,
        "config": {
            "nprocs": list(nprocs_list),
            "programs": list(programs),
            "jobs_per_proc": jobs_per_proc,
            "model": asdict(BENCH_MODEL),
        },
        "cases": [asdict(c) for c in cases],
        "speedups": speedups,
        "classifier": classifier,
        "faults_off": measure_faults_overhead(
            min(64, max(nprocs_list)), jobs_per_proc=jobs_per_proc
        ),
    }


def format_bench(results: dict) -> str:
    """Human-readable table of one results dict."""
    lines = [
        f"{'program':10s} {'P':>4s} {'engine':14s} {'wall_s':>8s} "
        f"{'effects':>9s} {'eff/sec':>10s} {'makespan':>10s}"
    ]
    for c in results["cases"]:
        lines.append(
            f"{c['program']:10s} {c['nprocs']:4d} {c['engine']:14s} "
            f"{c['wall_s']:8.3f} {c['effects']:9d} {c['effects_per_sec']:10d} "
            f"{c['makespan']:10.0f}"
        )
    if results.get("speedups"):
        pairs = ", ".join(f"{k}: {v}x" for k, v in results["speedups"].items())
        lines.append(f"speedup vs seed engine — {pairs}")
    for e in results.get("classifier", []):
        wall = e["wall"]
        virt = e["virtual"]
        wall_s = ", ".join(
            f"{k} {wall[k] * 100:.0f}%"
            for k in ("dispatch", "matching", "completion", "app", "other")
        )
        virt_s = ", ".join(
            f"{k} {virt[k] * 100:.0f}%"
            for k in ("compute", "network", "fence")
        )
        lines.append(
            f"bottleneck {e['program']}@{e['nprocs']} ({e['engine']}): "
            f"wall -> {e['bottleneck_wall']} ({wall_s}); "
            f"virtual -> {e['bottleneck_virtual']} ({virt_s})"
        )
    fo = results.get("faults_off")
    if fo:
        lines.append(
            f"faults-off overhead @P{fo['nprocs']} — disabled "
            f"{fo['overhead_disabled_pct']:+.1f}% vs pre-fault send path, "
            f"inert protocol {fo['overhead_inert_pct']:+.1f}%"
        )
    return "\n".join(lines)


def diff_bench(old: dict, new: dict) -> str:
    """Compare two results dicts (e.g. committed BENCH_engine.json vs now)."""
    index = {
        (c["program"], c["nprocs"], c["engine"]): c for c in old.get("cases", [])
    }
    lines = [
        f"{'case':32s} {'old eff/s':>10s} {'new eff/s':>10s} {'ratio':>7s}"
    ]
    for c in new["cases"]:
        key = (c["program"], c["nprocs"], c["engine"])
        prev = index.get(key)
        label = f"{c['program']}@{c['nprocs']} ({c['engine']})"
        if prev is None:
            lines.append(f"{label:32s} {'-':>10s} {c['effects_per_sec']:10d}")
            continue
        if prev["effects_per_sec"]:
            ratio = f"{c['effects_per_sec'] / prev['effects_per_sec']:6.2f}x"
        else:
            ratio = f"{'-':>7s}"  # unusable record (zero-rate guard hit)
        lines.append(
            f"{label:32s} {prev['effects_per_sec']:10d} "
            f"{c['effects_per_sec']:10d} {ratio}"
        )
    return "\n".join(lines)
