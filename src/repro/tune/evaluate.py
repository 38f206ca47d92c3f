"""Simulated-engine oracle for tuning candidates.

The analytic model ranks placements; the oracle *validates* the top
candidates by running them on the real machine (the VM pipeline feeding
:class:`~repro.machine.engine.Engine`).  Evaluations are memoized in an
:class:`EvalCache` keyed on a digest of (program, processor count,
machine model, path, seed) — identical candidates across tuning calls
never re-simulate — and independent candidates evaluate in parallel via
:mod:`concurrent.futures`.  Every task is a pure function of its digest
inputs, so parallel evaluation is bit-identical to serial.

Passing ``store`` (an :class:`~repro.serve.store.ArtifactStore` or a
directory path) extends the memo across *processes and runs*: results
are looked up in the crash-safe on-disk store before simulating and
published after, so a re-tune in a fresh process — or a tune job under
``repro serve`` — pays one engine run per distinct candidate total.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from ..core.codegen import lower
from ..core.ir.nodes import Program
from ..core.ir.parser import parse_program
from ..core.ir.printer import print_program
from ..machine.model import MachineModel

__all__ = [
    "EvalCache",
    "EvalResult",
    "EvalTask",
    "evaluate_candidates",
    "evaluate_sharded",
    "model_from_json",
    "model_to_json",
    "seed_arrays",
]


def model_to_json(model: MachineModel) -> str:
    """Canonical JSON wire form of a machine model (sorted keys, so the
    string — and everything keyed on it — is stable across processes)."""
    return json.dumps(dict(sorted(asdict(model).items())))


def model_from_json(text: str) -> MachineModel:
    return MachineModel(**json.loads(text))


@dataclass(frozen=True)
class EvalTask:
    """One candidate run: program x processor count x model x seed."""

    program: Program | str
    nprocs: int
    model: MachineModel
    path: str = "vm"
    seed: int = 7
    label: str = ""
    backend: str = "msg"

    @cached_property
    def source_text(self) -> str:
        """Canonical source form: parsed programs print through the IR
        printer (once per task), so a :class:`Program` and its printed
        text — and an in-process task and the serve job carrying it —
        share one identity (digest, store key, artifact)."""
        return (
            self.program if isinstance(self.program, str)
            else print_program(self.program)
        )

    @cached_property
    def digest(self) -> str:
        key = repr((self.source_text, self.nprocs,
                    sorted(asdict(self.model).items()),
                    self.path, self.seed, self.backend))
        return hashlib.sha256(key.encode()).hexdigest()

    def parsed(self) -> Program:
        return (
            parse_program(self.program)
            if isinstance(self.program, str) else self.program
        )


@dataclass(frozen=True)
class EvalResult:
    """Engine-measured outcome of one task (arrays included so callers can
    check semantic equivalence against a reference run)."""

    label: str
    digest: str
    makespan: float
    total_messages: int
    total_bytes: int
    total_flops: int
    arrays: Mapping[str, np.ndarray] = field(default_factory=dict, hash=False)
    from_cache: bool = False

    def matches(self, reference: Mapping[str, np.ndarray]) -> bool:
        """Elementwise agreement with a reference run's final arrays."""
        if set(self.arrays) != set(reference):
            return False
        return all(
            np.allclose(self.arrays[k], reference[k], atol=1e-9)
            for k in self.arrays
        )


class EvalCache:
    """Memoized evaluations keyed by task digest, with hit accounting.

    Two memo levels are counted separately: ``hits``/``misses`` for this
    in-memory dict (always 0 hits on a fresh process, however warm the
    disk is), and ``store_hits``/``store_misses`` for lookups that went
    to the shared artifact store — the number a warm replay should show
    as hot.  ``engine_runs`` counts evaluations neither level absorbed.
    """

    def __init__(self) -> None:
        self._store: dict[str, EvalResult] = {}
        self.hits = 0
        self.misses = 0
        self.store_hits = 0
        self.store_misses = 0
        self.engine_runs = 0

    def __len__(self) -> int:
        return len(self._store)

    def get(self, digest: str) -> EvalResult | None:
        r = self._store.get(digest)
        if r is None:
            self.misses += 1
        else:
            self.hits += 1
        return r

    def put(self, result: EvalResult) -> None:
        self._store[result.digest] = result

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def store_hit_rate(self) -> float:
        total = self.store_hits + self.store_misses
        return self.store_hits / total if total else 0.0


def seed_arrays(program: Program, seed: int) -> dict[str, np.ndarray]:
    """Deterministic initial contents for every exclusive array.

    Complex arrays get a seeded complex normal cube (the FFT apps' input
    convention), real arrays a real one; the generator order is the
    declaration order, so a (program, seed) pair always produces the same
    inputs.
    """
    rng = np.random.default_rng(seed)
    out: dict[str, np.ndarray] = {}
    for d in program.array_decls():
        if d.universal:
            continue
        shape = d.shape
        if np.dtype(d.dtype).kind == "c":
            out[d.name] = (
                rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            ).astype(d.dtype)
        elif np.dtype(d.dtype).kind == "f":
            out[d.name] = rng.standard_normal(shape).astype(d.dtype)
        else:
            out[d.name] = rng.integers(0, 100, size=shape).astype(d.dtype)
    return out


# The VM lowerer publishes itself through a module global while compiling,
# so compilation must be serialized; the engine runs stay concurrent.
_COMPILE_LOCK = threading.Lock()


def _as_store(store):
    """Coerce ``store`` (ArtifactStore | path | None) to a store or None.

    Imported lazily: serve depends on tune for its job bodies, so the
    module-level import would be circular.
    """
    if store is None:
        return None
    from ..serve.store import ArtifactStore

    if isinstance(store, ArtifactStore):
        return store
    return ArtifactStore(store)


def _store_key(task: EvalTask):
    """The shared-store address of one evaluation task.

    Same identity fields as :attr:`EvalTask.digest`, but hashed through
    the store's canonical key form (program source, pass config, backend,
    machine model) so serve jobs and in-process tunes share entries.
    """
    from ..serve.store import ArtifactKey

    src = task.source_text
    config = {
        "kind": "eval",
        "nprocs": task.nprocs,
        "path": task.path,
        "seed": task.seed,
    }
    return ArtifactKey.make(src, config, task.backend, task.model)


def _store_payload(result: EvalResult) -> dict:
    """What the shared store records for one evaluation (label excluded:
    the same candidate may be relabeled across tuning calls)."""
    return {
        "makespan": result.makespan,
        "total_messages": result.total_messages,
        "total_bytes": result.total_bytes,
        "total_flops": result.total_flops,
        "arrays": dict(result.arrays),
    }


def _result_from_store(task: EvalTask, payload: Mapping) -> EvalResult:
    return EvalResult(
        label=task.label,
        digest=task.digest,
        makespan=payload["makespan"],
        total_messages=payload["total_messages"],
        total_bytes=payload["total_bytes"],
        total_flops=payload["total_flops"],
        arrays=dict(payload["arrays"]),
        from_cache=True,
    )


def _run_task(task: EvalTask) -> EvalResult:
    program = task.parsed()
    with _COMPILE_LOCK:
        runner = lower(program, task.nprocs, model=task.model,
                       backend=task.backend)
    for name, arr in seed_arrays(program, task.seed).items():
        runner.write_global(name, arr)
    stats = runner.run()
    arrays = {
        d.name: runner.read_global(d.name)
        for d in program.array_decls() if not d.universal
    }
    return EvalResult(
        label=task.label,
        digest=task.digest,
        makespan=stats.makespan,
        total_messages=stats.total_messages,
        total_bytes=stats.total_bytes,
        total_flops=sum(p.flops for p in stats.procs),
        arrays=arrays,
    )


def evaluate_candidates(
    tasks: Sequence[EvalTask],
    *,
    cache: EvalCache | None = None,
    store=None,
    parallel: bool = True,
    max_workers: int | None = None,
) -> list[EvalResult]:
    """Run candidate tasks on the real engine, memoized and in parallel.

    Results come back in task order.  Cached digests are served without
    re-simulation (marked ``from_cache``); the rest run concurrently when
    ``parallel`` is set.  Each task is pure, so the results are
    bit-identical between parallel and serial evaluation.

    ``store`` (an :class:`~repro.serve.store.ArtifactStore` or a path)
    adds a second, cross-process memo level: in-memory ``cache`` first,
    then the shared on-disk store, then the engine — fresh results are
    published to both.
    """
    shared = _as_store(store)
    results: list[EvalResult | None] = [None] * len(tasks)
    todo: list[int] = []
    for i, task in enumerate(tasks):
        if cache is not None:
            hit = cache.get(task.digest)
            if hit is not None:
                results[i] = EvalResult(
                    label=task.label, digest=hit.digest, makespan=hit.makespan,
                    total_messages=hit.total_messages,
                    total_bytes=hit.total_bytes, total_flops=hit.total_flops,
                    arrays=hit.arrays, from_cache=True,
                )
                continue
        if shared is not None:
            payload = shared.get(_store_key(task))
            if payload is not None:
                if cache is not None:
                    cache.store_hits += 1
                r = _result_from_store(task, payload)
                results[i] = r
                if cache is not None:
                    cache.put(r)
                continue
            if cache is not None:
                cache.store_misses += 1
        todo.append(i)
    if todo:
        if parallel and len(todo) > 1:
            with ThreadPoolExecutor(max_workers=max_workers) as pool:
                fresh = list(pool.map(_run_task, [tasks[i] for i in todo]))
        else:
            fresh = [_run_task(tasks[i]) for i in todo]
        for i, r in zip(todo, fresh):
            results[i] = r
            if cache is not None:
                cache.engine_runs += 1
                cache.put(r)
            if shared is not None:
                shared.put(_store_key(tasks[i]), _store_payload(r))
    return [r for r in results if r is not None]


def evaluate_sharded(
    tasks: Sequence[EvalTask],
    *,
    store,
    shards: int,
    cache: EvalCache | None = None,
    timeout_s: float = 300.0,
) -> list[EvalResult]:
    """Evaluate candidates in ``shards`` supervised worker *processes*.

    Each uncached task becomes a ``kind="eval"`` job dispatched through
    the :class:`~repro.serve.supervisor.Supervisor`; the content-addressed
    artifact store is both the cross-process memo (the worker consults it
    before simulating, under exactly the key
    :func:`evaluate_candidates` uses, so sharded and in-process
    evaluations share entries) and the durable record.

    The merge is deterministic: results are matched back to tasks by
    submission order, never by completion order, and any task whose job
    does not come back ``ok``/``cached`` (a crashed, poisoned or shed
    worker) is re-run in-process — so for a fixed seed the returned
    results are bit-identical for any shard count, 1 included.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1 (got {shards})")
    shared = _as_store(store)
    if shared is None:
        raise ValueError("sharded evaluation needs an artifact store")
    from ..serve.jobs import JobSpec
    from ..serve.supervisor import Supervisor, SupervisorConfig

    results: list[EvalResult | None] = [None] * len(tasks)
    todo: list[int] = []
    for i, task in enumerate(tasks):
        if cache is not None:
            hit = cache.get(task.digest)
            if hit is not None:
                results[i] = EvalResult(
                    label=task.label, digest=hit.digest, makespan=hit.makespan,
                    total_messages=hit.total_messages,
                    total_bytes=hit.total_bytes, total_flops=hit.total_flops,
                    arrays=hit.arrays, from_cache=True,
                )
                continue
        todo.append(i)

    if todo:
        specs = [
            JobSpec(
                kind="eval",
                source=tasks[i].source_text,
                nprocs=tasks[i].nprocs,
                backend=tasks[i].backend,
                seed=tasks[i].seed,
                options=(
                    ("model_json", model_to_json(tasks[i].model)),
                    ("path", tasks[i].path),
                ),
                label=tasks[i].label,
                timeout_s=timeout_s,
            )
            for i in todo
        ]
        config = SupervisorConfig(
            workers=shards,
            queue_capacity=max(64, len(specs) + 8),
            timeout_s=timeout_s,
        )
        with Supervisor(store_root=shared.root, config=config) as sup:
            outcomes = sup.run_jobs(specs)
        for i, outcome in zip(todo, outcomes):
            task = tasks[i]
            if outcome.status in ("ok", "cached") and outcome.value is not None:
                if cache is not None:
                    if outcome.status == "cached":
                        cache.store_hits += 1
                    else:
                        cache.store_misses += 1
                        cache.engine_runs += 1
                r = dataclasses.replace(
                    _result_from_store(task, outcome.value),
                    from_cache=(outcome.status == "cached"),
                )
            else:
                # Worker lost (crash/poison/shed): recompute in-process so
                # the merged results stay deterministic, and publish what
                # the worker failed to.
                r = _run_task(task)
                if cache is not None:
                    cache.store_misses += 1
                    cache.engine_runs += 1
                shared.put(_store_key(task), _store_payload(r))
            results[i] = r
            if cache is not None:
                cache.put(r)
    return [r for r in results if r is not None]
