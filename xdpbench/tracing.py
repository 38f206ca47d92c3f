"""Per-layer spans recorded from outside the library.

:func:`install` replaces the public entry points of each layer with
wrappers that record one span per call — name, start, end, parent span
and pass id — into a flat in-memory table, plus counts taken at the same
boundary (lines parsed, bytes gathered, flops, effects, ...).
:func:`restore` puts the originals back.  Nothing inside ``src/`` is
changed: free functions are swapped in every module that imported them,
methods on their classes.

A call nested directly inside a span of the same name (``read_owned``
calling ``read``) records no second span, so a layer's time is never
counted twice.  :func:`layer_metrics` turns the table into the per-layer
metrics: inclusive time per span name, self time (duration minus the
time direct children cover) for the scheduler and the tuner's search,
and the share of the pass no span covers.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict
from typing import Any, Callable

import numpy as np

#: span-table columns
SEQ, NAME, PARENT, PASS, START, END = range(6)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.table = array("d")
        self.stack: list[tuple[int, int]] = []
        self.seq = 0
        self.pass_id = 0
        self.counts: dict[str, float] = defaultdict(float)
        self._restore: list[tuple[Any, str, Any]] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn: Callable,
             after: Callable | None = None) -> Callable:
        """``fn`` recording a span ``name``; ``after(counts, args, out)``
        takes counts from the call's arguments and result."""
        nid = self.name_id(name)
        stack, table, clock = self.stack, self.table, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][1] == nid:
                return fn(*args, **kwargs)
            seq = tracer.seq
            tracer.seq = seq + 1
            parent = stack[-1][0] if stack else -1
            stack.append((seq, nid))
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                table.extend((seq, nid, parent, tracer.pass_id, t0, t1))
            if after is not None:
                after(tracer.counts, args, out)
            return out

        return traced

    def wrap_generator(self, name: str, genfn: Callable) -> Callable:
        """A generator function whose every resume is one ``name`` span
        (the work happens between yields, driven by the scheduler)."""
        nid = self.name_id(name)
        tracer = self
        calls = name + ".calls"

        def drive(gen):
            stack, table, clock = tracer.stack, tracer.table, time.perf_counter
            value, error = None, None
            while True:
                seq = tracer.seq
                tracer.seq = seq + 1
                parent = stack[-1][0] if stack else -1
                stack.append((seq, nid))
                t0 = clock()
                try:
                    if error is not None:
                        item = gen.throw(error)
                    else:
                        item = gen.send(value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    t1 = clock()
                    stack.pop()
                    table.extend((seq, nid, parent, tracer.pass_id, t0, t1))
                value, error = None, None
                try:
                    value = yield item
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:  # forwarded into the inner generator
                    error = exc

        @functools.wraps(genfn)
        def traced(*args, **kwargs):
            tracer.counts[calls] += 1
            return drive(genfn(*args, **kwargs))

        return traced

    # -- installing ---------------------------------------------------- #

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def replace_function(self, fn: Callable, wrapper: Callable,
                         extra_modules: tuple = ()) -> None:
        """Swap ``fn`` for ``wrapper`` in every module bound to it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "repro" or n.startswith("repro.")]
        for module in modules + list(extra_modules):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapper)

    def replace_method(self, cls: type, attr: str, wrapper: Callable) -> None:
        self._set(cls, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- reading ------------------------------------------------------- #

    def spans(self) -> np.ndarray:
        return np.frombuffer(self.table, dtype=np.float64).reshape(-1, 6)


# ---------------------------------------------------------------------- #
# what gets wrapped
# ---------------------------------------------------------------------- #


def _lines(counts, args, out) -> None:
    text = args[0] if args else ""
    if isinstance(text, str):
        counts["ir.parse.lines"] += text.count("\n") + 1


def _events(counts, args, out) -> None:
    counts["verify_comm.events"] += out.events


def _run_stats(counts, args, out) -> None:
    counts["scheduler.effects"] += out.effects_processed
    counts["transport.bytes"] += out.total_bytes
    counts["sim.idle_vt"] += out.total_idle_time


def _read_bytes(counts, args, out) -> None:
    counts["symtab.bytes"] += out.nbytes


def _write_bytes(counts, args, out) -> None:
    symtab, name, sec = args[0], args[1], args[2]
    counts["symtab.bytes"] += sec.size * symtab.entry(name).dtype.itemsize


def _flops(counts, args, out) -> None:
    counts["kernels.flops"] += out


SYMTAB_GROUPS = {
    "symtab.read": ("read", "read_owned"),
    "symtab.write": ("write",),
    "symtab.owner": ("release_ownership", "acquire_ownership",
                     "complete_ownership_receive"),
    "symtab.recv": ("begin_value_receive", "complete_value_receive"),
    "symtab.query": ("iown", "accessible", "state_of", "mylb", "myub"),
}
SYMTAB_COUNTS = {"symtab.read": _read_bytes, "symtab.write": _write_bytes}

TRANSPORT_METHODS = {"send": "transport.send", "recv_init": "transport.recv",
                     "route": "transport.route"}

#: optimization pass classes, named by their module
OPT_PASSES = ("transfer_elim", "vectorize", "binding", "compute_rule_elim",
              "guard_motion", "fusion", "await_motion", "recv_motion",
              "cleanup")


def install(tracer: Tracer, extra_modules: tuple = ()) -> None:
    """Wrap every layer entry point the per-layer metrics read."""
    import importlib
    import inspect

    import repro.core.analysis.verify_comm as verify_comm
    import repro.core.collectives.schedule as schedule
    import repro.core.ir.parser as parser
    import repro.core.ir.printer as printer
    import repro.core.ir.verify as ir_verify
    import repro.core.kernels as kernels
    import repro.core.opt as opt
    import repro.core.sections as sections
    import repro.core.translate as translate
    import repro.machine.transport as transport
    import repro.runtime.symtab as symtab
    import repro.serve.store as store
    import repro.serve.supervisor as supervisor
    import repro.tune.search as search

    # the package re-exports the function under the submodule's name
    lower_mod = importlib.import_module("repro.core.codegen.lower")
    def function(fn, name, after=None):
        tracer.replace_function(fn, tracer.wrap(name, fn, after),
                                extra_modules)

    function(parser.parse_program, "ir.parse", _lines)
    function(printer.print_program, "ir.print")
    function(ir_verify.verify_program, "ir.verify")
    function(translate.translate, "translate")
    function(verify_comm.verify_communication, "verify_comm", _events)
    function(lower_mod.lower, "lower")
    function(search.tune, "tune.search")
    tracer.replace_function(
        schedule.execute_ops,
        tracer.wrap_generator("collectives", schedule.execute_ops),
        extra_modules,
    )
    # the tuner's stages, as the search module binds them
    tracer._set(search, "prefilter",
                tracer.wrap("tune.prefilter", search.prefilter))
    tracer._set(search, "evaluate_candidates",
                tracer.wrap("tune.evaluate", search.evaluate_candidates))

    cp = lower_mod.CompiledProgram
    tracer.replace_method(cp, "run", tracer.wrap("scheduler", cp.run,
                                                 _run_stats))
    rst = symtab.RuntimeSymbolTable
    for name, methods in SYMTAB_GROUPS.items():
        for m in methods:
            tracer.replace_method(rst, m, tracer.wrap(
                name, getattr(rst, m), SYMTAB_COUNTS.get(name)))
    tracer.replace_method(sections.Section, "intersect", tracer.wrap(
        "sections.intersect", sections.Section.intersect))

    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith(
                transport.__name__ + "."):
            continue
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ != module.__name__:
                continue
            for m, name in TRANSPORT_METHODS.items():
                if m in vars(cls):
                    tracer.replace_method(cls, m, tracer.wrap(
                        name, vars(cls)[m]))

    register = kernels.KernelRegistry.register

    def traced_register(self, name, fn):
        return register(self, name, tracer.wrap("kernels", fn, _flops))

    tracer.replace_method(kernels.KernelRegistry, "register", traced_register)

    for cls_name in opt.__all__:
        cls = getattr(opt, cls_name)
        short = cls.__module__.rsplit(".", 1)[-1]
        if short not in OPT_PASSES:
            continue
        tracer.replace_method(cls, "run", _counting_pass(
            tracer, short, tracer.wrap(f"opt.{short}", cls.run)))

    st = store.ArtifactStore
    tracer.replace_method(st, "get", tracer.wrap("store.get", st.get))
    tracer.replace_method(st, "put", tracer.wrap("store.put", st.put))
    sup = supervisor.Supervisor
    tracer.replace_method(sup, "run_jobs", tracer.wrap(
        "supervisor.run_jobs", sup.run_jobs))


def _counting_pass(tracer: Tracer, short: str, traced_run: Callable):
    """A pass's ``run`` that also counts the report lines it added
    ("no opportunities" is appended by the pass manager afterwards)."""
    key = f"opt.{short}.applied"

    def run(self, program, ctx):
        before = len(ctx.reports)
        out = traced_run(self, program, ctx)
        tracer.counts[key] += len(ctx.reports) - before
        return out

    return run


# ---------------------------------------------------------------------- #
# per-layer metrics
# ---------------------------------------------------------------------- #


def span_totals(tracer: Tracer) -> dict:
    """Per span name: calls, inclusive seconds and self seconds; plus
    the seconds covered by root spans."""
    t = tracer.spans()
    k = len(tracer.names)
    if not len(t):
        zero = np.zeros(k)
        return {"calls": zero, "incl": zero, "self": zero, "root": 0.0,
                "table": t}
    seq = t[:, SEQ].astype(np.int64)
    nid = t[:, NAME].astype(np.int64)
    parent = t[:, PARENT].astype(np.int64)
    dur = t[:, END] - t[:, START]
    row_of = np.full(int(seq.max()) + 1, -1, dtype=np.int64)
    row_of[seq] = np.arange(len(seq))
    has_parent = parent >= 0
    children = np.bincount(row_of[parent[has_parent]],
                           weights=dur[has_parent], minlength=len(seq))
    return {
        "calls": np.bincount(nid, minlength=k).astype(float),
        "incl": np.bincount(nid, weights=dur, minlength=k),
        "self": np.bincount(nid, weights=dur - children, minlength=k),
        "root": float(dur[~has_parent].sum()),
        "table": t,
        "row_of": row_of,
    }


def under(tracer: Tracer, totals: dict, name: str,
          ancestor: str) -> tuple[int, float]:
    """Calls and seconds of ``name`` spans inside an ``ancestor`` span."""
    if name not in tracer.names or ancestor not in tracer.names:
        return 0, 0.0
    t, row_of = totals["table"], totals["row_of"]
    nid, aid = tracer.names.index(name), tracer.names.index(ancestor)
    calls, seconds = 0, 0.0
    for row in np.flatnonzero(t[:, NAME] == nid):
        p = int(t[row, PARENT])
        while p >= 0:
            prow = row_of[p]
            if t[prow, NAME] == aid:
                calls += 1
                seconds += t[row, END] - t[row, START]
                break
            p = int(t[prow, PARENT])
    return calls, seconds


def layer_metrics(tracer: Tracer, window_s: float, speed: float,
                  traced_wall: float, untraced_wall: float,
                  extra: dict) -> dict:
    """Every per-layer metric, ``name -> (value, unit)``.

    ``window_s`` is the traced pass from start to end (the base of the
    unattributed share); span seconds are scaled by the pass's host-speed
    factor ``speed`` to match the end-to-end metrics;
    ``traced_wall``/``untraced_wall`` are the workload's ``wall_s`` with
    tracing on and off (the overhead).

    ``extra`` carries the values read from results rather than spans
    (``tune.*`` sizes, ``store.hit_ratio``, ``supervisor.*`` counters)."""
    totals = span_totals(tracer)
    c = tracer.counts

    def get(kind: str, name: str) -> float:
        if name not in tracer.names:
            return 0.0
        value = float(totals[kind][tracer.names.index(name)])
        return value if kind == "calls" else value * speed

    def s(name):
        return get("incl", name), "s"

    def calls(name):
        return get("calls", name), "count"

    sched_s = get("incl", "scheduler")
    effects = c["scheduler.effects"]
    engine_evals = extra.get("tune.engine_evaluated", 0)
    prefilter_vc_calls, prefilter_vc = under(tracer, totals, "verify_comm",
                                             "tune.prefilter")
    m = {
        "ir.parse.s": s("ir.parse"),
        "ir.parse.calls": calls("ir.parse"),
        "ir.parse.lines": (c["ir.parse.lines"], "lines"),
        "ir.print.s": s("ir.print"),
        "ir.print.calls": calls("ir.print"),
        "ir.verify.s": s("ir.verify"),
        "translate.s": s("translate"),
    }
    for short in OPT_PASSES:
        m[f"opt.{short}.s"] = s(f"opt.{short}")
        m[f"opt.{short}.applied"] = (c[f"opt.{short}.applied"], "count")
    prefilter_vc *= speed
    m.update({
        "verify_comm.s": s("verify_comm"),
        "verify_comm.calls": calls("verify_comm"),
        "verify_comm.events": (c["verify_comm.events"], "count"),
        "lower.s": s("lower"),
        "scheduler.self_s": (get("self", "scheduler"), "s"),
        "scheduler.effects": (effects, "count"),
        "scheduler.effects_per_s": (effects / sched_s if sched_s else 0.0,
                                    "1/s"),
        "transport.send.calls": calls("transport.send"),
        "transport.send.s": s("transport.send"),
        "transport.recv.calls": calls("transport.recv"),
        "transport.recv.s": s("transport.recv"),
        "transport.route.s": s("transport.route"),
        "transport.bytes": (c["transport.bytes"], "B"),
        "sim.idle_vt": (c["sim.idle_vt"], "vt"),
        "symtab.read.calls": calls("symtab.read"),
        "symtab.read.s": s("symtab.read"),
        "symtab.write.calls": calls("symtab.write"),
        "symtab.write.s": s("symtab.write"),
        "symtab.owner.calls": calls("symtab.owner"),
        "symtab.owner.s": s("symtab.owner"),
        "symtab.recv.s": s("symtab.recv"),
        "symtab.query.s": s("symtab.query"),
        "symtab.bytes": (c["symtab.bytes"], "B"),
        "sections.intersect.calls": calls("sections.intersect"),
        "sections.intersect.s": s("sections.intersect"),
        "kernels.calls": calls("kernels"),
        "kernels.s": s("kernels"),
        "kernels.flops": (c["kernels.flops"], "flop"),
        "collectives.calls": (c["collectives.calls"], "count"),
        "collectives.s": s("collectives"),
        "tune.prefilter.s": s("tune.prefilter"),
        "tune.prefilter.verify_comm_s": (prefilter_vc, "s"),
        "tune.evaluate.s": s("tune.evaluate"),
        "tune.evaluate.engine_runs": (extra.get("tune.engine_runs", 0),
                                      "count"),
        "tune.search.self_s": (get("self", "tune.search"), "s"),
        "tune.space_size": (extra.get("tune.space_size", 0), "count"),
        "tune.shortlist": (extra.get("tune.shortlist", 0), "count"),
        "tune.rank_corr": (extra.get("tune.rank_corr", 0.0), "ratio"),
        "tune.verify_comm.useful_ratio": (
            engine_evals / prefilter_vc_calls if prefilter_vc_calls else 0.0,
            "ratio"),
        "store.get.calls": calls("store.get"),
        "store.get.s": s("store.get"),
        "store.hit_ratio": (extra.get("store.hit_ratio", 0.0), "ratio"),
        "supervisor.run_jobs.s": s("supervisor.run_jobs"),
        "supervisor.dispatched": (extra.get("supervisor.dispatched", 0),
                                  "count"),
        "supervisor.retries": (extra.get("supervisor.retries", 0), "count"),
        "trace.overhead_frac": (
            traced_wall / untraced_wall - 1.0 if untraced_wall else 0.0,
            "ratio"),
        "trace.unattributed_frac": (
            max(0.0, 1.0 - totals["root"] / window_s)
            if window_s else 0.0,
            "ratio"),
    })
    return m
