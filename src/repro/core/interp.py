"""Reference interpreter: the canonical operational semantics of IL+XDP.

Executes a :class:`~repro.core.ir.nodes.Program` on the simulated SPMD
machine by tree-walking the IR on every processor.  The semantics follow
Figure 1 of the paper:

* every processor executes every statement it reaches (SPMD); compute
  rules decide *where* a guarded statement takes effect;
* a compute rule that references an unowned section (outside the first
  argument of an intrinsic) evaluates to **false** rather than erroring
  (section 2.4), so rules can run anywhere;
* ``await(X)`` returns false immediately when X is unowned, otherwise
  blocks until accessible;
* owner sends (``=>``, ``-=>``) block until the section is accessible;
  value receives (``E <- X``) block until E is accessible, then initiate;
* XDP performs **no automatic state checks**: reading a transitional
  section yields unpredictable bytes (the simulator's "whatever has been
  delivered so far"), exactly as section 2.1 prescribes.

Processor ids: the paper numbers processors 1-based (``P1..Pn``), so the
``mypid`` intrinsic and the pid sets of ``E -> S`` use **1-based** values
in IL+XDP programs; the engine's internal pids are 0-based.

Cost accounting uses documented per-construct flop constants so that the
benefit of optimizations like compute-rule elimination is measurable in
virtual time; see ``ELEM_FLOPS`` etc. below.
"""

from __future__ import annotations

from typing import Any, Generator

import numpy as np

from ..distributions import Distribution, ProcessorGrid, Segmentation, parse_dist_spec
from ..machine.effects import Compute, Effect, Log, RecvInit, Send, WaitAccessible
from ..machine.engine import Engine, ProcessorContext
from ..machine.message import TransferKind
from ..machine.model import MachineModel
from ..machine.stats import RunStats
from ..runtime.symtab import MAXINT, MININT
from .errors import CompilationError, OwnershipError, XDPError
from .ir.nodes import (
    Accessible, ArrayDecl, ArrayRef, Assign, Await, BinOp, Block, BoolConst,
    CallStmt, CollectiveStmt, DoLoop, Expr, ExprStmt, FloatConst, Full,
    Guarded, IfStmt, Index, IntConst, Iown, MaxIntConst, MinIntConst, Mylb,
    Mypid, Myub, NumProcs, Program, Range, RecvStmt, ScalarDecl, SendStmt,
    Stmt, UnaryOp, VarRef, XferOp,
)
from .kernels import KernelRegistry, default_registry
from .sections import Section, Triplet

__all__ = ["Interpreter", "run_program"]

#: Cost constants (virtual flops).  One memory access = one flop; an
#: intrinsic is a run-time symbol-table lookup (several comparisons per
#: segment descriptor — flat-rated); a loop iteration pays increment+test.
ELEM_FLOPS = 1
INTRINSIC_FLOPS = 5
ITER_FLOPS = 1
CALL_BASE_FLOPS = 10

_MISSING = object()

_XFER_TO_KIND = {
    XferOp.SEND_VALUE: TransferKind.VALUE,
    XferOp.SEND_OWNER: TransferKind.OWNERSHIP,
    XferOp.SEND_OWNER_VALUE: TransferKind.OWN_VALUE,
    XferOp.RECV_VALUE: TransferKind.VALUE,
    XferOp.RECV_OWNER: TransferKind.OWNERSHIP,
    XferOp.RECV_OWNER_VALUE: TransferKind.OWN_VALUE,
}


class _Env:
    """Per-processor execution state."""

    __slots__ = ("ctx", "program", "scalars", "universal", "kernels", "flops")

    def __init__(self, ctx: ProcessorContext, program: Program, kernels: KernelRegistry):
        self.ctx = ctx
        self.program = program
        self.scalars: dict[str, Any] = {}
        self.universal: dict[str, np.ndarray] = {}
        self.kernels = kernels
        self.flops = 0  # pending, flushed as Compute effects

    @property
    def pid1(self) -> int:
        """1-based processor id (the paper's ``mypid``)."""
        return self.ctx.pid + 1


class Interpreter:
    """Run IL+XDP programs on the simulated machine.

    Parameters
    ----------
    program:
        The IL+XDP program (see :func:`repro.core.ir.parser.parse_program`).
    nprocs:
        Processor count; a linear grid unless ``grid`` is given.
    grid:
        Explicit processor grid for multi-dimensional distributions.
    model:
        Machine cost model (default: the message-passing preset).
    kernels:
        Kernel registry for ``call`` statements.
    strict:
        Propagated to engine/symtabs: turn "unpredictable" situations
        (transitional reads, unmatched traffic) into errors.
    """

    def __init__(
        self,
        program: Program,
        nprocs: int,
        *,
        grid: ProcessorGrid | None = None,
        model: MachineModel | None = None,
        kernels: KernelRegistry | None = None,
        strict: bool = False,
        trace: bool = False,
        backend: str | None = None,
    ):
        self.program = program
        self.grid = grid if grid is not None else ProcessorGrid((nprocs,))
        if self.grid.size != nprocs:
            raise CompilationError(
                f"grid {self.grid.shape} does not have {nprocs} processors"
            )
        self.nprocs = nprocs
        self.model = model if model is not None else MachineModel()
        self.kernels = kernels if kernels is not None else default_registry()
        self.strict = strict
        self.trace = trace
        self.engine = Engine(
            nprocs, self.model, strict=strict, trace=trace, backend=backend
        )
        self.segmentations: dict[str, Segmentation] = {}
        self._setup()

    # ------------------------------------------------------------------ #
    # setup
    # ------------------------------------------------------------------ #

    def _setup(self) -> None:
        from .analysis.layouts import build_layouts

        self.segmentations = build_layouts(self.program, self.grid)
        for d in self.program.array_decls():
            if d.universal:
                continue
            self.engine.declare(
                d.name, self.segmentations[d.name], dtype=np.dtype(d.dtype)
            )

    # ------------------------------------------------------------------ #
    # global data access (test / example convenience)
    # ------------------------------------------------------------------ #

    def write_global(self, name: str, values: np.ndarray) -> None:
        """Scatter a global array to its owners (or all copies if universal)."""
        d = self.program.decl(name)
        assert isinstance(d, ArrayDecl)
        values = np.asarray(values, dtype=np.dtype(d.dtype))
        if values.shape != d.shape:
            raise ValueError(f"{name} expects shape {d.shape}, got {values.shape}")
        if d.universal:
            # Universal copies are created at run start; stage the initial
            # value for _Env construction.
            self._universal_init = getattr(self, "_universal_init", {})
            self._universal_init[name] = values.copy()
            return
        offs = tuple(lo for lo, _ in d.bounds)
        for st in self.engine.symtabs:
            for desc in st.entry(name).segdescs:
                idx = tuple(
                    np.arange(t.lo, t.hi + 1, t.step) - off
                    for t, off in zip(desc.segment.dims, offs)
                )
                st.memory.get(desc.handle)[...] = values[np.ix_(*idx)]

    def read_global(self, name: str) -> np.ndarray:
        """Assemble the global array from current owners.

        Raises if ownership is not a total cover (e.g. mid-redistribution).
        """
        d = self.program.decl(name)
        assert isinstance(d, ArrayDecl)
        if d.universal:
            raise ValueError(f"{name} is universal; copies differ per processor")
        out = np.zeros(d.shape, dtype=np.dtype(d.dtype))
        seen = np.zeros(d.shape, dtype=bool)
        offs = tuple(lo for lo, _ in d.bounds)
        for st in self.engine.symtabs:
            for desc in st.entry(name).segdescs:
                idx = tuple(
                    np.arange(t.lo, t.hi + 1, t.step) - off
                    for t, off in zip(desc.segment.dims, offs)
                )
                out[np.ix_(*idx)] = st.memory.get(desc.handle)
                seen[np.ix_(*idx)] = True
        if not seen.all():
            raise OwnershipError(
                f"{name}: {int((~seen).sum())} elements currently unowned everywhere"
            )
        return out

    def ownership_map(self, name: str) -> dict[int, int]:
        """pid → number of elements of ``name`` currently owned."""
        return {
            st.pid: st.owned_elements(name)
            for st in self.engine.symtabs
            if name in st
        }

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

    def run(self) -> RunStats:
        program = self.program
        kernels = self.kernels
        universal_init = getattr(self, "_universal_init", {})
        interp = self

        def node(ctx: ProcessorContext) -> Generator[Effect, Any, None]:
            env = _Env(ctx, program, kernels)
            for d in program.scalar_decls():
                if d.init is not None:
                    env.scalars[d.name] = yield from interp._eval(d.init, env)
                else:
                    env.scalars[d.name] = 0
            for d in program.array_decls():
                if d.universal:
                    if d.name in universal_init:
                        env.universal[d.name] = universal_init[d.name].copy()
                    else:
                        env.universal[d.name] = np.zeros(
                            d.shape, dtype=np.dtype(d.dtype)
                        )
            yield from interp._exec_block(program.body, env)
            if env.flops:
                yield Compute(env.flops * 1.0, flops=env.flops)
                env.flops = 0

        return self.engine.run(node)

    # ------------------------------------------------------------------ #
    # statement execution
    # ------------------------------------------------------------------ #

    def _flush(self, env: _Env) -> Generator[Effect, Any, None]:
        if env.flops:
            yield Compute(env.flops * 1.0, flops=env.flops)
            env.flops = 0

    def _exec_block(self, block: Block, env: _Env) -> Generator[Effect, Any, None]:
        for stmt in block:
            yield from self._exec(stmt, env)

    def _exec(self, stmt: Stmt, env: _Env) -> Generator[Effect, Any, None]:
        match stmt:
            case Guarded(rule, body):
                ok = yield from self._eval_rule(rule, env)
                if ok:
                    yield from self._exec_block(body, env)
            case Assign(target, expr):
                yield from self._exec_assign(target, expr, env)
            case SendStmt():
                yield from self._exec_send(stmt, env)
            case RecvStmt():
                yield from self._exec_recv(stmt, env)
            case DoLoop(var, lo, hi, step, body):
                lo_v = yield from self._eval(lo, env)
                hi_v = yield from self._eval(hi, env)
                st_v = yield from self._eval(step, env)
                if st_v == 0:
                    raise XDPError("do-loop step of 0")
                i = int(lo_v)
                while (i <= hi_v) if st_v > 0 else (i >= hi_v):
                    env.scalars[var] = i
                    env.flops += ITER_FLOPS
                    yield from self._exec_block(body, env)
                    i += int(st_v)
            case IfStmt(cond, then, orelse):
                c = yield from self._eval(cond, env)
                yield from self._exec_block(then if c else orelse, env)
            case CallStmt():
                yield from self._exec_call(stmt, env)
            case ExprStmt(expr):
                yield from self._eval(expr, env)
            case CollectiveStmt():
                yield from self._exec_collective(stmt, env)
            case _:
                raise TypeError(f"cannot execute {stmt!r}")

    def _exec_assign(
        self, target: ArrayRef | VarRef, expr: Expr, env: _Env
    ) -> Generator[Effect, Any, None]:
        value = yield from self._eval(expr, env)
        if isinstance(target, VarRef):
            env.scalars[target.name] = value
            env.flops += ELEM_FLOPS
            return
        decl, sec = yield from self._resolve(target, env)
        env.flops += ELEM_FLOPS * sec.size
        if decl.universal:
            arr = env.universal[decl.name]
            idx = self._universal_index(decl, sec)
            if np.isscalar(value) or getattr(value, "shape", None) == ():
                arr[idx] = value
            else:
                arr[idx] = np.asarray(value).reshape(sec.shape)
        else:
            scalar = np.isscalar(value) or getattr(value, "shape", None) == ()
            env.ctx.symtab.write(
                decl.name, sec, value if scalar else np.asarray(value)
            )

    def _exec_send(self, stmt: SendStmt, env: _Env) -> Generator[Effect, Any, None]:
        decl, sec = yield from self._resolve(stmt.ref, env)
        if decl.universal:
            raise OwnershipError(
                f"transfer of universal section {decl.name}{sec}: copy it to an "
                "exclusive section first (paper section 2.6)"
            )
        dests: tuple[int, ...] | None = None
        if stmt.dests is not None:
            vals = []
            for e in stmt.dests:
                v = yield from self._eval(e, env)
                vals.append(int(v) - 1)  # 1-based pids in IL
            dests = tuple(vals)
            for p in dests:
                if not 0 <= p < self.nprocs:
                    raise XDPError(f"send destination P{p + 1} outside machine")
        yield from self._flush(env)
        if stmt.op is not XferOp.SEND_VALUE:
            # Owner sends block until the section is accessible.
            yield WaitAccessible(decl.name, sec)
        yield Send(_XFER_TO_KIND[stmt.op], decl.name, sec, dests)

    def _exec_recv(self, stmt: RecvStmt, env: _Env) -> Generator[Effect, Any, None]:
        decl_into, sec_into = yield from self._resolve(stmt.into, env)
        if decl_into.universal:
            raise OwnershipError(
                f"receive into universal section {decl_into.name}: XDP restricts "
                "receive left-hand sides to exclusive sections (section 2.7)"
            )
        if stmt.op is XferOp.RECV_VALUE:
            decl_src, sec_src = yield from self._resolve(stmt.source, env)
            yield from self._flush(env)
            # "Blocks until E is accessible, then initiates receive".
            yield WaitAccessible(decl_into.name, sec_into)
            yield RecvInit(
                TransferKind.VALUE,
                decl_src.name,
                sec_src,
                into_var=decl_into.name,
                into_sec=sec_into,
            )
        else:
            yield from self._flush(env)
            yield RecvInit(_XFER_TO_KIND[stmt.op], decl_into.name, sec_into)

    def _exec_collective(
        self, stmt: CollectiveStmt, env: _Env
    ) -> Generator[Effect, Any, None]:
        """Reference semantics of a collective: the flat bulk schedule
        (identical transfers and canonical reduction order as every
        backend schedule, so results are bit-identical engine-wide)."""
        from .collectives.schedule import (
            build_instance, collective_ops, execute_ops,
        )

        def drain(gen):
            # Group/root/section expressions never block (mypid and hence
            # any data dependence on placement is statically forbidden);
            # drive the evaluation generators to completion synchronously.
            try:
                next(gen)
            except StopIteration as si:
                return si.value
            raise XDPError(
                "collective group/section expressions must not block"
            )

        def eval_expr(e: Expr):
            return drain(self._eval(e, env))

        def resolve(ref: ArrayRef, bindings: dict[str, int]):
            saved = {b: env.scalars.get(b, _MISSING) for b in bindings}
            env.scalars.update(bindings)
            try:
                decl, sec = drain(self._resolve(ref, env))
            finally:
                for name, v in saved.items():
                    if v is _MISSING:
                        del env.scalars[name]
                    else:
                        env.scalars[name] = v
            if decl.universal:
                raise OwnershipError(
                    f"collective section {decl.name}: XDP restricts "
                    "collective operands to exclusive sections"
                )
            return decl.name, sec

        inst = build_instance(stmt, self.nprocs, eval_expr, resolve)
        if env.pid1 not in inst.members:
            return
        yield from execute_ops(collective_ops(inst, env.pid1, "flat"), env)

    def _exec_call(self, stmt: CallStmt, env: _Env) -> Generator[Effect, Any, None]:
        kernel = env.kernels.get(stmt.name)
        arrays: list[tuple[ArrayDecl, Section, np.ndarray]] = []
        args: list[Any] = []
        for a in stmt.args:
            if isinstance(a, ArrayRef) and not a.is_element():
                decl, sec = yield from self._resolve(a, env)
                if decl.universal:
                    idx = self._universal_index(decl, sec)
                    buf = np.ascontiguousarray(env.universal[decl.name][idx])
                else:
                    buf = env.ctx.symtab.read(decl.name, sec)
                arrays.append((decl, sec, buf))
                args.append(buf)
            else:
                v = yield from self._eval(a, env)
                args.append(v)
        flops = kernel.fn(*args)
        for decl, sec, buf in arrays:
            if decl.universal:
                env.universal[decl.name][self._universal_index(decl, sec)] = buf
            else:
                env.ctx.symtab.write(decl.name, sec, buf)
        env.flops += CALL_BASE_FLOPS + int(flops)
        yield from self._flush(env)

    # ------------------------------------------------------------------ #
    # expression evaluation
    # ------------------------------------------------------------------ #

    def _eval_rule(self, rule: Expr, env: _Env) -> Generator[Effect, Any, bool]:
        """Compute-rule evaluation: unowned references make it false."""
        try:
            v = yield from self._eval(rule, env)
        except OwnershipError:
            env.flops += INTRINSIC_FLOPS
            return False
        return bool(v)

    def _eval(self, e: Expr, env: _Env) -> Generator[Effect, Any, Any]:
        match e:
            case IntConst(v) | FloatConst(v) | BoolConst(v):
                return v
            case VarRef(name):
                if name in env.scalars:
                    return env.scalars[name]
                raise XDPError(f"undefined scalar {name!r} on P{env.pid1}")
            case Mypid():
                return env.pid1
            case NumProcs():
                return self.nprocs
            case MaxIntConst():
                return MAXINT
            case MinIntConst():
                return MININT
            case UnaryOp(op, operand):
                v = yield from self._eval(operand, env)
                env.flops += 1
                return (not v) if op == "not" else (-v)
            case BinOp(op, lhs, rhs):
                return (yield from self._eval_binop(op, lhs, rhs, env))
            case ArrayRef():
                return (yield from self._eval_array_read(e, env))
            case Iown(ref):
                _, sec = yield from self._resolve(ref, env, name_position=True)
                env.flops += INTRINSIC_FLOPS
                return env.ctx.symtab.iown(ref.var, sec)
            case Accessible(ref):
                _, sec = yield from self._resolve(ref, env, name_position=True)
                env.flops += INTRINSIC_FLOPS
                return env.ctx.symtab.accessible(ref.var, sec)
            case Await(ref):
                _, sec = yield from self._resolve(ref, env, name_position=True)
                env.flops += INTRINSIC_FLOPS
                if not env.ctx.symtab.iown(ref.var, sec):
                    return False
                yield from self._flush(env)
                yield WaitAccessible(ref.var, sec)
                return True
            case Mylb(ref, dim):
                _, sec = yield from self._resolve(ref, env, name_position=True)
                d = yield from self._eval(dim, env)
                env.flops += INTRINSIC_FLOPS
                return env.ctx.symtab.mylb(ref.var, int(d), sec)
            case Myub(ref, dim):
                _, sec = yield from self._resolve(ref, env, name_position=True)
                d = yield from self._eval(dim, env)
                env.flops += INTRINSIC_FLOPS
                return env.ctx.symtab.myub(ref.var, int(d), sec)
            case _:
                raise TypeError(f"cannot evaluate {e!r}")

    def _eval_binop(self, op: str, lhs: Expr, rhs: Expr, env: _Env):
        # 'and'/'or' short-circuit, which also limits unowned-reference
        # poisoning of compute rules to the evaluated part.
        if op == "and":
            l = yield from self._eval(lhs, env)
            env.flops += 1
            if not l:
                return False
            r = yield from self._eval(rhs, env)
            return bool(r)
        if op == "or":
            l = yield from self._eval(lhs, env)
            env.flops += 1
            if l:
                return True
            r = yield from self._eval(rhs, env)
            return bool(r)
        l = yield from self._eval(lhs, env)
        r = yield from self._eval(rhs, env)
        size = 1
        for v in (l, r):
            if isinstance(v, np.ndarray):
                size = max(size, v.size)
        env.flops += size
        match op:
            case "+":
                return l + r
            case "-":
                return l - r
            case "*":
                return l * r
            case "/":
                if isinstance(l, (int, np.integer)) and isinstance(r, (int, np.integer)):
                    return int(l) // int(r) if r != 0 else 0
                return l / r
            case "%":
                if isinstance(l, (int, np.integer)) and isinstance(r, (int, np.integer)):
                    return l % r if r != 0 else 0
                return l % r
            case "==":
                return l == r
            case "!=":
                return l != r
            case "<":
                return l < r
            case "<=":
                return l <= r
            case ">":
                return l > r
            case ">=":
                return l >= r
            case "min":
                return min(l, r) if size == 1 else np.minimum(l, r)
            case "max":
                return max(l, r) if size == 1 else np.maximum(l, r)
            case _:
                raise TypeError(f"unknown operator {op!r}")

    def _eval_array_read(self, ref: ArrayRef, env: _Env):
        decl, sec = yield from self._resolve(ref, env)
        env.flops += ELEM_FLOPS * sec.size
        if decl.universal:
            buf = env.universal[decl.name][self._universal_index(decl, sec)]
        else:
            buf = env.ctx.symtab.read(decl.name, sec)
        if ref.is_element():
            return buf.reshape(()).item() if buf.size == 1 else buf
        return buf

    # ------------------------------------------------------------------ #
    # section resolution
    # ------------------------------------------------------------------ #

    def _resolve(
        self, ref: ArrayRef, env: _Env, *, name_position: bool = False
    ) -> Generator[Effect, Any, tuple[ArrayDecl, Section]]:
        decl = None
        for d in self.program.decls:
            if d.name == ref.var:
                decl = d
                break
        if decl is None or isinstance(decl, ScalarDecl):
            raise XDPError(f"{ref.var!r} is not a declared array")
        if len(ref.subs) != decl.rank:
            raise XDPError(
                f"{ref.var} has rank {decl.rank}, reference has {len(ref.subs)} "
                "subscripts"
            )
        dims: list[Triplet] = []
        for sub, (lo_b, hi_b) in zip(ref.subs, decl.bounds):
            match sub:
                case Full():
                    dims.append(Triplet(lo_b, hi_b, 1))
                case Index(expr):
                    v = yield from self._eval(expr, env)
                    dims.append(Triplet(int(v), int(v), 1))
                case Range(lo, hi, step):
                    lo_v = lo_b if lo is None else int((yield from self._eval(lo, env)))
                    hi_v = hi_b if hi is None else int((yield from self._eval(hi, env)))
                    st_v = 1 if step is None else int((yield from self._eval(step, env)))
                    dims.append(Triplet(lo_v, hi_v, st_v))
        return decl, Section(tuple(dims))

    @staticmethod
    def _universal_index(decl: ArrayDecl, sec: Section) -> tuple:
        offs = tuple(lo for lo, _ in decl.bounds)
        return np.ix_(
            *(
                np.arange(t.lo, t.hi + 1, t.step) - off
                for t, off in zip(sec.dims, offs)
            )
        )


def run_program(
    text_or_program: str | Program,
    nprocs: int,
    **kw: Any,
) -> tuple[Interpreter, RunStats]:
    """Parse (if needed) and run a program; returns (interpreter, stats)."""
    from .ir.parser import parse_program

    program = (
        parse_program(text_or_program)
        if isinstance(text_or_program, str)
        else text_or_program
    )
    interp = Interpreter(program, nprocs, **kw)
    stats = interp.run()
    return interp, stats
