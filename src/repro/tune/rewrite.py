"""Phase detection and phased program regeneration.

The tuner treats a program like the section-4 FFT as a sequence of
*pencil phases*: passes that apply a kernel to every 1-D pencil of one
array along some axis.  :func:`detect_phases` recovers that sequence from
the IR (it is insensitive to how the input was hand-optimized — guarded
naive loops, localized loops and pipelined loops all contain the same
kernel calls); :func:`generate_phased_program` re-emits the program from
scratch under a chosen per-phase placement, with compiler-planned
redistribution between phases.

Generated code uses the idioms of the paper's hand stages:

* compute loops localized with ``mylb``/``myub`` over the layout's
  distributed axis, slab-guarded with ``iown`` (exact for ``BLOCK``,
  a filter for ``CYCLIC``);
* ``bulk`` redistribution: one destination-bound ``-=>``/``<=-`` pair per
  element-exact :class:`~repro.distributions.RedistributionPlan` move
  after the producing phase, consuming phase guarded by hoisted per-slab
  ``await`` (the stage-1 shape, with vectorized messages);
* ``pipelined`` redistribution: each move split along the producing
  phase's loop axis and fused into that loop, so transfer overlaps the
  remaining slabs' computation; the consuming ``await`` is sunk to
  per-pencil granularity (the stage-2 shape);
* ``planner`` redistribution: the moves are packed into bounded rounds by
  :func:`~repro.core.collectives.planner.plan_bounded_redistribution`
  under a ``max_temp_frac`` temp-memory budget, each round closed by its
  ``await`` epilogue before the next round's sends (the memory-bounded
  shape of the ``repro redist`` planner, here as a tuning knob).

The result is a :class:`~repro.core.ir.nodes.Program`.  Transfer
statements come from :func:`~repro.core.redistgen.redistribution_code`,
the one lowering of redistribution moves (dedup, ordering and
same-guard grouping live there); this module builds only the phase
loops around them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..core.analysis.layouts import build_segmentation
from ..core.collectives.planner import plan_bounded_redistribution
from ..core.errors import XDPError
from ..core.ir.nodes import (
    ArrayDecl, ArrayRef, Await, BinOp, Block, CallStmt, DoLoop, Full,
    Guarded, IfStmt, Index, IntConst, Iown, Mylb, Myub, Program, Stmt, VarRef,
)
from ..core.redistgen import REALIZATIONS, redistribution_code
from ..distributions import ProcessorGrid, plan_redistribution
from .space import LayoutCandidate, candidate_segmentation

__all__ = [
    "PhaseSpec",
    "REALIZATIONS",
    "TuneError",
    "detect_phases",
    "generate_phased_program",
]

_VARS = "ijklmnpqr"


class TuneError(XDPError):
    """The program is outside the tuner's scope (or tuning failed)."""


@dataclass(frozen=True)
class PhaseSpec:
    """One pencil phase: ``kernel`` applied along ``axis`` of ``var``."""

    var: str
    kernel: str
    axis: int  # 0-based pencil axis

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.kernel} along axis {self.axis + 1} of {self.var}"


def _walk_calls(body: Iterable[Stmt]) -> Iterator[CallStmt]:
    for s in body:
        match s:
            case CallStmt():
                yield s
            case Guarded(_, inner) | DoLoop(_, _, _, _, inner):
                yield from _walk_calls(inner)
            case IfStmt(_, then, orelse):
                yield from _walk_calls(then)
                yield from _walk_calls(orelse)
            case _:
                pass


def detect_phases(program: Program) -> list[PhaseSpec]:
    """Recover the pencil-phase sequence of a program.

    Every kernel call with exactly one full (``*``) subscript on exactly
    one array argument is a pencil operation; consecutive calls with the
    same (array, kernel, axis) fold into one phase.  Calls that do not fit
    the pencil shape make the program untunable.
    """
    phases: list[PhaseSpec] = []
    for call in _walk_calls(program.body):
        refs = [
            a for a in call.args
            if isinstance(a, ArrayRef) and not a.is_element()
        ]
        if len(refs) != 1:
            raise TuneError(
                f"call {call.name}: need exactly one array-section argument "
                f"to detect a pencil phase (got {len(refs)})"
            )
        ref = refs[0]
        full_axes = [i for i, s in enumerate(ref.subs) if isinstance(s, Full)]
        if len(full_axes) != 1:
            raise TuneError(
                f"call {call.name}({ref.var}[...]): pencil phases need "
                f"exactly one '*' subscript (got {len(full_axes)})"
            )
        spec = PhaseSpec(ref.var, call.name, full_axes[0])
        if not phases or phases[-1] != spec:
            phases.append(spec)
    if not phases:
        raise TuneError("no kernel calls found; nothing to tune")
    return phases


# ---------------------------------------------------------------------- #
# code generation
# ---------------------------------------------------------------------- #


def _single_dist_axis(cand: LayoutCandidate) -> int:
    axes = cand.distributed_axes()
    if len(axes) != 1:
        raise TuneError(
            f"phased generation needs exactly one distributed axis "
            f"(candidate {cand.key} has {len(axes)})"
        )
    return axes[0]


def _phase_loop(
    decl: ArrayDecl, phase: PhaseSpec, cand: LayoutCandidate, *, guard: str
) -> DoLoop:
    """The compute loop of one phase under one layout.

    ``guard`` is ``"iown"`` (no incoming data), ``"await"`` (hoisted
    per-slab wait) or ``"await-sunk"`` (per-pencil wait).
    """
    d = _single_dist_axis(cand)
    if d == phase.axis:
        raise TuneError("phase axis cannot be distributed")
    t = next(a for a in range(decl.rank) if a not in (phase.axis, d))
    dv, tv = _VARS[d], _VARS[t]

    def ref(parts: dict[int, str]) -> ArrayRef:
        return ArrayRef(decl.name, tuple(
            Index(VarRef(parts[a])) if a in parts else Full()
            for a in range(decl.rank)
        ))

    full, slab, pencil = ref({}), ref({d: dv}), ref({d: dv, t: tv})
    call = CallStmt(phase.kernel, (pencil,))
    (lo_d, hi_d), (lo_t, hi_t) = decl.bounds[d], decl.bounds[t]

    def pencils(body: Stmt) -> DoLoop:
        return DoLoop(tv, IntConst(lo_t), IntConst(hi_t), body=Block((body,)))

    if guard == "await-sunk":
        inner = pencils(Guarded(Await(pencil), Block((call,))))
    else:
        rule = Await(slab) if guard == "await" else Iown(slab)
        inner = Guarded(rule, Block((pencils(call),)))
    axis = IntConst(d + 1)
    return DoLoop(
        dv,
        BinOp("max", IntConst(lo_d), Mylb(full, axis)),
        BinOp("min", IntConst(hi_d), Myub(full, axis)),
        body=Block((inner,)),
    )


def generate_phased_program(
    program: Program,
    phases: Sequence[PhaseSpec],
    layouts: Sequence[LayoutCandidate],
    nprocs: int,
    *,
    realization: str = "bulk",
    max_temp_frac: float = 0.5,
) -> Program:
    """Re-emit ``program`` as its phase sequence under chosen placements.

    ``layouts[p]`` is the placement for ``phases[p]``; the initial
    placement is the declaration's.  Redistribution between differing
    placements is planned element-exactly and lowered by
    :func:`~repro.core.redistgen.redistribution_code`: emitted after the
    producing phase (``bulk``), fused into it per outer slab
    (``pipelined``), or packed into temp-memory-bounded rounds
    (``planner``, budgeted by ``max_temp_frac`` of the largest
    per-processor footprint).
    """
    if realization not in REALIZATIONS:
        raise TuneError(
            f"unknown realization {realization!r} (choose from {REALIZATIONS})"
        )
    if len(layouts) != len(phases):
        raise TuneError("need one layout per phase")
    names = {p.var for p in phases}
    if len(names) != 1:
        raise TuneError(f"phased generation handles one array (got {names})")
    decl = next(d for d in program.array_decls() if d.name == phases[0].var)
    if decl.universal or decl.dist is None:
        raise TuneError(f"{decl.name} has no placement to tune")
    grid = ProcessorGrid((nprocs,))

    current = build_segmentation(decl, grid).distribution
    body: list[Stmt] = []
    for idx, (phase, cand) in enumerate(zip(phases, layouts)):
        target = candidate_segmentation(decl, cand, nprocs).distribution
        plan = plan_redistribution(current, target)
        guard = "iown"
        if plan.moves:
            src_axes = [
                a for a, s in enumerate(current.specs) if not s.collapsed
            ]
            if realization == "planner":
                body += redistribution_code(
                    decl.name,
                    plan_bounded_redistribution(
                        current, target, max_temp_frac=max_temp_frac,
                        elem_bytes=np.dtype(decl.dtype).itemsize, plan=plan,
                    ),
                    "planner",
                )
                guard = "await"
            elif (realization == "pipelined" and idx > 0
                  and len(src_axes) == 1):
                body += redistribution_code(
                    decl.name, plan, "pipelined",
                    producer=body.pop(), axis=src_axes[0],
                )
                guard = "await-sunk"
            else:
                body += redistribution_code(decl.name, plan, "bulk")
                guard = "await"
        body.append(_phase_loop(decl, phase, cand, guard=guard))
        current = target
    return Program((decl,), Block(tuple(body)))
