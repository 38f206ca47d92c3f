"""Generate IL+XDP redistribution code from a compile-time plan.

The paper (section 4) notes that the compiler builds "an auxiliary data
structure … that links the ``-=>`` and ``<=-`` statements … used for
communication binding at code generation time and to generate matching
message types".  :class:`~repro.distributions.RedistributionPlan` (and its
memory-bounded decomposition,
:class:`~repro.core.collectives.planner.RedistSchedule`) is that
structure; :func:`redistribution_code` is the one lowering that turns it
into linked, destination-bound statement pairs.  The tuner's phased
programs and the FFT's bounded stage 3 both build their transfers here,
so there is one dedup rule and one ordering:

* moves are sorted by (source, destination, section); self-moves are
  dropped (the data is already in place, and a processor messaging itself
  deadlocks) and duplicates keyed on (source, destination, section) emit
  once;
* sends come in source order, receives (and ``await`` fences) in
  destination order;
* consecutive statements that share a guard are emitted as one guarded
  block.  Every processor evaluates every top-level guard, so at P
  processors a flat per-move emission charges P × moves evaluations —
  enough to erase a repartitioning's win at n=16/P=16 — while grouping
  charges P × senders.

Three realizations:

.. code-block:: none

    bulk       mypid == s : { A[sec] -=> {d} ... }   // grouped sends
               mypid == d : { A[sec] <=- ... }       // grouped receives
    planner    per bounded round: grouped sends, grouped receives, and
               grouped ``await(A[sec])`` fences closing the round
    pipelined  each move split along the producing loop's axis; the
               fragment for coordinate c is sent from inside that loop
               under ``mypid == s and <loopvar> == c``, receives follow
               the loop
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby
from typing import TYPE_CHECKING, Iterable

from ..distributions.redistribute import Move
from .ir.nodes import (
    ArrayRef, Await, BinOp, Block, DoLoop, Expr, ExprStmt, Guarded, Index,
    IntConst, Mypid, Range, RecvStmt, SendStmt, Stmt, Subscript, VarRef,
    XferOp,
)
from .sections import Section, Triplet

if TYPE_CHECKING:
    from ..distributions import RedistributionPlan
    from .collectives.planner import RedistSchedule

__all__ = ["REALIZATIONS", "redistribution_code", "section_to_subscripts"]

REALIZATIONS = ("bulk", "pipelined", "planner")


# IR nodes are immutable, so one node per distinct subscript or guard can
# serve every statement that uses it: the shared subtrees halve the memory
# of a generated program (tuning candidates stay alive through the search).
@lru_cache(maxsize=4096)
def _triplet_sub(t: Triplet) -> Subscript:
    if t.size == 1:
        return Index(IntConst(t.lo))
    step = None if t.step == 1 else IntConst(t.step)
    return Range(IntConst(t.lo), IntConst(t.hi), step)


def section_to_subscripts(sec: Section) -> tuple[Subscript, ...]:
    """Constant IL subscripts denoting a concrete section."""
    return tuple(_triplet_sub(t) for t in sec.dims)


def _unique_moves(moves: Iterable[Move]) -> list[Move]:
    """The moves that need a transfer, in emission order: sorted by
    (source, destination, section), self-moves and duplicates dropped."""
    seen: set[tuple[int, int, Section]] = set()
    out = []
    for m in sorted(moves, key=lambda m: (m.src, m.dst, str(m.section))):
        key = (m.src, m.dst, m.section)
        if m.src == m.dst or key in seen:
            continue
        seen.add(key)
        out.append(m)
    return out


@lru_cache(maxsize=4096)
def _on_pid(pid0: int) -> Expr:
    return BinOp("==", Mypid(), IntConst(pid0 + 1))


def _grouped(pairs: Iterable[tuple[Expr, Stmt]]) -> list[Stmt]:
    """Guarded blocks, one per run of consecutive statements whose guards
    are structurally equal."""
    return [
        Guarded(guard, Block(tuple(stmt for _, stmt in run)))
        for guard, run in groupby(pairs, key=lambda p: p[0])
    ]


def _ref(var: str, sec: Section) -> ArrayRef:
    return ArrayRef(var, section_to_subscripts(sec))


def _send(var: str, sec: Section, dst: int) -> SendStmt:
    return SendStmt(_ref(var, sec), XferOp.SEND_OWNER_VALUE,
                    (IntConst(dst + 1),))


def _recv(var: str, sec: Section) -> RecvStmt:
    return RecvStmt(_ref(var, sec), XferOp.RECV_OWNER_VALUE)


def _by_receiver(moves: list[Move]) -> list[Move]:
    return sorted(moves, key=lambda m: (m.dst, m.src, str(m.section)))


def _exchange(var: str, moves: list[Move], *, fence: bool) -> list[Stmt]:
    out = _grouped((_on_pid(m.src), _send(var, m.section, m.dst))
                   for m in moves)
    incoming = _by_receiver(moves)
    out += _grouped((_on_pid(m.dst), _recv(var, m.section))
                    for m in incoming)
    if fence:
        out += _grouped(
            (_on_pid(m.dst), ExprStmt(Await(_ref(var, m.section))))
            for m in incoming
        )
    return out


def _pipelined(
    var: str, moves: list[Move], producer: DoLoop, axis: int
) -> list[Stmt]:
    frags = []
    for m in moves:
        for coord in m.section.dims[axis]:
            frag = Section(tuple(
                Triplet(coord, coord, 1) if a == axis else t
                for a, t in enumerate(m.section.dims)
            ))
            frags.append((m.src, coord, m.dst, frag))
    # One fused guard per (source, produced slab), fanning out to every
    # consumer of that slab.
    frags.sort(key=lambda f: (f[0], f[1], f[2], str(f[3])))
    sends = _grouped(
        (BinOp("and", _on_pid(src),
               BinOp("==", VarRef(producer.var), IntConst(coord))),
         _send(var, frag, dst))
        for src, coord, dst, frag in frags
    )
    fused = DoLoop(producer.var, producer.lo, producer.hi, producer.step,
                   Block(producer.body.stmts + tuple(sends)))
    recvs = _grouped(
        (_on_pid(dst), _recv(var, frag))
        for src, coord, dst, frag in sorted(
            frags, key=lambda f: (f[2], f[0], f[1], str(f[3]))
        )
    )
    return [fused, *recvs]


def redistribution_code(
    var: str,
    plan: RedistributionPlan | RedistSchedule,
    realization: str = "bulk",
    *,
    producer: DoLoop | None = None,
    axis: int | None = None,
) -> list[Stmt]:
    """IL+XDP statements realising ``plan`` for array ``var``.

    ``plan`` is a :class:`~repro.distributions.RedistributionPlan` for
    ``bulk`` and ``pipelined``, and a
    :class:`~repro.core.collectives.planner.RedistSchedule` for
    ``planner``, whose rounds each end in ``await`` fences so a receiver
    drains one round before the program reaches the next round's
    transfers.  ``pipelined`` fuses the sends into ``producer``, the loop
    over ``axis`` that produces the data, and returns that loop followed
    by the receives.  A plan without cross-processor moves yields no
    transfers.
    """
    if realization == "planner":
        out: list[Stmt] = []
        for rnd in plan.rounds:
            out += _exchange(var, _unique_moves(rnd.moves), fence=True)
        return out
    moves = _unique_moves(plan.moves)
    if realization == "bulk":
        return _exchange(var, moves, fence=False)
    if realization == "pipelined":
        return _pipelined(var, moves, producer, axis)
    raise ValueError(
        f"unknown realization {realization!r} (choose from {REALIZATIONS})"
    )
