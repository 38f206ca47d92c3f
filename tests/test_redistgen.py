"""Tests for compiler-generated redistribution code (paper section 4's
linked -=>/<=- structure), lowered by the one emitter
:func:`repro.core.redistgen.redistribution_code`."""

import numpy as np
import pytest

from repro.core.collectives.planner import plan_bounded_redistribution
from repro.core.ir.nodes import (
    ArrayDecl, Await, Block, ExprStmt, Guarded, Program, RecvStmt, SendStmt,
    XferOp,
)
from repro.core.ir.verify import verify_program
from repro.core.interp import Interpreter
from repro.core.redistgen import redistribution_code, section_to_subscripts
from repro.core.sections import section
from repro.distributions import (
    Block as BlockSpec,
    Cyclic,
    Distribution,
    ProcessorGrid,
    Segmentation,
    plan_redistribution,
)
from repro.machine import MachineModel

FAST = MachineModel(o_send=1, o_recv=1, alpha=10, per_byte=0.0)


def make_plan(n=16, nprocs=4, seg=None):
    grid = ProcessorGrid((nprocs,))
    src = Distribution(section((1, n)), (BlockSpec(),), grid)
    dst = Distribution(section((1, n)), (Cyclic(),), grid)
    segmentation = Segmentation(src, (seg,)) if seg else None
    return src, dst, plan_redistribution(src, dst, segmentation=segmentation)


def build_program(n, nprocs, stmts, seg_shape):
    decl = ArrayDecl("A", ((1, n),), dist="(BLOCK)", segment_shape=seg_shape)
    return Program((decl,), Block(tuple(stmts)))


def transfers(stmts, kind):
    """The ``kind`` statements inside the emitted guarded groups."""
    return [t for g in stmts for t in g.body if isinstance(t, kind)]


class TestGeneration:
    def test_statement_structure(self):
        _, _, plan = make_plan()
        stmts = redistribution_code("A", plan)
        assert all(isinstance(g, Guarded) for g in stmts)
        sends = transfers(stmts, SendStmt)
        recvs = transfers(stmts, RecvStmt)
        assert len(sends) == len(recvs) == plan.message_count
        for s in sends:
            assert s.op is XferOp.SEND_OWNER_VALUE
            assert s.dests is not None
        # grouped: one guard per sender, then one per receiver, all sends
        # before any receive
        assert len(stmts) == 2 * 4
        first_recv = next(
            i for i, g in enumerate(stmts)
            if isinstance(g.body.stmts[0], RecvStmt)
        )
        assert all(
            isinstance(t, SendStmt) for g in stmts[:first_recv] for t in g.body
        )
        assert len({g.rule for g in stmts[:first_recv]}) == first_recv

    def test_awaits_appended(self):
        src, dst, plan = make_plan()
        sched = plan_bounded_redistribution(src, dst, max_temp_frac=0.5,
                                            plan=plan)
        stmts = redistribution_code("A", sched, "planner")
        waits = [t for t in transfers(stmts, ExprStmt)
                 if isinstance(t.expr, Await)]
        assert len(waits) == plan.message_count
        # every round closes with its fences: the last group is an await
        assert isinstance(stmts[-1].body.stmts[-1].expr, Await)

    def test_pipelined_sends_fuse_into_producer(self):
        from repro.core.ir.nodes import DoLoop, IntConst, VarRef

        _, _, plan = make_plan()
        producer = DoLoop("i", IntConst(1), IntConst(16))
        loop, *recvs = redistribution_code(
            "A", plan, "pipelined", producer=producer, axis=0
        )
        assert isinstance(loop, DoLoop) and loop.var == "i"
        # one fragment per moved element, each sent under its coordinate
        sends = transfers(loop.body, SendStmt)
        assert len(sends) == plan.total_elements_moved
        for g in loop.body:
            assert g.rule.op == "and"
            assert g.rule.rhs.lhs == VarRef("i")
        assert len(transfers(recvs, RecvStmt)) == len(sends)
        assert redistribution_code(
            "A", plan_redistribution(plan.source, plan.source), "pipelined",
            producer=producer, axis=0,
        ) == [producer]

    def test_section_to_subscripts_roundtrip(self):
        from repro.core.ir.printer import print_ref
        from repro.core.ir.nodes import ArrayRef

        sec = section((1, 7, 2), 3, (4, 4))
        ref = ArrayRef("A", section_to_subscripts(sec))
        assert print_ref(ref) == "A[1:7:2,3,4]"


class TestExecution:
    @pytest.mark.parametrize("realization", ["bulk", "planner"])
    def test_redistribution_runs(self, realization):
        n, nprocs = 16, 4
        src, dst, plan = make_plan(n, nprocs)
        if realization == "planner":
            plan = plan_bounded_redistribution(src, dst, max_temp_frac=0.25,
                                               plan=plan)
        stmts = redistribution_code("A", plan, realization)
        prog = build_program(n, nprocs, stmts, (1,))
        verify_program(prog)
        it = Interpreter(prog, nprocs, model=FAST)
        a0 = np.arange(1.0, n + 1)
        it.write_global("A", a0)
        stats = it.run()
        assert stats.unclaimed_messages == 0
        # Ownership now matches the CYCLIC target everywhere.
        for pid in range(nprocs):
            for sec in dst.owned_sections(pid):
                assert it.engine.symtabs[pid].iown("A", sec)
        assert np.array_equal(it.read_global("A"), a0)

    def test_segment_granularity_execution(self):
        n, nprocs = 16, 4
        src, dst, plan = make_plan(n, nprocs, seg=2)
        stmts = redistribution_code("A", plan)
        prog = build_program(n, nprocs, stmts, (2,))
        it = Interpreter(prog, nprocs, model=FAST)
        a0 = np.arange(1.0, n + 1)
        it.write_global("A", a0)
        it.run()
        assert np.array_equal(it.read_global("A"), a0)

    def test_empty_plan_is_empty_code(self):
        grid = ProcessorGrid((2,))
        d = Distribution(section((1, 8)), (BlockSpec(),), grid)
        plan = plan_redistribution(d, d)
        assert redistribution_code("A", plan) == []


class TestSelfAndDuplicateMoves:
    """Regression (ISSUE 8): plans that carry ``src == dst`` or repeated
    moves — e.g. hand-assembled round plans from the bounded-redistribution
    planner — must not emit self-sends (a processor messaging itself
    deadlocks) or duplicate transfer pairs."""

    def test_self_moves_emit_no_statements(self):
        from repro.distributions.redistribute import Move, RedistributionPlan

        src, dst, _ = make_plan()
        moves = (
            Move(0, 0, section((1, 4))),    # layouts share P1's block
            Move(0, 1, section((5, 8))),
            Move(1, 1, section((5, 8))),    # and P2 keeps part of its own
        )
        plan = RedistributionPlan(src, dst, moves)
        stmts = redistribution_code("A", plan)
        # one send + one recv for the single cross move
        assert len(transfers(stmts, SendStmt)) == 1
        assert len(transfers(stmts, RecvStmt)) == 1

    def test_duplicate_moves_deduplicated(self):
        from repro.distributions.redistribute import Move, RedistributionPlan

        src, dst, _ = make_plan()
        m = Move(0, 1, section((1, 4)))
        plan = RedistributionPlan(src, dst, (m, m, Move(2, 3, section((9, 12)))))
        stmts = redistribution_code("A", plan)
        # two distinct transfers, not three
        assert len(transfers(stmts, SendStmt)) == 2
        assert len(transfers(stmts, RecvStmt)) == 2

    def test_block_to_cyclic_message_count(self):
        """BLOCK→CYCLIC at n=16, P=4: each processor keeps one element of
        its block, so exactly 12 of the 16 element moves are messages —
        and the engine must count exactly those."""
        n, nprocs = 16, 4
        src, dst, plan = make_plan(n, nprocs)
        assert plan.message_count == 12
        stmts = redistribution_code("A", plan)
        assert len(transfers(stmts, SendStmt)) == 12
        prog = build_program(n, nprocs, stmts, (1,))
        it = Interpreter(prog, nprocs, model=FAST)
        a0 = np.arange(1.0, n + 1)
        it.write_global("A", a0)
        stats = it.run()
        assert stats.total_messages == 12
        assert np.array_equal(it.read_global("A"), a0)
