"""Unit tests for the code generator / VM path (paper section 3.2)."""

import numpy as np
import pytest

from repro.core.codegen import CompiledProgram, lower
from repro.core.errors import CompilationError, DeadlockError
from repro.core.interp import Interpreter
from repro.core.ir.parser import parse_program
from repro.core.opt import optimize
from repro.core.translate import translate
from repro.machine import MachineModel
from repro.machine.procrt import digest_symtabs

FAST = MachineModel(o_send=1, o_recv=1, alpha=10, per_byte=0.0)

SEQ = """
array A[1:8] dist (BLOCK) seg (1)
array B[1:8] dist (CYCLIC) seg (1)
scalar n = 8

do i = 1, n
  A[i] = A[i] + B[i]
enddo
"""


def both_paths(program, nprocs=4, init=None, binding="nonblocking"):
    it = Interpreter(program, nprocs, model=FAST)
    cp = lower(program, nprocs, model=FAST, binding=binding)
    for name, arr in (init or {}).items():
        it.write_global(name, np.asarray(arr, dtype=float))
        cp.write_global(name, np.asarray(arr, dtype=float))
    return (it, it.run()), (cp, cp.run())


class TestVMAgreement:
    @pytest.mark.parametrize("strategy", ["owner-computes", "migrate"])
    def test_translated_programs(self, strategy):
        prog = translate(parse_program(SEQ), 4, strategy=strategy)
        (it, s1), (cp, s2) = both_paths(
            prog, init={"A": np.arange(8.0), "B": np.ones(8)}
        )
        assert np.array_equal(it.read_global("A"), cp.read_global("A"))
        assert s1.total_messages == s2.total_messages

    def test_optimized_program(self):
        prog = optimize(translate(parse_program(SEQ), 4), 4).program
        (it, s1), (cp, s2) = both_paths(
            prog, init={"A": np.arange(8.0), "B": np.ones(8)}
        )
        assert np.array_equal(it.read_global("A"), cp.read_global("A"))
        assert s1.total_messages == s2.total_messages

    def test_control_flow(self):
        src = """
array A[1:8] dist (BLOCK) seg (1)
scalar k = 0

do i = 1, 8
  if i % 2 == 0 then
    k = k + 1
  else
    k = k - 1
  endif
  iown(A[i]) : { A[i] = k }
enddo
"""
        prog = parse_program(src)
        (it, _), (cp, _) = both_paths(prog, init={"A": np.zeros(8)})
        assert np.array_equal(it.read_global("A"), cp.read_global("A"))

    def test_integer_modulo_by_zero(self):
        # Integer `%` by zero yields 0, as integer `/` does.
        src = """
array A[1:4] dist (BLOCK) seg (1)
scalar b = 0

do i = 1, 4
  iown(A[i]) : { A[i] = i % b + (i + 1) % 2 }
enddo
"""
        prog = parse_program(src)
        (it, _), (cp, _) = both_paths(prog, nprocs=2, init={"A": np.ones(4)})
        assert digest_symtabs(it.engine.symtabs) == \
            digest_symtabs(cp.engine.symtabs)
        assert np.array_equal(cp.read_global("A"), [0.0, 1.0, 0.0, 1.0])

    def test_negative_step_loop(self):
        src = """
array A[1:8] dist (BLOCK) seg (1)

do i = 8, 1, -1
  iown(A[i]) : { A[i] = i * i }
enddo
"""
        prog = parse_program(src)
        (it, _), (cp, _) = both_paths(prog, init={"A": np.zeros(8)})
        assert np.array_equal(it.read_global("A"), cp.read_global("A"))

    def test_intrinsics_and_bounds(self):
        src = """
array A[1:16] dist (BLOCK) seg (4)

do i = max(1, mylb(A[*], 1)), min(16, myub(A[*], 1))
  A[i] = mypid * 100 + i
enddo
"""
        prog = parse_program(src)
        (it, _), (cp, _) = both_paths(prog, init={"A": np.zeros(16)})
        assert np.array_equal(it.read_global("A"), cp.read_global("A"))

    def test_kernel_call(self):
        src = """
array F[1:8] dist (BLOCK) seg (8) dtype complex128

iown(F[1:8]) : { call fft1D(F[1:8]) }
"""
        prog = parse_program(src)
        it = Interpreter(prog, 1, model=FAST)
        cp = lower(prog, 1, model=FAST)
        x = np.arange(8.0) + 0j
        it.write_global("F", x)
        cp.write_global("F", x)
        it.run()
        cp.run()
        assert np.allclose(it.read_global("F"), cp.read_global("F"))
        assert np.allclose(cp.read_global("F"), np.fft.fft(x))


class TestAwaitLowering:
    def test_await_rule_conjunct(self):
        src = """
array A[1:2] dist (BLOCK) seg (1)

mypid == 1 : { A[1] -> {2} }
mypid == 2 : {
  A[2] <- A[1]
}
await(A[2]) and mypid == 2 : { A[2] = A[2] + 1 }
"""
        prog = parse_program(src)
        cp = lower(prog, 2, model=FAST)
        cp.write_global("A", np.array([5.0, 0.0]))
        cp.run()
        assert cp.read_global("A")[1] == 6.0

    def test_nested_await_rejected(self):
        src = """
array A[1:2] dist (BLOCK) seg (1)

not await(A[1]) : { A[1] = 1 }
"""
        prog = parse_program(src)
        with pytest.raises(CompilationError, match="await"):
            lower(prog, 2)

    def test_await_false_when_unowned_skips(self):
        src = """
array A[1:4] dist (BLOCK) seg (1)

do i = 1, 4
  await(A[i]) : { A[i] = 9 }
enddo
"""
        prog = parse_program(src)
        cp = lower(prog, 4, model=FAST)
        cp.run()
        assert np.all(cp.read_global("A") == 9.0)


class TestBinding:
    def test_blocking_binding_still_correct(self):
        prog = translate(parse_program(SEQ), 4)
        (it, s1), (cp, s2) = both_paths(
            prog, init={"A": np.zeros(8), "B": np.ones(8)}, binding="blocking"
        )
        assert np.array_equal(it.read_global("A"), cp.read_global("A"))

    def test_blocking_binding_slower(self):
        prog = translate(parse_program(SEQ), 4)
        cp_nb = lower(prog, 4, model=FAST, binding="nonblocking")
        cp_bl = lower(prog, 4, model=FAST, binding="blocking")
        for cp in (cp_nb, cp_bl):
            cp.write_global("A", np.zeros(8))
            cp.write_global("B", np.ones(8))
        s_nb = cp_nb.run()
        s_bl = cp_bl.run()
        assert s_bl.makespan >= s_nb.makespan

    def test_unknown_binding_rejected(self):
        prog = parse_program("array A[1:2] dist (BLOCK) seg (1)\n")
        with pytest.raises(CompilationError):
            lower(prog, 2, binding="rendezvous")


class TestVMDiagnostics:
    def test_deadlock_detected(self):
        src = """
array A[1:2] dist (BLOCK) seg (1)

mypid == 2 : {
  A[2] <- A[1]
  await(A[2])
}
"""
        prog = parse_program(src)
        cp = lower(prog, 2, model=FAST)
        with pytest.raises(DeadlockError):
            cp.run()

    def test_read_global_requires_total_ownership(self):
        src = """
array A[1:2] dist (BLOCK) seg (1)

mypid == 1 : { A[1] -=> }
"""
        prog = parse_program(src)
        cp = lower(prog, 2, model=FAST)
        cp.run()
        from repro.core.errors import OwnershipError

        with pytest.raises(OwnershipError, match="unowned"):
            cp.read_global("A")
