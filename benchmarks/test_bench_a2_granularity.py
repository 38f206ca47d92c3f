"""A2 — ablation: ownership-transfer granularity (paper section 3).

"The XDP language constructs allow ownership transfers to occur at the
granularity of a single element.  However, for efficiency's sake, a
compiler may use a coarser granularity of ownership transfer."

A BLOCK → CYCLIC redistribution of a vector is executed at several segment
granularities.  Fine granularity multiplies the per-message overhead;
coarse granularity cannot exploit striding (a BLOCK segment splits across
CYCLIC owners, so element-exact plans need per-destination messages
anyway).  The table reports the plan's move count and the measured
transfer time per granularity, plus the run-time symbol-table descriptor
count the granularity implies.
"""

import numpy as np
from conftest import emit

from repro import (
    Interpreter, MachineModel, ProcessorGrid, Segmentation,
    parse_program, plan_redistribution, section,
)
from repro.distributions import Block, Cyclic, Distribution

MODEL = MachineModel(o_send=40, o_recv=40, alpha=200, per_byte=1.0)
N = 256
NPROCS = 4


def plan_for(seg_size: int):
    grid = ProcessorGrid((NPROCS,))
    src = Distribution(section((1, N)), (Block(),), grid)
    dst = Distribution(section((1, N)), (Cyclic(),), grid)
    return plan_redistribution(
        src, dst, segmentation=Segmentation(src, (seg_size,))
    )


def program_for(seg_size: int):
    """Compiler-generated redistribution via repro.core.redistgen."""
    from repro.core.ir.nodes import ArrayDecl, Block as IRBlock, Program
    from repro.core.redistgen import redistribution_code

    plan = plan_for(seg_size)
    decl = ArrayDecl("A", ((1, N),), dist="(BLOCK)", segment_shape=(seg_size,))
    return Program((decl,), IRBlock(tuple(redistribution_code("A", plan))))


def run(seg_size: int):
    it = Interpreter(program_for(seg_size), NPROCS, model=MODEL)
    a0 = np.arange(1.0, N + 1)
    it.write_global("A", a0)
    stats = it.run()
    assert np.array_equal(it.read_global("A"), a0)  # values preserved
    # Final ownership matches the CYCLIC target.
    dst = Distribution(section((1, N)), (Cyclic(),), ProcessorGrid((NPROCS,)))
    for pid in range(NPROCS):
        for sec in dst.owned_sections(pid):
            assert it.engine.symtabs[pid].iown("A", sec)
    return stats


def test_a2_granularity_sweep(benchmark):
    rows = []
    results = {}
    for seg in (1, 4, 16, 64):
        plan = plan_for(seg)
        stats = run(seg)
        results[seg] = stats.makespan
        descriptors = seg and (N // NPROCS) // seg
        rows.append([
            seg, plan.message_count,
            f"{plan.total_elements_moved / plan.message_count:.1f}",
            descriptors, f"{stats.makespan:.0f}",
        ])
    emit(
        f"A2 / section 3 — ownership-transfer granularity "
        f"(BLOCK -> CYCLIC, n={N}, P={NPROCS})",
        ["segment size", "moves", "elems/move", "descriptors/proc", "makespan"],
        rows,
    )
    # Element-granularity pays maximal per-message overhead.
    assert results[1] > results[16]
    benchmark.pedantic(lambda: run(16), rounds=1, iterations=1)


def test_a2_coarse_bench(benchmark):
    benchmark.pedantic(lambda: run(64), rounds=3, iterations=1)


def test_a2_fine_bench(benchmark):
    benchmark.pedantic(lambda: run(4), rounds=3, iterations=1)
