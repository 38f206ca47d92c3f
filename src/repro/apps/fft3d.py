"""The paper's 3-D FFT application (section 4, Figure 4).

A complex cube ``A[1:n,1:n,1:n]`` starts distributed ``(*,*,BLOCK)`` over a
linear array of processors: processor ``p`` owns whole ``k``-planes.  The
3-D FFT applies a 1-D FFT along ``j``, then ``i`` (both local), then must
redistribute to ``(*,BLOCK,*)`` so the ``k``-direction FFTs are local too.
The paper walks this program through three optimization stages:

* **stage 0 — naive**: every loop guarded by ``iown``/``await`` compute
  rules; redistribution as a separate guarded loop of ``-=>``/``<=-``
  ownership transfers (the paper's first listing);
* **stage 1 — localized**: compute rules eliminated, loops collapsed to
  the iterations each processor owns (``mypid`` substitution — second
  listing);
* **stage 2 — pipelined**: the ``i``-direction FFT loop fused with the
  ownership sends, and the final ``await`` sunk into the ``k``-direction
  loop, so redistribution latency is overlapped with computation (third
  listing);
* **stage 3 — memory-bounded**: stage 1 with the repartition routed
  through the bounded redistribution planner
  (:func:`~repro.core.collectives.planner.plan_bounded_redistribution`):
  the exchange runs in rounds fenced by ``await`` epilogues, capping each
  receiver's temp memory at a third of the all-at-once peak.

For ``n == nprocs`` the generated programs are exactly the paper's
listings.  For ``n`` a multiple of ``nprocs`` a generalized form is
produced: localization uses run-time ``mylb``/``myub`` bounds, and the
redistribution statements are generated pairwise from the compile-time
:class:`~repro.distributions.RedistributionPlan` with bound destinations —
the "auxiliary data structure created by the compiler that links the
``-=>`` and ``<=-`` statements" which the paper says is used for
communication binding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.codegen import lower
from ..core.errors import DistributionError
from ..core.interp import Interpreter
from ..core.ir.parser import parse_program
from ..machine.model import MachineModel
from ..machine.stats import RunStats

__all__ = [
    "fft3d_source",
    "fft3d_redistribution_schedule",
    "run_fft3d",
    "FFTResult",
    "STAGES",
]

STAGES = (0, 1, 2, 3)

#: Stage 3's per-round temp-memory budget, as a fraction of the largest
#: per-processor footprint.  0.25 packs the FFT repartition into rounds
#: whose receive windows peak at one third of the all-at-once exchange.
STAGE3_TEMP_FRAC = 0.25


def _decl(n: int, seg_n: int) -> str:
    return (
        f"array A[1:{n},1:{n},1:{n}] dist (*, *, BLOCK) "
        f"seg ({seg_n},1,1) dtype complex128\n"
    )


def _paper_stage0(n: int) -> str:
    return f"""{_decl(n, n)}
// Loop1: 1-D FFT in the j direction
do k = 1, {n}
  iown(A[*,*,k]) : {{
    do i = 1, {n}
      call fft1D(A[i,*,k])
    enddo
  }}
enddo
// Loop2: 1-D FFT in the i direction
do k = 1, {n}
  iown(A[*,*,k]) : {{
    do j = 1, {n}
      call fft1D(A[*,j,k])
    enddo
  }}
enddo
// Loop3: redistribute A as (*,BLOCK,*)
do p = 1, {n}
  iown(A[*,*,p]) : {{
    do m = 1, {n}
      A[*,m,p] -=>
    enddo
    do m = 1, {n}
      A[*,p,m] <=-
    enddo
  }}
enddo
// Loop4: 1-D FFT in the k direction
do j = 1, {n}
  await(A[*,j,*]) : {{
    do i = 1, {n}
      call fft1D(A[i,j,*])
    enddo
  }}
enddo
"""


def _paper_stage1(n: int) -> str:
    return f"""{_decl(n, n)}
// 1-D FFT in the j direction
do i = 1, {n}
  call fft1D(A[i,*,mypid])
enddo
// 1-D FFT in the i direction
do j = 1, {n}
  call fft1D(A[*,j,mypid])
enddo
// Loop3a,3b: redistribute A as (*,BLOCK,*)
do m = 1, {n}
  A[*,m,mypid] -=>
enddo
do m = 1, {n}
  A[*,mypid,m] <=-
enddo
// 1-D FFT in the k direction
await(A[*,mypid,*]) : {{
  do i = 1, {n}
    call fft1D(A[i,mypid,*])
  enddo
}}
"""


def _paper_stage2(n: int) -> str:
    return f"""{_decl(n, n)}
// 1-D FFT in the j direction
do i = 1, {n}
  call fft1D(A[i,*,mypid])
enddo
// 1-D FFT in the i direction, fused with the ownership sends
do j = 1, {n}
  call fft1D(A[*,j,mypid])
  A[*,j,mypid] -=>
enddo
// Loop3b
do m = 1, {n}
  A[*,mypid,m] <=-
enddo
// 1-D FFT in the k direction, await sunk into the loop
do i = 1, {n}
  await(A[i,mypid,*]) : {{
    call fft1D(A[i,mypid,*])
  }}
enddo
"""


# ---------------------------------------------------------------------- #
# generalized forms (n a multiple of nprocs)
# ---------------------------------------------------------------------- #


def _rows_of(pid1: int, n: int, nprocs: int) -> tuple[int, int]:
    """The (*,BLOCK,*) rows of 1-based processor ``pid1``."""
    bs = -(-n // nprocs)
    lo = 1 + (pid1 - 1) * bs
    hi = min(n, lo + bs - 1)
    return lo, hi


def _planes_of(pid1: int, n: int, nprocs: int) -> tuple[int, int]:
    """The initial (*,*,BLOCK) planes of processor ``pid1``."""
    return _rows_of(pid1, n, nprocs)


def _pairwise_redistribution(
    n: int, nprocs: int, *, pipelined: bool = False
) -> tuple[str, str]:
    """Generate bound ``-=>``/``<=-`` pairs for (*,*,BLOCK) → (*,BLOCK,*).

    Returns (send_block, recv_block).  With ``pipelined=True`` the send
    statements are meant to sit *inside* the fused compute loops over
    planes ``k`` and columns ``j``: receiver ``d``'s slab of plane ``k``
    consists of columns ``rlo..rhi``, complete as soon as the ``j`` loop
    passes ``rhi`` — so the guard fires at ``j == rhi`` and the transfer
    overlaps the remaining columns' computation (the paper's pipelining).
    """
    sends: list[str] = []
    recvs: list[str] = []
    for s in range(1, nprocs + 1):
        plo, phi = _planes_of(s, n, nprocs)
        for d in range(1, nprocs + 1):
            if s == d:
                continue
            rlo, rhi = _rows_of(d, n, nprocs)
            if pipelined:
                sends.append(
                    f"mypid == {s} and j == {rhi} : "
                    f"{{ A[*,{rlo}:{rhi},k] -=> {{{d}}} }}"
                )
            else:
                for k in range(plo, phi + 1):
                    sends.append(
                        f"mypid == {s} : {{ A[*,{rlo}:{rhi},{k}] -=> {{{d}}} }}"
                    )
            for k in range(plo, phi + 1):
                recvs.append(f"mypid == {d} : {{ A[*,{rlo}:{rhi},{k}] <=- }}")
    return "\n".join(sends), "\n".join(recvs)


def _general_stage0(n: int, nprocs: int) -> str:
    sends, recvs = _pairwise_redistribution(n, nprocs)
    return f"""{_decl(n, n)}
// Loop1: 1-D FFT in the j direction
do k = 1, {n}
  iown(A[*,*,k]) : {{
    do i = 1, {n}
      call fft1D(A[i,*,k])
    enddo
  }}
enddo
// Loop2: 1-D FFT in the i direction
do k = 1, {n}
  iown(A[*,*,k]) : {{
    do j = 1, {n}
      call fft1D(A[*,j,k])
    enddo
  }}
enddo
// Loop3: redistribute A as (*,BLOCK,*) (compiler-generated pairs)
{sends}
{recvs}
// Loop4: 1-D FFT in the k direction
do j = 1, {n}
  await(A[*,j,*]) : {{
    do i = 1, {n}
      call fft1D(A[i,j,*])
    enddo
  }}
enddo
"""


def _general_stage1(n: int, nprocs: int) -> str:
    sends, recvs = _pairwise_redistribution(n, nprocs)
    return f"""{_decl(n, n)}
do k = max(1, mylb(A[*,*,*], 3)), min({n}, myub(A[*,*,*], 3))
  do i = 1, {n}
    call fft1D(A[i,*,k])
  enddo
  do j = 1, {n}
    call fft1D(A[*,j,k])
  enddo
enddo
{sends}
{recvs}
do j = max(1, mylb(A[*,*,*], 2)), min({n}, myub(A[*,*,*], 2))
  await(A[*,j,*]) : {{
    do i = 1, {n}
      call fft1D(A[i,j,*])
    enddo
  }}
enddo
"""


def _general_stage2(n: int, nprocs: int) -> str:
    sends, recvs = _pairwise_redistribution(n, nprocs, pipelined=True)
    send_lines = "\n".join("    " + line for line in sends.splitlines())
    return f"""{_decl(n, n)}
do k = max(1, mylb(A[*,*,*], 3)), min({n}, myub(A[*,*,*], 3))
  do i = 1, {n}
    call fft1D(A[i,*,k])
  enddo
  do j = 1, {n}
    call fft1D(A[*,j,k])
{send_lines}
  enddo
enddo
{recvs}
do j = max(1, mylb(A[*,*,*], 2)), min({n}, myub(A[*,*,*], 2))
  do i = 1, {n}
    await(A[i,j,*]) : {{
      call fft1D(A[i,j,*])
    }}
  enddo
enddo
"""


def _fft_distributions(n: int, nprocs: int):
    """(decl, source dist, target dist) of the §4 repartition
    ``(*,*,BLOCK) → (*,BLOCK,*)``."""
    from ..core.analysis.layouts import build_segmentation
    from ..distributions import ProcessorGrid
    from ..tune.space import LayoutCandidate, candidate_segmentation

    decl = parse_program(_decl(n, n)).array_decls()[0]
    source = build_segmentation(decl, ProcessorGrid((nprocs,))).distribution
    target = candidate_segmentation(
        decl, LayoutCandidate("(*, BLOCK, *)"), nprocs
    ).distribution
    return decl, source, target


def fft3d_redistribution_schedule(
    n: int, nprocs: int, *, max_temp_frac: float = STAGE3_TEMP_FRAC
):
    """Stage 3's bounded repartition schedule."""
    from ..core.collectives.planner import plan_bounded_redistribution

    decl, source, target = _fft_distributions(n, nprocs)
    return plan_bounded_redistribution(
        source, target,
        max_temp_frac=max_temp_frac,
        elem_bytes=int(np.dtype(decl.dtype).itemsize),
    )


def _general_stage3(n: int, nprocs: int) -> str:
    """Stage 1's localized compute, with the repartition routed through
    the bounded redistribution planner: the all-at-once pairwise exchange
    becomes temp-memory-bounded rounds, each fenced by its ``await``
    epilogue, trading a little latency for a third of the peak."""
    from ..core.ir.printer import print_stmt
    from ..core.redistgen import redistribution_code

    code = redistribution_code(
        "A", fft3d_redistribution_schedule(n, nprocs), "planner"
    )
    rounds = "\n".join(line for s in code for line in print_stmt(s))
    return f"""{_decl(n, n)}
do k = max(1, mylb(A[*,*,*], 3)), min({n}, myub(A[*,*,*], 3))
  do i = 1, {n}
    call fft1D(A[i,*,k])
  enddo
  do j = 1, {n}
    call fft1D(A[*,j,k])
  enddo
enddo
// redistribute A as (*,BLOCK,*): planner-bounded rounds
{rounds}
do j = max(1, mylb(A[*,*,*], 2)), min({n}, myub(A[*,*,*], 2))
  await(A[*,j,*]) : {{
    do i = 1, {n}
      call fft1D(A[i,j,*])
    enddo
  }}
enddo
"""


def fft3d_source(n: int, nprocs: int, stage: int) -> str:
    """IL+XDP source of the 3-D FFT at one optimization stage.

    ``n == nprocs`` yields the paper's exact listings for stages 0-2;
    otherwise ``n`` must be a multiple of ``nprocs`` and the generalized
    forms are produced.  Stage 3 (always generalized) is stage 1 with the
    repartition routed through the bounded redistribution planner.
    """
    if stage not in STAGES:
        raise ValueError(f"stage must be one of {STAGES}")
    if stage == 3:
        if n % nprocs != 0:
            raise DistributionError(f"n ({n}) must be a multiple of nprocs ({nprocs})")
        return _general_stage3(n, nprocs)
    if n == nprocs:
        return (_paper_stage0, _paper_stage1, _paper_stage2)[stage](n)
    if n % nprocs != 0:
        raise DistributionError(f"n ({n}) must be a multiple of nprocs ({nprocs})")
    return (
        _general_stage0, _general_stage1, _general_stage2
    )[stage](n, nprocs)


@dataclass
class FFTResult:
    """One stage's execution record."""

    stage: int
    n: int
    nprocs: int
    stats: RunStats
    correct: bool
    #: Final global contents of ``A`` (for cross-backend digest checks).
    result: np.ndarray | None = None

    @property
    def makespan(self) -> float:
        return self.stats.makespan

    @property
    def messages(self) -> int:
        return self.stats.total_messages


def run_fft3d(
    n: int,
    nprocs: int,
    stage: int,
    *,
    model: MachineModel | None = None,
    path: str = "vm",
    seed: int = 7,
    backend: str | None = None,
) -> FFTResult:
    """Run one stage end-to-end and validate against ``numpy.fft.fftn``."""
    src = fft3d_source(n, nprocs, stage)
    program = parse_program(src)
    rng = np.random.default_rng(seed)
    a0 = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
    if path == "vm":
        runner = lower(program, nprocs, model=model, backend=backend)
    elif path == "interp":
        runner = Interpreter(program, nprocs, model=model, backend=backend)
    else:
        raise ValueError(f"unknown path {path!r}")
    runner.write_global("A", a0)
    stats = runner.run()
    got = runner.read_global("A")
    want = np.fft.fftn(a0)
    return FFTResult(
        stage=stage,
        n=n,
        nprocs=nprocs,
        stats=stats,
        correct=bool(np.allclose(got, want, atol=1e-9 * n**3)),
        result=got,
    )
