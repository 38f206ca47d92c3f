"""Closed-form cost model of the tuner's static prefilter.

:func:`phase_compute_cost` and :func:`redistribution_cost` turn a
candidate layout or redistribution plan directly into virtual time from
:class:`MachineModel` constants (flop counts, message counts, bytes,
occupancy).  They are the node and edge weights of the prefilter's
ranking and never look at program text.

The forms are not calibrated against the engine: they only order the
space so the engine measures a small shortlist.  BENCH_tune.json's
``rank_correlation`` records how well that order matches the engine's,
and the engine stage, not this model, picks the winner.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Any, Callable

from ..core.interp import CALL_BASE_FLOPS, INTRINSIC_FLOPS, ITER_FLOPS
from ..core.ir.nodes import ArrayDecl
from ..distributions import RedistributionPlan
from ..machine.engine import HEADER_BYTES
from ..machine.model import MachineModel
from ..machine.transport import default_backend
from .rewrite import TuneError
from .space import candidate_segmentation

__all__ = [
    "SharedAddressCosts",
    "TransportCosts",
    "phase_compute_cost",
    "redistribution_cost",
    "transport_costs",
]


# ---------------------------------------------------------------------- #
# per-backend cost tables
# ---------------------------------------------------------------------- #


class TransportCosts:
    """Analytic twin of one transport backend's timing hooks.

    Uses the same wire-byte, occupancy and transit arithmetic as the
    corresponding :mod:`repro.machine.transport` subclass, so the
    prefilter prices each backend with its own constants.  The base class
    is the message-passing table.
    """

    backend = "msg"

    def wire_bytes(self, payload_bytes: int) -> int:
        return HEADER_BYTES + payload_bytes

    def send_occupancy(self, model: MachineModel, nbytes: int) -> float:
        return model.o_send

    def recv_occupancy(self, model: MachineModel) -> float:
        return model.o_recv

    def transit(self, model: MachineModel, nbytes: int) -> float:
        return model.message_cost(nbytes)


class SharedAddressCosts(TransportCosts):
    """Shared-address prefetch/poststore table (paper section 5).

    No marshalled header (the tag is the address), per-line poststore
    occupancy and memory-system store latency for transit.  The engine's
    pull penalty for unbound stores is not priced.
    """

    backend = "shmem"

    def wire_bytes(self, payload_bytes: int) -> int:
        return payload_bytes

    def send_occupancy(self, model: MachineModel, nbytes: int) -> float:
        return model.post_occupancy(nbytes)

    def recv_occupancy(self, model: MachineModel) -> float:
        return model.o_prefetch

    def transit(self, model: MachineModel, nbytes: int) -> float:
        return model.store_cost(nbytes)


_TRANSPORT_COSTS: dict[str, TransportCosts] = {
    "msg": TransportCosts(),
    "shmem": SharedAddressCosts(),
    # proc is the message-passing binding executed on real processes;
    # its virtual-time accounting (the tuner's subject) is msg's.
    "proc": TransportCosts(),
}


def transport_costs(backend: str | None = None) -> TransportCosts:
    """The cost table of ``backend`` (default: the session's backend)."""
    name = backend if backend is not None else default_backend()
    try:
        return _TRANSPORT_COSTS[name]
    except KeyError:
        raise TuneError(
            f"unknown backend {name!r} "
            f"(choose from {sorted(_TRANSPORT_COSTS)})"
        ) from None


# ---------------------------------------------------------------------- #
# closed forms
# ---------------------------------------------------------------------- #


def _fft_flops(n: int) -> int:
    """The fft1D kernel's documented flop formula (core/kernels.py)."""
    return max(1, int(5 * n * math.log2(n))) if n > 1 else 1


def _gemm_flops(sizes: list[int], args: list[Any]) -> int:
    """The gemm_acc kernel's flop formula (core/kernels.py).

    Factor shapes are recovered from the section sizes the same way the
    kernel recovers them: for ``c(m,n) += a(m,k) @ b(k,n)`` the products
    satisfy ``a.size * c.size / b.size = m**2``.
    """
    a, b, c = sizes
    m = max(1, math.isqrt(max(1, (a * c) // b)))
    k = max(1, a // m)
    n = max(1, c // m)
    return 2 * m * n * k


#: name -> (section sizes, scalar args) -> flops, matching core/kernels.py.
KERNEL_FLOPS: dict[str, Callable[[list[int], list[Any]], int]] = {
    "fft1D": lambda sizes, args: _fft_flops(sizes[0]),
    "gemm_acc": _gemm_flops,
    "work": lambda sizes, args: int(args[0]) if args else 1,
    "negate": lambda sizes, args: sizes[0],
    "scale": lambda sizes, args: sizes[0],
    "smooth": lambda sizes, args: 3 * sizes[0],
}


def phase_compute_cost(
    decl: ArrayDecl,
    cand,
    axis: int,
    nprocs: int,
    model: MachineModel,
    *,
    kernel: str = "fft1D",
) -> float:
    """Critical-path compute time of one pencil phase under a layout.

    A phase applies ``kernel`` to every pencil along ``axis``; the slowest
    processor (most owned pencils under the candidate's distribution)
    bounds the phase.  Loop/call overheads use the interpreter's
    documented constants.
    """
    seg = candidate_segmentation(decl, cand, nprocs)
    dist = seg.distribution
    axis_n = decl.shape[axis]
    per_pid = max(dist.local_count(pid) for pid in range(nprocs))
    pencils = per_pid // axis_n
    kfn = KERNEL_FLOPS.get(kernel)
    if kfn is None:
        raise TuneError(f"no analytic flop formula for kernel {kernel!r}")
    flops = pencils * (ITER_FLOPS + CALL_BASE_FLOPS + kfn([axis_n], []))
    return float(flops) * model.flop_time


def redistribution_cost(
    plan: RedistributionPlan,
    model: MachineModel,
    *,
    itemsize: int = 8,
    realization: str = "bulk",
    outer_axis: int | None = None,
    backend: str | None = None,
    schedule=None,
) -> float:
    """Exposed (non-overlapped) cost of realising a redistribution plan.

    ``realization="bulk"`` sends each move as one vectorized message after
    the producing phase: the critical path is the busiest sender's
    injection occupancy, plus one wire latency, plus the busiest
    receiver's initiation occupancy.

    ``realization="pipelined"`` splits every move along ``outer_axis``
    into per-slice fragments fused into the producing compute loop (the
    paper's stage-2 pipelining): injection occupancy and all but the last
    fragment's latency hide behind the remaining computation, leaving the
    receiver occupancy, one fragment's wire time, and the per-fragment
    synchronisation (an ``await`` intrinsic each) exposed.

    ``realization="planner"`` executes the bounded-round
    :class:`~repro.core.collectives.planner.RedistSchedule` passed as
    ``schedule``: each round is a bulk exchange closed by its ``await``
    epilogue, and rounds serialize — the cost is the sum of per-round
    bulk critical paths plus the busiest receiver's per-round
    synchronisation.  Memory is bounded at the price of latency; the
    tuner treats that trade as a knob.
    """
    tc = transport_costs(backend)
    if realization == "planner":
        if schedule is None:
            raise TuneError(
                "planner realization needs the bounded RedistSchedule"
            )
        total = 0.0
        for rnd in schedule.rounds:
            moves = [m for m in rnd.moves if m.src != m.dst]
            if not moves:
                continue
            sends_r: Counter[int] = Counter()
            recvs_r: Counter[int] = Counter()
            max_b = 0
            for m in moves:
                sends_r[m.src] += 1
                recvs_r[m.dst] += 1
                max_b = max(max_b, tc.wire_bytes(m.section.size * itemsize))
            busiest_recv = max(recvs_r.values())
            total += (
                tc.send_occupancy(model, max_b) * max(sends_r.values())
                + tc.transit(model, max_b)
                + tc.recv_occupancy(model) * busiest_recv
                + INTRINSIC_FLOPS * busiest_recv * model.flop_time
            )
        return total
    sends: Counter[int] = Counter()
    recvs: Counter[int] = Counter()
    max_bytes = 0
    for m in plan.moves:
        frags = 1
        if realization == "pipelined" and outer_axis is not None:
            frags = m.section.dims[outer_axis].size
        sends[m.src] += frags
        recvs[m.dst] += frags
        max_bytes = max(max_bytes, tc.wire_bytes((m.elements // frags) * itemsize))
    if not plan.moves:
        return 0.0
    send_occ = tc.send_occupancy(model, max_bytes) * max(sends.values())
    recv_occ = tc.recv_occupancy(model) * max(recvs.values())
    wire = tc.transit(model, max_bytes)
    if realization == "bulk":
        return send_occ + wire + recv_occ
    per_recv_frags = max(recvs.values())
    sync = INTRINSIC_FLOPS * per_recv_frags * model.flop_time
    return recv_occ + wire + sync
