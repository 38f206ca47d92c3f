"""Static pre-filter ranking — the pipeline's second stage.

Every point of the :class:`~repro.tune.space.SpaceSpec` (a per-phase
layout path crossed with a pass-level knob assignment) gets an analytic
score before anything runs: node weights are the phase compute costs
under the candidate layout (:func:`~repro.tune.cost.phase_compute_cost`),
edge weights the redistribution cost between consecutive layouts under
the knob's realization (:func:`~repro.tune.cost.redistribution_cost`,
using the cost tables of whichever backend the search targets).  This is
the ranking-before-running move: the engine only ever sees the shortlist.

Scoring streams — paths come from the space's lazy product, edge and
node costs are cached per (placement, candidate, knob), and selection
keeps a bounded top-N, so memory is O(shortlist), not O(space).

The shortlist is then *realized*: each surviving path is regenerated as
a :class:`~repro.core.ir.nodes.Program`, structurally equal programs
collapse (different knobs and layouts can emit the same program, e.g. any
realization of an all-local path, or ``BLOCK`` and ``CYCLIC`` on an
extent equal to the processor count), and candidates
the communication verifier rejects are demoted — recorded with their
knob tuple and the :class:`~repro.core.analysis.verify_comm.CommReport`
summary, never silently dropped, never sent to the engine.  An empty
shortlist is a loud, debuggable error listing every demotion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..core.analysis.verify_comm import verify_communication
from ..core.ir.nodes import ArrayDecl, Program
from ..core.collectives.planner import plan_bounded_redistribution
from ..distributions import Distribution, plan_redistribution
from ..machine.model import MachineModel
from .cost import phase_compute_cost, redistribution_cost
from .rewrite import (
    PhaseSpec, TuneError, edge_realization, generate_phased_program,
)
from .space import KnobPoint, LayoutCandidate, SpaceSpec, candidate_segmentation

__all__ = ["PrefilterResult", "RankedCandidate", "prefilter"]


@dataclass(frozen=True)
class RankedCandidate:
    """One shortlisted point: a layout path × knob with its static score
    and (once realized) the generated program."""

    score: float
    layouts: tuple[LayoutCandidate, ...]
    knob: KnobPoint
    program: Program | None = None

    @property
    def sort_key(self) -> tuple:
        return (
            self.score,
            tuple(c.key for c in self.layouts),
            self.knob.key,
        )

    @property
    def label(self) -> str:
        return f"{self.knob.key}:" + " | ".join(c.key for c in self.layouts)


@dataclass
class PrefilterResult:
    """The ranked shortlist plus the accounting the BENCH schema records."""

    shortlist: list[RankedCandidate]
    space_size: int
    scored: int
    deduped: int = 0
    demoted: list[dict] = field(default_factory=list)

    def explain_rows(self) -> list[dict]:
        rows = [
            {
                "rank": i + 1,
                "label": rc.label,
                "static_score": rc.score,
            }
            for i, rc in enumerate(self.shortlist)
        ]
        for d in self.demoted:
            rows.append({
                "rank": None,
                "label": d["label"],
                "static_score": d["static_score"],
                "demoted": d["reason"],
            })
        return rows


class _EdgeCosts:
    """Cached analytic redistribution costs between placements.

    Keyed by (source distribution, target candidate, knob) — the layered
    space revisits the same edge once per path through it, so caching
    turns an O(paths) scoring sweep into O(edges) cost-model work.
    """

    def __init__(self, decl: ArrayDecl, nprocs: int, model: MachineModel,
                 itemsize: int, backend: str):
        self.decl = decl
        self.nprocs = nprocs
        self.model = model
        self.itemsize = itemsize
        self.backend = backend
        self.plans: dict = {}
        self.schedules: dict = {}
        self.costs: dict = {}
        self.dists: dict[LayoutCandidate, Distribution] = {}

    def dist(self, cand: LayoutCandidate) -> Distribution:
        d = self.dists.get(cand)
        if d is None:
            d = candidate_segmentation(self.decl, cand, self.nprocs).distribution
            self.dists[cand] = d
        return d

    def plan(self, source: Distribution, cand: LayoutCandidate):
        key = (source, cand)
        plan = self.plans.get(key)
        if plan is None:
            plan = plan_redistribution(source, self.dist(cand))
            self.plans[key] = plan
        return plan

    def effective(
        self,
        source: Distribution,
        cand: LayoutCandidate,
        knob: KnobPoint,
        *,
        first_edge: bool,
    ) -> tuple[str, int | None]:
        """The realization (and pipelined fuse axis) the generator will
        actually build on this edge; an edge with no moves emits nothing
        at all."""
        if not self.plan(source, cand).moves:
            return "none", None
        return edge_realization(
            knob.realization, source, first_edge=first_edge
        )

    def cost(
        self,
        source: Distribution,
        cand: LayoutCandidate,
        knob: KnobPoint,
        *,
        first_edge: bool,
    ) -> float:
        real, axis = self.effective(source, cand, knob, first_edge=first_edge)
        if real == "none":
            return 0.0
        frac = knob.max_temp_frac
        key = (source, cand, real, frac)
        hit = self.costs.get(key)
        if hit is not None:
            return hit
        plan = self.plan(source, cand)
        schedule = None
        if real == "planner":
            skey = (source, cand, frac)
            schedule = self.schedules.get(skey)
            if schedule is None:
                schedule = plan_bounded_redistribution(
                    source, self.dist(cand),
                    max_temp_frac=frac if frac is not None else 0.5,
                    elem_bytes=self.itemsize, plan=plan,
                )
                self.schedules[skey] = schedule
        out = redistribution_cost(
            plan, self.model, itemsize=self.itemsize, realization=real,
            outer_axis=axis,
            backend=self.backend, schedule=schedule,
        )
        self.costs[key] = out
        return out


def prefilter(
    program: Program,
    phases: Sequence[PhaseSpec],
    space: SpaceSpec,
    *,
    initial: Distribution,
    model: MachineModel,
    backend: str,
    budget: int = 16,
) -> PrefilterResult:
    """Score the whole space analytically; realize and verify a shortlist.

    ``budget`` caps how many candidates may reach the engine.  Selection
    is a deterministic streaming top-N (ties broken by the candidates'
    canonical keys); realization walks the ranking in order, skipping
    structurally equal programs and demoting verifier rejections, until
    ``budget`` candidates survive or the ranking is exhausted.
    """
    decl = next(d for d in program.array_decls() if d.name == phases[0].var)
    itemsize = int(np.dtype(decl.dtype).itemsize)
    edges = _EdgeCosts(decl, space.nprocs, model, itemsize, backend)
    knob_points = space.knob_points()

    node_cost: dict[tuple[int, LayoutCandidate], float] = {}

    def node(li: int, cand: LayoutCandidate) -> float:
        key = (li, cand)
        hit = node_cost.get(key)
        if hit is None:
            hit = phase_compute_cost(
                decl, cand, phases[li].axis, space.nprocs, model,
                kernel=phases[li].kernel,
            )
            node_cost[key] = hit
        return hit

    # Streaming selection, deduplicated by *emission identity*: two space
    # points that would generate the same program (segmentation variants,
    # a pipelined knob degenerating to bulk on every edge, planner
    # budgets on move-free paths) keep only the best-sorted one.  Memory
    # is O(emission classes) — distributions × effective realizations —
    # not O(space).
    best: dict[tuple, RankedCandidate] = {}
    scored = 0
    deduped = 0

    for path in space.iter_paths():
        # Node weights are knob-independent; only the edges re-price.
        nodes_sum = sum(node(li, cand) for li, cand in enumerate(path))
        for knob in knob_points:
            score = nodes_sum
            reals = []
            prev = initial
            for li, cand in enumerate(path):
                score += edges.cost(prev, cand, knob, first_edge=(li == 0))
                reals.append(
                    edges.effective(prev, cand, knob, first_edge=(li == 0))[0]
                )
                prev = edges.dist(cand)
            scored += 1
            rc = RankedCandidate(score, tuple(path), knob)
            emission = (
                tuple((c.dist, c.grid_shape) for c in path),
                tuple(reals),
                knob.max_temp_frac if "planner" in reals else None,
                knob.coll_schedule,
            )
            old = best.get(emission)
            if old is None:
                best[emission] = rc
            elif rc.sort_key < old.sort_key:
                best[emission] = rc
                deduped += 1
            else:
                deduped += 1

    # Interleave realizations when walking the ranking: the analytic
    # model can systematically favor one realization, but which one
    # actually wins is machine-dependent — give the engine each family's
    # best paths rather than one family's top-to-bottom.
    by_real: dict[str, list[RankedCandidate]] = {}
    for rc in sorted(best.values(), key=lambda rc: rc.sort_key):
        by_real.setdefault(rc.knob.realization, []).append(rc)
    families = [
        by_real[r] for r in space.knobs.realizations if r in by_real
    ] + [v for k, v in sorted(by_real.items())
         if k not in space.knobs.realizations]
    ranking: list[RankedCandidate] = []
    for rank in range(max((len(v) for v in families), default=0)):
        for fam in families:
            if rank < len(fam):
                ranking.append(fam[rank])

    shortlist: list[RankedCandidate] = []
    demoted: list[dict] = []
    seen: set[Program] = set()
    for rc in ranking:
        if len(shortlist) >= budget:
            break
        generated = generate_phased_program(
            program, phases, rc.layouts, space.nprocs,
            realization=rc.knob.realization,
            max_temp_frac=(rc.knob.max_temp_frac
                           if rc.knob.max_temp_frac is not None else 0.5),
        )
        if generated in seen:
            # The emission key is a conservative prediction; structural
            # equality of the generated programs is the ground truth.
            deduped += 1
            continue
        seen.add(generated)
        report = verify_communication(
            generated, space.nprocs, backend=backend
        )
        if not report.ok:
            # A rejected rewrite is a rewriter bug, not a bad score —
            # demote it with enough context to debug from the CLI.
            demoted.append({
                "label": rc.label,
                "candidate": repr((rc.knob.key,)
                                  + tuple(c.key for c in rc.layouts)),
                "static_score": rc.score,
                "reason": report.format(),
            })
            continue
        shortlist.append(
            RankedCandidate(rc.score, rc.layouts, rc.knob, generated)
        )

    if not shortlist:
        detail = "\n".join(
            f"  {d['candidate']}:\n    " + d["reason"].replace("\n", "\n    ")
            for d in demoted
        ) or "  (no candidates were generated at all)"
        raise TuneError(
            "prefilter produced an empty shortlist — every generated "
            "candidate failed communication verification:\n" + detail
        )

    return PrefilterResult(
        shortlist=shortlist,
        space_size=space.size(),
        scored=scored,
        deduped=deduped,
        demoted=demoted,
    )
