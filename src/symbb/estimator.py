"""Enumeration-tree size estimation by sampled subtrees.

The tree is expanded fully while a level holds fewer nodes than the width
threshold.  From the first wide level onward only a random sample of each
level is expanded; the per-level growth ratio (2 * branchable / sampled)
extrapolates the level sizes, and the root plus the sizes of the levels
expanded estimates the node count.  So an estimate cut by its depth budget
counts no level it did not expand, as ``solve_target``'s ``node_count`` on a
budget exit.  Once sampling has begun, a level narrower than the sample
cutoff (``sample_cutoff``) is still taken whole.  Time is priced per level:
the bound seconds of the nodes expanded at a level, scaled by the estimated
size of that level over the nodes expanded there, so a level expanded whole
counts its own seconds once.  The estimator is only a sampling policy: it
starts from the root's children (``bb.root_level``) and expands its sample
with the branch-and-bound engine (``bb.expand_level``), which branches each
survivor it bounds, so with no level sampled it counts exactly the nodes
branch and bound creates.  A level's branchable count and bound seconds are
sums over its node records.  Isomorphism pruning stays off here, matching
the branch-and-bound variant whose work is being estimated.

``estimate_multi`` decides each distinct node once: its seeds share one memo
of node records, made for that call only, so the root branch, the levels
every seed expands whole and the nodes two samples share are classified,
bounded and branched by the first seed that meets them.  A survivor's warm
start (``bb.Decided.warm``) stays on its record until both of its children
have a verdict in the memo, so a child that a later seed samples first is
bounded from the same start as in a separate call.  A shared node's
recorded bound seconds count in every seed that samples it, so each report
is the one a separate ``estimate`` call would give, timings aside.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass

import numpy as np

from .bb import TreeParams, expand_level, root_level
from .dnn import setting
from .instance import BqopInstance


@dataclass(frozen=True)
class EstParams(TreeParams):
    width_threshold: int = setting(1000, "at least 1")
    sample_size: int = setting(100, "at least 1")   # nodes sampled from a wide level
    sample_cutoff: int = 500        # levels below this are taken whole
    depth_budget: int | None = setting(None, "at least 1")


@dataclass(frozen=True)
class EstimationReport:
    target: int
    seed: int
    per_depth: tuple[dict, ...]
    estimated_total_nodes: float
    mean_node_seconds: float
    estimated_time_seconds: float
    sampled: bool                   # whether any level was truncated
    target_refuted: bool
    complete: bool

    def to_json_obj(self) -> dict:
        return {**dataclasses.asdict(self), "per_depth": list(self.per_depth)}


def _sample_count(width: int, params: EstParams) -> int:
    return min(params.sample_size, width) if width >= params.sample_cutoff else width


def estimate(inst: BqopInstance, target: int, params: EstParams = EstParams(),
             seed: int = 0, memo: dict | None = None) -> EstimationReport:
    """Run the sampled-subtree estimator for one seed: from the children of
    a level, starting from the root's, pick a sample, then expand it, all
    with the branch-and-bound engine.  ``memo`` is the node memo of
    ``bb.expand_level`` and ``bb.root_level``, shared by the calls for one
    target and one set of params."""
    rng = np.random.default_rng(seed)
    level = root_level(inst, memo=memo)
    per_depth: list[dict] = []
    bound_seconds: list[float] = []
    est_seconds = 0.0
    exact_sum = 0
    est_sum = 0.0
    sampling = False
    refuted = False
    complete = True

    for depth in itertools.count(1):
        parents = level.parents
        frontier = list(parents)
        width = len(frontier)
        # A level counts once it is expanded: exactly up to the first
        # truncated level, and by its extrapolated size t_hat after it.
        if sampling:
            est_sum += t_hat
        else:
            exact_sum += width
            t_hat = float(width)
            sampling = width >= params.width_threshold
        if sampling:
            s_k = _sample_count(width, params)
            chosen = sorted(rng.permutation(width)[:s_k].tolist())
            selected = {frontier[i]: parents[frontier[i]] for i in chosen}
        else:
            s_k = width
            selected = parents

        level = expand_level(inst, target, params, selected, memo=memo)
        # A refuted level was neither bounded nor branched here, though the
        # memo may hold verdicts another seed gave its nodes.
        bounded = [node for _, node in level.nodes
                   if level.refutation is None and node.verdict in ("pruned", "branched")]
        bound_seconds += [node.seconds for node in bounded]
        # The level's estimated size over its expanded nodes: exactly 1 while
        # the level is expanded whole.
        est_seconds += (t_hat / s_k) * sum(n.seconds for n in bounded)
        r_k = sum(node.verdict == "branched" for node in bounded)
        rec = {"depth": depth, "width": width, "sampled": s_k,
               "branchable": r_k}
        if sampling:
            rec["t_hat"] = t_hat
            t_hat = (2.0 * r_k / s_k) * t_hat
        per_depth.append(rec)

        if level.refutation is not None:
            refuted = True
            break
        if r_k == 0:
            break
        if params.depth_budget is not None and depth >= params.depth_budget:
            complete = False
            break

    total = 1.0 + exact_sum + est_sum
    mean_node_seconds = float(np.mean(bound_seconds)) if bound_seconds else 0.0
    return EstimationReport(
        target=target, seed=seed, per_depth=tuple(per_depth),
        estimated_total_nodes=total, mean_node_seconds=mean_node_seconds,
        estimated_time_seconds=est_seconds,
        sampled=any(rec["sampled"] < rec["width"] for rec in per_depth),
        target_refuted=refuted, complete=complete)


def estimate_multi(inst: BqopInstance, target: int, seeds,
                   params: EstParams = EstParams()) -> dict:
    """Reports for several seeds plus a min/mean/max node-count summary.  A
    node memo is made once and shared by every seed."""
    memo: dict = {}
    reports = [estimate(inst, target, params, seed=s, memo=memo) for s in seeds]
    totals = [r.estimated_total_nodes for r in reports]
    times = [r.estimated_time_seconds for r in reports]
    return {
        "target": target,
        "seeds": list(seeds),
        "nodes": {"min": min(totals), "mean": float(np.mean(totals)),
                  "max": max(totals)},
        "time_seconds": {"min": min(times), "mean": float(np.mean(times)),
                         "max": max(times)},
        "reports": [r.to_json_obj() for r in reports],
    }
