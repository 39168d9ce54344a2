"""Target-lower-bound branch and bound with orbital branching and
isomorphism pruning, on the level-expansion engine it shares with the
estimator.

The search is level-synchronous breadth first, and each node takes one path
through the engine.  ``root_level`` branches the root, which is neither
classified nor bounded.  ``expand_level`` reduces and classifies every node
of the next level, sweeps the open ones for subproblems isomorphic to an
already seen one, bounds the rest with the Newton-bracketing procedure (early
exit against the target), and branches each survivor right there
(``branch_node``), on the highest-scoring orbit of the node group its bound
already read that the bound's relaxation has not set to zero.  A node's
outcome is the verdict of its one record (``Decided``), and a level
(``Level``) is the ordered list of its nodes' records, so every count is a
sum over them.  Between levels only fix sets and records are kept, the
isomorphism history included, so a retained twin is reduced again only to
check a merge; a survivor's last APG iterate warm-starts the bounds of its
two children and is dropped once both have a verdict.  No upper bounding is
performed: the run either proves that the optimum is at least the target,
or refutes the target with an exactly solved leaf below it.

Bounds, branches and merges go through this module's names ``nb_bound``,
``branch_node`` and ``isomorphic``, which the test suite's enumeration audit
(``audited`` in ``tests/conftest.py``) wraps from outside.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field

import numpy as np

from .dnn import NbParams, Settings, assemble, nb_bound, setting
from .instance import BqopInstance, objective
from .subproblem import (FixSets, Infeasible, SolvedLeaf, Subproblem,
                         feasibility_status, reduce)
from .symmetry import Orbit, candidates, first_leaf, orbits

# Candidate tries of one isomorphism search; running out counts as
# non-isomorphic, which is sound: a missed merge only costs extra work.
ISO_NODE_CAP = 1_000_000
# An orbit whose mean relaxation value xbar is below this is one the node's
# relaxation has set to zero: its 0-child would keep the parent's bound.
# Measured xbar lies in [-0.006, 1.005], so this sits just above the noise.
XBAR_FLOOR = 0.01


@dataclass(frozen=True)
class TreeParams(Settings):
    """Settings of the tree engine, shared by BbParams and EstParams."""

    workers: int = setting(1, "at least 1")
    leaf_threshold: int = 20
    leaf_band: int = 3
    nb: NbParams = field(default_factory=NbParams)


@dataclass(frozen=True)
class BbParams(TreeParams):
    """Branch-and-bound settings: isomorphism pruning and the budgets."""

    iso_pruning: bool = True
    node_budget: int | None = setting(None, "at least 1")
    time_budget: float | None = setting(None, "a non-negative finite number")  # seconds


@dataclass(frozen=True)
class Certificate:
    outcome: str           # Proved | Refuted | Inconclusive
    target: int
    node_count: int
    per_depth: tuple[dict, ...]
    wall_time: float
    witness: np.ndarray | None = None
    witness_value: int | None = None
    # Inconclusive only: the fix sets of the last level's branched nodes,
    # whose children a longer run would expand next.
    frontier: tuple[FixSets, ...] | None = None

    def to_json_obj(self) -> dict:
        obj = {
            "outcome": self.outcome,
            "target": self.target,
            "node_count": self.node_count,
            "per_depth": list(self.per_depth),
        }
        if self.witness is not None:
            obj["witness"] = "".join(str(int(v)) for v in self.witness)
            obj["witness_value"] = self.witness_value
        if self.frontier is not None:
            obj["frontier"] = [{"i0": [i + 1 for i in fix.i0], "i1": [i + 1 for i in fix.i1],
                                "depth": len(self.per_depth)} for fix in self.frontier]
        obj["timing"] = {"wall_time_seconds": self.wall_time}
        return obj


def fingerprint(sub: Subproblem) -> tuple:
    """Invariants of a subproblem under the isomorphism relation; equality is
    necessary for two subproblems to merge."""
    R = sub.reduced_B
    return (
        len(sub.fix.i0),
        len(sub.fix.i1),
        sub.offset,
        int(R.min()) if R.size else 0,
        tuple(sorted(int(v) for v in np.diagonal(R))),
        tuple(sorted(int(v) for v in R.sum(axis=1))),
    )


def isomorphic(sub_a: Subproblem, sub_b: Subproblem) -> np.ndarray | None:
    """Permutation witness p with B_b[i, j] == B_a[p(i), p(j)] for all i, j,
    or None.  Requires matching fingerprints first; the witness is the first
    leaf of the automorphism search run between the two reduced matrices,
    with at most ``ISO_NODE_CAP`` candidate tries."""
    if fingerprint(sub_a) != fingerprint(sub_b):
        return None
    A = sub_a.reduced_B
    Bm = sub_b.reduced_B
    return first_leaf(Bm, A, candidates(Bm, A), np.full(A.shape[0], -1), ISO_NODE_CAP)


def orbit_scores(sub: Subproblem) -> list[tuple[Orbit, float]]:
    """The orbits of the node group ``sub.group`` in full indices, best
    first, each with its score: the average objective value of the child
    fixing its representative to one.  x has ones on I1 and the
    representative, the fractional fill (m - |I1| - 1) / (|F| - 1) on the
    remaining free indices, zeros elsewhere, evaluated as x^T B x on the full
    matrix.  Best is the largest score; ties go to the smallest
    representative."""
    inst = sub.inst
    B = np.asarray(inst.B, dtype=float)
    base = np.zeros(inst.n)
    base[list(sub.fix.i1)] = 1.0
    scored = []
    for orb in orbits(sub.group):
        full = Orbit(tuple(sub.free[i] for i in orb.members))
        x = base.copy()
        x[full.representative] = 1.0
        rest = [i for i in sub.free if i != full.representative]
        if rest:
            x[rest] = (inst.m - len(sub.fix.i1) - 1) / (sub.ell - 1)
        scored.append((full, float(x @ B @ x)))
    return sorted(scored, key=lambda pair: (-pair[1], pair[0].representative))


def choose_orbit(sub: Subproblem, xbar: np.ndarray | None = None) -> Orbit:
    """The orbit to branch on, in full indices: the first in
    ``orbit_scores`` order whose mean ``xbar`` is at least ``XBAR_FLOOR``.
    ``xbar`` holds the relaxation's value of each free variable
    (``NbResult.xbar``, in ``sub.free`` order); fixing to zero an orbit it
    already sets to zero leaves the 0-child's relaxation where the node's
    was.  Without ``xbar``, or where every orbit is below the floor, the
    first orbit ``orbit_scores`` ranks.  Ties go to the smallest
    representative either way."""
    ranked = orbit_scores(sub)
    if not ranked:
        raise ValueError("no orbits to branch on")
    if xbar is not None:
        for orb, _ in ranked:
            if xbar[np.searchsorted(sub.free, orb.members)].mean() >= XBAR_FLOOR:
                return orb
    return ranked[0][0]


def branch(fix: FixSets, orbit: Orbit) -> tuple[FixSets, FixSets]:
    """Children of a fixing: all members of an orbit, in full indices, to
    zero, or its representative to one."""
    return fix.with_zeros(orbit.members), fix.with_one(orbit.representative)


def branch_node(sub: Subproblem, xbar: np.ndarray | None = None) -> tuple[FixSets, FixSets]:
    """Both children of an open node, branched on the orbit ``choose_orbit``
    picks from its node group ``sub.group`` and ``xbar``, the relaxation
    values of the node's own bound (None for the root, which is not bounded,
    and for a node that ran no APG solve)."""
    return branch(sub.fix, choose_orbit(sub, xbar))


@dataclass
class Decided:
    """The one record of a node.  ``verdict`` is "infeasible", "leaf"
    (``leaf`` holds the SolvedLeaf), "merged" into an isomorphic retained
    node, "pruned" by its bound, or "branched" into ``children`` where it
    was decided; None while the node is open and not yet bounded.
    ``seconds`` is what its bound took.  A branched node whose bound ran APG
    also holds ``warm``, its free indices and ``NbResult.y2``: the warm
    start of its children's bounds (``dnn.assemble``), dropped once both
    children have a verdict.  A memo maps fix sets to these records."""

    verdict: str | None = None
    leaf: SolvedLeaf | None = None
    seconds: float = 0.0
    children: tuple[FixSets, FixSets] | None = None
    warm: tuple[tuple[int, ...], np.ndarray] | None = None


@dataclass
class Level:
    """One expanded level: ``nodes`` pairs every fix set expanded with its
    record, in order, and ``parents`` maps each child of a branched record
    to that record: its keys, in order, are the next level.  A level with a
    ``refutation`` (its first leaf below the target) was neither bounded nor
    branched.  Level 0 (``root_level``) holds only the root's record."""

    nodes: list[tuple[FixSets, Decided]] = field(default_factory=list)
    refutation: SolvedLeaf | None = None

    @property
    def parents(self) -> dict[FixSets, Decided]:
        return {child: node for _, node in self.nodes if node.verdict == "branched"
                for child in node.children}


def expand_level(inst: BqopInstance, target: int, params: TreeParams,
                 frontier: dict[FixSets, Decided], history: dict | None = None,
                 memo: dict | None = None) -> Level:
    """Expand the fix sets of ``frontier``, in order: reduce and classify
    each node; with a ``history`` (fingerprint -> fix sets of the retained
    subproblems), merge the open nodes isomorphic to a retained one, rebuilt
    by ``reduce``, and retain the rest; stop at the first leaf below the
    target; otherwise bound the open nodes, apply the prune test and branch
    every survivor from the subproblem its bound read.  Only branch and
    bound passes a history.

    ``frontier`` maps each fix set to its parent's record: the
    ``Level.parents`` of the level before, or a part of it.  Each bound
    starts from its parent's warm start, if the parent still holds one.  A
    pruned node keeps no Y2, and a parent drops its Y2 once both of its
    children have a verdict in the memo.

    With a ``memo`` (fix sets -> Decided, for one target and one set of
    params), a node recorded there is neither reduced, classified, bounded
    nor branched again: its record counts as if it had been.  Without one,
    the call uses a fresh memo of its own.  A merge depends on the history
    of the run, so a memo and a history do not go together."""
    if memo is not None and history is not None:
        raise ValueError("isomorphism merges depend on the run; they cannot be memoized")
    memo = {} if memo is None else memo
    level = Level()
    open_nodes = []
    for fix in frontier:
        node = memo.get(fix)
        sub = reduce(inst, fix) if node is None or node.verdict is None else None
        if node is None:
            status = feasibility_status(sub, params.leaf_threshold, params.leaf_band)
            node = memo[fix] = Decided()
            if isinstance(status, Infeasible):
                node.verdict = "infeasible"
            elif isinstance(status, SolvedLeaf):
                node.verdict, node.leaf = "leaf", status
        level.nodes.append((fix, node))
        if node.verdict not in ("infeasible", "leaf"):
            open_nodes.append((fix, node, sub))
    level.refutation = next((node.leaf for _, node in level.nodes
                             if node.verdict == "leaf" and node.leaf.value < target), None)

    if history is not None:
        # Retained subproblems with fewer ones fixed than every node of this
        # level can never match again.
        f1_min = min(len(fix.i1) for fix in frontier)
        for key in list(history):
            kept = [f for f in history[key] if len(f.i1) >= f1_min]
            if kept:
                history[key] = kept
            else:
                del history[key]
        unmerged = []
        for fix, node, sub in open_nodes:
            # Every entry of the bucket shares the fingerprint, so a twin is
            # rebuilt only when fingerprints collide.
            bucket = history.setdefault(fingerprint(sub), [])
            twin = next((t for t in (reduce(inst, f) for f in bucket)
                         if isomorphic(t, sub) is not None), None)
            if twin is None:
                bucket.append(fix)
                unmerged.append((fix, node, sub))
                continue
            node.verdict = "merged"
        open_nodes = unmerged

    if level.refutation is not None:
        return level

    def bound_one(item):
        parent, _, sub = item
        t0 = time.monotonic()
        res = nb_bound(assemble(sub, parent.warm), target, params.nb)
        return res, time.monotonic() - t0

    unbounded = [(frontier[fix], node, sub) for fix, node, sub in open_nodes
                 if node.verdict is None]
    with ExitStack() as stack:
        # The built-in map is lazy: with one worker a pruned node's Y2 is
        # dropped once its verdict is recorded.  The pool's map submits the
        # whole level at once, so with workers > 1 a finished node's Y2 is
        # held until the loop below reaches it.
        results = map(bound_one, unbounded)
        if params.workers > 1 and unbounded:
            pool = stack.enter_context(ThreadPoolExecutor(max_workers=params.workers))
            results = pool.map(bound_one, unbounded)
        for (_, node, sub), (res, seconds) in zip(unbounded, results):
            # Branchable, IterLimit and Stalled all branch; branching an
            # undecided node is always sound.
            node.verdict = "pruned" if res.status == "Pruned" else "branched"
            node.seconds = seconds
            if node.verdict == "branched":
                node.children = branch_node(sub, res.xbar)
                if res.y2 is not None:
                    node.warm = (sub.free, res.y2)
    for parent in frontier.values():
        if all(c in memo and memo[c].verdict is not None for c in parent.children):
            parent.warm = None
    return level


def root_level(inst: BqopInstance, memo: dict | None = None) -> Level:
    """Level 0: the root, branched without being classified or bounded; a
    ``memo`` records it, so that the root is branched once per memo."""
    root = FixSets((), ())
    node = Decided() if memo is None else memo.setdefault(root, Decided())
    if node.children is None:
        node.verdict, node.children = "branched", branch_node(reduce(inst, root))
    return Level(nodes=[(root, node)])


def solve_target(inst: BqopInstance, target: int, params: BbParams = BbParams()) -> Certificate:
    """Prove optimum >= target, or refute the target with a witness."""
    t_start = time.monotonic()
    history = {} if params.iso_pruning else None
    per_depth: list[dict] = []
    level = root_level(inst)
    node_count = 1
    for depth in itertools.count(1):
        parents = level.parents
        created = len(parents)
        node_count += created
        level = expand_level(inst, target, params, parents, history)
        leaf = level.refutation
        verdicts = Counter(node.verdict for _, node in level.nodes)
        generated = created - verdicts["merged"]
        per_depth.append({
            "depth": depth, "created": created, "generated": generated,
            "pruned_iso": verdicts["merged"], "infeasible": verdicts["infeasible"],
            "leaf_solved": verdicts["leaf"], "active": verdicts["branched"],
            "pruned_bound": 0 if leaf is not None else verdicts["pruned"] + verdicts["leaf"],
            "reduction_rate": generated / created})

        frontier = None
        if leaf is not None:
            value = objective(inst, leaf.witness)
            assert value == leaf.value < target
            outcome = "Refuted"
        elif not verdicts["branched"]:
            outcome = "Proved"
        elif (params.node_budget is not None and node_count > params.node_budget) or (
                params.time_budget is not None
                and time.monotonic() - t_start > params.time_budget):
            outcome = "Inconclusive"
            frontier = tuple(fix for fix, node in level.nodes if node.verdict == "branched")
        else:
            continue
        return Certificate(outcome=outcome, target=target, node_count=node_count,
                           per_depth=tuple(per_depth),
                           wall_time=time.monotonic() - t_start,
                           witness=None if leaf is None else leaf.witness,
                           witness_value=None if leaf is None else leaf.value,
                           frontier=frontier)


def stats_csv_rows(cert: Certificate) -> list[dict]:
    """Per-depth statistics rows for CSV emission."""
    keys = ("depth", "generated", "active", "pruned_bound", "pruned_iso",
            "reduction_rate")
    return [{k: rec[k] for k in keys} for rec in cert.per_depth]
