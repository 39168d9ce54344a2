"""Branch-and-bound: branching, isomorphism pruning, certificates."""

import dataclasses
import sys

import numpy as np
import pytest

from symbb import bb as bb_mod
from symbb import dnn, subproblem
from symbb.bb import (BbParams, branch, choose_orbit, expand_level,
                      fingerprint, isomorphic, orbit_scores, root_level,
                      solve_target, stats_csv_rows)
from symbb.dnn import ApgParams, NbParams
from symbb.estimator import EstParams, estimate
from symbb.instance import BqopInstance, objective
from symbb.subproblem import FixSets, reduce, solve_exactly, subgroup
from symbb.symmetry import Orbit, PermutationGroup, automorphisms, orbits
from tests.conftest import (brute_optimum, brute_sub_optimum, planted_bqop,
                            random_bqop, soundness_instance, torus_matrix)

FAST = BbParams(leaf_threshold=4, leaf_band=2,
                nb=NbParams(apg=ApgParams(rel_tol=1e-10, max_iter=4000)))


class TestFingerprint:
    def test_equal_for_identical(self, bqop6):
        sub = reduce(bqop6, FixSets(i0=(1,), i1=(0,)))
        assert fingerprint(sub) == fingerprint(sub)

    def test_differs_on_offset(self, bqop6):
        a = reduce(bqop6, FixSets(i0=(), i1=(0, 1)))
        b = reduce(bqop6, FixSets(i0=(), i1=(0, 2)))
        if a.offset != b.offset:
            assert fingerprint(a) != fingerprint(b)

    def test_invariant_under_relabeling(self):
        rng = np.random.default_rng(0)
        inst = random_bqop(rng, 8, 4)
        sub = reduce(inst, FixSets(i0=(7,), i1=(0,)))
        p = rng.permutation(sub.ell)
        R = sub.reduced_B[np.ix_(p, p)]
        relabeled = type(sub)(inst=sub.inst, fix=sub.fix, free=sub.free,
                              reduced_B=R, offset=sub.offset,
                              residual_m=sub.residual_m)
        assert fingerprint(sub) == fingerprint(relabeled)


class TestIsomorphic:
    def test_identity_witness(self, bqop6):
        sub = reduce(bqop6, FixSets(i0=(5,), i1=(0,)))
        w = isomorphic(sub, sub)
        assert w is not None
        assert np.array_equal(np.sort(w), np.arange(sub.ell))

    def test_witness_identity_holds(self):
        rng = np.random.default_rng(1)
        inst = random_bqop(rng, 8, 4)
        sub = reduce(inst, FixSets(i0=(7,), i1=(0,)))
        p = rng.permutation(sub.ell)
        R = sub.reduced_B[np.ix_(p, p)]
        other = type(sub)(inst=inst, fix=sub.fix, free=sub.free, reduced_B=R,
                          offset=sub.offset, residual_m=sub.residual_m)
        w = isomorphic(sub, other)
        assert w is not None
        d = sub.ell
        for i in range(d):
            for j in range(d):
                assert other.reduced_B[i, j] == sub.reduced_B[w[i], w[j]]

    def test_different_offsets_rejected(self, bqop6):
        a = reduce(bqop6, FixSets(i0=(), i1=(0, 1)))
        b = reduce(bqop6, FixSets(i0=(), i1=(0, 2)))
        if a.offset != b.offset:
            assert isomorphic(a, b) is None

    def test_automorphism_related_fixings_merge(self, cycle6):
        from symbb.instance import BqopInstance
        inst = BqopInstance(n=6, B=cycle6, m=3)
        # Vertices 0 and 2 lie in one orbit of the cycle's dihedral group.
        a = reduce(inst, FixSets(i0=(), i1=(0,)))
        b = reduce(inst, FixSets(i0=(), i1=(2,)))
        assert isomorphic(a, b) is not None
        assert brute_sub_optimum(a) == brute_sub_optimum(b)

    def test_non_isomorphic(self):
        rng = np.random.default_rng(2)
        inst = random_bqop(rng, 8, 4)
        a = reduce(inst, FixSets(i0=(), i1=(0,)))
        b = reduce(inst, FixSets(i0=(), i1=(1,)))
        # Random instances almost surely make distinct fixings non-isomorphic.
        if fingerprint(a) != fingerprint(b):
            assert isomorphic(a, b) is None

    def test_equal_fingerprints_not_isomorphic(self):
        # A 6-cycle and two triangles: every vertex has two neighbours, so
        # the fingerprints agree, but only the cycle is connected.
        ring = np.roll(np.eye(6, dtype=np.int64), 1, axis=1)
        triangle = np.ones((3, 3), dtype=np.int64) - np.eye(3, dtype=np.int64)
        two = np.kron(np.eye(2, dtype=np.int64), triangle)
        a, b = (reduce(BqopInstance(n=6, B=B, m=3), FixSets((), ()))
                for B in (ring + ring.T, two))
        assert fingerprint(a) == fingerprint(b)
        assert isomorphic(a, b) is None and isomorphic(b, a) is None


class TestOrbitChoice:
    def test_scores_formula(self, bqop6):
        sub = reduce(bqop6, FixSets(i0=(), i1=(0,)))
        ranked = orbit_scores(sub)
        assert sorted(i for orb, _ in ranked for i in orb.members) == list(sub.free)
        fill = (bqop6.m - 1 - 1) / (sub.ell - 1)
        for orb, score in ranked:
            x = np.zeros(6)
            x[0] = 1.0
            x[list(sub.free)] = fill
            x[orb.representative] = 1.0
            assert score == pytest.approx(float(x @ bqop6.B @ x))

    def test_orbits_in_full_indices(self, bqop6):
        sub = reduce(bqop6, FixSets(i0=(), i1=(0,)))
        reduced = {tuple(sub.free[i] for i in orb.members) for orb in orbits(sub.group)}
        assert {orb.members for orb, _ in orbit_scores(sub)} == reduced

    def test_highest_score_wins(self, bqop6):
        sub = reduce(bqop6, FixSets(i0=(), i1=(0,)))
        ranked = orbit_scores(sub)
        scores = [score for _, score in ranked]
        assert scores == sorted(scores, reverse=True)
        assert choose_orbit(sub) == ranked[0][0]

    def test_tie_breaks_to_smallest_representative(self):
        # Distinct weights leave the group trivial, and with every free index
        # filled to one each child scores the whole matrix.
        B = np.zeros((4, 4), dtype=np.int64)
        B[np.triu_indices(4, 1)] = [1, 2, 3, 4, 5, 6]
        inst = BqopInstance(n=4, B=B + B.T, m=4)
        ranked = orbit_scores(reduce(inst, FixSets((), ())))
        assert [score for _, score in ranked] == [42.0] * 4
        assert [orb.representative for orb, _ in ranked] == [0, 1, 2, 3]

    def test_single_orbit_shortcut(self, cycle6):
        inst = BqopInstance(n=6, B=cycle6, m=3)
        sub = reduce(inst, FixSets((), ()))
        assert choose_orbit(sub).members == tuple(range(6))


class TestBranch:
    def test_children_fix_sets(self):
        fix = FixSets(i0=(), i1=(0,))
        c0, c1 = branch(fix, Orbit(members=(2, 4)))
        assert c0.i0 == (2, 4) and c0.i1 == (0,)
        assert c1.i0 == () and c1.i1 == (0, 2)

    def test_root_branch_structure(self, bqop6):
        # Branching the root single orbit yields the all-zero (infeasible)
        # child and the fix-first-variable child.
        sub = reduce(bqop6, FixSets((), ()))
        grp = PermutationGroup(6, [[np.roll(np.arange(6), s) for s in range(6)]])
        orbs = orbits(grp)
        if len(orbs) == 1:
            c0, c1 = branch(sub.fix, orbs[0])
            assert c0.i0 == tuple(range(6))
            assert c1.i1 == (0,)


class TestSolveTarget:
    def test_group_beyond_int64(self, two_pairs24):
        opt = solve_exactly(reduce(two_pairs24, FixSets((), ()))).value
        assert solve_target(two_pairs24, opt).outcome == "Proved"
        assert solve_target(two_pairs24, opt + 1).outcome == "Refuted"

    def test_proved_and_refuted(self):
        rng = np.random.default_rng(10)
        inst = random_bqop(rng, 7, 3)
        opt = brute_optimum(inst)
        proved = solve_target(inst, opt, FAST)
        assert proved.outcome == "Proved"
        refuted = solve_target(inst, opt + 1, FAST)
        assert refuted.outcome == "Refuted"
        assert refuted.witness_value == opt
        assert objective(inst, refuted.witness) == opt

    def test_planted_symmetry_with_audit(self):
        rng = np.random.default_rng(11)
        inst = planted_bqop(rng, blocks=2, block_size=4, m=3)
        opt = brute_optimum(inst)
        params = BbParams(leaf_threshold=4, leaf_band=2, audit=True,
                          nb=FAST.nb)
        cert = solve_target(inst, opt, params)
        assert cert.outcome == "Proved"
        cert2 = solve_target(inst, opt + 1, params)
        assert cert2.outcome == "Refuted"

    def test_determinism_across_workers(self):
        rng = np.random.default_rng(12)
        inst = random_bqop(rng, 8, 4)
        opt = brute_optimum(inst)
        a = solve_target(inst, opt, FAST)
        b = solve_target(inst, opt, BbParams(**{**FAST.__dict__, "workers": 2}))
        assert a.outcome == b.outcome
        assert a.node_count == b.node_count
        assert a.per_depth == b.per_depth

    def test_torus_warm_starts_across_workers(self):
        # Each bound reads only its own parent's Y2, and no parent drops it
        # before every bound of the level is done, so the order in which the
        # workers finish cannot change a certificate.  More workers than
        # cores and a short switch interval make the threads interleave.
        inst = BqopInstance(n=25, B=torus_matrix(5).astype(np.int64), m=9)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            certs = [solve_target(inst, 160, BbParams(nb=FAST.nb, workers=w)).to_json_obj()
                     for w in (1, 2, 4)]
        finally:
            sys.setswitchinterval(interval)
        for cert in certs:
            cert.pop("timing")
        assert certs[0] == certs[1] == certs[2] and certs[0]["node_count"] == 23

    def test_stats_level_invariant(self):
        rng = np.random.default_rng(13)
        inst = planted_bqop(rng, blocks=3, block_size=3, m=4)
        opt = brute_optimum(inst)
        cert = solve_target(inst, opt, FAST)
        for prev, cur in zip(cert.per_depth, cert.per_depth[1:]):
            assert cur["created"] == 2 * prev["active"]
            assert cur["generated"] == 2 * prev["active"] - cur["pruned_iso"]

    def test_iso_pruning_never_increases_nodes(self):
        rng = np.random.default_rng(14)
        inst = planted_bqop(rng, blocks=2, block_size=4, m=3)
        opt = brute_optimum(inst)
        with_iso = solve_target(inst, opt, FAST)
        without = solve_target(
            inst, opt, BbParams(**{**FAST.__dict__, "iso_pruning": False}))
        assert with_iso.outcome == without.outcome == "Proved"
        assert with_iso.node_count <= without.node_count

    @staticmethod
    def level1_frontier(inst, target, params):
        """The fix sets of the branched nodes of level 1, in order, as the
        certificate's JSON lists them."""
        level1 = expand_level(inst, target, params, root_level(inst).parents, history={})
        return [{"i0": [i + 1 for i in fix.i0], "i1": [i + 1 for i in fix.i1], "depth": 1}
                for fix, node in level1.nodes if node.verdict == "branched"]

    def test_node_budget_inconclusive(self):
        rng = np.random.default_rng(15)
        inst = random_bqop(rng, 10, 5)
        opt = brute_optimum(inst)
        params = BbParams(**{**FAST.__dict__, "node_budget": 2})
        cert = solve_target(inst, opt, params)
        assert cert.outcome == "Inconclusive"
        obj = cert.to_json_obj()
        assert obj["target"] == opt
        # The budget runs out after level 1: the frontier is its survivors.
        assert len(cert.per_depth) == 1
        frontier = self.level1_frontier(inst, opt, params)
        assert obj["frontier"] == frontier
        assert len(frontier) == cert.per_depth[-1]["active"] > 0

    def test_time_budget_inconclusive(self):
        # Level 1 takes some time, so a budget of none ends the run after it.
        rng = np.random.default_rng(15)
        inst = random_bqop(rng, 10, 5)
        opt = brute_optimum(inst)
        params = BbParams(**{**FAST.__dict__, "time_budget": 0.0})
        cert = solve_target(inst, opt, params)
        assert cert.outcome == "Inconclusive" and len(cert.per_depth) == 1
        assert cert.to_json_obj()["frontier"] == self.level1_frontier(inst, opt, params)

    def test_frontier_only_when_inconclusive(self):
        rng = np.random.default_rng(16)
        inst = random_bqop(rng, 7, 3)
        opt = brute_optimum(inst)
        for target in (opt, opt + 1):
            cert = solve_target(inst, target, FAST)
            assert cert.frontier is None and "frontier" not in cert.to_json_obj()

    def test_zero_reduced_matrix_is_a_solved_leaf(self):
        # Some node of this tree has an all-zero reduced matrix, which has no
        # natural penalty scale; it must be solved as a leaf, not bounded.
        inst = planted_bqop(np.random.default_rng(7), blocks=3, block_size=5, m=3)
        cert = solve_target(inst, brute_optimum(inst), FAST)
        assert cert.outcome == "Proved"

    def test_uniform_child_is_a_solved_leaf(self, monkeypatch):
        # Variable 1 is joined to the rest by 9, the rest to each other by 5,
        # so the root branches on {1}.  Both children are uniform: the rest
        # alone (diagonal 0, 3 ones, value 30) and variable 1 fixed to one
        # (diagonal 18, 2 ones, value 46).  With no small leaves both would
        # otherwise be bounded, and no node group but the root's is searched.
        B = np.full((8, 8), 5, dtype=np.int64)
        B[0, :] = B[:, 0] = 9
        np.fill_diagonal(B, 0)
        inst = BqopInstance(n=8, B=B, m=3)
        searched = []
        real = subproblem.automorphisms
        monkeypatch.setattr(subproblem, "automorphisms",
                            lambda R: searched.append(R.shape) or real(R))
        params = dataclasses.replace(FAST, leaf_threshold=0, leaf_band=0, audit=True)
        proved = solve_target(inst, 30, params)
        assert proved.outcome == "Proved" and proved.node_count == 3
        assert proved.per_depth[0]["leaf_solved"] == 2
        assert searched == [(8, 8)]
        refuted = solve_target(inst, 31, params)
        assert refuted.outcome == "Refuted" and refuted.witness_value == 30
        assert objective(inst, refuted.witness) == 30

    def test_certificate_json_witness(self):
        rng = np.random.default_rng(16)
        inst = random_bqop(rng, 7, 3)
        opt = brute_optimum(inst)
        cert = solve_target(inst, opt + 1, FAST)
        obj = cert.to_json_obj()
        assert obj["outcome"] == "Refuted"
        assert len(obj["witness"]) == 7
        assert obj["witness"].count("1") == 3
        assert "wall_time_seconds" in obj["timing"]

    # Per level of the k = 5 torus tree: (created, infeasible, leaf_solved,
    # active, pruned_bound).  No isomorphism merges happen on this tree.  Each
    # child's first APG solve starts from its parent's last Y2, which narrows
    # the proof at 160 to one survivor per level from depth 3 on.  Both
    # certificates pass the audit.
    TORUS_OPEN = ((2, 1, 0, 1, 0), (2, 0, 0, 2, 0))

    @pytest.mark.parametrize("target, outcome, node_count, levels", [
        (160, "Proved", 23, TORUS_OPEN + (
            (4, 0, 0, 1, 3), (2, 0, 0, 1, 1), (2, 0, 0, 1, 1), (2, 0, 0, 1, 1),
            (2, 0, 1, 1, 1), (2, 0, 0, 1, 1), (2, 0, 0, 1, 1), (2, 0, 0, 0, 2))),
        (170, "Refuted", 33, TORUS_OPEN + (
            (4, 0, 0, 4, 0), (8, 0, 0, 8, 0), (16, 0, 1, 0, 0))),
    ])
    def test_torus_certificates_pinned(self, target, outcome, node_count, levels):
        # Faster bounding must not change a verdict or a level count.
        inst = BqopInstance(n=25, B=torus_matrix(5).astype(np.int64), m=9)
        cert = solve_target(inst, target, BbParams(nb=FAST.nb))
        assert cert.outcome == outcome
        assert cert.node_count == node_count
        assert list(cert.per_depth) == [
            {"depth": depth, "created": created, "generated": created,
             "pruned_iso": 0, "infeasible": infeasible, "leaf_solved": leaves,
             "active": active, "pruned_bound": pruned, "reduction_rate": 1.0}
            for depth, (created, infeasible, leaves, active, pruned)
            in enumerate(levels, start=1)]

    def test_stats_csv_rows(self):
        rng = np.random.default_rng(17)
        inst = random_bqop(rng, 7, 3)
        cert = solve_target(inst, brute_optimum(inst), FAST)
        rows = stats_csv_rows(cert)
        assert rows[0]["depth"] == 1
        assert set(rows[0]) == {"depth", "generated", "active", "pruned_bound",
                                "pruned_iso", "reduction_rate"}


class TestEngine:
    """Branch and bound and the estimator drive one level-expansion engine."""

    @staticmethod
    def instances():
        for seed in range(3):
            yield random_bqop(np.random.default_rng(seed), 8, 4)
        yield planted_bqop(np.random.default_rng(5), blocks=3, block_size=3, m=4)

    def test_full_width_estimate_matches_levels(self):
        no_iso = dataclasses.replace(FAST, iso_pruning=False)
        full = EstParams(leaf_threshold=4, leaf_band=2, nb=FAST.nb,
                         width_threshold=10 ** 6)
        for inst in self.instances():
            opt = brute_optimum(inst)
            for target in (opt, opt + 1):
                cert = solve_target(inst, target, no_iso)
                report = estimate(inst, target, full)
                assert [d["created"] for d in cert.per_depth] == \
                    [r["width"] for r in report.per_depth]
                assert [d["active"] for d in cert.per_depth] == \
                    [r["branchable"] for r in report.per_depth]
                assert report.target_refuted == (cert.outcome == "Refuted")
                assert report.estimated_total_nodes == cert.node_count

    def test_history_keeps_only_fix_sets(self, monkeypatch):
        # The planted n = 16 proof, with one Newton step per bound, merges 3
        # times in 65 nodes; its history still holds no reduced matrix, only
        # the fix sets to rebuild one from.  With the default Newton cap the
        # warm-started proof takes 9 nodes and merges none.
        histories = []
        real = bb_mod.expand_level

        def recording(inst, target, params, fixes, history=None, *args, **kwargs):
            histories.append(history)
            return real(inst, target, params, fixes, history, *args, **kwargs)

        monkeypatch.setattr(bb_mod, "expand_level", recording)
        inst = planted_bqop(np.random.default_rng(7), blocks=2, block_size=8, m=7)
        params = BbParams(leaf_threshold=4, leaf_band=2,
                          nb=NbParams(max_iter=1, apg=ApgParams(rel_tol=1e-9, max_iter=3000)))
        cert = solve_target(inst, brute_optimum(inst), params)
        assert (cert.outcome, cert.node_count) == ("Proved", 65)
        assert sum(d["pruned_iso"] for d in cert.per_depth) == 3
        history = histories[-1]
        assert all(h is history for h in histories) and history
        for bucket in history.values():
            assert type(bucket) is list
            for fix in bucket:
                assert type(fix) is FixSets
                assert not any(isinstance(v, np.ndarray) for v in vars(fix).values())

    VERDICTS = {"infeasible", "leaf", "merged", "pruned", "branched"}

    def solve_checking_verdicts(self, monkeypatch, inst, target, params):
        """``solve_target``, checking each level it expands: one record per
        fix set, in order; and, on a level without a refutation, one verdict
        per record, with the level's counts summing to the nodes it
        created."""
        levels = []
        real = bb_mod.expand_level

        def recording(inst, target, params, fixes, *args, **kwargs):
            level = real(inst, target, params, fixes, *args, **kwargs)
            levels.append((list(fixes), level))
            return level

        monkeypatch.setattr(bb_mod, "expand_level", recording)
        cert = solve_target(inst, target, params)
        monkeypatch.setattr(bb_mod, "expand_level", real)
        for (fixes, level), rec in zip(levels, cert.per_depth, strict=True):
            assert [fix for fix, _ in level.nodes] == fixes
            assert len({id(node) for _, node in level.nodes}) == len(fixes) == rec["created"]
            if level.refutation is None:
                assert {node.verdict for _, node in level.nodes} <= self.VERDICTS
                assert rec["created"] == rec["pruned_iso"] + rec["infeasible"] + \
                    rec["pruned_bound"] + rec["active"]
        return cert

    def test_every_node_gets_one_verdict_with_merges(self, monkeypatch):
        # The planted n = 16 proof with one Newton step per bound: 3 merges
        # in 65 nodes.
        inst = planted_bqop(np.random.default_rng(7), blocks=2, block_size=8, m=7)
        params = BbParams(leaf_threshold=4, leaf_band=2,
                          nb=NbParams(max_iter=1, apg=ApgParams(rel_tol=1e-9, max_iter=3000)))
        cert = self.solve_checking_verdicts(monkeypatch, inst, brute_optimum(inst), params)
        assert (cert.outcome, cert.node_count) == ("Proved", 65)
        assert sum(d["pruned_iso"] for d in cert.per_depth) == 3

    def test_every_node_gets_one_verdict_on_the_suite(self, monkeypatch):
        params = BbParams(leaf_threshold=8, leaf_band=3,
                          nb=NbParams(apg=ApgParams(rel_tol=1e-9, max_iter=3000)))
        outcomes = []
        for i in range(40):
            inst = soundness_instance(i)
            opt = brute_optimum(inst)
            outcomes += [self.solve_checking_verdicts(monkeypatch, inst, target, params).outcome
                         for target in (opt, opt + 1)]
        assert outcomes == ["Proved", "Refuted"] * 40

    def test_each_node_reduced_and_grouped_once(self, monkeypatch):
        # The k = 5 torus at 160 (23 nodes, no merges).  The engine reduces
        # each node once, and a survivor's group is searched once, whether
        # its bound on blocks or its branching reads it first.
        reduced, grouped = [], []
        real_reduce, real_subgroup = bb_mod.reduce, subproblem.subgroup

        def reducing(inst, fix):
            reduced.append(fix)
            return real_reduce(inst, fix)

        def grouping(sub):
            grouped.append(sub.fix)
            return real_subgroup(sub)

        monkeypatch.setattr(bb_mod, "reduce", reducing)
        monkeypatch.setattr(subproblem, "subgroup", grouping)
        inst = BqopInstance(n=25, B=torus_matrix(5).astype(np.int64), m=9)
        cert = solve_target(inst, 160, BbParams(nb=FAST.nb))
        assert (cert.outcome, cert.node_count) == ("Proved", 23)
        assert len(reduced) == len(set(reduced)) == cert.node_count
        assert len(grouped) == len(set(grouped)) > 0

    def test_memo_and_history_refused_together(self):
        inst = BqopInstance(n=25, B=torus_matrix(5).astype(np.int64), m=9)
        with pytest.raises(ValueError, match="cannot be memoized"):
            expand_level(inst, 160, FAST, root_level(inst).parents, history={}, memo={})

    def test_warm_start_kept_until_both_children_decided(self):
        # The k = 5 torus at 160: a survivor holds its free indices and its
        # last Y2 over lam until the memo has decided both of its children;
        # a pruned node holds none.
        inst = BqopInstance(n=25, B=torus_matrix(5).astype(np.int64), m=9)
        params = BbParams(nb=FAST.nb)
        memo = {}
        def survivors(level):
            return [fix for fix, node in level.nodes if node.verdict == "branched"]

        level1 = expand_level(inst, 160, params, root_level(inst, memo=memo).parents,
                              memo=memo)
        parent = memo[survivors(level1)[0]]
        assert all(p is parent for p in level1.parents.values())
        free, y2 = parent.warm
        assert y2.shape == (2 * len(free) + 1,) * 2 and np.all(y2 >= 0)
        first, second = level1.parents
        expand_level(inst, 160, params, {first: parent}, memo=memo)
        assert parent.warm is not None
        expand_level(inst, 160, params, {second: parent}, memo=memo)
        assert parent.warm is None
        level2 = expand_level(inst, 160, params, level1.parents, memo=memo)
        level3 = expand_level(inst, 160, params, level2.parents, memo=memo)
        nodes = [memo[fix] for fix in level2.parents]
        pruned = [node.verdict == "pruned" for node in nodes]
        assert sum(pruned) == sum(node.verdict in ("pruned", "leaf")
                                  for _, node in level3.nodes) == 3
        assert [node.warm is None for node in nodes] == pruned
        assert all(memo[fix].warm is None for fix in survivors(level2))
        # Without a memo no later call reaches a parent: it drops its Y2
        # after one level.
        fresh = expand_level(inst, 160, params, root_level(inst).parents)
        kept = fresh.parents[first]
        assert kept.warm is not None
        after = expand_level(inst, 160, params, fresh.parents)
        assert kept.warm is None
        assert survivors(after) == survivors(level2)
        assert all(p.warm is not None for p in after.parents.values())

    def test_audit_catches_lost_optimum(self, monkeypatch):
        # Past the root, a survivor's children both fix every free index to
        # zero, so neither keeps a feasible completion.
        real = bb_mod.branch
        inst = random_bqop(np.random.default_rng(0), 8, 4)

        def lossy(fix, orbit):
            if fix == FixSets((), ()):
                return real(fix, orbit)
            free = fix.free(inst.n)
            return fix.with_zeros(free), fix.with_zeros(free)

        monkeypatch.setattr(bb_mod, "branch", lossy)
        params = dataclasses.replace(FAST, audit=True)
        with pytest.raises(AssertionError, match="lost the optimum"):
            solve_target(inst, brute_optimum(inst), params)

    def test_audit_catches_unsound_merge(self, monkeypatch):
        # Every open node lands in one bucket and "matches" the first one.
        monkeypatch.setattr(bb_mod, "fingerprint", lambda sub: ())
        monkeypatch.setattr(bb_mod, "isomorphic",
                            lambda a, b: np.arange(b.ell))
        inst = random_bqop(np.random.default_rng(0), 8, 4)
        params = dataclasses.replace(FAST, audit=True)
        with pytest.raises(AssertionError, match="unsound merge"):
            solve_target(inst, brute_optimum(inst), params)

    def test_audit_catches_invalid_bound(self, monkeypatch):
        real = bb_mod.nb_bound

        def inflated(prob, target, params):
            res = real(prob, target, params)
            return dataclasses.replace(res, a=res.a + 10 ** 6)

        monkeypatch.setattr(bb_mod, "nb_bound", inflated)
        inst = random_bqop(np.random.default_rng(0), 8, 4)
        params = dataclasses.replace(FAST, audit=True)
        with pytest.raises(AssertionError, match="invalid bound"):
            solve_target(inst, brute_optimum(inst), params)

    def test_audit_catches_false_completion(self, monkeypatch):
        monkeypatch.setattr(dnn, "swap_search", lambda sub: (-10 ** 6, None))
        inst = random_bqop(np.random.default_rng(0), 8, 4)
        params = dataclasses.replace(FAST, audit=True)
        with pytest.raises(AssertionError, match="no completion"):
            solve_target(inst, brute_optimum(inst), params)


class TestCompletionCheck:
    """A node holding a known completion below the target is Branchable
    without a bound; every outcome and witness is the one the bounds alone
    give.  The node counts differ: the children of a node the check decided
    ran no APG, so their first solves start from zeros, not from a Y2."""

    SUITE = BbParams(leaf_threshold=8, leaf_band=3,
                     nb=NbParams(apg=ApgParams(rel_tol=1e-9, max_iter=3000)))

    def test_suite_outcomes_unchanged(self, monkeypatch):
        skipped = []
        real = bb_mod.nb_bound

        def recording(prob, target, params):
            res = real(prob, target, params)
            skipped[-1] += res.iterations == 0
            return res

        def certificates(targets):
            certs = []
            for inst, target in targets:
                skipped.append(0)
                certs.append(solve_target(inst, target, self.SUITE))
            return certs

        def verdicts(certs):
            return [(c.outcome, c.witness_value,
                     None if c.witness is None else "".join(map(str, c.witness)))
                    for c in certs]

        monkeypatch.setattr(bb_mod, "nb_bound", recording)
        targets = []
        for i in range(40):
            inst = soundness_instance(i)
            opt = brute_optimum(inst)
            targets += [(inst, opt), (inst, opt + 1)]
        checked = certificates(targets)
        fired = skipped[:]
        monkeypatch.setattr(dnn, "swap_search", lambda sub: (float("inf"), None))
        skipped.clear()
        unchecked = certificates(targets)
        assert verdicts(unchecked) == verdicts(checked)
        assert sum(c.node_count for c in checked) == 412
        assert sum(c.node_count for c in unchecked) == 392
        assert not any(skipped)
        assert not any(fired[0::2])
        assert any(fired[1::2])
