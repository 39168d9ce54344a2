"""Sampled-subtree tree-size estimation."""

import dataclasses
import types

import numpy as np
import pytest

from symbb import bb
from symbb.bb import BbParams, solve_target
from symbb.dnn import ApgParams, NbParams
from symbb.estimator import EstParams, _sample_count, estimate, estimate_multi
from symbb.instance import BqopInstance
from tests.conftest import (audited, brute_optimum, planted_bqop, random_bqop,
                            soundness_instance, torus_matrix)

FAST_NB = NbParams(apg=ApgParams(rel_tol=1e-10, max_iter=4000))


def fast_est(**kwargs):
    defaults = dict(leaf_threshold=4, leaf_band=2, nb=FAST_NB)
    defaults.update(kwargs)
    return EstParams(**defaults)


def fast_bb(**kwargs):
    defaults = dict(leaf_threshold=4, leaf_band=2, nb=FAST_NB,
                    iso_pruning=False)
    defaults.update(kwargs)
    return BbParams(**defaults)


class TestSamplingRule:
    def test_wide_level_capped(self):
        assert _sample_count(600, EstParams()) == 100
        # A sample is never larger than its level.
        small = EstParams(width_threshold=2, sample_cutoff=2, sample_size=1000)
        assert _sample_count(2, small) == 2
        assert _sample_count(1001, small) == 1000

    def test_narrow_level_taken_whole(self):
        assert _sample_count(300, EstParams()) == 300

    def test_boundary(self):
        assert _sample_count(500, EstParams()) == 100
        assert _sample_count(499, EstParams()) == 499


class TestDegenerateExactness:
    def test_sample_covering_every_level_is_exact(self):
        # Every level is sampled, and every sample is the whole level: the
        # growth ratios then rebuild the exact level sizes, and no level was
        # truncated.
        nb = NbParams(apg=ApgParams(rel_tol=1e-9, max_iter=3000))
        est = EstParams(leaf_threshold=8, leaf_band=3, nb=nb, width_threshold=2,
                        sample_cutoff=2, sample_size=1000)
        solve = BbParams(leaf_threshold=8, leaf_band=3, nb=nb, iso_pruning=False)
        for i in range(12):
            inst = soundness_instance(i)
            opt = brute_optimum(inst)
            report = estimate(inst, opt, est)
            assert not report.sampled
            assert all(r["sampled"] == r["width"] for r in report.per_depth)
            assert report.estimated_total_nodes == solve_target(inst, opt, solve).node_count

    def test_matches_exact_node_count(self):
        # With a width threshold the tree never reaches, the estimate equals
        # the exact node count of the isomorphism-pruning-free search.
        for seed in (0, 1):
            rng = np.random.default_rng(seed)
            inst = random_bqop(rng, 8, 4)
            opt = brute_optimum(inst)
            cert = solve_target(inst, opt, fast_bb())
            report = estimate(inst, opt, fast_est(width_threshold=10 ** 6))
            assert not report.sampled
            assert report.complete
            assert report.estimated_total_nodes == cert.node_count

    def test_refuted_target_flagged(self):
        rng = np.random.default_rng(2)
        inst = random_bqop(rng, 8, 4)
        opt = brute_optimum(inst)
        report = estimate(inst, opt + 1, fast_est(width_threshold=10 ** 6))
        assert report.target_refuted


class TestSampling:
    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(3)
        inst = random_bqop(rng, 9, 4)
        opt = brute_optimum(inst)
        params = fast_est(width_threshold=2, sample_cutoff=2, sample_size=2)
        a = estimate(inst, opt, params, seed=5)
        b = estimate(inst, opt, params, seed=5)
        assert a.estimated_total_nodes == b.estimated_total_nodes
        assert a.per_depth == b.per_depth

    def test_recursion_matches_records(self):
        rng = np.random.default_rng(4)
        inst = random_bqop(rng, 9, 4)
        opt = brute_optimum(inst)
        params = fast_est(width_threshold=2, sample_cutoff=2, sample_size=2)
        report = estimate(inst, opt, params, seed=7)
        t_hat = None
        for rec in report.per_depth:
            if "t_hat" not in rec:
                continue
            if t_hat is None:
                t_hat = rec["t_hat"]
            assert rec["t_hat"] == pytest.approx(t_hat)
            t_hat = (2.0 * rec["branchable"] / rec["sampled"]) * t_hat

    def test_level_below_cutoff_taken_whole_once_sampling(self):
        # The k = 5 torus at 160, sampled from the first level on: the two
        # levels of width 2, not narrower than the sample size of 1 but
        # narrower than the cutoff of 3, are expanded whole, and the level of
        # width 4 is sampled.
        params = EstParams(width_threshold=2, sample_size=1, sample_cutoff=3, nb=FAST_NB)
        report = estimate(TestSharedMemo.torus(), 160, params, seed=0)
        assert report.sampled and all("t_hat" in r for r in report.per_depth)
        band = [r for r in report.per_depth
                if params.sample_size <= r["width"] < params.sample_cutoff]
        assert [(r["width"], r["sampled"]) for r in band] == [(2, 2), (2, 2)]
        assert [(r["width"], r["sampled"]) for r in report.per_depth
                if r not in band] == [(4, 1)]

    def test_depth_budget_ends_incomplete(self):
        # The k = 5 torus at 160 takes 10 levels; a budget of 3 stops after
        # the third, with the widths of the pinned solve (2, 2, 4).
        report = estimate(TestSharedMemo.torus(), 160,
                          EstParams(nb=FAST_NB, depth_budget=3), seed=0)
        assert not report.complete and not report.target_refuted
        assert [r["depth"] for r in report.per_depth] == [1, 2, 3]
        assert [r["width"] for r in report.per_depth] == [2, 2, 4]

    @pytest.mark.parametrize("depth_budget", [2, 3])
    def test_depth_budget_counts_only_levels_expanded(self, depth_budget):
        # Every level sampled whole rebuilds the exact widths, so both modes
        # count the root and the levels they expanded, and no level after
        # them: the node count of a solve cut after the same levels.
        inst, nb = TestSharedMemo.torus(), TestSharedMemo.SUITE_NB
        exact = estimate(inst, 160, EstParams(nb=nb, depth_budget=depth_budget))
        whole = estimate(inst, 160, EstParams(nb=nb, depth_budget=depth_budget,
                                              width_threshold=1, sample_cutoff=1,
                                              sample_size=10 ** 6))
        assert not exact.sampled and not whole.sampled
        assert all("t_hat" in r for r in whole.per_depth)
        assert not exact.complete and not whole.complete
        count = 1 + sum(r["width"] for r in exact.per_depth)
        assert exact.estimated_total_nodes == whole.estimated_total_nodes == count
        cert = solve_target(inst, 160, BbParams(nb=nb, iso_pruning=False,
                                                node_budget=count - 1))
        assert cert.outcome == "Inconclusive" and cert.node_count == count

    def test_mean_within_factor_two(self):
        rng = np.random.default_rng(5)
        inst = planted_bqop(rng, blocks=3, block_size=3, m=4)
        opt = brute_optimum(inst)
        exact = solve_target(inst, opt, fast_bb()).node_count
        params = fast_est(width_threshold=3, sample_cutoff=4, sample_size=3)
        totals = [estimate(inst, opt, params, seed=s).estimated_total_nodes
                  for s in range(20)]
        mean = float(np.mean(totals))
        assert exact / 2 <= mean <= exact * 2


def test_multi_seed_summary():
    rng = np.random.default_rng(6)
    inst = random_bqop(rng, 8, 4)
    opt = brute_optimum(inst)
    summary = estimate_multi(inst, opt, seeds=[0, 1, 2],
                             params=fast_est(width_threshold=10 ** 6))
    assert summary["nodes"]["min"] <= summary["nodes"]["mean"] <= summary["nodes"]["max"]
    assert len(summary["reports"]) == 3
    assert summary["seeds"] == [0, 1, 2]


def test_root_group_computed_once(monkeypatch):
    from symbb import subproblem
    rng = np.random.default_rng(6)
    inst = random_bqop(rng, 16, 8)
    full = []

    def counting(B, inner=subproblem.automorphisms):
        full.append(B.shape[0] == inst.n)
        return inner(B)

    monkeypatch.setattr(subproblem, "automorphisms", counting)
    estimate_multi(inst, brute_optimum(inst), seeds=[0, 1, 2],
                   params=fast_est(width_threshold=10 ** 6))
    assert sum(full) == 1 and len(full) > 1


class TestAudit:
    """An estimate bounds and branches its nodes through the tree engine, so
    ``audited`` checks them as it checks a solve's."""

    SUITE = EstParams(leaf_threshold=8, leaf_band=3, workers=2,
                      nb=NbParams(apg=ApgParams(rel_tol=1e-9, max_iter=3000)))

    def test_soundness_estimates_pass(self):
        # At the default width no level of these trees is sampled, so every
        # node is bounded and every survivor branched under the checks.
        for i in range(40):
            inst = soundness_instance(i)
            with audited():
                report = estimate(inst, brute_optimum(inst), self.SUITE)
            assert not report.sampled, i

    def test_invalid_bound_caught(self, monkeypatch):
        # With two workers the check fails in a pool thread; the pool's map
        # raises it in the caller.
        real = bb.nb_bound

        def inflated(prob, target, params):
            res = real(prob, target, params)
            return dataclasses.replace(res, a=res.a + 10 ** 6)

        monkeypatch.setattr(bb, "nb_bound", inflated)
        inst = random_bqop(np.random.default_rng(0), 8, 4)
        with audited(), pytest.raises(AssertionError, match="invalid bound"):
            estimate(inst, brute_optimum(inst), fast_est(workers=2))


class TestSharedMemo:
    """estimate_multi decides each distinct node once, and reports what
    separate estimate calls report."""

    TIMING = ("estimated_time_seconds",)
    SUITE_NB = NbParams(apg=ApgParams(rel_tol=1e-9, max_iter=3000))
    # One node sampled from every two-node level: seeds 3 and 4 bound the
    # same nodes on the first three levels, then part; only seed 3 refutes.
    TORUS_PARAMS = EstParams(width_threshold=2, sample_cutoff=2, sample_size=1,
                             nb=FAST_NB)
    TORUS_TARGET = 170

    @staticmethod
    def torus():
        return BqopInstance(n=25, B=torus_matrix(5).astype(np.int64), m=9)

    def assert_matches_separate(self, inst, target, seeds, params):
        summary = estimate_multi(inst, target, seeds, params)
        separate = [estimate(inst, target, params, seed=s).to_json_obj()
                    for s in seeds]
        for shared, alone in zip(summary["reports"], separate, strict=True):
            for key in self.TIMING:
                del shared[key], alone[key]
            assert shared == alone
        totals = [r["estimated_total_nodes"] for r in separate]
        assert summary["nodes"] == {"min": min(totals), "mean": float(np.mean(totals)),
                                    "max": max(totals)}
        return summary

    @pytest.mark.parametrize("width", [1000, 2])
    def test_soundness_stream_matches_separate_calls(self, width):
        params = EstParams(leaf_threshold=8, leaf_band=3, nb=self.SUITE_NB,
                           width_threshold=width, sample_cutoff=2, sample_size=1)
        for i in range(12):
            inst = soundness_instance(i)
            self.assert_matches_separate(inst, brute_optimum(inst), [0, 1, 2], params)

    def test_torus_matches_separate_calls(self):
        summary = self.assert_matches_separate(self.torus(), self.TORUS_TARGET, [3, 4],
                                               self.TORUS_PARAMS)
        assert [r["target_refuted"] for r in summary["reports"]] == [True, False]

    @staticmethod
    def count_bounds(monkeypatch):
        """The fix sets of the subproblems the engine assembles, one per
        bound."""
        bounded = []
        real = bb.assemble

        def counting(sub, *args):
            bounded.append(sub.fix)
            return real(sub, *args)

        monkeypatch.setattr(bb, "assemble", counting)
        return bounded

    def test_each_distinct_node_bounded_once(self, monkeypatch):
        inst, seeds = self.torus(), [3, 4]
        bounded = self.count_bounds(monkeypatch)
        for s in seeds:
            estimate(inst, self.TORUS_TARGET, self.TORUS_PARAMS, seed=s)
        distinct = set(bounded)
        assert len(bounded) > len(distinct)
        bounded.clear()
        estimate_multi(inst, self.TORUS_TARGET, seeds, self.TORUS_PARAMS)
        assert len(bounded) == len(distinct)
        assert set(bounded) == distinct

    def test_memo_does_not_outlive_the_call(self, monkeypatch):
        inst = self.torus()
        bounded = self.count_bounds(monkeypatch)
        estimate_multi(inst, self.TORUS_TARGET, [3, 4], self.TORUS_PARAMS)
        first = len(bounded)
        bounded.clear()
        estimate_multi(inst, self.TORUS_TARGET, [3, 4], self.TORUS_PARAMS)
        assert len(bounded) == first > 0


class TestTimePricing:
    """The estimated time prices each level by its own bound seconds, under a
    clock that advances one second per bound."""

    @pytest.fixture
    def clock(self, monkeypatch):
        """The bounds the engine makes; each takes exactly 1 s."""
        now = [0.0]
        real = bb.nb_bound

        def bound(*args):
            now[0] += 1.0
            return real(*args)

        monkeypatch.setattr(bb, "nb_bound", bound)
        monkeypatch.setattr(bb, "time", types.SimpleNamespace(monotonic=lambda: now[0]))
        return now

    def test_full_width_counts_each_bound_once(self, clock):
        # 23 nodes, of which 20 are bounded: the root, the leaves and the
        # infeasible nodes cost nothing.
        report = estimate(TestSharedMemo.torus(), 160,
                          EstParams(width_threshold=10 ** 6, nb=FAST_NB))
        assert not report.sampled and report.estimated_total_nodes == 23
        assert clock[0] == 20
        assert report.estimated_time_seconds == 20.0
        assert "mean_node_seconds" not in report.to_json_obj()

    def test_shared_memo_matches_separate_calls(self, clock):
        inst, target, params = (TestSharedMemo.torus(), TestSharedMemo.TORUS_TARGET,
                                TestSharedMemo.TORUS_PARAMS)
        summary = estimate_multi(inst, target, [3, 4], params)
        separate = [estimate(inst, target, params, seed=s).to_json_obj() for s in (3, 4)]
        assert summary["reports"] == separate
        assert all(r["sampled"] for r in separate)
