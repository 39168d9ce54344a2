"""Sampled-subtree tree-size estimation."""

import numpy as np
import pytest

from symbb.bb import BbParams, solve_target
from symbb.dnn import ApgParams, NbParams
from symbb.estimator import EstParams, _sample_count, estimate, estimate_multi
from tests.conftest import brute_optimum, planted_bqop, random_bqop

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

    def test_narrow_level_taken_whole(self):
        assert _sample_count(300, EstParams()) == 300

    def test_boundary(self):
        assert _sample_count(500, EstParams()) == 100
        assert _sample_count(499, EstParams()) == 499


class TestDegenerateExactness:
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
    from symbb import estimator, subproblem
    rng = np.random.default_rng(6)
    inst = random_bqop(rng, 8, 4)
    full = []
    for mod in (estimator, subproblem):
        def counting(B, inner=mod.automorphisms):
            full.append(B.shape[0] == inst.n)
            return inner(B)
        monkeypatch.setattr(mod, "automorphisms", counting)
    estimate_multi(inst, brute_optimum(inst), seeds=[0, 1, 2],
                   params=fast_est(width_threshold=10 ** 6))
    assert sum(full) == 1 and len(full) > 1
