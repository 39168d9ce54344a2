"""Acceptance gate: one test per acceptance criterion, one reported line each.

Criteria that depend on the tai256c benchmark files look for ``tai256c.dat``
(and ``tai256c.sln`` for the best-known solution) in ``data/`` under the
repository root, or in the directory named by ``SYMBB_DATA_DIR``.  Without the
files those criteria are skipped; a fetch helper lives in
``scripts/fetch_qaplib.py``.  The full tai256c target run (criterion 7) is an
extended, multi-day computation and additionally requires
``SYMBB_EXTENDED=1``.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from symbb.bb import BbParams, solve_target
from symbb.dnn import ApgParams, NbParams, assemble, cone_distance, nb_bound
from symbb.estimator import EstParams, estimate
from symbb.instance import parse_qaplib, qap_to_bqop
from symbb.subproblem import FixSets, reduce, subgroup
from symbb.symmetry import automorphisms, orbits
from tests.conftest import (alternating_projection_distance, brute_optimum,
                            expand_solution, parse_solution, planted_bqop,
                            random_bqop, soundness_instance)

BEST_KNOWN = 44_759_294


def _data_dir() -> Path:
    env = os.environ.get("SYMBB_DATA_DIR")
    if env:
        return Path(env)
    return Path(__file__).resolve().parent.parent / "data"


def _tai256c():
    path = _data_dir() / "tai256c.dat"
    if not path.exists():
        pytest.skip(f"tai256c.dat not found in {path.parent} "
                    "(run scripts/fetch_qaplib.py)")
    return qap_to_bqop(parse_qaplib(path.read_text()))


def _report(criterion: int, text: str):
    print(f"\nACCEPTANCE {criterion}: PASS — {text}")


class TestCriterion1:
    def test_group_order_2048(self):
        inst = _tai256c()
        group = automorphisms(inst.B)
        assert group.order == 2048
        _report(1, "tai256c automorphism group has order 2048")


class TestCriterion2:
    def test_orbit_table_after_fixing_variable_1(self):
        inst = _tai256c()
        sub = reduce(inst, FixSets(i0=(), i1=(0,)))
        grp = subgroup(sub)
        orbs = orbits(grp)
        assert len(orbs) == 44
        sizes = sorted(o.size for o in orbs)
        assert sizes == [1, 2] + [4] * 21 + [8] * 21
        from symbb.bb import orbit_scores
        by_members = {tuple(i + 1 for i in o.members): s for o, s in orbit_scores(sub)}
        assert by_members[(2, 16, 17, 241)] == pytest.approx(52_655_297.0, abs=0.05)
        assert by_members[(137,)] == pytest.approx(52_481_773.0, abs=0.05)
        _report(2, "44 orbits with the documented size multiset and scores")


class TestCriterion3:
    def test_root_lagrangian_bound(self):
        inst = _tai256c()
        sub = reduce(inst, FixSets(i0=(), i1=(0,)))
        prob = assemble(sub, 1e8)
        res = nb_bound(prob, None, NbParams())
        lb = res.a + sub.offset
        assert abs(lb - 43_881_304) <= 0.005 * 43_881_304
        assert lb <= BEST_KNOWN
        _report(3, f"root bound {lb:.0f} within 0.5% of 43,881,304")


class TestCriterion4:
    def test_best_known_solution_expansion(self):
        inst = _tai256c()
        sln = _data_dir() / "tai256c.sln"
        if not sln.exists():
            pytest.skip("tai256c.sln (best-known solution) not found")
        x = parse_solution(sln.read_text(), inst.n)
        group = automorphisms(inst.B)
        images = expand_solution(group, x)
        assert len(images) == 1024
        from symbb.instance import objective
        assert all(objective(inst, im) == BEST_KNOWN for im in images)
        _report(4, "best-known solution expands to 1024 optima at 44,759,294")


class TestCriterion5:
    def test_soundness_suite(self):
        params = BbParams(
            leaf_threshold=8, leaf_band=3, audit=True, workers=2,
            nb=NbParams(apg=ApgParams(rel_tol=1e-9, max_iter=3000)))
        for i in range(200):
            inst = soundness_instance(i)
            n, m = inst.n, inst.m
            opt = brute_optimum(inst)
            proved = solve_target(inst, opt, params)
            assert proved.outcome == "Proved", (i, n, m)
            refuted = solve_target(inst, opt + 1, params)
            assert refuted.outcome == "Refuted", (i, n, m)
            from symbb.instance import objective
            assert objective(inst, refuted.witness) == refuted.witness_value
            assert refuted.witness_value < opt + 1
        _report(5, "200 audited instances: Proved at optimum, Refuted above, "
                   "all bound/merge/branch audits clean")


class TestCriterion6:
    def test_degenerate_exactness(self):
        rng = np.random.default_rng(60)
        inst = random_bqop(rng, 8, 4)
        opt = brute_optimum(inst)
        bb_params = BbParams(leaf_threshold=4, leaf_band=2, iso_pruning=False,
                             nb=NbParams(apg=ApgParams(rel_tol=1e-10,
                                                       max_iter=4000)))
        exact = solve_target(inst, opt, bb_params).node_count
        est_params = EstParams(leaf_threshold=4, leaf_band=2,
                               width_threshold=10 ** 6, nb=bb_params.nb)
        report = estimate(inst, opt, est_params)
        assert report.estimated_total_nodes == exact
        _report(6, f"degenerate estimator reproduces the exact {exact}-node tree")

    def test_sampled_mean_within_factor_two(self):
        rng = np.random.default_rng(61)
        inst = planted_bqop(rng, blocks=3, block_size=3, m=4)
        opt = brute_optimum(inst)
        nb = NbParams(apg=ApgParams(rel_tol=1e-10, max_iter=4000))
        exact = solve_target(
            inst, opt, BbParams(leaf_threshold=4, leaf_band=2,
                                iso_pruning=False, nb=nb)).node_count
        params = EstParams(leaf_threshold=4, leaf_band=2, width_threshold=3,
                           sample_cutoff=4, sample_size=3, nb=nb)
        totals = [estimate(inst, opt, params, seed=s).estimated_total_nodes
                  for s in range(20)]
        mean = float(np.mean(totals))
        assert exact / 2 <= mean <= exact * 2
        _report(6, f"20-seed estimator mean {mean:.1f} within factor 2 "
                   f"of the exact {exact} nodes")


class TestCriterion7:
    @pytest.mark.skipif(os.environ.get("SYMBB_EXTENDED") != "1",
                        reason="extended multi-day run; set SYMBB_EXTENDED=1")
    def test_full_target_run(self):
        inst = _tai256c()
        cert = solve_target(inst, 44_100_000, BbParams(workers=os.cpu_count()))
        assert cert.outcome == "Proved"
        assert abs(cert.node_count - 11_594) <= 0.3 * 11_594
        no_iso = solve_target(inst, 44_100_000,
                              BbParams(workers=os.cpu_count(),
                                       iso_pruning=False))
        assert abs(no_iso.node_count - 23_510) <= 0.3 * 23_510
        _report(7, "tai256c target 44,100,000 proved within node tolerances")


class TestCriterion8:
    def test_cone_distance_oracle_equivalence(self):
        rng = np.random.default_rng(80)
        for _ in range(50):
            d = int(rng.integers(2, 8))
            M = rng.normal(0, 3, (d, d))
            M = M + M.T
            res = cone_distance(M)
            oracle, converged = alternating_projection_distance(M)
            assert converged and abs(res.g - oracle) <= 1e-6
        _report(8, "cone distance matches the alternating-projection oracle "
                   "on 50 matrices to 1e-6")

    def test_derivative_matches_finite_differences(self):
        rng = np.random.default_rng(81)
        checked = 0
        while checked < 20:
            d = int(rng.integers(3, 8))
            M0 = rng.normal(0, 2, (d, d))
            M0 = M0 + M0.T
            c = d - 1
            y = float(np.trace(M0)) + d

            def g_at(yy):
                M = M0.copy()
                M[c, c] -= yy
                return cone_distance(M)

            res = g_at(y)
            if res.g < 1e-6:
                continue
            h = 1e-5 * max(1.0, abs(y))
            fd = (g_at(y + h).g - g_at(y - h).g) / (2 * h)
            if abs(fd) < 1e-8:
                continue
            assert res.gprime == pytest.approx(fd, rel=1e-3)
            checked += 1
        _report(8, "derivative matches centered finite differences at 20 "
                   "points to 1e-3 relative")
