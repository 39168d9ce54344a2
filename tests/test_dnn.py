"""Lifted-relaxation assembly, cone distance, Newton bracketing."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from symbb import bb, dnn, subproblem
from symbb.bb import BbParams, TreeParams, solve_target
from symbb.dnn import (DPRIME_FLOOR, STEP_MARGIN, ApgParams, ConeDistanceResult,
                       NbParams, _safe_ceil, assemble, cone_distance,
                       initial_upper, nb_bound)
from symbb.estimator import EstParams
from symbb.instance import BqopInstance
from symbb.subproblem import FixSets, reduce, subgroup, swap_search
from symbb.symmetry import PermutationGroup, automorphisms
from tests.conftest import (alternating_projection_distance, brute_optimum,
                            brute_sub_optimum, lifted_form, penalty_value,
                            planted_bqop, random_bqop, soundness_instance,
                            torus_matrix, torus_symmetries)

FAST_NB = NbParams(apg=ApgParams(rel_tol=1e-10, max_iter=5000))
SUITE_NB = NbParams(apg=ApgParams(rel_tol=1e-9, max_iter=3000))


def open_sub(seed=0, n=8, m=4):
    rng = np.random.default_rng(seed)
    inst = random_bqop(rng, n, m)
    return reduce(inst, FixSets((), ()))


def suite_problems():
    """Targeted problems from soundness instances 0-11: two open subproblems
    of each, at the instance's optimum and one above."""
    for i in range(12):
        inst = soundness_instance(i)
        opt = brute_optimum(inst)
        for fix in (FixSets((), (0,)), FixSets((0,), (1,))):
            sub = reduce(inst, fix)
            if not sub.reduced_B.any() or not 0 < sub.residual_m < sub.ell:
                continue
            prob = assemble(sub, 1e8)
            yield prob, opt
            yield prob, opt + 1


def torus_root(k=6, m=11):
    """The node x_1 = 1 of the k x k torus and its stabiliser in the torus
    group, as image arrays on the reduced indices."""
    inst = BqopInstance(n=k * k, B=torus_matrix(k).astype(np.int64), m=m)
    stabiliser = [np.asarray(g)[1:] - 1 for g in torus_symmetries(k) if g[0] == 0]
    return reduce(inst, FixSets((), (0,))), stabiliser


def reynolds(elements, ell, rng):
    """A random symmetric matrix of order 2 ell + 1 averaged over the group
    of ``elements``, each lifted to (u, v, s): an invariant matrix."""
    d = 2 * ell + 1
    R = rng.normal(size=(d, d))
    R = R + R.T
    lifted = [np.concatenate([g, g + ell, [d - 1]]) for g in elements]
    return sum(R[np.ix_(g, g)] for g in lifted) / len(lifted)


def assert_block_step_exact(blocks, X):
    """The block negative part, f and lambda_min of X match the full ones to
    1e-10 relative."""
    lam_min, f, neg = blocks.negative_part(X)
    w, V = np.linalg.eigh(X)
    wneg = np.minimum(w, 0.0)
    full = (V * wneg) @ V.T
    assert wneg.min() < 0
    assert abs(lam_min - w[0]) <= 1e-10 * abs(w[0])
    assert f == pytest.approx(0.5 * float(wneg @ wneg), rel=1e-10)
    assert np.linalg.norm(neg - full) <= 1e-10 * np.linalg.norm(full)


def eig_slack(M):
    """The roundoff slack nb_bound subtracts from a minimum eigenvalue."""
    return 16.0 * M.shape[0] * np.finfo(float).eps * float(np.linalg.norm(M))


def nested_apg(**kwargs):
    return NbParams(apg=ApgParams(**kwargs))


class TestSettings:
    """Every settings dataclass refuses a bad value of its own fields when it
    is built, whoever builds it; the CLI only adds the dotted prefix."""

    @pytest.mark.parametrize("cls, name, value, rule", [
        *[(cls, name, value, "at least 1") for value in (0, -3)
          for cls, name in ((ApgParams, "max_iter"), (NbParams, "max_iter"),
                            (nested_apg, "max_iter"), (TreeParams, "workers"),
                            (BbParams, "workers"), (EstParams, "workers"),
                            (BbParams, "node_budget"), (EstParams, "width_threshold"),
                            (EstParams, "sample_size"), (EstParams, "depth_budget"))],
        *[(cls, name, value, "a non-negative finite number")
          for value in (-1e-6, math.nan, math.inf)
          for cls, name in ((ApgParams, "rel_tol"), (nested_apg, "rel_tol"),
                            (NbParams, "gap_tol"), (BbParams, "time_budget"))],
        *[(cls, "lambda_scale", value, "a positive finite number")
          for value in (0.0, -1.0, math.nan, math.inf)
          for cls in (TreeParams, BbParams, EstParams)],
    ])
    def test_bad_value_refused_when_built(self, cls, name, value, rule):
        with pytest.raises(ValueError) as exc:
            cls(**{name: value})
        assert str(exc.value) == f"{name} must be {rule}, not {value}"

    def test_edges_and_none_accepted(self):
        # The least good values, and None where a field may be None.
        BbParams(workers=1, lambda_scale=1e-300, node_budget=1, time_budget=0.0,
                 nb=NbParams(gap_tol=0.0, max_iter=1, apg=ApgParams(rel_tol=0.0,
                                                                    max_iter=1)))
        EstParams(width_threshold=1, sample_size=1, depth_budget=None)

    @pytest.mark.parametrize("cls, name, value, annotation", [
        (ApgParams, "max_iter", 2.5, "int"),
        (nested_apg, "max_iter", 2.5, "int"),
        (BbParams, "nb", {"gap_tol": 1}, "NbParams"),
        (NbParams, "apg", NbParams(), "ApgParams"),
        (EstParams, "sample_size", 1.5, "int"),
        (BbParams, "time_budget", True, "float | None"),
        (BbParams, "iso_pruning", "no", "bool"),
        (BbParams, "audit", 1, "bool"),
        (BbParams, "node_budget", "5", "int | None"),
        (TreeParams, "workers", True, "int"),
        (TreeParams, "lambda_scale", "1e8", "float"),
        (EstParams, "sample_cutoff", None, "int"),
        (NbParams, "gap_tol", [1e-6], "float"),
    ])
    def test_wrong_type_refused_when_built(self, cls, name, value, annotation):
        # The annotation is checked before the rule: the rules never see a
        # value of the wrong type.
        with pytest.raises(ValueError) as exc:
            cls(**{name: value})
        assert str(exc.value) == f"{name} must be {annotation}, not {value!r}"

    def test_numpy_numbers_accepted(self):
        # numpy integers are ints, numpy floats and any int are floats.
        params = BbParams(workers=np.int64(2), lambda_scale=np.float32(1e8),
                          leaf_threshold=np.uint8(8), node_budget=np.int32(5),
                          time_budget=3, nb=NbParams(gap_tol=np.float64(1e-6),
                                                     apg=ApgParams(max_iter=np.int16(9))))
        assert params.workers == 2 and params.nb.apg.max_iter == 9
        EstParams(depth_budget=np.int64(1), sample_cutoff=np.int8(3))


class TestAssemble:
    def test_order(self):
        sub = open_sub()
        prob = assemble(sub, 10.0)
        assert prob.q.shape == (2 * sub.ell + 1,) * 2

    def test_symmetric(self):
        prob = assemble(open_sub(), 3.5)
        assert np.array_equal(prob.q, prob.q.T)

    def test_closed_form_at_origin(self):
        # u = v = 0, s = 1: objective 0, penalty ell + b^2.
        sub = open_sub()
        prob = assemble(sub, 7.0)
        val = lifted_form(prob, np.zeros(sub.ell), np.zeros(sub.ell), 1.0)
        assert val == pytest.approx(prob.lam * (sub.ell + sub.residual_m ** 2))

    def test_matches_direct_penalty_evaluation(self):
        sub = open_sub(seed=3)
        prob = assemble(sub, 2.25)
        lam = prob.lam
        rng = np.random.default_rng(1)
        for _ in range(20):
            u = rng.uniform(0, 2, sub.ell)
            v = rng.uniform(0, 2, sub.ell)
            s = float(rng.uniform(0, 2))
            direct = float(u @ sub.reduced_B @ u) + \
                lam * penalty_value(u, v, s, sub.residual_m)
            assert lifted_form(prob, u, v, s) == pytest.approx(direct, rel=1e-10)

    def test_feasible_binary_point_recovers_objective(self):
        sub = open_sub(seed=5)
        prob = assemble(sub, 11.0)
        u = np.zeros(sub.ell)
        u[: sub.residual_m] = 1.0
        v = 1.0 - u
        val = lifted_form(prob, u, v, 1.0)
        assert val == pytest.approx(float(u @ sub.reduced_B @ u))

    def test_empty_free_set_rejected(self, bqop6):
        sub = reduce(bqop6, FixSets(i0=tuple(range(5)), i1=(5,)))
        with pytest.raises(ValueError):
            assemble(sub, 1.0)

    def test_nonpositive_lambda_rejected(self):
        with pytest.raises(ValueError):
            assemble(open_sub(), 0.0)


class TestPenaltyWeight:
    """The penalty weight assemble derives: lambda_scale / ||B(I0,I1)||."""

    def test_arithmetic(self):
        sub = open_sub()
        norm = float(np.linalg.norm(sub.reduced_B.astype(float)))
        assert assemble(sub, 1e8).lam == pytest.approx(1e8 / norm)

    def test_homogeneity(self):
        sub = open_sub()
        scaled = reduce(
            type(sub.inst)(n=sub.inst.n, B=3 * sub.inst.B, m=sub.inst.m),
            sub.fix)
        assert assemble(scaled, 1e8).lam == pytest.approx(assemble(sub, 1e8).lam / 3)

    def test_zero_matrix_rejected(self):
        inst = BqopInstance(n=4, B=np.zeros((4, 4), dtype=np.int64), m=2)
        with pytest.raises(ValueError, match="zero"):
            assemble(reduce(inst, FixSets((), ())), 1e8)


def test_initial_upper_exceeds_optimum():
    for seed in range(5):
        sub = open_sub(seed=seed)
        assert initial_upper(sub) > brute_sub_optimum(sub) - sub.offset


class TestConeDistance:
    def test_psd_matrix_inside(self):
        res = cone_distance(np.eye(4))
        assert res.g == pytest.approx(0.0, abs=1e-9)

    def test_negative_corner(self):
        # -H has a -1 diagonal entry; every cone element has nonnegative
        # diagonal, so the distance is exactly 1 (attained at Y = 0).
        M = np.zeros((3, 3))
        M[2, 2] = -1.0
        res = cone_distance(M)
        assert res.g == pytest.approx(1.0, abs=1e-9)

    def test_matches_alternating_projections(self):
        rng = np.random.default_rng(20)
        for _ in range(15):
            d = int(rng.integers(3, 8))
            M = rng.normal(0, 3, (d, d))
            M = M + M.T
            res = cone_distance(M)
            oracle, converged = alternating_projection_distance(M)
            assert converged
            assert res.g == pytest.approx(oracle, abs=1e-7)

    def test_decomposition_consistency(self):
        rng = np.random.default_rng(21)
        M = rng.normal(0, 2, (6, 6))
        M = M + M.T
        res = cone_distance(M)
        assert np.all(res.y2 >= 0)
        w, V = np.linalg.eigh(M - res.y2)
        y1 = (V * np.maximum(w, 0.0)) @ V.T
        assert np.linalg.norm(M - y1 - res.y2) == pytest.approx(res.g, abs=1e-8)
        assert np.min(np.linalg.eigvalsh(y1)) >= -1e-9 * max(1, np.linalg.norm(M))
        assert res.min_eig == pytest.approx(w[0])

    def test_derivative_matches_finite_differences(self):
        rng = np.random.default_rng(22)
        checked = 0
        while checked < 8:
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

    @pytest.mark.xfail(strict=True, reason="convergence is tested at the momentum "
                       "point, which may be infeasible (ROADMAP open item)")
    def test_root_lift_not_above_alternating_projections(self):
        # A capped alternating-projection run is only an upper bound on the
        # distance (588.5 after 20000 iterations, 131.5 after 200000, both
        # unconverged).  A converged APG solve may not report more; it
        # reports 4562.5 after 8 iterations.
        sub = reduce(soundness_instance(0), FixSets((), (0,)))
        prob = assemble(sub, 1e8)
        M = prob.q.copy()
        M[-1, -1] -= initial_upper(prob.sub)
        res = cone_distance(M)
        upper, _ = alternating_projection_distance(M, max_iter=20_000)
        assert not res.converged or res.g <= upper

    def test_warm_start_agrees(self):
        rng = np.random.default_rng(23)
        M = rng.normal(0, 2, (6, 6))
        M = M + M.T
        cold = cone_distance(M)
        warm = cone_distance(M, warm_start=cold.y2 + 0.01)
        assert warm.g == pytest.approx(cold.g, abs=1e-7)


class TestBlockBasis:
    """The basis of the node group's commutant: the block step matches the
    full eigendecomposition on invariant matrices."""

    def test_torus_root_stabiliser(self, monkeypatch):
        sub, stabiliser = torus_root()
        group = subgroup(sub)
        assert group.order == len(stabiliser) == 8
        # The basis is built by SVD: every eigh stays in APG.
        monkeypatch.setattr(np.linalg, "eigh", None)
        blocks = dnn.block_basis(group)
        monkeypatch.undo()
        # D4 has four one-dimensional and one two-dimensional real irreducible.
        assert blocks.families == ((19, 1), (16, 2), (12, 1), (6, 1), (2, 1))
        rng = np.random.default_rng(0)
        for _ in range(3):
            assert_block_step_exact(blocks, reynolds(stabiliser, sub.ell, rng))
        prob = assemble(sub, 1e8)
        M = prob.q.copy()
        M[-1, -1] -= initial_upper(prob.sub)
        assert_block_step_exact(blocks, M)

    def test_chiral_cyclic_group_keeps_complex_components(self):
        # Two rings of six turned together, with no reflection: the cyclic
        # group C6, whose two-dimensional irreducibles are of complex type.
        inst = planted_bqop(np.random.default_rng(3), 2, 6, 5)
        group = automorphisms(inst.B)
        assert group.order == 6
        blocks = dnn.block_basis(group)
        assert blocks.families == ((8, 1), (8, 1), (5, 1), (4, 1))
        rotation = np.arange(12).reshape(2, 6)
        elements = [np.roll(rotation, t, axis=1).ravel() for t in range(6)]
        rng = np.random.default_rng(1)
        for _ in range(3):
            assert_block_step_exact(blocks, reynolds(elements, inst.n, rng))

    def test_symmetric_group_without_element_listing(self):
        ell = 30
        B = np.full((ell, ell), 3, dtype=np.int64)
        np.fill_diagonal(B, 0)
        group = automorphisms(B)
        assert group.order == math.factorial(ell)
        blocks = dnn.block_basis(group)
        assert "elements" not in vars(group)
        assert blocks.families == ((3, 1), (2, ell - 1))
        # The invariant matrices: a I + b (J - I) on each of the four
        # (u, v) blocks, constant rows to and from s, any corner.
        rng = np.random.default_rng(2)
        d = 2 * ell + 1
        for _ in range(3):
            X = np.empty((d, d))
            for rows in (slice(0, ell), slice(ell, 2 * ell)):
                for cols in (slice(0, ell), slice(ell, 2 * ell)):
                    a, b = rng.normal(size=2)
                    X[rows, cols] = b + (a - b) * np.eye(ell)
                X[rows, -1] = rng.normal()
                X[-1, rows] = rng.normal()
            X[-1, -1] = rng.normal()
            assert_block_step_exact(blocks, X + X.T)

    def test_trivial_group_gives_no_basis(self, monkeypatch):
        sub = open_sub(seed=0, n=24, m=8)
        group = subgroup(sub)
        assert group.order == 1
        assert dnn.block_basis(group) is None
        short = NbParams(max_iter=1, apg=ApgParams(max_iter=5))
        res = nb_bound(assemble(sub, 1e8), None, short)
        assert res.iterations == 1 and res.blocks is None
        # Below the crossover the node group is never computed.
        monkeypatch.setattr(subproblem, "subgroup", None)
        small = open_sub(seed=0, n=8, m=4)
        assert 2 * small.ell + 1 < dnn.BLOCK_MIN_ORDER
        res = nb_bound(assemble(small, 1e8), None, short)
        assert res.iterations == 1 and res.blocks is None

    def test_involution_gives_no_basis_before_building_one(self, monkeypatch):
        # B is invariant under i -> n - 1 - i: 11 point orbits, so the trivial
        # family alone has 23 > 45 / 2 rows of the lifted order 45.
        rng = np.random.default_rng(4)
        n = 22
        R = rng.integers(0, 50, (n, n))
        B = R + R.T + (R + R.T)[::-1, ::-1]
        np.fill_diagonal(B, 0)
        sub = reduce(BqopInstance(n=n, B=B.astype(np.int64), m=7), FixSets((), ()))
        assert sub.group.order == 2 and 2 * sub.ell + 1 >= dnn.BLOCK_MIN_ORDER
        monkeypatch.setattr(dnn, "_families", None)
        assert dnn.block_basis(sub.group) is None
        short = NbParams(max_iter=1, apg=ApgParams(max_iter=5))
        res = nb_bound(assemble(sub, 1e8), None, short)
        assert res.iterations == 1 and res.blocks is None

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_large_family_gives_no_basis_after_building_one(self, monkeypatch, k):
        # A 3-cycle turning k triples together: with 2k + 1 orbits on
        # (u, v, s) the basis is built, but its complex-type irreducibles
        # stay one family of 4k rows, above half the lifted order 6k + 1.
        ell = 3 * k
        triples = np.arange(ell).reshape(k, 3)
        group = PermutationGroup(ell, [[np.roll(triples, t, axis=1).ravel()
                                        for t in range(3)]])
        built = []
        real = dnn._families

        def recording(*args):
            built.append(real(*args))
            return built[-1]

        monkeypatch.setattr(dnn, "_families", recording)
        assert dnn.block_basis(group) is None
        assert [(c.shape[2], c.shape[1]) for c in built[0]] == [(4 * k, 1), (2 * k + 1, 1)]

    def test_untargeted_bound_never_searches_completions(self, monkeypatch):
        monkeypatch.setattr(dnn, "swap_search", None)
        prob = assemble(open_sub(seed=1), 1e8)
        assert nb_bound(prob, None, FAST_NB).status == "Converged"

    def test_completion_check_builds_no_group(self, monkeypatch):
        monkeypatch.setattr(subproblem, "subgroup", None)
        sub, _ = torus_root()
        prob = assemble(sub, 1e8)
        res = nb_bound(prob, swap_search(sub)[0] + sub.offset + 1, FAST_NB)
        assert (res.status, res.iterations, res.blocks) == ("Branchable", 0, None)


class TestBlockPathAudit:
    """Audited solves with every nontrivial node group on the block path."""

    @pytest.mark.parametrize("name, inst, leaf", [
        ("soundness-3", soundness_instance(3), 8),
        ("soundness-7", soundness_instance(7), 8),
        ("planted-2x8", planted_bqop(np.random.default_rng(7), 2, 8, 7), 4)])
    def test_audited_solves(self, monkeypatch, name, inst, leaf):
        params = BbParams(leaf_threshold=leaf, leaf_band=min(3, leaf // 2),
                          nb=SUITE_NB)
        opt = brute_optimum(inst)
        full = [solve_target(inst, t, params).to_json_obj() for t in (opt, opt + 1)]
        solves = []
        real = dnn.cone_distance

        def recording(M, *args, **kwargs):
            solves.append(kwargs.get("blocks"))
            return real(M, *args, **kwargs)

        monkeypatch.setattr(dnn, "BLOCK_MIN_ORDER", 0)
        monkeypatch.setattr(dnn, "cone_distance", recording)
        audited = dataclasses.replace(params, audit=True)
        certs = [solve_target(inst, t, audited).to_json_obj() for t in (opt, opt + 1)]
        assert [c["outcome"] for c in certs] == ["Proved", "Refuted"]
        assert certs[1]["witness_value"] == opt
        # The planted instance's proof bounds nodes on blocks; the group
        # of every other node is trivial or its largest block above d / 2.
        assert any(b is not None for b in solves) == (name == "planted-2x8")
        for cert, ref in zip(certs, full):
            cert.pop("timing"), ref.pop("timing")
            assert cert == ref


class TestWarmStart:
    """A child's first APG solve starts from its parent's last Y2, restricted
    to the child's (u, v, s) indices and rescaled to the child's lam."""

    TARGET = 160

    @staticmethod
    def torus_parent(monkeypatch):
        """The depth-1 node x_1 = 1 of the k = 5 torus, its lifted problem,
        its bound at 160 and the last Y2 that cone_distance returned."""
        last = []
        real = dnn.cone_distance

        def recording(M, *args, **kwargs):
            res = real(M, *args, **kwargs)
            last[:] = [res.y2]
            return res

        monkeypatch.setattr(dnn, "cone_distance", recording)
        inst = BqopInstance(n=25, B=torus_matrix(5).astype(np.int64), m=9)
        sub = reduce(inst, FixSets((), (0,)))
        prob = assemble(sub, 1e8)
        res = nb_bound(prob, TestWarmStart.TARGET, FAST_NB)
        monkeypatch.undo()
        assert res.status == "Branchable"
        return sub, prob, res, last[0]

    def test_restricted_and_rescaled(self, monkeypatch):
        sub, prob, res, y2 = self.torus_parent(monkeypatch)
        assert np.array_equal(res.y2, y2 / prob.lam)
        ell = sub.ell
        for fix in bb.branch_node(sub):
            child = reduce(sub.inst, fix)
            warm = assemble(child, 1e8, (sub.free, res.y2))
            at = [sub.free.index(i) for i in child.free]
            idx = [*at, *(k + ell for k in at), 2 * ell]
            expected = y2[np.ix_(idx, idx)] * (warm.lam / prob.lam)
            assert np.allclose(warm.warm, expected, rtol=1e-12, atol=0.0)
            assert np.all(warm.warm >= 0) and warm.warm.any()
            assert assemble(child, 1e8).warm is None
            with pytest.raises(ValueError, match="ancestor"):
                assemble(sub, 1e8, (child.free, warm.warm))

    def test_block_path_start_is_invariant(self, monkeypatch):
        sub, _, res, _ = self.torus_parent(monkeypatch)
        child = reduce(sub.inst, FixSets((), (0, 1)))
        prob = assemble(child, 1e8, (sub.free, res.y2))
        starts = []
        real = dnn.cone_distance

        def recording(M, *args, **kwargs):
            starts.append(kwargs["warm_start"])
            return real(M, *args, **kwargs)

        monkeypatch.setattr(dnn, "cone_distance", recording)
        short = NbParams(max_iter=2, apg=ApgParams(max_iter=50))
        child_res = nb_bound(prob, self.TARGET, short)
        assert child_res.blocks is not None and child.group.order == 4
        ell, d = child.ell, 2 * child.ell + 1

        def invariant(W):
            return all(np.allclose(W[np.ix_(g, g)], W, rtol=0.0,
                                   atol=1e-12 * np.abs(W).max())
                       for g in (np.r_[e, e + ell, d - 1] for e in child.group.elements))

        # The parent's group is not the child's: the restriction alone is
        # not invariant, and the orbital mean makes it so.
        assert not invariant(prob.warm)
        W = starts[0]
        assert np.all(W >= 0) and W.any() and invariant(W)


class TestSafeCeil:
    def test_plain(self):
        assert _safe_ceil(2.3) == 3
        assert _safe_ceil(-2.3) == -2

    def test_near_integer_from_above(self):
        assert _safe_ceil(5.0 + 1e-12) == 5

    def test_clearly_above_integer(self):
        assert _safe_ceil(5.1) == 6


class TestNbBound:
    def test_bracket_validity_and_tightness(self):
        for seed in range(4):
            sub = open_sub(seed=seed, n=8, m=4)
            opt = brute_sub_optimum(sub)
            prob = assemble(sub, 1e8)
            res = nb_bound(prob, None, FAST_NB)
            assert res.a + sub.offset <= opt + 1e-6
            assert res.status == "Converged"
            # Lag-DNN at the default weight is tight on these instances.
            assert res.a + sub.offset >= opt - 0.05 * max(1, abs(opt))

    def test_monotone_brackets(self):
        sub = open_sub(seed=7)
        prob = assemble(sub, 1e8)
        res = nb_bound(prob, None, FAST_NB)
        a_seq = [rec["a"] for rec in res.trace]
        b_seq = [rec["b"] for rec in res.trace]
        assert all(x <= y + 1e-12 for x, y in zip(a_seq, a_seq[1:]))
        assert all(x >= y - 1e-12 for x, y in zip(b_seq, b_seq[1:]))
        assert all(rec["a"] <= rec["b"] for rec in res.trace)

    def test_pruned_at_low_target(self):
        sub = open_sub(seed=1)
        prob = assemble(sub, 1e8)
        res = nb_bound(prob, -10 ** 9, FAST_NB)
        assert res.status == "Pruned"
        assert res.iterations == 1

    def test_branchable_at_unreachable_target(self):
        # A completion below the target ends the node before any APG solve.
        sub = open_sub(seed=1)
        prob = assemble(sub, 1e8)
        ub = initial_upper(sub)
        res = nb_bound(prob, int(ub + 10 ** 6), FAST_NB)
        assert res.status == "Branchable"
        assert res.iterations == 0 and res.trace == ()
        assert res.a == -math.inf and res.lb_integer is None
        assert res.b == swap_search(sub)[0]

    def test_completion_below_target_skips_every_solve(self, monkeypatch):
        calls = []
        real = dnn.cone_distance

        def recording(M, *args, **kwargs):
            calls.append(M)
            return real(M, *args, **kwargs)

        monkeypatch.setattr(dnn, "cone_distance", recording)
        for seed in range(6):
            prob = assemble(open_sub(seed=seed), 1e8)
            level = swap_search(prob.sub)[0] + prob.sub.offset
            res = nb_bound(prob, level + 1, FAST_NB)
            assert (res.status, res.iterations, len(calls)) == ("Branchable", 0, 0)
            res = nb_bound(prob, level, FAST_NB)
            assert res.iterations == len(calls) > 0
            calls.clear()

    def test_integer_bound_matches_optimum(self):
        sub = open_sub(seed=11, n=10, m=5)
        opt = brute_sub_optimum(sub)
        prob = assemble(sub, 1e8)
        res = nb_bound(prob, None, FAST_NB)
        assert res.lb_integer is not None
        assert res.lb_integer <= opt

    def test_lambda_monotonicity(self):
        sub = open_sub(seed=2)
        finals = []
        for scale in (1e2, 1e4, 1e6, 1e8):
            prob = assemble(sub, scale)
            finals.append(nb_bound(prob, None, FAST_NB).a)
        for lo, hi in zip(finals, finals[1:]):
            assert hi >= lo - 1e-6 * max(1.0, abs(hi))

    def test_g_nonnegative_and_zero_below_a(self):
        sub = open_sub(seed=4)
        prob = assemble(sub, 1e8)
        res = nb_bound(prob, None, FAST_NB)
        M = prob.q.copy()
        M[-1, -1] -= res.a - 5.0
        below = cone_distance(M, FAST_NB.apg)
        assert below.g <= 1e-6 * max(1.0, np.linalg.norm(M))

    def test_g_convex_above_bracket(self):
        sub = open_sub(seed=4)
        prob = assemble(sub, 1e8)
        res = nb_bound(prob, None, FAST_NB)

        def g_at(y):
            M = prob.q.copy()
            M[-1, -1] -= y
            return cone_distance(M, FAST_NB.apg).g

        ys = res.b + np.array([1.0, 3.0, 5.0]) * max(1.0, abs(res.b)) * 0.01
        mid = g_at(ys[1])
        assert mid <= 0.5 * (g_at(ys[0]) + g_at(ys[2])) + 1e-6


class TestLiftNorm:
    def test_feasible_lift_norm_objective_and_bound(self):
        rng = np.random.default_rng(12)
        inst = random_bqop(rng, 9, 4)
        sub = reduce(inst, FixSets(i0=(3,), i1=(0,)))
        prob = assemble(sub, 1e8)
        lam = prob.lam
        C = sub.reduced_B
        for support in itertools.combinations(range(sub.ell), sub.residual_m):
            u = np.zeros(sub.ell)
            u[list(support)] = 1.0
            z = np.concatenate([u, 1.0 - u, [1.0]])
            assert float(z @ z) == sub.ell + 1
            assert lifted_form(prob, u, 1.0 - u, 1.0) == pytest.approx(
                float(u @ C @ u), abs=1e-12 * lam * z.size ** 2)
        res = nb_bound(prob, None, FAST_NB)
        assert all(rec["apg_stop"] != "target" for rec in res.trace)
        assert res.a + sub.offset <= brute_sub_optimum(sub)


class TestTargetExit:
    def test_random_matrices(self):
        rng = np.random.default_rng(24)
        stopped = 0
        for _ in range(30):
            d = int(rng.integers(3, 10))
            M = rng.normal(0, 3, (d, d))
            M = M + M.T
            full = cone_distance(M)
            eig_target = full.min_eig - 0.1 * abs(full.min_eig)
            res = cone_distance(M, eig_target=eig_target)
            assert res.iterations <= full.iterations
            if res.stop != "target":
                continue
            stopped += 1
            assert not res.converged
            assert np.all(res.y2 >= 0)
            exact = np.linalg.eigvalsh(M - res.y2)[0]
            assert exact >= eig_target - eig_slack(M)
            assert res.min_eig >= eig_target - eig_slack(M)
        assert stopped >= 10

    def test_suite_subproblems(self, monkeypatch):
        calls = []
        real = dnn.cone_distance

        def recording(M, *args, **kwargs):
            res = real(M, *args, **kwargs)
            calls.append((M, kwargs.get("eig_target"), res))
            return res

        monkeypatch.setattr(dnn, "cone_distance", recording)
        exits = 0
        for prob, target in suite_problems():
            calls.clear()
            res = nb_bound(prob, target, SUITE_NB)
            stops = [rec["apg_stop"] for rec in res.trace]
            assert stops == [r.stop for _, _, r in calls]
            if "target" in stops:
                exits += 1
                assert res.status == "Pruned"
                assert stops.index("target") == len(stops) - 1
            for M, eig_target, r in calls:
                if r.stop != "target":
                    continue
                assert np.all(r.y2 >= 0)
                exact = np.linalg.eigvalsh(M - r.y2)[0]
                assert exact >= eig_target - eig_slack(M)
        assert exits > 0


class TestLandingExit:
    """A targeted nb_bound ends Branchable at the first new Newton point
    below the prune level, whether a Newton step or a bisection made it and
    whatever stopped the APG solve before it, without evaluating g there."""

    def test_bisection_point_below_prune_level(self, monkeypatch):
        """A solve with g' below DPRIME_FLOOR and a far below the prune level
        bisects toward a; the bisection point ends the node at once."""
        sub = open_sub(seed=1)
        prob = assemble(sub, 1e8)
        calls = []

        def flat(M, *args, **kwargs):
            calls.append(M)
            return ConeDistanceResult(g=1.0, gprime=0.5 * DPRIME_FLOOR,
                                      y2=np.zeros_like(M), min_eig=-1e6,
                                      stop="cap", iterations=1)

        monkeypatch.setattr(dnn, "cone_distance", flat)
        # No known completion is below this target, so the bound is solved.
        target = swap_search(sub)[0] + sub.offset
        y_init = initial_upper(sub)
        assert _safe_ceil(y_init + sub.offset) > target
        res = nb_bound(prob, target, FAST_NB)
        assert res.status == "Branchable"
        assert res.iterations == len(calls) == 1
        a = res.trace[0]["a"]
        assert _safe_ceil(a + sub.offset) < target
        assert res.b == 0.5 * (a + y_init)

    @staticmethod
    def landed(res):
        """Whether a Branchable node was decided at a point it never solved;
        a node the completion check decided solved none and did not land."""
        return res.status == "Branchable" and bool(res.trace) and \
            res.b < res.trace[-1]["y"]

    def test_suite_subproblems(self):
        landings = 0
        for prob, target in suite_problems():
            res = nb_bound(prob, target, SUITE_NB)
            assert res.iterations == len(res.trace)
            sub = prob.sub
            assert (res.iterations == 0) == (swap_search(sub)[0] + sub.offset < target)
            # Pruned is tested before Converged on the same a, so a targeted
            # Converged never carries a bound at the target.
            assert res.status != "Converged" or res.lb_integer < target
            if not self.landed(res):
                continue
            landings += 1
            assert nb_bound(prob, None, SUITE_NB).lb_integer < target
        assert landings > 0

    def test_torus_exit_count(self, monkeypatch):
        results = []
        real = bb.nb_bound

        def recording(prob, target, params):
            res = real(prob, target, params)
            results.append(res)
            return res

        monkeypatch.setattr(bb, "nb_bound", recording)
        inst = BqopInstance(n=25, B=torus_matrix(5).astype(np.int64), m=9)
        assert solve_target(inst, 160, BbParams(nb=FAST_NB)).outcome == "Proved"
        landings = [res for res in results if self.landed(res)]
        # Every node this proof branches on is decided by the Branchable check.
        branched = [res for res in results if res.status == "Branchable"]
        assert len(landings) == len(branched) == 10

    def test_suite_instance_without_capped_solve(self, monkeypatch):
        """Soundness instance 7 at its optimum: the capped APG solves once
        spent before a landing below the prune level are gone."""
        stops = []
        real = bb.nb_bound

        def recording(prob, target, params):
            res = real(prob, target, params)
            stops.extend(row["apg_stop"] for row in res.trace)
            return res

        monkeypatch.setattr(bb, "nb_bound", recording)
        inst = soundness_instance(7)
        params = BbParams(leaf_threshold=8, leaf_band=3, audit=True, workers=2,
                          nb=SUITE_NB)
        cert = solve_target(inst, -10, params)
        assert (cert.outcome, cert.node_count) == ("Proved", 9)
        assert stops and "cap" not in stops


class TestStepExit:
    """A targeted APG solve that has not pruned at its own y stops once the
    Newton step it feeds is settled and lands at least STEP_MARGIN above or
    below the prune level."""

    @pytest.fixture
    def solves(self, monkeypatch):
        """Every cone_distance call as (prune_step, result), after checking
        that it made one eigh per APG iteration plus one."""
        calls = []
        eighs = [0]
        real_eigh, real = np.linalg.eigh, dnn.cone_distance

        def counting_eigh(*args, **kwargs):
            eighs[0] += 1
            return real_eigh(*args, **kwargs)

        def recording(M, *args, **kwargs):
            before = eighs[0]
            res = real(M, *args, **kwargs)
            assert eighs[0] - before == res.iterations + 1
            calls.append((kwargs.get("prune_step"), res))
            return res

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(dnn, "cone_distance", recording)
        return calls

    @staticmethod
    def check_steps(prob, target, res, calls):
        """The step stops of one targeted nb_bound; returns how many landed
        above and below the prune level."""
        rows = res.trace
        assert [row["apg_stop"] for row in rows] == [r.stop for _, r in calls]
        offset = prob.sub.offset
        a_need = target - 1 - offset + 1e-8 * max(1.0, abs(target))
        above = below = 0
        for k, (prune_step, r) in enumerate(calls):
            y = rows[k]["y"]
            assert prune_step == pytest.approx(y - a_need)
            if r.stop != "step":
                continue
            assert np.all(r.y2 >= 0)
            assert rows[k]["b"] == (rows[k - 1]["b"] if k else initial_upper(prob.sub))
            tol = 1e-9 * max(1.0, abs(y))
            last = k == len(rows) - 1
            landing = res.b if last else rows[k + 1]["y"]
            if landing >= a_need:
                above += 1
                assert not last
                assert landing >= a_need + STEP_MARGIN - tol
                assert _safe_ceil(landing + offset) >= target
            else:
                below += 1
                assert last and res.status == "Branchable"
                assert landing <= a_need - STEP_MARGIN + tol
        return above, below

    def test_suite_subproblems(self, solves):
        steps = np.zeros(2, dtype=int)
        for prob, target in suite_problems():
            solves.clear()
            res = nb_bound(prob, target, SUITE_NB)
            steps += self.check_steps(prob, target, res, solves)
            solves.clear()
            nb_bound(prob, None, SUITE_NB)
            assert all(step is None and r.stop != "step" for step, r in solves)
        assert all(steps > 0)

    def test_block_path(self, solves):
        sub, _ = torus_root()
        prob = assemble(sub, 1e8)
        params = NbParams(max_iter=4, apg=ApgParams(max_iter=400))
        for target in (None, swap_search(sub)[0] + sub.offset):
            res = nb_bound(prob, target, params)
            assert res.iterations == len(solves) > 0
            assert res.blocks == dnn.block_basis(sub.group).families
            solves.clear()

    def test_torus(self, solves, monkeypatch):
        bounds = []
        real = bb.nb_bound

        def recording(prob, target, params):
            start = len(solves)
            res = real(prob, target, params)
            bounds.append((prob, target, res, solves[start:]))
            return res

        monkeypatch.setattr(bb, "nb_bound", recording)
        inst = BqopInstance(n=25, B=torus_matrix(5).astype(np.int64), m=9)
        assert solve_target(inst, 160, BbParams(nb=FAST_NB)).outcome == "Proved"
        steps = np.sum([self.check_steps(*bound) for bound in bounds], axis=0)
        assert all(steps > 0)
