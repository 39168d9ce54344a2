"""Lifted-relaxation assembly, cone distance, Newton bracketing."""

import itertools
import math

import numpy as np
import pytest

from symbb import bb, dnn, subproblem
from symbb.bb import BbParams, TreeParams, solve_target
from symbb.dnn import (DPRIME_FLOOR, STEP_MARGIN, ApgParams, ConeDistanceResult,
                       NbParams, _safe_ceil, assemble, cone_distance,
                       face_basis, initial_upper, nb_bound)
from symbb.estimator import EstParams
from symbb.instance import BqopInstance
from symbb.subproblem import FixSets, reduce, subgroup, swap_search
from symbb.symmetry import PermutationGroup, automorphisms, pair_orbits
from tests.conftest import (alternating_projection_distance, audited,
                            brute_optimum, brute_sub_optimum, face_matrix,
                            face_negative_part, lifted_form, penalty_value,
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
            prob = assemble(sub)
            yield prob, opt
            yield prob, opt + 1


def torus_root(k=6, m=11):
    """The node x_1 = 1 of the k x k torus and its stabiliser in the torus
    group, as image arrays on the reduced indices."""
    inst = BqopInstance(n=k * k, B=torus_matrix(k).astype(np.int64), m=m)
    stabiliser = [np.asarray(g)[1:] - 1 for g in torus_symmetries(k) if g[0] == 0]
    return reduce(inst, FixSets((), (0,))), stabiliser


@pytest.fixture
def solves(monkeypatch):
    """Every cone_distance call as (prune_step, result), after checking that
    it made one eigh per APG iteration plus one."""
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


def reynolds(elements, ell, rng):
    """A random symmetric matrix of order 2 ell + 1 averaged over the group
    of ``elements``, each lifted to (u, v, s): an invariant matrix."""
    d = 2 * ell + 1
    R = rng.normal(size=(d, d))
    R = R + R.T
    lifted = [np.concatenate([g, g + ell, [d - 1]]) for g in elements]
    return sum(R[np.ix_(g, g)] for g in lifted) / len(lifted)


def assert_block_step_exact(blocks, X):
    """The block negative part, f and lambda_min of X match those of the
    face part of X, from a dense V~ and a full eigh, to 1e-10 relative."""
    lam_min, f, neg = blocks.negative_part(X)
    w0, f_full, full = face_negative_part(X)
    assert w0 < 0
    assert abs(lam_min - w0) <= 1e-10 * abs(w0)
    assert f == pytest.approx(f_full, rel=1e-10)
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
                            (BbParams, "time_budget"))],
    ])
    def test_bad_value_refused_when_built(self, cls, name, value, rule):
        with pytest.raises(ValueError) as exc:
            cls(**{name: value})
        assert str(exc.value) == f"{name} must be {rule}, not {value}"

    def test_edges_and_none_accepted(self):
        # The least good values, and None where a field may be None.
        BbParams(workers=1, node_budget=1, time_budget=0.0,
                 nb=NbParams(max_iter=1, apg=ApgParams(rel_tol=0.0, max_iter=1)))
        EstParams(width_threshold=1, sample_size=1, depth_budget=None)

    @pytest.mark.parametrize("cls, name, value, annotation", [
        (ApgParams, "max_iter", 2.5, "int"),
        (nested_apg, "max_iter", 2.5, "int"),
        (BbParams, "nb", {"max_iter": 1}, "NbParams"),
        (NbParams, "apg", NbParams(), "ApgParams"),
        (EstParams, "sample_size", 1.5, "int"),
        (BbParams, "time_budget", True, "float | None"),
        (BbParams, "iso_pruning", "no", "bool"),
        (BbParams, "iso_pruning", 1, "bool"),
        (BbParams, "node_budget", "5", "int | None"),
        (TreeParams, "workers", True, "int"),
        (TreeParams, "leaf_threshold", 2.5, "int"),
        (EstParams, "sample_cutoff", None, "int"),
        (ApgParams, "rel_tol", [1e-12], "float"),
    ])
    def test_wrong_type_refused_when_built(self, cls, name, value, annotation):
        # The annotation is checked before the rule: the rules never see a
        # value of the wrong type.
        with pytest.raises(ValueError) as exc:
            cls(**{name: value})
        assert str(exc.value) == f"{name} must be {annotation}, not {value!r}"

    def test_numpy_numbers_accepted(self):
        # numpy integers are ints, numpy floats and any int are floats.
        params = BbParams(workers=np.int64(2), leaf_threshold=np.uint8(8),
                          node_budget=np.int32(5), time_budget=np.float32(3.0),
                          nb=NbParams(apg=ApgParams(rel_tol=1, max_iter=np.int16(9))))
        assert params.workers == 2 and params.nb.apg.max_iter == 9
        EstParams(depth_budget=np.int64(1), sample_cutoff=np.int8(3))


class TestAssemble:
    def test_order(self, monkeypatch):
        sub = open_sub()
        monkeypatch.setattr(dnn, "LAMBDA_SCALE", 10.0)
        prob = assemble(sub)
        assert prob.q.shape == (2 * sub.ell + 1,) * 2

    def test_symmetric(self, monkeypatch):
        monkeypatch.setattr(dnn, "LAMBDA_SCALE", 3.5)
        prob = assemble(open_sub())
        assert np.array_equal(prob.q, prob.q.T)

    def test_closed_form_at_origin(self, monkeypatch):
        # u = v = 0, s = 1: objective 0, penalty ell + b^2.
        sub = open_sub()
        monkeypatch.setattr(dnn, "LAMBDA_SCALE", 7.0)
        prob = assemble(sub)
        val = lifted_form(prob, np.zeros(sub.ell), np.zeros(sub.ell), 1.0)
        assert val == pytest.approx(prob.lam * (sub.ell + sub.residual_m ** 2))

    def test_matches_direct_penalty_evaluation(self, monkeypatch):
        sub = open_sub(seed=3)
        monkeypatch.setattr(dnn, "LAMBDA_SCALE", 2.25)
        prob = assemble(sub)
        lam = prob.lam
        rng = np.random.default_rng(1)
        for _ in range(20):
            u = rng.uniform(0, 2, sub.ell)
            v = rng.uniform(0, 2, sub.ell)
            s = float(rng.uniform(0, 2))
            direct = float(u @ sub.reduced_B @ u) + \
                lam * penalty_value(u, v, s, sub.residual_m)
            assert lifted_form(prob, u, v, s) == pytest.approx(direct, rel=1e-10)

    def test_feasible_binary_point_recovers_objective(self, monkeypatch):
        sub = open_sub(seed=5)
        monkeypatch.setattr(dnn, "LAMBDA_SCALE", 11.0)
        prob = assemble(sub)
        u = np.zeros(sub.ell)
        u[: sub.residual_m] = 1.0
        v = 1.0 - u
        val = lifted_form(prob, u, v, 1.0)
        assert val == pytest.approx(float(u @ sub.reduced_B @ u))

    def test_empty_free_set_rejected(self, bqop6):
        sub = reduce(bqop6, FixSets(i0=tuple(range(5)), i1=(5,)))
        with pytest.raises(ValueError):
            assemble(sub)


class TestPenaltyWeight:
    """The penalty weight assemble derives: LAMBDA_SCALE / ||B(I0,I1)||."""

    def test_arithmetic(self, monkeypatch):
        sub = open_sub()
        norm = float(np.linalg.norm(sub.reduced_B.astype(float)))
        monkeypatch.setattr(dnn, "LAMBDA_SCALE", 1e8)
        assert assemble(sub).lam == pytest.approx(1e8 / norm)

    def test_homogeneity(self):
        sub = open_sub()
        scaled = reduce(
            type(sub.inst)(n=sub.inst.n, B=3 * sub.inst.B, m=sub.inst.m),
            sub.fix)
        assert assemble(scaled).lam == pytest.approx(assemble(sub).lam / 3)

    def test_zero_matrix_rejected(self):
        inst = BqopInstance(n=4, B=np.zeros((4, 4), dtype=np.int64), m=2)
        with pytest.raises(ValueError, match="zero"):
            assemble(reduce(inst, FixSets((), ())))

    def test_default_bounds_roots_no_lower_for_less_work(self, monkeypatch):
        # Why the default is not 1e8: on the untargeted roots x_1 = 1 of
        # soundness instances 0-19 that are not leaves, it never lowers an
        # integer bound and takes fewer APG iterations in all (40,551 ->
        # 21,356 when it was chosen; 17,627 -> 11,981 since untargeted
        # bounds stop once their integer is settled).
        default = dnn.LAMBDA_SCALE
        work = dict.fromkeys((1e8, default), 0)
        roots = 0
        for i in range(20):
            sub = reduce(soundness_instance(i), FixSets((), (0,)))
            if isinstance(subproblem.feasibility_status(sub, 0, 0), subproblem.SolvedLeaf):
                continue
            roots += 1
            res = {}
            for scale in work:
                monkeypatch.setattr(dnn, "LAMBDA_SCALE", scale)
                res[scale] = nb_bound(assemble(sub), None, SUITE_NB)
            assert res[default].lb_integer >= res[1e8].lb_integer, i
            for scale, r in res.items():
                work[scale] += sum(row["apg_iterations"] for row in r.trace)
        assert roots == 18
        assert work[default] < work[1e8]


class TestApgTolerance:
    """The default relative tolerance of the APG solve."""

    def test_default_keeps_integer_bounds_for_less_work(self):
        # Why the default is not 1e-12: on the untargeted roots x_1 = 1 of
        # soundness instances 0-59 that are not leaves and of five tori, it
        # gives every root the same integer bound for fewer APG iterations
        # in all (146,575 -> 40,110 when it was chosen).
        default = ApgParams().rel_tol
        work = dict.fromkeys((1e-12, default), 0)
        subs = [reduce(soundness_instance(i), FixSets((), (0,))) for i in range(60)]
        subs = [sub for sub in subs if not isinstance(
            subproblem.feasibility_status(sub, 0, 0), subproblem.SolvedLeaf)]
        for k, seed, m in [(4, 0, 6), (4, 1, 6), (5, 0, 9), (5, 2, 9), (6, 0, 11)]:
            inst = BqopInstance(n=k * k, B=torus_matrix(k, seed).astype(np.int64), m=m)
            subs.append(reduce(inst, FixSets((), (0,))))
        for sub in subs:
            prob = assemble(sub)
            res = {tol: nb_bound(prob, None, nested_apg(rel_tol=tol)) for tol in work}
            assert res[default].lb_integer == res[1e-12].lb_integer, sub.inst.n
            for tol, r in res.items():
                work[tol] += sum(row["apg_iterations"] for row in r.trace)
        assert len(subs) == 59
        assert work[default] < work[1e-12]


def test_initial_upper_exceeds_optimum():
    for seed in range(5):
        sub = open_sub(seed=seed)
        assert initial_upper(sub) > brute_sub_optimum(sub) - sub.offset


class TestConeDistance:
    """The distance to the face cone {Y1 + Y2: Y2 >= 0, V~^T Y1 V~ PSD} of
    matrices of order 2 ell + 1, on the one-family ``face_basis(ell)``."""

    def test_psd_matrix_inside(self):
        res = cone_distance(np.eye(5))
        assert res.g == pytest.approx(0.0, abs=1e-9)

    def test_even_order_refused(self):
        with pytest.raises(ValueError, match="odd order"):
            cone_distance(np.eye(4))

    def test_negative_corner(self):
        # On the face -H is -e e^T / kappa^2, so g(0) = 1 / kappa^2 and the
        # gradient V~ e e^T V~^T / kappa^4 is entrywise nonnegative: Y2 = 0
        # is optimal.  g(y) of -y H is y / kappa^2, so g' = 1 / kappa^2.
        for ell in (1, 2, 7):
            d = 2 * ell + 1
            M = np.zeros((d, d))
            M[-1, -1] = -1.0
            res = cone_distance(M, basis=face_basis(ell))
            kappa2 = ell / 2 + 1
            assert not res.y2.any()
            assert res.g == pytest.approx(1.0 / kappa2, rel=1e-12)
            assert res.gprime == pytest.approx(1.0 / kappa2, rel=1e-12)

    def test_matches_alternating_projections(self):
        rng = np.random.default_rng(20)
        for _ in range(15):
            ell = int(rng.integers(1, 4))
            M = rng.normal(0, 3, (2 * ell + 1, 2 * ell + 1))
            M = M + M.T
            res = cone_distance(M, basis=face_basis(ell))
            oracle, converged = alternating_projection_distance(M)
            assert converged
            assert res.g == pytest.approx(oracle, abs=1e-7)

    def test_decomposition_consistency(self):
        # Y1 = X - V~ negpart(V~^T X V~) V~^T, X = M - Y2, is the nearest
        # matrix with a PSD face part; the rest of M is Y2 and the residual.
        rng = np.random.default_rng(21)
        M = rng.normal(0, 2, (7, 7))
        M = M + M.T
        res = cone_distance(M, basis=face_basis(3))
        assert np.all(res.y2 >= 0)
        w0, _, neg = face_negative_part(M - res.y2)
        y1 = M - res.y2 - neg
        V = face_matrix(3)
        assert np.linalg.norm(M - y1 - res.y2) == pytest.approx(res.g, abs=1e-8)
        assert np.min(np.linalg.eigvalsh(V.T @ y1 @ V)) >= -1e-9 * max(1, np.linalg.norm(M))
        assert res.min_eig == pytest.approx(w0)

    def test_derivative_matches_finite_differences(self):
        # g' = -P[s, s] / g on the face, where the corner is e e^T / kappa^2.
        rng = np.random.default_rng(22)
        checked = 0
        while checked < 8:
            ell = int(rng.integers(1, 4))
            d = 2 * ell + 1
            M0 = rng.normal(0, 2, (d, d))
            M0 = M0 + M0.T
            y = float(np.trace(M0)) + d

            def g_at(yy):
                M = M0.copy()
                M[-1, -1] -= yy
                return cone_distance(M, basis=face_basis(ell))

            res = g_at(y)
            if res.g < 1e-6:
                continue
            h = 1e-5 * max(1.0, abs(y))
            fd = (g_at(y + h).g - g_at(y - h).g) / (2 * h)
            if abs(fd) < 1e-8:
                continue
            assert res.gprime == pytest.approx(fd, rel=1e-3)
            checked += 1

    def test_root_lift_not_above_alternating_projections(self, monkeypatch):
        # Every alternating-projection iterate is a decomposition, so its
        # value bounds the distance from above (35.78858823 on the root lift
        # of soundness instance 5 at LAMBDA_SCALE 1e8).  A converged APG
        # solve may not report more; had it returned the projected point
        # where its rule settled at an infeasible momentum point, it would
        # report 192.3.
        sub = reduce(soundness_instance(5), FixSets((), (0,)))
        monkeypatch.setattr(dnn, "LAMBDA_SCALE", 1e8)
        prob = assemble(sub)
        M = prob.q.copy()
        M[-1, -1] -= initial_upper(prob.sub)
        res = cone_distance(M)
        upper, _ = alternating_projection_distance(M, max_iter=20_000)
        assert res.converged and res.g <= upper * (1.0 + 1e-6)

    def test_warm_start_agrees(self):
        rng = np.random.default_rng(23)
        M = rng.normal(0, 2, (7, 7))
        M = M + M.T
        cold = cone_distance(M)
        warm = cone_distance(M, warm_start=cold.y2 + 0.01)
        assert warm.g == pytest.approx(cold.g, abs=1e-7)


class TestFace:
    """The face of the lift: V~ has orthonormal columns that span every
    feasible lift (u, 1 - u, 1), and the one-family basis applies it."""

    @pytest.mark.parametrize("ell", [1, 2, 7, 35])
    def test_transforms_match_a_dense_basis(self, ell):
        V = face_matrix(ell)
        assert np.allclose(V.T @ V, np.eye(ell + 1), rtol=0.0, atol=1e-15)
        basis = face_basis(ell)
        assert np.abs(basis.first - V).max() <= 1e-15
        rng = np.random.default_rng(ell)
        X = rng.normal(size=(2 * ell + 1, 2 * ell + 1))
        X = X + X.T
        lam_min, f, neg = basis.negative_part(X)
        w0, f_dense, full = face_negative_part(X)
        assert abs(lam_min - w0) <= 1e-12 * abs(w0)
        assert f == pytest.approx(f_dense, rel=1e-12)
        assert np.abs(neg - full).max() <= 1e-12 * np.abs(full).max()

    def test_lift_back_multiplies_by_a_contiguous_transpose(self):
        # The one-family lift back is F P F^T with its right factor read from
        # ``full``, V~ in column order, instead of the strided view F.T.  It
        # is the same product, but a BLAS may round its kernels for the two
        # layouts apart in the last bit (OpenBLAS 0.3.31 on x86 at ell = 17).
        rng = np.random.default_rng(5)
        for ell in range(1, 21):
            basis = face_basis(ell)
            F = basis.first
            assert np.array_equal(basis.full, F) and basis.full.T.flags.c_contiguous
            X = rng.normal(size=(2 * ell + 1, 2 * ell + 1))
            X = X + X.T
            w, V = np.linalg.eigh(F.T @ X @ F)
            wneg = np.minimum(w, 0.0)
            expected = F @ ((V * wneg) @ V.T) @ F.T
            neg = basis.negative_part(X)[2]
            assert np.abs(neg - expected).max() <= np.finfo(float).eps * np.abs(expected).max()

    @pytest.mark.parametrize("ell", [1, 2, 7, 35])
    def test_corner_maps_to_the_corner(self, ell):
        # V~^T H V~ = e e^T / kappa^2, e the last face coordinate.
        d = 2 * ell + 1
        H = np.zeros((d, d))
        H[-1, -1] = 1.0
        expected = np.zeros((ell + 1, ell + 1))
        expected[-1, -1] = 1.0 / (ell / 2 + 1)
        for V in (face_basis(ell).first, face_matrix(ell)):
            assert np.abs(V.T @ H @ V - expected).max() <= 1e-15

    def test_feasible_lifts_lie_on_the_face(self):
        V = face_matrix(9)
        for u in itertools.product((0.0, 1.0), repeat=9):
            z = np.r_[u, 1.0 - np.array(u), 1.0]
            assert np.allclose(V @ (V.T @ z), z, rtol=0.0, atol=1e-14)


class TestConvergedStop:
    """A ``converged`` stop returns Y2 = Z, the momentum point whose f its
    rule tested, and only where Z >= 0: its g is the distance at that f.
    Elsewhere APG restarts its momentum at the projected point."""

    @staticmethod
    def recorded(monkeypatch):
        """Every cone_distance call as (M, result, (X, f)), with X and f the
        input and f of the decomposition of its last APG iteration."""
        calls, parts = [], []
        real_part, real = dnn.BlockBasis.negative_part, dnn.cone_distance

        def part(self, X):
            out = real_part(self, X)
            parts.append((X, out[1]))
            return out

        def recording(M, *args, **kwargs):
            parts.clear()
            res = real(M, *args, **kwargs)
            # The last decomposition is the final one of M - Y2.
            assert len(parts) == res.iterations + 1
            calls.append((M, res, parts[-2]))
            return res

        monkeypatch.setattr(dnn.BlockBasis, "negative_part", part)
        monkeypatch.setattr(dnn, "cone_distance", recording)
        return calls

    @staticmethod
    def converged_stops(calls):
        stops = 0
        for M, res, (X, f) in calls:
            if not res.converged:
                continue
            stops += 1
            assert np.all(res.y2 >= 0.0)
            assert np.array_equal(X, M - res.y2)
            assert abs(res.g - math.sqrt(2.0 * f)) <= \
                1e-9 * max(1.0, res.g) + 1e-14 * np.linalg.norm(M)
        return stops

    def test_random_matrices(self, monkeypatch):
        calls = self.recorded(monkeypatch)
        rng = np.random.default_rng(25)
        for _ in range(30):
            d = 2 * int(rng.integers(1, 5)) + 1
            M = rng.normal(0, 3, (d, d))
            dnn.cone_distance(M + M.T)
        assert self.converged_stops(calls) == len(calls)

    def test_suite_bounds(self, monkeypatch):
        calls = self.recorded(monkeypatch)
        for prob, target in suite_problems():
            nb_bound(prob, target, SUITE_NB)
            nb_bound(prob, None, SUITE_NB)
        assert self.converged_stops(calls) > 0

    def test_torus_root_on_blocks(self, monkeypatch):
        calls = self.recorded(monkeypatch)
        sub, _ = torus_root()
        res = nb_bound(assemble(sub), None, NbParams(max_iter=3))
        assert res.blocks is not None
        assert self.converged_stops(calls) > 0

    def test_infeasible_momentum_point_restarts(self, monkeypatch):
        # The root lift of soundness instance 5 settles at an infeasible Z
        # after 28 iterations, where f = 0 lies far below its value at any
        # Y2 >= 0 (g = 192.3 at the projected point).  That is a restart
        # now; the solve converges at a feasible Z, at the 35.79 of the
        # alternating projections.  The tolerance is pinned at 1e-12, where
        # g was measured: at 1e-9 the solve stops 1.4e-6 away from it.
        calls = self.recorded(monkeypatch)
        sub = reduce(soundness_instance(5), FixSets((), (0,)))
        monkeypatch.setattr(dnn, "LAMBDA_SCALE", 1e8)
        M = assemble(sub).q.copy()
        M[-1, -1] -= initial_upper(sub)
        res = dnn.cone_distance(M, ApgParams(rel_tol=1e-12))
        assert res.converged and res.iterations > 28
        assert res.g == pytest.approx(35.7885882, abs=1e-6)
        assert self.converged_stops(calls) == 1


class TestBlockBasis:
    """The basis of the node group's commutant: the block step matches the
    full eigendecomposition on invariant matrices."""

    def test_torus_root_stabiliser(self, monkeypatch):
        sub, stabiliser = torus_root()
        group = subgroup(sub)
        assert group.order == len(stabiliser) == 8
        # The basis is built by SVD, and each block step makes one batched
        # eigh: the benchmark's tracer counts eigh = APG iterations +
        # cone_distance calls.
        eighs = []
        real_eigh = np.linalg.eigh

        def counting_eigh(*args, **kwargs):
            eighs.append(args[0].shape)
            return real_eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        blocks = dnn.block_basis(group)
        assert eighs == []
        # D4 has four one-dimensional and one two-dimensional real
        # irreducible; the families split the face order 36, and the two
        # copies of the 8 x 8 family are lifted back each through its own
        # columns of the basis.
        assert blocks.families == ((10, 1), (8, 2), (6, 1), (3, 1), (1, 1))
        rng = np.random.default_rng(0)
        for _ in range(3):
            assert_block_step_exact(blocks, reynolds(stabiliser, sub.ell, rng))
        prob = assemble(sub)
        M = prob.q.copy()
        M[-1, -1] -= initial_upper(prob.sub)
        assert_block_step_exact(blocks, M)
        # Each face step made one eigh too, of order 36.
        assert eighs == [(3, 10, 10), (36, 36)] * 4

    @pytest.mark.parametrize("k, m, fix, face, order, families", [
        (4, 5, FixSets((), (0,)), 16, 8, ((6, 1), (3, 1), (3, 2), (1, 1))),
        (5, 9, FixSets((), (0,)), 25, 8, ((6, 1), (6, 2), (3, 1), (3, 1), (1, 1))),
        (5, 9, FixSets((1, 2, 3, 4), (0,)), 21, 4, ((7, 1), (6, 1), (4, 1), (4, 1)))])
    def test_block_step_on_torus_nodes(self, k, m, fix, face, order, families):
        # More node kinds than the k = 6 root: smaller faces, a family of
        # three rows in two copies, and a node with I0 set whose group has
        # order 4.
        inst = BqopInstance(n=k * k, B=torus_matrix(k).astype(np.int64), m=m)
        sub = reduce(inst, fix)
        group = subgroup(sub)
        assert (sub.ell + 1, group.order) == (face, order)
        blocks = dnn.block_basis(group)
        assert blocks.families == families
        rng = np.random.default_rng(k)
        for _ in range(3):
            assert_block_step_exact(blocks, reynolds(group.elements, sub.ell, rng))
        M = assemble(sub).q.copy()
        M[-1, -1] -= initial_upper(sub)
        assert_block_step_exact(blocks, M)

    @pytest.mark.parametrize("k", range(4, 9))
    def test_torus_root_orbitals_are_the_listed_groups(self, k):
        # The block path draws a few elements from the transversals; the
        # group they generate must keep every orbital of the node group.
        sub, stabiliser = torus_root(k, m=k * k // 3)
        group = sub.group
        assert {tuple(g) for g in group.elements} == {tuple(g) for g in stabiliser}
        ell, d = sub.ell, 2 * sub.ell + 1
        E = group.elements
        listed = pair_orbits(np.hstack([E, E + ell, np.full((len(E), 1), d - 1)]))
        assert np.array_equal(dnn.block_basis(group).orbitals, listed)

    def test_chiral_cyclic_group_keeps_complex_components(self):
        # Two rings of six turned together, with no reflection: the cyclic
        # group C6, whose two-dimensional irreducibles are of complex type.
        inst = planted_bqop(np.random.default_rng(3), 2, 6, 5)
        group = automorphisms(inst.B)
        assert group.order == 6
        blocks = dnn.block_basis(group)
        assert blocks.families == ((4, 1), (4, 1), (3, 1), (2, 1))
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
        assert blocks.families == ((2, 1), (1, ell - 1))
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
        res = nb_bound(assemble(sub), None, short)
        assert res.iterations == 1 and res.blocks is None
        # Below the crossover the node group is never computed.
        monkeypatch.setattr(subproblem, "subgroup", None)
        small = open_sub(seed=0, n=8, m=4)
        assert small.ell + 1 < dnn.BLOCK_MIN_ORDER
        res = nb_bound(assemble(small), None, short)
        assert res.iterations == 1 and res.blocks is None

    def test_involution_gives_no_basis_before_building_one(self, monkeypatch):
        # B is invariant under i -> n - 1 - i: 12 point orbits, so the trivial
        # family alone has 13 > 25 / 2 rows of the face order 25.
        rng = np.random.default_rng(4)
        n = 24
        R = rng.integers(0, 50, (n, n))
        B = R + R.T + (R + R.T)[::-1, ::-1]
        np.fill_diagonal(B, 0)
        sub = reduce(BqopInstance(n=n, B=B.astype(np.int64), m=7), FixSets((), ()))
        assert sub.group.order == 2 and sub.ell + 1 >= dnn.BLOCK_MIN_ORDER
        monkeypatch.setattr(dnn, "_families", None)
        assert dnn.block_basis(sub.group) is None
        short = NbParams(max_iter=1, apg=ApgParams(max_iter=5))
        res = nb_bound(assemble(sub), None, short)
        assert res.iterations == 1 and res.blocks is None

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_large_family_gives_no_basis_after_building_one(self, monkeypatch, k):
        # A 3-cycle turning k triples together: with k + 1 orbits on the
        # face points the basis is built, but its complex-type irreducibles
        # stay one family of 2k rows, above half the face order 3k + 1.
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
        assert [(c.shape[2], c.shape[1]) for c in built[0]] == [(2 * k, 1), (k + 1, 1)]

    def test_untargeted_bound_starts_at_the_searched_completion(self):
        # Untargeted, Newton starts one above the completion the search
        # found; targeted, one above the trivial completion (nb_bound).
        sub = open_sub(seed=1)
        prob = assemble(sub)
        upper = swap_search(sub)[0]
        assert upper + 1 < initial_upper(sub)
        assert nb_bound(prob, None, FAST_NB).trace[0]["y"] == upper + 1
        targeted = nb_bound(prob, upper + sub.offset, FAST_NB)
        assert targeted.trace[0]["y"] == initial_upper(sub)

    def test_completion_check_builds_no_group(self, monkeypatch):
        monkeypatch.setattr(subproblem, "subgroup", None)
        sub, _ = torus_root()
        prob = assemble(sub)
        res = nb_bound(prob, swap_search(sub)[0] + sub.offset + 1, FAST_NB)
        assert (res.status, res.iterations, res.blocks) == ("Branchable", 0, None)


class TestBlockPathAudit:
    """Audited solves with every nontrivial node group on the block path."""

    @pytest.mark.parametrize("name, inst, leaf", [
        ("soundness-3", soundness_instance(3), 8),
        ("soundness-7", soundness_instance(7), 8),
        ("planted-2x8", planted_bqop(np.random.default_rng(7), 2, 8, 7), 4),
        ("planted-2x8-m5", planted_bqop(np.random.default_rng(7), 2, 8, 5), 4)])
    def test_audited_solves(self, monkeypatch, name, inst, leaf):
        params = BbParams(leaf_threshold=leaf, leaf_band=min(3, leaf // 2),
                          nb=SUITE_NB)
        opt = brute_optimum(inst)
        full = [solve_target(inst, t, params).to_json_obj() for t in (opt, opt + 1)]
        solves = []
        real = dnn.cone_distance

        def recording(M, *args, **kwargs):
            solves.append(kwargs["basis"])
            return real(M, *args, **kwargs)

        monkeypatch.setattr(dnn, "BLOCK_MIN_ORDER", 0)
        monkeypatch.setattr(dnn, "cone_distance", recording)
        with audited():
            certs = [solve_target(inst, t, params).to_json_obj() for t in (opt, opt + 1)]
        assert [c["outcome"] for c in certs] == ["Proved", "Refuted"]
        assert certs[1]["witness_value"] == opt
        # The planted instance's proof at m = 5 bounds nodes on blocks.  At
        # m = 7 every node whose group is the rotation of one ring of eight
        # is left with residual ell - 1, a leaf solved exactly.  The group
        # of every other node is trivial or its largest block above half the
        # face order, and those run on the one-family basis V~.
        assert any(b.take is not None for b in solves) == (name == "planted-2x8-m5")
        for cert, ref in zip(certs, full):
            cert.pop("timing"), ref.pop("timing")
            assert cert == ref


class TestTorusBlockPath:
    """The tori's proofs give the same certificates with every nontrivial
    node group on blocks as with none."""

    @pytest.mark.parametrize("k, m, target", [(5, 9, 156), (5, 9, 160),
                                              (6, 11, 496), (6, 11, 500)])
    def test_same_certificate_with_and_without_blocks(self, monkeypatch, k, m, target):
        inst = BqopInstance(n=k * k, B=torus_matrix(k).astype(np.int64), m=m)
        real = dnn.cone_distance
        certs = []
        for order in (0, 10 ** 9):
            solves = []

            def recording(M, *args, **kwargs):
                solves.append(kwargs["basis"].take is not None)
                return real(M, *args, **kwargs)

            monkeypatch.setattr(dnn, "BLOCK_MIN_ORDER", order)
            monkeypatch.setattr(dnn, "cone_distance", recording)
            cert = solve_target(inst, target, BbParams(nb=FAST_NB)).to_json_obj()
            cert.pop("timing")
            certs.append(cert)
            assert any(solves) == (order == 0)
        assert certs[0]["outcome"] == "Proved"
        assert certs[0] == certs[1]


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
        prob = assemble(sub)
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
            warm = assemble(child, (sub.free, res.y2))
            at = [sub.free.index(i) for i in child.free]
            idx = [*at, *(k + ell for k in at), 2 * ell]
            expected = y2[np.ix_(idx, idx)] * (warm.lam / prob.lam)
            assert np.allclose(warm.warm, expected, rtol=1e-12, atol=0.0)
            assert np.all(warm.warm >= 0) and warm.warm.any()
            assert assemble(child).warm is None
            with pytest.raises(ValueError, match="ancestor"):
                assemble(sub, (child.free, warm.warm))

    def test_block_path_start_is_invariant(self, monkeypatch):
        sub, _, res, _ = self.torus_parent(monkeypatch)
        child = reduce(sub.inst, FixSets((), (0, 1)))
        prob = assemble(child, (sub.free, res.y2))
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
            prob = assemble(sub)
            res = nb_bound(prob, None, FAST_NB)
            assert res.a + sub.offset <= opt + 1e-6
            assert res.status == "Settled"
            # Lag-DNN at the default weight is tight on these instances.
            assert res.a + sub.offset >= opt - 0.05 * max(1, abs(opt))

    def test_monotone_brackets(self):
        sub = open_sub(seed=7)
        prob = assemble(sub)
        res = nb_bound(prob, None, FAST_NB)
        a_seq = [rec["a"] for rec in res.trace]
        b_seq = [rec["b"] for rec in res.trace]
        assert all(x <= y + 1e-12 for x, y in zip(a_seq, a_seq[1:]))
        assert all(x >= y - 1e-12 for x, y in zip(b_seq, b_seq[1:]))
        assert all(rec["a"] <= rec["b"] for rec in res.trace)

    def test_pruned_at_low_target(self):
        sub = open_sub(seed=1)
        prob = assemble(sub)
        res = nb_bound(prob, -10 ** 9, FAST_NB)
        assert res.status == "Pruned"
        assert res.iterations == 1

    def test_branchable_at_unreachable_target(self):
        # A completion below the target ends the node before any APG solve.
        sub = open_sub(seed=1)
        prob = assemble(sub)
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
            prob = assemble(open_sub(seed=seed))
            level = swap_search(prob.sub)[0] + prob.sub.offset
            res = nb_bound(prob, level + 1, FAST_NB)
            assert (res.status, res.iterations, len(calls)) == ("Branchable", 0, 0)
            res = nb_bound(prob, level, FAST_NB)
            assert res.iterations == len(calls) > 0
            calls.clear()

    def test_integer_bound_matches_optimum(self):
        sub = open_sub(seed=11, n=10, m=5)
        opt = brute_sub_optimum(sub)
        prob = assemble(sub)
        res = nb_bound(prob, None, FAST_NB)
        assert res.lb_integer is not None
        assert res.lb_integer <= opt

    def test_lambda_monotonicity(self, monkeypatch):
        sub = open_sub(seed=2)
        finals = []
        for scale in (1e2, 1e4, 1e6, 1e8):
            monkeypatch.setattr(dnn, "LAMBDA_SCALE", scale)
            prob = assemble(sub)
            finals.append(nb_bound(prob, None, FAST_NB).a)
        for lo, hi in zip(finals, finals[1:]):
            assert hi >= lo - 1e-6 * max(1.0, abs(hi))

    def test_untargeted_torus_root_keeps_its_bound(self):
        # The node x_1 = 1 of the k = 5 torus.  When convergence was tested
        # at an infeasible momentum point, the first solve stopped at g = 366
        # and its Newton step landed at y = -4977, inside the cone, where the
        # bracket closed.
        inst = BqopInstance(n=25, B=torus_matrix(5).astype(np.int64), m=9)
        sub = reduce(inst, FixSets((), (0,)))
        res = nb_bound(assemble(sub), None, NbParams())
        assert res.status == "Settled" and res.a >= 150
        assert res.a + sub.offset <= 160

    def test_untargeted_bound_stops_where_the_point_repeats(self, monkeypatch):
        # A converged solve with g = 0 at y == b bisects to y itself, where
        # the bracketing once ran to its 60-step cap, re-solving one point.
        # At LAMBDA_SCALE 1e13 the roundoff slack of the correction, about
        # 1.0 here, keeps a below the integer of y, so the integer is never
        # settled and the point repeats.
        sub = open_sub(seed=3)
        monkeypatch.setattr(dnn, "LAMBDA_SCALE", 1e13)
        prob = assemble(sub)
        res = nb_bound(prob, None, NbParams())
        assert res.status == "Stalled" and res.iterations <= 8
        last = res.trace[-1]
        assert (last["y"], last["g"], last["apg_stop"]) == (res.b, 0.0, "converged")
        assert _safe_ceil(res.a + sub.offset) < _safe_ceil(res.b + sub.offset)
        # The stop keeps the bracket as it stands: a, b and the trace are
        # bit for bit those of the same bound cut there by its step cap, whose
        # last step finds the same repeat.
        cut = nb_bound(prob, None, NbParams(max_iter=res.iterations))
        assert (cut.status, cut.a, cut.b, cut.trace) == (res.status, res.a, res.b, res.trace)

    def test_g_nonnegative_and_zero_below_a(self):
        sub = open_sub(seed=4)
        prob = assemble(sub)
        res = nb_bound(prob, None, FAST_NB)
        M = prob.q.copy()
        M[-1, -1] -= res.a - 5.0
        below = cone_distance(M, FAST_NB.apg)
        assert below.g <= 1e-6 * max(1.0, np.linalg.norm(M))

    def test_g_convex_above_bracket(self, monkeypatch):
        sub = open_sub(seed=4)
        monkeypatch.setattr(dnn, "LAMBDA_SCALE", 1e8)
        prob = assemble(sub)
        res = nb_bound(prob, None, FAST_NB)
        # g of the face cone is convex here by a margin of 2.4e-4 at the
        # middle point, where a solve stopped at FAST's rel_tol 1e-10 reads
        # g 6.4e-4 above the distance (0.34059 after 1,175 iterations, not
        # 0.33994 after 21,558 at 1e-13): g is read at 1e-13.
        apg = ApgParams(rel_tol=1e-13, max_iter=100_000)

        def g_at(y):
            M = prob.q.copy()
            M[-1, -1] -= y
            return cone_distance(M, apg).g

        ys = res.b + np.array([1.0, 3.0, 5.0]) * max(1.0, abs(res.b)) * 0.01
        mid = g_at(ys[1])
        assert mid <= 0.5 * (g_at(ys[0]) + g_at(ys[2])) + 1e-6


class TestSettledStop:
    """An untargeted bound stops once ceil(a) reaches ceil(y) at a Newton
    point y >= y*: no later a can pass y*, so no further work raises the
    integer bound."""

    @staticmethod
    def roots():
        for i in range(60):
            sub = reduce(soundness_instance(i), FixSets((), (0,)))
            if not isinstance(subproblem.feasibility_status(sub, 0, 0), subproblem.SolvedLeaf):
                yield sub, SUITE_NB
        for k, seed, m in [(4, 0, 6), (4, 1, 6), (5, 0, 9), (5, 2, 9), (6, 0, 11)]:
            inst = BqopInstance(n=k * k, B=torus_matrix(k, seed).astype(np.int64), m=m)
            yield reduce(inst, FixSets((), (0,))), NbParams()

    def test_settled_integer_is_the_relaxations_best(self):
        # A valid bound at the next integer can prune only where Settled
        # stopped an integer short of the relaxation.
        solved = 0
        for sub, params in self.roots():
            prob = assemble(sub)
            res = nb_bound(prob, None, params)
            assert res.status == "Settled"
            # b is the last Newton point, and a the best bound below it.
            assert res.b == res.trace[-1]["y"]
            assert res.lb_integer == _safe_ceil(res.b + sub.offset)
            probe = nb_bound(prob, res.lb_integer + 1, params)
            assert probe.status != "Pruned", (sub.inst.n, res.lb_integer)
            solved += probe.iterations > 0
        # Not every probe is decided by a completion at the integer bound.
        assert solved >= 5

    def test_untargeted_soundness_roots_settle(self):
        # Every untargeted root ends on its integer, not on the width of its
        # bracket: instance 27 narrows to a relative width of 1e-6 one APG
        # iteration before its integer, -30, is settled.
        bounded = 0
        for i in range(40):
            sub = reduce(soundness_instance(i), FixSets((), (0,)))
            if isinstance(subproblem.feasibility_status(sub, 0, 0), subproblem.SolvedLeaf):
                continue
            bounded += 1
            res = nb_bound(assemble(sub), None, SUITE_NB)
            assert res.status == "Settled", i
            assert res.lb_integer <= brute_sub_optimum(sub), i
        assert bounded == 38

    def test_targeted_bounds_never_settle(self):
        assert all(nb_bound(prob, target, SUITE_NB).status != "Settled"
                   for prob, target in suite_problems())


class TestLiftNorm:
    def test_feasible_lift_norm_objective_and_bound(self):
        rng = np.random.default_rng(12)
        inst = random_bqop(rng, 9, 4)
        sub = reduce(inst, FixSets(i0=(3,), i1=(0,)))
        prob = assemble(sub)
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
        # Untargeted solves may stop at the integer of their point, never
        # at a settled Newton step.
        assert all(rec["apg_stop"] != "step" for rec in res.trace)
        assert res.a + sub.offset <= brute_sub_optimum(sub)


class TestTargetExit:
    def test_random_matrices(self):
        rng = np.random.default_rng(24)
        stopped = 0
        for _ in range(30):
            d = 2 * int(rng.integers(1, 5)) + 1
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
            exact = face_negative_part(M - res.y2)[0]
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
                exact = face_negative_part(M - r.y2)[0]
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
        prob = assemble(sub)
        calls = []

        def flat(M, *args, **kwargs):
            calls.append(M)
            return ConeDistanceResult(g=1.0, gprime=0.5 * DPRIME_FLOOR,
                                      y2=np.zeros_like(M), min_eig=-1e6,
                                      stop="cap", iterations=1, x_s=np.ones(M.shape[0]))

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
        params = BbParams(leaf_threshold=8, leaf_band=3, workers=2, nb=SUITE_NB)
        with audited():
            cert = solve_target(inst, -10, params)
        assert (cert.outcome, cert.node_count) == ("Proved", 3)
        assert stops and "cap" not in stops


class TestStepExit:
    """A targeted APG solve that has not pruned at its own y stops once the
    Newton step it feeds is settled and lands at least STEP_MARGIN above or
    below the prune level."""

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
        prob = assemble(sub)
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


class TestPrimal:
    """``NbResult.xbar``: the relaxation's value of each free variable,
    X[u_j, s] / X[s, s] with X = -negpart(M - Y2) of the last APG solve."""

    # Weights by pair of wrap-around distances of the k = 5 torus that the
    # torus-prove benchmark proves (drawn from 1-100).
    WEIGHT = [[0, 39, 84], [39, 55, 40], [84, 40, 42]]

    def test_torus_root(self, solves, monkeypatch):
        inst = BqopInstance(n=25, B=torus_matrix(5, weight=self.WEIGHT).astype(np.int64), m=9)
        sub = reduce(inst, FixSets((), (0,)))
        monkeypatch.setattr(dnn, "LAMBDA_SCALE", 1e8)
        prob = assemble(sub)
        # The first two Newton steps end on converged solves; the default
        # bound is settled by a short third solve stopped at the integer.
        res = nb_bound(prob, None, NbParams(max_iter=2))
        assert res.status == "IterLimit" and res.iterations == len(solves)
        assert res.trace[-1]["apg_stop"] == "converged"
        assert res.xbar.shape == (sub.ell,)
        assert np.all((res.xbar >= -0.01) & (res.xbar <= 1.01))
        # The penalty holds sum_j u_j = b s on X too: 7.995 against 8.
        assert abs(res.xbar.sum() - sub.residual_m) <= 0.05
        # The last solve's column, from its own final eigh, is the one a
        # second decomposition of M - Y2 gives.
        last = solves[-1][1]
        M = prob.q.copy()
        M[-1, -1] -= res.trace[-1]["y"]
        X = -face_negative_part(M - last.y2)[2]
        assert np.allclose(last.x_s, X[:, -1], rtol=0.0, atol=1e-9 * np.abs(X).max())
        assert np.allclose(res.xbar, X[:sub.ell, -1] / X[-1, -1])

    def test_none_without_a_solve(self):
        sub = open_sub()
        res = nb_bound(assemble(sub), swap_search(sub)[0] + sub.offset + 1, FAST_NB)
        assert res.iterations == 0 and res.xbar is None

    @pytest.mark.parametrize("corner", [0.0, -1e-3])
    def test_none_without_a_positive_corner(self, monkeypatch, corner):
        sub = open_sub()

        def flat(M, *args, **kwargs):
            x_s = np.full(M.shape[0], 0.5)
            x_s[-1] = corner
            return ConeDistanceResult(g=1.0, gprime=0.0, y2=np.zeros_like(M), min_eig=-1.0,
                                      stop="cap", iterations=1, x_s=x_s)

        monkeypatch.setattr(dnn, "cone_distance", flat)
        res = nb_bound(assemble(sub), None, NbParams(max_iter=1))
        assert res.iterations == 1 and res.xbar is None
