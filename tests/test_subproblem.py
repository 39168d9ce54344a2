"""Reduction identities, leaf classification, induced symmetry groups."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symbb import subproblem
from symbb.dnn import initial_upper
from symbb.instance import BqopInstance, objective
from symbb.subproblem import (FixSets, Infeasible, SolvedLeaf,
                              feasibility_status, reduce, solve_exactly,
                              subgroup, swap_search)
from tests.conftest import brute_sub_optimum, random_bqop, soundness_instance


class TestFixSets:
    def test_sorted_dedup(self):
        fix = FixSets(i0=(3, 1, 3), i1=(2,))
        assert fix.i0 == (1, 3) and fix.i1 == (2,)

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            FixSets(i0=(1,), i1=(1,))

    def test_free_partition(self):
        fix = FixSets(i0=(0,), i1=(3,))
        assert fix.free(5) == (1, 2, 4)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            FixSets(i0=(9,), i1=()).free(5)

    def test_with_helpers(self):
        fix = FixSets((), ()).with_zeros((2, 4)).with_one(1)
        assert fix.i0 == (2, 4) and fix.i1 == (1,)


class TestReduce:
    def test_empty_fixing_is_identity(self, bqop6):
        sub = reduce(bqop6, FixSets((), ()))
        assert np.array_equal(sub.reduced_B, bqop6.B)
        assert sub.offset == 0 and sub.residual_m == bqop6.m

    def test_diagonal_correction(self, bqop6):
        sub = reduce(bqop6, FixSets(i0=(), i1=(0,)))
        for k, i in enumerate(sub.free):
            assert sub.reduced_B[k, k] == bqop6.B[i, i] + 2 * bqop6.B[0, i]
        assert sub.offset == 0  # B has zero diagonal

    def test_off_diagonal_unchanged(self, bqop6):
        sub = reduce(bqop6, FixSets(i0=(1,), i1=(0, 4)))
        for a, i in enumerate(sub.free):
            for b, j in enumerate(sub.free):
                if a != b:
                    assert sub.reduced_B[a, b] == bqop6.B[i, j]

    @given(st.integers(0, 1_000_000))
    @settings(max_examples=30, deadline=None)
    def test_reduction_identity_exhaustive(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_bqop(rng, 7, int(rng.integers(2, 6)))
        labels = rng.integers(0, 3, 7)  # 0 -> free, 1 -> I1, 2 -> I0
        fix = FixSets(i0=tuple(np.flatnonzero(labels == 2)),
                      i1=tuple(np.flatnonzero(labels == 1)))
        sub = reduce(inst, fix)
        for bits in itertools.product([0, 1], repeat=sub.ell):
            y = np.array(bits, dtype=np.int64)
            x = sub.lift(y)
            assert int(y @ sub.reduced_B @ y) + sub.offset == objective(inst, x)

    def test_nested_reductions_compose(self, bqop6):
        once = reduce(bqop6, FixSets(i0=(5,), i1=(0,)))
        twice_fix = FixSets(i0=(5, 2), i1=(0, 3))
        direct = reduce(bqop6, twice_fix)
        # Fixing the extra indices inside the reduced problem agrees in offset
        # and optimum with the direct reduction by the union fixing.
        assert direct.offset == once.offset + int(
            bqop6.B[3, 3] + 2 * bqop6.B[0, 3])
        assert brute_sub_optimum(direct) == min(
            objective(bqop6, x) for x in _consistent(bqop6, twice_fix))

    def test_offset_is_i1_block_sum(self, bqop6):
        sub = reduce(bqop6, FixSets(i0=(), i1=(0, 2, 4)))
        assert sub.offset == int(bqop6.B[np.ix_([0, 2, 4], [0, 2, 4])].sum())


def _consistent(inst, fix):
    free = fix.free(inst.n)
    r = inst.m - len(fix.i1)
    for support in itertools.combinations(free, r):
        x = np.zeros(inst.n, dtype=np.int64)
        x[list(fix.i1)] = 1
        x[list(support)] = 1
        yield x


class TestFeasibilityStatus:
    def test_all_zero_infeasible(self, bqop6):
        sub = reduce(bqop6, FixSets(i0=tuple(range(6)), i1=()))
        assert isinstance(feasibility_status(sub, 20, 3), Infeasible)

    def test_residual_zero_leaf(self, bqop6):
        sub = reduce(bqop6, FixSets(i0=(), i1=(0, 1, 2)))
        status = feasibility_status(sub, 20, 3)
        assert isinstance(status, SolvedLeaf)
        assert status.value == objective(bqop6, status.witness)
        assert status.value == int(bqop6.B[np.ix_([0, 1, 2], [0, 1, 2])].sum())

    def test_residual_full_leaf(self, bqop6):
        sub = reduce(bqop6, FixSets(i0=(0, 1, 2), i1=()))
        status = feasibility_status(sub, 20, 3)
        assert isinstance(status, SolvedLeaf)
        x = np.array([0, 0, 0, 1, 1, 1])
        assert status.value == objective(bqop6, x)

    def test_small_leaf_enumeration(self, bqop6):
        sub = reduce(bqop6, FixSets(i0=(5,), i1=(0,)))  # |F|=4, residual 2
        status = feasibility_status(sub, leaf_threshold=10, leaf_band=3)
        assert isinstance(status, SolvedLeaf)
        assert status.value == brute_sub_optimum(sub)
        assert objective(bqop6, status.witness) == status.value

    def test_open_above_threshold(self, bqop6):
        sub = reduce(bqop6, FixSets((), ()))
        assert feasibility_status(sub, leaf_threshold=3, leaf_band=3) is None

    def test_oversubscribed_infeasible(self, bqop6):
        sub = reduce(bqop6, FixSets(i0=(1, 2, 3, 4), i1=()))  # |F|=2 < m=3
        assert isinstance(feasibility_status(sub, 20, 3), Infeasible)


    def test_zero_reduced_matrix_leaf(self):
        # Far above the leaf threshold, but every completion costs the offset.
        B = np.zeros((30, 30), dtype=np.int64)
        B[0, 1] = B[1, 0] = 4
        inst = BqopInstance(n=30, B=B, m=12)
        sub = reduce(inst, FixSets(i0=(1,), i1=(0,)))
        assert not sub.reduced_B.any()
        status = feasibility_status(sub, leaf_threshold=3, leaf_band=3)
        assert isinstance(status, SolvedLeaf)
        assert status.value == sub.offset
        assert status.witness.sum() == inst.m
        assert objective(inst, status.witness) == status.value

    @pytest.mark.parametrize("c, b", [(0, 5), (3, 3), (1, -2), (-2, 1), (-1, -3)])
    def test_uniform_reduced_matrix_leaf(self, c, b, monkeypatch):
        # Fixing variable 1 to one puts a = 2c on the diagonal and leaves b
        # everywhere else: every completion of the r = m - 1 free ones costs
        # r a + r (r - 1) b, and the group is never searched.
        monkeypatch.setattr(subproblem, "automorphisms", None)
        n, m = 9, 5
        B = np.full((n, n), b, dtype=np.int64)
        B[0, :] = B[:, 0] = c
        np.fill_diagonal(B, 0)
        inst = BqopInstance(n=n, B=B, m=m)
        sub = reduce(inst, FixSets(i0=(), i1=(0,)))
        status = feasibility_status(sub, leaf_threshold=0, leaf_band=0)
        assert isinstance(status, SolvedLeaf)
        r = m - 1
        assert status.value == r * 2 * c + r * (r - 1) * b == solve_exactly(sub).value
        assert np.array_equal(status.witness, solve_exactly(sub).witness)
        assert objective(inst, status.witness) == status.value

    @pytest.mark.parametrize("m, fix", [(2, FixSets((), (0,))), (11, FixSets((), (0,))),
                                        (3, FixSets((4,), (0, 7))), (10, FixSets((2,), ()))])
    def test_at_most_ell_completions_solved_exactly(self, m, fix):
        # Residual 1 or ell - 1 leaves ell completions: a leaf at any size,
        # with solve_exactly's value and witness.
        inst = random_bqop(np.random.default_rng(m), 12, m)
        sub = reduce(inst, fix)
        assert sub.residual_m in (1, sub.ell - 1)
        status = feasibility_status(sub, leaf_threshold=0, leaf_band=0)
        exact = solve_exactly(sub)
        assert isinstance(status, SolvedLeaf)
        assert status.value == exact.value == brute_sub_optimum(sub)
        assert np.array_equal(status.witness, exact.witness)

    def test_more_completions_stay_open(self):
        inst = random_bqop(np.random.default_rng(2), 12, 4)
        for fix in (FixSets((), (0,)), FixSets((), (0, 1)), FixSets((3,), ())):
            sub = reduce(inst, fix)
            assert 2 <= sub.residual_m <= sub.ell - 2
            assert feasibility_status(sub, leaf_threshold=0, leaf_band=0) is None

    def test_one_entry_off_uniform_stays_open(self):
        B = np.full((9, 9), 5, dtype=np.int64)
        np.fill_diagonal(B, 0)
        B[3, 7] = B[7, 3] = 6
        sub = reduce(BqopInstance(n=9, B=B, m=4), FixSets((), ()))
        assert feasibility_status(sub, leaf_threshold=0, leaf_band=0) is None


class TestSolveExactly:
    @given(st.integers(0, 1_000_000))
    @settings(max_examples=20, deadline=None)
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_bqop(rng, 7, int(rng.integers(1, 7)))
        fix = FixSets(i0=(6,), i1=(0,))
        sub = reduce(inst, fix)
        leaf = solve_exactly(sub)
        assert leaf.value == brute_sub_optimum(sub)
        assert objective(inst, leaf.witness) == leaf.value

    def test_infeasible(self, bqop6):
        sub = reduce(bqop6, FixSets(i0=(1, 2, 3, 4), i1=()))
        assert isinstance(solve_exactly(sub), Infeasible)


class TestSwapSearch:
    @staticmethod
    def subs():
        """Residuals 0..4 of a random node, a node with residual ell, and
        three nodes of each of soundness instances 0-39."""
        inst = random_bqop(np.random.default_rng(5), 9, 4)
        for ones in range(5):
            yield reduce(inst, FixSets(i0=(8,), i1=tuple(range(ones))))
        yield reduce(inst, FixSets(i0=(4, 5, 6, 7, 8), i1=()))
        for i in range(40):
            inst = soundness_instance(i)
            for fix in (FixSets((), (0,)), FixSets((0,), (1,)), FixSets((1,), ())):
                yield reduce(inst, fix)

    def test_value_of_a_real_support(self):
        for sub in self.subs():
            value, y = swap_search(sub)
            assert y.shape == (sub.ell,) and set(np.unique(y)) <= {0, 1}
            assert y.sum() == sub.residual_m
            assert value == int(y @ sub.reduced_B @ y)
            assert objective(sub.inst, sub.lift(y)) == value + sub.offset
            assert brute_sub_optimum(sub) <= value + sub.offset
            assert value <= initial_upper(sub) - 1

    def test_no_swap_improves(self):
        for sub in self.subs():
            value, y = swap_search(sub)
            for i, j in itertools.product(np.flatnonzero(y), np.flatnonzero(1 - y)):
                z = y.copy()
                z[i], z[j] = 0, 1
                assert int(z @ sub.reduced_B @ z) >= value

    def test_repeats_across_calls(self):
        for sub in self.subs():
            value, y = swap_search(sub)
            again, y_again = swap_search(sub)
            assert value == again and np.array_equal(y, y_again)

    def test_random_starts_only_improve(self, monkeypatch):
        subs = list(self.subs())
        best = [swap_search(sub)[0] for sub in subs]
        monkeypatch.setattr(subproblem, "SWAP_STARTS", 0)
        trivial = [swap_search(sub)[0] for sub in subs]
        assert all(b <= t for b, t in zip(best, trivial))
        assert any(b < t for b, t in zip(best, trivial))
        # Swaps from the trivial completion alone improve it on most nodes.
        gains = [initial_upper(sub) - 1 > t for sub, t in zip(subs, trivial)]
        assert sum(gains) > len(gains) // 2


class TestSubgroup:
    def test_quadratic_form_invariance(self, cycle6):
        from symbb.instance import BqopInstance
        inst = BqopInstance(n=6, B=cycle6, m=3)
        sub = reduce(inst, FixSets(i0=(), i1=(0,)))
        grp = subgroup(sub)
        rng = np.random.default_rng(8)
        for sigma in grp.elements:
            y = rng.integers(0, 2, sub.ell)
            assert y[sigma] @ sub.reduced_B @ y[sigma] == y @ sub.reduced_B @ y

    def test_matches_brute_force(self, cycle6):
        from symbb.instance import BqopInstance
        from tests.conftest import brute_automorphisms
        inst = BqopInstance(n=6, B=cycle6, m=3)
        sub = reduce(inst, FixSets(i0=(), i1=(0,)))
        grp = subgroup(sub)
        brute = {tuple(p) for p in brute_automorphisms(sub.reduced_B)}
        assert {tuple(s) for s in grp.elements} == brute

