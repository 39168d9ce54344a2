"""Automorphism enumeration, orbits, solution expansion."""

import math
import tracemalloc

import numpy as np
import pytest

from symbb import symmetry
from symbb.symmetry import (GroupTooLargeError, PermutationGroup,
                            automorphisms, candidates, first_leaf,
                            group_to_json_obj, orbit_report_rows, orbits,
                            pair_orbits, random_elements)
from tests.conftest import (brute_automorphisms, expand_solution, planted_bqop,
                            planted_rotation, topdown_automorphisms,
                            torus_matrix, torus_symmetries)


def reachability_orbits(elements):
    """Orbits as the classes of i ~ sigma(i) over every listed element."""
    d = elements.shape[1]
    reach = [{int(s[i]) for s in elements} for i in range(d)]
    return sorted({tuple(sorted(r)) for r in reach})


class TestAutomorphisms:
    def test_zero_matrix_full_symmetric_group(self):
        group = automorphisms(np.zeros((3, 3), dtype=np.int64))
        assert group.order == 6
        assert [o.members for o in orbits(group)] == [(0, 1, 2)]

    def test_weighted_cycle_dihedral(self, cycle6):
        group = automorphisms(cycle6)
        assert group.order == 12
        brute = {tuple(p) for p in brute_automorphisms(cycle6)}
        assert {tuple(s) for s in group.elements} == brute

    def test_matches_brute_force_random(self):
        for B in random_matrices():
            group = automorphisms(B)
            brute = {tuple(p) for p in brute_automorphisms(B)}
            assert {tuple(s) for s in group.elements} == brute

    def test_group_axioms(self, cycle6):
        group = automorphisms(cycle6)
        elems = {tuple(s) for s in group.elements}
        assert tuple(range(6)) in elems
        for a in group.elements:
            assert tuple(np.argsort(a)) in elems          # inverse
            for b in group.elements:
                assert tuple(a[b]) in elems               # closure

    def test_objective_invariance(self, cycle6):
        rng = np.random.default_rng(2)
        group = automorphisms(cycle6)
        for sigma in group.elements:
            x = rng.integers(0, 2, 6)
            assert x[sigma] @ cycle6 @ x[sigma] == x @ cycle6 @ x

    def test_planted_rotation_found(self):
        rng = np.random.default_rng(13)
        inst = planted_bqop(rng, blocks=2, block_size=4, m=3)
        group = automorphisms(inst.B)
        assert tuple(planted_rotation(2, 4)) in {tuple(s) for s in group.elements}

    def test_element_cap(self, cycle6):
        # The group is found either way; only listing it is capped, by its
        # entries, order times points: 12 x 6 for cycle6, 7! x 7 for S_7.
        for B, order in ((cycle6, 12), (np.zeros((7, 7), dtype=np.int64), 5040)):
            group = automorphisms(B)
            assert group.order == order
            entries = order * len(B)
            with pytest.raises(GroupTooLargeError,
                               match=f" {entries} entries, beyond the entry cap {entries - 1}$"):
                group_to_json_obj(group, entry_cap=entries - 1)
            listing = group_to_json_obj(group, entry_cap=entries)["elements"]
            assert listing.dtype == np.int64
            assert np.array_equal(listing, group.elements + 1)

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_torus_group(self, k):
        group = automorphisms(torus_matrix(k))
        assert group.order == 8 * k * k
        assert {tuple(s) for s in group.elements} == \
            {tuple(s) for s in torus_symmetries(k)}
        assert [o.members for o in orbits(group)] == \
            reachability_orbits(group.elements)

    def test_order_beyond_int64(self, two_pairs24):
        group = automorphisms(two_pairs24.B)
        assert group.order == 9_731_608_032_706_560_000 > 2 ** 63
        assert [o.members for o in orbits(group)] == \
            [(0, 1), (2, 3), tuple(range(4, 24))]

    def test_asymmetric_rejected(self):
        B = np.zeros((3, 3))
        B[0, 1] = 1
        with pytest.raises(ValueError):
            automorphisms(B)

    def test_deterministic_element_order(self, cycle6):
        a = automorphisms(cycle6).elements
        b = automorphisms(cycle6).elements
        assert np.array_equal(a, b)
        assert np.array_equal(a, a[np.lexsort(a.T[::-1])])


def uniform_matrix(n):
    """Every off-diagonal entry 3: the group is the symmetric group S_n."""
    B = np.full((n, n), 3, dtype=np.int64)
    np.fill_diagonal(B, 0)
    return B


def random_matrices():
    rng = np.random.default_rng(9)
    for _ in range(5):
        B = rng.integers(0, 3, (6, 6))
        B = B + B.T
        np.fill_diagonal(B, 0)
        yield B


class TestOrbitPruning:
    """The orbit-pruned search against the top-down search with one leaf
    search per coset, which it replaced."""

    @staticmethod
    def assert_matches_topdown(B):
        group = automorphisms(B)
        reference, pivots = topdown_automorphisms(B)
        assert group.order == reference.order
        assert np.array_equal(group.elements, reference.elements)
        assert orbits(group) == orbits(reference)
        assert [U.shape[0] for U in group.transversals] == \
            [U.shape[0] for U in reference.transversals]
        for U, V, i in zip(group.transversals, reference.transversals, pivots):
            assert np.array_equal(U[:, i], V[:, i])

    @pytest.mark.parametrize("k", range(3, 9))
    def test_tori(self, k):
        self.assert_matches_topdown(torus_matrix(k))

    def test_cycle(self, cycle6):
        self.assert_matches_topdown(cycle6)

    @pytest.mark.parametrize("seed, blocks, size", [(13, 2, 4), (3, 2, 6), (5, 3, 3), (7, 2, 8)])
    def test_planted(self, seed, blocks, size):
        inst = planted_bqop(np.random.default_rng(seed), blocks, size, m=3)
        self.assert_matches_topdown(inst.B)

    def test_random(self):
        for B in random_matrices():
            self.assert_matches_topdown(B)

    def test_order_beyond_int64(self, two_pairs24):
        group = automorphisms(two_pairs24.B)
        reference, _ = topdown_automorphisms(two_pairs24.B)
        assert group.order == reference.order
        assert orbits(group) == orbits(reference)

    @staticmethod
    def leaf_searches(monkeypatch, B) -> int:
        calls = 0
        real = symmetry.first_leaf

        def counting(*args, **kwargs):
            nonlocal calls
            calls += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(symmetry, "first_leaf", counting)
        automorphisms(B)
        return calls

    def test_symmetric_group_takes_one_search_per_level(self, monkeypatch):
        # One search per candidate image of each pivot took n(n - 1)/2 = 435.
        assert self.leaf_searches(monkeypatch, uniform_matrix(30)) <= 29

    def test_torus_takes_a_few_searches(self, monkeypatch):
        # One search per candidate image of each pivot took 102.
        assert self.leaf_searches(monkeypatch, torus_matrix(10)) <= 10

    def test_huge_symmetric_group(self):
        group = automorphisms(uniform_matrix(120))
        assert group.order == math.factorial(120)
        assert orbits(group) == (symmetry.Orbit(members=tuple(range(120))),)


class TestPermutationGroup:
    def test_holds_an_int64_transversal_without_a_copy(self):
        U = np.array([np.roll(np.arange(5), s) for s in range(5)], dtype=np.int64)
        group = PermutationGroup(5, [U])
        assert np.shares_memory(group.transversals[0], U)
        assert not U.flags.writeable
        with pytest.raises(ValueError):
            U[0, 0] = 1

    def test_builds_from_lists(self):
        rows = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
        group = PermutationGroup(3, [rows])
        assert group.order == 3
        assert group.transversals[0].dtype == np.int64
        assert group.transversals[0].tolist() == rows


class TestOrbits:
    def test_trivial_group_singletons(self):
        group = PermutationGroup(4, [])
        orbs = orbits(group)
        assert [o.members for o in orbs] == [(0,), (1,), (2,), (3,)]

    def test_partition_matches_reachability(self, cycle6):
        group = automorphisms(cycle6)
        reach = {(i, int(s[i])) for s in group.elements for i in range(6)}
        for orb in orbits(group):
            for i in orb.members:
                for j in orb.members:
                    assert (i, j) in reach

    def test_representative_is_min(self, cycle6):
        for orb in orbits(automorphisms(cycle6)):
            assert orb.representative == min(orb.members)


class TestPairOrbits:
    """Orbitals from a few random elements, against every listed element."""

    @pytest.mark.parametrize("k", [4, 5])
    def test_torus_orbitals_match_the_listed_group(self, k):
        group = automorphisms(torus_matrix(k))
        elements = random_elements(group, 8, np.random.default_rng(0))
        listed = {tuple(s) for s in group.elements}
        assert all(tuple(s) in listed for s in elements)
        labels = pair_orbits(elements)
        d = k * k
        # Two pairs share an orbital iff some element maps one to the other.
        reach = np.full((d, d), -1)
        for i in range(d):
            for j in range(d):
                if reach[i, j] < 0:
                    reach[group.elements[:, i], group.elements[:, j]] = i * d + j
        pairs = np.unique(reach, return_inverse=True)[1].reshape(d, d)
        assert np.array_equal(labels, pairs)

    def test_trivial_group(self):
        group = automorphisms(np.arange(9).reshape(3, 3) + np.arange(9).reshape(3, 3).T)
        elements = random_elements(group, 3, np.random.default_rng(0))
        assert np.array_equal(elements, np.tile(np.arange(3), (3, 1)))
        assert np.array_equal(np.sort(pair_orbits(elements).ravel()), np.arange(9))


def cubic_candidates(S, T):
    """The reference for ``candidates``: every pair of sorted rows compared
    in one n x n x n array."""
    rows_s, rows_t = np.sort(S, axis=1), np.sort(T, axis=1)
    return (np.diagonal(S)[:, None] == np.diagonal(T)[None, :]) & \
        (rows_s[:, None, :] == rows_t[None, :, :]).all(axis=2)


class TestCandidates:
    @pytest.mark.parametrize("k", [5, 10, 16])
    def test_matches_cubic_reference_on_tori(self, k):
        B = torus_matrix(k).astype(np.int64)
        rng = np.random.default_rng(k)
        p = rng.permutation(k * k)
        P = B[np.ix_(p, p)]
        for S, T in ((B, B), (B, P), (P, B)):
            assert np.array_equal(candidates(S, T), cubic_candidates(S, T))

    def test_matches_cubic_reference_on_random_pairs(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n = int(rng.integers(1, 30))
            S = rng.integers(-3, 4, (n, n))
            S = S + S.T
            p = rng.permutation(n)
            T = S[np.ix_(p, p)].copy()
            # A changed pair leaves some rows without their partner.
            if n > 1 and rng.random() < 0.5:
                T[0, 1] = T[1, 0] = T[0, 1] + 1
            assert np.array_equal(candidates(S, T), cubic_candidates(S, T))

    def test_memory_is_quadratic(self):
        rng = np.random.default_rng(5)
        S = rng.integers(0, 50, (600, 600))
        S = S + S.T
        tracemalloc.start()
        try:
            candidates(S, S)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The n x n x n comparison of ``cubic_candidates`` peaks at 212 MB here.
        assert peak < 32 * 2 ** 20


class TestFirstLeaf:
    def test_forced_map_must_be_a_permutation(self):
        # Both open indices are left with the single candidate 0.
        B = np.zeros((2, 2), dtype=np.int64)
        cand = np.array([[True, False], [True, False]])
        assert first_leaf(B, B, cand, np.full(2, -1)) is None

    def test_forced_map_must_preserve_the_matrix(self):
        B = np.array([[0, 1, 0], [1, 0, 2], [0, 2, 0]])
        cand = np.array([[False, False, True], [False, True, False],
                         [True, False, False]])
        assert first_leaf(B, B, cand, np.full(3, -1)) is None
        C = np.array([[0, 1, 1], [1, 0, 2], [1, 2, 0]])
        swap = np.array([[True, False, False], [False, False, True],
                         [False, True, False]])
        assert first_leaf(C, C, swap, np.full(3, -1)).tolist() == [0, 2, 1]

    def test_node_cap(self):
        B = np.zeros((5, 5), dtype=np.int64)
        cand = candidates(B, B)
        assert first_leaf(B, B, cand, np.full(5, -1), node_cap=0) is None
        assert first_leaf(B, B, cand, np.full(5, -1)).tolist() == [0, 1, 2, 3, 4]


class TestExpandSolution:
    @pytest.mark.parametrize("name", ["cycle6", "torus4"])
    def test_matches_element_images(self, name, cycle6):
        B = cycle6 if name == "cycle6" else torus_matrix(4)
        group = automorphisms(B)
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rng.integers(0, 2, B.shape[0])
            by_elements = sorted({tuple(x[sigma]) for sigma in group.elements})
            assert [tuple(im) for im in expand_solution(group, x)] == by_elements

    def test_all_ones_singleton(self, cycle6):
        group = automorphisms(cycle6)
        assert len(expand_solution(group, np.ones(6, dtype=np.int64))) == 1

    def test_cycle_unit_vector(self, cycle6):
        group = automorphisms(cycle6)
        x = np.zeros(6, dtype=np.int64)
        x[0] = 1
        assert len(expand_solution(group, x)) == 6

    def test_count_divides_order(self, cycle6):
        rng = np.random.default_rng(4)
        group = automorphisms(cycle6)
        for _ in range(10):
            x = rng.integers(0, 2, 6)
            assert group.order % len(expand_solution(group, x)) == 0


class TestReports:
    def test_group_json_one_based(self, cycle6):
        obj = group_to_json_obj(automorphisms(cycle6), 1_000_000)
        assert obj["order"] == 12
        assert min(min(e) for e in obj["elements"]) == 1

    def test_orbit_rows(self, cycle6):
        orbs = orbits(automorphisms(cycle6))
        rows = orbit_report_rows(orbs, scores=[1.5])
        assert rows[0]["members"] == "1 2 3 4 5 6"
        assert rows[0]["size"] == 6
        assert rows[0]["score"] == 1.5
