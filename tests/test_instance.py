"""Instance parsing, conversion, objectives, penalty transform, sampling."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symbb.instance import (BqopInstance, InstanceError, QapInstance,
                            bqop_from_json, bqop_to_json, objective,
                            parse_qaplib, qap_to_bqop,
                            sample_scaled_distribution)
from tests.conftest import (brute_optimum, format_qaplib, parse_solution,
                            random_bqop, to_penalty_qubo)


def small_qap(n=4, support=(0, 2)):
    """A QAP with rank-one binary flow matrix f f^T (diagonal included)."""
    f = np.zeros(n, dtype=np.int64)
    f[list(support)] = 1
    A = np.outer(f, f)
    rng = np.random.default_rng(7)
    B = rng.integers(0, 9, (n, n))
    B = B + B.T
    np.fill_diagonal(B, 0)
    return QapInstance(n=n, A=A, B=B.astype(np.int64)), f


class TestParsing:
    def test_round_trip(self):
        qap, _ = small_qap()
        again = parse_qaplib(format_qaplib(qap))
        assert again.n == qap.n
        assert np.array_equal(again.A, qap.A)
        assert np.array_equal(again.B, qap.B)

    def test_whitespace_agnostic(self):
        qap, _ = small_qap()
        text = " ".join(format_qaplib(qap).split())
        again = parse_qaplib(text)
        assert np.array_equal(again.B, qap.B)

    def test_truncated(self):
        qap, _ = small_qap()
        tokens = format_qaplib(qap).split()
        with pytest.raises(InstanceError, match="truncated"):
            parse_qaplib(" ".join(tokens[:-3]))

    def test_trailing_tokens(self):
        qap, _ = small_qap()
        with pytest.raises(InstanceError, match="trailing"):
            parse_qaplib(format_qaplib(qap) + " 7")

    def test_non_numeric(self):
        with pytest.raises(InstanceError, match="non-numeric"):
            parse_qaplib("2  0 1 1 0  0 x x 0")

    def test_asymmetric_rejected(self):
        with pytest.raises(InstanceError, match="not symmetric"):
            parse_qaplib("2  0 1 0 0  0 1 1 0")

    def test_empty(self):
        with pytest.raises(InstanceError):
            parse_qaplib("")

    def test_entry_beyond_int64(self):
        with pytest.raises(InstanceError, match="64 bits"):
            parse_qaplib("2  0 1 1 0  0 12345678901234567890 12345678901234567890 0")


class TestConversion:
    def test_full_diagonal_convention(self):
        qap, f = small_qap()
        bqop = qap_to_bqop(qap)
        assert bqop.m == int(f.sum())
        assert np.array_equal(bqop.B, qap.B)

    def test_zero_diagonal_convention(self):
        qap, f = small_qap()
        A = qap.A.copy()
        np.fill_diagonal(A, 0)
        bqop = qap_to_bqop(QapInstance(n=qap.n, A=A, B=qap.B))
        assert bqop.m == int(f.sum())

    def test_non_rank_one_rejected(self):
        B = np.zeros((3, 3), dtype=np.int64)
        A = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=np.int64)
        with pytest.raises(InstanceError, match="rank-one"):
            qap_to_bqop(QapInstance(n=3, A=A, B=B))

    def test_qap_value_identity(self):
        # QAP value of every permutation equals the BQOP objective at the
        # permuted support indicator.
        qap, f = small_qap(n=5, support=(1, 3))
        bqop = qap_to_bqop(qap)
        supp = np.flatnonzero(f)
        for perm in itertools.permutations(range(qap.n)):
            p = np.array(perm)
            qap_val = int(np.sum(qap.A * qap.B[np.ix_(p, p)]))
            x = np.zeros(qap.n, dtype=np.int64)
            x[p[supp]] = 1
            assert qap_val == objective(bqop, x)


class TestObjective:
    def test_permutation_invariance(self, bqop6):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = rng.permutation(bqop6.n)
            Bp = bqop6.B[np.ix_(p, p)]
            permuted = BqopInstance(n=bqop6.n, B=Bp, m=bqop6.m)
            x = rng.integers(0, 2, bqop6.n)
            y = np.empty_like(x)
            y[p] = x  # y is x transported back to the original indexing
            assert objective(permuted, x) == objective(bqop6, y)

    def test_bad_entries(self, bqop6):
        with pytest.raises(InstanceError):
            objective(bqop6, np.full(bqop6.n, 2))

    def test_wrong_length(self, bqop6):
        with pytest.raises(InstanceError):
            objective(bqop6, np.zeros(bqop6.n + 1, dtype=np.int64))


class TestPenaltyQubo:
    @given(st.integers(0, 2 ** 6 - 1), st.integers(1, 50))
    @settings(max_examples=60, deadline=None)
    def test_penalty_identity(self, mask, lam):
        rng = np.random.default_rng(5)
        inst = random_bqop(rng, 6, 3)
        x = np.array([(mask >> i) & 1 for i in range(6)], dtype=np.int64)
        Q, c = to_penalty_qubo(inst, lam)
        lhs = int(x @ Q @ x) + c
        rhs = objective(inst, x) + lam * (int(x.sum()) - inst.m) ** 2
        assert lhs == rhs

    def test_feasible_recovers_objective(self, bqop6):
        Q, c = to_penalty_qubo(bqop6, 17)
        x = np.zeros(6, dtype=np.int64)
        x[:3] = 1
        assert int(x @ Q @ x) + c == objective(bqop6, x)

    def test_unconstrained_min_matches_constrained(self, bqop6):
        lam = 1 + int(np.abs(bqop6.B).sum())
        Q, c = to_penalty_qubo(bqop6, lam)
        best = min(int(x @ Q @ x) + c
                   for x in (np.array([(k >> i) & 1 for i in range(6)])
                             for k in range(64)))
        assert best == brute_optimum(bqop6)

    def test_nonpositive_lambda(self, bqop6):
        with pytest.raises(InstanceError):
            to_penalty_qubo(bqop6, 0)


class TestSampling:
    def test_deterministic(self, bqop6):
        a = sample_scaled_distribution(bqop6, 200, optimum=50, seed=3)
        b = sample_scaled_distribution(bqop6, 200, optimum=50, seed=3)
        assert np.array_equal(a.values, b.values)
        c = sample_scaled_distribution(bqop6, 200, optimum=50, seed=4)
        assert not np.array_equal(a.values, c.values)

    def test_optimum_scales_to_zero(self, bqop6):
        # 200 samples with seed 0 draw every one of the 20 supports.
        supports = {frozenset(np.random.default_rng([0, i]).choice(6, 3, replace=False))
                    for i in range(200)}
        assert len(supports) == 20
        opt = brute_optimum(bqop6)
        dist = sample_scaled_distribution(bqop6, 200, optimum=opt, seed=0)
        assert dist.values.min() == pytest.approx(0.0)

    def test_zero_optimum_rejected(self, bqop6):
        with pytest.raises(InstanceError):
            sample_scaled_distribution(bqop6, 10, optimum=0)

    def test_histogram_probabilities(self, bqop6):
        dist = sample_scaled_distribution(bqop6, 500, optimum=33, seed=1)
        assert dist.probabilities.sum() == pytest.approx(1.0)


class TestSerialization:
    def test_json_round_trip(self, bqop6):
        again = bqop_from_json(bqop_to_json(bqop6))
        assert again.n == bqop6.n and again.m == bqop6.m
        assert np.array_equal(again.B, bqop6.B)

    def test_bad_triangle_length(self):
        with pytest.raises(InstanceError):
            bqop_from_json('{"n": 3, "m": 1, "B_lower": [0, 1]}')

    def test_solution_bitstring(self):
        x = parse_solution("010011\n", 6)
        assert np.array_equal(x, [0, 1, 0, 0, 1, 1])

    def test_solution_index_list(self):
        x = parse_solution("2 5 6", 6)
        assert np.array_equal(x, [0, 1, 0, 0, 1, 1])

    def test_solution_out_of_range(self):
        with pytest.raises(InstanceError):
            parse_solution("7", 6)


class TestValidation:
    def test_nonzero_diagonal_rejected(self):
        B = np.eye(4, dtype=np.int64)
        with pytest.raises(InstanceError, match="diagonal"):
            BqopInstance(n=4, B=B, m=2)

    def test_asymmetric_rejected(self):
        B = np.zeros((3, 3), dtype=np.int64)
        B[0, 1] = 1
        with pytest.raises(InstanceError, match="symmetric"):
            BqopInstance(n=3, B=B, m=1)

    def test_bad_cardinality(self):
        B = np.zeros((3, 3), dtype=np.int64)
        with pytest.raises(InstanceError, match="cardinality"):
            BqopInstance(n=3, B=B, m=4)

    def test_value_limit(self):
        # The absolute entries sum to 2^53 exactly: refused.  Two less: kept.
        for half, ok in ((2 ** 52, False), (2 ** 52 - 1, True)):
            B = np.array([[0, -half], [-half, 0]], dtype=np.int64)
            if ok:
                assert BqopInstance(n=2, B=B, m=1).B[0, 1] == -half
            else:
                with pytest.raises(InstanceError, match=r"2\^53"):
                    BqopInstance(n=2, B=B, m=1)

    @pytest.mark.parametrize("entry", [1.5, float("nan"), float("inf"), -float("inf"),
                                       2.0 ** 63, 2 ** 70, "1", None])
    @pytest.mark.parametrize("build", [
        lambda M: BqopInstance(n=2, B=M, m=1),
        lambda M: QapInstance(n=2, A=[[1, 0], [0, 0]], B=M),
    ], ids=["bqop", "qap"])
    def test_entries_must_be_integers(self, build, entry):
        # An entry is neither rounded, wrapped nor parsed; an integral float
        # is kept as its integer.
        with pytest.raises(InstanceError, match="must be integers"):
            build([[0, entry], [entry, 0]])
        inst = build([[0, 2.0], [2.0, 0]])
        assert inst.B.dtype == np.int64 and inst.B.tolist() == [[0, 2], [2, 0]]

    def test_value_sum_beyond_int64_refused(self):
        # The sum of these entries, 30 * 2^61, overflows int64.
        B = np.full((6, 6), 2 ** 61, dtype=np.int64)
        np.fill_diagonal(B, 0)
        with pytest.raises(InstanceError, match=r"2\^53"):
            BqopInstance(n=6, B=B, m=3)
