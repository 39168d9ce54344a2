"""Reduced subproblems obtained by fixing variables to 0 or 1.

Fixing I1 to one and I0 to zero leaves a cardinality-constrained problem on
the free set F with matrix ``B_FF`` plus a diagonal correction ``2 * sum over
I1 of B[k, i]`` (cross terms with fixed ones fold into the diagonal because
the free variables are binary), a constant offset ``sum of B over I1 x I1``
and residual cardinality ``m - |I1|``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .instance import BqopInstance
from .symmetry import PermutationGroup, automorphisms


@dataclass(frozen=True)
class FixSets:
    """Disjoint index sets fixed to 0 and 1; the free set is the complement."""

    i0: tuple[int, ...]
    i1: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "i0", tuple(sorted(set(int(i) for i in self.i0))))
        object.__setattr__(self, "i1", tuple(sorted(set(int(i) for i in self.i1))))
        if set(self.i0) & set(self.i1):
            raise ValueError("I0 and I1 overlap")

    def free(self, n: int) -> tuple[int, ...]:
        fixed = set(self.i0) | set(self.i1)
        if fixed and (min(fixed) < 0 or max(fixed) >= n):
            raise ValueError("fixed index out of range")
        return tuple(i for i in range(n) if i not in fixed)

    def with_zeros(self, extra) -> "FixSets":
        return FixSets(i0=self.i0 + tuple(extra), i1=self.i1)

    def with_one(self, j: int) -> "FixSets":
        return FixSets(i0=self.i0, i1=self.i1 + (j,))


@dataclass(frozen=True)
class Subproblem:
    """A reduced problem: minimize y^T reduced_B y + offset over binary y on
    the free indices with sum(y) = residual_m.  ``group``, its node group, is
    searched by ``subgroup`` the first time it is read, and the bound and the
    branching of the node both read it."""

    inst: BqopInstance
    fix: FixSets
    free: tuple[int, ...]
    reduced_B: np.ndarray
    offset: int
    residual_m: int

    @property
    def ell(self) -> int:
        return len(self.free)

    @cached_property
    def group(self) -> PermutationGroup:
        return subgroup(self)

    def lift(self, y) -> np.ndarray:
        """Map a reduced solution back to a full-length solution vector."""
        x = np.zeros(self.inst.n, dtype=np.int64)
        x[list(self.fix.i1)] = 1
        x[list(self.free)] = np.asarray(y, dtype=np.int64)
        return x


def reduce(inst: BqopInstance, fix: FixSets) -> Subproblem:
    """Build the reduced subproblem for the given fixing."""
    free = fix.free(inst.n)
    i1 = list(fix.i1)
    B = inst.B
    fr = list(free)
    reduced = B[np.ix_(fr, fr)].copy()
    if i1:
        corr = 2 * B[np.ix_(i1, fr)].sum(axis=0)
        reduced[np.diag_indices_from(reduced)] += corr
        offset = int(B[np.ix_(i1, i1)].sum())
    else:
        offset = 0
    reduced.setflags(write=False)
    return Subproblem(inst=inst, fix=fix, free=free, reduced_B=reduced,
                      offset=offset, residual_m=inst.m - len(i1))


@dataclass(frozen=True)
class Infeasible:
    pass


@dataclass(frozen=True)
class SolvedLeaf:
    value: int
    witness: np.ndarray  # full-length solution vector


def solve_exactly(sub: Subproblem):
    """Infeasible, or the SolvedLeaf of the optimum found by enumerating every
    support of size ``residual_m``; ties keep the first support in
    lexicographic order."""
    r, ell = sub.residual_m, sub.ell
    if r < 0 or r > ell:
        return Infeasible()
    best_val, best_y = None, None
    for support in itertools.combinations(range(ell), r):
        idx = np.array(support, dtype=np.int64)
        val = int(sub.reduced_B[np.ix_(idx, idx)].sum())
        if best_val is None or val < best_val:
            best_val = val
            best_y = idx
    y = np.zeros(ell, dtype=np.int64)
    y[best_y] = 1
    return SolvedLeaf(value=sub.offset + best_val, witness=sub.lift(y))


# Random starts of the swap search besides the trivial completion, drawn from
# a fixed seed so that reruns find the same completion.
SWAP_STARTS = 3
SWAP_SEED = 0


def swap_search(sub: Subproblem) -> tuple[int, np.ndarray]:
    """A cheap feasible completion: the reduced value y^T reduced_B y and the
    0/1 vector y of the best local minimum that a best-improvement swap search
    reaches from the trivial completion (the first ``residual_m`` free
    indices) and from ``SWAP_STARTS`` random supports.  A swap trades one
    index i of the support for one index j outside it; ties keep the first
    (i, j) pair.  Starting from the trivial completion, the value is at most
    its value.

    Each swap is one pass over the ell x ell pairs: with Rx = reduced_B y,
    kept up to date, the swap changes the value by (2 Rx_j + R_jj) - (2 Rx_i
    - R_ii) - 2 R_ij, and pairs that are not (in, out) get ``big`` added,
    which is more than any change can be."""
    R = sub.reduced_B
    r, ell = sub.residual_m, sub.ell
    diag, R2 = np.diagonal(R), 2 * R
    big = 4 * int(np.abs(R).sum()) + 1
    keys = np.random.default_rng(SWAP_SEED).random(
        (SWAP_STARTS if 0 < r < ell else 0, ell))
    best_val, best_y = None, None
    for support in [np.arange(r), *np.argsort(keys, axis=1)[:, :r]]:
        y = np.zeros(ell, dtype=bool)
        y[support] = True
        Rx = R[:, y].sum(axis=1)
        val = int(Rx[y].sum())
        while 0 < r < ell:
            g = 2 * Rx
            delta = np.where(y, big, g + diag)[None, :] - R2 \
                - np.where(y, g - diag, -big)[:, None]
            k = int(np.argmin(delta))
            if delta.flat[k] >= 0:
                break
            i, j = divmod(k, ell)
            y[i], y[j] = False, True
            Rx += R[j] - R[i]
            val += int(delta.flat[k])
        if best_val is None or val < best_val:
            best_val, best_y = val, y
    return best_val, best_y.astype(np.int64)


def feasibility_status(sub: Subproblem, leaf_threshold: int, leaf_band: int):
    """Classify a subproblem as Infeasible or SolvedLeaf, or return None for
    an open node.

    A uniform reduced matrix, with every diagonal entry a and every other
    entry b, gives every completion the value offset + r a + r (r - 1) b for
    r = ``residual_m``, so the first r free indices are an optimal witness;
    the all-zero matrix is one.  Leaves with a unique completion (residual 0
    or |F|) and small leaves (|F| <= leaf_threshold and the residual within
    ``leaf_band`` of either end) are solved exactly.
    """
    R = sub.reduced_B
    r, ell = sub.residual_m, sub.ell
    if r < 0 or r > ell:
        return Infeasible()
    a = int(R[0, 0]) if ell else 0
    b = int(R[0, 1]) if ell > 1 else 0
    if np.array_equal(R, b + (a - b) * np.eye(ell, dtype=np.int64)):
        y = np.zeros(ell, dtype=np.int64)
        y[:r] = 1
        return SolvedLeaf(value=sub.offset + r * a + r * (r - 1) * b, witness=sub.lift(y))
    if r in (0, ell) or (ell <= leaf_threshold and
                         (r <= leaf_band or r >= ell - leaf_band)):
        return solve_exactly(sub)
    return None


def subgroup(sub: Subproblem) -> PermutationGroup:
    """The automorphism group of the reduced matrix, acting on reduced
    indices: the largest group valid for orbital branching at this node.  It
    is searched from the reduced matrix at every call, so the engine reads it
    only through ``Subproblem.group``, once per subproblem; at the root that
    matrix is ``inst.B`` itself."""
    return automorphisms(sub.reduced_B)
