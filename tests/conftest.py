"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the package's own algorithms: optima come
from exhaustive enumeration, automorphism groups from brute force over all
permutations, and cone distances from alternating projections.  The one
exception is ``topdown_automorphisms``, the search without orbit pruning,
which shares the package's leaf search but runs it for every candidate
image of every pivot.  ``audited`` checks the branch-and-bound engine from
outside, against the optima of ``subproblem.solve_exactly``.
"""

import contextlib
import itertools
import math

import numpy as np
import pytest

from symbb import bb
from symbb.instance import BqopInstance, InstanceError, QapInstance
from symbb.subproblem import SolvedLeaf, reduce, solve_exactly
from symbb.symmetry import PermutationGroup, _refine, candidates, first_leaf


# --- instance factories ----------------------------------------------------

def random_bqop(rng, n, m, low=-10, high=30):
    """Random symmetric integer instance with zero diagonal."""
    B = rng.integers(low, high, (n, n))
    B = B + B.T
    np.fill_diagonal(B, 0)
    return BqopInstance(n=n, B=B.astype(np.int64), m=m)


def planted_bqop(rng, blocks, block_size, m, low=-5, high=12):
    """Instance with a planted cyclic symmetry in every block.

    Index (a, i) denotes position i of block a; entries depend only on the
    block pair and the circular offset i - j, so the simultaneous rotation of
    all blocks is an automorphism by construction.
    """
    r = block_size
    W = rng.integers(low, high, (blocks, blocks, r)).astype(np.int64)
    for a in range(blocks):
        for c in range(a, blocks):
            for t in range(r):
                W[c, a, (-t) % r] = W[a, c, t]
    n = blocks * r
    B = np.zeros((n, n), dtype=np.int64)
    for a in range(blocks):
        for c in range(blocks):
            for i in range(r):
                for j in range(r):
                    B[a * r + i, c * r + j] = W[a, c, (i - j) % r]
    np.fill_diagonal(B, 0)
    assert np.array_equal(B, B.T)
    return BqopInstance(n=n, B=B, m=m)


def torus_matrix(k, seed=0, weight=None):
    """Cost matrix of the k x k wrap-around grid, cell (r, c) at index r*k + c.

    The cost of two cells depends only on the unordered pair of wrap-around
    distances along the two axes, with a distinct nonzero weight per pair, so
    the translations and the 8 symmetries of the square preserve it.  An
    explicit ``weight`` table, symmetric and indexed by the two distances,
    replaces the draw."""
    def dist(t):
        return np.minimum(t % k, -t % k)

    h = k // 2 + 1
    if weight is None:
        weight = 1 + np.random.default_rng(seed).permutation(h * h).reshape(h, h)
        weight = np.minimum(weight, weight.T)   # one weight per unordered pair
        weight[0, 0] = 0
    weight = np.asarray(weight)
    r, c = np.divmod(np.arange(k * k), k)
    return weight[dist(r[:, None] - r[None, :]), dist(c[:, None] - c[None, :])]


def torus_symmetries(k):
    """The 8 k^2 maps (r, c) -> point symmetry of (r, c) plus a translation,
    as image arrays."""
    r, c = np.divmod(np.arange(k * k), k)
    points = [(r, c), (c, r)]
    points += [(sr * a, sc * b) for a, b in points for sr in (1, -1) for sc in (1, -1)
               if (sr, sc) != (1, 1)]
    return [((a + tr) % k) * k + (b + tc) % k
            for a, b in points for tr in range(k) for tc in range(k)]


def planted_rotation(blocks, block_size):
    """The simultaneous one-step rotation planted by planted_bqop."""
    sigma = np.empty(blocks * block_size, dtype=np.int64)
    for a in range(blocks):
        for i in range(block_size):
            sigma[a * block_size + i] = a * block_size + (i + 1) % block_size
    return sigma


def soundness_instance(i):
    """Instance i of the soundness-suite stream: n = 6 + i % 9, every fourth
    one planted."""
    rng = np.random.default_rng(1000 + i)
    n = 6 + i % 9
    m = int(rng.integers(2, n - 1))
    if i % 4 == 3:
        bs = 3 if n % 3 == 0 else 2
        return planted_bqop(rng, blocks=n // bs, block_size=bs, m=m)
    return random_bqop(rng, n, m)


# --- test-only transforms --------------------------------------------------

def format_qaplib(qap: QapInstance) -> str:
    """Serialize to QAPLIB .dat text (round-trips through parse_qaplib)."""
    lines = [str(qap.n), ""]
    for M in (qap.A, qap.B):
        lines.extend(" ".join(str(v) for v in row) for row in M)
        lines.append("")
    return "\n".join(lines)


def to_penalty_qubo(inst: BqopInstance, lam) -> tuple[np.ndarray, int]:
    """Return (Q, c) with x^T Q x + c == x^T B x + lam*(sum(x) - m)^2 for all
    binary x, where c = lam*m**2.  Linear terms are folded into the diagonal
    using x_i^2 = x_i.  Exact in integer arithmetic when lam is an integer."""
    if lam <= 0:
        raise InstanceError("penalty parameter must be positive")
    n, m = inst.n, inst.m
    if isinstance(lam, int):
        Q = inst.B + lam * (np.ones((n, n), dtype=np.int64) - 2 * m * np.eye(n, dtype=np.int64))
    else:
        Q = inst.B + lam * (np.ones((n, n)) - 2 * m * np.eye(n))
    return Q, lam * m * m


def parse_solution(text: str, n: int) -> np.ndarray:
    """Parse a solution file: either one line of n characters '0'/'1', or a
    whitespace-separated list of 1-based support indices."""
    tokens = text.split()
    if not tokens:
        raise InstanceError("empty solution file")
    if len(tokens) == 1 and len(tokens[0]) == n and set(tokens[0]) <= {"0", "1"}:
        return np.array([int(c) for c in tokens[0]], dtype=np.int64)
    x = np.zeros(n, dtype=np.int64)
    for tok in tokens:
        try:
            i = int(tok)
        except ValueError:
            raise InstanceError(f"non-numeric token {tok!r} in solution file") from None
        if not (1 <= i <= n):
            raise InstanceError(f"support index {i} out of range 1..{n}")
        x[i - 1] = 1
    return x


def expand_solution(group, x) -> list[np.ndarray]:
    """The distinct images x o sigma of x under a PermutationGroup, sorted
    lexicographically.

    Since sigma = u_1 o ... o u_t, the images are built one transversal at a
    time, keeping only the distinct ones after each, so no step holds more
    rows than the orbit of x times one transversal."""
    x = np.asarray(x, dtype=np.int64)
    if x.size != group.domain_size:
        raise ValueError("dimension mismatch")
    images = x[None, :]
    for U in group.transversals:
        images = np.unique(images[:, U].reshape(-1, x.size), axis=0)
    return list(images)


# --- oracles ---------------------------------------------------------------

def brute_optimum(inst):
    """Exact BQOP optimum by enumerating all m-subsets."""
    B = inst.B
    best = None
    for support in itertools.combinations(range(inst.n), inst.m):
        idx = np.array(support)
        val = int(B[np.ix_(idx, idx)].sum())
        if best is None or val < best:
            best = val
    return best


def brute_sub_optimum(sub):
    """Exact optimum of a reduced subproblem (offset included); None if
    infeasible."""
    r, ell = sub.residual_m, sub.ell
    if r < 0 or r > ell:
        return None
    best = None
    for support in itertools.combinations(range(ell), r):
        idx = np.array(support, dtype=np.int64)
        val = sub.offset + int(sub.reduced_B[np.ix_(idx, idx)].sum())
        if best is None or val < best:
            best = val
    return best


def lifted_form(prob, u, v, s):
    """Evaluate z^T (Q_obj + lam Q_pen) z at z = (u, v, s)."""
    z = np.concatenate([np.asarray(u, dtype=float), np.asarray(v, dtype=float), [s]])
    return float(z @ prob.q @ z)


def penalty_value(u, v, s, b):
    """Direct evaluation of the penalty terms; oracle for ``assemble``."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return float(np.sum((u + v - s) ** 2) + np.sum(u * v) + (u.sum() - b * s) ** 2)


def brute_automorphisms(B):
    """All permutations preserving B, by exhaustive search (d <= 8)."""
    B = np.asarray(B)
    d = B.shape[0]
    found = []
    for perm in itertools.permutations(range(d)):
        p = np.array(perm)
        if np.array_equal(B[np.ix_(p, p)], B):
            found.append(p)
    return found


def topdown_automorphisms(B):
    """The automorphism group of B and the pivot of each of its transversals,
    by one leaf search for every candidate image of every pivot of the
    identity path, top level first: the reference for the orbit-pruned
    ``symmetry.automorphisms``, whose rows must match it."""
    B = np.asarray(B)
    d = B.shape[0]
    cand = candidates(B, B)
    image = np.full(d, -1, dtype=np.int64)
    transversals, pivots = [], []
    while True:
        open_idx = np.flatnonzero(image < 0)
        counts = cand[open_idx].sum(axis=1)
        if np.all(counts == 1):
            break
        i = int(open_idx[int(np.argmin(counts))])
        reps = [np.arange(d, dtype=np.int64)]
        for j in np.flatnonzero(cand[i]).tolist():
            if j != i:
                image[i] = j
                leaf = first_leaf(B, B, _refine(B, B, cand, i, j), image)
                if leaf is not None:
                    reps.append(leaf)
        image[i] = i
        cand = _refine(B, B, cand, i, i)
        if len(reps) > 1:
            transversals.append(reps)
            pivots.append(i)
    return PermutationGroup(domain_size=d, transversals=transversals), pivots


def face_matrix(ell):
    """The dense orthonormal basis of the face of the lift of order 2 ell +
    1: columns (e_j - e_{ell+j}) / sqrt(2), one for each j, then (1/2 * 1,
    1/2 * 1, 1) / kappa with kappa^2 = ell / 2 + 1.  Every feasible lift
    (u, 1 - u, 1) lies in its range."""
    d = 2 * ell + 1
    V = np.zeros((d, ell + 1))
    for j in range(ell):
        V[j, j], V[ell + j, j] = 1 / np.sqrt(2), -1 / np.sqrt(2)
    V[:, ell] = np.r_[np.full(2 * ell, 0.5), 1.0] / np.sqrt(ell / 2 + 1)
    return V


def face_negative_part(X):
    """lambda_min(N), 0.5 * ||negpart(N)||^2 and V~ negpart(N) V~^T for N =
    V~^T X V~, with V~ = ``face_matrix``, from dense products and a full
    ``eigh``."""
    V = face_matrix(X.shape[0] // 2)
    w, U = np.linalg.eigh(V.T @ X @ V)
    wneg = np.minimum(w, 0.0)
    return w[0], 0.5 * float(wneg @ wneg), V @ ((U * wneg) @ U.T) @ V.T


def alternating_projection_distance(M, tol=1e-11, max_iter=200_000):
    """Distance of M, of order 2 ell + 1, to the face cone {Y1 + Y2: Y2 >=
    0, V~^T Y1 V~ PSD} via alternating projections, with V~ =
    ``face_matrix``, and whether the run converged.

    Minimizes ||M - Y1 - Y2|| by block-coordinate projection: Y1 onto {Y1:
    V~^T Y1 V~ PSD} given Y2, which is X - V~ negpart(V~^T X V~) V~^T for X
    = M - Y2, then Y2 onto the nonnegative cone given Y1.  Independent of
    the package's APG formulation.  Every iterate is a feasible
    decomposition, so a run that stops at ``max_iter`` (``converged``
    False) still returns an upper bound on the distance.
    """
    M = np.asarray(M, dtype=float)
    Y2 = np.zeros_like(M)
    prev = np.inf
    for _ in range(max_iter):
        Y1 = M - Y2 - face_negative_part(M - Y2)[2]
        Y2 = np.maximum(M - Y1, 0.0)
        g = float(np.linalg.norm(M - Y1 - Y2))
        if abs(prev - g) <= tol * max(1.0, g):
            return g, True
        prev = g
    return g, False


@contextlib.contextmanager
def audited():
    """Check every bound, branch and merge of the tree engine by enumeration
    while the block runs (small n only: each check solves its nodes exactly).

    On entry, wraps whatever ``bb.nb_bound``, ``bb.branch_node`` and
    ``bb.isomorphic`` hold, so a fault planted before entering is checked
    too; restores them on exit.  ``solve_target`` and ``estimate`` both
    reach the engine through these names.  A check fails with an
    AssertionError; one raised in a worker thread reaches the caller
    through the pool's map.

    - bound: a finite ``a`` plus the offset is at most the node's optimum,
      and a bound decided by a completion (no iterations) has the optimum
      at most ``b`` plus the offset, below the target;
    - branch: one child keeps the node's optimum;
    - merge: the two subproblems ``isomorphic`` matches have equal optima.
    """
    real_bound, real_branch, real_isomorphic = bb.nb_bound, bb.branch_node, bb.isomorphic

    def nb_bound(prob, target, *args, **kwargs):
        res = real_bound(prob, target, *args, **kwargs)
        sub = prob.sub
        if math.isfinite(res.a):
            opt = solve_exactly(sub).value
            assert res.a + sub.offset <= opt, \
                f"invalid bound at {sub.fix}: {res.a + sub.offset} > {opt}"
        elif res.iterations == 0:
            # Decided by a completion below the target: b is its value.
            opt = solve_exactly(sub).value
            assert opt <= res.b + sub.offset < target, \
                f"no completion of {sub.fix} at {res.b + sub.offset} < {target}"
        return res

    def branch_node(sub, *args, **kwargs):
        children = real_branch(sub, *args, **kwargs)
        child_opts = [leaf.value for leaf in
                      (solve_exactly(reduce(sub.inst, f)) for f in children)
                      if isinstance(leaf, SolvedLeaf)]
        parent_opt = solve_exactly(sub).value
        assert child_opts and parent_opt == min(child_opts), \
            f"branching at {sub.fix} lost the optimum {parent_opt}"
        return children

    def isomorphic(retained, sub):
        witness = real_isomorphic(retained, sub)
        if witness is not None:
            assert solve_exactly(sub).value == solve_exactly(retained).value, \
                f"unsound merge of {sub.fix} into {retained.fix}"
        return witness

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bb, "nb_bound", nb_bound)
        mp.setattr(bb, "branch_node", branch_node)
        mp.setattr(bb, "isomorphic", isomorphic)
        yield


# --- fixtures --------------------------------------------------------------

@pytest.fixture
def bqop6():
    rng = np.random.default_rng(42)
    return random_bqop(rng, 6, 3)


@pytest.fixture
def two_pairs24():
    """24 variables, m = 6, all costs zero but two pairs of different weight:
    the group has order 4 * 20!, beyond int64."""
    B = np.zeros((24, 24), dtype=np.int64)
    B[0, 1] = B[1, 0] = -1
    B[2, 3] = B[3, 2] = -2
    return BqopInstance(n=24, B=B, m=6)


@pytest.fixture
def cycle6():
    """Weighted 6-cycle adjacency matrix; automorphism group is dihedral of
    order 12."""
    B = np.zeros((6, 6), dtype=np.int64)
    for i in range(6):
        B[i, (i + 1) % 6] = B[(i + 1) % 6, i] = 5
    return B
