"""Lagrangian DNN lower bounds via Newton bracketing.

A subproblem (minimize y^T C y over binary y with sum(y) = b) is lifted to a
quadratic form in (u, v, s) of order 2*ell + 1, where v is the complement
slack for u and s the homogenizing scalar.  With penalty weight lam the
lifted matrix is

    Q = Q_obj + lam * Q_pen,

where Q_obj carries u^T C u and Q_pen carries sum_j (u_j + v_j - s)^2 +
sum_j u_j v_j + (sum_j u_j - b s)^2.  The dual of the conic relaxation asks
for the largest y with Q - H y in K* (PSD + entrywise-nonnegative matrices,
H the corner selector); that largest zero y* of the distance function

    g(y) = dist(Q - H y, K*)

equals the relaxation value, is approached from above by Newton steps on g,
and every iterate yields a validated lower bracket through an eigenvalue
correction.  The distance itself is computed by an accelerated proximal
gradient (APG) method over exactly nonnegative parts Y2 of Q - H y, whose
remainder it brings as close to PSD as it can.  With a target, APG stops as
soon as its current nonnegative iterate is certain to prove the target at
this Newton point.

Grounding (cited only): Kim, Kojima & Toh, "A Newton-bracketing method for a
simple conic optimization problem" (Optim. Methods Softw., 2021); Arima, Kim,
Kojima & Toh, "A robust Lagrangian-DNN method for a class of quadratic
optimization problems" (Comput. Optim. Appl., 2017).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from numbers import Integral, Real
from typing import get_args, get_type_hints

import numpy as np

from .subproblem import Subproblem, swap_search
from .symmetry import (PermutationGroup, components, orbits, pair_orbits,
                       random_elements)


# Newton takes a step only where g' is at least this; below it, bisection.
DPRIME_FLOOR = 1e-12
# g below this, relative to ||M||, counts as "already in the cone".
G_FLOOR = 1e-11
# The step exit of APG: every STEP_CHECK_EVERY-th iteration it reads the
# Newton step of its feasible momentum point; the step is settled once it
# moved by at most STEP_SETTLED since the previous reading.  A settled step
# stops APG only if it lands at least STEP_MARGIN above or below the prune
# level, a margin that absorbs the error of an inexact step on either side.
STEP_CHECK_EVERY = 25
STEP_SETTLED = 1.0
STEP_MARGIN = 0.5
# The block path: APG runs on the blocks of the node group's commutant
# (``block_basis``) at lifted orders from BLOCK_MIN_ORDER up, and on the full
# matrix below.  Full over block time per APG iteration, on torus and
# planted nodes (one BLAS thread, 2-core x86, numpy 2.4 with OpenBLAS):
# 0.56-1.08 at d = 17-25, 1.05-1.45 at d = 29-39, 1.14-2.35 at d = 41-71,
# 2.2 at d = 511.  Below 41 the gain is too small to repay the node group
# and the basis, which take a few ms per node.  BLOCK_ELEMENTS random group
# elements, drawn from BLOCK_SEED, define the orbitals; BLOCK_TOL is the
# relative tolerance of equal eigenvalues, of zero couplings and of the
# check of a split.
BLOCK_MIN_ORDER = 41
BLOCK_ELEMENTS = 8
BLOCK_SEED = 0
BLOCK_TOL = 1e-9
# The fields of one ``nb_bound`` trace row: the Newton step k, its point y,
# the bracket [a, b] after it, g and g' at y, and the APG solve's iterations
# and stop reason.
TRACE_FIELDS = ("k", "y", "a", "b", "g", "gprime", "apg_iterations", "apg_stop")


_RULES = {"at least 1": lambda v: v >= 1,
         "a non-negative finite number": lambda v: math.isfinite(v) and v >= 0,
         "a positive finite number": lambda v: math.isfinite(v) and v > 0}
# What the annotations int and float accept; only a bool is a bool.
_NUMBERS = {int: Integral, float: Real}


def setting(default, rule: str):
    """A settings field with this default whose value must be ``rule``."""
    return field(default=default, metadata={"rule": rule})


class Settings:
    """A settings dataclass that refuses its own bad values when it is
    built, with ``ValueError("<field> must be <what>, not <value>")``: each
    field must be of its annotated type (int, float, bool, None or a
    settings class), and each made by ``setting`` must then meet its rule,
    one of ``_RULES`` by the words of its message, unless it is None."""

    def __post_init__(self):
        hints = get_type_hints(type(self))
        for f in fields(self):
            rule, value = f.metadata.get("rule"), getattr(self, f.name)
            kinds = get_args(hints[f.name]) or (hints[f.name],)
            if not any(isinstance(value, _NUMBERS.get(k, k)) and
                       isinstance(value, bool) == (k is bool) for k in kinds):
                raise ValueError(f"{f.name} must be {f.type}, not {value!r}")
            if rule is not None and value is not None and not _RULES[rule](value):
                raise ValueError(f"{f.name} must be {rule}, not {value}")


@dataclass(frozen=True)
class ApgParams(Settings):
    # Stop on relative objective change below this.
    rel_tol: float = setting(1e-12, "a non-negative finite number")
    max_iter: int = setting(20000, "at least 1")


@dataclass(frozen=True)
class NbParams(Settings):
    # Converged when b - a <= gap_tol * max(1, |b|).
    gap_tol: float = setting(1e-6, "a non-negative finite number")
    max_iter: int = setting(60, "at least 1")
    apg: ApgParams = field(default_factory=ApgParams)


@dataclass(frozen=True)
class BlockBasis:
    """An orthonormal basis of R^d in which every matrix invariant under a
    group of permutations is block diagonal.  Family f is one block of
    ``families[f] = (size, copies)``: the same size x size matrix appears
    in each of its copies.  ``first`` holds the first copy of every family
    side by side.

    The families are packed side by side into the slots of one stack, so
    that the slots are about as wide as the largest family: ``take`` places
    the diagonal blocks of F^T X F, F = ``first``, into the stack (zero
    elsewhere) and ``pad`` marks the diagonal of each slot's unused rows.
    ``lifts[s]`` is the (d * K, width) array, K the most copies in slot s,
    whose row i * K + c holds entry i of the basis vectors of copy c (zero
    for a family with fewer copies), and ``copies[s, j]`` is the copies of
    the family of row j of slot s (zero on unused rows).  ``orbitals`` are
    the (d, d) orbital labels the basis was built from."""

    families: tuple[tuple[int, int], ...]
    first: np.ndarray
    take: np.ndarray
    pad: np.ndarray
    lifts: tuple[np.ndarray, ...]
    copies: np.ndarray
    orbitals: np.ndarray

    def invariant(self, X: np.ndarray) -> np.ndarray:
        """X averaged over every orbital: its orthogonal projection onto the
        matrices the basis block-diagonalises.  A mean keeps X >= 0, and
        the mean over an orbital and over its transpose agree on a
        symmetric X."""
        labels = self.orbitals.ravel()
        return (np.bincount(labels, weights=X.ravel()) / np.bincount(labels))[self.orbitals]

    def negative_part(self, X: np.ndarray) -> tuple[float, float, np.ndarray]:
        """lambda_min(X), f = 0.5 * ||negpart(X)||^2 and negpart(X) of an
        invariant symmetric X, from one batched ``eigh`` of the stack.  The
        unused diagonal lies above ||F^T X F||, so no padded eigenvalue is
        negative or the smallest.  The negative part is -Y Y^T, where Y
        holds every copy of each negative eigenvector scaled by
        sqrt(-lambda).  An eigenvector of a slot may mix families only
        within an eigenspace, where the sum over it leaves no cross terms."""
        T = self.first.T @ X @ self.first
        S = np.append(T.ravel(), 0.0)[self.take]
        S[self.pad] = float(np.linalg.norm(T)) + 1.0
        w, V = np.linalg.eigh(S)
        wneg = np.minimum(w, 0.0)
        f_x = 0.5 * float(np.einsum("sj,sj,sj->", wneg, wneg,
                                    np.einsum("si,sij->sj", self.copies, V * V)))
        root = np.sqrt(-wneg)
        d = X.shape[0]
        Y = [(lift @ (V[s, :lift.shape[1], :r] * root[s, :r])).reshape(d, -1)
             for s, (lift, r) in enumerate(zip(self.lifts, (w < 0.0).sum(axis=1).tolist()))
             if r]
        if not Y:
            return float(w[:, 0].min()), f_x, np.zeros_like(X)
        Y = np.hstack(Y)
        return float(w[:, 0].min()), f_x, -(Y @ Y.T)


@dataclass(frozen=True)
class DnnProblem:
    """The lifted matrix Q = Q_obj + lam * Q_pen of the subproblem ``sub``,
    the penalty weight lam it was built with, and ``warm``, a nonnegative
    start of the APG solve at the first Newton point (None: zeros).  The
    corner s is the last index."""

    sub: Subproblem = field(repr=False, compare=False)
    q: np.ndarray
    lam: float
    warm: np.ndarray | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class ConeDistanceResult:
    g: float
    gprime: float
    y2: np.ndarray
    min_eig: float              # lambda_min(M - Y2)
    stop: str                   # why APG stopped: converged | target | cap | step
    iterations: int

    @property
    def converged(self) -> bool:
        return self.stop == "converged"


@dataclass(frozen=True)
class NbResult:
    status: str                 # Pruned | Branchable | Converged | IterLimit
    a: float
    b: float
    iterations: int
    lb_integer: int | None
    trace: tuple = ()
    # The (size, copies) block families every APG solve ran on; None on the
    # full path and where no solve ran.
    blocks: tuple[tuple[int, int], ...] | None = None
    # The last APG iterate Y2 over lam, the warm start of a child
    # (``assemble``); None where no solve ran.
    y2: np.ndarray | None = field(default=None, repr=False, compare=False)


def assemble(sub: Subproblem, lambda_scale: float,
             warm: tuple[tuple[int, ...], np.ndarray] | None = None) -> DnnProblem:
    """Build the lifted matrices of order 2*ell + 1 for a subproblem, with
    penalty weight lam = lambda_scale / ||B(I0,I1)||, the Frobenius norm of
    the reduced matrix.

    ``warm`` is the free indices of an ancestor and the ``NbResult.y2`` of
    its bound, Y2 over the ancestor's lam.  ``DnnProblem.warm`` is then its
    rows and columns at this node's (u, v, s) indices, times this node's
    lam: the penalty part of Q scales with lam, and so does the part of it
    that Y2 absorbs."""
    ell = sub.ell
    if ell == 0:
        raise ValueError("cannot assemble a DNN problem with no free variables")
    if lambda_scale <= 0:
        raise ValueError("lambda_scale must be positive")
    C = np.asarray(sub.reduced_B, dtype=float)
    norm = float(np.linalg.norm(C))
    if norm == 0.0:
        raise ValueError("reduced matrix is zero; no natural penalty scale")
    lam = lambda_scale / norm
    d = 2 * ell + 1
    s = d - 1
    b = float(sub.residual_m)

    q_obj = np.zeros((d, d))
    q_obj[:ell, :ell] = C

    # The residuals u_j + v_j - s of each j and sum_j u_j - b s are the rows
    # of A; A^T A is the sum of their squares, and the complementarity term
    # sum_j u_j v_j adds 1/2 on both sides of the diagonal of the uv block.
    eye = np.eye(ell)
    A = np.zeros((ell + 1, d))
    A[:ell, :ell] = A[:ell, ell:s] = eye
    A[:ell, s] = -1.0
    A[ell, :ell], A[ell, s] = 1.0, -b
    q_pen = A.T @ A
    q_pen[:ell, ell:s] += 0.5 * eye
    q_pen[ell:s, :ell] += 0.5 * eye

    start = None
    if warm is not None:
        free, y2 = warm
        if not set(sub.free) <= set(free):
            raise ValueError("a warm start must come from an ancestor of the node")
        at = np.searchsorted(free, sub.free)
        idx = np.r_[at, at + len(free), 2 * len(free)]
        start = lam * y2[np.ix_(idx, idx)]
    return DnnProblem(sub=sub, q=q_obj + lam * q_pen, lam=lam, warm=start)


def initial_upper(sub: Subproblem) -> float:
    """A value strictly above the reduced subproblem optimum: the objective of
    the completion using the residual_m smallest free indices, plus one."""
    y = np.zeros(sub.ell, dtype=np.int64)
    y[: sub.residual_m] = 1
    return float(y @ sub.reduced_B @ y) + 1.0


def _random_invariant(labels: np.ndarray, rng) -> np.ndarray:
    """A random symmetric matrix constant on every orbital."""
    v = rng.uniform(-1.0, 1.0, int(labels.max()) + 1)[labels]
    return v + v.T


def _cluster_norms(W: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Squared Frobenius norms of the blocks of W between the clusters of
    consecutive indices that begin at ``starts``."""
    return np.add.reduceat(np.add.reduceat(W * W, starts, axis=0), starts, axis=1)


def _split(basis: np.ndarray, wb: np.ndarray, wc: np.ndarray, m: int,
           k: int) -> np.ndarray:
    """The (d, copies, size) columns of one isotypic component, spanned by
    ``basis`` (d x m k): m eigenspaces of dimension k, side by side, with
    wb and wc two random invariant matrices in that basis.  A real-type
    component splits into k copies of one m x m block: the basis of each
    eigenspace is turned by the polar factor of its wb block with the first
    eigenspace, so that the copies line up.  The split is kept only if wc,
    in the new basis, holds the same block in every copy and nothing
    between copies; otherwise (complex-type irreducibles, as of cyclic
    groups) the component stays one block."""
    if k == 1:
        return basis[:, None]
    R = np.empty((m, k, k))
    for a in range(m):
        p, _, qt = np.linalg.svd(wb[a * k:(a + 1) * k, :k])
        R[a] = p @ qt
    T = np.einsum("aic,aibj,bje->acbe", R, wc.reshape(m, k, m, k), R)
    same = T[:, :1, :, :1] * np.eye(k)[None, :, None, :]
    if np.linalg.norm(T - same) > BLOCK_TOL * np.linalg.norm(wc):
        return basis[:, None]
    return np.einsum("dai,aic->dca", basis.reshape(-1, m, k), R)


def _families(labels: np.ndarray, rng) -> list[np.ndarray] | None:
    """The (d, copies, size) columns of every block family of the matrices
    constant on the orbitals ``labels``, largest first; None where the
    check finds a coupling between isotypic components.  The eigenspaces
    of one random invariant matrix A are irreducible, and a second one, B,
    couples exactly those of one isotypic component; a third, C, checks
    the result.  The eigenvectors come from the SVD of the positive
    definite A + c I, so that no ``eigh`` is spent outside APG."""
    d = labels.shape[0]
    A, B, C = (_random_invariant(labels, rng) for _ in range(3))
    shift = float(np.linalg.norm(A)) + 1.0
    U, s, _ = np.linalg.svd(A + shift * np.eye(d))
    starts = np.r_[0, np.flatnonzero(s[:-1] - s[1:] > BLOCK_TOL * shift) + 1]
    dims = np.diff(np.r_[starts, d])
    WB, WC = U.T @ B @ U, U.T @ C @ U
    coupled = _cluster_norms(WB, starts) > (BLOCK_TOL * np.linalg.norm(B)) ** 2
    n = starts.size
    comp = components([np.where(c, j, np.arange(n)) for j, c in enumerate(coupled.T)], n)
    apart = comp[:, None] != comp[None, :]
    if np.any(_cluster_norms(WC, starts)[apart] > (BLOCK_TOL * np.linalg.norm(C)) ** 2):
        return None
    cols = []
    for c in np.unique(comp):
        members = np.flatnonzero(comp == c)
        idx = np.concatenate([np.arange(starts[a], starts[a] + dims[a]) for a in members])
        k = int(dims[members[0]])
        if np.any(dims[members] != k):
            cols.append(U[:, idx][:, None])
        else:
            ix = np.ix_(idx, idx)
            cols.append(_split(U[:, idx], WB[ix], WC[ix], members.size, k))
    cols.sort(key=lambda c: (-c.shape[2], c.shape[1]))
    return cols


def _stacked(cols: list[np.ndarray], orbitals: np.ndarray) -> BlockBasis:
    """The ``BlockBasis`` of the families ``cols`` of the matrices constant
    on ``orbitals``, largest first, packed into slots as wide as the
    largest: first fit decreasing puts each family into the first slot it
    fits in."""
    sizes = [c.shape[2] for c in cols]
    top = sizes[0]
    slots: list[list[int]] = []
    for f, m in enumerate(sizes):
        slot = next((s for s in slots if sum(sizes[g] for g in s) + m <= top), None)
        if slot is None:
            slots.append([f])
        else:
            slot.append(f)
    d, n = cols[0].shape[0], sum(sizes)
    at = np.cumsum([0, *sizes])
    take = np.full((len(slots), top, top), n * n)
    pad = np.zeros(take.shape, dtype=bool)
    copies = np.zeros((len(slots), top))
    lifts = []
    for s, members in enumerate(slots):
        K = max(cols[f].shape[1] for f in members)
        lift = np.zeros((d, K, top))
        o = 0
        for f in members:
            m, k = sizes[f], cols[f].shape[1]
            r = np.arange(at[f], at[f] + m)
            take[s, o:o + m, o:o + m] = r[:, None] * n + r[None, :]
            copies[s, o:o + m] = k
            lift[:, :k, o:o + m] = cols[f]
            o += m
        pad[s, np.arange(o, top), np.arange(o, top)] = True
        lifts.append(lift[:, :, :o].reshape(d * K, o))
    return BlockBasis(families=tuple((m, c.shape[1]) for m, c in zip(sizes, cols)),
                      first=np.hstack([c[:, 0] for c in cols]), take=take, pad=pad,
                      lifts=tuple(lifts), copies=copies, orbitals=orbitals)


def block_basis(group: PermutationGroup) -> BlockBasis | None:
    """The basis in which every matrix of order d = 2 ell + 1 invariant
    under the node group on ell points, lifted to (u, v, s), is block
    diagonal; None where the largest block exceeds d / 2 or where the check
    of ``_families`` fails.  sigma acts on u and v alike and fixes s, and Q, H and so every
    APG iterate are invariant.  The trivial family alone has one row per
    orbit on (u, v, s), two per point orbit and one for s, so the trivial
    group, every involution and any group with as many orbits are turned
    down before any basis is built.

    A numerical block diagonalisation of the commutant (Murota, Kanno,
    Kojima & Kojima, Japan J. Indust. Appl. Math., 2010; ``_families``).
    The invariant matrices are spanned by the orbitals of ``BLOCK_ELEMENTS``
    random group elements, composed from the transversals.  Should they
    generate a smaller group, its invariant matrices include the node
    group's, and the blocks only come out larger."""
    ell = group.domain_size
    d = 2 * ell + 1
    if 2 * (2 * len(orbits(group)) + 1) > d:
        return None
    rng = np.random.default_rng(BLOCK_SEED)
    P = random_elements(group, BLOCK_ELEMENTS, rng)
    orbitals = pair_orbits(np.hstack([P, P + ell, np.full((len(P), 1), d - 1)]))
    cols = _families(orbitals, rng)
    if cols is None or 2 * cols[0].shape[2] > d:
        return None
    return _stacked(cols, orbitals)


def _negative_part(X: np.ndarray) -> tuple[float, float, np.ndarray]:
    """lambda_min(X), f = 0.5 * ||negpart(X)||^2 and negpart(X) of a
    symmetric X, from one full ``eigh``: the full-matrix counterpart of
    ``BlockBasis.negative_part``."""
    w, V = np.linalg.eigh(X)
    wneg = np.minimum(w, 0.0)
    return float(w[0]), 0.5 * float(np.sum(wneg * wneg)), (V * wneg) @ V.T


def _distance(wneg: np.ndarray, V: np.ndarray) -> tuple[float, float]:
    """g = ||negpart(X)|| and its derivative g' in y, from the eigenpairs
    (w, V) of X = M - Y2 with wneg = min(w, 0) and M = Q - y H: the negative
    part is V diag(wneg) V^T, so g = ||wneg|| and g' = -sum_i wneg_i V[-1,
    i]^2 / g, its corner entry over g.  g' is 0 where g is."""
    g = math.sqrt(float(np.sum(wneg * wneg)))
    gprime = -float(wneg @ (V[-1] * V[-1])) / g if g > 0 else 0.0
    return g, gprime


def cone_distance(M: np.ndarray, params: ApgParams = ApgParams(),
                  warm_start: np.ndarray | None = None,
                  eig_target: float | None = None,
                  prune_step: float | None = None,
                  blocks: BlockBasis | None = None) -> ConeDistanceResult:
    """Distance of a symmetric matrix to K* = PSD + Nonneg.

    Minimizes 0.5 * || negpart(M - Y2) ||^2 over entrywise-nonnegative Y2 by
    APG (projection gradient, Lipschitz constant 1 and so step 1, Nesterov
    momentum with adaptive restart).  The returned Y2 >= 0 is exact; with Y1
    the PSD part of M - Y2, g = ||M - Y1 - Y2|| and its derivative gprime in
    y, where M = Q - y H and H selects the last diagonal entry, come from the
    eigenpairs of M - Y2 (``_distance``), and min_eig = lambda_min(M - Y2)
    feeds the validated bracket.

    ``stop`` says why APG stopped: ``converged`` (relative objective change
    below ``rel_tol``), ``cap`` (``max_iter`` reached), ``target`` or
    ``step``.  With ``eig_target``, each iteration bounds the minimum
    eigenvalue of its new iterate for free: by Weyl, lambda_min(M - Y_new)
    >= lambda_min(M - Z) - ||Y_new - Z||_F, and lambda_min(M - Z) comes from
    the iteration's own eigendecomposition.  APG stops with Y2 = Y_new once
    that bound reaches ``eig_target``.  The exit only decides when to stop:
    min_eig is still taken from the final eigendecomposition of M - Y2.

    With ``prune_step``, the Newton step that would land exactly on the prune
    level, every ``STEP_CHECK_EVERY``-th iteration whose momentum point Z is
    entrywise nonnegative reads the Newton step g / g' of Y2 = Z from its own
    decomposition: g = sqrt(2 f) and g' = -negpart[-1, -1] / g, the corner
    entry of the negative part over g.  APG stops with Y2 = Z once g' >=
    ``DPRIME_FLOOR``, the step differs from ``prune_step`` by at least
    ``STEP_MARGIN`` and it moved by at most ``STEP_SETTLED`` since the
    previous reading.  No extra eigendecomposition is made.

    Every iteration decomposes M - Z once, by ``_negative_part`` (one full
    ``eigh``) or, with ``blocks``, the basis of a group under which M and
    the warm start are invariant, by ``BlockBasis.negative_part`` (one
    batched block ``eigh``).  The final full ``eigh`` of M - Y2 is the same
    on either path, so min_eig never rests on the basis.
    """
    M = np.asarray(M, dtype=float)
    Y = np.zeros_like(M) if warm_start is None else warm_start.copy()
    Z = Y.copy()
    t = 1.0
    f_prev = math.inf
    step_prev = math.inf
    stop = "cap"
    iterations = 0
    negative_part = _negative_part if blocks is None else blocks.negative_part
    for k in range(params.max_iter):
        iterations = k + 1
        lam_min, f_z, neg = negative_part(M - Z)
        Y_new = np.maximum(Z + neg, 0.0)
        # lam_min >= eig_target is implied by the Weyl test; checking it
        # first skips the norm on every iteration that cannot pass.
        if eig_target is not None and lam_min >= eig_target and \
                lam_min - np.linalg.norm(Y_new - Z) >= eig_target:
            Y = Y_new
            stop = "target"
            break
        if prune_step is not None and iterations % STEP_CHECK_EVERY == 0 and \
                np.all(Z >= 0.0):
            g = math.sqrt(2.0 * f_z)
            gprime = -float(neg[-1, -1]) / g if g > 0 else 0.0
            if gprime >= DPRIME_FLOOR:
                step = g / gprime
                if abs(step - prune_step) >= STEP_MARGIN and \
                        abs(step - step_prev) <= STEP_SETTLED:
                    Y = Z
                    stop = "step"
                    break
                step_prev = step
        if f_z > f_prev:
            # objective increased at the momentum point: restart momentum
            t = 1.0
            Z = Y.copy()
            f_prev = math.inf
            continue
        if abs(f_prev - f_z) <= params.rel_tol * max(1.0, abs(f_z)):
            Y = Y_new
            stop = "converged"
            break
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        Z = Y_new + ((t - 1.0) / t_new) * (Y_new - Y)
        Y = Y_new
        t = t_new
        f_prev = f_z

    w, V = np.linalg.eigh(M - Y)
    g, gprime = _distance(np.minimum(w, 0.0), V)
    return ConeDistanceResult(g=g, gprime=gprime, y2=Y, min_eig=float(w[0]),
                              stop=stop, iterations=iterations)


def _safe_ceil(value: float) -> int:
    # Guard against a bound sitting a few ulps above an integer.
    return math.ceil(value - 1e-9 * max(1.0, abs(value)))


def nb_bound(prob: DnnProblem, target: float | None,
             params: NbParams = NbParams()) -> NbResult:
    """Newton bracketing on the cone-distance function.

    Maintains a validated lower bracket ``a`` (running maximum of eigenvalue
    corrected iterates) and an upper value ``b`` (running minimum of the
    Newton points whose APG solve converged).  With a target, terminates
    early with Pruned once the integer lower bound reaches the target, or
    Branchable at the first new Newton point below the prune level.  Only
    ``a`` is a bound.

    The per-node work, in this order.  With a target, ``swap_search`` looks
    for a good completion of ``prob.sub`` (the completion check below);
    untargeted bounds never search.  A bound that goes on to solve then
    builds the ``block_basis`` of the node group ``sub.group`` from lifted
    order ``BLOCK_MIN_ORDER`` up, runs every APG solve on it and reports its
    families in ``blocks``; below that order, and where ``block_basis``
    gives none, APG runs on the full matrix.  Newton starts at
    ``initial_upper(sub)``, the trivial completion plus one, even where the
    search found a lower completion.  A start nearer y* saves APG work but
    loses prunes, measured on the soundness suite and on tori, likely
    because the Newton sequence from the far start warm-starts APG with a
    better Y2 near the prune level.

    The warm starts act on that: the APG solve at the first Newton point
    starts from ``prob.warm``, the parent's last Y2 on this node's indices
    (``assemble``), or from zeros without one; on blocks it is first
    averaged over the orbitals of the basis, which every block iteration
    assumes.  Each later solve starts from the Y2 of the solve before it.
    The parent's Y2 was found near its own prune level, which the child
    shares: from it the k = 5 torus proof at 160 takes 23 nodes, not 173.
    Any Y2 >= 0 gives a valid ``a`` (the correction below), so no start
    moves soundness.  ``y2`` returns the last Y2 over lam, for the node's
    children.

    The completion check: with a target above the value of the completion
    the search found, no validated bound can prune, as every ``a`` is at
    most the node's optimum.  The node then ends Branchable before any APG
    solve and before its group is searched, with no iterations, an empty
    trace, ``a = -inf`` and ``b`` the completion's reduced value.  Every
    node on the path to a leaf below the target holds such a completion,
    which the search often finds.  Where the relaxation of such a node is
    tight, y* sits on the prune level: neither APG exit can decide there,
    and the solve would run to its cap.

    The correction: let M = Q - y H, Y2 >= 0 the APG iterate and z = (u, 1 -
    u, 1) the lift of any feasible binary completion.  Exactly one of u_j,
    v_j is 1 for every j, so ||z||^2 = ell + 1, and the penalty vanishes at
    z, so z^T Q z is the reduced objective.  As z >= 0 and Y2 >= 0,

        z^T Q z = y + z^T (M - Y2) z + z^T Y2 z
                >= y + (ell + 1) * min(0, lambda_min(M - Y2)),

    and ``a`` takes this with an explicit roundoff slack subtracted from
    lambda_min, so it bounds every feasible completion directly.

    The target exit: with a target, the smallest ``a`` that prunes is
    ``a_need``, set a margin above the boundary of ``_safe_ceil``.  When y >=
    a_need, the corrected bound reaches a_need once lambda_min(M - Y2) >=
    slack + (a_need - y) / (ell + 1), and APG is told to stop once its Weyl
    estimate of lambda_min clears that value plus one more slack, which
    absorbs the roundoff of the final eigendecomposition.  Below a_need no
    eigenvalue can prune and APG runs to its own stopping rule.

    The step exit: with a target, APG gets ``prune_step = y - a_need``, the
    Newton step that lands exactly on the prune level, and may stop once the
    step of a feasible iterate is settled at least ``STEP_MARGIN`` away from
    it, on either side.  The rest of the solve would only refine the next
    Newton point.  Above the prune level, that point is either at or below
    y*, where the target exit has at least STEP_MARGIN / (ell + 1) of slack
    in lambda_min, or above y*, where Newton continues as after any solve;
    below it, the Branchable check ends the node.  Untargeted calls never
    pass a ``prune_step``.

    The Branchable check: with a target, every new Newton point y, after a
    Newton step or either bisection, with ``_safe_ceil(y + offset)`` below
    the target ends the bracketing as Branchable with ``b = min(b, y)``; g
    is not evaluated there.  No ``a`` from a point below the prune level can
    prune, as each is at most its own y.  Branching is always sound, and
    after an inexact solve the point may sit below y*, so ``b`` then says
    only where the node was decided.  The Newton start is never below the
    prune level here, as the completion check has already ended any node
    whose trivial completion is below the target.  Only converged solves move
    ``b`` otherwise, and the last trace row is the last point evaluated.
    """
    sub = prob.sub
    if target is not None:
        upper = swap_search(sub)[0]
        if upper + sub.offset < target:
            return NbResult(status="Branchable", a=-math.inf, b=float(upper),
                            iterations=0, lb_integer=None)
    Q = prob.q
    d = Q.shape[0]
    basis = block_basis(sub.group) if d >= BLOCK_MIN_ORDER else None
    norm_factor = sub.ell + 1
    # The margin is ten times the relative tolerance of _safe_ceil.
    a_need = None if target is None else \
        target - 1 - sub.offset + 1e-8 * max(1.0, abs(target))
    y = initial_upper(sub)
    a = -math.inf
    b = y
    warm = prob.warm
    if warm is not None and basis is not None:
        warm = basis.invariant(warm)
    trace = []
    status = "IterLimit"
    iterations = 0
    for k in range(params.max_iter):
        iterations = k + 1
        M = Q.copy()
        M[-1, -1] -= y
        # The minimum eigenvalue carries roundoff of order d * eps * ||M||;
        # subtract an explicit slack so a stays a valid lower bound.
        norm_M = float(np.linalg.norm(M))
        eig_slack = 16.0 * d * np.finfo(float).eps * norm_M
        eig_target = prune_step = None
        if a_need is not None:
            prune_step = y - a_need
            if y >= a_need:
                eig_target = 2.0 * eig_slack + (a_need - y) / norm_factor
        res = cone_distance(M, params.apg, warm_start=warm, eig_target=eig_target,
                            prune_step=prune_step, blocks=basis)
        warm = res.y2
        a = max(a, y + norm_factor * min(0.0, res.min_eig - eig_slack))
        if res.converged:
            b = min(b, y)
        trace.append(dict(zip(TRACE_FIELDS, (k, y, a, b, res.g, res.gprime,
                                             res.iterations, res.stop))))
        if target is not None and _safe_ceil(a + sub.offset) >= target:
            status = "Pruned"
            break
        if b - a <= params.gap_tol * max(1.0, abs(b)):
            status = "Converged"
            break
        # Newton step whenever the derivative is usable; bisection fallbacks
        # otherwise.  Only the eigenvalue-corrected update above counts toward
        # a — a small nonzero g with a tiny derivative can sit well above y*.
        if res.gprime >= DPRIME_FLOOR:
            y_new = y - res.g / res.gprime
            y = 0.5 * (a + y) if math.isfinite(a) and y_new <= a else y_new
        elif res.g <= G_FLOOR * max(1.0, norm_M):
            # y is (numerically) at or below y*: move back up inside [y, b].
            y = 0.5 * (y + b)
        else:
            y = 0.5 * (a + y) if math.isfinite(a) else y - max(1.0, abs(y)) * 1e-3
        if target is not None and _safe_ceil(y + sub.offset) < target:
            b = min(b, y)
            status = "Branchable"
            break

    lb_integer = _safe_ceil(a + sub.offset) if math.isfinite(a) else None
    return NbResult(status=status, a=a, b=b, iterations=iterations,
                    lb_integer=lb_integer, trace=tuple(trace),
                    blocks=None if basis is None else basis.families,
                    y2=warm / prob.lam)
