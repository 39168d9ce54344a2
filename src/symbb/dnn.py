"""Lagrangian DNN lower bounds via Newton bracketing, on the face of the lift.

A subproblem (minimize y^T C y over binary y with sum(y) = b) is lifted to a
quadratic form in (u, v, s) of order d = 2*ell + 1, where v is the complement
slack for u and s the homogenizing scalar.  With penalty weight lam the
lifted matrix is

    Q = Q_obj + lam * Q_pen,

where Q_obj carries u^T C u and Q_pen carries sum_j (u_j + v_j - s)^2 +
sum_j u_j v_j + (sum_j u_j - b s)^2.  The weight is a constant of the
bound relative to the data, lam = LAMBDA_SCALE / ||C||, so Q stays finite:
an instance keeps sum |B| below 2^53, every entry of C is below 2^54 and a
nonzero ||C|| is at least 1.

Every feasible lift z = (u, 1 - u, 1) lies in the range of V: (u, s) ->
(u, s 1 - u, s), where the ell linear penalty terms vanish.  V~ is an
orthonormal basis of that face, of order ell + 1: the columns (e_{u_j} -
e_{v_j}) / sqrt(2), one for each j, and (1/2 * 1, 1/2 * 1, 1) / kappa with
kappa^2 = ell / 2 + 1 (``face_basis``).  The dual of the conic relaxation asks for the largest y with
Q - H y in the face cone {Y1 + Y2: Y2 >= 0 of order d, V~^T Y1 V~ PSD}, H
the corner selector; on the face V~^T H V~ = e e^T / kappa^2, with e the
last face coordinate.  That largest zero y* of the distance function

    g(y) = dist(Q - H y, face cone)

equals the relaxation value, is approached from above by Newton steps on g,
and every iterate yields a validated lower bracket through an eigenvalue
correction of the face part V~^T (Q - H y - Y2) V~.  The face cone contains
the DNN cone K* = PSD + Nonneg, so its bound is at least as strong, and each
eigendecomposition has order ell + 1 instead of 2 ell + 1.  The distance
itself is computed by an accelerated proximal gradient (APG) method over
exactly nonnegative parts Y2 of Q - H y, whose face part it brings as close
to PSD as it can.  With a target, APG stops as soon as its current
nonnegative iterate is certain to prove the target at this Newton point;
without one, the integer bound that the point itself sits in.  The
bracketing likewise ends on an integer: once its validated bound reaches
the target, or, without one, the integer of its Newton point.

Grounding (cited only): Kim, Kojima & Toh, "A Newton-bracketing method for a
simple conic optimization problem" (Optim. Methods Softw., 2021); Arima, Kim,
Kojima & Toh, "A robust Lagrangian-DNN method for a class of quadratic
optimization problems" (Comput. Optim. Appl., 2017); for the face, Zhao,
Karisch, Rendl & Wolkowicz, "Semidefinite programming relaxations for the
quadratic assignment problem" (J. Comb. Optim., 1998), and Oliveira,
Wolkowicz & Xu, "ADMM for the SDP relaxation of the QAP" (Math. Program.
Comput., 2018), which pairs a facially reduced PSD block with a full-size
nonnegative one, as here.
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


# The penalty weight of a node is LAMBDA_SCALE / ||B(I0,I1)||.  2e8 was
# chosen by a sweep on the face (ROADMAP item 2): against 1e8 it cuts the
# APG work of untargeted bounds by about 40% and raises them, and above it
# targeted bounds take more APG iterations.
LAMBDA_SCALE = 2e8
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
# (``block_basis``) at face orders ell + 1 from BLOCK_MIN_ORDER up, and on
# the one-family face basis below.  Block over one-family time per step on
# torus and planted nodes (one BLAS thread, 2-core x86, numpy 2.4 with
# OpenBLAS): 0.70-0.91 at face order 13-19, 0.59-0.70 at 21, 0.47-0.65 at
# 24-25, 0.34-0.59 at 35-36.  Below 24 the 4-25 us a step saves repay the
# 1.1-3.0 ms basis of a node only after 80-400 APG iterations, not the 50-60
# the benchmark's nodes there take.
# BLOCK_ELEMENTS random group elements, drawn from BLOCK_SEED, define the
# orbitals; BLOCK_TOL is the relative tolerance of equal eigenvalues, of
# zero couplings and of the check of a split.
BLOCK_MIN_ORDER = 24
BLOCK_ELEMENTS = 8
BLOCK_SEED = 0
BLOCK_TOL = 1e-9
# The fields of one ``nb_bound`` trace row: the Newton step k, its point y,
# the bracket [a, b] after it, g and g' at y, and the APG solve's iterations
# and stop reason.
TRACE_FIELDS = ("k", "y", "a", "b", "g", "gprime", "apg_iterations", "apg_stop")


_RULES = {"at least 1": lambda v: v >= 1,
         "a non-negative finite number": lambda v: math.isfinite(v) and v >= 0}
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
    # Stop on relative objective change below this.  1e-9 was chosen by a
    # sweep over 1e-12..1e-7 (ROADMAP "rel_tol on the face"): against 1e-12
    # it keeps every integer bound of the untargeted torus roots and cuts
    # their APG work by 42%; at 1e-7 five of eleven lose an integer.
    rel_tol: float = setting(1e-9, "a non-negative finite number")
    max_iter: int = setting(20000, "at least 1")


@dataclass(frozen=True)
class NbParams(Settings):
    max_iter: int = setting(60, "at least 1")
    apg: ApgParams = field(default_factory=ApgParams)


def _kappa(ell: int) -> float:
    """kappa = ||(1/2 * 1, 1/2 * 1, 1)||, the norm of the last face
    direction: kappa^2 = ell / 2 + 1."""
    return math.sqrt(0.5 * ell + 1.0)


def _lift_rows(R: np.ndarray) -> np.ndarray:
    """V~ R for R with ell + 1 rows, by index arithmetic: rows u_j and v_j
    are +-R[j] / sqrt(2) + R[ell] / (2 kappa), and row s is R[ell] / kappa."""
    ell = R.shape[0] - 1
    top, mid = R[:ell] / math.sqrt(2.0), R[ell] / (2.0 * _kappa(ell))
    return np.vstack([top + mid, mid - top, 2.0 * mid])


@dataclass(frozen=True)
class BlockBasis:
    """An orthonormal basis of the face of the lift (the range of V~, of
    dimension ell + 1, inside R^d with d = 2 ell + 1), in which every
    matrix invariant under a group of permutations is block diagonal.
    Family f is one block of ``families[f] = (size, copies)``: the same
    size x size matrix appears in each of its copies.

    ``full`` holds the whole basis as (d, ell + 1) columns in column order,
    so that full^T, the right factor of the lift back, is contiguous (a
    strided one cost 5 of the 62 us of a step at face order 36).

    The one-family basis (``face_basis``; ``take`` None) is V~ itself, also
    held in row order in ``first``: one block, decomposed whole.

    A group's basis (``block_basis``) is that of the group's commutant on
    the ell + 1 face points composed with V~: ``first`` holds the first
    copy of every family side by side, as (d, .) columns, and ``full``
    every copy of every family in turn.  The families are packed side by
    side into the slots of one stack about as wide as the largest: ``take``
    gathers the blocks of F^T X F, F = ``first``, into the stack from its
    entries followed by 0 and by a value above ||F^T X F|| for the diagonal
    of unused rows, and ``expand`` gathers each family's block of a stack,
    followed by 0, onto the diagonal of an (ell + 1, ell + 1) matrix once
    per copy.  ``orbitals`` are the (d, d) orbital labels of the group
    lifted to (u, v, s)."""

    families: tuple[tuple[int, int], ...]
    first: np.ndarray
    full: np.ndarray
    take: np.ndarray | None = None
    expand: np.ndarray | None = None
    orbitals: np.ndarray | None = None

    def invariant(self, X: np.ndarray) -> np.ndarray:
        """X averaged over every orbital: its orthogonal projection onto the
        matrices the basis block-diagonalises; X itself on a one-family
        basis.  A mean keeps X >= 0, and the mean over an orbital and over
        its transpose agree on a symmetric X."""
        if self.orbitals is None:
            return X
        labels = self.orbitals.ravel()
        return (np.bincount(labels, weights=X.ravel()) / np.bincount(labels))[self.orbitals]

    def negative_part(self, X: np.ndarray) -> tuple[float, float, np.ndarray]:
        """lambda_min(N), f = 0.5 * ||negpart(N)||^2 and V~ negpart(N) V~^T
        of N = V~^T X V~, for an invariant symmetric X of
        order d, from one ``eigh``: of N itself on a one-family basis, or
        batched over the stack.  The unused diagonal lies above ||F^T X F||,
        so no padded eigenvalue is negative or the smallest.  On the stack,
        P = V min(w, 0) V^T holds the negative part of every family; D, its
        family blocks once per copy, is negpart(N) in the basis ``full``.  A
        slot's eigenvectors may mix families only within an eigenspace,
        where P keeps no cross terms."""
        F = self.first
        if self.take is None:
            w, V = np.linalg.eigh(F.T @ X @ F)
            wneg = np.minimum(w, 0.0)
            return float(w[0]), 0.5 * float(wneg @ wneg), F @ ((V * wneg) @ V.T) @ self.full.T
        T = F.T @ X @ F
        S = np.concatenate((T.ravel(), (0.0, math.sqrt(np.vdot(T, T)) + 1.0)))[self.take]
        w, V = np.linalg.eigh(S)
        P = (V * np.minimum(w, 0.0)[:, None, :]) @ V.transpose(0, 2, 1)
        D = np.concatenate((P.ravel(), (0.0,)))[self.expand]
        return float(w[:, 0].min()), 0.5 * float(np.vdot(D, D)), self.full @ D @ self.full.T


def face_basis(ell: int) -> BlockBasis:
    """The one-family basis of the face: V~, of order ell + 1."""
    first = _lift_rows(np.eye(ell + 1))
    return BlockBasis(families=((ell + 1, 1),), first=first, full=np.asfortranarray(first))


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
    min_eig: float              # lambda_min(N), N = V~^T (M - Y2) V~ on the face
    stop: str                   # why APG stopped: converged | target | cap | step
    iterations: int
    # Column s of X = -V~ negpart(N) V~^T, the approximate primal DNN
    # solution.
    x_s: np.ndarray = field(repr=False, compare=False)

    @property
    def converged(self) -> bool:
        return self.stop == "converged"


@dataclass(frozen=True)
class NbResult:
    # Pruned where a targeted bound's integer reaches the target, Settled
    # where an untargeted bound's integer is fixed; Branchable where a
    # targeted one cannot prune; IterLimit after max_iter Newton steps;
    # Stalled where the next Newton point equals the last.
    status: str
    a: float
    b: float
    iterations: int
    lb_integer: int | None
    trace: tuple = ()
    # The (size, copies) block families every APG solve ran on; None on the
    # one-family face basis and where no solve ran.
    blocks: tuple[tuple[int, int], ...] | None = None
    # The last APG iterate Y2 over lam, the warm start of a child
    # (``assemble``); None where no solve ran.
    y2: np.ndarray | None = field(default=None, repr=False, compare=False)
    # The relaxation's value of each free variable, xbar_j = X[u_j, s] /
    # X[s, s] with X = -V~ negpart(N) V~^T of the last APG solve, whatever
    # stopped it; the branching of a survivor reads it (``bb.choose_orbit``).
    # None where no solve ran or where X[s, s] <= 0.
    xbar: np.ndarray | None = field(default=None, repr=False, compare=False)


def assemble(sub: Subproblem,
             warm: tuple[tuple[int, ...], np.ndarray] | None = None) -> DnnProblem:
    """Build the lifted matrices of order 2*ell + 1 for a subproblem, with
    penalty weight lam = LAMBDA_SCALE / ||B(I0,I1)||, the Frobenius norm of
    the reduced matrix.  Q keeps the full order, as the nonnegative part Y2
    does, though the bound reads only its face part V~^T (Q - Y2) V~ of
    order ell + 1 (module docstring): there the ell linear penalty terms
    vanish, so lam weighs only complementarity and cardinality.

    ``warm`` is the free indices of an ancestor and the ``NbResult.y2`` of
    its bound, Y2 over the ancestor's lam.  ``DnnProblem.warm`` is then its
    rows and columns at this node's (u, v, s) indices, times this node's
    lam: the penalty part of Q scales with lam, and so does the part of it
    that Y2 absorbs."""
    ell = sub.ell
    if ell == 0:
        raise ValueError("cannot assemble a DNN problem with no free variables")
    C = np.asarray(sub.reduced_B, dtype=float)
    norm = float(np.linalg.norm(C))
    if norm == 0.0:
        raise ValueError("reduced matrix is zero; no natural penalty scale")
    lam = LAMBDA_SCALE / norm
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
    q = q_obj + lam * q_pen

    start = None
    if warm is not None:
        free, y2 = warm
        if not set(sub.free) <= set(free):
            raise ValueError("a warm start must come from an ancestor of the node")
        at = np.searchsorted(free, sub.free)
        idx = np.r_[at, at + len(free), 2 * len(free)]
        start = lam * y2[np.ix_(idx, idx)]
    return DnnProblem(sub=sub, q=q, lam=lam, warm=start)


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
    n = sum(sizes)
    at = np.cumsum([0, *sizes])
    start = np.cumsum([0, *(c.shape[1] * c.shape[2] for c in cols)])
    take = np.full((len(slots), top, top), n * n)
    take[:, np.arange(top), np.arange(top)] = n * n + 1
    expand = np.full((start[-1], start[-1]), take.size)
    for s, members in enumerate(slots):
        o = 0
        for f in members:
            r = np.arange(sizes[f])
            take[s, o + r[:, None], o + r] = (at[f] + r[:, None]) * n + at[f] + r
            for c in range(cols[f].shape[1]):
                p = start[f] + c * sizes[f] + r
                expand[p[:, None], p] = (s * top + o + r[:, None]) * top + o + r
            o += sizes[f]
    return BlockBasis(families=tuple((m, c.shape[1]) for m, c in zip(sizes, cols)),
                      first=np.hstack([c[:, 0] for c in cols]), take=take,
                      full=np.asfortranarray(np.hstack([c.reshape(len(c), -1) for c in cols])),
                      expand=expand, orbitals=orbitals)


def block_basis(group: PermutationGroup) -> BlockBasis | None:
    """The basis of the face in which every matrix of order d = 2 ell + 1
    invariant under the node group on ell points, lifted to (u, v, s), is
    block diagonal after V~^T . V~; None where the largest block exceeds
    half the face order ell + 1 or where the check of ``_families`` fails.
    sigma acts on u and v alike and fixes s, and Q, H and so every APG
    iterate are invariant; on the face it permutes the first ell points and
    fixes the last, so the families are built on those ell + 1 points and
    composed with V~.  The trivial family alone has one row per orbit of
    the ell + 1 points, so a group with more than about (ell + 1) / 2 point
    orbits, the trivial group and most involutions among them, is turned
    down before any basis is built.

    A numerical block diagonalisation of the commutant (Murota, Kanno,
    Kojima & Kojima, Japan J. Indust. Appl. Math., 2010; ``_families``).
    The invariant matrices are spanned by the orbitals of ``BLOCK_ELEMENTS``
    random group elements, composed from the transversals.  Should they
    generate a smaller group, its invariant matrices include the node
    group's, and the blocks only come out larger."""
    ell = group.domain_size
    n, d = ell + 1, 2 * ell + 1
    if 2 * (len(orbits(group)) + 1) > n:
        return None
    rng = np.random.default_rng(BLOCK_SEED)
    P = random_elements(group, BLOCK_ELEMENTS, rng)
    orbitals = pair_orbits(np.hstack([P, P + ell, np.full((len(P), 1), d - 1)]))
    # The face points are u_1 .. u_ell and s: their orbitals are those of
    # the lifted group on the (u, s) rows and columns.
    points = np.r_[:ell, d - 1]
    cols = _families(orbitals[np.ix_(points, points)], rng)
    if cols is None or 2 * cols[0].shape[2] > n:
        return None
    return _stacked([_lift_rows(c.reshape(n, -1)).reshape(d, *c.shape[1:]) for c in cols],
                    orbitals)


def cone_distance(M: np.ndarray, params: ApgParams = ApgParams(),
                  warm_start: np.ndarray | None = None,
                  eig_target: float | None = None,
                  prune_step: float | None = None,
                  basis: BlockBasis | None = None) -> ConeDistanceResult:
    """Distance of a symmetric matrix M of order d = 2 ell + 1 to the face
    cone {Y1 + Y2: Y2 >= 0, V~^T Y1 V~ PSD}, on ``basis`` (default: the
    one-family ``face_basis(ell)``).

    Minimizes f(Y2) = 0.5 * || negpart(N) ||^2, N = V~^T (M - Y2) V~, over
    entrywise-nonnegative Y2 of order d by APG (projection gradient,
    Lipschitz constant 1 and so step 1, Nesterov momentum with adaptive
    restart): the gradient is -V~ negpart(N) V~^T.  The returned Y2 >= 0 is exact; g = ||negpart(N)||,
    its derivative gprime in y, where M = Q - y H and H selects the last
    diagonal entry, and min_eig = lambda_min(N), which feeds the validated
    bracket, come from one final ``eigh`` of N.  With P the lifted
    negpart(N), g' = -P[s, s] / g: on the face V~^T H V~ = e e^T / kappa^2,
    with e the last face coordinate.  ``x_s``, column s of the approximate
    primal X = -P, comes from the same eigenpairs.

    ``stop`` says why APG stopped: ``converged`` (relative objective change
    below ``rel_tol`` at an entrywise nonnegative momentum point Z, which
    is then Y2, so that g is the distance at the f the rule tested; at a Z
    with a negative entry the momentum restarts at the projected Y_new
    instead), ``cap`` (``max_iter`` reached), ``target`` or ``step``.  With
    ``eig_target``, each iteration bounds the minimum eigenvalue of its new
    iterate for free: by Weyl, lambda_min(N(Y_new)) >= lambda_min(N(Z)) -
    ||Y_new - Z||_F, as V~ has orthonormal columns, and lambda_min(N(Z))
    comes from the iteration's own eigendecomposition.  APG stops with Y2 =
    Y_new once that bound reaches ``eig_target``.  The exit only decides
    when to stop: min_eig is still taken from the final eigendecomposition.

    With ``prune_step``, the Newton step that would land exactly on the prune
    level, every ``STEP_CHECK_EVERY``-th iteration whose momentum point Z is
    entrywise nonnegative reads the Newton step g / g' of Y2 = Z from its own
    decomposition: g = sqrt(2 f) and g' = -P[s, s] / g.  APG stops with Y2 =
    Z once g' >= ``DPRIME_FLOOR``, the step differs from ``prune_step`` by at
    least ``STEP_MARGIN`` and it moved by at most ``STEP_SETTLED`` since the
    previous reading.  No extra eigendecomposition is made.

    Every iteration decomposes N(Z) once, by ``BlockBasis.negative_part``:
    one ``eigh`` of N on the one-family basis, or one batched block ``eigh``
    on the basis of a group under which M and the warm start are
    invariant.  The final ``eigh`` is of N itself on either, so min_eig
    never rests on the group's basis.
    """
    M = np.asarray(M, dtype=float)
    if M.shape[0] % 2 != 1:
        raise ValueError(f"a lifted matrix has odd order 2 ell + 1, not {M.shape[0]}")
    if basis is None:
        basis = face_basis(M.shape[0] // 2)
    Y = np.zeros_like(M) if warm_start is None else warm_start.copy()
    Z = Y.copy()
    t = 1.0
    f_prev = math.inf
    step_prev = math.inf
    stop = "cap"
    iterations = 0
    for k in range(params.max_iter):
        iterations = k + 1
        lam_min, f_z, neg = basis.negative_part(M - Z)
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
            if np.all(Z >= 0.0):
                Y = Z
                stop = "converged"
                break
            # Settled at a point outside Y2 >= 0, where f may be far below
            # its value at any feasible point: restart the momentum at the
            # projected point, whose next two iterates are feasible.
            t = 1.0
            Y = Z = Y_new
            f_prev = math.inf
            continue
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        Z = Y_new + ((t - 1.0) / t_new) * (Y_new - Y)
        Y = Y_new
        t = t_new
        f_prev = f_z

    # The final decomposition is of N itself, never on the group's blocks.
    whole = basis if basis.take is None else face_basis(M.shape[0] // 2)
    min_eig, f, P = whole.negative_part(M - Y)
    g = math.sqrt(2.0 * f)
    return ConeDistanceResult(g=g, gprime=-float(P[-1, -1]) / g if g > 0 else 0.0,
                              y2=Y, min_eig=min_eig, stop=stop, iterations=iterations,
                              x_s=-P[:, -1])


def _safe_ceil(value: float) -> int:
    # Guard against a bound sitting a few ulps above an integer.
    return math.ceil(value - 1e-9 * max(1.0, abs(value)))


def nb_bound(prob: DnnProblem, target: float | None,
             params: NbParams = NbParams()) -> NbResult:
    """Newton bracketing on the cone-distance function.

    Maintains a validated lower bracket ``a`` (running maximum of eigenvalue
    corrected iterates) and an upper value ``b`` (running minimum of the
    Newton points whose APG solve converged).  The bracketing ends on an
    integer, not on the width of [a, b]: with a target, as Pruned once the
    integer lower bound reaches the target, or as Branchable at the first
    new Newton point below the prune level; without one, as Settled once
    the best integer bound is fixed (the integer stop below).  Only ``a``
    is a bound.

    The per-node work, in this order.  ``swap_search`` looks for a good
    completion of ``prob.sub`` (with a target, the completion check below).
    A bound that goes on to solve then builds the ``block_basis`` of the
    node group ``sub.group`` from face order ``BLOCK_MIN_ORDER`` up, runs
    every APG solve on it and reports its families in ``blocks``; below that
    order, and where ``block_basis`` gives none, APG runs on the one-family
    ``face_basis`` and ``blocks`` is None.  Without a target, Newton starts
    at the searched completion plus one.  With a target, it starts at
    ``initial_upper(sub)``, the trivial completion plus one, even where the
    search found a lower completion.  There a start nearer y* saves APG
    work but loses prunes, measured on the soundness suite and on tori,
    likely because the Newton sequence from the far start warm-starts APG
    with a better Y2 near the prune level; an untargeted bound has no prune
    level to lose.

    The warm starts act on that: the APG solve at the first Newton point
    starts from ``prob.warm``, the parent's last Y2 on this node's indices
    (``assemble``), or from zeros without one; on blocks it is first
    averaged over the orbitals of the basis, which every block iteration
    assumes.  Each later solve starts from the Y2 of the solve before it.
    The parent's Y2 was found near its own prune level, which the child
    shares: from it the k = 5 torus proof at 160 takes 23 nodes, not 173.
    Any Y2 >= 0 gives a valid ``a`` (the correction below), so no start
    moves soundness.  ``y2`` returns the last Y2 over lam, for the node's
    children, and ``xbar`` the relaxation's values of the free variables
    at the last solve, where the node is branched.

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
    z, so z^T Q z is the reduced objective.  z lies on the face, z = V~ w
    with ||w||^2 = ||z||^2, and z >= 0 and Y2 >= 0, so

        z^T Q z = y + w^T V~^T (M - Y2) V~ w + z^T Y2 z
                >= y + (ell + 1) * min(0, lambda_min(V~^T (M - Y2) V~)),

    and ``a`` takes this with an explicit roundoff slack subtracted from
    lambda_min, so it bounds every feasible completion directly.

    The target exit: with a target, the smallest ``a`` that prunes is
    ``a_need``, set a margin above the boundary of ``_safe_ceil``.  When y >=
    a_need, the corrected bound reaches a_need once lambda_min of the face
    part >= slack + (a_need - y) / (ell + 1), and APG is told to stop once
    its Weyl estimate of lambda_min clears that value plus one more slack,
    which absorbs the roundoff of the final eigendecomposition.  Below a_need no
    eigenvalue can prune and APG runs to its own stopping rule.  Without a
    target, each Newton point y gets the same exit at the integer
    ``_safe_ceil(y + offset)``, the most any ``a`` from y can prove.

    The integer stop: after each solve, once ``_safe_ceil(a + offset)``
    reaches the level of the Newton point y, the target with one, the
    integer ``_safe_ceil(y + offset)`` without, the bracketing ends: as
    Pruned with a target, and as Settled with ``b = min(b, y)`` without.
    Newton points approach y* from above, and every later ``a`` is at most
    y*, so no further work can raise ``lb_integer``.  After an inexact
    solve a point may sit below y*, where ``a`` can only reach the integer
    of y* as well.  The ``a`` returned is then accurate only to its
    integer, and ``xbar`` comes from a short last solve.

    The step exit: with a target, APG gets ``prune_step = y - a_need``, the
    Newton step that lands exactly on the prune level, and may stop once the
    step of a feasible iterate is settled at least ``STEP_MARGIN`` away from
    it, on either side.  The rest of the solve would only refine the next
    Newton point.  Above the prune level, that point is either at or below
    y*, where the target exit has at least STEP_MARGIN / (ell + 1) of slack
    in lambda_min, or above y*, where Newton continues as after any solve;
    below it, the Branchable check ends the node.  Untargeted calls never
    pass a ``prune_step``: on the k = 6 torus root of the benchmark, at
    ``rel_tol`` 1e-12, the step exit cuts the APG work to 403 iterations
    but lowers the integer bound from 5387 to 5386.

    The Branchable check: with a target, every new Newton point y, after a
    Newton step or either bisection, with ``_safe_ceil(y + offset)`` below
    the target ends the bracketing as Branchable with ``b = min(b, y)``; g
    is not evaluated there.  No ``a`` from a point below the prune level can
    prune, as each is at most its own y.  Branching is always sound, and
    after an inexact solve the point may sit below y*, so ``b`` then says
    only where the node was decided.  The Newton start is never below the
    prune level here, as the completion check has already ended any node
    whose trivial completion is below the target.  Only converged solves
    and the integer stop move ``b`` otherwise, and the last trace row is
    the last point evaluated.  A next point equal to the last stops the
    bracketing as it stands, as Stalled.  Every Newton step runs one APG
    solve, so a bound that passes the completion check returns a finite
    ``a``, ``y2`` and ``lb_integer``: with lam = LAMBDA_SCALE / ||C|| every
    entry of Q is finite (module docstring).
    """
    sub = prob.sub
    upper = swap_search(sub)[0]
    if target is not None and upper + sub.offset < target:
        return NbResult(status="Branchable", a=-math.inf, b=float(upper),
                        iterations=0, lb_integer=None)
    Q = prob.q
    d = Q.shape[0]
    norm_factor = sub.ell + 1
    blocks = block_basis(sub.group) if norm_factor >= BLOCK_MIN_ORDER else None
    basis = face_basis(sub.ell) if blocks is None else blocks
    y = initial_upper(sub) if target is not None else upper + 1.0
    a = -math.inf
    b = y
    warm = prob.warm
    if warm is not None:
        warm = basis.invariant(warm)
    trace = []
    status = "IterLimit"
    iterations = 0
    for k in range(params.max_iter):
        iterations = k + 1
        M = Q.copy()
        M[-1, -1] -= y
        # The minimum eigenvalue of the face part, of order ell + 1, carries
        # the roundoff of its eigh, of order (ell + 1) * eps * ||M||, and of
        # the transform, whose entries sum at most d terms; subtract an
        # explicit slack of twice d * eps * ||M|| per source so that a stays
        # a valid lower bound.
        norm_M = float(np.linalg.norm(M))
        eig_slack = 16.0 * d * np.finfo(float).eps * norm_M
        # The integer this point decides: the target, or untargeted the
        # ceiling of y itself.  The margin is ten times the relative
        # tolerance of _safe_ceil.
        level = target if target is not None else _safe_ceil(y + sub.offset)
        a_need = level - 1 - sub.offset + 1e-8 * max(1.0, abs(level))
        eig_target = None
        if y >= a_need:
            eig_target = 2.0 * eig_slack + (a_need - y) / norm_factor
        res = cone_distance(M, params.apg, warm_start=warm, eig_target=eig_target,
                            prune_step=None if target is None else y - a_need,
                            basis=basis)
        warm = res.y2
        a = max(a, y + norm_factor * min(0.0, res.min_eig - eig_slack))
        if res.converged:
            b = min(b, y)
        trace.append(dict(zip(TRACE_FIELDS, (k, y, a, b, res.g, res.gprime,
                                             res.iterations, res.stop))))
        if _safe_ceil(a + sub.offset) >= level:
            status = "Pruned"
            if target is None:
                b, status = min(b, y), "Settled"
            break
        # Newton step whenever the derivative is usable; bisection fallbacks
        # otherwise.  Only the eigenvalue-corrected update above counts toward
        # a — a small nonzero g with a tiny derivative can sit well above y*.
        if res.gprime >= DPRIME_FLOOR:
            y_new = y - res.g / res.gprime
            y_new = 0.5 * (a + y) if y_new <= a else y_new
        elif res.g <= G_FLOOR * max(1.0, norm_M):
            # y is (numerically) at or below y*: move back up inside [y, b].
            y_new = 0.5 * (y + b)
        else:
            y_new = 0.5 * (a + y)
        if y_new == y:
            # A solve at the same point could only repeat this one.
            status = "Stalled"
            break
        y = y_new
        if target is not None and _safe_ceil(y + sub.offset) < target:
            b = min(b, y)
            status = "Branchable"
            break

    x_s = res.x_s
    return NbResult(status=status, a=a, b=b, iterations=iterations,
                    lb_integer=_safe_ceil(a + sub.offset), trace=tuple(trace),
                    blocks=None if blocks is None else blocks.families,
                    y2=warm / prob.lam, xbar=x_s[:sub.ell] / x_s[-1] if x_s[-1] > 0 else None)
