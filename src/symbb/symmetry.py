"""Automorphism groups of symmetric matrices and their orbits.

The search maps indices one at a time with partition-refinement style
pruning: sigma(i) = j is admissible only if rows i and j carry identical
sorted value multisets and every previously assigned pair is consistent
(B[sigma(i), sigma(j)] == B[i, j]).  It pivots on the most constrained open
index and completes a node whose open indices each have one candidate left
in one step.

Groups are not enumerated.  A group is stored as the transversals of the
point-stabilizer chain of the pivots of the identity path: for each pivot,
one element for each image it takes under the stabilizer of the earlier
pivots.  Its order and orbits come from them, and its elements are listed
only on request.  The transversals are filled from the deepest pivot up,
with orbit pruning (McKay & Piperno, "Practical graph isomorphism, II",
2014): the leaves found so far generate a group whose orbit of the pivot a
Schreier vector holds (Seress, "Permutation Group Algorithms", 2003), and
only a candidate image outside that orbit costs a leaf search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class GroupTooLargeError(RuntimeError):
    """A listing of the group would take more entries than its cap allows."""


@dataclass(frozen=True)
class Orbit:
    """An orbit of the group action; the representative is the smallest member."""

    members: tuple[int, ...]

    @property
    def representative(self) -> int:
        return self.members[0]

    @property
    def size(self) -> int:
        return len(self.members)


class PermutationGroup:
    """A permutation group on {0..d-1} held as the transversals of a
    stabilizer chain.

    Permutations are image arrays: ``sigma[i]`` is the image of ``i``.  Each
    transversal is a (k, d) array, and every element is written in exactly one
    way as ``u_1 o u_2 o ... o u_t`` with ``u_s`` a row of the s-th
    transversal; a full element list is a chain of one transversal.  An
    int64 transversal array is held without a copy and made read-only.
    """

    def __init__(self, domain_size: int, transversals):
        chain = []
        for U in transversals:
            U = np.asarray(U, dtype=np.int64)
            if U.ndim != 2 or U.shape[1] != domain_size:
                raise ValueError("each transversal must be a (k, d) array of image arrays")
            U.setflags(write=False)
            chain.append(U)
        self.domain_size = domain_size
        self.transversals = tuple(chain)
        self.order = math.prod(U.shape[0] for U in chain)

    @cached_property
    def elements(self) -> np.ndarray:
        """Every element, sorted lexicographically; ``order`` rows."""
        d = self.domain_size
        E = np.arange(d, dtype=np.int64)[None, :]
        for U in reversed(self.transversals):
            E = np.take(U, E, axis=1).reshape(-1, d)
        if self.order > 1:
            E = E[np.lexsort(E.T[::-1])]
        E.setflags(write=False)
        return E


def candidates(S: np.ndarray, T: np.ndarray) -> np.ndarray:
    """cand[i, j]: index i of S may map to index j of T, because the two have
    equal diagonal entries and equal sorted rows.  S and T share one dtype.
    Each row is labelled by the bytes of its diagonal entry and sorted row,
    in one dict shared by S and T, so that the comparison takes O(n^2)
    memory."""
    labels: dict[bytes, int] = {}

    def label(M: np.ndarray) -> np.ndarray:
        keys = np.column_stack([np.diagonal(M), np.sort(M, axis=1)])
        return np.array([labels.setdefault(k.tobytes(), len(labels)) for k in keys],
                        dtype=np.int64)

    return label(S)[:, None] == label(T)[None, :]


def _refine(S, T, cand, i: int, j: int) -> np.ndarray:
    """Candidates after mapping i to j.  Consistency with the earlier pairs is
    kept incrementally, so only the pairs with (i, j) are checked."""
    new = cand & (S[:, i][:, None] == T[:, j][None, :])
    new[:, j] = False
    new[i, :] = False
    return new


def first_leaf(S, T, cand, image, node_cap: int | None = None) -> np.ndarray | None:
    """The first permutation p found below a partial map, with
    S[i, j] == T[p(i), p(j)] for all i, j; None if there is none.

    ``image`` holds the partial map (-1 on open indices) and ``cand`` the
    candidates of the open indices under it.  Candidates are tried in
    increasing order on the most constrained open index.  A node at which
    every open index has one candidate left is completed with that forced map,
    which is returned if it is a permutation that preserves the matrices.
    ``node_cap`` bounds the number of candidates tried; running out returns
    None."""
    image = np.array(image, dtype=np.int64)
    budget = math.inf if node_cap is None else node_cap

    def search(cand):
        nonlocal budget
        open_idx = np.flatnonzero(image < 0)
        counts = cand[open_idx].sum(axis=1)
        if np.any(counts == 0):
            return None
        if np.all(counts == 1):
            sigma = image.copy()
            sigma[open_idx] = np.argmax(cand[open_idx], axis=1)
            if np.unique(sigma[open_idx]).size == open_idx.size and \
                    np.array_equal(T[np.ix_(sigma, sigma)], S):
                return sigma
            return None
        i = int(open_idx[int(np.argmin(counts))])
        for j in np.flatnonzero(cand[i]).tolist():
            if budget <= 0:
                return None
            budget -= 1
            image[i] = j
            leaf = search(_refine(S, T, cand, i, j))
            image[i] = -1
            if leaf is not None:
                return leaf
        return None

    return search(cand)


class _SchreierVector:
    """The orbit of a pivot under a growing set of generators, with one
    element for each orbit point that maps the pivot there: row 0 of
    ``elements`` is the identity, and ``row[p]`` is the row of point p (-1
    outside the orbit)."""

    def __init__(self, pivot: int, d: int):
        self.pivot = pivot
        self.elements = np.arange(d, dtype=np.int64)[None, :]
        self.row = np.full(d, -1, dtype=np.int64)
        self.row[pivot] = 0

    def grow(self, gens: np.ndarray):
        """Close the orbit under ``gens`` after their last row joined them;
        it was closed under the others.  A new point g(p) joins with the
        element g o u_p, taken from the first row and then the first
        generator that reaches it; the new rows are then closed in turn."""
        step, rows = gens[-1:], np.arange(len(self.elements))
        while True:
            images = step[:, self.elements[rows, self.pivot]].T
            r, g = np.nonzero(self.row[images] < 0)
            if not r.size:
                return
            points, first = np.unique(images[r, g], return_index=True)
            r, g = rows[r[first]], g[first]
            rows = np.arange(len(self.elements), len(self.elements) + points.size)
            self.row[points] = rows
            self.elements = np.vstack(
                [self.elements, np.take_along_axis(step[g], self.elements[r], axis=1)])
            step = gens

    def transversal(self) -> np.ndarray:
        """The elements, the identity first and then by increasing image of
        the pivot."""
        rest = 1 + np.argsort(self.elements[1:, self.pivot])
        return self.elements[np.concatenate([[0], rest])]


def automorphisms(B) -> PermutationGroup:
    """The group of all permutations sigma with B[sigma(i), sigma(j)] ==
    B[i, j], held as one representative for each image that each pivot of
    the identity path takes under the stabilizer of the earlier pivots.  An
    empty matrix has the trivial group on no points.

    The pivots are found first, and the transversals are filled from the
    deepest level up.  Every leaf found at or below a level fixes the
    earlier pivots, and the group they generate moves the pivot over the
    orbit a Schreier vector holds; the deeper leaves fix the pivot too, so
    the orbit starts as the pivot alone.  A leaf search runs only for a
    candidate image of the pivot outside that orbit, and a leaf it finds
    joins the generators, so once every candidate is in the orbit or has no
    leaf, the orbit is the pivot's orbit under the stabilizer and its
    Schreier vector is the level's transversal.  A symmetric group on n
    points so takes n - 1 leaf searches, not one for each of the
    n(n - 1)/2 candidate images."""
    B = np.asarray(B)
    d = B.shape[0]
    if B.shape != (d, d) or not np.array_equal(B, B.T):
        raise ValueError("automorphisms requires a symmetric square matrix")

    cand = candidates(B, B)
    image = np.full(d, -1, dtype=np.int64)
    path = []
    while True:
        open_idx = np.flatnonzero(image < 0)
        counts = cand[open_idx].sum(axis=1)
        if np.all(counts == 1):
            break  # only the identity is left below
        i = int(open_idx[int(np.argmin(counts))])
        path.append((i, cand, image.copy()))
        image[i] = i
        cand = _refine(B, B, cand, i, i)

    gens = np.empty((0, d), dtype=np.int64)
    transversals = []
    for i, cand, image in reversed(path):
        orbit = _SchreierVector(i, d)
        for j in np.flatnonzero(cand[i]).tolist():
            if orbit.row[j] < 0:
                image[i] = j
                leaf = first_leaf(B, B, _refine(B, B, cand, i, j), image)
                if leaf is not None:
                    gens = np.vstack([gens, leaf])
                    orbit.grow(gens)
        if len(orbit.elements) > 1:
            transversals.append(orbit.transversal())
    return PermutationGroup(domain_size=d, transversals=transversals[::-1])


def components(images, size: int) -> np.ndarray:
    """The smallest member of the component of every index in the graph
    that joins i to image[i] for each image array: a vectorized union-find
    that hooks the larger root to the smaller and then compresses every
    path, until no image joins two roots."""
    root = np.arange(size)
    joined = True
    while joined:
        joined = False
        for image in images:
            other = root[image]
            lo, hi = np.minimum(root, other), np.maximum(root, other)
            apart = lo != hi
            if apart.any():
                joined = True
                np.minimum.at(root, hi[apart], lo[apart])
                while True:
                    up = root[root]
                    if np.array_equal(up, root):
                        break
                    root = up
    return root


def orbits(group: PermutationGroup) -> tuple[Orbit, ...]:
    """The orbits of the group on its whole domain, sorted by representative.
    The transversals generate the group, so the orbits are the components of
    the graph joining i to u[i] for every representative u."""
    root = components([u for U in group.transversals for u in U], group.domain_size)
    return tuple(Orbit(members=tuple(np.flatnonzero(root == r).tolist()))
                 for r in np.unique(root).tolist())


def random_elements(group: PermutationGroup, count: int, rng) -> np.ndarray:
    """``count`` elements drawn uniformly from the group as a (count, d)
    array of image arrays, each composed from one random row of every
    transversal; the elements are never listed."""
    d = group.domain_size
    E = np.tile(np.arange(d, dtype=np.int64), (count, 1))
    for U in reversed(group.transversals):
        E = np.take_along_axis(U[rng.integers(U.shape[0], size=count)], E, axis=1)
    return E


def pair_orbits(perms: np.ndarray) -> np.ndarray:
    """Orbits on index pairs (orbitals) of the group the (k, d) image arrays
    ``perms`` generate: a (d, d) array of orbital labels 0, 1, ..., the
    components of the graph joining (i, j) to (sigma(i), sigma(j))."""
    perms = np.asarray(perms, dtype=np.int64)
    d = perms.shape[1]
    root = components([(p[:, None] * d + p[None, :]).ravel() for p in perms], d * d)
    return np.unique(root, return_inverse=True)[1].reshape(d, d)


def group_to_json_obj(group: PermutationGroup, entry_cap: int) -> dict:
    """The group listing that ``symmetry --group-json`` writes, with the
    elements as an (order, d) int64 array of image arrays in 1-based
    indexing.  Raises GroupTooLargeError, before any
    element is listed, when the listing has more than ``entry_cap`` entries
    (order times domain size)."""
    entries = group.order * group.domain_size
    if entries > entry_cap:
        raise GroupTooLargeError(
            f"listing group order {group.order} on {group.domain_size} points "
            f"takes {entries} entries, beyond the entry cap {entry_cap}")
    return {
        "domain_size": group.domain_size,
        "order": group.order,
        "elements": group.elements + 1,
    }


def orbit_report_rows(orbs, scores=None) -> list[dict]:
    """Rows for the orbit CSV: id, members (1-based), size, optional score."""
    rows = []
    for k, orb in enumerate(orbs, start=1):
        row = {
            "orbit": k,
            "members": " ".join(str(i + 1) for i in orb.members),
            "size": orb.size,
        }
        if scores is not None:
            row["score"] = scores[k - 1]
        rows.append(row)
    return rows
