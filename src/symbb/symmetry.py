"""Automorphism groups of symmetric matrices, orbits, and solution expansion.

The enumerator is a backtracking search over images with partition-refinement
style pruning: sigma(i) = j is admissible only if rows i and j carry identical
sorted value multisets and every previously assigned pair is consistent
(B[sigma(i), sigma(j)] == B[i, j]).  Groups are stored as explicit element
lists; an element-count cap guards against groups too large to enumerate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class GroupTooLargeError(RuntimeError):
    """The automorphism group exceeds the explicit-element safety cap."""


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
    """An explicit list of permutations of {0..d-1}, closed under composition
    and inverse, with its orbit partition.

    Elements are image arrays: ``sigma[i]`` is the image of ``i``.  The element
    list is sorted lexicographically so orbit representatives and downstream
    branching decisions are reproducible.
    """

    def __init__(self, domain_size: int, elements: np.ndarray):
        elements = np.asarray(elements, dtype=np.int64)
        if elements.ndim != 2 or elements.shape[1] != domain_size:
            raise ValueError("elements must be a (g, d) array of image arrays")
        order = np.lexsort(elements.T[::-1])
        elements = elements[order]
        elements.setflags(write=False)
        self.domain_size = domain_size
        self.elements = elements
        self.orbit_partition = self._compute_orbits()

    def __len__(self) -> int:
        return self.elements.shape[0]

    @property
    def order(self) -> int:
        return len(self)

    def _compute_orbits(self) -> tuple[Orbit, ...]:
        d = self.domain_size
        parent = np.arange(d)

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for sigma in self.elements:
            for i in range(d):
                ri, rj = find(i), find(int(sigma[i]))
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
        buckets: dict[int, list[int]] = {}
        for i in range(d):
            buckets.setdefault(find(i), []).append(i)
        return tuple(Orbit(members=tuple(sorted(v))) for _, v in sorted(buckets.items()))


def automorphisms(B, element_cap: int = 1_000_000) -> PermutationGroup:
    """Enumerate all permutations sigma with B[sigma(i), sigma(j)] == B[i, j].

    Raises GroupTooLargeError once more than ``element_cap`` elements are found.
    """
    B = np.asarray(B)
    d = B.shape[0]
    if B.shape != (d, d) or not np.array_equal(B, B.T):
        raise ValueError("automorphisms requires a symmetric square matrix")
    if d == 0:
        raise ValueError("empty matrix")

    diag = np.diagonal(B)
    rows_sorted = np.sort(B, axis=1)
    cand0 = (diag[:, None] == diag[None, :]) & \
        (rows_sorted[:, None, :] == rows_sorted[None, :, :]).all(axis=2)

    elements: list[np.ndarray] = []
    image = np.full(d, -1, dtype=np.int64)
    assigned = np.zeros(d, dtype=bool)

    def search(cand: np.ndarray, n_assigned: int):
        if n_assigned == d:
            if len(elements) >= element_cap:
                raise GroupTooLargeError(
                    f"automorphism group exceeds the element cap {element_cap}")
            elements.append(image.copy())
            return
        open_rows = ~assigned
        counts = cand[open_rows].sum(axis=1)
        if np.any(counts == 0):
            return
        # Pivot on the most constrained free index for early pruning.
        open_idx = np.flatnonzero(open_rows)
        i = int(open_idx[int(np.argmin(counts))])
        for j in np.flatnonzero(cand[i]):
            j = int(j)
            # Consistency with all assigned pairs is maintained incrementally,
            # so only the pairwise refinement against (i, j) remains.
            image[i] = j
            assigned[i] = True
            new_cand = cand & (B[:, i][:, None] == B[:, j][None, :])
            new_cand[:, j] = False
            new_cand[i, :] = False
            search(new_cand, n_assigned + 1)
            assigned[i] = False
            image[i] = -1

    search(cand0, 0)
    return PermutationGroup(domain_size=d, elements=np.array(elements))


def orbits(group: PermutationGroup, domain) -> tuple[Orbit, ...]:
    """Partition ``domain`` (a subset of the group's domain) into orbits,
    returned sorted by representative.  The domain must be group-invariant."""
    domain = sorted(int(i) for i in domain)
    dset = set(domain)
    if not dset <= set(range(group.domain_size)):
        raise ValueError("domain contains indices outside the group's domain")
    result = []
    for orb in group.orbit_partition:
        inter = [i for i in orb.members if i in dset]
        if not inter:
            continue
        if len(inter) != len(orb.members):
            raise ValueError("domain is not invariant under the group")
        result.append(orb)
    return tuple(sorted(result, key=lambda o: o.representative))


def expand_solution(group: PermutationGroup, x) -> list[np.ndarray]:
    """The distinct images of x under the group, sorted lexicographically."""
    x = np.asarray(x, dtype=np.int64)
    if x.size != group.domain_size:
        raise ValueError("dimension mismatch")
    seen = {tuple(int(v) for v in x[sigma]) for sigma in group.elements}
    return [np.array(t, dtype=np.int64) for t in sorted(seen)]


def group_to_json_obj(group: PermutationGroup) -> dict:
    """JSON-ready dict: image arrays in 1-based indexing."""
    return {
        "domain_size": group.domain_size,
        "order": group.order,
        "elements": (group.elements + 1).tolist(),
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
