"""Independent references for the benchmark's output checks.

Nothing here calls symbb: optima come from exhaustive enumeration, torus
upper bounds from a seeded swap local search, and objectives from plain numpy.
"""

from __future__ import annotations

import itertools

import numpy as np

LOCAL_SEARCH_RESTARTS = 20


def soundness_instance(i: int) -> tuple[np.ndarray, int, np.ndarray | None]:
    """Instance i of the acceptance gate's soundness stream as (B, m,
    rotation).

    Draws from ``default_rng(1000 + i)`` in the same order as the suite, so
    the matrices are the suite's: n = 6 + i % 9, and every fourth instance
    carries a planted cyclic symmetry in blocks of r = 2 or 3 (its size is
    then rounded down to a multiple of r).  ``rotation`` is that planted
    automorphism, the one-step rotation of every block, or None.
    """
    rng = np.random.default_rng(1000 + i)
    n = 6 + i % 9
    m = int(rng.integers(2, n - 1))
    if i % 4 == 3:
        r = 3 if n % 3 == 0 else 2
        B, rotation = planted_matrix(rng, n // r, r)
        return B, m, rotation
    B = rng.integers(-10, 30, (n, n))
    B = (B + B.T).astype(np.int64)
    np.fill_diagonal(B, 0)
    return B, m, None


def planted_matrix(rng: np.random.Generator, blocks: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Matrix with a planted cyclic symmetry, as the test suite builds it:
    entry ``(a*r + i, c*r + j)`` depends only on the block pair ``(a, c)``
    and the offset ``(i - j) mod r``, so rotating every block by one step
    is an automorphism.  Returns the matrix and that rotation."""
    W = rng.integers(-5, 12, (blocks, blocks, r)).astype(np.int64)
    for a in range(blocks):
        for c in range(a, blocks):
            for t in range(r):
                W[c, a, (-t) % r] = W[a, c, t]
    block, pos = np.divmod(np.arange(blocks * r), r)
    B = W[block[:, None], block[None, :], (pos[:, None] - pos[None, :]) % r]
    np.fill_diagonal(B, 0)
    return B, block * r + (pos + 1) % r


def brute_force_optimum(B: np.ndarray, m: int, first_fixed: bool = False) -> int:
    """Minimum of x^T B x over binary x with sum(x) = m, by enumerating every
    support; with ``first_fixed``, only supports that contain index 0 (the
    subproblem ``bound-root`` bounds)."""
    n = B.shape[0]
    if first_fixed:
        supports = np.array([(0,) + c for c in itertools.combinations(range(1, n), m - 1)])
    else:
        supports = np.array(list(itertools.combinations(range(n), m)))
    values = B[supports[:, :, None], supports[:, None, :]].sum(axis=(1, 2))
    return int(values.min())


def local_search_upper(B: np.ndarray, m: int, seed: int) -> int:
    """Best objective of a best-improvement swap local search from
    ``LOCAL_SEARCH_RESTARTS`` random supports; an upper bound on the optimum."""
    n = B.shape[0]
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(LOCAL_SEARCH_RESTARTS):
        x = np.zeros(n, dtype=bool)
        x[rng.choice(n, m, replace=False)] = True
        while True:
            inside, outside = np.flatnonzero(x), np.flatnonzero(~x)
            g = B[:, inside].sum(axis=1)
            # Objective change of swapping i (inside) for j (outside).
            delta = 2 * (g[outside][None, :] - g[inside][:, None] - B[np.ix_(inside, outside)])
            a, b = np.unravel_index(np.argmin(delta), delta.shape)
            if delta[a, b] >= 0:
                break
            x[inside[a]], x[outside[b]] = False, True
        value = int(B[np.ix_(x, x)].sum())
        best = value if best is None else min(best, value)
    return best


def witness_errors(B: np.ndarray, m: int, witness, claimed: int) -> list[str]:
    """Reasons a claimed feasible solution and its objective are wrong."""
    x = np.asarray(witness, dtype=np.int64)
    if x.shape != (B.shape[0],) or np.any((x != 0) & (x != 1)):
        return ["witness is not a binary vector of length n"]
    errors = []
    if int(x.sum()) != m:
        errors.append(f"witness has {int(x.sum())} ones, expected {m}")
    value = int(x @ B @ x)
    if value != claimed:
        errors.append(f"witness objective {value} differs from the claimed {claimed}")
    return errors


def group_errors(B: np.ndarray, elements: np.ndarray, order: int, required=()) -> list[str]:
    """Reasons a reported automorphism group is wrong: every element must be a
    distinct permutation preserving B, the identity must be present, the
    element count must match the order, and every permutation in
    ``required`` must be an element."""
    elements = np.asarray(elements, dtype=np.int64)
    d = B.shape[0]
    if elements.ndim != 2 or elements.shape != (order, d):
        return [f"group of order {order} listed {elements.shape[0]} elements"]
    errors = []
    if np.any(np.sort(elements, axis=1) != np.arange(d)):
        errors.append("an element is not a permutation")
    elif any(not np.array_equal(B[np.ix_(s, s)], B) for s in elements):
        errors.append("an element does not preserve B")
    listed = {tuple(s) for s in elements.tolist()}
    if len(listed) != order:
        errors.append("elements repeat")
    if tuple(range(d)) not in listed:
        errors.append("identity missing")
    if any(tuple(int(v) for v in s) not in listed for s in required):
        errors.append("a known automorphism is missing")
    return errors
