"""Torus stand-ins for tai256c and a QAPLIB writer for them.

tai256c is one of Taillard's grey-pattern instances (Taillard 1995): the
locations are the cells of a 16 x 16 grid whose interaction wraps around, and
the flow is rank one, ``f f^T`` with ``|f| = 92`` ones.  The generator here
keeps that structure with random weights, so that the benchmark can run the
same code paths offline at sizes the sandbox can afford.
"""

from __future__ import annotations

import numpy as np

# Range of the weight drawn for each offset class.
WEIGHT_LOW, WEIGHT_HIGH = 1, 100


def offset_class(dr: int, dc: int, k: int) -> tuple[int, int]:
    """The class of a wrap-around offset under the symmetries of the square:
    the sorted pair of wrap-around distances along the two axes."""
    a = min(dr % k, -dr % k)
    b = min(dc % k, -dc % k)
    return (a, b) if a <= b else (b, a)


def torus_matrix(k: int, seed: int) -> np.ndarray:
    """Cost matrix of the k x k torus: cell ``(r, c)`` is index ``r*k + c`` and
    the cost between two cells is a weight drawn per offset class.

    Why the automorphism group has order ``8 k^2``: the cost of a pair depends
    only on the class of its wrap-around offset ``(dr, dc)``.  A translation
    of the torus leaves every offset unchanged, and each of the 8 symmetries
    of the square (4 rotations, 4 reflections) maps ``(dr, dc)`` to one of
    ``(+-dr, +-dc)`` or ``(+-dc, +-dr)``, which has the same pair of
    wrap-around distances.  So the ``k^2`` translations composed with the 8
    point symmetries all preserve the matrix.  For k >= 3 they are distinct,
    because such a map is fixed by the images of cell (0, 0) and of its two
    neighbours (0, 1) and (1, 0), so ``|G| >= 8 k^2``.  Weights drawn
    independently per class leave no further coincidence to exploit, and the
    benchmark checks ``|G| = 8 k^2`` for every torus it generates.
    """
    if k < 3:
        raise ValueError("the torus needs k >= 3 for its 8 k^2 symmetries to be distinct")
    classes = sorted({offset_class(dr, dc, k) for dr in range(k) for dc in range(k)})
    rng = np.random.default_rng([seed, k])
    weight = dict(zip(classes, rng.integers(WEIGHT_LOW, WEIGHT_HIGH + 1, len(classes)).tolist()))
    weight[(0, 0)] = 0
    n = k * k
    r, c = np.divmod(np.arange(n), k)
    table = np.array([[weight[offset_class(dr, dc, k)] for dc in range(k)]
                      for dr in range(k)], dtype=np.int64)
    return table[(r[:, None] - r[None, :]) % k, (c[:, None] - c[None, :]) % k]


def torus_symmetries(k: int) -> list[np.ndarray]:
    """The ``8 k^2`` translations composed with point symmetries, as image
    arrays over cell indices."""
    r, c = np.divmod(np.arange(k * k), k)
    point = [(r, c), (c, -r), (-r, -c), (-c, r), (r, -c), (-c, -r), (-r, c), (c, r)]
    return [((pr + tr) % k) * k + (pc + tc) % k
            for pr, pc in point for tr in range(k) for tc in range(k)]


def format_qaplib(B: np.ndarray, flow_support) -> str:
    """QAPLIB ``.dat`` text with distance matrix B and the rank-one flow
    ``f f^T`` (zero diagonal) whose factor f is one on ``flow_support``.
    Which facilities carry the flow does not change the BQOP: only ``|f|``
    reaches it, as the cardinality m."""
    n = B.shape[0]
    f = np.zeros(n, dtype=np.int64)
    f[list(flow_support)] = 1
    A = np.outer(f, f)
    np.fill_diagonal(A, 0)
    lines = [str(n), ""]
    for M in (A, B):
        lines.extend(" ".join(str(int(v)) for v in row) for row in M)
        lines.append("")
    return "\n".join(lines)
