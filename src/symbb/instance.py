"""Problem instances: QAPLIB parsing, QAP-to-BQOP conversion, objectives
and feasible-solution sampling.

All matrices are kept in 64-bit signed integer arithmetic.  A BQOP whose
absolute entries sum to ``VALUE_LIMIT`` or more is refused: below it, every
objective value, reduced-matrix entry and offset is exact both in int64 and
in the float64 that the bound reads.  tai256c is far below the limit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


# The sum of |B_ij| must stay below this: 2^53, the end of the integers
# that float64 holds exactly.
VALUE_LIMIT = 2 ** 53


class InstanceError(ValueError):
    """Malformed instance data."""


def _int64_matrix(M, name: str) -> np.ndarray:
    """``M`` as an int64 array, without a copy if it is one.  Integral
    floats are kept; an entry that is not an integer within 64 bits (a
    fractional part, NaN, infinity, or no number at all) is an error, so
    that no entry is rounded or wrapped silently."""
    try:
        M = np.asarray(M)
    except ValueError as exc:
        raise InstanceError(f"{name} is not a matrix: {exc}") from None
    kind = M.dtype.kind
    if kind == "f":
        integral = np.isfinite(M) & (np.trunc(M) == M) & (np.abs(M) < 2.0 ** 63)
    else:
        integral = kind in "bi" or (kind == "u" and M < 2 ** 63)
    if not np.all(integral):
        raise InstanceError(f"the entries of {name} must be integers within 64 bits")
    return M.astype(np.int64, copy=False)


@dataclass(frozen=True)
class QapInstance:
    """A QAP with flow matrix A and distance matrix B, both n x n symmetric."""

    n: int
    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        for name in ("A", "B"):
            M = _int64_matrix(getattr(self, name), name)
            if M.shape != (self.n, self.n):
                raise InstanceError(f"{name} has shape {M.shape}, expected ({self.n}, {self.n})")
            if not np.array_equal(M, M.T):
                raise InstanceError(f"{name} is not symmetric")
            M.setflags(write=False)
            object.__setattr__(self, name, M)
        if self.n < 1:
            raise InstanceError("dimension must be positive")


@dataclass(frozen=True)
class BqopInstance:
    """Minimize x^T B x over binary x with sum(x) = m."""

    n: int
    B: np.ndarray
    m: int

    def __post_init__(self):
        B = _int64_matrix(self.B, "B")
        if B.shape != (self.n, self.n):
            raise InstanceError(f"B has shape {B.shape}, expected ({self.n}, {self.n})")
        if not np.array_equal(B, B.T):
            raise InstanceError("B is not symmetric")
        if np.any(np.diagonal(B) != 0):
            raise InstanceError("B must have zero diagonal")
        if not (0 < self.m <= self.n):
            raise InstanceError(f"cardinality target m={self.m} out of range for n={self.n}")
        # A float64 sum of non-negative terms, each exact below 2^53, is
        # exact while below 2^53 and at least 2^53 otherwise, in any order:
        # it cannot overflow or misjudge the limit.
        if float(np.abs(B.astype(np.float64)).sum()) >= VALUE_LIMIT:
            raise InstanceError(f"the absolute entries of B sum to at least 2^53 = "
                                f"{VALUE_LIMIT}, beyond exact arithmetic")
        B.setflags(write=False)
        object.__setattr__(self, "B", B)


def parse_qaplib(text: str) -> QapInstance:
    """Parse a QAPLIB .dat stream: n, then n*n entries of A, then n*n of B.

    The token stream is whitespace-agnostic; line breaks carry no meaning.
    """
    tokens = text.split()
    if not tokens:
        raise InstanceError("empty input")
    pos = 0

    def take(count: int, what: str) -> np.ndarray:
        nonlocal pos
        chunk = tokens[pos : pos + count]
        if len(chunk) < count:
            raise InstanceError(f"truncated input while reading {what}: "
                                f"expected {count} entries, found {len(chunk)}")
        pos += count
        try:
            return np.array(chunk, dtype=np.int64)   # numpy calls int() on each token
        except ValueError as exc:
            raise InstanceError(f"non-numeric token while reading {what}: {exc}") from None
        except OverflowError as exc:
            raise InstanceError(f"entry beyond 64 bits while reading {what}: {exc}") from None

    n_arr = take(1, "dimension")
    n = int(n_arr[0])
    if n < 1:
        raise InstanceError(f"invalid dimension {n}")
    A = take(n * n, "flow matrix").reshape(n, n)
    B = take(n * n, "distance matrix").reshape(n, n)
    if pos != len(tokens):
        raise InstanceError(f"{len(tokens) - pos} trailing tokens after both matrices")
    return QapInstance(n=n, A=A, B=B)


def _rank_one_binary_factor(A: np.ndarray) -> np.ndarray:
    """Return the 0/1 vector f with A = f f^T, allowing A_ii = 0 where
    (f f^T)_ii would be 1 (the zero-diagonal convention).  Raises if A does
    not factor this way."""
    n = A.shape[0]
    if np.any(A < 0) or np.any((A != 0) & (A != 1)):
        raise InstanceError("flow matrix is not 0/1 valued, not rank-one with binary factor")
    nz_rows = np.flatnonzero(A.any(axis=1))
    if nz_rows.size == 0:
        raise InstanceError("flow matrix is zero: not rank-one with nonempty support")
    i = int(nz_rows[0])
    f = (A[i] != 0).astype(np.int64)
    # Row i itself belongs to the support in either diagonal convention.
    f[i] = 1
    outer = np.outer(f, f)
    mismatch = A != outer
    # Diagonal entries may be zeroed out by convention.
    mismatch[np.diag_indices(n)] &= np.diagonal(A) != 0
    if mismatch.any():
        raise InstanceError("flow matrix is not rank-one: A != f f^T for the derived 0/1 factor")
    return f


def qap_to_bqop(qap: QapInstance) -> BqopInstance:
    """Convert a QAP whose flow matrix is f f^T (f binary) to the equivalent
    cardinality-constrained BQOP: minimize x^T B x subject to sum(x) = |f|."""
    f = _rank_one_binary_factor(qap.A)
    m = int(f.sum())
    if m >= qap.n:
        raise InstanceError("flow factor has full support; the cardinality constraint is vacuous")
    return BqopInstance(n=qap.n, B=qap.B, m=m)


def as_solution(x, n: int) -> np.ndarray:
    """Validate and normalize a binary solution vector."""
    x = np.asarray(x, dtype=np.int64).ravel()
    if x.size != n:
        raise InstanceError(f"solution has {x.size} entries, expected {n}")
    if np.any((x != 0) & (x != 1)):
        raise InstanceError("solution entries must be 0 or 1")
    return x


def objective(inst: BqopInstance, x) -> int:
    """x^T B x for a binary vector x."""
    x = as_solution(x, inst.n)
    return int(x @ inst.B @ x)


@dataclass(frozen=True)
class ScaledDistribution:
    """Scaled objective values of sampled feasible solutions plus a histogram
    summary (bin edges and probabilities)."""

    values: np.ndarray
    bin_edges: np.ndarray
    probabilities: np.ndarray

    @property
    def mean(self) -> float:
        return float(self.values.mean())


def sample_scaled_distribution(
    inst: BqopInstance,
    count: int,
    optimum: int,
    seed: int = 0,
    bins: int = 50,
) -> ScaledDistribution:
    """Scaled values (obj - optimum)/|optimum| over feasible supports.

    Supports are drawn uniformly over the m-subsets of {1..n}; each sample's
    RNG stream is derived from (seed, sample index) so the result is
    deterministic regardless of evaluation order.
    """
    if optimum == 0:
        raise InstanceError("optimum must be nonzero for scaling")
    if count < 1:
        raise InstanceError("sample count must be positive")
    B = inst.B
    vals = []
    for i in range(count):
        rng = np.random.default_rng([seed, i])
        idx = rng.choice(inst.n, size=inst.m, replace=False)
        vals.append(int(B[np.ix_(idx, idx)].sum()))
    scaled = (np.array(vals, dtype=np.float64) - optimum) / abs(optimum)
    probs, edges = np.histogram(scaled, bins=bins)
    probs = probs / scaled.size
    return ScaledDistribution(values=scaled, bin_edges=edges, probabilities=probs)


# --- serialization ---------------------------------------------------------

def bqop_to_json(inst: BqopInstance) -> str:
    """JSON with fields n, m and the row-major lower triangle of B."""
    tri = [int(inst.B[i, j]) for i in range(inst.n) for j in range(i + 1)]
    return json.dumps({"n": inst.n, "m": inst.m, "B_lower": tri})


def bqop_from_json(text: str) -> BqopInstance:
    """Inverse of ``bqop_to_json``; malformed input raises InstanceError."""
    try:
        data = json.loads(text)
        n, m, tri = data["n"], data["m"], np.asarray(data["B_lower"])
    except json.JSONDecodeError as exc:
        raise InstanceError(f"invalid JSON: {exc}") from None
    except (KeyError, TypeError, ValueError) as exc:
        raise InstanceError(f"not an object with keys n, m, B_lower: {exc!r}") from None
    if not (type(n) is type(m) is int and n > 0 and tri.dtype.kind == "i"):
        raise InstanceError("n, m and the B_lower entries must be integers, n positive")
    if tri.shape != (n * (n + 1) // 2,):
        raise InstanceError("lower triangle has wrong length")
    B = np.zeros((n, n), dtype=np.int64)
    B[np.tril_indices(n)] = tri
    return BqopInstance(n=n, B=B + np.tril(B, -1).T, m=m)
