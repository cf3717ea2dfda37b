"""Exact integer linear algebra: Hermite/Smith normal forms, primitivity,
unimodularity, saturated kernels and Gale duality.

Everything is arbitrary-precision (plain Python ints) and every value is
immutable after construction, so all functions here are safe to call
concurrently. No floating point anywhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, gcd

from .errors import NotInjective, TorsionCokernel

# Refuse maximal-minor enumeration past this many minors; fall back to the
# SNF criterion (necessary but not sufficient for rectangular matrices).
MINOR_BUDGET = 10**6


class IntMatrix:
    """Dense immutable matrix of Python ints, row-major."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, data, cols=None):
        rows = tuple(tuple(int(x) for x in row) for row in data)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError("cols does not match row width")
            cols = width
        else:
            cols = 0 if cols is None else int(cols)
        self.rows = len(rows)
        self.cols = cols
        self._data = rows

    # -- construction -----------------------------------------------------

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    # -- access ------------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self._data[i][j]

    def row(self, i):
        return self._data[i]

    def column(self, j):
        return tuple(r[j] for r in self._data)

    def row_list(self):
        return [list(r) for r in self._data]

    @property
    def data(self):
        return self._data

    def is_zero(self):
        return all(x == 0 for row in self._data for x in row)

    # -- algebra -----------------------------------------------------------

    def transpose(self):
        return IntMatrix(
            [[self._data[i][j] for i in range(self.rows)] for j in range(self.cols)],
            cols=self.rows,
        )

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        od = other._data
        return IntMatrix(
            [
                [sum(a * od[k][j] for k, a in enumerate(srow)) for j in range(other.cols)]
                for srow in self._data
            ],
            cols=other.cols,
        )

    def mat_vec(self, v):
        if self.cols != len(v):
            raise ValueError("shape mismatch in mat_vec")
        return tuple(sum(a * x for a, x in zip(row, v)) for row in self._data)

    @property
    def shape(self):
        return (self.rows, self.cols)

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.shape == other.shape
            and self._data == other._data
        )

    def __hash__(self):
        return hash((self.shape, self._data))

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self._data]!r})"


# -- vectors ----------------------------------------------------------------


def vec_gcd(v):
    g = 0
    for x in v:
        g = gcd(g, x)
    return g


def is_primitive(v):
    """True iff v is nonzero with coordinate gcd 1."""
    return any(x != 0 for x in v) and vec_gcd(v) == 1


def primitive_part(v):
    """v divided by its content; zero vectors are returned unchanged."""
    g = vec_gcd(v)
    if g == 0:
        return tuple(v)
    return tuple(x // g for x in v)


def canonical_sign(v):
    """Flip sign so the first nonzero coordinate is positive."""
    for x in v:
        if x > 0:
            return tuple(v)
        if x < 0:
            return tuple(-y for y in v)
    return tuple(v)


def canonical_primitive(v):
    return canonical_sign(primitive_part(v))


# -- normal forms -------------------------------------------------------------


def hermite_normal_form(M: IntMatrix):
    """Row-style Hermite normal form.

    Returns (H, U) with U unimodular, U @ M = H, pivot entries positive and
    entries above each pivot reduced into [0, pivot). Zero rows sink to the
    bottom. H is the unique HNF of the row lattice of M.
    """
    m, n = M.rows, M.cols
    H = M.row_list()
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]

    def row_sub(i, j, q):
        # row_i -= q * row_j
        Hi, Hj = H[i], H[j]
        for k in range(n):
            Hi[k] -= q * Hj[k]
        Ui, Uj = U[i], U[j]
        for k in range(m):
            Ui[k] -= q * Uj[k]

    def row_swap(i, j):
        H[i], H[j] = H[j], H[i]
        U[i], U[j] = U[j], U[i]

    def row_neg(i):
        H[i] = [-x for x in H[i]]
        U[i] = [-x for x in U[i]]

    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if H[i][c] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            row_swap(r, pivot)
        # Euclidean elimination below the pivot.
        while True:
            done = True
            for i in range(r + 1, m):
                if H[i][c] != 0:
                    q = H[i][c] // H[r][c]
                    row_sub(i, r, q)
                    if H[i][c] != 0:
                        row_swap(r, i)
                        done = False
            if done:
                break
        if H[r][c] < 0:
            row_neg(r)
        for i in range(r):
            q = H[i][c] // H[r][c]
            if q:
                row_sub(i, r, q)
        r += 1
        if r == m:
            break

    return IntMatrix(H, cols=n), IntMatrix(U, cols=m)


@dataclass(frozen=True)
class SmithResult:
    """U @ M @ V = S with S diagonal and successive divisibility."""

    S: IntMatrix
    U: IntMatrix
    V: IntMatrix
    invariant_factors: tuple

    @property
    def torsion_free(self):
        return all(f == 1 for f in self.invariant_factors)


def smith_normal_form(M: IntMatrix) -> SmithResult:
    m, n = M.rows, M.cols
    S = M.row_list()
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_sub(i, j, q):
        for k in range(n):
            S[i][k] -= q * S[j][k]
        for k in range(m):
            U[i][k] -= q * U[j][k]

    def col_sub(i, j, q):
        # col_i -= q * col_j
        for k in range(m):
            S[k][i] -= q * S[k][j]
        for k in range(n):
            V[k][i] -= q * V[k][j]

    def row_swap(i, j):
        S[i], S[j] = S[j], S[i]
        U[i], U[j] = U[j], U[i]

    def col_swap(i, j):
        for k in range(m):
            S[k][i], S[k][j] = S[k][j], S[k][i]
        for k in range(n):
            V[k][i], V[k][j] = V[k][j], V[k][i]

    def row_neg(i):
        S[i] = [-x for x in S[i]]
        U[i] = [-x for x in U[i]]

    t = 0
    while t < min(m, n):
        # Bring a nonzero entry to (t, t).
        pos = next(
            ((i, j) for i in range(t, m) for j in range(t, n) if S[i][j] != 0), None
        )
        if pos is None:
            break
        if pos[0] != t:
            row_swap(t, pos[0])
        if pos[1] != t:
            col_swap(t, pos[1])
        while True:
            # Clear column t.
            for i in range(t + 1, m):
                while S[i][t] != 0:
                    q = S[i][t] // S[t][t]
                    row_sub(i, t, q)
                    if S[i][t] != 0:
                        row_swap(t, i)
            # Clear row t; may reintroduce column entries.
            dirty = False
            for j in range(t + 1, n):
                while S[t][j] != 0:
                    q = S[t][j] // S[t][t]
                    col_sub(j, t, q)
                    if S[t][j] != 0:
                        col_swap(t, j)
                        dirty = True
            if dirty:
                continue
            if any(S[i][t] != 0 for i in range(t + 1, m)):
                continue
            # Enforce divisibility of the remaining block by S[t][t].
            offender = next(
                (
                    (i, j)
                    for i in range(t + 1, m)
                    for j in range(t + 1, n)
                    if S[i][j] % S[t][t] != 0
                ),
                None,
            )
            if offender is None:
                break
            row_sub(t, offender[0], -1)  # add offending row into row t
        if S[t][t] < 0:
            row_neg(t)
        t += 1

    factors = tuple(S[i][i] for i in range(min(m, n)) if S[i][i] != 0)
    return SmithResult(
        S=IntMatrix(S, cols=n),
        U=IntMatrix(U, cols=m),
        V=IntMatrix(V, cols=n),
        invariant_factors=factors,
    )


def rank(M: IntMatrix) -> int:
    H, _ = hermite_normal_form(M)
    return sum(1 for row in H.data if any(x != 0 for x in row))


def det(M: IntMatrix) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    if M.rows != M.cols:
        raise ValueError("determinant of a non-square matrix")
    n = M.rows
    if n == 0:
        return 1
    a = M.row_list()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def max_minor_count(M: IntMatrix) -> int:
    m = min(M.rows, M.cols)
    return comb(max(M.rows, M.cols), m) if m else 0


def iter_max_minors(M: IntMatrix):
    """Yield all maximal (size min(rows, cols)) minors."""
    m = min(M.rows, M.cols)
    if m == 0:
        return
    if M.rows >= M.cols:
        for combo in itertools.combinations(range(M.rows), m):
            yield det(IntMatrix([M.row(i) for i in combo], cols=M.cols))
    else:
        T = M.transpose()
        for combo in itertools.combinations(range(T.rows), m):
            yield det(IntMatrix([T.row(i) for i in combo], cols=T.cols))


def is_unimodular(M: IntMatrix, minor_budget: int = MINOR_BUDGET) -> bool:
    """True iff every maximal minor is in {-1, 0, 1} and at least one is nonzero.

    For square M this is |det M| = 1. Past the minor budget the SNF fallback
    (full rank, all invariant factors 1) is used; see unimodularity_report.
    """
    verdict, _ = unimodularity_report(M, minor_budget=minor_budget)
    return verdict


def unimodularity_report(M: IntMatrix, minor_budget: int = MINOR_BUDGET):
    """(verdict, method) where method is "minors" or "snf_fallback".

    The fallback criterion is necessary but not sufficient for rectangular
    matrices, hence the distinct method tag for reports.
    """
    if min(M.rows, M.cols) == 0:
        return False, "minors"
    if max_minor_count(M) > minor_budget:
        res = smith_normal_form(M)
        full = len(res.invariant_factors) == min(M.rows, M.cols)
        return full and res.torsion_free, "snf_fallback"
    saw_nonzero = False
    for minor in iter_max_minors(M):
        if minor not in (-1, 0, 1):
            return False, "minors"
        if minor != 0:
            saw_nonzero = True
    return saw_nonzero, "minors"


# -- kernels and Gale duality --------------------------------------------------


def kernel_basis(M: IntMatrix) -> IntMatrix:
    """Basis of the saturated right kernel {x : M x = 0}, as rows, HNF-canonical.

    The rows of the HNF transform that map M^T onto zero HNF rows form a basis
    of the kernel lattice; it is automatically saturated because it is a direct
    summand of the ambient lattice.
    """
    H, U = hermite_normal_form(M.transpose())
    kernel_rows = [U.row(i) for i in range(H.rows) if all(x == 0 for x in H.row(i))]
    if not kernel_rows:
        return IntMatrix([], cols=M.cols)
    K, _ = hermite_normal_form(IntMatrix(kernel_rows, cols=M.cols))
    return K


def gale_dual(B: IntMatrix) -> IntMatrix:
    """The (N-n) x N matrix A completing 0 -> Z^n -> Z^N -> Z^(N-n) -> 0.

    Rows of A are the HNF-canonical basis of the saturated left-orthogonal
    lattice of B, so A @ B = 0 exactly and A is surjective.
    """
    N, n = B.rows, B.cols
    if n > N or rank(B) < n:
        raise NotInjective(f"matrix of shape {B.shape} has rank below {n}")
    snf = smith_normal_form(B)
    if not snf.torsion_free:
        raise TorsionCokernel(
            f"invariant factors {list(snf.invariant_factors)} contain an entry > 1"
        )
    return kernel_basis(B.transpose())
