"""Exact integer linear algebra: Hermite/Smith normal forms, primitivity,
unimodularity, saturated kernels and Gale duality.

One reduced echelon form [I | R] with unit pivots (_echelon) does the work
of validation. For B^T it gives the rank of B, a torsion-free cokernel (the
pivot minor is 1), the Gale dual A (x_free = e_j, x_pivot = -R e_j) and
B's unimodularity (R totally unimodular, decided by a scan of R's square
minors one size at a time, never one determinant per maximal minor); see
gale_dual and unimodularity_report. Only a pivot that is not a unit falls
back to the Hermite and Smith normal forms.

Everything is arbitrary-precision (plain Python ints) and every value is
immutable after construction, so all functions here are safe to call
concurrently. No floating point anywhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, gcd

from .errors import NotInjective, TorsionCokernel

# Past this many maximal minors, C(p, q) for a q x p matrix (the echelon
# scan of unimodularity_report visits C(p, q) - 1 square minors of R), fall
# back to the SNF criterion (necessary but not sufficient for rectangular
# matrices).
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
    bottom. H is the unique HNF of the row lattice of M. U is carried along
    as extra columns of [M | I].
    """
    m, n = M.rows, M.cols
    H = [list(row) + [int(i == j) for j in range(m)] for i, row in enumerate(M.data)]
    _hermite(H, n)
    return IntMatrix([row[:n] for row in H], cols=n), IntMatrix([row[n:] for row in H], cols=m)


def _hermite(H, n):
    """Bring the rows H (lists, changed in place) to row Hermite normal form
    on their first n columns; the row operations act on whole rows. Returns
    the rank, the number of nonzero rows on those columns."""
    m = len(H)
    r = 0
    for c in range(n):
        if r == m:
            break
        pivot = r
        while pivot < m and not H[pivot][c]:
            pivot += 1
        if pivot == m:
            continue
        H[r], H[pivot] = H[pivot], H[r]
        # Euclidean elimination below the pivot.
        done = False
        while not done:
            done = True
            for i in range(r + 1, m):
                if H[i][c]:
                    hr = H[r]
                    q = H[i][c] // hr[c]
                    if q:
                        H[i] = [x - q * y for x, y in zip(H[i], hr)]
                    if H[i][c]:
                        H[r], H[i] = H[i], H[r]
                        done = False
        if H[r][c] < 0:
            H[r] = [-x for x in H[r]]
        hr = H[r]
        for i in range(r):
            q = H[i][c] // hr[c]
            if q:
                H[i] = [x - q * y for x, y in zip(H[i], hr)]
        r += 1
    return r


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
    return _hermite(M.row_list(), M.cols)


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


def is_unimodular(M: IntMatrix, minor_budget: int = MINOR_BUDGET) -> bool:
    """True iff every maximal minor is in {-1, 0, 1} and at least one is nonzero.

    For square M this is |det M| = 1. Past the minor budget the SNF fallback
    (full rank, all invariant factors 1) is used; see unimodularity_report.
    """
    verdict, _ = unimodularity_report(M, minor_budget=minor_budget)
    return verdict


def unimodularity_report(M: IntMatrix, minor_budget: int = MINOR_BUDGET):
    """(verdict, method) where method is "minors" or "snf_fallback".

    "minors" is exact. Integer row operations keep every maximal minor up to
    sign, so M (oriented q x p with q <= p) is brought to reduced echelon
    form. It fails at once if its rank is below q (every maximal minor is 0)
    or a pivot is not 1 (the minor on the pivot columns is their product).
    Otherwise it is [I | R] up to column order, each maximal minor is +- a
    square minor of R, and M is unimodular iff R is totally unimodular
    (Schrijver, Theory of Linear and Integer Programming, 1986, ch. 19). The
    square minors of R are scanned one size at a time, each by Laplace
    expansion along its first row over the nonzero minors of the size below,
    stopping at the first one outside {-1, 0, 1}.

    The fallback criterion is necessary but not sufficient for rectangular
    matrices, hence the distinct method tag for reports.
    """
    if min(M.rows, M.cols) == 0:
        return False, "minors"
    if max_minor_count(M) > minor_budget:
        res = smith_normal_form(M)
        full = len(res.invariant_factors) == min(M.rows, M.cols)
        return full and res.torsion_free, "snf_fallback"
    R = _non_pivot_block(M)
    if R is None:
        return False, "minors"
    return _totally_unimodular(R), "minors"


def _non_pivot_block(M: IntMatrix):
    """The block R of the reduced echelon form [I | R] (up to column order)
    of M or its transpose, whichever is wide; None if the rank is short or a
    pivot is not a unit."""
    a = [list(r) for r in (M.data if M.rows <= M.cols else zip(*M.data))]
    pivots = _echelon(a)
    if pivots is None or len(pivots) < len(a):
        return None
    return _free_block(a, pivots)


def _echelon(a):
    """Bring the rows a (lists, changed in place) to reduced echelon form by
    integer row operations, every pivot scaled to 1. Returns the pivot
    columns, in order, with the pivot rows first and zero rows below them;
    None as soon as a pivot is not a unit."""
    q = len(a)
    pivots = []
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        if r == q:
            break
        # Euclid on column c below the pivots found so far, until the
        # smallest entry is a unit or the only one left.
        while True:
            live = [i for i in range(r, q) if a[i][c]]
            if not live:
                break
            top = min(live, key=lambda i: abs(a[i][c]))
            a[r], a[top] = a[top], a[r]
            pr, pc = a[r], a[r][c]
            if len(live) == 1 or pc in (1, -1):
                break
            for i in range(r + 1, q):
                f = a[i][c] // pc
                if f:
                    a[i] = [x - f * y for x, y in zip(a[i], pr)]
        if not live:
            continue
        if a[r][c] not in (1, -1):
            return None
        if a[r][c] == -1:
            a[r] = [-x for x in a[r]]
        pr = a[r]
        for i in range(q):
            f = a[i][c]
            if f and i != r:
                a[i] = [x - f * y for x, y in zip(a[i], pr)]
        pivots.append(c)
    return pivots


def _free_block(a, pivots):
    """R of a reduced echelon form: the pivot rows on the non-pivot columns."""
    taken = set(pivots)
    free = [c for c in range(len(a[0])) if c not in taken]
    return [[row[c] for c in free] for row in a[: len(pivots)]]


def _totally_unimodular(R):
    """True iff every square minor of R is in {-1, 0, 1}."""
    q, k = len(R), len(R[0])
    # prev[rows][cols] is a nonzero minor of the size below; absent means 0.
    prev = {(): {(): 1}}
    for s in range(1, min(q, k) + 1):
        cur = {}
        for rows in itertools.combinations(range(q), s):
            below = prev.get(rows[1:])
            if below is None:
                continue
            first = R[rows[0]]
            found = {}
            for cols in itertools.combinations(range(k), s):
                d = 0
                for j, c in enumerate(cols):
                    if first[c]:
                        sub = below.get(cols[:j] + cols[j + 1:])
                        if sub:
                            d += first[c] * sub if j % 2 == 0 else -first[c] * sub
                if d:
                    if d not in (1, -1):
                        return False
                    found[cols] = d
            if found:
                cur[rows] = found
        if not cur:
            break
        prev = cur
    return True


# -- kernels and Gale duality --------------------------------------------------


def kernel_basis(M: IntMatrix) -> IntMatrix:
    """Basis of the saturated right kernel {x : M x = 0}, as rows, HNF-canonical.

    With unit pivots the reduced echelon form [I | R] of M (up to column
    order) gives it directly: one row per non-pivot column j, with x_j = 1,
    x_pivot = -R e_j and 0 elsewhere. Otherwise the rows of the HNF transform
    that map M^T onto zero HNF rows form a basis; it is saturated because it
    is a direct summand of the ambient lattice.
    """
    a = M.row_list()
    pivots = _echelon(a)
    if pivots is None:
        return _kernel_by_transform(M)
    return _kernel_from_echelon(a, pivots, M.cols)


def _kernel_from_echelon(a, pivots, width):
    """kernel_basis read off the reduced echelon rows a with unit pivots."""
    taken = set(pivots)
    rows = []
    for j in range(width):
        if j in taken:
            continue
        x = [0] * width
        x[j] = 1
        for c, row in zip(pivots, a):
            x[c] = -row[j]
        rows.append(x)
    _hermite(rows, width)
    return IntMatrix(rows, cols=width)


def _kernel_by_transform(M):
    H, U = hermite_normal_form(M.transpose())
    rows = [list(U.row(i)) for i in range(H.rows) if not any(H.row(i))]
    _hermite(rows, M.cols)
    return IntMatrix(rows, cols=M.cols)


def gale_dual(B: IntMatrix) -> IntMatrix:
    """The (N-n) x N matrix A completing 0 -> Z^n -> Z^N -> Z^(N-n) -> 0.

    Rows of A are the HNF-canonical basis of the saturated left-orthogonal
    lattice of B, so A @ B = 0 exactly and A is surjective.
    """
    return _gale(B)[0]


def _echelon_of_transpose(B):
    """(a, pivots): the reduced echelon form of B^T with unit pivots, or None
    when a pivot is not a unit."""
    a = [list(col) for col in zip(*B.data)]
    pivots = _echelon(a)
    return None if pivots is None else (a, pivots)


def _gale(B):
    """(gale_dual(B), the echelon of B^T or None).

    One reduced echelon form of B^T settles everything when its pivots are
    units: the rank is the number of pivots, the cokernel is torsion-free
    (the pivot minor is 1), and A is its kernel. Only a pivot that is not a
    unit sends B through rank, SNF and the HNF transform, in that order.
    """
    N, n = B.rows, B.cols
    echelon = None if n > N else _echelon_of_transpose(B)
    if n > N or _rank_of(B, echelon) < n:
        raise NotInjective(f"matrix of shape {B.shape} has rank below {n}")
    if echelon is None:
        snf = smith_normal_form(B)
        if not snf.torsion_free:
            raise TorsionCokernel(
                f"invariant factors {list(snf.invariant_factors)} contain an entry > 1"
            )
    return _kernel_of_transpose(B, echelon), echelon


def _rank_of(B, echelon):
    """rank(B), counted off the echelon of B^T when there is one."""
    return rank(B) if echelon is None else len(echelon[1])


def _kernel_of_transpose(B, echelon):
    """kernel_basis(B^T), from the echelon of B^T when there is one."""
    if echelon is None:
        return _kernel_by_transform(B.transpose())
    return _kernel_from_echelon(*echelon, B.rows)


def _unimodularity_of(B, echelon):
    """unimodularity_report(B) for B of full column rank, with R taken from
    the echelon of B^T (the matrix _non_pivot_block reduces, or for square B
    its transpose, which has the same determinant)."""
    if echelon is None or min(B.rows, B.cols) == 0 or max_minor_count(B) > MINOR_BUDGET:
        return unimodularity_report(B)
    a, pivots = echelon
    return _totally_unimodular(_free_block(a, pivots)), "minors"
