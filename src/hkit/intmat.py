"""Exact integer linear algebra: Hermite/Smith normal forms, primitivity,
unimodularity, saturated kernels and Gale duality.

One elimination loop, the row Hermite normal form (_hermite), does all the
work. An HNF whose pivots are all 1 is the reduced echelon form [I | R] up to
column order, and the HNF of a matrix of full column rank has pivots that
multiply to the gcd of its maximal minors (Schrijver, Theory of Linear and
Integer Programming, 1986, ch. 4; Cohen, A Course in Computational Algebraic
Number Theory, 1993, 2.4). So one HNF of B^T gives the rank of B, and when
its pivots are 1 also a torsion-free cokernel (the pivot minor is 1), the
Gale dual A (x_free = e_j, x_pivot = -R e_j) and B's unimodularity: every
circuit of B's column lattice is a {0, +-1} vector. One enumerator,
_elementary, builds those circuits with work that grows with their number;
_Forms.circuits keeps them, so the verdict and the Hilbert basis of
`hypertoric` share one enumeration. A pivot that is not 1 makes B not
unimodular; then one plain HNF of B's rows, U B = [T; 0] with no U, built
on first use, decides torsion by its pivots (the cokernel's torsion is
Z^n / T Z^n), and only the kernel of such a B takes the HNF with its
transform U. One class, _Forms, holds these forms and is the only code
that decides rank, torsion, the invariant factors, the Gale dual, the
kernel and unimodularity, on B's side and on A's. One rule, _oriented,
turns a matrix tall for a verdict: it takes the _Forms of M or of M^T,
whichever is tall, and unimodularity_report, the case split and `hkit
check` read it; kernel_basis is _Forms on M^T. The Smith normal form,
_smith, runs the same loop on columns and rows in turn, from rows already
in row HNF.
_Forms.invariant_factors, which `hkit check` reads, runs it with no U
and no V on T, whose invariant factors are B's, and only for a B^T whose
HNF has a pivot other than 1 (with unit pivots an identity minor of size
rank makes every invariant factor 1), once: they are made on first use. A
TorsionCokernel keeps the _Forms and asks for their invariant factors only
when its message is read, so refusing a B runs no _smith, and a second read
of the message runs none either.

Everything is arbitrary-precision (plain Python ints) and every value is
immutable after construction, so all functions here are safe to call
concurrently. A value made on first use (an `_on_first_use` form, or a flat
direction of `hkit.arrangement`, which fills its rows on first read) is
stored once made, and concurrent first reads store equal values. No floating
point anywhere.
"""

import itertools
from math import gcd
from typing import NamedTuple

from .errors import NonPrimitiveRow, NotInjective, TorsionCokernel


class IntMatrix:
    """Dense immutable matrix of Python ints, row-major."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, data, cols=None):
        rows = tuple(map(tuple, data))
        if set(map(type, itertools.chain.from_iterable(rows))) - {int}:  # bool is not int
            raise ValueError(f"matrix entries must be int, got {rows!r}")
        if cols is not None and (type(cols) is not int or cols < 0):
            raise ValueError(f"cols must be a nonnegative int, got {cols!r}")
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError("cols does not match row width")
            cols = width
        else:
            cols = 0 if cols is None else cols
        self.rows = len(rows)
        self.cols = cols
        self._data = rows

    # -- construction -----------------------------------------------------

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def _of(cls, rows, cols):
        """The matrix of rows that hkit computed itself, a tuple of int tuples
        of width cols, taken as they are: the constructor's checks would only
        scan every entry again."""
        M = object.__new__(cls)
        M.rows, M.cols, M._data = len(rows), cols, rows
        return M

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
        return IntMatrix._of(tuple(zip(*self._data)) if self.rows else ((),) * self.cols, self.rows)

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

    def __reduce__(self):
        # pickles at every protocol, as a plain IntMatrix of its rows
        return IntMatrix, (self._data, self.cols)


# -- vectors ----------------------------------------------------------------


def is_primitive(v):
    """True iff v is nonzero with coordinate gcd 1; the gcd of a zero or
    empty vector is 0."""
    return gcd(*v) == 1


def primitive_part(v):
    """v divided by its content; zero vectors are returned unchanged."""
    g = gcd(*v)
    if g == 0:
        return tuple(v)
    return tuple(x // g for x in v)


def canonical_sign(v):
    """Flip sign so the first nonzero coordinate is positive."""
    for x in v:
        if x > 0:
            return tuple(v)
        if x < 0:
            return tuple([-y for y in v])
    return tuple(v)


def canonical_primitive(v):
    """canonical_sign(primitive_part(v)) in one pass: v divided by its
    content, negated when its first nonzero entry is negative."""
    g = gcd(*v)
    if not g:
        return tuple(v)
    if next(filter(None, v)) < 0:
        g = -g
    return tuple(v) if g == 1 else tuple([x // g for x in v])


def non_primitive_rows(B):
    """The indices of B's rows that are not primitive, in order."""
    return [i for i, row in enumerate(B.data) if gcd(*row) != 1]


def check_primitive_rows(B):
    """Raise NonPrimitiveRow for the first row of B that is not primitive."""
    bad = non_primitive_rows(B)
    if bad:
        raise NonPrimitiveRow(bad[0], B.row(bad[0]))


# -- normal forms -------------------------------------------------------------


def hermite_normal_form(M: IntMatrix):
    """Row-style Hermite normal form.

    Returns (H, U) with U unimodular, U @ M = H, pivot entries positive and
    entries above each pivot reduced into [0, pivot). Zero rows sink to the
    bottom. H is the unique HNF of the row lattice of M. U is carried along
    as extra columns of [M | I].
    """
    n = M.cols
    H, _ = _with_transform(M)
    return IntMatrix([row[:n] for row in H], cols=n), IntMatrix([row[n:] for row in H], cols=M.rows)


def _with_transform(M):
    """(rows [H | U], pivot columns of H) for the HNF U @ M = H."""
    m = M.rows
    H = [list(row) + [int(i == j) for j in range(m)] for i, row in enumerate(M.data)]
    return H, _hermite(H, M.cols)


def _hermite(H, n):
    """Bring the rows H (lists, changed in place) to row Hermite normal form
    on their first n columns; the row operations act on whole rows. Returns
    the pivot columns, in order: the pivot rows come first and the rows below
    them are zero on the first n columns. Their number is the rank."""
    m = len(H)
    pivots = []
    for c in range(n):
        r = len(pivots)
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
        pivots.append(c)
    return pivots


def _unit(H, pivots):
    """True iff every pivot of the HNF rows H is 1. Entries above a pivot lie
    in [0, pivot), so H is then the reduced echelon form [I | R] up to column
    order."""
    return all(H[i][c] == 1 for i, c in enumerate(pivots))


class SmithResult(NamedTuple):
    """U @ M @ V = S with S diagonal and successive divisibility."""

    S: IntMatrix
    U: IntMatrix
    V: IntMatrix
    invariant_factors: tuple

    @property
    def torsion_free(self):
        return all(f == 1 for f in self.invariant_factors)


def smith_normal_form(M: IntMatrix) -> SmithResult:
    """U @ M @ V = S by _smith from the row HNF [H | U] of _with_transform,
    with U carried as extra columns of the rows and V as extra columns of
    the columns."""
    m, n = M.rows, M.cols
    SU, _ = _with_transform(M)
    VT = [[int(i == j) for j in range(n)] for i in range(n)]
    factors = _smith(SU, n, VT)
    return SmithResult(
        S=IntMatrix([row[:n] for row in SU], cols=n),
        U=IntMatrix([row[n:] for row in SU], cols=m),
        V=IntMatrix(zip(*VT), cols=n),
        invariant_factors=factors,
    )


def _smith(SU, n, VT):
    """Bring the rows SU (lists, changed in place), which must be in row
    HNF on their first n columns, to Smith normal form there by column and
    row HNFs in turn until it is diagonal, and return the invariant
    factors, its nonzero diagonal entries. The row operations act on whole
    rows of SU, and the column operations on whole rows of VT, the n
    columns' extra entries (lists, replaced in place): identities give U
    and V^T, empty lists give neither. When a diagonal entry does not
    divide the next one, the next column is added into its column and the
    loop goes on: the row HNF that ends the round puts their gcd on the
    diagonal."""
    m = len(SU)
    while True:
        # The columns of S with their extra entries: [S^T | V^T].
        SV = [[row[j] for row in SU] + v for j, v in enumerate(VT)]
        _hermite(SV, m)
        VT[:] = [col[m:] for col in SV]
        for i, row in enumerate(SU):
            row[:n] = [col[i] for col in SV]
        if not any(col[i] for j, col in enumerate(SV) for i in range(m) if i != j):
            d = [SV[k][k] for k in range(min(m, n))]
            k = next((k for k in range(len(d) - 1) if d[k] and d[k + 1] % d[k]), None)
            if k is None:
                return tuple(x for x in d if x)
            for row in SU:
                row[k] += row[k + 1]
            VT[k] = [x + y for x, y in zip(VT[k], VT[k + 1])]
        _hermite(SU, n)


def rank(M: IntMatrix) -> int:
    return len(_hermite(M.row_list(), M.cols))


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


def is_unimodular(M: IntMatrix) -> bool:
    """True iff every maximal minor is in {-1, 0, 1} and at least one is nonzero."""
    return unimodularity_report(M)[0]


def unimodularity_report(M: IntMatrix):
    """(verdict, "minors"): _oriented(M).unimodular, with the method name
    that reports carry."""
    return _oriented(M).unimodular, "minors"


def _oriented(M):
    """The _Forms that decides M's verdicts: of M when it is tall (rows >=
    cols), else of M^T. The rank, the invariant factors and the maximal
    minors, so unimodularity, do not change under transposition, and a wide
    M has rank below its column count."""
    return _Forms(M if M.rows >= M.cols else M.transpose())


def _elementary(rows, unit_cols):
    """The elementary (minimal-support) vectors of the row space of rows, one
    per sign pair, or None at the first entry outside {-1, 0, 1}; row k is 1
    at unit_cols[k] and 0 at the other unit columns.

    The other columns come one at a time. At column j every vector stays,
    and each pair u, v nonzero at j gives v_j u - u_j v when no third vector
    has its support on the columns done so far inside supp u | supp v (a
    scan, small supports first): then u, v alone span a 2-dimensional flat,
    whose line in j's hyperplane is new. Cheaper tests go first: u_j u and
    v_j v must not agree on a done column (it would cut a third line out of
    the flat), and the union must leave len(rows) - 2 done columns zero.
    _Forms.unimodular has the proof. A column where fewer than two vectors
    are nonzero makes no vector, so it is done at once, and the scan's
    supports are sorted only for the first pair at a column that passes the
    cheaper tests.
    """
    vectors, pos, neg = [], [], []  # the vectors and their +1 and -1 columns

    def admit(x):
        p = n = 0
        bit = 1
        for e in x:
            if e:
                if e == 1:
                    p |= bit
                elif e == -1:
                    n |= bit
                else:
                    return False
            bit <<= 1
        vectors.append(tuple(x))
        pos.append(p)
        neg.append(n)
        return True

    if not all(map(admit, rows)):
        return None
    done = sum(1 << c for c in unit_cols)
    for j in range(len(rows[0]) if rows else 0):
        bit = 1 << j
        if done & bit:
            continue
        hits = [
            (k, p & done, n & done) if p & bit else (k, n & done, p & done)
            for k, (p, n) in enumerate(zip(pos, neg))
            if (p | n) & bit
        ]
        if len(hits) < 2:
            done |= bit
            continue
        room = done.bit_count() - len(rows) + 2
        order = None
        new = []
        for i, (a, pa, na) in enumerate(hits):
            for b, pb, nb in hits[i + 1:]:
                union = pa | na | pb | nb
                if pa & pb or na & nb or union.bit_count() > room:
                    continue
                if order is None:
                    order = sorted(((p | n) & done for p, n in zip(pos, neg)), key=int.bit_count)
                # distinct vectors have distinct supports on the done columns
                sa, sb = pa | na, pb | nb
                if any(m | union == union and m != sa and m != sb for m in order):
                    continue
                u, v = vectors[a], vectors[b]
                new.append([v[j] * s - u[j] * t for s, t in zip(u, v)])
        if not all(map(admit, new)):
            return None
        done |= bit
    return vectors


# -- kernels and Gale duality --------------------------------------------------


def kernel_basis(M: IntMatrix) -> IntMatrix:
    """Basis of the saturated right kernel {x : M x = 0}, as rows,
    HNF-canonical: _Forms.kernel of M^T."""
    return _Forms(M.transpose()).kernel


def _fundamental_rows(a, pivots, width):
    """(rows, free columns) of the kernel of the reduced echelon rows a with
    unit pivots: per free column j, x_j = 1, x_pivot = -R e_j, 0 elsewhere."""
    taken = set(pivots)
    free = [j for j in range(width) if j not in taken]
    rows = []
    for j in free:
        x = [0] * width
        x[j] = 1
        for c, row in zip(pivots, a):
            x[c] = -row[j]
        rows.append(x)
    return rows, free


def gale_dual(B: IntMatrix) -> IntMatrix:
    """The (N-n) x N matrix A completing 0 -> Z^n -> Z^N -> Z^(N-n) -> 0.

    Rows of A are the HNF-canonical basis of the saturated left-orthogonal
    lattice of B, so A @ B = 0 exactly and A is surjective.
    """
    return _gale(B).kernel


class _on_first_use:
    """A method read as an attribute: the first read stores its value in the
    instance's __dict__, which every later read finds before the class, so
    the value is then a plain attribute. Unlike functools.cached_property
    before Python 3.12, no lock is taken."""

    def __init__(self, method):
        self.method = method
        self.__doc__ = method.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, forms, owner=None):
        if forms is None:
            return self
        value = forms.__dict__[self.name] = self.method(forms)
        return value


class _Forms:
    """The one decider of rank, torsion, the invariant factors, the kernel,
    unimodularity and the Gale dual's unimodularity, for B (N x n): the HNF
    of B^T, and, built on first use, one plain HNF of B's rows and one HNF
    of B with its transform. It is a function of B, so it compares, hashes
    and prints as B.

    The pivots of B^T's HNF are the rows of B that are independent of the
    rows before them. Pivots that are all 1 make it [I | R] up to column
    order with pivot minor 1, so at rank n the pivot rows are a Z-basis of
    Z^n, the cokernel is torsion-free, and the kernel of B^T and the
    circuits that decide unimodularity are read off [I | R]. A pivot
    d > 1 puts d in the pivot minor, so B is not unimodular; then the HNF
    U @ B = [T; 0] of B's rows has pivots that multiply to the gcd of B's
    maximal minors, so the cokernel, whose torsion is Z^n / T Z^n, is
    torsion-free iff they are all 1, and B's invariant factors are T's.
    Neither needs U; only the kernel reads the transform.
    """

    def __init__(self, B):
        self.B = B
        self.echelon = [list(col) for col in zip(*B.data)]
        self.pivots = _hermite(self.echelon, B.rows)
        self.rank = len(self.pivots)
        self.unit = _unit(self.echelon, self.pivots)

    def __eq__(self, other):
        return isinstance(other, _Forms) and self.B == other.B

    def __hash__(self):
        return hash(self.B)

    def __repr__(self):
        return f"_Forms({self.B!r})"

    @_on_first_use
    def hermite(self):
        """(rows H, pivots) of the HNF of B's rows, U @ B = H with no U."""
        H = self.B.row_list()
        return H, _hermite(H, self.B.cols)

    @_on_first_use
    def transform(self):
        """(rows [H | U], pivots) of the HNF U @ B = H, for the kernel of a
        B whose pivots are not all 1."""
        return _with_transform(self.B)

    @property
    def torsion_free(self):
        """For B of rank n: whether the cokernel is torsion-free."""
        return self.unit or _unit(*self.hermite)

    @_on_first_use
    def invariant_factors(self):
        """B's invariant factors: (1,) * rank when the pivots are 1, whose
        rows hold an identity minor of size rank, otherwise those of the
        nonzero rows T of the HNF U @ B = [T; 0], already in row HNF, by
        _smith with no U and no V."""
        if self.unit:
            return (1,) * self.rank
        H, pivots = self.hermite
        n = self.B.cols
        return _smith([list(row) for row in H[: len(pivots)]], n, [[] for _ in range(n)])

    @_on_first_use
    def kernel(self):
        """kernel_basis(B^T) at any rank: with unit pivots the rows
        x_free = e_j, x_pivot = -R e_j, HNF-reduced; otherwise the rows of
        the transform U on the zero rows of U @ B = H, which span the
        saturated kernel because U's rows are a basis of Z^N."""
        N, n = self.B.shape
        if self.unit:
            rows, _ = _fundamental_rows(self.echelon, self.pivots, N)
        else:
            H, pivots = self.transform
            rows = [row[n:] for row in H[len(pivots):]]
        _hermite(rows, N)
        return IntMatrix._of(tuple(map(tuple, rows)), N)

    @_on_first_use
    def circuits(self):
        """The elementary vectors of the row space of B^T's echelon rows,
        one per sign pair, or None when a pivot is not 1 or at the first
        entry outside {-1, 0, 1}: the circuits of B's column lattice.
        `unimodular` stores them when it enumerates on B's side."""
        return _elementary(self.echelon[: self.rank], self.pivots) if self.unit else None

    @_on_first_use
    def unimodular(self):
        """Whether a tall B (N >= n) is unimodular, exact at every size;
        `_oriented` turns a wide B tall first.

        Row operations keep maximal minors up to sign, so a rank below n or
        a pivot d > 1 (a minor of d) says no. Otherwise B^T reduces to
        E = [I | R] up to column order, and B is unimodular iff
        every elementary vector of E's row space is a {0, +-1} vector
        (Tutte, Canad. J. Math. 1956); _elementary builds them column by
        column.
        - (<=) For a basis M of n columns, each row of M^-1 E is elementary
          with a unit entry, so it is {0, +-1}; M^-1 is integral, det M = +-1.
        - Exactness: a new line lies in one 2-dimensional flat of the done
          columns. If the flat holds only u and v, the scan finds the pair;
          a third vector w in it is +-u +- v when all are {0, +-1}, so
          w_j = +-2 (rejected when w was made) unless one of u, v, w is 0 at
          j, and then the flat has no new line. So after the columns P the
          vectors are the elementary vectors of [I | R_P].
        - Early exit: each vector made is also elementary in E's row space,
          and R_P is totally unimodular whenever R is, so a bad entry at any
          step proves that B is not unimodular.
        The kernel rows x_free = e_j, x_pivot = -R e_j span the orthogonal
        complement, with the complementary maximal minors up to sign, so the
        enumerator runs on E when n <= N - n and on them otherwise.
        """
        N, n = self.B.shape
        if min(N, n) == 0 or self.rank < n or not self.unit:
            return False
        if n <= N - n:
            return self.circuits is not None
        return self.dependency_circuits() is not None

    def dependency_circuits(self):
        """The circuits of the dependencies among B's rows, one per sign
        pair, for B^T with unit pivots: the elementary vectors of the span of
        the kernel rows x_free = e_j, x_pivot = -R e_j, or None at the first
        entry outside {-1, 0, 1}."""
        return _elementary(*_fundamental_rows(self.echelon, self.pivots, self.B.rows))

    def dual_unimodular(self):
        """Whether the Gale dual A = self.kernel is unimodular, for B of
        rank n. The empty A (N = n) counts as unimodular, and so does the
        A = I_N of a B with no columns (n = 0), which B's own verdict cannot
        give: a matrix with no columns has no maximal minors for
        is_unimodular. With a torsion-free cokernel,
        0 -> Z^n -> Z^N -> Z^(N-n) -> 0 is exact with maps B and A,
        and the maximal minor of A on a set of columns equals, up to one
        global sign, the maximal minor of B on the complementary rows (Hausel
        and Sturmfels, Doc. Math. 2002), so A is unimodular iff B is. With
        torsion, A spans only the saturated orthogonal lattice and
        is_unimodular(A) decides."""
        if not self.B.cols or not self.kernel.rows:
            return True
        if self.torsion_free:
            return self.unimodular
        return is_unimodular(self.kernel)


def _gale(B):
    """The _Forms of B, whose kernel is gale_dual(B), once B has rank n
    and a torsion-free cokernel. Errors come in the order rank, torsion; the
    torsion error keeps these _Forms, whose invariant factors word its
    message when it is read."""
    forms = _Forms(B)
    if forms.rank < B.cols:
        raise NotInjective(f"matrix of shape {B.shape} has rank below {B.cols}")
    if not forms.torsion_free:
        raise TorsionCokernel(forms)
    return forms
