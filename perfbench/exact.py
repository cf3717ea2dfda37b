"""Small exact integer arithmetic owned by the benchmark.

The correctness checks must not trust the code under test, so the
determinants, ranks and products they need are computed here from plain
Python ints and Fractions. Inputs are tuples of int rows.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd


def det(rows):
    """Determinant of a square int matrix by fraction-free elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * prev if n else 1


def rank(rows):
    """Rank over Q by Gaussian elimination on Fractions."""
    a = [[Fraction(x) for x in r] for r in rows]
    r = 0
    for c in range(len(a[0]) if a else 0):
        pivot = next((i for i in range(r, len(a)) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        for i in range(r + 1, len(a)):
            f = a[i][c] / a[r][c]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def matmul(left, right):
    cols = list(zip(*right))
    return [tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in left]


def is_zero(rows):
    return all(x == 0 for row in rows for x in row)


def content(v):
    g = 0
    for x in v:
        g = gcd(g, x)
    return g


def canonical_sign(v):
    """Flip v so that its first nonzero entry is positive."""
    for x in v:
        if x:
            return tuple(v) if x > 0 else tuple(-y for y in v)
    return tuple(v)


def parallel_classes(rows):
    """{canonical row: multiplicity} for rows taken up to sign."""
    classes = {}
    for row in rows:
        key = canonical_sign(row)
        classes[key] = classes.get(key, 0) + 1
    return classes


def maximal_minors(rows, n):
    """All n x n minors of an N x n matrix, in lexicographic row order."""
    return [det([rows[i] for i in subset]) for subset in combinations(range(len(rows)), n)]


def expected_verdict(rows, n):
    """The error code hkit must raise for B, or None when B is valid.

    Checked in hkit's order: non-primitive row, not injective, torsion in the
    cokernel (gcd of maximal minors above 1), a maximal minor outside -1..1.
    """
    if any(content(r) != 1 for r in rows):
        return "non_primitive_row"
    minors = maximal_minors(rows, n) if n <= len(rows) else []
    if not any(minors):
        return "not_injective"
    if content(minors) != 1:
        return "torsion_cokernel"
    if any(abs(m) > 1 for m in minors):
        return "not_unimodular"
    return None


def kernel_line(rows, n):
    """Primitive generator of the kernel of an (n-1) x n int matrix of rank
    n - 1: the generalised cross product of its rows."""
    y = [(-1) ** j * det([r[:j] + r[j + 1:] for r in rows]) for j in range(n)]
    g = content(y)
    return tuple(x // g for x in y)


def circuit_count(rows, n):
    """Number of circuits of the column lattice of B, up to sign.

    A circuit is B y with y spanning the kernel of n - 1 independent rows, so
    its support is minimal. For unimodular B these are the Graver basis.
    """
    found = set()
    for subset in combinations(range(len(rows)), n - 1):
        sub = [rows[i] for i in subset]
        if n > 1 and rank(sub) < n - 1:
            continue
        y = kernel_line(sub, n)
        x = tuple(sum(a * b for a, b in zip(row, y)) for row in rows)
        g = content(x)
        found.add(canonical_sign(tuple(v // g for v in x)))
    return len(found)


def in_column_span(rows, target):
    """True when the vector target lies in the rational column span of B."""
    return rank([list(r) + [t] for r, t in zip(rows, target)]) == rank(rows)
