"""Deterministic matrix corpus shared by the oracle and acceptance suites.

Matrices are identified with multisets of sign-canonical primitive rows (row
order and per-row signs never change the discriminant), so the corpus is
deduplicated by construction:

* n = 1: the all-ones columns for every N up to the size cap.
* n = 2: every multiset of rows drawn from the canonical primitive vectors
  with entries in [-2, 2] (8 of them), exhaustively.
* n = 3: every multiset of size <= 4 from the canonical primitive vectors
  with entries in [-1, 1] (13 of them), plus a seeded sample of size-5/6
  multisets from the full [-2, 2] pool (49 vectors).
"""

import itertools
import random
from collections import Counter
from math import gcd

from hkit.arrangement import build_discriminant, group_hyperplanes, stabilizer_rank
from hkit.characterization import DivisorData
from hkit.hypertoric import HypertoricData
from hkit.intmat import (
    IntMatrix,
    canonical_primitive,
    canonical_sign,
    gale_dual,
    is_primitive,
    rank,
    smith_normal_form,
)
from hkit.errors import HkitError
from oracles import generic_point_on

SAMPLE_SEED = 2024
SAMPLES_PER_SIZE = 150


def primitive_vectors(n, bound):
    """Canonical (positive leading entry) primitive vectors, sorted."""
    out = set()
    for v in itertools.product(range(-bound, bound + 1), repeat=n):
        if any(v):
            g = 0
            for x in v:
                g = gcd(g, x)
            if g == 1:
                out.add(canonical_primitive(v))
    return sorted(out)


def _multisets(pool, size):
    return itertools.combinations_with_replacement(pool, size)


def corpus_matrices(max_n=3, max_N=6):
    """Yield the deduplicated corpus as IntMatrix values (deterministic order)."""
    if max_n >= 1:
        for N in range(1, max_N + 1):
            yield IntMatrix([[1]] * N)
    if max_n >= 2:
        pool = primitive_vectors(2, 2)
        for N in range(1, max_N + 1):
            for rows in _multisets(pool, N):
                yield IntMatrix(rows, cols=2)
    if max_n >= 3:
        small_pool = primitive_vectors(3, 1)
        for N in range(1, min(4, max_N) + 1):
            for rows in _multisets(small_pool, N):
                yield IntMatrix(rows, cols=3)
        full_pool = primitive_vectors(3, 2)
        rng = random.Random(SAMPLE_SEED)
        for N in range(5, max_N + 1):
            seen = set()
            while len(seen) < SAMPLES_PER_SIZE:
                rows = tuple(sorted(rng.choice(full_pool) for _ in range(N)))
                seen.add(rows)
            for rows in sorted(seen):
                yield IntMatrix(rows, cols=3)


def complete_graph(m):
    """K_m: one row e_b - e_a per edge a < b, vertex 0's coordinate dropped."""
    rows = []
    for a in range(m):
        for b in range(a + 1, m):
            row = [0] * (m - 1)
            row[b - 1] = 1
            if a:
                row[a - 1] = -1
            rows.append(row)
    return IntMatrix(rows, cols=m - 1)


def cographic(m):
    """K_m*: the transpose of K_m's Gale dual, the cographic matrix of K_m."""
    return gale_dual(complete_graph(m)).transpose()


def r10():
    """[I_5 ; C] with C the 5 x 5 circulant of (-1, 1, 0, 0, 1): Seymour's
    regular matroid R10, neither graphic nor cographic."""
    first = (-1, 1, 0, 0, 1)
    circulant = [first[5 - k:] + first[:5 - k] for k in range(5)]
    return IntMatrix([[int(i == j) for j in range(5)] for i in range(5)] + circulant, cols=5)


def two_sum(A, B):
    """The 2-sum of the regular matroids of A = [I; M_A^T] and B = [I; M_B^T]
    (r10 and complete_graph(m) have this form), in the same form: Schrijver's
    M_A (+)2 M_B = [[A', a b], [0, B']] for M_A = [A' a] and M_B = [b; B']
    (Theory of Linear and Integer Programming, 1986, 19.4). The base point
    is A's last row and B's first; N = N_A + N_B - 2, n = n_A + n_B - 1."""

    def tu(X):
        n = X.cols
        assert X.data[:n] == IntMatrix.identity(n).data, X
        return [list(col) for col in zip(*X.data[n:])]

    ma, mb = tu(A), tu(B)
    a, b = [row[-1] for row in ma], mb[0]
    M = [row[:-1] + [x * y for y in b] for x, row in zip(a, ma)]
    M += [[0] * (len(ma[0]) - 1) + row for row in mb[1:]]
    return IntMatrix(IntMatrix.identity(len(M)).data + tuple(zip(*M)), cols=len(M))


def one_sum(A, B):
    """The 1-sum (direct sum) of the regular matroids of A and B: the
    block-diagonal [[A, 0], [0, B]]; N = N_A + N_B, n = n_A + n_B."""
    return IntMatrix(
        [row + (0,) * B.cols for row in A.data] + [(0,) * A.cols + row for row in B.data],
        cols=A.cols + B.cols,
    )


def graphic_rows(rng, vertices, extra):
    """A random connected multigraph's rows e_a - e_b, vertex 0's coordinate
    dropped: a random spanning tree plus extra random edges."""
    edges = [(rng.randrange(v), v) for v in range(1, vertices)]
    edges += [tuple(sorted(rng.sample(range(vertices), 2))) for _ in range(extra)]
    rows = []
    for a, b in edges:
        row = [0] * vertices
        row[a], row[b] = 1, -1
        rows.append(row[1:])
    return rows


def divisor_of(B):
    """B's rows as divisor data (parallel rows merged), or None when a row is
    not primitive."""
    if not all(is_primitive(B.row(i)) for i in range(B.rows)):
        return None
    return DivisorData.make(B.cols, Counter(canonical_sign(B.row(i)) for i in range(B.rows)).items())


def valid_hypertoric(matrices):
    """Filter to HypertoricData-valid matrices, yielding the validated bundles."""
    for B in matrices:
        try:
            yield HypertoricData.from_matrix(B)
        except HkitError:
            continue


def probe_discriminant(B):
    """Stabilizer-probing oracle for the central discriminant (multiplicity =
    number of rows vanishing at a generic point of each candidate wall)."""
    n = B.cols
    candidates = sorted({canonical_primitive(B.row(i)) for i in range(B.rows)})
    reference = group_hyperplanes(n, ((c, 0) for c in candidates))
    built = build_discriminant(B)
    out = {}
    for idx, cand in enumerate(candidates):
        eta = generic_point_on(reference, idx)
        r, normals = stabilizer_rank(built, eta)
        if r != 1 or normals != [cand]:
            raise AssertionError(f"probe failed at wall {cand} of {B!r}")
        out[cand] = sum(
            1 for i in range(B.rows) if sum(b * x for b, x in zip(B.row(i), eta)) == 0
        )
    return out


def probe_matches(B):
    probed = probe_discriminant(B)
    built = {
        c.hyperplane.normal: c.multiplicity for c in build_discriminant(B).components
    }
    return probed == built


def is_valid_matrix(B):
    return (
        rank(B) == B.cols
        and smith_normal_form(B).torsion_free
    )
