"""Oracles for the flat engine in hkit.arrangement, for the Hilbert basis in
hkit.hypertoric and for unimodularity in hkit.intmat.

The subset scans are the exhaustive enumerations that `f_locus` and
`check_simplicity` used before the intersection-lattice engine: every subset
of walls is solved on its own with Fraction elimination. The Graver
completion is how `hilbert_basis` was computed before it read the circuits
off the flat engine. The minor enumeration is how `unimodularity_report`
decided unimodularity before it scanned the non-pivot block of one echelon
form: one Bareiss determinant per maximal minor. All are exponential and
serve only as test references.
"""

import itertools
from fractions import Fraction

from hkit.arrangement import FlatDescriptor, SimplicityReport, _solve_affine
from hkit.hypertoric import MonomialGen
from hkit.intmat import IntMatrix, det, kernel_basis, rank, smith_normal_form


def _rref_key(normals, offsets, n):
    """Canonical key for the affine subspace cut out by the system: the RREF
    of the augmented matrix, as a tuple of pivot rows."""
    rows = [[Fraction(x) for x in b] + [Fraction(o)] for b, o in zip(normals, offsets)]
    m = len(rows)
    r = 0
    for c in range(n + 1):
        piv = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return tuple(tuple(row) for row in rows[:r])


def f_locus_scan(arr):
    """Every flat spanned by >= 2 distinct walls, found by solving each subset."""
    comps = arr.components
    if len(comps) < 2:
        return []
    subsets = itertools.chain.from_iterable(
        itertools.combinations(range(len(comps)), k) for k in range(2, len(comps) + 1)
    )
    seen = {}
    for subset in subsets:
        normals = [comps[i].hyperplane.normal for i in subset]
        offsets = [comps[i].hyperplane.offset for i in subset]
        consistent, point, _ = _solve_affine(normals, offsets, arr.n)
        if not consistent:
            continue
        key = _rref_key(normals, offsets, arr.n)
        if key in seen:
            continue
        direction = kernel_basis(IntMatrix(normals, cols=arr.n))
        members = frozenset(
            i
            for i, c in enumerate(comps)
            if c.hyperplane.contains(point)
            and all(
                sum(b * v for b, v in zip(c.hyperplane.normal, direction.row(r))) == 0
                for r in range(direction.rows)
            )
        )
        codim = rank(IntMatrix([comps[i].hyperplane.normal for i in sorted(members)], cols=arr.n))
        seen[key] = FlatDescriptor(
            members=members, direction=direction, point=point, codimension=codim
        )
    return sorted(seen.values(), key=lambda f: f.sorted_members())


def check_simplicity_scan(arr):
    """Conditions (a) and (b) over every subset of walls."""
    comps = arr.components
    n = arr.n
    violations_a = []
    for subset in itertools.combinations(range(len(comps)), n + 1):
        normals = [comps[i].hyperplane.normal for i in subset]
        offsets = [comps[i].hyperplane.offset for i in subset]
        consistent, _, _ = _solve_affine(normals, offsets, n)
        if consistent:
            violations_a.append(subset)

    violations_b = []
    for k in range(1, len(comps) + 1):
        for subset in itertools.combinations(range(len(comps)), k):
            normals = [comps[i].hyperplane.normal for i in subset]
            offsets = [comps[i].hyperplane.offset for i in subset]
            consistent, _, _ = _solve_affine(normals, offsets, n)
            if not consistent:
                continue
            stacked = IntMatrix(normals, cols=n)
            snf = smith_normal_form(stacked)
            part_of_basis = snf.torsion_free and len(snf.invariant_factors) == k
            if not part_of_basis:
                violations_b.append(subset)

    return SimplicityReport(
        no_excess_intersections=not violations_a,
        normals_extend_to_basis=not violations_b,
        violations_a=tuple(violations_a),
        violations_b=tuple(violations_b),
    )


# -- Graver completion ---------------------------------------------------------


def _conformal_leq(g, s):
    """g below s in the sign-compatible partial order on Z^N."""
    return all(gi * si >= 0 and abs(gi) <= abs(si) for gi, si in zip(g, s))


def _normal_form(s, gens):
    changed = True
    while changed and any(s):
        changed = False
        for g in gens:
            if _conformal_leq(g, s):
                s = tuple(a - b for a, b in zip(s, g))
                changed = True
                break
    return s


def _minimal_conformal_elements(gens):
    out = []
    for g in sorted(gens, key=lambda v: (sum(abs(x) for x in v), v)):
        if not any(_conformal_leq(h, g) for h in out):
            out.append(g)
    return out


def graver_basis(B):
    """Sign-minimal nonzero elements of the column lattice of B.

    Completion algorithm: close {+-columns} under pairwise sums with conformal
    reduction, then keep the minimal elements.
    """
    gens = []
    for j in range(B.cols):
        c = B.column(j)
        if any(c) and c not in gens:
            gens.append(c)
            gens.append(tuple(-x for x in c))
    queue = [tuple(a + b for a, b in zip(f, g)) for f, g in itertools.combinations(gens, 2)]
    while queue:
        s = _normal_form(queue.pop(), gens)
        if any(s):
            queue.extend(tuple(a + b for a, b in zip(s, g)) for g in gens)
            gens.append(s)
    return _minimal_conformal_elements(gens)


def hilbert_basis_completion(H):
    """The invariant monoid's Hilbert basis from the Graver completion: each
    Graver element g split as (g_+, g_-), plus z_i w_i whenever e_i is not in
    the (saturated) column image of B, decided by a rank test."""
    gens = [
        MonomialGen(u=tuple(max(x, 0) for x in g), v=tuple(max(-x, 0) for x in g))
        for g in graver_basis(H.B)
    ]
    for i in range(H.N):
        e_i = tuple(1 if k == i else 0 for k in range(H.N))
        augmented = IntMatrix([list(H.B.row(k)) + [e_i[k]] for k in range(H.N)], cols=H.n + 1)
        if rank(augmented) > H.n:
            gens.append(MonomialGen(u=e_i, v=e_i))
    gens.sort(key=MonomialGen.sort_key)
    return gens


# -- maximal minors --------------------------------------------------------------


def iter_max_minors(M):
    """Yield all maximal (size min(rows, cols)) minors."""
    m = min(M.rows, M.cols)
    if m == 0:
        return
    T = M if M.rows >= M.cols else M.transpose()
    for combo in itertools.combinations(range(T.rows), m):
        yield det(IntMatrix([T.row(i) for i in combo], cols=T.cols))


def unimodular_by_minors(M):
    """Every maximal minor in {-1, 0, 1} and at least one nonzero."""
    saw_nonzero = False
    for minor in iter_max_minors(M):
        if minor not in (-1, 0, 1):
            return False
        saw_nonzero = saw_nonzero or minor != 0
    return saw_nonzero
