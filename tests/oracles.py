"""Oracles for the flat engine in hkit.arrangement, for the Hilbert basis in
hkit.hypertoric, for unimodularity and the Smith normal form in hkit.intmat
and for validation, the Gale dual and the round trip, plus the enumerations
and generic points that only tests use.

The subset scans are the exhaustive enumerations that `f_locus` and
`check_simplicity` used before the intersection-lattice engine: every subset
of walls is solved on its own with Fraction elimination. The closure by
levels is that engine before it went depth first: a whole codimension held
at once, every non-member wall reduced against all rows of each flat's
basis. The Graver completion is how `hilbert_basis` was computed before it
read the circuits off the flat engine, and the closure by levels still gives
those circuits as the lines of B's discriminant. The split of each circuit
once per sign is how `hilbert_basis` read them before one pass, and the
rank of the generators' exponent pairs is how `coordinate_dimension` found
2n before its closed form. The minor enumeration (one
Bareiss determinant per maximal minor) is how `unimodularity_report` decided
unimodularity before it scanned the square minors of the non-pivot block R
of one echelon form, and that scan is how it decided before it enumerated
circuits. The same determinant scan is how a deformation line found its
default basis rows before they were the pivots of B^T's HNF. The rank of
[B | lambda] is how `verify_genericity` decided condition (a) before it read
A lambda off the Gale dual. The normal-form path is how validation,
`gale_dual`, `kernel_basis`, `classify_case` and `round_trip`
worked before they read everything off one reduced echelon form of B^T:
rank from a full HNF, torsion from an SNF, kernels from the HNF transform,
and A's unimodularity scanned on its own. The Smith normal form by closures
is how `smith_normal_form` worked before it ran the Hermite loop on rows and
columns in turn. The brute-force invariants enumerate the invariant monoid
degree by degree, and the monoid counts and Theta_B(t) = sum over y of
t^||By||_1, read over an l1 ball of B_beta's image, count it without any
generator; the quotient dimensions take the moment map's components out of
that monoid degree by degree, by a rank over GF(2^61 - 1), so that they
check Theta_B(t) / (1 - t^2)^n; the generic points come from windows of
primes. The
relation search by fibers is how `presentation` found its relations before
it paired disjoint multisets as they arrived in a fiber: a recursive
enumeration of every multiset with its exponent pair as two tuples, then
every two members of each fiber with their common part cancelled. The
reduction by three maps is how `presentation` built its reduced view before
one table gave each generator its reduced (symbol, sign). The
Fraction-keyed grouping is how `group_hyperplanes`, `build_discriminant` and
`family_slice` grouped walls before they keyed them on ints: one checked
Hyperplane per wall, hashed in a dict and sorted by its field order.
The listing by walk is how `check_simplicity` listed the violations of a
slice that is not simple before it read `f_locus`: flat by flat from
`_flats`, each subset tested again in every flat that holds it. The library
no longer lists violations at all; the scan and the walk list them into a
`SimplicityListing`, whose flags are the reference for `check_simplicity`.
The enumerations are exponential; all of these serve only as test
references.
"""

import itertools
from fractions import Fraction
from math import comb, lcm
from operator import mul
from typing import NamedTuple

from hkit.arrangement import (
    ArrangementComponent,
    ArrangementSpec,
    FlatDescriptor,
    Hyperplane,
    SimplicityReport,
    _bits,
    _flats,
    _kind_from_multiplicity,
    _pivot,
    _wall_row,
    build_discriminant,
)
from hkit.characterization import (
    HYPERTORIC,
    REJECTED,
    SMOOTH,
    CaseTag,
    RoundTripReport,
    reconstruct_B,
)
from hkit.errors import (
    BudgetExceeded,
    CaseRejected,
    NonPrimitiveRow,
    NotABasis,
    NotInjective,
    NotUnimodular,
    TorsionCokernel,
)
from hkit.hypertoric import (
    HypertoricData,
    MonomialGen,
    ReducedPresentation,
    SClass,
)
from hkit.intmat import (
    IntMatrix,
    SmithResult,
    _Forms,
    canonical_primitive,
    canonical_sign,
    check_primitive_rows,
    det,
    is_primitive,
    kernel_basis,
    rank,
)


def _solve_affine(normals, offsets, n):
    """Solve <b_i, eta> = offset_i exactly over Q.

    Returns (consistent, particular point or None, rank).
    """
    rows = [[Fraction(x) for x in b] + [Fraction(o)] for b, o in zip(normals, offsets)]
    m = len(rows)
    pivots = []
    r = 0
    for c in range(n):
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
        pivots.append(c)
        r += 1
    for i in range(r, m):
        if rows[i][n] != 0:
            return False, None, r
    point = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        point[c] = rows[i][n]
    return True, tuple(point), r


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


def _residual(v, basis):
    """Fraction-free reduction of v against an echelon basis of (pivot, row)
    pairs sorted by pivot; primitive, first nonzero entry positive."""
    for p, row in basis:
        if v[p]:
            a, b = row[p], v[p]
            v = [a * x - b * y for x, y in zip(v, row)]
    return canonical_primitive(v)


def flat_lattice_by_levels(arr):
    """The intersection lattice one level at a time, from codimension 1 (the
    single walls) up: each level maps a flat's member set to its echelon basis.

    For a flat F each non-member wall is reduced once against F's augmented
    echelon basis. A residual with zero normal part means the wall is parallel
    to F. Otherwise walls with equal residuals are exactly the walls that
    contain the cover F ∩ H, so each residual class gives one cover, and
    covers are deduplicated by member set. The basis of a codimension-c flat
    has c rows, all with pivots among the normal columns. A level is closed
    only when the caller asks for the next one.
    """
    n = arr.n
    rows = [_wall_row(c.hyperplane) for c in arr.components]
    level = {frozenset([i]): [(_pivot(r), r)] for i, r in enumerate(rows)}
    while level:
        yield level
        covers = {}
        for members, basis in level.items():
            classes = {}
            for k, r in enumerate(rows):
                if k not in members:
                    res = _residual(r, basis)
                    if any(res[:n]):
                        classes.setdefault(res, []).append(k)
            for res, walls in classes.items():
                key = members.union(walls)
                if key not in covers:
                    covers[key] = sorted(basis + [(_pivot(res), res)])
        level = covers


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


class SimplicityListing(NamedTuple):
    """Conditions (a) and (b) with the subsets of walls that violate them:
    for (a) each n+1 walls that meet, for (b) each meeting subset whose
    normals do not extend to a Z-basis."""

    no_excess_intersections: bool
    normals_extend_to_basis: bool
    violations_a: tuple
    violations_b: tuple

    @property
    def flags(self):
        """The flags alone, as `check_simplicity` reports them."""
        return SimplicityReport(self.no_excess_intersections, self.normals_extend_to_basis)


def _extends_to_basis(normals):
    """k normals extend to a Z-basis iff the n x k matrix with them as
    columns maps Z^n onto Z^k, that is iff its HNF has k pivots, all 1: the
    rank and unit pivots of the _Forms of the k x n matrix of the normals."""
    forms = _Forms(IntMatrix._of(tuple(normals), len(normals[0])))
    return forms.rank == len(normals) and forms.unit


def check_simplicity_scan(arr):
    """Conditions (a) and (b) listed over every subset of walls; for (b) a
    wall of multiplicity >= 2 fails on its own."""
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
            snf = smith_normal_form_by_closures(stacked)
            part_of_basis = snf.torsion_free and len(snf.invariant_factors) == k
            # a wall of multiplicity >= 2 is coincident hyperplanes
            if not part_of_basis or (k == 1 and comps[subset[0]].multiplicity > 1):
                violations_b.append(subset)

    return SimplicityListing(
        no_excess_intersections=not violations_a,
        normals_extend_to_basis=not violations_b,
        violations_a=tuple(violations_a),
        violations_b=tuple(violations_b),
    )


def check_simplicity_by_walk(arr):
    """Conditions (a) and (b) listed from `_flats` walked flat by flat, as
    `check_simplicity` listed them before it read `f_locus`: every flat of
    codimension r (the normals' rank), single walls included, and the
    subsets of each flat whose whole member set fails, tested again in
    every flat that holds them. It lists without deciding first, so a
    simple slice gives an empty report."""
    n = arr.n
    comps = arr.components
    normals = tuple(c.hyperplane.normal for c in comps)
    forms = _Forms(IntMatrix(normals, cols=n))
    violations_a = set()
    violations_b = {(k,) for k, c in enumerate(comps) if c.multiplicity > 1}
    for members, basis, _ in _flats(arr):
        if len(basis) < forms.rank:
            continue
        members = _bits(members)
        violations_a.update(itertools.combinations(members, n + 1))
        if _extends_to_basis([normals[i] for i in members]):
            continue
        for k in range(2, len(members) + 1):
            violations_b.update(
                s
                for s in itertools.combinations(members, k)
                if k > len(basis) or not _extends_to_basis([normals[i] for i in s])
            )
    return SimplicityListing(
        no_excess_intersections=not violations_a,
        normals_extend_to_basis=not violations_b,
        violations_a=tuple(sorted(violations_a)),
        violations_b=tuple(sorted(violations_b, key=lambda s: (len(s), s))),
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


# -- the Hilbert basis by splits and the dimension by rank ------------------------


def hilbert_basis_by_splits(H):
    """The Hilbert basis as `hilbert_basis` built it before one pass read
    each circuit's two generators off its +1 and -1 entries: every circuit
    split twice, once per sign, z_i w_i for each nonzero column of A taken
    one at a time, and the whole list sorted by `MonomialGen.sort_key`. The
    circuits come from a fresh `_Forms(H.B)`, not from the ones validation
    stored in H."""
    gens = []
    for c in _Forms(H.B).circuits:
        gens.append(_split_monomial(c))
        gens.append(_split_monomial(tuple(-x for x in c)))
    for i in range(H.N):
        if any(H.A.column(i)):
            e_i = tuple(1 if k == i else 0 for k in range(H.N))
            gens.append(MonomialGen(u=e_i, v=e_i))
    gens.sort(key=MonomialGen.sort_key)
    return gens


def _split_monomial(g):
    return MonomialGen(
        u=tuple(x if x > 0 else 0 for x in g),
        v=tuple(-x if x < 0 else 0 for x in g),
    )


def coordinate_dimension_by_rank(H, basis):
    """The Krull dimension as `coordinate_dimension` computed it before it
    returned 2n in closed form: the rank of the lattice spanned by the
    generators' exponent pairs, minus the N - n moment relations."""
    stacked = IntMatrix([list(g.u) + list(g.v) for g in basis], cols=2 * H.N)
    return rank(stacked) - (H.N - H.n)


def _s_index(gen):
    """Index i when gen is z_i w_i, else None."""
    if gen.u != gen.v or sum(gen.u) != 1:
        return None
    return gen.u.index(1)


# -- maximal minors --------------------------------------------------------------


def iter_max_minors(M):
    """Yield all maximal (size min(rows, cols)) minors."""
    m = min(M.rows, M.cols)
    if m == 0:
        return
    T = M if M.rows >= M.cols else M.transpose()
    for combo in itertools.combinations(range(T.rows), m):
        yield det(IntMatrix([T.row(i) for i in combo], cols=T.cols))


def default_basis_rows_by_det(B):
    """Lexicographically first row subset of B that is a Z-basis of Z^n: one
    Bareiss determinant per n-subset until one is +-1."""
    for subset in itertools.combinations(range(B.rows), B.cols):
        sub = IntMatrix([B.row(i) for i in subset], cols=B.cols)
        if abs(det(sub)) == 1:
            return subset
    raise NotABasis(tuple(range(B.rows)))


def common_intersection_empty_by_rank(H, offsets):
    """Condition (a) of `verify_genericity`: B eta = t lambda has a solution
    with t != 0 exactly when lambda lies in the rational column span of B,
    that is when [B | lambda] (scaled to integers) has rank n."""
    if H.N == H.n:
        return True
    denom = lcm(*(x.denominator for x in offsets)) if offsets else 1
    scaled = [int(x * denom) for x in offsets]
    aug = IntMatrix(
        [list(H.B.row(i)) + [scaled[i]] for i in range(H.N)], cols=H.n + 1
    )
    solvable = rank(aug) == H.n
    return not solvable


def unimodular_by_minors(M):
    """Every maximal minor in {-1, 0, 1} and at least one nonzero."""
    saw_nonzero = False
    for minor in iter_max_minors(M):
        if minor not in (-1, 0, 1):
            return False
        saw_nonzero = saw_nonzero or minor != 0
    return saw_nonzero


def max_minor_count(M):
    """C(max(p, q), min(p, q)): the number of maximal minors of a p x q M."""
    m = min(M.rows, M.cols)
    return comb(max(M.rows, M.cols), m) if m else 0


def _free_block(a, pivots):
    """R of a reduced echelon form: the pivot rows on the non-pivot columns."""
    taken = set(pivots)
    free = [c for c in range(len(a[0])) if c not in taken]
    return [[row[c] for c in free] for row in a[: len(pivots)]]


def _totally_unimodular(R):
    """True iff every square minor of R is in {-1, 0, 1}: the minors are
    scanned one size at a time, each by Laplace expansion along its first
    row over the nonzero minors of the size below, stopping at the first one
    outside {-1, 0, 1}. It stores one nonzero minor per basis of the matroid
    of [I | R], so it is exponential in time and memory."""
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


def unimodular_by_scan(M):
    """Unimodularity as the echelon scan decided it: M oriented tall, the
    HNF of its transpose of full rank with unit pivots, so [I | R] up to
    column order, and R totally unimodular (Schrijver, Theory of Linear and
    Integer Programming, 1986, ch. 19)."""
    forms = _Forms(M if M.rows >= M.cols else M.transpose())
    B = forms.B
    if min(B.shape) == 0 or forms.rank < B.cols or not forms.unit:
        return False
    return _totally_unimodular(_free_block(forms.echelon, forms.pivots))


# -- validation and the Gale dual by normal forms ---------------------------------


def hermite_normal_form_by_closures(M):
    """Row-style HNF (H, U) with U @ M = H, row operations as closures that
    update H and U separately."""
    m, n = M.rows, M.cols
    H = M.row_list()
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]

    def row_sub(i, j, q):
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


def smith_normal_form_by_closures(M):
    """U @ M @ V = S by one pivot at a time, the row and column operations as
    closures that update S, U and V separately."""
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


def rank_by_hnf(M):
    H, _ = hermite_normal_form_by_closures(M)
    return sum(1 for row in H.data if any(x != 0 for x in row))


def kernel_basis_by_transform(M):
    """The rows of the HNF transform of M^T that map onto zero rows, put in
    HNF."""
    H, U = hermite_normal_form_by_closures(M.transpose())
    kernel_rows = [U.row(i) for i in range(H.rows) if all(x == 0 for x in H.row(i))]
    if not kernel_rows:
        return IntMatrix([], cols=M.cols)
    K, _ = hermite_normal_form_by_closures(IntMatrix(kernel_rows, cols=M.cols))
    return K


def gale_dual_by_normal_forms(B):
    """Rank, then SNF, then the kernel of B^T from the HNF transform."""
    N, n = B.rows, B.cols
    if n > N or rank_by_hnf(B) < n:
        raise NotInjective(f"matrix of shape {B.shape} has rank below {n}")
    snf = smith_normal_form_by_closures(B)
    if not snf.torsion_free:
        raise TorsionCokernel(snf)
    return kernel_basis_by_transform(B.transpose())


def from_matrix_by_normal_forms(B):
    """HypertoricData.from_matrix with the Gale dual above, B's
    unimodularity from the scan of R's square minors and the basis rows from
    the determinant scan. forms is a fresh `_Forms(B)`, which compares as
    its B."""
    for i in range(B.rows):
        if not is_primitive(B.row(i)):
            raise NonPrimitiveRow(i, B.row(i))
    A = gale_dual_by_normal_forms(B)
    if not unimodular_by_scan(B):
        raise NotUnimodular(B)
    classes = {}
    for i in range(B.rows):
        classes.setdefault(canonical_sign(B.row(i)), []).append(i)
    groups = tuple((normal, tuple(rows)) for normal, rows in sorted(classes.items()))
    return HypertoricData(
        B=B,
        A=A,
        N=B.rows,
        n=B.cols,
        groups=groups,
        basis_rows=default_basis_rows_by_det(B),
        forms=_Forms(B),
    )


def classify_case_by_normal_forms(B):
    for i in range(B.rows):
        if not is_primitive(B.row(i)):
            raise NonPrimitiveRow(i, B.row(i))
    N, n = B.rows, B.cols
    if rank_by_hnf(B) < n:
        return CaseTag(
            case=REJECTED,
            reason="not injective: the stacked normals span a proper sublattice, "
            "which contradicts conical contractibility",
        )
    unimod = unimodular_by_scan(B)
    torsion_free = smith_normal_form_by_closures(B).torsion_free
    if N == n and unimod:
        return CaseTag(case=SMOOTH, condition_star=False, unimodular=True, coker_torsion_free=True)
    return CaseTag(
        case=HYPERTORIC,
        condition_star=N > n,
        unimodular=unimod,
        coker_torsion_free=torsion_free,
    )


def round_trip_by_normal_forms(d):
    """round_trip with the case split above, A from the HNF transform and A's
    unimodularity scanned whatever the cokernel."""
    B = reconstruct_B(d)
    tag = classify_case_by_normal_forms(B)
    if tag.case == REJECTED:
        raise CaseRejected(tag.reason)
    A = kernel_basis_by_transform(B.transpose())
    warnings = []
    if not tag.coker_torsion_free:
        warnings.append(
            "cokernel has torsion: the two-step sequence is not exact over Z; "
            "A spans the saturated orthogonal lattice"
        )
    unimodular_A = unimodular_by_scan(A) if A.rows else (B.rows == B.cols)
    if not tag.unimodular:
        warnings.append("B is not unimodular: no symplectic resolution hypothesis")
    disc = build_discriminant(B)
    return RoundTripReport(
        divisor=d,
        B=B,
        A=A,
        case=tag,
        unimodular_B=tag.unimodular,
        unimodular_A=unimodular_A,
        discriminant=disc,
        equal=disc.wall_multiset() == d.wall_multiset(),
        warnings=tuple(warnings),
    )


# -- the invariant monoid by enumeration -----------------------------------------

BRUTE_FORCE_MAX_N = 6
BRUTE_FORCE_MAX_DEGREE = 8


def brute_force_invariants(H: HypertoricData, d: int):
    """All nonzero invariant exponent pairs of degree <= d, graded-lex sorted.

    Independent oracle for the invariant monoid: plain enumeration of exponent
    vectors with the membership test A u = A v, met in the middle (every u of
    degree <= d is bucketed by its weight A u, and pairs within a bucket are
    kept while their total degree stays <= d).
    """
    if d < 1:
        raise ValueError("degree cap must be >= 1")
    if H.N > BRUTE_FORCE_MAX_N or d > BRUTE_FORCE_MAX_DEGREE:
        raise BudgetExceeded(
            f"enumeration guard: N <= {BRUTE_FORCE_MAX_N}, d <= {BRUTE_FORCE_MAX_DEGREE}"
        )
    out = [
        MonomialGen(u=u, v=v)
        for half in _by_weight(H, d).values()
        for u in half
        for v in half
        if 1 <= sum(u) + sum(v) <= d
    ]
    out.sort(key=MonomialGen.sort_key)
    return out


def _compositions(total, parts):
    """All tuples of `parts` nonnegative ints summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _by_weight(H: HypertoricData, D: int):
    """Every u in N^N of degree <= D, bucketed by its weight A u: the pairs
    (u, v) within a bucket are the invariant monoid's elements."""
    weight_rows = [H.A.row(j) for j in range(H.A.rows)]
    buckets = {}
    for total in range(D + 1):
        for exps in _compositions(total, H.N):
            weight = tuple(sum(a * x for a, x in zip(row, exps)) for row in weight_rows)
            buckets.setdefault(weight, []).append(exps)
    return buckets


def monoid_counts(H: HypertoricData, D: int):
    """The number of exponent pairs (u, v) in N^2N with A u = A v, that is
    of elements of the invariant monoid, in each degree d <= D, by brute
    force: the pairs within each bucket of `_by_weight` counted by total
    degree."""
    counts = [0] * (D + 1)
    for half in _by_weight(H, D).values():
        by_degree = [0] * (D + 1)
        for u in half:
            by_degree[sum(u)] += 1
        for a, ca in enumerate(by_degree):
            for b in range(D + 1 - a):
                counts[a + b] += ca * by_degree[b]
    return tuple(counts)


PRIME = 2**61 - 1


def _rank_mod_p(rows):
    """The rank over GF(PRIME) of sparse rows ({column: entry}), by
    elimination on each row's least column."""
    pivots = {}
    for row in rows:
        row = {c: x % PRIME for c, x in row.items() if x % PRIME}
        while row:
            c = min(row)
            if c not in pivots:
                inv = pow(row[c], -1, PRIME)
                pivots[c] = {k: x * inv % PRIME for k, x in row.items()}
                break
            factor = row[c]
            for k, x in pivots[c].items():
                y = (row.get(k, 0) - factor * x) % PRIME
                if y:
                    row[k] = y
                else:
                    row.pop(k, None)
    return len(pivots)


def quotient_dims(H: HypertoricData, D: int):
    """dim (C[M]/(mu))_d for d <= D, M the invariant monoid and
    mu_k = sum_i a_ki z_i w_i the moment map's components: |M_d| minus the
    rank over GF(PRIME) of the products mu_k z^u w^v for (u, v) in M_(d-2).
    M_d is enumerated by brute force from `_by_weight`, as in
    `monoid_counts`."""
    by_degree = [{} for _ in range(D + 1)]
    for half in _by_weight(H, D).values():
        for u in half:
            for v in half:
                d = sum(u) + sum(v)
                if d <= D:
                    by_degree[d][u, v] = len(by_degree[d])
    dims = []
    for d, monomials in enumerate(by_degree):
        products = []
        if d >= 2:
            for u, v in by_degree[d - 2]:
                for row in H.A.data:
                    product = {}
                    for i, a in enumerate(row):
                        if a:
                            bump = tuple(x + (j == i) for j, x in enumerate(u))
                            lift = tuple(x + (j == i) for j, x in enumerate(v))
                            product[monomials[bump, lift]] = a
                    products.append(product)
        dims.append(len(monomials) - _rank_mod_p(products))
    return tuple(dims)


def _l1_ball(n, radius):
    """All x in Z^n with ||x||_1 <= radius."""
    if n == 0:
        yield ()
        return
    for head in range(-radius, radius + 1):
        for rest in _l1_ball(n - 1, radius - abs(head)):
            yield (head,) + rest


def theta_series(B, D):
    """The coefficients of Theta_B(t) = sum over y in Z^n of t^||By||_1 up
    to t^D. y runs over B_beta^-1 x for x with ||x||_1 <= D, beta the
    first row subset with |det| = 1: that meets every y with
    ||By||_1 <= D, as ||By||_1 >= ||B_beta y||_1, and each once."""
    n = B.cols
    rows = [B.row(i) for i in default_basis_rows_by_det(B)]
    # the columns of B_beta^-1, integral since |det B_beta| = 1
    inverse = [_solve_affine(rows, [int(i == j) for i in range(n)], n)[1] for j in range(n)]
    assert all(v.denominator == 1 for col in inverse for v in col)
    inverse = [[int(v) for v in col] for col in inverse]
    coeffs = [0] * (D + 1)
    for x in _l1_ball(n, D):
        y = [sum(x[j] * inverse[j][k] for j in range(n)) for k in range(n)]
        degree = sum(abs(sum(map(mul, row, y))) for row in B.data)
        if degree <= D:
            coeffs[degree] += 1
    return tuple(coeffs)


def over_one_minus_t2(series, power):
    """The coefficients of series / (1 - t^2)^power, as far as series goes."""
    return tuple(
        sum(comb(power + k - 1, k) * series[d - 2 * k] for k in range(d // 2 + 1))
        for d in range(len(series))
    )


def decompose_over_basis(target: MonomialGen, basis):
    """Exhaustive search for a representation of target as a sum of basis
    elements; returns the list of basis indices or None."""
    order = sorted(range(len(basis)), key=lambda i: -basis[i].degree)
    # Each basis element as its nonzero entries of the concatenated (u, v).
    supports = [
        (i, [(k, e) for k, e in enumerate(basis[i].u + basis[i].v) if e])
        for i in order
    ]
    seen = set()

    def search(t):
        if not any(t):
            return []
        if t in seen:
            return None
        seen.add(t)
        for i, support in supports:
            if all(t[k] >= e for k, e in support):
                rest = list(t)
                for k, e in support:
                    rest[k] -= e
                found = search(tuple(rest))
                if found is not None:
                    return [i] + found
        return None

    try:
        return search(target.u + target.v)
    finally:
        # search reaches itself through its closure; breaking that cycle frees
        # the seen set on return, not at the next cyclic garbage collection.
        del search


# -- the relation search by fibers -----------------------------------------------


def _multisets_by_total(gens, cap, budget):
    """Group all generator multisets of total degree <= cap by their
    total exponent pair. gens must be ordered by degree, as `hilbert_basis`
    orders them: the walk stops at the first generator too heavy to add."""
    if any(a.degree > b.degree for a, b in zip(gens, gens[1:])):
        raise ValueError("generators must be ordered by degree")
    table = {}
    count = 0

    def extend(start, u, v, degree, chosen):
        nonlocal count
        if chosen:
            key = (u, v)
            table.setdefault(key, []).append(tuple(chosen))
            count += 1
            if count > budget:
                raise BudgetExceeded(f"relation search exceeded {budget} multisets")
        for i in range(start, len(gens)):
            g = gens[i]
            if degree + g.degree > cap:
                break
            extend(
                i,
                tuple(a + b for a, b in zip(u, g.u)),
                tuple(a + b for a, b in zip(v, g.v)),
                degree + g.degree,
                chosen + [i],
            )

    N = len(gens[0].u) if gens else 0
    try:
        extend(0, (0,) * N, (0,) * N, 0, [])
    finally:
        # extend reaches itself through its closure. Breaking that cycle lets
        # the table be freed when the caller drops it, not at the next
        # cyclic garbage collection.
        del extend
    return table


def _cancel_common(left, right):
    left = list(left)
    remaining = []
    right = list(right)
    for x in left:
        if x in right:
            right.remove(x)
        else:
            remaining.append(x)
    return tuple(remaining), tuple(right)


def relations_by_fibers(gens, cap, budget):
    """The binomial relations of `presentation`, sorted: every two
    multisets of one fiber, common part cancelled, smaller side first."""
    table = _multisets_by_total(gens, cap, budget)
    relations = set()
    for multisets in table.values():
        if len(multisets) < 2:
            continue
        for a, b in itertools.combinations(multisets, 2):
            left, right = _cancel_common(a, b)
            if left and right:
                relations.add((left, right) if left <= right else (right, left))
    return sorted(relations)


# -- the reduced presentation by three maps -------------------------------------


def reduce_presentation_by_maps(H, gens, relations):
    """The reduced view of `presentation` as it was built before one table
    gave each generator its reduced (symbol, sign): three maps, two sign
    loops per relation and a check for relations that reduce to nothing."""
    pure = []
    s_gen = {}  # row i -> index of the generator z_i w_i
    symbol_of = {}
    sign_of = {}
    for idx, g in enumerate(gens):
        i = _s_index(g)
        if i is None:
            symbol_of[idx] = ("g", len(pure))
            sign_of[idx] = 1
            pure.append(g)
        else:
            s_gen[i] = idx
    s_classes = []
    for normal, rows in H.groups:
        members = tuple(i for i in rows if i in s_gen)
        if not members:
            continue
        signs = tuple(1 if H.B.row(i) == normal else -1 for i in members)
        for i, sign in zip(members, signs):
            symbol_of[s_gen[i]] = ("s", len(s_classes))
            sign_of[s_gen[i]] = sign
        s_classes.append(SClass(normal=normal, members=members, signs=signs))

    reduced_relations = set()
    for left, right in relations:
        lsyms = tuple(sorted(symbol_of[i] for i in left))
        rsyms = tuple(sorted(symbol_of[i] for i in right))
        sign = 1
        for i in left:
            sign *= sign_of[i]
        for i in right:
            sign *= sign_of[i]
        if lsyms == rsyms and sign == 1:
            continue  # trivial after reduction
        pair = (lsyms, rsyms) if lsyms <= rsyms else (rsyms, lsyms)
        reduced_relations.add((pair[0], pair[1], sign))

    return ReducedPresentation(
        pure_generators=tuple(pure),
        s_classes=tuple(s_classes),
        relations=tuple(sorted(reduced_relations)),
    )


# -- grouping by Fraction-keyed hyperplanes ---------------------------------------


def _canonical_by_fractions(normal, offset=Fraction(0)):
    """Hyperplane.canonical as it was: the checks, then the offset as a
    Fraction, flipped with the normal."""
    normal = tuple(normal)
    if set(map(type, normal)) - {int}:  # bool is not int
        raise ValueError(f"normal must have int entries, got {normal!r}")
    if not is_primitive(normal):
        raise ValueError(f"normal {list(normal)} is not primitive")
    offset = Fraction(offset)
    flipped = canonical_sign(normal)
    if flipped != normal:
        offset = -offset
    return Hyperplane(normal=flipped, offset=offset)


def group_hyperplanes_by_fractions(n, pairs):
    """Build an ArrangementSpec from (normal, offset) pairs.

    Pairs with equal canonical hyperplane are merged into one component whose
    multiplicity is the group size. Kind is multiplicity >= 2 -> first kind.
    """
    counts = {}
    for normal, offset in pairs:
        h = _canonical_by_fractions(normal, offset)
        counts[h] = counts.get(h, 0) + 1
    comps = tuple(
        ArrangementComponent(h, m, _kind_from_multiplicity(m))
        for h, m in sorted(counts.items())
    )
    return ArrangementSpec(n=n, components=comps)


def build_discriminant_by_fractions(B):
    """build_discriminant through the Fraction-keyed grouping."""
    check_primitive_rows(B)
    return group_hyperplanes_by_fractions(B.cols, ((B.row(i), Fraction(0)) for i in range(B.rows)))


def family_slice_by_fractions(H, line, t):
    """family_slice through the Fraction-keyed grouping, every row checked
    again."""
    t = Fraction(t)
    return group_hyperplanes_by_fractions(
        H.n, ((H.B.row(i), t * line.offsets[i]) for i in range(H.N))
    )


# -- deterministic generic points -------------------------------------------------


def _primes():
    yield 2
    found = [2]
    candidate = 3
    while True:
        if all(candidate % p for p in found if p * p <= candidate):
            found.append(candidate)
            yield candidate
        candidate += 2


def _prime_window(window, n):
    gen = _primes()
    for _ in range(window * n):
        next(gen)
    return tuple(Fraction(next(gen)) for _ in range(n))


def generic_point_off(arr: ArrangementSpec, max_windows=1000):
    """Deterministic rational point lying on no wall of the arrangement.

    Coordinates come from consecutive prime windows; on accidental incidence
    the next window is tried.
    """
    for window in range(max_windows):
        p = _prime_window(window, arr.n)
        if all(not c.hyperplane.contains(p) for c in arr.components):
            return p
    raise RuntimeError("no generic point found within the window budget")


def generic_point_on(arr: ArrangementSpec, index, max_windows=1000):
    """Deterministic rational point on wall `index` and off all other walls."""
    target = arr.components[index].hyperplane
    b = target.normal
    bb = sum(x * x for x in b)
    for window in range(max_windows):
        p = _prime_window(window, arr.n)
        shift = (target.offset - sum(x * y for x, y in zip(b, p))) / bb
        eta = tuple(x + shift * y for x, y in zip(p, b))
        if all(
            not c.hyperplane.contains(eta)
            for i, c in enumerate(arr.components)
            if i != index
        ):
            return eta
    raise RuntimeError("no on-wall generic point found within the window budget")
