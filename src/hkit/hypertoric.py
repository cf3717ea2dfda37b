"""Construction of the hypertoric variety attached to an integer matrix B:
moment map evaluation, the invariant-monomial monoid and its Hilbert basis,
generators-and-relations presentations, and the classification of
codimension-2 leaves with their Klein types.

Monomials live on 2N coordinates z_1..z_N, w_1..w_N; an invariant monomial is
an exponent pair (u, v) with u - v in the column lattice of B. The monoid of
all such pairs is pointed and finitely generated; its unique minimal
generating set is computed by a completion algorithm over the column lattice
(conformal reduction of pairwise sums until stable, then minimalization).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    NonPrimitiveRow,
    NotUnimodular,
)
from .intmat import (
    IntMatrix,
    canonical_sign,
    gale_dual,
    is_primitive,
    is_unimodular,
    rank,
)

DEFAULT_CANDIDATE_BUDGET = 10**5
DEFAULT_DEGREE_LIMIT = 20
BRUTE_FORCE_MAX_N = 6
BRUTE_FORCE_MAX_DEGREE = 8


@dataclass(frozen=True)
class HypertoricData:
    """Validated bundle (B, A) with the parallel-class grouping of B's rows."""

    B: IntMatrix
    A: IntMatrix
    N: int
    n: int
    groups: tuple  # tuple of (canonical normal, row index tuple)

    @classmethod
    def from_matrix(cls, B: IntMatrix):
        for i in range(B.rows):
            if not is_primitive(B.row(i)):
                raise NonPrimitiveRow(i, B.row(i))
        A = gale_dual(B)  # raises NotInjective / TorsionCokernel
        if not is_unimodular(B):
            raise NotUnimodular(f"matrix {B!r} has a maximal minor outside -1, 0, 1")
        classes = {}
        for i in range(B.rows):
            classes.setdefault(canonical_sign(B.row(i)), []).append(i)
        groups = tuple((normal, tuple(rows)) for normal, rows in sorted(classes.items()))
        return cls(B=B, A=A, N=B.rows, n=B.cols, groups=groups)


@dataclass(frozen=True, order=True)
class MonomialGen:
    """Invariant monomial z^u w^v as the exponent pair (u, v)."""

    u: tuple
    v: tuple

    @property
    def degree(self):
        return sum(self.u) + sum(self.v)

    def sort_key(self):
        return (self.degree, self.u + self.v)

    def __str__(self):
        parts = [f"z{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(self.u) if e]
        parts += [f"w{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(self.v) if e]
        return "*".join(parts) if parts else "1"


def moment_map_eval(A: IntMatrix, z, w):
    """sum_i a_i z_i w_i with a_i the columns of A; exact rationals."""
    N = A.cols
    if len(z) != N or len(w) != N:
        raise DimensionMismatch(f"expected {N} coordinates, got {len(z)}, {len(w)}")
    out = [Fraction(0)] * A.rows
    for i in range(N):
        zw = Fraction(z[i]) * Fraction(w[i])
        if zw:
            for j in range(A.rows):
                out[j] += A[j, i] * zw
    return tuple(out)


def _in_column_image(H: HypertoricData, w):
    """w in im(B)? The image is saturated, so rational solvability suffices."""
    if not any(w):
        return True
    aug = IntMatrix([list(H.B.row(i)) + [w[i]] for i in range(H.N)], cols=H.n + 1)
    return rank(aug) == H.n


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
    weight_rows = [H.A.row(j) for j in range(H.A.rows)]
    buckets = {}
    for total in range(d + 1):
        for exps in _compositions(total, H.N):
            weight = tuple(sum(a * x for a, x in zip(row, exps)) for row in weight_rows)
            buckets.setdefault(weight, []).append((total, exps))
    out = [
        MonomialGen(u=u, v=v)
        for half in buckets.values()
        for du, u in half
        for dv, v in half
        if 1 <= du + dv <= d
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


# -- Hilbert basis via completion over the column lattice ----------------------


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


def graver_basis(
    B: IntMatrix,
    candidate_budget=DEFAULT_CANDIDATE_BUDGET,
    degree_limit=DEFAULT_DEGREE_LIMIT,
):
    """Sign-minimal nonzero elements of the column lattice of B.

    Completion algorithm: close {+-columns} under pairwise sums with conformal
    reduction, then keep the minimal elements. Aborts loudly past the budget
    so monoid blowups fail instead of hanging; the partial set rides along on
    the exception.
    """
    cols = [B.column(j) for j in range(B.cols)]
    gens = []
    for c in cols:
        if any(c) and c not in gens:
            gens.append(c)
            gens.append(tuple(-x for x in c))
    queue = [
        tuple(a + b for a, b in zip(f, g))
        for f, g in itertools.combinations(gens, 2)
    ]
    processed = 0
    while queue:
        s = queue.pop()
        processed += 1
        if processed > candidate_budget:
            raise BudgetExceeded(
                f"completion exceeded {candidate_budget} candidates",
                partial=_minimal_conformal_elements(gens),
            )
        s = _normal_form(s, gens)
        if not any(s):
            continue
        if sum(abs(x) for x in s) > degree_limit:
            raise BudgetExceeded(
                f"completion exceeded degree {degree_limit}",
                partial=_minimal_conformal_elements(gens),
            )
        queue.extend(tuple(a + b for a, b in zip(s, g)) for g in gens)
        gens.append(s)
    return _minimal_conformal_elements(gens)


def hilbert_basis(
    H: HypertoricData,
    candidate_budget=DEFAULT_CANDIDATE_BUDGET,
    degree_limit=DEFAULT_DEGREE_LIMIT,
):
    """Unique minimal generating set of the invariant-monomial monoid.

    The reduced generators are the sign-minimal lattice vectors g of im(B),
    split as (g_+, g_-); the quadratic z_i w_i joins exactly when e_i is not
    in im(B) (otherwise it splits as z_i * w_i).
    """
    try:
        graver = graver_basis(
            H.B, candidate_budget=candidate_budget, degree_limit=degree_limit
        )
    except BudgetExceeded as err:
        partial = [_split_monomial(g) for g in err.partial or []]
        partial.sort(key=MonomialGen.sort_key)
        raise BudgetExceeded(str(err), partial=partial) from None
    gens = [_split_monomial(g) for g in graver]
    for i in range(H.N):
        e_i = tuple(1 if k == i else 0 for k in range(H.N))
        if not _in_column_image(H, e_i):
            gens.append(MonomialGen(u=e_i, v=e_i))
    gens.sort(key=MonomialGen.sort_key)
    return gens


def _split_monomial(g):
    return MonomialGen(
        u=tuple(x if x > 0 else 0 for x in g),
        v=tuple(-x if x < 0 else 0 for x in g),
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

    return search(target.u + target.v)


def coordinate_dimension(H: HypertoricData, basis=None):
    """Krull dimension of the constructed variety: the rank of the lattice
    spanned by the generators' exponent pairs, minus the N - n moment
    relations. Always 2n for valid data."""
    if basis is None:
        basis = hilbert_basis(H)
    stacked = IntMatrix([list(g.u) + list(g.v) for g in basis], cols=2 * H.N)
    return rank(stacked) - (H.N - H.n)


# -- presentation ---------------------------------------------------------------


@dataclass(frozen=True)
class SClass:
    """One class of quadratic generators s_i = z_i w_i modulo the moment
    relations: members share a parallel row of B; sign -1 marks members whose
    row is opposite to the canonical representative."""

    normal: tuple
    members: tuple
    signs: tuple


@dataclass(frozen=True)
class ReducedPresentation:
    """Presentation after killing the moment relations: one symbol per s-class,
    relations rewritten accordingly. sign is the scalar relating the two sides."""

    pure_generators: tuple
    s_classes: tuple
    relations: tuple  # (left symbols, right symbols, sign)

    @property
    def generator_count(self):
        return len(self.pure_generators) + len(self.s_classes)


@dataclass(frozen=True)
class Presentation:
    generators: tuple
    moment_rows: IntMatrix
    binomial_relations: tuple  # pairs of sorted generator-index tuples
    relation_degree_cap: int
    reduced: ReducedPresentation


def _s_index(gen: MonomialGen):
    """Index i when gen is z_i w_i, else None."""
    if gen.u != gen.v or sum(gen.u) != 1:
        return None
    return gen.u.index(1)


def _multisets_by_total(gens, cap, budget):
    """Group all generator multisets of total degree <= cap by their
    total exponent pair."""
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
                continue
            extend(
                i,
                tuple(a + b for a, b in zip(u, g.u)),
                tuple(a + b for a, b in zip(v, g.v)),
                degree + g.degree,
                chosen + [i],
            )

    N = len(gens[0].u) if gens else 0
    extend(0, (0,) * N, (0,) * N, 0, [])
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


def presentation(
    H: HypertoricData,
    candidate_budget=DEFAULT_CANDIDATE_BUDGET,
    degree_limit=DEFAULT_DEGREE_LIMIT,
):
    """Generators and relations for the invariant ring modulo the moment ideal.

    Binomial relations are the balanced coprime generator products up to twice
    the maximal generator degree; the reduced view identifies the s_i along
    parallel rows of B, which is exactly what the moment relations enforce on
    quadratic invariants.
    """
    gens = hilbert_basis(H, candidate_budget=candidate_budget, degree_limit=degree_limit)
    cap = 2 * max((g.degree for g in gens), default=0)
    table = _multisets_by_total(gens, cap, candidate_budget)

    relations = set()
    for multisets in table.values():
        if len(multisets) < 2:
            continue
        for a, b in itertools.combinations(multisets, 2):
            left, right = _cancel_common(a, b)
            if left and right:
                relations.add((left, right) if left <= right else (right, left))

    reduced = _reduce_presentation(H, gens, sorted(relations))
    return Presentation(
        generators=tuple(gens),
        moment_rows=H.A,
        binomial_relations=tuple(sorted(relations)),
        relation_degree_cap=cap,
        reduced=reduced,
    )


def _reduce_presentation(H, gens, relations):
    pure = []
    s_members = {}
    symbol_of = {}
    sign_of = {}
    for idx, g in enumerate(gens):
        i = _s_index(g)
        if i is None:
            symbol_of[idx] = ("g", len(pure))
            sign_of[idx] = 1
            pure.append(g)
        else:
            row = H.B.row(i)
            key = canonical_sign(row)
            s_members.setdefault(key, []).append((i, idx, 1 if row == key else -1))
    s_classes = []
    for k, (key, members) in enumerate(sorted(s_members.items())):
        members.sort()
        s_classes.append(
            SClass(
                normal=key,
                members=tuple(m[0] for m in members),
                signs=tuple(m[2] for m in members),
            )
        )
        for _, gen_idx, sign in members:
            symbol_of[gen_idx] = ("s", k)
            sign_of[gen_idx] = sign

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


# -- leaves ---------------------------------------------------------------------


@dataclass(frozen=True)
class LeafDescriptor:
    group_id: int
    normal: tuple
    multiplicity: int
    singularity: str
    kind: str

    @property
    def is_singular(self):
        return self.multiplicity >= 2


def leaf_classification(H: HypertoricData):
    """One descriptor per parallel class: multiplicity m >= 2 gives a
    codimension-2 leaf with transverse Klein type A_{m-1}; multiplicity 1
    classes are smooth walls."""
    out = []
    for gid, (normal, rows) in enumerate(H.groups):
        m = len(rows)
        out.append(
            LeafDescriptor(
                group_id=gid,
                normal=normal,
                multiplicity=m,
                singularity=f"A{m - 1}" if m >= 2 else None,
                kind="first" if m >= 2 else "second",
            )
        )
    return out
