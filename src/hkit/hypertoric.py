"""Construction of the hypertoric variety attached to an integer matrix B:
moment map evaluation, the invariant-monomial monoid and its Hilbert basis,
generators-and-relations presentations, and the classification of
codimension-2 leaves with their Klein types.

Monomials live on 2N coordinates z_1..z_N, w_1..w_N; an invariant monomial is
an exponent pair (u, v) with u - v in the column lattice of B. The monoid of
all such pairs is pointed and finitely generated. B is unimodular, so the
sign-minimal vectors of its column lattice are its circuits (Sturmfels,
Groebner Bases and Convex Polytopes, ch. 4 and 8), and the unique minimal
generating set is read off them; `intmat.circuits` builds them with the
same enumerator that decided unimodularity in validation.
"""

from fractions import Fraction
from typing import NamedTuple

from .arrangement import _kind_from_multiplicity, _row_classes
from .errors import BudgetExceeded, DimensionMismatch, NotUnimodular
from .intmat import IntMatrix, _gale, check_primitive_rows, circuits, rank

DEFAULT_CANDIDATE_BUDGET = 10**5


class HypertoricData(NamedTuple):
    """Validated bundle (B, A) with the parallel-class grouping of B's rows
    and, as basis_rows, the pivots of validation's `intmat._Forms`: for a
    valid B the first rows that form a Z-basis of Z^n (`_Forms` says why)."""

    B: IntMatrix
    A: IntMatrix
    N: int
    n: int
    groups: tuple  # tuple of (canonical normal, ascending row index tuple)
    basis_rows: tuple

    @classmethod
    def from_matrix(cls, B: IntMatrix):
        check_primitive_rows(B)
        forms = _gale(B)  # raises NotInjective / TorsionCokernel
        if not forms.unimodular:
            raise NotUnimodular(f"matrix {B!r} has a maximal minor outside -1, 0, 1")
        return cls(B=B, A=forms.kernel, N=B.rows, n=B.cols, groups=_row_classes(B),
                   basis_rows=tuple(forms.pivots))


class MonomialGen(NamedTuple):
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


# -- Hilbert basis from the circuits of the column lattice ----------------------


def hilbert_basis(H: HypertoricData):
    """Unique minimal generating set of the invariant-monomial monoid.

    The reduced generators are the circuits c of im(B), split as (c_+, c_-)
    for both signs; the quadratic z_i w_i joins exactly when e_i is not in
    im(B), which by exactness means column a_i of A is nonzero (otherwise it
    splits as z_i * w_i).
    """
    gens = []
    for c in circuits(H.B):
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


def coordinate_dimension(H: HypertoricData, basis=None):
    """Krull dimension of the constructed variety: the rank of the lattice
    spanned by the generators' exponent pairs, minus the N - n moment
    relations. Always 2n for valid data."""
    if basis is None:
        basis = hilbert_basis(H)
    stacked = IntMatrix([list(g.u) + list(g.v) for g in basis], cols=2 * H.N)
    return rank(stacked) - (H.N - H.n)


# -- presentation ---------------------------------------------------------------


class SClass(NamedTuple):
    """One class of quadratic generators s_i = z_i w_i modulo the moment
    relations: members share a parallel row of B; sign -1 marks members whose
    row is opposite to the canonical representative."""

    normal: tuple
    members: tuple
    signs: tuple


class ReducedPresentation(NamedTuple):
    """Presentation after killing the moment relations: one symbol per s-class,
    relations rewritten accordingly. sign is the scalar relating the two sides."""

    pure_generators: tuple
    s_classes: tuple
    relations: tuple  # (left symbols, right symbols, sign)

    @property
    def generator_count(self):
        return len(self.pure_generators) + len(self.s_classes)


class Presentation(NamedTuple):
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


def _relations(gens, cap, budget):
    """Every unordered pair of disjoint generator multisets with one total
    exponent pair and total degree <= cap, as (left, right) with left < right,
    both sorted index tuples; the pairs come sorted.

    The multisets are nondecreasing index tuples, visited once each by a
    depth-first search on an explicit stack; gens must come in nondecreasing
    degree, as hilbert_basis returns them. A multiset's total exponent pair
    (u, v) is packed into one int with coordinate j in bits [b*j, b*(j+1)),
    b = cap.bit_length(): no exponent exceeds cap < 2^b, so sums never carry
    and the key of a multiset is the sum of its generators' keys. A multiset
    that lands in an occupied fiber is paired with each earlier member that
    shares no generator with it. These are exactly the pairs of the fiber
    with their common part cancelled: if a and b share c, then a - c and
    b - c form a disjoint pair of degree <= cap in a lower fiber.
    """
    bits = cap.bit_length()
    keys = [sum(e << bits * j for j, e in enumerate(g.u + g.v)) for g in gens]
    degrees = [g.degree for g in gens]
    fibers = {}  # packed key -> the multisets landed there so far
    relations = []
    count = 0
    stack = [(0, 0, 0, ())]  # (first index allowed, packed key, degree, multiset)
    while stack:
        start, key, degree, chosen = stack.pop()
        for i in range(start, len(gens)):
            total = degree + degrees[i]
            if total > cap:
                break  # and so for every later, no lighter, generator
            count += 1
            if count > budget:
                raise BudgetExceeded(f"relation search exceeded {budget} multisets")
            multiset, total_key = chosen + (i,), key + keys[i]
            fiber = fibers.setdefault(total_key, [])
            for other in fiber:
                if set(other).isdisjoint(multiset):
                    relations.append((other, multiset) if other < multiset else (multiset, other))
            fiber.append(multiset)
            if total + degrees[i] <= cap:
                stack.append((i, total_key, total, multiset))
    relations.sort()
    return relations


def presentation(H: HypertoricData, candidate_budget=DEFAULT_CANDIDATE_BUDGET):
    """Generators and relations for the invariant ring modulo the moment ideal.

    The binomial relations are every unordered pair of disjoint generator
    multisets with one total exponent pair and total degree at most twice the
    largest generator degree (`relation_degree_cap`). That set is not proven
    to generate the relation ideal, nor to be minimal (ROADMAP item 3). The
    reduced view identifies the s_i along parallel rows of B, which is
    exactly what the moment relations enforce on quadratic invariants.
    """
    gens = hilbert_basis(H)
    cap = 2 * max((g.degree for g in gens), default=0)
    relations = _relations(gens, cap, candidate_budget)
    return Presentation(
        generators=tuple(gens),
        moment_rows=H.A,
        binomial_relations=tuple(relations),
        relation_degree_cap=cap,
        reduced=_reduce_presentation(H, gens, relations),
    )


def _reduce_presentation(H, gens, relations):
    """The reduced view of relations among gens: each generator read through
    one table from its index to its reduced (symbol, sign). A pure generator
    is ("g", k) with sign 1; z_i w_i is ("s", c) for the s-class c of row i,
    with the sign of row i against the class normal."""
    pure = []
    s_gen = {}  # row i -> index of the generator z_i w_i, to fill the table
    table = {}  # generator index -> (reduced symbol, sign)
    for idx, g in enumerate(gens):
        i = _s_index(g)
        if i is None:
            table[idx] = (("g", len(pure)), 1)
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
            table[s_gen[i]] = (("s", len(s_classes)), sign)
        s_classes.append(SClass(normal=normal, members=members, signs=signs))

    # No relation reduces to equal sides. Its two sides are disjoint and
    # nonempty, and a pure symbol names one generator, so equal sides would
    # be made of s-symbols alone; z_i w_i has exponent pair (e_i, e_i), so
    # two such sides with one total exponent pair hold the same rows, that
    # is the same generators.
    reduced = set()
    for left, right in relations:
        sign = 1
        for i in left + right:
            sign *= table[i][1]
        lsyms = tuple(sorted(table[i][0] for i in left))
        rsyms = tuple(sorted(table[i][0] for i in right))
        reduced.add((lsyms, rsyms, sign) if lsyms < rsyms else (rsyms, lsyms, sign))

    return ReducedPresentation(
        pure_generators=tuple(pure),
        s_classes=tuple(s_classes),
        relations=tuple(sorted(reduced)),
    )


# -- leaves ---------------------------------------------------------------------


class LeafDescriptor(NamedTuple):
    normal: tuple
    multiplicity: int
    singularity: str
    kind: str

    @property
    def is_singular(self):
        return self.multiplicity >= 2


def leaf_descriptors(classes):
    """One descriptor per parallel class, given in order as (normal,
    multiplicity) pairs: multiplicity m >= 2 gives a codimension-2 leaf with
    transverse Klein type A_{m-1} and a wall of the first kind; multiplicity
    1 classes are smooth walls."""
    return [
        LeafDescriptor(
            normal=normal,
            multiplicity=m,
            singularity=f"A{m - 1}" if m >= 2 else None,
            kind=_kind_from_multiplicity(m).value,
        )
        for normal, m in classes
    ]


def leaf_classification(H: HypertoricData):
    """The leaf descriptors of the parallel classes of B's rows."""
    return leaf_descriptors((normal, len(rows)) for normal, rows in H.groups)
