"""Construction of the hypertoric variety attached to an integer matrix B:
moment map evaluation, the invariant-monomial monoid and its Hilbert basis,
generators-and-relations presentations, and the classification of
codimension-2 leaves with their Klein types.

Monomials live on 2N coordinates z_1..z_N, w_1..w_N; an invariant monomial is
an exponent pair (u, v) with u - v in the column lattice of B. The monoid of
all such pairs is pointed and finitely generated. B is unimodular, so the
sign-minimal vectors of its column lattice are its circuits (Sturmfels,
Groebner Bases and Convex Polytopes, ch. 4 and 8), and the unique minimal
generating set is read off them in one pass: each {0, +-1} circuit gives
two generators, its +1 and -1 entries swapped between z and w, and each
nonzero column a_i of A gives z_i w_i. The circuits are
`HypertoricData.forms.circuits`: validation's `intmat._Forms` stored them
when it decided unimodularity on B's side (n <= N - n), and otherwise
enumerates them once on first use, so the invariant ring never reduces
B^T again. The monoid spans a lattice of rank N + n, so the variety has
dimension 2n, with no rank computed (`coordinate_dimension` has the
proof). The binomial relations among the generators are searched in the
fibers of the monomial map (ch. 4): only the multisets without a quadratic
z_i w_i are built, and their weight classes say where those fill in.
"""

from collections import defaultdict
from fractions import Fraction
from typing import NamedTuple

from .arrangement import _exact, _kind_from_multiplicity, _row_classes
from .errors import BudgetExceeded, DimensionMismatch, NotUnimodular
from .intmat import IntMatrix, _Forms, _gale, check_primitive_rows

DEFAULT_CANDIDATE_BUDGET = 10**5


class HypertoricData(NamedTuple):
    """Validated bundle (B, A) with the parallel-class grouping of B's rows,
    as basis_rows the pivots of validation's `intmat._Forms`: for a valid B
    the first rows that form a Z-basis of Z^n (`_Forms` says why), and as
    forms that `_Forms` itself, whose circuits give the Hilbert basis. forms
    compares, hashes and prints as B."""

    B: IntMatrix
    A: IntMatrix
    N: int
    n: int
    groups: tuple  # tuple of (canonical normal, ascending row index tuple)
    basis_rows: tuple
    forms: _Forms

    @classmethod
    def from_matrix(cls, B: IntMatrix):
        check_primitive_rows(B)
        forms = _gale(B)  # raises NotInjective / TorsionCokernel
        if not forms.unimodular:
            raise NotUnimodular(B)
        return cls(B=B, A=forms.kernel, N=B.rows, n=B.cols, groups=_row_classes(B),
                   basis_rows=tuple(forms.pivots), forms=forms)


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
        zw = _exact(z[i], "z") * _exact(w[i], "w")
        if zw:
            for j in range(A.rows):
                out[j] += A[j, i] * zw
    return tuple(out)


# -- Hilbert basis from the circuits of the column lattice ----------------------

# Indexed by an entry x in {-1, 0, 1}, -1 reading the last place: 1 iff x == 1,
# and 1 iff x == -1.
_POSITIVE = (0, 1, 0)
_NEGATIVE = (0, 0, 1)


def _generators(H: HypertoricData):
    """The Hilbert basis in its canonical order (degree, then u + v), with
    each generator's degree and, for z_i w_i, its row i (None otherwise):
    three parallel lists, built in one pass over the circuits.

    A circuit c is a {0, +-1} vector, so its monomial z^u w^v has u and v
    the indicators of its +1 and -1 entries and degree its support size, and
    -c gives (v, u). z_i w_i joins exactly when e_i is not in im(B), which
    by exactness means column a_i of A is nonzero (otherwise it splits as
    z_i * w_i).
    """
    keyed = []  # (degree, u + v, generator, row of an s_i): distinct in u + v
    for c in H.forms.circuits:
        u = tuple(map(_POSITIVE.__getitem__, c))
        v = tuple(map(_NEGATIVE.__getitem__, c))
        degree = len(c) - c.count(0)
        keyed.append((degree, u + v, MonomialGen(u, v), None))
        keyed.append((degree, v + u, MonomialGen(v, u), None))
    zero = (0,) * H.N
    for i, column in enumerate(zip(*H.A.data)):
        if any(column):
            e_i = zero[:i] + (1,) + zero[i + 1:]
            keyed.append((2, e_i + e_i, MonomialGen(e_i, e_i), i))
    keyed.sort()
    return [k[2] for k in keyed], [k[0] for k in keyed], [k[3] for k in keyed]


def hilbert_basis(H: HypertoricData):
    """Unique minimal generating set of the invariant-monomial monoid, sorted
    by `MonomialGen.sort_key`: the circuits c of im(B), split as (c_+, c_-)
    for both signs, and z_i w_i whenever column a_i of A is nonzero
    (`_generators`)."""
    return _generators(H)[0]


def coordinate_dimension(H: HypertoricData, basis=None):
    """Krull dimension of the constructed variety, 2n. basis is unused; it is
    accepted so that callers holding the Hilbert basis can pass it.

    The invariant ring is the monoid ring of M = {(u, v) in N^2N : u - v in
    im B}, of dimension the rank of the group M generates. That group is
    L = {(u, v) in Z^2N : u - v in im B}: for (u, v) in L and t the largest
    entry of -u and -v (or 0), (u + t, v + t) and (t, t) lie in M, and
    (u, v) is their difference. (u, v) -> (u - v, v) maps L onto im B x Z^N,
    of rank n + N since B is injective. The N - n moment relations cut that
    to N + n - (N - n) = 2n.
    """
    return 2 * H.n


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


def _multiset_count(degrees, cap):
    """The number of nonempty multisets of generators of these degrees with
    total degree <= cap: the coefficients of prod_g 1/(1 - t^deg g) up to
    t^cap, summed, less the empty multiset's."""
    counts = [1] + [0] * cap
    for d in degrees:
        for k in range(d, cap + 1):
            counts[k] += counts[k - d]
    return sum(counts) - 1


def _relations(gens, degrees, s_rows, cap, budget):
    """Every unordered pair of disjoint generator multisets with one total
    exponent pair and total degree <= cap, as (left, right) with left < right,
    both sorted index tuples; the pairs come sorted. degrees and s_rows are
    `_generators`' lists for gens. BudgetExceeded, before any search, when
    more than budget nonempty multisets have degree <= cap.

    Only pure multisets are built: those without an s_i = z_i w_i, the
    generator of exponent pair (e_i, e_i). A side is P + t.s with P pure and
    t >= 0 its s-part, zero on the rows without an s_i. Its total is
    (U_P + t, V_P + t), so x = U_P - V_P does not see t. Two sides P + t.s
    and Q + t'.s share no generator and have one total exactly when
    - P and Q are disjoint and x_P = x_Q, and
    - U_P + t = U_Q + t' with t, t' of disjoint supports, that is
      t = (U_Q - U_P)+ and t' = (U_P - U_Q)+, which needs U_P = U_Q on the
      rows without an s_i.
    Both sides then have degree 2 sum_i max(U_P,i, U_Q,i) - sum_i x_i, at
    least deg P and deg Q. So the relations are the pairs P != Q of pure
    multisets of degree <= cap in one weight class (x, and U on the rows
    without an s_i) that are disjoint and pass that degree test, each side
    padded with its s-part; each relation comes from one pair, its sides'
    pure parts. One of P, Q may be empty, yet no side is: U_P = 0 and
    x_P = 0 give V_P = 0, so P + t.s is empty only when P and Q both are.

    The pure multisets are built generator by generator and degree by
    degree, in the recursion of `_multiset_count`, so each comes once. A
    weight class is one int, the sum of the generators' keys: x_i in field
    i and, on a row without an s_i, U_i in field N + i, each field
    b = cap.bit_length() + 1 bits wide. No entry exceeds cap < 2^(b-1) in
    size, so the packing is one-to-one. U is also thermometer-coded, row i
    as U_i ones from bit cap*i. Circuits are {0, +-1} vectors, so a pure
    generator's u is a 0/1 vector, and adding it lengthens each of its
    rows' runs by one: T | (T << 1) & F | L, with F its rows' fields and L
    their lowest bits; U_i <= deg P <= cap keeps every run inside its
    field. The OR of two codes codes max(U_P, U_Q), so the degree test is
    one OR and a bit_count; disjointness is one AND of the generators'
    bitmasks.
    """
    if _multiset_count(degrees, cap) > budget:
        raise BudgetExceeded(f"relation search exceeded {budget} multisets")
    pure = [idx for idx, i in enumerate(s_rows) if i is None]
    s_at = {i: idx for idx, i in enumerate(s_rows) if i is not None}  # row i -> s_i
    rows = len(gens[0].u) if gens else 0
    bits, field = cap.bit_length() + 1, (1 << cap) - 1
    down = [1 << bits * i for i in range(rows)]  # v_i = 1 lowers x_i
    # u_i = 1 raises x_i, and U_i on a row without an s_i
    up = [d if i in s_at else d + (d << bits * rows) for i, d in enumerate(down)]

    layers = [[] for _ in range(cap + 1)]  # by degree: (multiset, class, code, bitmask, degree)
    layers[0].append(((), 0, 0, 0, 0))
    for k, idx in enumerate(pure):
        g, d = gens[idx], degrees[idx]
        ones = [i for i, a in enumerate(g.u) if a]
        step = sum(up[i] for i in ones) - sum(down[i] for i, b in enumerate(g.v) if b)
        low = sum(1 << cap * i for i in ones)
        run, one, bit = low * field, (idx,), 1 << k
        for degree in range(d, cap + 1):
            layers[degree].extend(
                (chosen + one, key + step, code | (code << 1) & run | low, used | bit, degree)
                for chosen, key, code, used, _ in layers[degree - d])

    classes = defaultdict(list)  # weight class -> its multisets' layer entries
    for layer in layers:
        for entry in layer:
            classes[entry[1]].append(entry)
    relations = []
    for members in classes.values():
        if len(members) < 2:
            continue
        _, _, code, _, degree = members[0]
        top = code.bit_count() + (cap - degree) // 2  # (cap + sum_i x_i) / 2
        for a, (p, _, code_p, used_p, _) in enumerate(members):
            for q, _, code_q, used_q, _ in members[a + 1:]:
                if used_p & used_q or (code_p | code_q).bit_count() > top:
                    continue
                left = _padded(p, code_q & ~code_p, cap, s_at)
                right = _padded(q, code_p & ~code_q, cap, s_at)
                relations.append((left, right) if left < right else (right, left))
    relations.sort()
    return relations


def _padded(side, extra, cap, s_at):
    """side with one s_i more for each bit of extra in row i's field, as a
    sorted tuple of generator indices."""
    side = list(side)
    while extra:
        low = extra & -extra
        side.append(s_at[(low.bit_length() - 1) // cap])
        extra ^= low
    return tuple(sorted(side))


def presentation(H: HypertoricData, candidate_budget=DEFAULT_CANDIDATE_BUDGET):
    """Generators and relations for the invariant ring modulo the moment ideal.

    The binomial relations are every unordered pair of disjoint generator
    multisets with one total exponent pair and total degree at most twice the
    largest generator degree (`relation_degree_cap`). That set is not proven
    to generate the relation ideal, nor to be minimal (ROADMAP item 3).
    candidate_budget bounds the number of nonempty generator multisets of
    degree <= cap. That number is counted before the search, which raises
    BudgetExceeded when it is larger; the search itself builds only the
    multisets without an s_i = z_i w_i and pairs them by weight class
    (`_relations` has the proof). The reduced view identifies the s_i along
    parallel rows of B, which is exactly what the moment relations enforce
    on quadratic invariants.
    """
    gens, degrees, s_rows = _generators(H)
    cap = 2 * degrees[-1] if degrees else 0  # degrees ascend
    relations = _relations(gens, degrees, s_rows, cap, candidate_budget)
    return Presentation(
        generators=tuple(gens),
        moment_rows=H.A,
        binomial_relations=tuple(relations),
        relation_degree_cap=cap,
        reduced=_reduce_presentation(H, gens, s_rows, relations),
    )


def _reduce_presentation(H, gens, s_rows, relations):
    """The reduced view of relations among gens, with s_rows as in
    `_generators`: each generator read through one table from its index to
    its reduced (symbol, sign). A pure generator is ("g", k) with sign 1;
    z_i w_i is ("s", c) for the s-class c of row i, with the sign of row i
    against the class normal."""
    pure = []
    s_gen = {}  # row i -> index of the generator z_i w_i, to fill the table
    table = {}  # generator index -> (reduced symbol, sign)
    for idx, (g, i) in enumerate(zip(gens, s_rows)):
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
