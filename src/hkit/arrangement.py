"""Discriminant hyperplane arrangements: grouping parallel walls with
multiplicities, stabilizer ranks at points, multi-incidence flats, and the
simplicity conditions for affine slices.

Arrangements are central (all offsets 0) for the discriminant of a matrix B,
or affine for slices of a deformation family. All arithmetic is exact:
normals are int tuples and every offset is a Fraction. Walls are grouped in
one place, `_parallel_classes`, on int keys, so no offset is hashed: a
central wall by its canonical normal (parallel rows up to sign), an affine
one by (canonical normal, offset numerator, offset denominator).
`ArrangementSpec`'s constructor is the one check of a spec built by hand:
canonical walls (primitive int normals whose first nonzero entry is
positive), distinct and of length n, so that no two central walls are
parallel, which both flat walks take for granted. `group_hyperplanes`
brings its pairs to canonical form and goes through that constructor.
hkit's own specs are made by `_spec` without the checks:
`build_discriminant` checks B's rows once with `check_primitive_rows`, and
`HypertoricData.from_matrix` groups them the same way for `groups`;
`localmodel.family_slice` takes those checked groups as they are, and its
t = 0 slice is `groups` with one shared zero offset.

Flats come from one depth-first closure of the intersection lattice, cover
by cover (Orlik and Terao, Arrangements of Hyperplanes, ch. 2), so the
F-locus is complete for any number of walls. `_closure` expands each flat
once and takes its direction from its parent's in one elimination step,
`_cut`, with `kernel_basis` as the fallback. Two walks feed it the keys
that group a flat's other walls into its covers. A central arrangement
whose normals have {0, +-1} circuits is closed from its lines (`_lines`):
the lines are the zero sets of the circuits of the normals' column
lattice, which `_Forms.circuits` enumerates as it does to decide
unimodularity; the lattice is coatomistic, so a flat is known by the
bitmask sigma of the lines inside it, and a wall w's key is C_w & sigma,
C_w being the lines inside w, one integer AND per class. The empty key is
the top flat, the center, and the row of the cut is the normal of any wall
of the class; `f_locus` has the proof. Every other arrangement takes
`_flats`, whose key is a wall's residual, made from its parent's in one
fraction-free step; `_flats` has that proof and the cut's. Every
walk carries directions, and `f_locus` is the one door to the flats.
Slice simplicity is decided from circuits, not flats: `check_simplicity`
enumerates the circuits of the normals' dependencies with
`_Forms.dependency_circuits` and tests <c, lambda> != 0 on each (its
docstring has the proof, at any rank of the normals). A slice that is not
simple fails (b), and only to decide (a) does it read `f_locus`. It lists
no violating subsets; the oracles in the tests do.
Points come from integer back-substitution over one common denominator.
"""

from bisect import insort
from enum import Enum
from fractions import Fraction
from math import lcm
from operator import itemgetter, mul
from typing import NamedTuple

from .errors import DimensionMismatch
from .intmat import (
    IntMatrix,
    _Forms,
    canonical_primitive,
    canonical_sign,
    check_primitive_rows,
    is_primitive,
    kernel_basis,
    rank,
)


class Kind(Enum):
    FIRST_KIND = "first"
    SECOND_KIND = "second"


def _exact(value, what):
    """Fraction(value) for a value that is exact: a float is refused, as
    Fraction would take its binary value (0.1 is not 1/10), and so is a
    bool, as for normal entries (ValueError naming `what`). An int, a
    Fraction or a string such as "1/3" is taken."""
    if isinstance(value, float):
        raise ValueError(f"{what} must be exact, got {value!r}")
    if isinstance(value, bool):
        raise ValueError(f"{what} must not be a bool, got {value!r}")
    return Fraction(value)


def _checked(normal, offset):
    """(canonical normal, offset flipped with it) of <normal, eta> = offset,
    after checking that normal has int entries and is primitive and that
    offset is `_exact`."""
    normal = tuple(normal)
    if set(map(type, normal)) - {int}:  # bool is not int
        raise ValueError(f"normal must have int entries, got {normal!r}")
    if not is_primitive(normal):
        raise ValueError(f"normal {list(normal)} is not primitive")
    offset = _exact(offset, "offset")
    flipped = canonical_sign(normal)
    if flipped != normal:
        offset = -offset
    return flipped, offset


class Hyperplane(NamedTuple):
    """The affine hyperplane <normal, eta> = offset, in canonical form:
    normal primitive with positive leading entry (offset flips with it)."""

    normal: tuple
    offset: Fraction = Fraction(0)

    @classmethod
    def canonical(cls, normal, offset=Fraction(0)):
        return cls(*_checked(normal, offset))

    def contains(self, point):
        if len(point) != len(self.normal):
            raise DimensionMismatch(
                f"point has dimension {len(point)}, hyperplane {len(self.normal)}"
            )
        return sum(_exact(x, "point") * b for x, b in zip(point, self.normal)) == self.offset


class ArrangementComponent(NamedTuple):
    hyperplane: Hyperplane
    multiplicity: int
    kind: Kind


class _ArrangementFields(NamedTuple):
    n: int
    components: tuple


class ArrangementSpec(_ArrangementFields):
    """Distinct hyperplanes with multiplicities, sorted canonically. Two
    hyperplanes are the same when their normals and the numerators and
    denominators of their offsets are. Its length is the number of
    components.

    The constructor is the one check of a spec built by hand (`_replace`
    goes through it too): n is a nonnegative int; every wall is canonical,
    as `_checked` leaves it (a primitive normal of int entries whose first
    nonzero entry is positive, and an int or Fraction offset), of length n
    and distinct; and each component's multiplicity is an int of at least 1
    and its kind the one `_kind_from_multiplicity` gives (a bool is refused
    for n, multiplicities and offsets, as for normal entries). So no two
    central walls are parallel, and the flat walks and `check_simplicity`
    rely on that. `_spec` makes the specs of hkit's own groupings without
    these checks."""

    __slots__ = ()

    def __new__(cls, n, components):
        if type(n) is not int or n < 0:  # bool is not int
            raise ValueError(f"n must be a nonnegative int, got {n!r}")
        seen = set()
        for comp in components:
            h = comp.hyperplane
            if type(comp.multiplicity) is not int:
                raise ValueError(f"multiplicity must be an int, got {comp.multiplicity!r}")
            if comp.multiplicity < 1:
                raise ValueError("multiplicity below 1")
            if comp.kind is not _kind_from_multiplicity(comp.multiplicity):
                raise ValueError(f"kind {comp.kind} does not fit multiplicity {comp.multiplicity}")
            if len(h.normal) != n:
                raise DimensionMismatch("component dimension differs from ambient n")
            if not isinstance(h.offset, (int, Fraction)) or _checked(*h) != h:
                raise ValueError(f"{h} is not canonical: leading entry < 0 or offset not exact")
            key = (h.normal, h.offset.numerator, h.offset.denominator)
            if key in seen:
                raise ValueError(f"duplicate hyperplane {h}")
            seen.add(key)
        return super().__new__(cls, n, components)

    @classmethod
    def _make(cls, iterable):
        # the field tuple's _make checks the length, which __len__ redefines
        return cls(*iterable)

    def __len__(self):
        return len(self.components)

    def wall_multiset(self):
        """Multiset view for equality checks: sorted (normal, offset, mult)."""
        return tuple(
            sorted(
                (c.hyperplane.normal, c.hyperplane.offset, c.multiplicity)
                for c in self.components
            )
        )


def _kind_from_multiplicity(mult):
    return Kind.FIRST_KIND if mult >= 2 else Kind.SECOND_KIND


ZERO = Fraction(0)


def _parallel_classes(keys):
    """{key: [index, ...]} of equal keys, indices ascending, keys in the
    order they first occur: the one grouping of parallel walls."""
    classes = {}
    for i, key in enumerate(keys):
        classes.setdefault(key, []).append(i)
    return classes


def _row_classes(B):
    """B's rows grouped by canonical normal: sorted (normal, ascending row
    indices) pairs, as `HypertoricData.groups` keeps them."""
    classes = _parallel_classes(map(canonical_sign, B.data))
    return tuple(sorted((normal, tuple(rows)) for normal, rows in classes.items()))


def _spec(n, classes):
    """The ArrangementSpec of sorted, distinct (normal, offset,
    multiplicity) classes whose walls are canonical and of length n, as the
    grouping of `_row_classes` or `_affine` leaves them, taken as they are,
    as `IntMatrix._of` takes rows: the constructor's checks would only
    confirm them."""
    return tuple.__new__(ArrangementSpec, (n, tuple(
        ArrangementComponent(Hyperplane(normal, offset), m, _kind_from_multiplicity(m))
        for normal, offset, m in classes
    )))


def _central(n, groups):
    """The central arrangement of sorted (normal, rows) classes: offsets 0,
    one shared Fraction, and multiplicity the class size."""
    return _spec(n, [(normal, ZERO, len(rows)) for normal, rows in groups])


def _affine(n, walls):
    """The arrangement of walls that are already checked: a list of
    (canonical normal, Fraction offset) pairs. Their length is not checked
    here: hkit's walls have length n, and `group_hyperplanes` hands the
    result to the checking constructor. Walls group on the int key
    (normal, offset numerator, offset denominator), so no offset is hashed,
    and the distinct classes are sorted once."""
    classes = _parallel_classes((b, c.numerator, c.denominator) for b, c in walls)
    return _spec(n, sorted(walls[ix[0]] + (len(ix),) for ix in classes.values()))


def group_hyperplanes(n, pairs):
    """Build an ArrangementSpec from (normal, offset) pairs.

    Each normal must have int entries and be primitive (ValueError
    otherwise). Pairs with equal canonical hyperplane are merged into one
    component whose multiplicity is the group size. Kind is multiplicity
    >= 2 -> first kind. The pairs come from outside hkit, so the result goes
    through the checking constructor, which raises DimensionMismatch for a
    normal whose length is not n.
    """
    return ArrangementSpec(*_affine(n, [_checked(normal, offset) for normal, offset in pairs]))


def build_discriminant(B: IntMatrix) -> ArrangementSpec:
    """Central discriminant arrangement of B: one wall per parallel class of
    rows (up to sign), multiplicity = class size."""
    check_primitive_rows(B)
    return _central(B.cols, _row_classes(B))


def stabilizer_rank(arr: ArrangementSpec, eta):
    """Rank of the lattice spanned by the normals of walls through eta.

    Each wall counts once regardless of multiplicity; the incident normals are
    returned in component order.
    """
    eta = tuple(_exact(x, "eta") for x in eta)
    if len(eta) != arr.n:
        raise DimensionMismatch(f"point dimension {len(eta)} != ambient {arr.n}")
    incident = [c.hyperplane.normal for c in arr.components if c.hyperplane.contains(eta)]
    if not incident:
        return 0, []
    return rank(IntMatrix(incident, cols=arr.n)), incident


def _wall_row(h):
    """Integer augmented row (normal, offset) of <normal, eta> = offset; a
    central wall's offset column is 0."""
    d = h.offset.denominator
    return tuple(d * b for b in h.normal) + (h.offset.numerator,)


def _pivot(row):
    return next(j for j, x in enumerate(row) if x)


def _bits(mask):
    """The indices of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _cut(D, r):
    """The HNF rows of the lattice of D cut by r's hyperplane, for the HNF
    rows D of a saturated lattice with unit pivots; None when the last
    nonzero entry of s = D r is not +-1. r may carry an offset column, which
    the products skip. `_flats` has the proof."""
    s = [sum(map(mul, d, r)) for d in D]
    i = len(s) - 1
    while not s[i]:
        i -= 1
    si = s[i]
    if si != 1 and si != -1:
        return None
    di = D[i]
    head = [
        tuple([a - c * b for a, b in zip(d, di)]) if (c := sj * si) else d
        for d, sj in zip(D, s[:i])
    ]
    return tuple(head) + D[i + 1:]


def _direction(basis, n):
    """kernel_basis of the normals of a flat's basis, a list of (index, row)
    pairs, as rows, and whether its pivots are 1."""
    D = kernel_basis(IntMatrix([r[:n] for _, r in basis], cols=n)).data
    return D, all(d[_pivot(d)] == 1 for d in D)


def _closure(n, walls, expand):
    """Every flat as (member bitmask, basis, direction), depth first: the
    walk that `_flats` and `_lines` share. Each member set comes exactly
    once, in no particular order.

    walls is the bottom flat's classes, one (key, bit) pair per wall, and
    each wall is a flat of its own. A flat is expanded when it is taken off
    the stack: expand(key, class bitmask, parent's basis, parent's classes)
    gives its basis, the row that cut it out of its parent, and its
    classes, one (key, wall bitmask) pair per cover, whose members are the
    flat's and the class's walls. A `seen` set of member sets makes each
    flat expanded once, from its first parent; children wait on the stack
    with their parent's classes, and a flat's classes are made only when it
    is taken off the stack, so only the flats along one path hold them.
    `_cut` takes the direction from the parent's with the row, and
    `_direction` from the basis where the cut does not apply (`_flats` has
    the proof)."""
    identity = tuple((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n))
    stack = [(bit, key, bit, [], walls, identity, True) for key, bit in reversed(walls)]
    seen = set()
    while stack:
        # the parent's direction and whether its pivots are 1, then G's
        members, key, ks, parent_basis, parent_classes, direction, unit = stack.pop()
        basis, row, classes = expand(key, ks, parent_basis, parent_classes)
        direction = _cut(direction, row) if unit else None
        if direction is None:
            direction, unit = _direction(basis, n)
        yield members, basis, direction
        for key, ks in reversed(classes):
            child = members | ks
            if child not in seen:
                seen.add(child)
                stack.append((child, key, ks, basis, classes, direction, unit))


def _flats(arr):
    """Every flat as (member bitmask, echelon basis of (pivot, row) pairs
    sorted by pivot, direction), from `_closure`, with the walls' residuals
    as the class keys. The rows are the walls' augmented rows (normal,
    offset), `_wall_row`, whose offset column stays 0 when the arrangement
    is central. The direction is the HNF rows of the flat's saturated
    direction lattice, `kernel_basis` of its normals.

    A flat F carries the residual classes of the walls that are neither its
    members nor parallel to it: the residual of a wall is the primitive,
    sign-normalised vector of span(wall, F's basis) that is zero on F's
    pivot columns, and walls with equal residuals are exactly the walls that
    contain the cover F ∩ H. A residual with zero normal part means the wall
    is parallel to F, and then to every flat inside F, so it is dropped.

    The first time a cover G = F ∩ H is reached, its new basis row is the
    class residual r at pivot q, and each of F's residuals res needs one
    fraction-free step to become G's: r_q res - res_q r, made primitive with
    its first nonzero entry positive (no division when its content is +-1).
    The result lies in span(wall, G's basis) and is zero on G's pivots, and
    that vector is unique up to scale
    because G's basis restricted to its pivot columns is triangular with a
    nonzero diagonal. Walls in one class of F stay in one class of G, so a
    class takes one step whatever its size.

    G's direction comes from F's in one elimination step, `_cut`. The
    direction lattice L of F is saturated, and L ∩ r^⊥ is G's: r lies in
    span(F's normals, H's normal) and outside the span of F's. Let D be the
    HNF rows of L with unit pivots (I_n above the single walls), s = D r,
    and i the last index with s_i != 0 (there is one, since r is not in the
    span of F's normals). When s_i = +-1, G's direction is D without row i,
    with each earlier row j replaced by D_j - s_j s_i D_i.
    - It spans L ∩ r^⊥: sum c_k D_k is orthogonal to r iff
      c_i = -s_i sum_{k != i} c_k s_k, and then it is
      sum_{k != i} c_k (D_k - s_k s_i D_i); rows after i have s_k = 0.
    - It is saturated, as L ∩ r^⊥ is a saturated lattice cut by a subspace.
    - It is an HNF with unit pivots: D_i is zero before its pivot p_i and at
      every other pivot column, so D_j - s_j s_i D_i keeps D_j's entries
      before p_i and at the other pivot columns, and p_i is a pivot no more.
    The HNF of a lattice is unique (Schrijver 1986, ch. 4), so this is
    exactly `kernel_basis` of G's normals. When s_i is not +-1, or D's
    pivots are not all 1, G falls back to `kernel_basis`, and its children
    start from that result again when its pivots are 1.
    """
    n = arr.n

    def expand(row, ks, parent_basis, parent_classes):
        a = next(filter(None, row))
        q = row.index(a)
        basis = parent_basis.copy()
        insort(basis, (q, row))
        if len(basis) == n:
            return basis, row, ()
        classes = {}
        for res, ks in parent_classes:
            # the class whose residual is the new row joined the members,
            # and a residual that is 0 at q is already G's
            if res is row:
                continue
            b = res[q]
            if b:
                v = [a * x - b * y for x, y in zip(res, row)]
                if not any(v[:n]):
                    continue
                res = canonical_primitive(v)
            classes[res] = classes.get(res, 0) | ks
        return basis, row, classes.items()

    walls = [(_wall_row(c.hyperplane), 1 << k) for k, c in enumerate(arr.components)]
    return _closure(n, walls, expand)


def _lines(arr):
    """The flats of a central arrangement, as `_flats(arr)` gives them,
    from `_closure` with the lines inside each wall as its class key. None
    unless the HNF of the normals' transpose has unit pivots and every
    circuit is a {0, +-1} vector. No two walls are parallel, since
    `ArrangementSpec` holds distinct canonical normals. A flat's basis
    holds one (wall, normal) pair per cover on its way from the bottom.
    `f_locus` has the proof."""
    normals = tuple(c.hyperplane.normal for c in arr.components)
    found = _Forms(IntMatrix._of(normals, arr.n)).circuits
    if found is None:
        return None
    # C_w: the lines inside wall w, bit l when circuit l is 0 at w
    on = [0] * len(normals)
    for l, c in enumerate(found):
        for w, x in enumerate(c):
            if not x:
                on[w] |= 1 << l

    def expand(sigma, ks, parent_basis, parent_classes):
        k = (ks & -ks).bit_length() - 1
        row = normals[k]
        classes = {}
        for key, ks in parent_classes:
            # only G's own class keeps all of sigma
            key &= sigma
            if key != sigma:
                classes[key] = classes.get(key, 0) | ks
        return parent_basis + [(k, row)], row, classes.items()

    return _closure(arr.n, [(c, 1 << w) for w, c in enumerate(on)], expand)


def _point_of(basis, n):
    """The point of a flat with free coordinates 0, by back-substitution in
    its echelon basis (each row is zero before its pivot), in integers over
    one common denominator."""
    x, d = [0] * n, 1
    for p, row in reversed(basis):
        num = row[n] * d - sum(row[j] * x[j] for j in range(p + 1, n))
        a = row[p]
        if a != 1:
            x = [a * v for v in x]
            d *= a
        x[p] = num
    return tuple(Fraction(v, d) for v in x)


class FlatDescriptor(NamedTuple):
    """A multi-incidence flat: the common intersection of >= 2 walls."""

    members: frozenset
    direction: IntMatrix
    point: tuple
    codimension: int

    def sorted_members(self):
        return tuple(sorted(self.members))


class FlatList(list):
    """List of FlatDescriptor. `f_locus` is complete for any number of walls,
    so `truncated` is always False; it is kept only because the benchmark's
    span counters in perfbench/spans.py read it."""

    truncated = False


def f_locus(arr: ArrangementSpec) -> FlatList:
    """All flats spanned by >= 2 distinct walls, with exact codimension,
    sorted by member set. Point is the particular solution of the flat's
    equations with free coordinates zero; direction is the HNF-canonical
    basis of the saturated direction lattice. A central arrangement is
    closed from its lines when `_lines` can read them, and every other one
    by `_flats`; both walks give the same member sets, and the direction of
    each is the unique HNF, so the list does not depend on the walk.

    The line closure. Let E be the k x n matrix of the normals, of rank r.
    A flat is known by its members, the walls that contain it; the member
    sets are the closed sets of the matroid of E's rows, from the whole
    space (no member) to the center (every wall, codimension r).
    - Lines are circuits. Call a flat of codimension r - 1 a line (a line
      through 0 when r = n). For x in a line and not in the center, E x is
      0 exactly on the line's members and has minimal support among the
      nonzero vectors of E's column space, and the zero set of each such
      vector is the member set of a line. So the lines are the circuits of
      E's column lattice up to sign, which `_Forms(E).circuits` lists
      when E^T's HNF has unit pivots and every circuit is a {0, +-1}
      vector; otherwise it gives None and `_flats` walks.
    - The lattice is coatomistic: a closed set of a matroid is the
      intersection of the hyperplanes that contain it. So a flat F is the
      span of the lines inside it and is known by their bitmask sigma_F;
      a wall w carries C_w, the lines inside it (the circuits that are 0
      at w). The whole space has every line and the center none.
    - Covers: for a wall w that is not a member of F, the cover
      G = F ∩ H_w holds the lines inside both, sigma_G = C_w & sigma_F.
      A flat is known by its sigma, so two such walls give the same cover
      iff they have the same key C_w & sigma_F: F's other walls grouped by
      key are its covers, one class each. A class's walls are what G adds
      to F's members, and its key is sigma_G. The empty key means that no
      line lies in G: G is the center, the top flat, every wall is a
      member and it has no covers.
    - Keys carry down: C_w & sigma_G = (C_w & sigma_F) & sigma_G, so F's
      classes become G's by one AND with sigma_G each, and a class of F
      stays in one class of G, where `_flats` takes a fraction-free vector
      step. Two walls with the same lines inside are parallel, and the
      distinct canonical normals of a central `ArrangementSpec` are not, so
      no two C_w are equal: every flat of the walk holds all the walls that
      contain it, and the only class whose key keeps all of sigma_G is
      G's own, which joined the members.
    - Directions: G's is F's cut by the normal of any wall of its class
      (`_cut`). That normal lies in the span of F's normals and H_w's and
      outside the span of F's, which is all that the proof in `_flats` asks
      of the row. The basis along the walk holds those normals, one per
      cover, so its length is G's codimension and `kernel_basis` of it is
      the fallback.
    """
    n = arr.n
    central = not any(c.hyperplane.offset for c in arr.components)
    origin = (ZERO,) * n
    found = []
    walk = _lines(arr) if central else None
    if walk is None:
        walk = _flats(arr)
    for members, basis, direction in walk:
        if len(basis) < 2:
            continue
        members = tuple(_bits(members))
        point = origin if central or not any(r[n] for _, r in basis) else _point_of(basis, n)
        flat = FlatDescriptor(frozenset(members), IntMatrix._of(direction, n), point, len(basis))
        found.append((members, flat))
    found.sort(key=itemgetter(0))
    return FlatList(map(itemgetter(1), found))


class SimplicityReport(NamedTuple):
    """The two affine-slice conditions: (a) no n+1 walls meet, and (b) the
    normals of every meeting subset extend to a Z-basis."""

    no_excess_intersections: bool
    normals_extend_to_basis: bool

    @property
    def simple(self):
        return self.no_excess_intersections and self.normals_extend_to_basis


def check_simplicity(arr: ArrangementSpec) -> SimplicityReport:
    """Conditions (a) and (b), decided from the circuits; the flats are read
    only to decide (a) for a slice that is not simple.

    Lemma (Bielawski and Dancer 2000; Hausel and Sturmfels, Doc. Math.
    2002). Let the walls be <b_i, eta> = lambda_i, with normals of any rank
    r. The slice is simple iff every wall has multiplicity 1, the HNF of the
    normals' transpose has unit pivots, every circuit c of the normals'
    dependencies is a {0, +-1} vector, and <c, lambda> != 0 for each. Unit
    pivots make the HNF's nonzero rows E = [I | R] up to column order: the
    normals' lattice L is saturated, and E holds each normal's coordinates
    in the basis of pivot normals. So r independent normals extend to a
    Z-basis iff they span L, iff their minor of E is +-1, and fewer extend
    when r such contain them.
    - (if) The circuits are {0, +-1}, so every maximal minor of E is in
      {0, +-1} (`intmat._Forms.unimodular`). Walls S that meet at eta have
      independent normals: a circuit c with support in S would give
      <c, lambda> = sum_i c_i <b_i, eta> = <sum_i c_i b_i, eta> = 0. So at
      most r <= n walls meet, which is (a), and S lies in r independent
      normals, whose minor is nonzero, so +-1, which is (b).
    - (only if) Independent walls always meet, since independent affine
      equations have a rational solution, so each failure below is a
      violation of (b). A wall of multiplicity >= 2 is coincident
      hyperplanes. A pivot d > 1 is a pivot of the pivot normals' own HNF,
      so they do not extend to a Z-basis. A circuit entry outside {0, +-1}
      means a maximal minor of E outside {0, +-1}, whose r normals do not
      extend. Finally let <c, lambda> = 0 and k in supp c. The walls of
      supp c without k are independent, so they meet; at any point eta
      they share, c_k <b_k, eta> = -sum_{i != k} c_i lambda_i =
      c_k lambda_k, so wall k passes through it too, and the walls of
      supp c, whose normals are dependent, meet.
    One HNF of the normals' transpose, their `_Forms`, gives the pivots and
    the kernel rows, and `dependency_circuits` enumerates the circuits from
    them, or gives None at the first entry outside {-1, 0, 1}.

    On a refusal (b) fails, by the "only if" half. (a) fails iff some flat
    of `f_locus` holds n + 1 walls, since walls that meet lie in a common
    flat, their intersection.
    """
    n = arr.n
    comps = arr.components
    normals = tuple(c.hyperplane.normal for c in comps)
    # one HNF of the normals' transpose: their rank r, and [I | R] up to
    # column order when its pivots are 1
    forms = _Forms(IntMatrix._of(normals, n))
    if forms.unit and all(c.multiplicity == 1 for c in comps):
        circuits = forms.dependency_circuits()
        if circuits is not None:
            # <c, lambda> over the offsets' common denominator, in integers
            offsets = [c.hyperplane.offset for c in comps]
            scale = lcm(*(f.denominator for f in offsets))
            lam = [scale // f.denominator * f.numerator for f in offsets]
            if all(sum(map(mul, c, lam)) for c in circuits):
                return SimplicityReport(True, True)
    return SimplicityReport(all(len(f.members) <= n for f in f_locus(arr)), False)
