"""Discriminant hyperplane arrangements: grouping parallel walls with
multiplicities, stabilizer ranks at points, multi-incidence flats, and the
simplicity conditions for affine slices.

Arrangements are central (all offsets 0) for the discriminant of a matrix B,
or affine for slices of a deformation family. All arithmetic is exact
(int normals, Fraction offsets); parallel walls are detected up to sign.

Flats come from one engine that closes the intersection lattice cover by
cover (Orlik and Terao, Arrangements of Hyperplanes, ch. 2), so the F-locus
is complete for any number of walls and the simplicity conditions are read
off the flats instead of scanning wall subsets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import combinations

from .errors import DimensionMismatch, NonPrimitiveRow
from .intmat import (
    IntMatrix,
    canonical_primitive,
    canonical_sign,
    is_primitive,
    kernel_basis,
    rank,
    smith_normal_form,
)


class Kind(Enum):
    FIRST_KIND = "first"
    SECOND_KIND = "second"


@dataclass(frozen=True, order=True)
class Hyperplane:
    """The affine hyperplane <normal, eta> = offset, in canonical form:
    normal primitive with positive leading entry (offset flips with it)."""

    normal: tuple
    offset: Fraction = Fraction(0)

    @classmethod
    def canonical(cls, normal, offset=Fraction(0)):
        normal = tuple(int(x) for x in normal)
        if not is_primitive(normal):
            raise ValueError(f"normal {list(normal)} is not primitive")
        offset = Fraction(offset)
        flipped = canonical_sign(normal)
        if flipped != normal:
            offset = -offset
        return cls(normal=flipped, offset=offset)

    def contains(self, point):
        if len(point) != len(self.normal):
            raise DimensionMismatch(
                f"point has dimension {len(point)}, hyperplane {len(self.normal)}"
            )
        return sum(Fraction(x) * b for x, b in zip(point, self.normal)) == self.offset


@dataclass(frozen=True)
class ArrangementComponent:
    hyperplane: Hyperplane
    multiplicity: int
    kind: Kind


@dataclass(frozen=True)
class ArrangementSpec:
    """Distinct hyperplanes with multiplicities, sorted canonically."""

    n: int
    components: tuple

    def __post_init__(self):
        seen = set()
        for comp in self.components:
            if comp.multiplicity < 1:
                raise ValueError("multiplicity below 1")
            if len(comp.hyperplane.normal) != self.n:
                raise DimensionMismatch("component dimension differs from ambient n")
            if comp.hyperplane in seen:
                raise ValueError(f"duplicate hyperplane {comp.hyperplane}")
            seen.add(comp.hyperplane)

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


def group_hyperplanes(n, pairs):
    """Build an ArrangementSpec from (normal, offset) pairs.

    Pairs with equal canonical hyperplane are merged into one component whose
    multiplicity is the group size. Kind is multiplicity >= 2 -> first kind.
    """
    counts = {}
    for normal, offset in pairs:
        h = Hyperplane.canonical(normal, offset)
        counts[h] = counts.get(h, 0) + 1
    comps = tuple(
        ArrangementComponent(h, m, _kind_from_multiplicity(m))
        for h, m in sorted(counts.items())
    )
    return ArrangementSpec(n=n, components=comps)


def build_discriminant(B: IntMatrix) -> ArrangementSpec:
    """Central discriminant arrangement of B: one wall per parallel class of
    rows (up to sign), multiplicity = class size."""
    for i in range(B.rows):
        if not is_primitive(B.row(i)):
            raise NonPrimitiveRow(i, B.row(i))
    return group_hyperplanes(B.cols, ((B.row(i), Fraction(0)) for i in range(B.rows)))


def stabilizer_rank(arr: ArrangementSpec, eta):
    """Rank of the lattice spanned by the normals of walls through eta.

    Each wall counts once regardless of multiplicity; the incident normals are
    returned in component order.
    """
    eta = tuple(Fraction(x) for x in eta)
    if len(eta) != arr.n:
        raise DimensionMismatch(f"point dimension {len(eta)} != ambient {arr.n}")
    incident = [c.hyperplane.normal for c in arr.components if c.hyperplane.contains(eta)]
    if not incident:
        return 0, []
    return rank(IntMatrix(incident, cols=arr.n)), incident


# -- exact affine solving ------------------------------------------------------


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


def _wall_row(h):
    """Integer augmented row (normal, offset) of <normal, eta> = offset."""
    d = h.offset.denominator
    return tuple(d * b for b in h.normal) + (h.offset.numerator,)


def _pivot(row):
    return next(j for j, x in enumerate(row) if x)


def _residual(v, basis):
    """Fraction-free reduction of v against an echelon basis of (pivot, row)
    pairs sorted by pivot; primitive, first nonzero entry positive."""
    for p, row in basis:
        if v[p]:
            a, b = row[p], v[p]
            v = [a * x - b * y for x, y in zip(v, row)]
    return canonical_primitive(v)


def _flat_lattice(arr):
    """Every flat with >= 2 members, as (members, echelon basis) pairs.

    Closes the intersection lattice level by level from the single walls.
    For a flat F each non-member wall is reduced once against F's augmented
    echelon basis. A residual with zero normal part means the wall is parallel
    to F. Otherwise walls with equal residuals are exactly the walls that
    contain the cover F ∩ H, so each residual class gives one cover, and
    covers are deduplicated by member set. The basis of a codimension-c flat
    has c rows, all with pivots among the normal columns.
    """
    n = arr.n
    rows = [_wall_row(c.hyperplane) for c in arr.components]
    level = {frozenset([i]): [(_pivot(r), r)] for i, r in enumerate(rows)}
    flats = []
    while level:
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
        flats.extend(covers.items())
        level = covers
    return flats


@dataclass(frozen=True)
class FlatDescriptor:
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
    basis of the saturated direction lattice."""
    n = arr.n
    result = FlatList()
    for members, basis in _flat_lattice(arr):
        normals = [r[:n] for _, r in basis]
        _, point, _ = _solve_affine(normals, [r[n] for _, r in basis], n)
        result.append(
            FlatDescriptor(
                members=members,
                direction=kernel_basis(IntMatrix(normals, cols=n)),
                point=point,
                codimension=len(basis),
            )
        )
    result.sort(key=lambda f: f.sorted_members())
    return result


@dataclass(frozen=True)
class SimplicityReport:
    """The two affine-slice conditions: (a) no n+1 walls meet, and (b) the
    normals of every meeting subset extend to a Z-basis."""

    no_excess_intersections: bool
    normals_extend_to_basis: bool
    violations_a: tuple = field(default_factory=tuple)
    violations_b: tuple = field(default_factory=tuple)

    @property
    def simple(self):
        return self.no_excess_intersections and self.normals_extend_to_basis


def _extends_to_basis(normals, n):
    snf = smith_normal_form(IntMatrix(normals, cols=n))
    return snf.torsion_free and len(snf.invariant_factors) == len(normals)


def check_simplicity(arr: ArrangementSpec) -> SimplicityReport:
    """Conditions (a) and (b) read off the flats.

    Walls meet iff they are members of a common flat. A subset of normals
    that extend to a Z-basis extends too, so (b) only tests the subsets of
    flats whose whole member set fails; a subset larger than the flat's
    codimension is linearly dependent and fails without a test. Single walls
    have primitive normals and always pass.
    """
    n = arr.n
    normals = [c.hyperplane.normal for c in arr.components]
    violations_a, violations_b = set(), set()
    for members, basis in _flat_lattice(arr):
        members = sorted(members)
        violations_a.update(combinations(members, n + 1))
        if _extends_to_basis([normals[i] for i in members], n):
            continue
        for k in range(2, len(members) + 1):
            violations_b.update(
                s
                for s in combinations(members, k)
                if k > len(basis) or not _extends_to_basis([normals[i] for i in s], n)
            )
    return SimplicityReport(
        no_excess_intersections=not violations_a,
        normals_extend_to_basis=not violations_b,
        violations_a=tuple(sorted(violations_a)),
        violations_b=tuple(sorted(violations_b, key=lambda s: (len(s), s))),
    )


# -- deterministic generic sampling --------------------------------------------


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
