"""Subset-scan oracles for the flat engine in hkit.arrangement.

These are the exhaustive enumerations that `f_locus` and `check_simplicity`
used before the intersection-lattice engine: every subset of walls is solved
on its own with Fraction elimination. They are exponential in the number of
walls and serve only as test references.
"""

import itertools
from fractions import Fraction

from hkit.arrangement import FlatDescriptor, SimplicityReport, _solve_affine
from hkit.intmat import IntMatrix, kernel_basis, rank, smith_normal_form


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
