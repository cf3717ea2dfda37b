import itertools
import random
from fractions import Fraction

import pytest

from hkit.arrangement import (
    ArrangementSpec,
    Hyperplane,
    Kind,
    _extends_to_basis,
    build_discriminant,
    check_simplicity,
    f_locus,
    group_hyperplanes,
    stabilizer_rank,
)
from hkit.errors import DimensionMismatch, NonPrimitiveRow
from hkit.intmat import IntMatrix, _Forms, canonical_primitive, canonical_sign, det, is_primitive, rank
from oracles import generic_point_off, generic_point_on, smith_normal_form_by_closures


def walls(arr):
    return {
        (c.hyperplane.normal, c.hyperplane.offset, c.multiplicity, c.kind)
        for c in arr.components
    }


def probe_discriminant(B):
    """Independent oracle for the central discriminant: for each candidate
    direction, sample a generic point on that wall and off the others, then
    count the rows of B vanishing there. Checks stabilizer rank 1 as it goes.
    """
    n = B.cols
    candidates = sorted({canonical_primitive(B.row(i)) for i in range(B.rows)})
    reference = group_hyperplanes(n, ((c, Fraction(0)) for c in candidates))
    built = build_discriminant(B)
    out = {}
    for idx, cand in enumerate(candidates):
        if len(candidates) == 1 and n == 1:
            eta = (Fraction(0),)
        else:
            eta = generic_point_on(reference, idx)
        r, normals = stabilizer_rank(built, eta)
        assert r == 1, (B, cand, eta)
        assert normals == [cand]
        mult = sum(
            1
            for i in range(B.rows)
            if sum(b * x for b, x in zip(B.row(i), eta)) == 0
        )
        out[cand] = mult
    return out


class TestHyperplane:
    def test_canonical_flips_offset_with_normal(self):
        h = Hyperplane.canonical((-1, 2), Fraction(3))
        assert h.normal == (1, -2)
        assert h.offset == Fraction(-3)

    def test_rejects_non_primitive(self):
        with pytest.raises(ValueError):
            Hyperplane.canonical((2, 4))

    @pytest.mark.parametrize("normal", [(1.5, True), (1, 1.0), (True, 0)])
    def test_rejects_normals_that_are_not_int(self, normal):
        with pytest.raises(ValueError):
            Hyperplane.canonical(normal)

    @pytest.mark.parametrize("offset", [0.5, 0.1, -2.0])
    def test_rejects_float_offsets(self, offset):
        # Fraction(0.1) would be 3602879701896397/36028797018963968
        with pytest.raises(ValueError, match="^offset must be exact"):
            Hyperplane.canonical((1, 0), offset)

    def test_contains(self):
        h = Hyperplane.canonical((1, 1), Fraction(2))
        assert h.contains((Fraction(1), Fraction(1)))
        assert not h.contains((Fraction(0), Fraction(0)))
        with pytest.raises(DimensionMismatch):
            Hyperplane((1, 0)).contains((0,))

    @pytest.mark.parametrize("point", [(0.1, 0.2), (1, 1.0), (True, 0)], ids=["floats", "float", "bool"])
    def test_contains_refuses_inexact_points(self, point):
        # Fraction(0.1) + Fraction(0.2) != Fraction(3, 10)
        with pytest.raises(ValueError, match="^point must"):
            Hyperplane.canonical((1, 1), Fraction(3, 10)).contains(point)

    def test_contains_takes_strings(self):
        assert Hyperplane.canonical((1, 1), Fraction(3, 10)).contains(("1/10", "1/5"))


class TestBuildDiscriminant:
    def test_triple_wall(self):
        arr = build_discriminant(IntMatrix([[1], [1], [1]]))
        assert walls(arr) == {((1,), Fraction(0), 3, Kind.FIRST_KIND)}

    def test_identity_two(self):
        arr = build_discriminant(IntMatrix.identity(2))
        assert walls(arr) == {
            ((1, 0), Fraction(0), 1, Kind.SECOND_KIND),
            ((0, 1), Fraction(0), 1, Kind.SECOND_KIND),
        }

    def test_mixed(self):
        arr = build_discriminant(IntMatrix([[1, 0], [1, 0], [0, 1], [1, 1]]))
        assert walls(arr) == {
            ((1, 0), Fraction(0), 2, Kind.FIRST_KIND),
            ((0, 1), Fraction(0), 1, Kind.SECOND_KIND),
            ((1, 1), Fraction(0), 1, Kind.SECOND_KIND),
        }

    def test_sign_opposite_rows_are_parallel(self):
        arr = build_discriminant(IntMatrix([[1, -1], [-1, 1]]))
        assert walls(arr) == {((1, -1), Fraction(0), 2, Kind.FIRST_KIND)}

    def test_non_primitive_row(self):
        with pytest.raises(NonPrimitiveRow) as err:
            build_discriminant(IntMatrix([[1, 0], [0, 2]]))
        assert err.value.index == 1

    def test_invariance_under_row_permutation_and_sign_flips(self):
        rng = random.Random(31)
        for _ in range(50):
            n = rng.randint(1, 3)
            N = rng.randint(1, 5)
            rows = []
            while len(rows) < N:
                v = tuple(rng.randint(-2, 2) for _ in range(n))
                if v != (0,) * n:
                    rows.append(canonical_primitive(v))
            B = IntMatrix(rows, cols=n)
            perm = list(range(N))
            rng.shuffle(perm)
            flipped = [
                tuple(-x for x in rows[p]) if rng.random() < 0.5 else rows[p]
                for p in perm
            ]
            assert build_discriminant(IntMatrix(flipped, cols=n)) == build_discriminant(B)

    def test_gl_equivariance(self):
        rng = random.Random(37)
        unimods = [
            IntMatrix([[1, 1], [0, 1]]),
            IntMatrix([[0, 1], [1, 0]]),
            IntMatrix([[1, 0], [2, 1]]),
            IntMatrix([[2, 1], [1, 1]]),
        ]
        for U in unimods:
            assert abs(det(U)) == 1
        for _ in range(30):
            rows = []
            for _ in range(rng.randint(1, 5)):
                v = (0, 0)
                while v == (0, 0):
                    v = (rng.randint(-2, 2), rng.randint(-2, 2))
                rows.append(canonical_primitive(v))
            B = IntMatrix(rows, cols=2)
            U = rng.choice(unimods)
            BU = B @ U
            transformed = build_discriminant(BU)
            expected = {}
            for c in build_discriminant(B).components:
                img = canonical_primitive(U.transpose().mat_vec(c.hyperplane.normal))
                expected[img] = expected.get(img, 0) + c.multiplicity
            got = {
                c.hyperplane.normal: c.multiplicity for c in transformed.components
            }
            assert got == expected


class TestStabilizerRank:
    def test_generic_point_rank_zero(self):
        arr = build_discriminant(IntMatrix([[1, 0], [0, 1], [1, 1]]))
        eta = generic_point_off(arr)
        assert stabilizer_rank(arr, eta) == (0, [])

    def test_single_incidence(self):
        arr = build_discriminant(IntMatrix.identity(2))
        r, normals = stabilizer_rank(arr, (Fraction(0), Fraction(7)))
        assert r == 1
        assert normals == [(1, 0)]

    def test_origin_gets_full_rank(self):
        rng = random.Random(41)
        for _ in range(25):
            n = rng.randint(1, 3)
            rows = []
            for _ in range(rng.randint(1, 5)):
                v = (0,) * n
                while v == (0,) * n:
                    v = tuple(rng.randint(-2, 2) for _ in range(n))
                rows.append(canonical_primitive(v))
            B = IntMatrix(rows, cols=n)
            arr = build_discriminant(B)
            r, normals = stabilizer_rank(arr, (Fraction(0),) * n)
            assert r == rank(IntMatrix(rows, cols=n))
            assert len(normals) == len(arr.components)

    @pytest.mark.parametrize("eta", [(0.0, 7), (0, 0.5), (False, 7)], ids=["zero", "half", "bool"])
    def test_refuses_inexact_points(self, eta):
        arr = build_discriminant(IntMatrix.identity(2))
        with pytest.raises(ValueError, match="^eta must"):
            stabilizer_rank(arr, eta)

    def test_dimension_mismatch(self):
        arr = build_discriminant(IntMatrix.identity(2))
        with pytest.raises(DimensionMismatch):
            stabilizer_rank(arr, (Fraction(1),))

    def test_multiplicity_does_not_inflate_rank(self):
        arr = build_discriminant(IntMatrix([[1, 0], [1, 0], [1, 0]]))
        r, normals = stabilizer_rank(arr, (Fraction(0), Fraction(5)))
        assert r == 1
        assert normals == [(1, 0)]


class TestProbeOracle:
    def test_matches_build_discriminant(self):
        rng = random.Random(43)
        for _ in range(40):
            n = rng.randint(1, 3)
            rows = []
            for _ in range(rng.randint(1, 6)):
                v = (0,) * n
                while v == (0,) * n:
                    v = tuple(rng.randint(-2, 2) for _ in range(n))
                rows.append(canonical_primitive(v))
            B = IntMatrix(rows, cols=n)
            probed = probe_discriminant(B)
            built = {
                c.hyperplane.normal: c.multiplicity
                for c in build_discriminant(B).components
            }
            assert probed == built


class TestFLocus:
    def test_two_axes_meet_at_origin(self):
        arr = build_discriminant(IntMatrix.identity(2))
        flats = f_locus(arr)
        assert len(flats) == 1
        assert flats[0].sorted_members() == (0, 1)
        assert flats[0].codimension == 2
        assert flats[0].point == (Fraction(0), Fraction(0))
        assert not flats.truncated

    def test_single_wall_empty(self):
        arr = build_discriminant(IntMatrix([[1, 0]]))
        assert list(f_locus(arr)) == []

    def test_three_walls_share_origin(self):
        arr = build_discriminant(IntMatrix([[1, 0], [0, 1], [1, 1]]))
        flats = f_locus(arr)
        assert len(flats) == 1
        assert flats[0].sorted_members() == (0, 1, 2)
        assert flats[0].codimension == 2

    def test_affine_pairwise_points(self):
        # three lines in general position: three pairwise intersection points
        arr = group_hyperplanes(
            2,
            [
                ((1, 0), Fraction(0)),
                ((0, 1), Fraction(0)),
                ((1, 1), Fraction(1)),
            ],
        )
        flats = f_locus(arr)
        assert len(flats) == 3
        for flat in flats:
            assert flat.codimension == 2
            assert len(flat.members) == 2

    def test_incidence_closure(self):
        rng = random.Random(47)
        for _ in range(25):
            n = rng.randint(2, 3)
            pairs = []
            for _ in range(rng.randint(2, 5)):
                v = (0,) * n
                while v == (0,) * n:
                    v = tuple(rng.randint(-2, 2) for _ in range(n))
                pairs.append((canonical_primitive(v), Fraction(rng.randint(-1, 1))))
            try:
                arr = group_hyperplanes(n, pairs)
            except ValueError:
                continue
            for flat in f_locus(arr):
                for i in flat.members:
                    assert arr.components[i].hyperplane.contains(flat.point)
                for i in set(range(len(arr.components))) - flat.members:
                    comp = arr.components[i]
                    on_flat = comp.hyperplane.contains(flat.point) and all(
                        sum(
                            b * v
                            for b, v in zip(comp.hyperplane.normal, flat.direction.row(r))
                        )
                        == 0
                        for r in range(flat.direction.rows)
                    )
                    assert not on_flat

    def test_central_pairwise_flats_codim_two(self):
        arr = build_discriminant(IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
        flats = f_locus(arr)
        # axes planes: three pairwise lines (codim 2) and the origin (codim 3)
        codims = sorted(f.codimension for f in flats)
        assert codims == [2, 2, 2, 3]

    def test_pencil_of_thirteen_lines_is_one_flat(self):
        pairs = [((1, k), Fraction(0)) for k in range(13)]
        arr = group_hyperplanes(2, pairs)
        flats = f_locus(arr)
        assert not flats.truncated
        assert len(flats) == 1
        assert flats[0].sorted_members() == tuple(range(13))
        assert flats[0].codimension == 2


class TestSimplicity:
    def test_pencil_of_thirteen_lines_lists_every_violation(self):
        # every 3 of the 13 lines meet; every subset of >= 3 normals is
        # dependent, and 66 of the 78 pairs span an index > 1 sublattice
        pairs = [((1, k), Fraction(0)) for k in range(13)]
        rep = check_simplicity(group_hyperplanes(2, pairs))
        assert len(rep.violations_a) == 286
        assert len(rep.violations_b) == 8166

    def test_parallel_distinct_points(self):
        arr = group_hyperplanes(1, [((1,), Fraction(0)), ((1,), Fraction(1))])
        rep = check_simplicity(arr)
        assert rep.no_excess_intersections
        assert rep.normals_extend_to_basis
        assert rep.simple

    def test_duplicate_hyperplane_rejected_upstream(self):
        with pytest.raises(ValueError):
            ArrangementSpec(
                n=1,
                components=(
                    build_discriminant(IntMatrix([[1]])).components[0],
                    build_discriminant(IntMatrix([[1]])).components[0],
                ),
            )

    def test_three_concurrent_lines_fail(self):
        arr = group_hyperplanes(
            2,
            [
                ((1, 0), Fraction(0)),
                ((0, 1), Fraction(0)),
                ((1, 1), Fraction(0)),
            ],
        )
        rep = check_simplicity(arr)
        assert not rep.no_excess_intersections
        assert rep.violations_a == ((0, 1, 2),)

    def test_non_saturated_pair_fails_basis_condition(self):
        # normals (1,1,0) and (1,-1,0) meet, but only span an index-2 sublattice
        arr = group_hyperplanes(
            3,
            [
                ((1, 1, 0), Fraction(0)),
                ((1, -1, 0), Fraction(1)),
            ],
        )
        rep = check_simplicity(arr)
        assert rep.no_excess_intersections
        assert not rep.normals_extend_to_basis
        assert rep.violations_b == ((0, 1),)

    def test_extends_to_basis_against_invariant_factors(self):
        # k primitive normals extend to a Z-basis iff the k x n matrix they
        # form has k invariant factors, all 1.
        rng = random.Random(47)
        verdicts = set()
        for _ in range(5000):
            n = rng.randint(1, 4)
            k = rng.randint(1, n + 1)
            normals = []
            while len(normals) < k:
                v = tuple(rng.randint(-3, 3) for _ in range(n))
                if is_primitive(v):
                    normals.append(v)
            snf = smith_normal_form_by_closures(IntMatrix(normals, cols=n))
            expected = snf.torsion_free and len(snf.invariant_factors) == k
            assert _extends_to_basis(normals) == expected, normals
            verdicts.add(expected)
        assert verdicts == {True, False}


class TestCircuits:
    """`_Forms(B).circuits`, one per sign pair, against the lines of the
    discriminant."""

    def test_single_column(self):
        assert [canonical_sign(c) for c in _Forms(IntMatrix([[1], [1], [-1]])).circuits] == [(1, 1, -1)]

    def test_plane_lines_are_walls(self):
        # n = 2: each wall is a line; parallel rows share one circuit
        got = [canonical_sign(c) for c in _Forms(IntMatrix([[1, 0], [0, 1], [1, 1], [1, 0]])).circuits]
        assert sorted(got) == [(0, 1, 1, 0), (1, -1, 0, 1), (1, 0, 1, 1)]

    def test_not_unimodular(self):
        # a pivot of 2, and unit pivots with an entry 2 in R
        for rows in ([[1, 1], [1, -1]], [[1, 0], [0, 1], [1, 2]]):
            assert _Forms(IntMatrix(rows)).circuits is None

    def test_minimal_supports(self):
        B = IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [0, 1, 1]])
        got = _Forms(B).circuits
        supports = [frozenset(i for i, x in enumerate(c) if x) for c in got]
        assert len(set(supports)) == len(got)
        assert not any(s < t for s in supports for t in supports)
        # every circuit vanishes on n - 1 = 2 independent rows
        for c in got:
            zero_rows = [B.row(i) for i, x in enumerate(c) if not x]
            assert rank(IntMatrix(zero_rows, cols=3)) == 2


class TestGenericPoints:
    def test_off_point_avoids_all(self):
        arr = build_discriminant(IntMatrix([[1, 0], [0, 1], [1, 1], [1, -1]]))
        eta = generic_point_off(arr)
        for c in arr.components:
            assert not c.hyperplane.contains(eta)

    def test_on_point_hits_exactly_one(self):
        arr = build_discriminant(IntMatrix([[1, 0], [0, 1], [1, 1], [1, -1]]))
        for idx in range(len(arr.components)):
            eta = generic_point_on(arr, idx)
            hits = [
                i
                for i, c in enumerate(arr.components)
                if c.hyperplane.contains(eta)
            ]
            assert hits == [idx]

    def test_determinism(self):
        arr = build_discriminant(IntMatrix([[1, 0], [0, 1], [1, 1]]))
        assert generic_point_off(arr) == generic_point_off(arr)
        assert generic_point_on(arr, 1) == generic_point_on(arr, 1)
