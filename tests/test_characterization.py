import random

import pytest

from hkit import arrangement, characterization
from hkit.arrangement import build_discriminant
from hkit.characterization import (
    HYPERTORIC,
    REJECTED,
    SMOOTH,
    CaseTag,
    DivisorData,
    classify_case,
    reconstruct_B,
    round_trip,
)
from hkit.errors import CaseRejected, NonPrimitiveRow
from hkit.intmat import IntMatrix, canonical_primitive, check_primitive_rows, det, is_unimodular


class TestDivisorData:
    def test_canonicalizes_and_sorts(self):
        d = DivisorData.make(2, [((0, -1), 1), ((-1, 0), 2)])
        assert d.entries == (((0, 1), 1), ((1, 0), 2))

    def test_rejects_parallel_walls(self):
        with pytest.raises(ValueError):
            DivisorData.make(2, [((1, 0), 1), ((-1, 0), 1)])

    def test_rejects_non_primitive(self):
        with pytest.raises(NonPrimitiveRow):
            DivisorData.make(1, [((2,), 1)])

    def test_rejects_bad_multiplicity(self):
        with pytest.raises(ValueError):
            DivisorData.make(1, [((1,), 0)])

    def test_rejects_a_wall_of_the_wrong_dimension(self):
        with pytest.raises(ValueError, match="^wall 0 has dimension 3, expected 2$"):
            DivisorData.make(2, [((1, 0, 0), 1)])

    @pytest.mark.parametrize(
        "walls",
        [[((1.9,), 2)], [((1,), 2.5)], [((1,), 2.0)], [((True,), 1)], [((1,), True)]],
    )
    def test_rejects_values_that_are_not_int(self, walls):
        # truncation would read [((1.9,), 2.5)] as the wall (1,) of multiplicity 2
        with pytest.raises(ValueError):
            DivisorData.make(1, walls)

    @pytest.mark.parametrize("n", [-1, True, 1.0])
    def test_rejects_n_that_is_not_a_nonnegative_int(self, n):
        # refused where it is read, not later by reconstruct_B's IntMatrix
        with pytest.raises(ValueError, match="^n must be a nonnegative int"):
            DivisorData.make(n, [])

    def test_accepts_a_single_pass_iterable(self):
        d = DivisorData.make(2, iter([((0, -1), 1), ((-1, 0), 2)]))
        assert d.entries == (((0, 1), 1), ((1, 0), 2))


class TestReconstruct:
    def test_single_wall_multiplicity_two(self):
        d = DivisorData.make(1, [((1,), 2)])
        assert reconstruct_B(d) == IntMatrix([[1], [1]])

    def test_two_simple_walls(self):
        d = DivisorData.make(2, [((1, 0), 1), ((0, 1), 1)])
        assert reconstruct_B(d) == IntMatrix([[0, 1], [1, 0]])

    def test_mixed_stack(self):
        d = DivisorData.make(2, [((1, 0), 2), ((0, 1), 1), ((1, 1), 1)])
        B = reconstruct_B(d)
        assert B.rows == 4
        # sorted normals with repeats adjacent
        assert B.row_list() == [[0, 1], [1, 0], [1, 0], [1, 1]]


class TestClassify:
    def test_identity_smooth(self):
        tag = classify_case(IntMatrix.identity(3))
        assert tag.case == SMOOTH
        assert tag.unimodular and tag.coker_torsion_free

    def test_two_equal_rows_hypertoric(self):
        tag = classify_case(IntMatrix([[1], [1]]))
        assert tag.case == HYPERTORIC
        assert tag.condition_star

    def test_rank_deficient_rejected(self):
        tag = classify_case(IntMatrix([[1, 0], [1, 0]]))
        assert tag.case == REJECTED
        assert "not injective" in tag.reason

    def test_non_primitive_raises(self):
        with pytest.raises(NonPrimitiveRow):
            classify_case(IntMatrix([[2, 0], [0, 1]]))

    def test_torsion_flag(self):
        tag = classify_case(IntMatrix([[1, 0], [1, 2], [1, -2]]))
        assert tag.case == HYPERTORIC
        assert not tag.coker_torsion_free
        assert not tag.unimodular

    def test_square_non_unimodular_flag(self):
        tag = classify_case(IntMatrix([[1, 1], [1, -1]]))
        assert tag.case == HYPERTORIC
        assert not tag.unimodular
        assert not tag.condition_star


class TestRoundTrip:
    def test_a2_pipeline(self):
        d = DivisorData.make(1, [((1,), 3)])
        rep = round_trip(d)
        assert rep.B == IntMatrix([[1], [1], [1]])
        assert rep.A == IntMatrix([[1, 0, -1], [0, 1, -1]])
        assert (rep.A @ rep.B).is_zero()
        assert rep.unimodular_B and rep.unimodular_A
        assert rep.equal
        assert rep.discriminant.wall_multiset() == d.wall_multiset()

    def test_smooth_case(self):
        d = DivisorData.make(2, [((1, 0), 1), ((0, 1), 1)])
        rep = round_trip(d)
        assert rep.case.case == SMOOTH
        assert rep.equal
        assert rep.A.shape == (0, 2)

    def test_rejection(self):
        # a single wall in ambient dimension 2 cannot span: rank 1 < 2
        d = DivisorData.make(2, [((1, 0), 2)])
        with pytest.raises(CaseRejected):
            round_trip(d)

    def test_checks_rebuilt_rows_once(self, monkeypatch):
        calls = []

        def counted(B):
            calls.append(B)
            return check_primitive_rows(B)

        monkeypatch.setattr(arrangement, "check_primitive_rows", counted)
        monkeypatch.setattr(characterization, "check_primitive_rows", counted)
        d = DivisorData.make(2, [((1, 0), 2), ((0, 1), 1), ((1, 1), 1)])
        rep = round_trip(d)
        assert len(calls) == 1
        assert rep.equal
        assert rep.discriminant == build_discriminant(rep.B)
        assert rep.discriminant.wall_multiset() == d.wall_multiset()

    def test_discriminant_is_build_discriminant(self):
        rng = random.Random(79)
        for _ in range(40):
            n = rng.randint(1, 3)
            walls = {}
            for _ in range(rng.randint(n, 5)):
                v = (0,) * n
                while v == (0,) * n:
                    v = tuple(rng.randint(-2, 2) for _ in range(n))
                walls[canonical_primitive(v)] = rng.randint(1, 3)
            d = DivisorData.make(n, list(walls.items()))
            if classify_case(reconstruct_B(d)).case == REJECTED:
                continue
            rep = round_trip(d)
            assert rep.discriminant == build_discriminant(rep.B)
            assert rep.equal

    def test_warning_on_torsion(self):
        d = DivisorData.make(2, [((1, 0), 1), ((1, 2), 1), ((1, -2), 1)])
        rep = round_trip(d)
        assert rep.equal
        assert any("torsion" in w for w in rep.warnings)
        assert not rep.unimodular_B

    def test_unimodularity_propagation(self):
        rng = random.Random(67)
        seen = 0
        while seen < 50:
            n = rng.randint(1, 3)
            walls = {}
            for _ in range(rng.randint(n, 5)):
                v = (0,) * n
                while v == (0,) * n:
                    v = tuple(rng.randint(-2, 2) for _ in range(n))
                walls[canonical_primitive(v)] = rng.randint(1, 3)
            d = DivisorData.make(n, list(walls.items()))
            B = reconstruct_B(d)
            if classify_case(B).case == REJECTED or not is_unimodular(B):
                continue
            rep = round_trip(d)
            assert rep.unimodular_A
            seen += 1

    def test_basis_change_covariance(self):
        rng = random.Random(71)
        unimods = [
            IntMatrix([[1, 1], [0, 1]]),
            IntMatrix([[0, 1], [1, 0]]),
            IntMatrix([[1, 0], [3, 1]]),
        ]
        for U in unimods:
            assert abs(det(U)) == 1
        for _ in range(40):
            walls = {}
            for _ in range(rng.randint(1, 4)):
                v = (0, 0)
                while v == (0, 0):
                    v = (rng.randint(-2, 2), rng.randint(-2, 2))
                walls[canonical_primitive(v)] = rng.randint(1, 3)
            d = DivisorData.make(2, list(walls.items()))
            U = rng.choice(unimods)
            Ut = U.transpose()
            transformed = {}
            for normal, mult in d.entries:
                img = canonical_primitive(Ut.mat_vec(normal))
                transformed[img] = mult
            d2 = DivisorData.make(2, list(transformed.items()))
            ok1 = classify_case(reconstruct_B(d)).case != REJECTED
            ok2 = classify_case(reconstruct_B(d2)).case != REJECTED
            assert ok1 == ok2
            if ok1:
                assert round_trip(d).equal and round_trip(d2).equal

    def test_rejection_soundness_is_rank_based(self):
        rng = random.Random(73)
        for _ in range(60):
            n = rng.randint(1, 3)
            walls = {}
            for _ in range(rng.randint(1, 4)):
                v = (0,) * n
                while v == (0,) * n:
                    v = tuple(rng.randint(-2, 2) for _ in range(n))
                walls[canonical_primitive(v)] = rng.randint(1, 4)
            d = DivisorData.make(n, list(walls.items()))
            B = reconstruct_B(d)
            tag = classify_case(B)
            from hkit.intmat import rank

            assert (tag.case == REJECTED) == (rank(B) < n)
