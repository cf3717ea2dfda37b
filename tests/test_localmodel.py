import random
from fractions import Fraction
from itertools import combinations

import pytest

from corpus import cographic, complete_graph, corpus_matrices, r10, valid_hypertoric
from hkit import localmodel
from hkit.arrangement import Kind, build_discriminant, check_simplicity
from hkit.errors import ArityMismatch, DuplicateShift, NotABasis
from hkit.hypertoric import HypertoricData, leaf_classification
from hkit.intmat import IntMatrix
from hkit.localmodel import (
    DeformationLine,
    choose_deformation_line,
    deform_local_model,
    family_f_locus_codimension,
    family_slice,
    local_model,
    simple_by_construction,
    t1_simplicity,
    verify_genericity,
)
from oracles import common_intersection_empty_by_rank


def H(rows, cols=None):
    return HypertoricData.from_matrix(IntMatrix(rows, cols=cols))


def deformable_corpus():
    families = [d for d in valid_hypertoric(corpus_matrices()) if d.N > d.n]
    assert len(families) == 945
    return families


def z_basis_lines(data):
    """choose_deformation_line on every Z-basis of rows, in index order."""
    for rows in combinations(range(data.N), data.n):
        try:
            yield choose_deformation_line(data, rows)
        except NotABasis:
            continue


class TestLocalModel:
    def test_a1_in_rank_two(self):
        model = local_model(2, 2)
        assert model.equation == "x1*x2 = x3^2"
        assert model.moment_formula == ("x3", "t1")

    def test_smooth_point(self):
        model = local_model(1, 1)
        assert model.equation == "x1*x2 = x3"
        assert model.moment_formula == ("x3",)

    def test_higher_instance(self):
        model = local_model(4, 3)
        assert model.equation == "x1*x2 = x3^4"
        assert model.moment_formula == ("x3", "t1", "t2")
        assert "x3^4" in model.symplectic_form

    def test_from_leaf_descriptor(self):
        data = H([[1], [1], [1]])
        leaf = leaf_classification(data)[0]
        model = local_model(leaf, data.n)
        assert model.m == 3

    @pytest.mark.parametrize("m, n", [(2.7, 2), (2, 2.0), (True, 2), (2, True)])
    def test_rejects_arguments_that_are_not_int(self, m, n):
        with pytest.raises(ValueError):
            local_model(m, n)

    @pytest.mark.parametrize("m, n", [(0, 2), (1, 0)], ids=["multiplicity", "rank"])
    def test_rejects_arguments_below_one(self, m, n):
        with pytest.raises(ValueError, match="must be >= 1$"):
            local_model(m, n)


class TestDeformation:
    def test_two_shifts(self):
        model = deform_local_model(local_model(2, 2), (0, 1))
        # x3 (x3 + t): coefficients of x3^2, x3 t, t^2
        assert model.coefficients == (Fraction(1), Fraction(1), Fraction(0))
        assert model.discriminant_points(1) == (Fraction(-1), Fraction(0))

    def test_linear_case(self):
        model = deform_local_model(local_model(1, 1), (5,))
        assert model.coefficients == (Fraction(1), Fraction(5))
        assert model.rhs_value(-5, 1) == 0

    def test_duplicate_shift(self):
        with pytest.raises(DuplicateShift):
            deform_local_model(local_model(2, 2), (1, 1))

    def test_arity(self):
        with pytest.raises(ArityMismatch):
            deform_local_model(local_model(3, 2), (1, 2))

    def test_degenerates_to_central_at_zero(self):
        rng = random.Random(59)
        for m in (1, 2, 3, 4):
            shifts = rng.sample(range(-6, 7), m)
            model = deform_local_model(local_model(m, 2), shifts)
            assert model.rhs_at(0) == local_model(m, 2).rhs_coefficients

    def test_root_count_at_nonzero_t(self):
        rng = random.Random(61)
        for m in (2, 3, 4):
            shifts = rng.sample(range(-6, 7), m)
            model = deform_local_model(local_model(m, 2), shifts)
            for t in (1, -2, Fraction(1, 3)):
                points = model.discriminant_points(t)
                assert len(points) == m
                for x3 in points:
                    assert model.rhs_value(x3, t) == 0


class TestExactInputs:
    """A float would become its binary fraction (0.1 is not 1/10) and a bool
    a shift or parameter of 0 or 1, so both are refused wherever a shift, t
    or x3 enters; an int, a Fraction or a string such as "1/3" is taken."""

    MODEL = deform_local_model(local_model(2, 1), (1, 2))

    @pytest.mark.parametrize(
        "shifts", [(0.1, 0.2), (1, 0.5), (True, False), (0, True)], ids=["floats", "float", "bools", "bool"]
    )
    def test_deform_refuses_shifts(self, shifts):
        with pytest.raises(ValueError, match="^shift must"):
            deform_local_model(local_model(2, 1), shifts)

    @pytest.mark.parametrize(
        "call",
        [
            lambda m: m.rhs_at(0.1),
            lambda m: m.rhs_at(True),
            lambda m: m.rhs_value(1, 0.5),
            lambda m: m.rhs_value(0.5, 1),
            lambda m: m.rhs_value(False, 1),
            lambda m: m.discriminant_points(0.1),
            lambda m: m.discriminant_points(True),
        ],
        ids=["rhs_at-float", "rhs_at-bool", "rhs_value-t", "rhs_value-x3", "rhs_value-bool",
             "points-float", "points-bool"],
    )
    def test_deformed_model_refuses_parameters(self, call):
        with pytest.raises(ValueError, match="^(t|x3) must"):
            call(self.MODEL)

    def test_strings_and_fractions_are_exact(self):
        model = deform_local_model(local_model(2, 1), ("1/10", Fraction(1, 5)))
        assert model.shifts == (Fraction(1, 10), Fraction(1, 5))
        assert model.discriminant_points("1/2") == (Fraction(-1, 10), Fraction(-1, 20))
        assert model.rhs_value("-1/10", "1") == 0 == model.rhs_value(-1, 10)

    @pytest.mark.parametrize("t", [0.1, 1.0, 0.0, True, False])
    def test_family_slice_refuses_t(self, t):
        data = HypertoricData.from_matrix(complete_graph(3))
        with pytest.raises(ValueError, match="^t must"):
            family_slice(data, choose_deformation_line(data), t)

    def test_family_slice_takes_a_tenth_exactly(self):
        # K_3's default line has offsets (0, 0, 1), and row 2 is (-1, 1),
        # whose canonical normal (1, -1) flips its offset
        data = HypertoricData.from_matrix(complete_graph(3))
        arr = family_slice(data, choose_deformation_line(data), "1/10")
        assert {c.hyperplane.offset for c in arr.components} == {0, Fraction(-1, 10)}


class TestDeformationLine:
    def test_identity_empty_family(self):
        data = H([[1, 0], [0, 1]])
        line = choose_deformation_line(data)
        assert line.offsets == (Fraction(0), Fraction(0))
        assert line.direction == ()
        assert not line.adjusted
        report = verify_genericity(data, line)
        assert report.all_pass

    def test_pair_line(self):
        data = H([[1], [1]])
        line = choose_deformation_line(data)
        assert line.basis_rows == (0,)
        assert line.offsets == (Fraction(0), Fraction(1))
        assert line.adjusted
        assert verify_genericity(data, line).all_pass

    def test_offsets_are_powers_of_two(self):
        assert choose_deformation_line(H([[1], [1], [1]])).offsets == (0, 1, 2)
        assert choose_deformation_line(H([[1], [1], [1], [1]])).offsets == (0, 1, 2, 4)
        line = choose_deformation_line(H([[1], [1], [1], [1]]), basis_rows=(2,))
        assert line.offsets == (1, 2, 0, 4)

    @pytest.mark.parametrize("rows", [(0.9,), (1.0,), (True,)])
    def test_rejects_basis_rows_that_are_not_int(self, rows):
        # 0.9 would truncate to row 0 and True would read as row 1
        with pytest.raises(ValueError):
            choose_deformation_line(H([[1], [1]]), rows)

    def test_not_a_basis(self):
        data = H([[1, 0], [0, 1], [1, 1]])
        with pytest.raises(NotABasis):
            choose_deformation_line(data, (0, 0))
        with pytest.raises(NotABasis):
            choose_deformation_line(H([[1, 0], [0, 1], [1, 1]]), (2, 2))

    def test_default_basis_rows(self):
        # the pivots of the HNF of B^T that validation makes
        assert H([[1, 0], [0, 1], [1, 1]]).basis_rows == (0, 1)
        assert H([[1], [1], [1]]).basis_rows == (0,)
        assert choose_deformation_line(H([[0, 1], [0, 1], [1, -2]])).basis_rows == (0, 2)

    def test_direction_reproduces_offsets(self):
        # the line in the base determines the offsets back through the
        # basis-row splitting: check A-consistency instead of fixing a sign
        data = H([[1, 0], [0, 1], [1, 1], [0, 1]])
        line = choose_deformation_line(data)
        assert len(line.direction) == data.N - data.n


class TestGenericity:
    def test_spec_example_passes(self):
        data = H([[1], [1]])
        line = DeformationLine(
            basis_rows=(0,), offsets=(Fraction(0), Fraction(1)), direction=(Fraction(-1),)
        )
        report = verify_genericity(data, line)
        assert report.common_intersection_empty
        assert report.central_slice_matches
        assert report.offsets_not_all_zero
        assert report.all_pass

    def test_all_zero_offsets_fail_a(self):
        data = H([[1], [1]])
        line = DeformationLine(
            basis_rows=(0,), offsets=(Fraction(0), Fraction(0)), direction=(Fraction(0),)
        )
        report = verify_genericity(data, line)
        assert not report.common_intersection_empty
        assert not report.offsets_not_all_zero

    def test_vacuous_for_square(self):
        data = H([[1, 0], [0, 1]])
        line = choose_deformation_line(data)
        assert verify_genericity(data, line).all_pass

    def test_offsets_in_column_span_fail(self):
        # lambda = B eta for eta = (1,): hyperplanes share the point eta/t
        data = H([[1], [1]])
        line = DeformationLine(
            basis_rows=(0,), offsets=(Fraction(1), Fraction(1)), direction=(Fraction(0),)
        )
        assert not verify_genericity(data, line).common_intersection_empty


class TestFamilySlices:
    def test_central_slice_has_original_multiplicities(self):
        # the oracle for genericity (b), which verify_genericity states
        families = deformable_corpus()
        families += [HypertoricData.from_matrix(complete_graph(m)) for m in range(3, 8)]
        for data in families:
            line = choose_deformation_line(data)
            assert family_slice(data, line, 0) == build_discriminant(data.B), data.B
            assert verify_genericity(data, line).central_slice_matches

    def test_unit_slice_separates_walls(self):
        data = H([[1, 0], [1, 0], [0, 1], [1, 1]])
        line = choose_deformation_line(data)
        slice1 = family_slice(data, line, 1)
        assert all(c.multiplicity == 1 for c in slice1.components)
        assert all(c.kind == Kind.SECOND_KIND for c in slice1.components)
        assert sum(c.multiplicity for c in slice1.components) == data.N

    def test_family_f_locus_codimension(self):
        assert family_f_locus_codimension(H([[1, 0], [0, 1], [1, 1]])) == 3
        assert family_f_locus_codimension(H([[1], [1]])) is None


SMALL_NAMED = {"K4*": cographic(4), "K5*": cographic(5), "R10": r10()}
SMALL_NAMED.update((f"K{m}", complete_graph(m)) for m in range(3, 7))


class TestDefaultLine:
    """The default line passes (a)-(c), its t = 1 slice is simple by the flat
    walk, and the certificate says so."""

    @staticmethod
    def assert_generic_and_simple(data):
        line = choose_deformation_line(data)
        assert verify_genericity(data, line).all_pass, data.B
        assert check_simplicity(family_slice(data, line, 1)).simple, data.B
        assert simple_by_construction(data, line), data.B

    def test_corpus(self):
        for data in deformable_corpus():
            self.assert_generic_and_simple(data)

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_complete_graphs(self, m):
        self.assert_generic_and_simple(HypertoricData.from_matrix(complete_graph(m)))

    @pytest.mark.parametrize("name", ["K4*", "K5*", "R10"])
    def test_cographic_and_r10(self, name):
        self.assert_generic_and_simple(HypertoricData.from_matrix(SMALL_NAMED[name]))


class TestSimpleByConstruction:
    """The certificate against the flat walk: it may miss a simple slice, but
    it never certifies one that check_simplicity calls non-simple."""

    def test_every_z_basis_line_of_the_corpus(self):
        lines = [(d, line) for d in deformable_corpus() for line in z_basis_lines(d)]
        assert len(lines) == 3460
        for data, line in lines:
            assert simple_by_construction(data, line), (data.B, line)
            assert check_simplicity(family_slice(data, line, 1)).simple, (data.B, line)

    def test_seeded_hand_built_lines(self):
        rng = random.Random(71)
        seen = []  # (certified, simple by the walk)
        for data in deformable_corpus():
            rows = tuple(rng.sample(range(data.N), data.n))  # not always a Z-basis
            rest = [i for i in range(data.N) if i not in rows]
            powers = rng.sample([2**k for k in range(len(rest) + 1)], len(rest))
            samples = (
                (data.basis_rows, [rng.randint(-3, 3) for _ in range(data.N)]),
                (data.basis_rows, [0 if i in data.basis_rows else rng.randint(-4, 4)
                                   for i in range(data.N)]),
                (rows, [0 if i in rows else rng.choice((-1, 1)) * powers.pop()
                        for i in range(data.N)]),
            )
            for basis, offsets in samples:
                line = DeformationLine(basis, tuple(map(Fraction, offsets)), ())
                simple = check_simplicity(family_slice(data, line, 1)).simple
                seen.append((simple_by_construction(data, line), simple))
        assert len(seen) == 2835
        assert (True, False) not in seen
        assert {(True, True), (False, True), (False, False)} <= set(seen)

    @pytest.mark.parametrize("name", sorted(SMALL_NAMED))
    def test_seeded_lines_on_complete_graphs_cographic_and_r10(self, name):
        # off the validated basis: random offsets, signed powers of 2 in a
        # random order, and the same with one of them set to 0
        data = HypertoricData.from_matrix(SMALL_NAMED[name])
        basis = data.basis_rows
        rest = [i for i in range(data.N) if i not in basis]
        rng = random.Random(73)
        seen = []
        for k in range(4):
            offsets = [rng.randint(-4, 4) for _ in range(data.N)]
            if k:
                powers = rng.sample([2**j for j in range(len(rest))], len(rest))
                offsets = [0 if i in basis else rng.choice((-1, 1)) * powers.pop()
                           for i in range(data.N)]
            if k == 2:
                offsets[rng.choice(rest)] = 0
            line = DeformationLine(basis, tuple(map(Fraction, offsets)), ())
            simple = check_simplicity(family_slice(data, line, 1)).simple
            seen.append((simple_by_construction(data, line), simple))
        assert (True, False) not in seen
        assert seen[1] == seen[3] == (True, True) and not seen[0][0] and not seen[2][0]

    def test_equal_offsets_on_parallel_rows(self):
        # rows 4 and 5 are parallel with equal offsets: a circuit with
        # <c, lambda> = 0, so the certificate fails and the walk decides
        data = H([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [0, 1, 1], [0, 1, 1]])
        line = DeformationLine((0, 1, 2), tuple(map(Fraction, (0, 0, 0, 1, 1, 1))), ())
        assert not simple_by_construction(data, line)
        report = t1_simplicity(data, line, family_slice(data, line, 1))
        assert report == check_simplicity(family_slice(data, line, 1))
        assert report.violations_a and report.violations_b

    def test_each_condition_is_needed(self):
        data = H([[1, 0], [0, 1], [1, 1]])
        line = choose_deformation_line(data)
        assert simple_by_construction(data, line)
        nonzero_on_basis = DeformationLine((0, 1), (Fraction(1), Fraction(0), Fraction(1)), ())
        not_a_basis = DeformationLine((0, 0), tuple(map(Fraction, (0, 1, 2))), ())
        zero_off_basis = DeformationLine((0, 1), (Fraction(0),) * 3, ())
        for bad in (nonzero_on_basis, not_a_basis, zero_off_basis):
            assert not simple_by_construction(data, bad)

    def test_k8_is_certified(self, monkeypatch):
        # validation is exact at every size, so the certificate holds on K_8
        # (1184040 maximal minors) and the walk of its 561947 flats never runs
        def walk(arr):
            raise AssertionError("check_simplicity ran")

        monkeypatch.setattr(localmodel, "check_simplicity", walk)
        data = HypertoricData.from_matrix(complete_graph(8))
        line = choose_deformation_line(data)
        assert simple_by_construction(data, line)
        assert t1_simplicity(data, line, family_slice(data, line, 1)).simple

    def test_coincident_walls_fail_b(self):
        # equal offsets on the parallel rows 2 and 3 make one wall of
        # multiplicity 2: two hyperplanes whose normals are dependent
        data = H([[1, 0], [0, 1], [1, 1], [1, 1]])
        line = DeformationLine((0, 1), tuple(map(Fraction, (0, 0, 1, 1))), ())
        slice1 = family_slice(data, line, 1)
        assert [c.multiplicity for c in slice1.components] == [1, 1, 2]
        report = check_simplicity(slice1)
        assert report.no_excess_intersections and not report.normals_extend_to_basis
        assert report.violations_b == ((2,),)
        assert not simple_by_construction(data, line)
        assert t1_simplicity(data, line, slice1) == report


class TestGenericityAgainstRank:
    """Condition (a) read off the Gale dual (A lambda != 0) against the rank
    of [B | lambda] in oracles.py."""

    @staticmethod
    def assert_agrees(data, offsets):
        line = DeformationLine(basis_rows=data.basis_rows, offsets=tuple(offsets), direction=())
        got = verify_genericity(data, line).common_intersection_empty
        assert got == common_intersection_empty_by_rank(data, line.offsets), (data.B, offsets)
        return got

    def test_corpus_with_random_offsets(self):
        rng = random.Random(67)
        seen = []
        for data in valid_hypertoric(corpus_matrices()):
            if data.N == data.n:
                continue
            eta = [rng.randint(-3, 3) for _ in range(data.n)]
            span = [Fraction(x, rng.randint(1, 4)) for x in data.B.mat_vec(eta)]
            samples = (
                choose_deformation_line(data).offsets,
                [Fraction(rng.randint(-2, 2)) for _ in range(data.N)],
                [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(data.N)],
                span,  # lambda = B eta / d lies in the column span
                span[:-1] + [span[-1] + 1],
            )
            seen.extend(self.assert_agrees(data, offsets) for offsets in samples)
        assert len(seen) == 4725
        assert 0 < seen.count(False) < len(seen)

    @pytest.mark.parametrize("m", range(3, 8))
    def test_complete_graph_default_lines(self, m):
        data = HypertoricData.from_matrix(complete_graph(m))
        assert self.assert_agrees(data, choose_deformation_line(data).offsets)
