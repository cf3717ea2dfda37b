"""The one grouping of parallel walls, keyed on ints, against the
Fraction-keyed grouping in oracles.py: `group_hyperplanes`,
`build_discriminant`, `family_slice` and `HypertoricData.groups` must build
the same arrangements field for field, every offset still a Fraction, and
reject the same inputs with the same messages."""

import random
from fractions import Fraction

import pytest

from corpus import corpus_matrices, graphic_rows, primitive_vectors, valid_hypertoric
from hkit.arrangement import (
    ArrangementComponent,
    ArrangementSpec,
    Hyperplane,
    Kind,
    build_discriminant,
    group_hyperplanes,
)
from hkit.errors import DimensionMismatch, NonPrimitiveRow
from hkit.intmat import IntMatrix, canonical_sign, is_primitive
from hkit.localmodel import DeformationLine, choose_deformation_line, family_slice
from oracles import (
    build_discriminant_by_fractions,
    family_slice_by_fractions,
    group_hyperplanes_by_fractions,
)


def assert_same(got, expected):
    assert got == expected
    assert repr(got) == repr(expected)  # the repr names every value's type
    assert got.n == expected.n and len(got) == len(expected)
    for c, e in zip(got.components, expected.components):
        assert type(c.hyperplane.offset) is Fraction
        assert c.hyperplane.normal == e.hyperplane.normal
        assert c.hyperplane.offset == e.hyperplane.offset
        assert type(c.multiplicity) is int and c.multiplicity == e.multiplicity
        assert c.kind is e.kind


@pytest.fixture(scope="module")
def valid():
    return list(valid_hypertoric(corpus_matrices()))


def test_build_discriminant_on_the_corpus():
    count = 0
    for B in corpus_matrices():
        if all(is_primitive(row) for row in B.data):
            count += 1
            assert_same(build_discriminant(B), build_discriminant_by_fractions(B))
    assert count == 5687


def test_build_discriminant_on_graphic_multigraphs():
    rng = random.Random(151)
    for _ in range(200):
        rows = graphic_rows(rng, rng.randint(3, 8), rng.randint(0, 6))
        rows = [[-x for x in r] if rng.random() < 0.5 else r for r in rows]
        B = IntMatrix(rows)
        assert_same(build_discriminant(B), build_discriminant_by_fractions(B))


def test_build_discriminant_rejects_what_it_rejected():
    B = IntMatrix([[1, 0], [0, 2]])
    with pytest.raises(NonPrimitiveRow):
        build_discriminant(B)
    with pytest.raises(NonPrimitiveRow):
        build_discriminant_by_fractions(B)


@pytest.mark.parametrize("t", [0, 1, Fraction(1, 2), -3])
def test_family_slice_on_the_corpus(valid, t):
    assert len(valid) == 1104
    for H in valid:
        line = choose_deformation_line(H)
        assert_same(family_slice(H, line, t), family_slice_by_fractions(H, line, t))


def test_family_slice_with_fractional_offsets(valid):
    # offsets that coincide and differ within one parallel class, with
    # numerators and denominators that reduce
    rng = random.Random(157)
    for H in valid[::3]:
        offsets = tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(H.N))
        line = DeformationLine(H.basis_rows, offsets, ())
        for t in (1, Fraction(-2, 3)):
            assert_same(family_slice(H, line, t), family_slice_by_fractions(H, line, t))


def test_groups_are_the_parallel_classes(valid):
    for H in valid:
        classes = {}
        for i in range(H.B.rows):
            classes.setdefault(canonical_sign(H.B.row(i)), []).append(i)
        assert H.groups == tuple((normal, tuple(rows)) for normal, rows in sorted(classes.items()))


OFFSETS = (0, 1, -1, 2, Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(2, 4), Fraction(3, 2), "1/3")


def test_group_hyperplanes_on_hand_built_pairs():
    rng = random.Random(163)
    for n in (1, 2, 3):
        pool = primitive_vectors(n, 2)
        for _ in range(300):
            pairs = []
            for _ in range(rng.randint(1, 7)):
                normal = rng.choice(pool)
                if rng.random() < 0.5:
                    normal = tuple(-x for x in normal)
                pairs.append((normal, rng.choice(OFFSETS)))
            assert_same(group_hyperplanes(n, pairs), group_hyperplanes_by_fractions(n, pairs))


def test_group_hyperplanes_merges_flipped_walls():
    pairs = [((1, -1), Fraction(1, 2)), ((-1, 1), Fraction(-1, 2)), ((1, -1), 0), ((-1, 1), 1)]
    arr = group_hyperplanes(2, pairs)
    assert_same(arr, group_hyperplanes_by_fractions(2, pairs))
    assert [(c.hyperplane.offset, c.multiplicity, c.kind) for c in arr.components] == [
        (Fraction(-1), 1, Kind.SECOND_KIND),
        (Fraction(0), 1, Kind.SECOND_KIND),
        (Fraction(1, 2), 2, Kind.FIRST_KIND),
    ]


@pytest.mark.parametrize(
    "pairs",
    [
        [((True, 0), 0)],
        [((1, 1.0), 0)],
        [((1, 0), 0), ((0, False), 1)],
        [((2, 4), 0)],
        [((1, 0), 0), ((0, 0), 1)],
        [((-3, 6), Fraction(1, 2))],
    ],
)
def test_group_hyperplanes_raises_the_same_errors(pairs):
    with pytest.raises(ValueError) as got:
        group_hyperplanes(2, pairs)
    with pytest.raises(ValueError) as expected:
        group_hyperplanes_by_fractions(2, pairs)
    assert str(got.value) == str(expected.value)


def test_group_hyperplanes_checks_the_dimension():
    # the checking constructor is group_hyperplanes' only dimension check
    with pytest.raises(DimensionMismatch):
        group_hyperplanes(2, [((1, 0, 0), 0)])


def test_group_hyperplanes_refuses_a_float_offset():
    # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10
    with pytest.raises(ValueError, match="^offset must be exact, got 0.1$"):
        group_hyperplanes(2, [((1, 0), 0.1)])
    with pytest.raises(ValueError, match="^offset must be exact"):
        group_hyperplanes(2, [((1, 0), 0), ((0, 1), 1.0)])


@pytest.mark.parametrize("offset", [True, False])
def test_group_hyperplanes_refuses_a_bool_offset(offset):
    # Fraction(True) is 1, so the wall would pass as <(1, 0), eta> = 1
    with pytest.raises(ValueError, match=f"^offset must not be a bool, got {offset}$"):
        group_hyperplanes(2, [((1, 0), offset)])
    with pytest.raises(ValueError, match="^offset must not be a bool"):
        Hyperplane.canonical((1, 0), offset)


def test_spec_rejects_an_int_and_a_fraction_zero_as_duplicates():
    components = tuple(
        ArrangementComponent(h, 1, Kind.SECOND_KIND)
        for h in (Hyperplane((1, 0), 0), Hyperplane((1, 0), Fraction(0)))
    )
    with pytest.raises(ValueError, match="duplicate hyperplane"):
        ArrangementSpec(n=2, components=components)
