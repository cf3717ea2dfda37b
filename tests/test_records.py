"""hkit's value types are immutable named tuples: every record refuses
assignment, keeps its defaults, field order, hash and repr text, and
ArrangementSpec still checks every direct construction. Importing the cli
loads neither `dataclasses` nor `inspect`."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

from hkit import arrangement, characterization, cli, hypertoric, intmat, localmodel
from hkit.arrangement import (
    ArrangementComponent,
    ArrangementSpec,
    Hyperplane,
    Kind,
    SimplicityReport,
    build_discriminant,
    check_simplicity,
    f_locus,
    group_hyperplanes,
)
from hkit.characterization import CaseTag, DivisorData, RoundTripReport, classify_case, round_trip
from hkit.errors import DimensionMismatch
from hkit.hypertoric import (
    HypertoricData,
    MonomialGen,
    hilbert_basis,
    leaf_classification,
    presentation,
)
from hkit.intmat import IntMatrix, smith_normal_form
from hkit.localmodel import (
    DeformationLine,
    choose_deformation_line,
    deform_local_model,
    local_model,
    verify_genericity,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
MODULES = (arrangement, characterization, cli, hypertoric, intmat, localmodel)


def _records():
    """One instance of every record type in hkit, built by the pipeline."""
    B = IntMatrix([[1, 0], [0, 1], [1, 1], [1, 1]])
    arr = build_discriminant(B)
    H = HypertoricData.from_matrix(B)
    pres = presentation(H)
    model = local_model(2, 2)
    line = choose_deformation_line(H)
    return [
        smith_normal_form(B),
        arr,
        arr.components[0],
        arr.components[0].hyperplane,
        f_locus(arr)[0],
        check_simplicity(arr),
        DivisorData.make(2, [((1, 0), 1), ((0, 1), 1)]),
        classify_case(B),
        round_trip(DivisorData.make(2, [((1, 0), 2), ((0, 1), 1), ((1, 1), 1)])),
        H,
        hilbert_basis(H)[0],
        pres.reduced.s_classes[0],
        pres.reduced,
        pres,
        leaf_classification(H)[0],
        model,
        deform_local_model(model, (0, 1)),
        line,
        verify_genericity(H, line),
    ]


RECORDS = _records()


def test_every_record_type_is_covered():
    declared = {
        value
        for module in MODULES
        for name, value in vars(module).items()
        if isinstance(value, type) and issubclass(value, tuple)
        and value.__module__ == module.__name__ and not name.startswith("_")
    }
    assert declared == {type(r) for r in RECORDS}
    assert len(declared) == 19


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_record_refuses_assignment(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_record_is_a_tuple_without_instance_dict(record):
    assert isinstance(record, tuple)
    assert not hasattr(record, "__dict__")
    first = record._fields[0]
    assert record._replace(**{first: getattr(record, first)}) == record


def test_defaults():
    h = Hyperplane((1, 0))
    assert h.offset == 0 and type(h.offset) is Fraction
    tag = CaseTag("hypertoric")
    assert (tag.reason, tag.condition_star, tag.unimodular, tag.coker_torsion_free) == (
        None, False, False, False,
    )
    assert SimplicityReport._fields == ("no_excess_intersections", "normals_extend_to_basis")
    assert SimplicityReport._field_defaults == {}
    assert RoundTripReport(*(None,) * 8).warnings == ()
    assert DeformationLine((0,), (Fraction(0),), ()).adjusted is False


def test_hyperplane_and_monomial_field_order_and_hash():
    h = Hyperplane((1, -1), Fraction(1, 2))
    assert (h.normal, h.offset) == ((1, -1), Fraction(1, 2))
    assert hash(h) == hash(((1, -1), Fraction(1, 2)))
    assert sorted([Hyperplane((1, 0), Fraction(1)), h, Hyperplane((1, 0))]) == [
        h, Hyperplane((1, 0)), Hyperplane((1, 0), Fraction(1)),
    ]
    g = MonomialGen((1, 0), (0, 1))
    assert (g.u, g.v) == ((1, 0), (0, 1))
    assert hash(g) == hash(((1, 0), (0, 1)))
    assert sorted([g, MonomialGen((0, 1), (1, 0))]) == [MonomialGen((0, 1), (1, 0)), g]


def test_records_compare_as_tuples_of_their_fields():
    # the one change from frozen dataclasses: a record is also a tuple
    h = Hyperplane((1, 0))
    assert h == ((1, 0), Fraction(0)) and tuple(h) == ((1, 0), Fraction(0))
    assert h == Hyperplane((1, 0), Fraction(0))
    normal, offset = h
    assert (normal, offset) == ((1, 0), 0)
    assert Hyperplane._fields == ("normal", "offset") and MonomialGen._fields == ("u", "v")
    comp = ArrangementComponent(h, 1, Kind.SECOND_KIND)
    assert ArrangementSpec(n=2, components=(comp,)) == (2, (comp,))


def test_repr_text():
    h = Hyperplane((1, 0))
    assert repr(h) == "Hyperplane(normal=(1, 0), offset=Fraction(0, 1))"
    assert repr(build_discriminant(IntMatrix([[1]]))) == (
        "ArrangementSpec(n=1, components=(ArrangementComponent(hyperplane="
        "Hyperplane(normal=(1,), offset=Fraction(0, 1)), multiplicity=1, "
        "kind=<Kind.SECOND_KIND: 'second'>),))"
    )
    assert str(MonomialGen((2, 0), (0, 1))) == "z1^2*w2"
    assert repr(CaseTag("smooth_affine_space")) == (
        "CaseTag(case='smooth_affine_space', reason=None, condition_star=False, "
        "unimodular=False, coker_torsion_free=False)"
    )


def test_arrangement_spec_checks_direct_construction():
    h = Hyperplane((1, 0))
    comp = ArrangementComponent(h, 1, Kind.SECOND_KIND)
    with pytest.raises(ValueError, match="^multiplicity below 1$"):
        ArrangementSpec(2, (ArrangementComponent(h, 0, Kind.SECOND_KIND),))
    with pytest.raises(DimensionMismatch, match="^component dimension differs from ambient n$"):
        ArrangementSpec(n=3, components=(comp,))
    with pytest.raises(ValueError) as err:
        ArrangementSpec(n=2, components=(comp, comp))
    assert str(err.value) == "duplicate hyperplane Hyperplane(normal=(1, 0), offset=Fraction(0, 1))"


@pytest.mark.parametrize(
    "hyperplane, kind",
    [
        (Hyperplane((-1, 0)), Kind.SECOND_KIND),
        (Hyperplane((2, 0)), Kind.SECOND_KIND),
        (Hyperplane((1.0, 0)), Kind.SECOND_KIND),
        (Hyperplane((True, 0)), Kind.SECOND_KIND),
        (Hyperplane((1, 0), 0.5), Kind.SECOND_KIND),
        (Hyperplane((1, 0), True), Kind.SECOND_KIND),
        (Hyperplane((1, 0)), Kind.FIRST_KIND),
    ],
    ids=["negative-lead", "not-primitive", "float-entry", "bool-entry", "float-offset",
         "bool-offset", "kind"],
)
def test_arrangement_spec_refuses_a_component_that_is_not_canonical(hyperplane, kind):
    bad = ArrangementComponent(hyperplane, 1, kind)
    with pytest.raises(ValueError):
        ArrangementSpec(2, (bad,))
    # _replace makes the record through the same constructor
    arr = build_discriminant(IntMatrix([[1, 0], [0, 1]]))
    assert arr._replace(n=2) == arr
    with pytest.raises(ValueError):
        arr._replace(components=(bad,))


@pytest.mark.parametrize("n", [2.5, -1, True, None], ids=["float", "negative", "bool", "none"])
def test_arrangement_spec_refuses_an_n_that_is_not_a_nonnegative_int(n):
    with pytest.raises(ValueError, match="^n must be a nonnegative int"):
        ArrangementSpec(n, ())
    arr = build_discriminant(IntMatrix([[1, 0], [0, 1]]))
    with pytest.raises(ValueError, match="^n must be a nonnegative int"):
        arr._replace(n=n)
    assert ArrangementSpec(0, ()) == (0, ())


@pytest.mark.parametrize(
    "multiplicity, kind",
    [(1.5, Kind.SECOND_KIND), (2.0, Kind.FIRST_KIND), (True, Kind.SECOND_KIND)],
    ids=["fraction", "integral-float", "bool"],
)
def test_arrangement_spec_refuses_a_multiplicity_that_is_not_an_int(multiplicity, kind):
    # check_simplicity would read a 1.5 wall as two coincident ones
    comp = ArrangementComponent(Hyperplane((1, 0)), multiplicity, kind)
    with pytest.raises(ValueError, match="^multiplicity must be an int"):
        ArrangementSpec(2, (comp,))


@pytest.mark.parametrize("k", [0, 1, 2, 5])
def test_arrangement_length_counts_components(k):
    arr = group_hyperplanes(2, [((1, 0), Fraction(j)) for j in range(k)])
    assert len(arr) == len(arr.components) == k
    assert bool(arr) == (k > 0)


def test_cli_import_loads_no_dataclasses_or_inspect():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import hkit.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-E", "-c", code, SRC],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
