"""Round trip between divisor data and matrix data: stack the walls back into
a matrix B, gate on the case split (smooth affine space / hypertoric /
rejected), and verify that the rebuilt discriminant reproduces the input
divisor as a multiset.
"""

from typing import NamedTuple

from .arrangement import ZERO, ArrangementSpec, _central, _row_classes
from .errors import CaseRejected, NonPrimitiveRow
from .intmat import IntMatrix, _oriented, canonical_sign, check_primitive_rows, is_primitive

SMOOTH = "smooth_affine_space"
HYPERTORIC = "hypertoric"
REJECTED = "rejected"


class DivisorData(NamedTuple):
    """Weighted walls m_1 H_1 + ... + m_k H_k + H_{k+1} + ... + H_r: pairwise
    non-parallel primitive normals with multiplicities."""

    n: int
    entries: tuple  # ((normal, multiplicity), ...) canonical order

    @classmethod
    def make(cls, n, walls):
        if type(n) is not int or n < 0:  # bool is not int
            raise ValueError(f"n must be a nonnegative int, got {n!r}")
        seen = {}
        for idx, (normal, mult) in enumerate(walls):
            normal = tuple(normal)
            if set(map(type, normal + (mult,))) - {int}:  # bool is not int
                raise ValueError(f"wall {idx} must have int entries, got {normal!r}, {mult!r}")
            if len(normal) != n:
                raise ValueError(f"wall {idx} has dimension {len(normal)}, expected {n}")
            if not is_primitive(normal):
                raise NonPrimitiveRow(idx, normal)
            if mult < 1:
                raise ValueError(f"wall {idx} has multiplicity {mult}")
            key = canonical_sign(normal)
            if key in seen:
                raise ValueError(f"walls {seen[key][0]} and {idx} are parallel")
            seen[key] = (idx, mult)
        entries = tuple(sorted((key, mult) for key, (_, mult) in seen.items()))
        return cls(n=n, entries=entries)

    def wall_multiset(self):
        return tuple(sorted((normal, ZERO, mult) for normal, mult in self.entries))


def reconstruct_B(d: DivisorData) -> IntMatrix:
    """Stack each wall's normal repeated by its multiplicity, sorted with
    repeats adjacent."""
    rows = []
    for normal, mult in d.entries:
        rows.extend([normal] * mult)
    return IntMatrix(rows, cols=d.n)


class CaseTag(NamedTuple):
    """Case split for matrix data: smooth affine space exactly for square
    unimodular B, rejected exactly for rank-deficient B, hypertoric otherwise.
    The diagnostic flags record the extra hypotheses a symplectic-resolution
    construction would need (injectivity with n < N, torsion-free cokernel,
    unimodularity); failures surface as warnings, not errors."""

    case: str
    reason: str = None
    condition_star: bool = False
    unimodular: bool = False
    coker_torsion_free: bool = False


def classify_case(B: IntMatrix) -> CaseTag:
    return _classify(B)[0]


def _classify(B):
    """(case tag, `intmat._oriented(B)`), which decides the rank and
    unimodularity and, for a B that is not rejected (so tall), the torsion.
    A wide B is rejected by its rank."""
    check_primitive_rows(B)
    N, n = B.rows, B.cols
    forms = _oriented(B)
    if forms.rank < n:
        return CaseTag(
            case=REJECTED,
            reason="not injective: the stacked normals span a proper sublattice, "
            "which contradicts conical contractibility",
        ), forms
    # square and unimodular (smooth) makes condition_star False and the
    # cokernel torsion-free
    unimod = forms.unimodular
    return CaseTag(
        case=SMOOTH if N == n and unimod else HYPERTORIC,
        condition_star=N > n,
        unimodular=unimod,
        coker_torsion_free=forms.torsion_free,
    ), forms


class RoundTripReport(NamedTuple):
    divisor: DivisorData
    B: IntMatrix
    A: IntMatrix
    case: CaseTag
    unimodular_B: bool
    unimodular_A: bool
    discriminant: ArrangementSpec
    equal: bool
    warnings: tuple = ()


def round_trip(d: DivisorData) -> RoundTripReport:
    """Divisor -> B -> Y(A, 0) data -> discriminant, checked against the input.

    Raises CaseRejected for rank-deficient reconstructions; everything else
    proceeds, with non-unimodularity and cokernel torsion reported as
    warnings rather than errors.
    """
    B = reconstruct_B(d)
    tag, forms = _classify(B)
    if tag.case == REJECTED:
        raise CaseRejected(tag.reason)

    warnings = []
    if not tag.coker_torsion_free:
        warnings.append(
            "cokernel has torsion: the two-step sequence is not exact over Z; "
            "A spans the saturated orthogonal lattice"
        )
    if not tag.unimodular:
        warnings.append("B is not unimodular: no symplectic resolution hypothesis")

    # _classify checked B's rows, so this is build_discriminant(B) without
    # a second check_primitive_rows
    disc = _central(B.cols, _row_classes(B))
    equal = disc.wall_multiset() == d.wall_multiset()
    return RoundTripReport(
        divisor=d,
        B=B,
        A=forms.kernel,
        case=tag,
        unimodular_B=tag.unimodular,
        unimodular_A=forms.dual_unimodular(),
        discriminant=disc,
        equal=equal,
        warnings=tuple(warnings),
    )
