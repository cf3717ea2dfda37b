"""Round trip between divisor data and matrix data: stack the walls back into
a matrix B, gate on the case split (smooth affine space / hypertoric /
rejected), and verify that the rebuilt discriminant reproduces the input
divisor as a multiset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .arrangement import ArrangementSpec, build_discriminant
from .errors import CaseRejected, NonPrimitiveRow
from .intmat import (
    IntMatrix,
    canonical_sign,
    is_primitive,
    is_unimodular,
    kernel_basis,
    rank,
    smith_normal_form,
)

SMOOTH = "smooth_affine_space"
HYPERTORIC = "hypertoric"
REJECTED = "rejected"


@dataclass(frozen=True)
class DivisorData:
    """Weighted walls m_1 H_1 + ... + m_k H_k + H_{k+1} + ... + H_r: pairwise
    non-parallel primitive normals with multiplicities."""

    n: int
    entries: tuple  # ((normal, multiplicity), ...) canonical order

    @classmethod
    def make(cls, n, walls):
        seen = {}
        for idx, (normal, mult) in enumerate(walls):
            normal = tuple(int(x) for x in normal)
            if len(normal) != n:
                raise ValueError(f"wall {idx} has dimension {len(normal)}, expected {n}")
            if not is_primitive(normal):
                raise NonPrimitiveRow(idx, normal)
            mult = int(mult)
            if mult < 1:
                raise ValueError(f"wall {idx} has multiplicity {mult}")
            key = canonical_sign(normal)
            if key in seen:
                raise ValueError(f"walls {seen[key]} and {idx} are parallel")
            seen[key] = idx
        entries = tuple(
            sorted(
                (canonical_sign(tuple(int(x) for x in normal)), int(mult))
                for normal, mult in walls
            )
        )
        return cls(n=n, entries=entries)

    def wall_multiset(self):
        return tuple(
            sorted((normal, Fraction(0), mult) for normal, mult in self.entries)
        )


def reconstruct_B(d: DivisorData) -> IntMatrix:
    """Stack each wall's normal repeated by its multiplicity, sorted with
    repeats adjacent."""
    rows = []
    for normal, mult in d.entries:
        rows.extend([normal] * mult)
    return IntMatrix(rows, cols=d.n)


@dataclass(frozen=True)
class CaseTag:
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
    for i in range(B.rows):
        if not is_primitive(B.row(i)):
            raise NonPrimitiveRow(i, B.row(i))
    N, n = B.rows, B.cols
    r = rank(B)
    if r < n:
        return CaseTag(
            case=REJECTED,
            reason="not injective: the stacked normals span a proper sublattice, "
            "which contradicts conical contractibility",
        )
    unimod = is_unimodular(B)
    torsion_free = smith_normal_form(B).torsion_free
    if N == n and unimod:
        return CaseTag(
            case=SMOOTH,
            condition_star=False,
            unimodular=True,
            coker_torsion_free=True,
        )
    return CaseTag(
        case=HYPERTORIC,
        condition_star=N > n,
        unimodular=unimod,
        coker_torsion_free=torsion_free,
    )


@dataclass(frozen=True)
class RoundTripReport:
    divisor: DivisorData
    B: IntMatrix
    A: IntMatrix
    case: CaseTag
    unimodular_B: bool
    unimodular_A: bool
    discriminant: ArrangementSpec
    equal: bool
    warnings: tuple = field(default_factory=tuple)


def round_trip(d: DivisorData) -> RoundTripReport:
    """Divisor -> B -> Y(A, 0) data -> discriminant, checked against the input.

    Raises CaseRejected for rank-deficient reconstructions; everything else
    proceeds, with non-unimodularity and cokernel torsion reported as
    warnings rather than errors.
    """
    B = reconstruct_B(d)
    tag = classify_case(B)
    if tag.case == REJECTED:
        raise CaseRejected(tag.reason)

    # saturated integer kernel; coincides with the exact Gale dual whenever
    # the cokernel is torsion-free
    A = kernel_basis(B.transpose())
    warnings = []
    if not tag.coker_torsion_free:
        warnings.append(
            "cokernel has torsion: the two-step sequence is not exact over Z; "
            "A spans the saturated orthogonal lattice"
        )
    unimodular_B = tag.unimodular
    unimodular_A = is_unimodular(A) if A.rows else (B.rows == B.cols)
    if not unimodular_B:
        warnings.append("B is not unimodular: no symplectic resolution hypothesis")

    disc = build_discriminant(B)
    equal = disc.wall_multiset() == d.wall_multiset()
    return RoundTripReport(
        divisor=d,
        B=B,
        A=A,
        case=tag,
        unimodular_B=unimodular_B,
        unimodular_A=unimodular_A,
        discriminant=disc,
        equal=equal,
        warnings=tuple(warnings),
    )
