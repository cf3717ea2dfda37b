"""Symbolic local normal forms of the moment map around a codimension-2 leaf
(x1 x2 = x3^m over (x3, t_1, ..., t_{n-1})), their one-parameter deformations
x1' x2' = prod(x3 + a_i t), and generic deformation lines for the whole
family arrangement <b_i, eta> = t lambda_i.

Equations are stored as exact coefficient lists of the x3-polynomial in the
two variables (x3, t): coefficient of x3^(m-k) t^k is the k-th elementary
symmetric function of the shifts. No symbolic-algebra dependency needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm

from .arrangement import ArrangementSpec, build_discriminant, group_hyperplanes
from .errors import ArityMismatch, DuplicateShift, NotABasis
from .hypertoric import HypertoricData
from .intmat import IntMatrix, det, rank


def _elementary_symmetric(values):
    """e_0, e_1, ..., e_m of the given values (e_k(a) is the x3^(m-k) t^k
    coefficient of prod(x3 + a_i t))."""
    coeffs = [Fraction(1)]
    for a in values:
        coeffs.append(Fraction(0))
        for k in range(len(coeffs) - 1, 0, -1):
            coeffs[k] += a * coeffs[k - 1]
    return coeffs


@dataclass(frozen=True)
class LocalModel:
    """Central model around a multiplicity-m leaf in ambient torus rank n."""

    m: int
    n: int

    @property
    def equation(self):
        power = f"^{self.m}" if self.m > 1 else ""
        return f"x1*x2 = x3{power}"

    @property
    def moment_formula(self):
        return ("x3",) + tuple(f"t{j}" for j in range(1, self.n))

    @property
    def symplectic_form(self):
        power = f"^{self.m}" if self.m > 1 else ""
        residue = f"Res(dx1^dx2^dx3 / (x1*x2 - x3{power}))"
        if self.n > 1:
            return residue + " + sum_j dt_j^dtheta_j/theta_j"
        return residue

    @property
    def rhs_coefficients(self):
        """Coefficients of x3^(m-k) t^k, k = 0..m; central model has shifts 0."""
        return (Fraction(1),) + (Fraction(0),) * self.m


def local_model(leaf, n: int) -> LocalModel:
    """Normal form for a leaf; accepts a LeafDescriptor or a multiplicity."""
    m = getattr(leaf, "multiplicity", leaf)
    if m < 1:
        raise ValueError("multiplicity must be >= 1")
    if n < 1:
        raise ValueError("ambient rank must be >= 1")
    return LocalModel(m=int(m), n=int(n))


@dataclass(frozen=True)
class DeformedLocalModel:
    """x1' x2' = prod_i (x3 + a_i t) with pairwise distinct shifts a_i."""

    m: int
    n: int
    shifts: tuple
    coefficients: tuple  # coefficient of x3^(m-k) t^k is coefficients[k]

    @property
    def equation(self):
        factors = "".join(f"(x3 + {a}*t)" for a in self.shifts)
        return f"x1'*x2' = {factors}"

    def rhs_at(self, t):
        """Coefficients of the x3-polynomial at parameter value t (degree m,
        leading coefficient 1, index k holds the x3^(m-k) coefficient)."""
        t = Fraction(t)
        return tuple(c * t**k for k, c in enumerate(self.coefficients))

    def rhs_value(self, x3, t):
        x3, t = Fraction(x3), Fraction(t)
        return sum(c * x3 ** (self.m - k) * t**k for k, c in enumerate(self.coefficients))

    def discriminant_points(self, t):
        """Roots of the right-hand side in x3 at parameter t."""
        t = Fraction(t)
        return tuple(sorted({-a * t for a in self.shifts}))


def deform_local_model(model: LocalModel, shifts) -> DeformedLocalModel:
    shifts = tuple(Fraction(a) for a in shifts)
    if len(shifts) != model.m:
        raise ArityMismatch(f"expected {model.m} shifts, got {len(shifts)}")
    if len(set(shifts)) != len(shifts):
        raise DuplicateShift(f"shift constants must be pairwise distinct: {shifts}")
    return DeformedLocalModel(
        m=model.m,
        n=model.n,
        shifts=shifts,
        coefficients=tuple(_elementary_symmetric(shifts)),
    )


# -- deformation lines ----------------------------------------------------------


@dataclass(frozen=True)
class DeformationLine:
    """Offsets lambda_i of the family <b_i, eta> = t lambda_i, normalized to
    vanish on a chosen Z-basis of rows; direction is the induced line in the
    (N-n)-dimensional deformation base."""

    basis_rows: tuple
    offsets: tuple
    direction: tuple
    adjusted: bool = False


def default_basis_rows(B: IntMatrix):
    """Lexicographically first row subset forming a Z-basis of Z^n."""
    for subset in combinations(range(B.rows), B.cols):
        sub = IntMatrix([B.row(i) for i in subset], cols=B.cols)
        if abs(det(sub)) == 1:
            return subset
    raise NotABasis(tuple(range(B.rows)))


def _line_direction(H: HypertoricData, offsets):
    return tuple(
        -sum(Fraction(H.A[j, i]) * offsets[i] for i in range(H.N))
        for j in range(H.N - H.n)
    )


def choose_deformation_line(H: HypertoricData, basis_rows=None, seed_offsets=None):
    """Normalize offsets to zero on the basis rows and repair the rest until
    the genericity report passes (replacement values 1, 2, 3, ... in index
    order); deterministic for fixed inputs."""
    if basis_rows is None:
        basis_rows = default_basis_rows(H.B)
    basis_rows = tuple(int(i) for i in basis_rows)
    if len(basis_rows) != H.n or len(set(basis_rows)) != H.n:
        raise NotABasis(basis_rows)
    if any(i < 0 or i >= H.N for i in basis_rows):
        raise NotABasis(basis_rows)
    sub = IntMatrix([H.B.row(i) for i in basis_rows], cols=H.n)
    if abs(det(sub)) != 1:
        raise NotABasis(basis_rows)

    if seed_offsets is None:
        seed_offsets = (Fraction(0),) * H.N
    if len(seed_offsets) != H.N:
        raise ArityMismatch(f"expected {H.N} seed offsets, got {len(seed_offsets)}")

    offsets = [Fraction(x) for x in seed_offsets]
    for i in basis_rows:
        offsets[i] = Fraction(0)

    line = DeformationLine(
        basis_rows=basis_rows,
        offsets=tuple(offsets),
        direction=_line_direction(H, offsets),
    )
    if H.N == H.n or verify_genericity(H, line).all_pass:
        return line

    value = 1
    for i in range(H.N):
        if i not in basis_rows:
            offsets[i] = Fraction(value)
            value += 1
    return DeformationLine(
        basis_rows=basis_rows,
        offsets=tuple(offsets),
        direction=_line_direction(H, offsets),
        adjusted=True,
    )


@dataclass(frozen=True)
class GenericityReport:
    """(a) the N hyperplanes <b_i, eta> = t lambda_i have no common point for
    t != 0; (b) the t = 0 slice degenerates onto the central discriminant;
    (c) the non-basis offsets are not all zero when N > n."""

    common_intersection_empty: bool
    central_slice_matches: bool
    offsets_not_all_zero: bool

    @property
    def all_pass(self):
        return (
            self.common_intersection_empty
            and self.central_slice_matches
            and self.offsets_not_all_zero
        )


def family_slice(H: HypertoricData, line: DeformationLine, t) -> ArrangementSpec:
    """The arrangement <b_i, eta> = t lambda_i at a fixed parameter value."""
    t = Fraction(t)
    return group_hyperplanes(
        H.n, ((H.B.row(i), t * line.offsets[i]) for i in range(H.N))
    )


def verify_genericity(H: HypertoricData, line: DeformationLine) -> GenericityReport:
    offsets = line.offsets
    b_pass = family_slice(H, line, 0) == build_discriminant(H.B)

    if H.N == H.n:
        # no deformation directions exist; the family is constant and the
        # t != 0 conditions hold vacuously
        return GenericityReport(
            common_intersection_empty=True,
            central_slice_matches=b_pass,
            offsets_not_all_zero=True,
        )

    # (a) a common solution of B eta = t lambda with t != 0 exists exactly when
    # lambda lies in the rational column span of B; check via an exact rank.
    denom = lcm(*(x.denominator for x in offsets)) if offsets else 1
    scaled = [int(x * denom) for x in offsets]
    aug = IntMatrix(
        [list(H.B.row(i)) + [scaled[i]] for i in range(H.N)], cols=H.n + 1
    )
    solvable = rank(aug) == H.n
    a_pass = not solvable

    c_pass = any(offsets[i] != 0 for i in range(H.N) if i not in line.basis_rows)

    return GenericityReport(
        common_intersection_empty=a_pass,
        central_slice_matches=b_pass,
        offsets_not_all_zero=c_pass,
    )


def family_f_locus_codimension(H: HypertoricData):
    """Codimension in the product base of the multi-incidence locus of the
    central slice: one more than its codimension in the slice; None when
    fewer than two distinct walls exist.

    Any two distinct central walls meet in codimension 2, and every flat has
    codimension >= 2, so the answer is 3 whenever there are two walls.
    """
    if len(build_discriminant(H.B)) < 2:
        return None
    return 3
