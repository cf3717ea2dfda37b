"""Symbolic local normal forms of the moment map around a codimension-2 leaf
(x1 x2 = x3^m over (x3, t_1, ..., t_{n-1})), their one-parameter deformations
x1' x2' = prod(x3 + a_i t), and generic deformation lines for the whole
family arrangement <b_i, eta> = t lambda_i. A line is built, not searched
for: its basis rows are the pivots of the HNF of B^T that validation made
(`HypertoricData.basis_rows`) and its offsets follow one rule that makes the
t = 1 slice simple, which `simple_by_construction` reads off the offsets.
Genericity reads the Gale dual A: the hyperplanes of the line share a point
for t != 0 exactly when A lambda = 0.

Equations are stored as exact coefficient lists of the x3-polynomial in the
two variables (x3, t): coefficient of x3^(m-k) t^k is the k-th elementary
symmetric function of the shifts. No symbolic-algebra dependency needed.
"""

from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple

from .arrangement import ArrangementSpec, SimplicityReport, _affine, _central, _exact, check_simplicity
from .errors import ArityMismatch, DuplicateShift, NotABasis
from .hypertoric import HypertoricData
from .intmat import IntMatrix, det


def _elementary_symmetric(values):
    """e_0, e_1, ..., e_m of the given values (e_k(a) is the x3^(m-k) t^k
    coefficient of prod(x3 + a_i t))."""
    coeffs = [Fraction(1)]
    for a in values:
        coeffs.append(Fraction(0))
        for k in range(len(coeffs) - 1, 0, -1):
            coeffs[k] += a * coeffs[k - 1]
    return coeffs


class LocalModel(NamedTuple):
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
    if {type(m), type(n)} - {int}:  # bool is not int
        raise ValueError(f"multiplicity and ambient rank must be int, got {m!r}, {n!r}")
    if m < 1:
        raise ValueError("multiplicity must be >= 1")
    if n < 1:
        raise ValueError("ambient rank must be >= 1")
    return LocalModel(m=m, n=n)


class DeformedLocalModel(NamedTuple):
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
        t = _exact(t, "t")
        return tuple(c * t**k for k, c in enumerate(self.coefficients))

    def rhs_value(self, x3, t):
        x3, t = _exact(x3, "x3"), _exact(t, "t")
        return sum(c * x3 ** (self.m - k) * t**k for k, c in enumerate(self.coefficients))

    def discriminant_points(self, t):
        """Roots of the right-hand side in x3 at parameter t."""
        t = _exact(t, "t")
        return tuple(sorted({-a * t for a in self.shifts}))


def deform_local_model(model: LocalModel, shifts) -> DeformedLocalModel:
    shifts = tuple(_exact(a, "shift") for a in shifts)
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


class DeformationLine(NamedTuple):
    """Offsets lambda_i of the family <b_i, eta> = t lambda_i, normalized to
    vanish on a chosen Z-basis of rows; direction is the induced line in the
    (N-n)-dimensional deformation base. `adjusted` is True when the line
    has offsets off the basis, that is when N > n."""

    basis_rows: tuple
    offsets: tuple
    direction: tuple
    adjusted: bool = False


def _line_direction(H: HypertoricData, offsets):
    """-A lambda: zero exactly when lambda lies in the rational column span
    of B, since A B = 0 and A has rank N - n (Gale duality)."""
    return tuple(
        -sum((a * x for a, x in zip(row, offsets) if a), Fraction(0)) for row in H.A.data
    )


def _is_z_basis(H: HypertoricData, rows):
    """Whether rows are n distinct row indices of B whose rows form a Z-basis."""
    if len(rows) != H.n or len(set(rows)) != H.n or any(i < 0 or i >= H.N for i in rows):
        return False
    return abs(det(IntMatrix([H.B.row(i) for i in rows], cols=H.n))) == 1


def choose_deformation_line(H: HypertoricData, basis_rows=None):
    """The line with offsets 0 on the basis rows and 2^k on the k-th other
    row (1, 2, 4, ... in index order); deterministic for fixed inputs. The
    basis rows default to `H.basis_rows`, the first rows of B that form a
    Z-basis; given rows are checked by their determinant, and so are these.

    It passes `verify_genericity` by construction: the basis rows force
    eta = 0 in B eta = lambda, so (a)-(c) hold as soon as one offset off the
    basis is nonzero, which is every line with N > n. Powers of 2 are
    superincreasing, so `simple_by_construction` certifies its t = 1 slice."""
    basis_rows = tuple(H.basis_rows if basis_rows is None else basis_rows)
    if set(map(type, basis_rows)) - {int}:  # bool is not int
        raise ValueError(f"basis rows must be int, got {basis_rows!r}")
    if not _is_z_basis(H, basis_rows):
        raise NotABasis(basis_rows)

    rest = [i for i in range(H.N) if i not in basis_rows]
    offsets = [Fraction(0)] * H.N
    for k, i in enumerate(rest):
        offsets[i] = Fraction(2**k)
    return DeformationLine(
        basis_rows=basis_rows,
        offsets=tuple(offsets),
        direction=_line_direction(H, offsets),
        adjusted=H.N > H.n,
    )


class GenericityReport(NamedTuple):
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
    """The arrangement <b_i, eta> = t lambda_i at a fixed parameter value.
    Validation checked B's rows and grouped them in `H.groups`, so t = 0 is
    those classes with offset 0, and otherwise each row's offset flips with
    its normal when the row is not its class's canonical normal."""
    t = _exact(t, "t")
    if not t:
        return _central(H.n, H.groups)
    rows, offsets, flipped = H.B.data, line.offsets, -t
    walls = [
        (normal, (t if rows[i] == normal else flipped) * offsets[i])
        for normal, members in H.groups
        for i in members
    ]
    return _affine(H.n, walls)


def simple_by_construction(H: HypertoricData, line: DeformationLine) -> bool:
    """True when the t = 1 slice is simple by this O(N log N) certificate: B
    is unimodular, the offsets vanish on a Z-basis of rows, and off it their
    absolute values are superincreasing. The slice is then simple iff
    <c, lambda> != 0 for every circuit c of B's row dependencies (the lemma
    in `arrangement.check_simplicity`). Such c is a {0, +-1} vector, so
    <c, lambda> = sum_j c_j lambda_j over the rows j off the basis, and the
    largest |lambda_j| it meets outweighs the rest."""
    if not _is_z_basis(H, line.basis_rows):
        return False
    basis = set(line.basis_rows)
    if any(line.offsets[i] for i in basis):
        return False
    rest = sorted(abs(line.offsets[i]) for i in range(H.N) if i not in basis)
    return all(x > below for x, below in zip(rest, accumulate(rest, initial=0)))


def t1_simplicity(H: HypertoricData, line: DeformationLine, slice1) -> SimplicityReport:
    """Simplicity of the line's t = 1 slice `slice1`: certified by
    `simple_by_construction`, which holds for every line that
    `choose_deformation_line` builds (0 on the Z-basis it accepts, 2^k off
    it), so `hkit deform` always takes it. A line that a library caller
    builds otherwise is decided by `check_simplicity`, from the slice's
    circuits."""
    if simple_by_construction(H, line):
        return SimplicityReport(True, True)
    return check_simplicity(slice1)


def verify_genericity(H: HypertoricData, line: DeformationLine) -> GenericityReport:
    # (b) holds by construction: family_slice at t = 0 multiplies every offset
    # by 0, leaving the classes of H.groups with their sizes, as in B's own
    # discriminant. With N = n the family is constant and (a), (c) are vacuous.
    if H.N == H.n:
        return GenericityReport(True, True, True)
    # (a) B eta = t lambda has no solution with t != 0 iff A lambda != 0
    a_pass = any(_line_direction(H, line.offsets))
    c_pass = any(line.offsets[i] != 0 for i in range(H.N) if i not in line.basis_rows)
    return GenericityReport(a_pass, True, c_pass)


def family_f_locus_codimension(H: HypertoricData):
    """Codimension in the product base of the multi-incidence locus of the
    central slice: one more than its codimension in the slice; None when
    fewer than two distinct walls exist.

    Any two distinct central walls meet in codimension 2, and every flat has
    codimension >= 2, so the answer is 3 whenever there are two walls.
    """
    if len(H.groups) < 2:
        return None
    return 3
