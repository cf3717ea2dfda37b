"""Exception hierarchy. Every error carries a stable machine-readable code
so the CLI can map domain failures onto exit status 1 reports.

Validation's refusals of B keep the values their messages need and word the
message when it is read (`str(err)`): a caller that reads only `err.code`
pays for no Smith form (TorsionCokernel) and no matrix repr (NotUnimodular).
They pickle with the values they keep."""


class HkitError(Exception):
    """Base class for all domain errors."""

    code = "domain_error"


class NotInjective(HkitError):
    code = "not_injective"


class TorsionCokernel(HkitError):
    """B's cokernel has torsion; forms is anything whose invariant_factors
    are B's (validation passes its `intmat._Forms`), read only to word the
    message."""

    code = "torsion_cokernel"

    def __init__(self, forms):
        super().__init__(forms)
        self.forms = forms

    def __str__(self):
        return f"invariant factors {list(self.forms.invariant_factors)} contain an entry > 1"


class NotUnimodular(HkitError):
    """B has a maximal minor outside -1, 0, 1; B is read only to word the
    message."""

    code = "not_unimodular"

    def __init__(self, B):
        super().__init__(B)
        self.B = B

    def __str__(self):
        return f"matrix {self.B!r} has a maximal minor outside -1, 0, 1"


class NonPrimitiveRow(HkitError):
    code = "non_primitive_row"

    def __init__(self, index, row=None):
        self.index = index
        self.row = row
        msg = f"row {index} is not primitive"
        if row is not None:
            msg += f": {list(row)}"
        super().__init__(msg)


class DimensionMismatch(HkitError):
    code = "dimension_mismatch"


class BudgetExceeded(HkitError):
    """Raised when an enumeration blows past its guard."""

    code = "budget_exceeded"


class DuplicateShift(HkitError):
    code = "duplicate_shift"


class ArityMismatch(HkitError):
    code = "arity_mismatch"


class NotABasis(HkitError):
    code = "not_a_basis"

    def __init__(self, rows):
        self.rows = tuple(rows)
        super().__init__(f"rows {list(rows)} do not form a Z-basis")


class CaseRejected(HkitError):
    code = "case_rejected"

    def __init__(self, reason):
        self.reason = reason
        super().__init__(reason)


class UnsupportedDimension(HkitError):
    code = "unsupported_dimension"
