"""Exception hierarchy. Every error carries a stable machine-readable code
so the CLI can map domain failures onto exit status 1 reports."""


class HkitError(Exception):
    """Base class for all domain errors."""

    code = "domain_error"


class NotInjective(HkitError):
    code = "not_injective"


class TorsionCokernel(HkitError):
    code = "torsion_cokernel"


class NotUnimodular(HkitError):
    code = "not_unimodular"


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
