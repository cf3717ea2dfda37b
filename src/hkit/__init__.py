"""hkit: exact-arithmetic toolkit for toric hyperkahler (hypertoric) data.

Core objects: integer matrices with Hermite/Smith normal forms and Gale
duality, discriminant hyperplane arrangements with multiplicities, the
invariant-monomial monoid of the torus quotient with its Hilbert basis and
Klein-form presentations, deformation lines with genericity certificates, and
the divisor -> matrix -> discriminant round trip.
"""

from .arrangement import (
    ArrangementSpec,
    Hyperplane,
    Kind,
    build_discriminant,
    check_simplicity,
    f_locus,
    stabilizer_rank,
)
from .characterization import (
    CaseTag,
    DivisorData,
    classify_case,
    reconstruct_B,
    round_trip,
)
from .errors import HkitError
from .hypertoric import (
    HypertoricData,
    MonomialGen,
    hilbert_basis,
    leaf_classification,
    moment_map_eval,
    presentation,
)
from .intmat import (
    IntMatrix,
    SmithResult,
    gale_dual,
    hermite_normal_form,
    is_primitive,
    is_unimodular,
    smith_normal_form,
)
from .localmodel import (
    DeformationLine,
    choose_deformation_line,
    deform_local_model,
    family_slice,
    local_model,
    verify_genericity,
)
from .plot import plot_arrangement

__version__ = "0.1.0"

__all__ = [
    "ArrangementSpec",
    "CaseTag",
    "DeformationLine",
    "DivisorData",
    "HkitError",
    "Hyperplane",
    "HypertoricData",
    "IntMatrix",
    "Kind",
    "MonomialGen",
    "SmithResult",
    "build_discriminant",
    "check_simplicity",
    "choose_deformation_line",
    "classify_case",
    "deform_local_model",
    "f_locus",
    "family_slice",
    "gale_dual",
    "hermite_normal_form",
    "hilbert_basis",
    "is_primitive",
    "is_unimodular",
    "leaf_classification",
    "local_model",
    "moment_map_eval",
    "plot_arrangement",
    "presentation",
    "reconstruct_B",
    "round_trip",
    "smith_normal_form",
    "stabilizer_rank",
    "verify_genericity",
]
