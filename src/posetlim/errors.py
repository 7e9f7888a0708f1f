"""Exception types shared across the package."""


class PosetlimError(Exception):
    """Base class for all errors raised by this package."""


class DuplicateIdError(PosetlimError):
    """Two poset objects share an identifier."""


class UnknownIdError(PosetlimError):
    """A cover or lookup references an object id that does not exist."""


class CycleError(PosetlimError):
    """The cover relation contains a directed cycle."""


class DegreeError(PosetlimError):
    """A cover does not change degree by exactly one, or no grading exists."""


class EmptyPosetError(PosetlimError):
    """The poset has no objects."""


class NoArrowError(PosetlimError):
    """Requested an arrow between incomparable objects."""


class MismatchError(PosetlimError):
    """Composition of homs whose endpoints do not match."""


class AmbientMismatchError(PosetlimError):
    """Subgroup operation against the wrong ambient group."""


class MissingDataError(PosetlimError):
    """A diagram lacks a group or a cover map."""


class DiamondError(PosetlimError):
    """Two cover paths between the same objects compose to different homs.

    Carries both witness paths and the differing matrices.
    """

    def __init__(self, msg, path_a=None, path_b=None, matrix_a=None, matrix_b=None):
        super().__init__(msg)
        self.path_a = path_a
        self.path_b = path_b
        self.matrix_a = matrix_a
        self.matrix_b = matrix_b


class ChainBudgetError(PosetlimError):
    """Listing the chains a complex needs would exceed the chain budget."""


class OracleViolation(PosetlimError):
    """An implication guaranteed by theory failed; signals an implementation bug."""


class ConvergenceViolation(PosetlimError):
    """A stable spectral sequence page is inconsistent with the derived functors."""


class VariantMismatchError(PosetlimError):
    """Filtration variant does not apply to the poset's degree direction."""


class FamilyMismatchError(PosetlimError):
    """Random generation family incompatible with the requested poset family."""


class SchemaError(PosetlimError):
    """A document violates the JSON schema; message carries a JSON-pointer location."""


class ValidationError(PosetlimError):
    """A schema-valid document fails semantic validation (poset/diagram laws)."""
