"""Exception taxonomy shared by every layer of the package.

Domain errors (bad inputs) and numeric-integrity errors (a computation
produced something the theory forbids) are kept distinct so callers can
tell "you asked a malformed question" from "the machinery broke".
"""


class CStarAnglesError(Exception):
    """Base class for all package errors."""


class InvalidMatrix(CStarAnglesError):
    """Matrix entries are not finite complex numbers."""


class ShapeMismatch(CStarAnglesError):
    """Operands do not have compatible shapes."""


class NotInSpan(CStarAnglesError):
    """A target matrix is not in the span of the given family."""

    def __init__(self, residual: float, bound: float):
        self.residual = residual
        self.bound = bound
        super().__init__(f"residual {residual:.3e} exceeds bound {bound:.3e}")


class EmptyAlgebra(CStarAnglesError):
    """An algebra was given an empty spanning set."""


class NotInAlgebra(CStarAnglesError):
    """An element does not belong to the algebra it was claimed to."""


class NoQuasiBasis(CStarAnglesError):
    """A conditional expectation lacks a (verified) quasi-basis."""


class NotIntermediate(CStarAnglesError):
    """Nesting of algebras or subgroups is violated."""


class NotUnitary(CStarAnglesError):
    """A matrix fails the unitarity test."""


class NotCompatible(CStarAnglesError):
    """An intermediate algebra has no compatible expectation (composition test failed)."""


class NonCentralIndex(CStarAnglesError):
    """A restricted index is not central, so the construction is undefined."""


class DegenerateIntermediate(CStarAnglesError):
    """An intermediate coincides with the corner algebra; the angle denominator vanishes."""


class ConstructionFailure(CStarAnglesError):
    """A basic-construction invariant failed; carries the residual report."""

    def __init__(self, message: str, residuals: dict | None = None):
        self.residuals = residuals or {}
        super().__init__(message)


class ClosedFormMismatch(CStarAnglesError):
    """An assembled closed form violates its defining verification conditions."""


class NotSubgroup(CStarAnglesError):
    """An element set is not a subgroup of the group at hand.

    Raised for sets not closed under the group operations, for element
    indices outside the group, and for subgroups of a different group.
    """


class InvalidGroup(CStarAnglesError):
    """A multiplication table fails the group axioms."""


class TooLarge(CStarAnglesError):
    """Requested object exceeds the supported size."""


class NumericIntegrityError(CStarAnglesError):
    """A computed value landed outside its theoretically allowed range."""
