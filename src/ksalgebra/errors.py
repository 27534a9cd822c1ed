"""Exception types shared across the package.

Everything algebraic raises a subclass of ExactAlgebraError so callers can
catch one base class.  Plain programming errors (bad index, division by a
zero element) use the matching Python builtins instead: IndexError and
ZeroDivisionError.
"""


class ExactAlgebraError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidDescriptor(ExactAlgebraError):
    """A number-field descriptor failed validation."""


class NonGaloisField(InvalidDescriptor):
    """The listed automorphisms are not a group of order equal to the degree."""


class FieldMismatch(ExactAlgebraError):
    """Two operands live over different base fields."""


class DegenerateForm(ExactAlgebraError):
    """A symmetric bilinear form has determinant zero."""


class ZeroDiagonalEntry(ExactAlgebraError):
    """A diagonal quadratic form has a zero entry where a unit is required."""


class NotAssociative(ExactAlgebraError):
    """A structure-constant table fails associativity on a basis triple."""


class CertificateFailure(ExactAlgebraError):
    """An exactness certificate failed: the message names the law."""


class NotClosedUnderMultiplication(ExactAlgebraError):
    """A candidate subspace of an algebra is not multiplicatively closed."""


class DimensionMismatch(ExactAlgebraError):
    """A computed dimension disagrees with the predicted one."""


class ZeroInput(ExactAlgebraError):
    """Zero was passed where a nonzero value is required."""


class ZeroSlot(ZeroInput):
    """A quaternion symbol slot is zero."""


class ZeroScale(ZeroInput):
    """A scaling factor is zero."""


class NotAPlace(ExactAlgebraError):
    """The given place is neither 'inf' nor a prime number."""


class OddRamification(ExactAlgebraError):
    """Internal consistency failure: ramification set has odd cardinality."""


class FactorizationBound(ExactAlgebraError):
    """Trial division hit the configured bound before finishing."""


class FirstSlotNotRational(ExactAlgebraError):
    """Corestriction by the projection formula needs a rational first slot."""


class InvalidPermutation(ExactAlgebraError):
    """A permutation is not a bijection of {1..d}."""


class RouteDisagreement(ExactAlgebraError):
    """The symbol route and the invariant route disagree on definiteness."""


class ParameterConstraintViolated(ExactAlgebraError):
    """Family parameters violate their defining constraint."""


class OutputTooLarge(ExactAlgebraError):
    """A result holds an integer with more digits than str() may write."""


class MalformedInput(ExactAlgebraError):
    """A JSON input document is malformed; the message names the key."""
