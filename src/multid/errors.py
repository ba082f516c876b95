"""Exception types shared across the package."""


class MultidError(Exception):
    """Base class for all package errors."""


class IrrationalResidue(MultidError):
    """A b-function candidate did not split into rational linear factors.

    Valid b-functions split completely over Q, so this signals an upstream
    bug rather than a legitimate mathematical outcome.
    """


class SignatureMismatch(MultidError):
    """Operands live over different signatures."""


class ZeroElement(MultidError):
    """Operation undefined on the zero element."""


class NonGradedWeight(MultidError):
    """Weight vector is not graded (some variable/differential pair has v+w > 0)."""


class NoTVariables(MultidError):
    """Operation requires at least one t-variable."""


class NotAPolynomial(MultidError):
    """Operand contains differential exponents where a polynomial is required."""


class NoncommutativeContext(MultidError):
    """Operation requires a commutative (differential-free) ambient ring."""


class ZeroDivisor(MultidError):
    """Division by zero element."""


class UnitIdeal(MultidError):
    """The input ideal is the unit ideal."""


class UnsupportedM(MultidError):
    """Operation only supports m = 1."""


class ParseError(MultidError):
    """Polynomial source text could not be parsed."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class UnknownVariable(ParseError):
    """Identifier is not among the declared variables."""


class InvalidSetting(MultidError, ValueError):
    """An environment setting such as MULTID_TIME_LIMIT_MS has a bad value."""


class ComputationTimeout(MultidError):
    """A Groebner basis run exceeded the configured wall-time cap."""


class PackingOverflow(MultidError):
    """A monomial would exceed the degree its packed fields can hold.

    Raised inside a packed computation before any field could carry; the
    Groebner layer catches it and starts again with wider fields.
    """
