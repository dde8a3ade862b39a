"""Exception hierarchy shared by all modules.

Every error carries an ``exit_code`` consumed by the CLI:

    1   mathematical negative (the object exists but the answer is "no")
    2   validation or parse failure (the input is malformed)
    3   a configured resource bound was hit

Any other exception is an internal error: the CLI reports it in one line
and exits 4.
"""
from __future__ import annotations


class FrobdmlError(Exception):
    exit_code = 2


# -- field ------------------------------------------------------------------

class NonPrimeP(FrobdmlError):
    pass


class ReducibleModulus(FrobdmlError):
    pass


class DegreeMismatch(FrobdmlError):
    pass


class FieldMismatch(FrobdmlError):
    pass


class DivisionByZero(FrobdmlError):
    pass


# -- series -----------------------------------------------------------------

class NonUnitDivisor(FrobdmlError):
    pass


# -- geometry ---------------------------------------------------------------

class IndistinguishableFromZero(FrobdmlError):
    pass


class PrecisionExhausted(FrobdmlError):
    pass


class DimensionMismatch(FrobdmlError):
    pass


# -- dynamics ---------------------------------------------------------------

class DegreeOverflow(FrobdmlError):
    exit_code = 3


class NotInImage(FrobdmlError):
    """The point has no preimage under the map (detectable at precision)."""
    exit_code = 1


class UnsupportedQ(FrobdmlError):
    pass


# -- twist ------------------------------------------------------------------

class NotInvertible(FrobdmlError):
    pass


class NonConstantMatrix(FrobdmlError):
    pass


class SearchExhausted(FrobdmlError):
    exit_code = 3


class NonFlattenableExtension(FrobdmlError):
    exit_code = 3


# -- lifting ----------------------------------------------------------------

class PreconditionMatrixNotIdentityModT(FrobdmlError):
    pass


class NonCanonicalBasePoint(FrobdmlError):
    pass


class PrecisionTooLow(FrobdmlError):
    pass


# -- returns ----------------------------------------------------------------

class PrecisionBelowThreshold(FrobdmlError):
    pass


# -- cli --------------------------------------------------------------------

class ParseError(FrobdmlError):
    pass


class ValidationFailure(FrobdmlError):
    """Raised when validate_map returns diagnostics for an instance file."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        lines = "; ".join(str(d) for d in self.diagnostics)
        super().__init__(f"map validation failed: {lines}")
