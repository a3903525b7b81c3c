"""Exception types shared across the package."""


class DGBError(Exception):
    """Base class for all errors raised by this package."""


class RankMismatchError(DGBError, ValueError):
    """Shift tuples of different rank were combined, or a variable's shift
    does not match the ring's declared rank."""


class ShiftWidthError(DGBError, ValueError):
    """A shift of total degree above ``MAX_SHIFT_DEGREE``, which a packed
    variable cannot hold, was requested."""


class ExactDivisionError(DGBError, ArithmeticError):
    """Exact division was requested but the divisor does not divide."""


class RingMismatchError(DGBError, ValueError):
    """Polynomials attached to different rings (or orderings) were mixed."""


class CoefficientSizeError(DGBError, ValueError):
    """A coefficient holds an integer with more decimal digits than Python
    converts to text (``sys.get_int_max_str_digits``)."""


class CoefficientTypeError(DGBError, TypeError):
    """A coefficient is neither an int, a Fraction nor a value of the
    ring's field: a float, a Decimal or a string, say.  Every coefficient
    is exact, so none is converted."""


class StaircaseError(DGBError, ValueError):
    """A generator mentions a variable outside the quotient staircase."""


class InternalCheckError(DGBError, RuntimeError):
    """An internal self-check failed; the message carries the witness."""


class ParseError(DGBError, ValueError):
    """Syntax or validation error in problem-file or polynomial text."""

    def __init__(self, message, line=None, column=None):
        self.message = message
        self.line = line
        self.column = column
        where = "" if line is None else f" at line {line}, column {column}"
        super().__init__(f"{message}{where}")
