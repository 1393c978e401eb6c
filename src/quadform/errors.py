"""Exception hierarchy shared by all modules.

Exit-code mapping used by the CLI: invalid input -> 2, convergence
failure -> 3, not-applicable -> 4.
"""


class QuadFormError(Exception):
    """Base class for all library errors."""


class InvalidInputError(QuadFormError):
    """Malformed or inconsistent input (bad shapes, non-PSD covariance, ...)."""

    exit_code = 2


class DomainError(InvalidInputError):
    """Argument outside the mathematical domain of an operation.

    Carries the admissible interval when one exists (e.g. the MGF
    existence interval).
    """

    def __init__(self, message, interval=None):
        super().__init__(message)
        self.interval = interval


class NotApplicableError(QuadFormError):
    """A method's preconditions do not hold for the given form.

    ``condition`` names the violated precondition.
    """

    exit_code = 4

    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition or message


class ConvergenceFailureError(QuadFormError):
    """Resource limits were hit before the requested accuracy was met.

    ``result`` holds the best MethodResult achieved (value plus the
    error bound actually attained), so callers can decide whether the
    partial answer is usable.
    """

    exit_code = 3

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class DegenerateConstantError(QuadFormError):
    """The form is almost surely a constant; carries that constant."""

    exit_code = 2

    def __init__(self, value):
        super().__init__(f"form is degenerate: almost surely equal to {value}")
        self.value = value


def one_or_all(out: list, scalar: bool):
    """What a call returns once each of its points has an outcome in ``out``
    (a result, or the library error that point alone raised): the list
    itself for an array of points, and for a scalar point its result or its
    error raised."""
    if not scalar:
        return out
    if isinstance(out[0], QuadFormError):
        raise out[0]
    return out[0]
