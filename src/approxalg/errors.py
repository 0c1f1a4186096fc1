"""Exception taxonomy shared by the whole package.

Checkers that look for mathematical violations report them as verdicts with
counterexamples, never as exceptions; exceptions are reserved for misuse of
the API (mixed rings, unsupported combinations, blown resource guards).
"""


class ApproxAlgError(Exception):
    """Base class for all package errors."""


class DomainMismatchError(ApproxAlgError):
    """Operands belong to different rings (or modules)."""


class NotEnumerableError(ApproxAlgError):
    """An infinite ring was asked for an exhaustive enumeration."""


class ResourceLimitError(ApproxAlgError):
    """An exhaustive computation exceeds its stated limit or price.

    This is always raised loudly; no routine silently truncates or samples
    when a guard is exceeded.
    """


class PreconditionError(ApproxAlgError):
    """A documented precondition of an operation does not hold."""


class ClosureNotSetValuedError(ApproxAlgError):
    """The closure variant only supports membership queries, not evaluation."""


class InvariantError(ApproxAlgError, AssertionError):
    """An internal invariant failed: two routes to one answer disagree, or
    a construction the code relies on does not hold.  This is a bug in the
    package, not misuse; it subclasses AssertionError so that callers and
    tests expecting an assertion keep working."""


class ParseError(ApproxAlgError):
    """A ring/closure/element spec string failed to parse."""

    def __init__(self, message, text, pos):
        super().__init__(f"{message} at position {pos}: {text!r}")
        self.text = text
        self.pos = pos
