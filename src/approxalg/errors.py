"""Exception taxonomy shared by the whole package.

Checkers that look for mathematical violations report them as verdicts with
counterexamples, never as exceptions; exceptions are reserved for misuse of
the API (mixed rings, unsupported combinations), and for work that ``price``
finds past its limit before it starts.
"""


class ApproxAlgError(Exception):
    """Base class for all package errors."""


class DomainMismatchError(ApproxAlgError):
    """Operands belong to different rings (or modules)."""


class NotEnumerableError(ApproxAlgError):
    """An infinite ring was asked for an exhaustive enumeration."""


class ResourceLimitError(ApproxAlgError):
    """Work priced past its limit, raised only by ``price`` and always
    worded "<what> priced at <amount> <unit>, past the limit <limit>".

    This is always raised loudly; no routine silently truncates or samples
    when a guard is exceeded.
    """


def price(what, amount, limit, unit):
    """Raise ResourceLimitError when ``amount`` (an int, in ``unit``) is past
    ``limit``; ``what`` names the work and the breakdown of its amount."""
    if amount > limit:
        raise ResourceLimitError(f"{what} priced at {figure(amount)} {unit}, "
                                 f"past the limit {limit}")


def figure(n):
    """n in decimal, or past 256 bits by its binary order, "2^k" or "more
    than 2^k" (Python prints no int of more than 4300 digits)."""
    k = n.bit_length() - 1
    return str(n) if k < 256 else f"2^{k}" if n == 1 << k \
        else f"more than 2^{k}"


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
