"""Exception hierarchy.

Everything raised on purpose derives from ToolkitError, so callers (and
the CLI exit-status mapping) can distinguish library verdicts from bugs.
"""


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(ToolkitError):
    """Malformed textual input: polynomial text, problem file, family spec."""


class RingMismatch(ToolkitError):
    """Operands live in different rings or over different fields."""


class InexactDivision(ToolkitError):
    """A polynomial division that must be exact left a remainder."""


class UnknownVariable(ToolkitError):
    pass


class NotHomogeneous(ToolkitError):
    pass


class ParameterPresent(ToolkitError):
    """Operation requires parameter-free scalars but a parameter occurs."""


class AllZero(ToolkitError):
    pass


class LineNotContained(ToolkitError):
    pass


class InfiniteField(ToolkitError):
    """Exhaustive enumeration asked for over a field of characteristic 0."""


class CurveNotOnX(ToolkitError):
    pass


class SingularAlongCurve(ToolkitError):
    pass


class SingularAlongLine(ToolkitError):
    pass


class TwistTooNegative(ToolkitError):
    """Twists below -1 are rejected; the Euler-kernel count needs an
    H^1 correction there that is deliberately not implemented."""


class BasePointedCover(ToolkitError):
    pass


class NotCorankOne(ToolkitError):
    """Local equations are only emitted at corank-1 points; carries the
    actual corank in args."""


class ConstraintViolated(ToolkitError):
    """A named numeric precondition fails; the message quotes it."""


class BudgetExceeded(ToolkitError):
    """An input whose exhaustive computation would exceed a fixed size
    budget, refused before the bulk of the work starts."""


class InvariantViolated(ToolkitError):
    """A mathematical invariant that must hold by construction failed;
    this is a bug in the package, not a verdict on the input."""


class CharTwoForbidden(ToolkitError):
    pass
