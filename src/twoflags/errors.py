"""Exception hierarchy shared by all twoflags modules."""


class TwoflagsError(Exception):
    """Base class for every error raised by this package."""


class ChartMismatch(TwoflagsError, ValueError):
    """Operands live on different charts, or an index/point has the wrong size."""


class DegeneratePivot(TwoflagsError):
    """No pivot choice keeps the polynomial elimination valid at the reference point."""


class NotSpecialFlag(TwoflagsError):
    """The Lie-square tower does not show the rank profile 3, 5, ..., dim."""


class GeneratorBlowup(TwoflagsError):
    """A Lie square, big flag or small flag exceeded the generator cap."""


class UnexpectedCovariantDimension(NotSpecialFlag):
    """The covariant covector space does not have the dimension theory predicts:
    D^1 has no covariant subdistribution, so the germ is no special 2-flag."""


class BadSyntax(TwoflagsError, ValueError):
    """A word or rational literal could not be parsed."""


class RuleViolation(TwoflagsError, ValueError):
    """A word violates the least-upward-jumps rule or uses a letter outside 1..3."""


class ConstantNotAdmitted(TwoflagsError, ValueError):
    """A shift constant was supplied at a step whose operation forbids it."""


class BadModelName(TwoflagsError, ValueError):
    """Unknown model name."""


class IndexOutOfRange(TwoflagsError, ValueError):
    """A flag-member index is outside its admissible range."""
