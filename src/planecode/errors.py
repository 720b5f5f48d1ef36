"""Exception hierarchy shared by every module.

Each class carries the process exit code the CLI maps it to:
0 success, 1 failed self-check, 2 parse or bad argument, 3 algebra,
4 genericity, including a build whose type is not proven rigid, 5 a type
not proven rigid, a mark that names no point, or incidences that do not
force the relation, 6 schema.
"""


class PlanecodeError(Exception):
    exit_code = 1


class SelfCheckFailed(PlanecodeError):
    """An internal consistency check failed: a defect in planecode, not in its input."""


class PolyParseError(PlanecodeError):
    exit_code = 2


class BadArgument(PlanecodeError):
    """A command-line value out of range for the input it applies to."""

    exit_code = 2


# -- algebra -----------------------------------------------------------------

class FieldMismatch(PlanecodeError):
    exit_code = 3


class DivisionByZero(PlanecodeError, ZeroDivisionError):
    exit_code = 3


class ReducibleModulus(PlanecodeError):
    """The working modulus is not irreducible; `factor` names a witness."""

    exit_code = 3

    def __init__(self, message, factor=None):
        super().__init__(message)
        self.factor = factor


class UnprovenModulus(PlanecodeError):
    """The irreducibility test could neither prove nor refute the modulus irreducible."""

    exit_code = 3


class TrivialField(PlanecodeError):
    exit_code = 3


class NotARoot(PlanecodeError):
    exit_code = 3


class PrecisionExhausted(PlanecodeError):
    exit_code = 3


class DegenerateJoin(PlanecodeError):
    exit_code = 3


class DegenerateMeet(PlanecodeError):
    exit_code = 3


class ParityViolation(PlanecodeError):
    exit_code = 3


# -- genericity / construction ------------------------------------------------

class GadgetDegenerate(PlanecodeError):
    exit_code = 4


class GenericityExhausted(PlanecodeError):
    exit_code = 4


class DuplicateLine(PlanecodeError):
    exit_code = 4


# -- decoding ------------------------------------------------------------------

class NotRigid(PlanecodeError):
    """Colour refinement leaves lines of the type in one class: the marks are not facts of it."""

    exit_code = 5


class UnnamedMark(PlanecodeError):
    """A file's row of canonical line ranks names no point of the configuration."""

    exit_code = 5


class NotForced(PlanecodeError):
    """The incidence table does not prove P(z) = N(z) in every realization."""

    exit_code = 5


class NotCollinear(NotForced):
    """No one line of the table passes through the four marks: the proof has no axis."""


# -- files ---------------------------------------------------------------------

class SchemaError(PlanecodeError):
    exit_code = 6
