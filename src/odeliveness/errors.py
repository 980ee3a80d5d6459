"""Shared exception types for the verifier."""


class OdelivError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(OdelivError):
    """Syntax error in a problem file, with source position and expected set."""

    def __init__(self, message, line, col, expected=()):
        self.line = line
        self.col = col
        self.expected = tuple(expected)
        hint = f" (expected one of: {', '.join(self.expected)})" if self.expected else ""
        super().__init__(f"{line}:{col}: {message}{hint}")


class DuplicateDeclaration(OdelivError):
    pass


class UnknownIdentifier(OdelivError):
    def __init__(self, name, line=None, col=None):
        self.name = name
        pos = f" at {line}:{col}" if line is not None else ""
        super().__init__(f"unknown identifier '{name}'{pos}")


class UnknownVariable(OdelivError):
    """A polynomial mentions an identifier not declared for the ODE system."""


class MissingBinding(OdelivError):
    """Evaluation point does not cover every identifier of the polynomial."""


class PowNegativeExponent(OdelivError):
    pass


class DegreeCapExceeded(OdelivError):
    """Polynomial degree guard tripped (runaway certificate)."""


class ShapeMismatch(OdelivError):
    """A proof step was applied to a sequent of the wrong shape."""


class NoClock(OdelivError):
    pass


class NonConstantBound(OdelivError):
    """Existence axiom time bound mentions ODE state variables."""


class ClockNotFresh(OdelivError):
    pass


class TopoUnknown(OdelivError):
    """Topological side condition could not be certified."""


class MissingCertificateField(OdelivError):
    pass


class UnreadBinding(MissingCertificateField):
    """A certificate binds keys its rule never reads, a misspelt one say."""

    def __init__(self, rule, keys):
        self.keys = tuple(keys)
        super().__init__(f"rule {rule} reads no binding named " + " or ".join(map(repr, self.keys)))


class HintMismatch(OdelivError):
    """An invariance hint does not apply to the obligation at hand."""


class RuleRefused(OdelivError):
    """A derived rule refused to fire; `gate` names the failed side condition."""

    def __init__(self, gate, detail=""):
        self.gate = gate
        self.detail = detail
        msg = f"RuleRefused({gate})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class UnsamplableInitSet(OdelivError):
    pass


class InsufficientSamples(OdelivError):
    pass


class NestingTooDeep(OdelivError):
    """A formula is nested too deeply to be compiled to Python."""


class InvalidArgument(OdelivError):
    """A command-line or API argument, or a number in a problem, is malformed or out of range."""
