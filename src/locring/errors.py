"""Exception types shared across the library."""


class LocringError(Exception):
    """Base class for all library errors."""


class DivisionByZero(LocringError):
    pass


class FieldMismatch(LocringError):
    pass


class RingMismatch(LocringError):
    pass


class ZeroPolynomial(LocringError):
    pass


class VariableClash(LocringError):
    pass


class ParseError(LocringError):
    def __init__(self, message, position=None):
        super().__init__(message if position is None else f"{message} (at position {position})")
        self.position = position


class BudgetExceeded(LocringError):
    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class ZeroColon(LocringError):
    pass


class UnitIdeal(LocringError):
    pass


class NoStabilization(LocringError):
    pass


class NotArtinianLocally(LocringError):
    pass


class NotFound(LocringError):
    pass


class NotGorenstein(LocringError):
    """R is not Gorenstein, so the delta criteria need not agree."""


class InternalInconsistency(LocringError):
    pass
