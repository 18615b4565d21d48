"""Exception types shared across the package."""


class DialnetError(Exception):
    """Base class for all errors raised by this package."""


class TagMismatch(DialnetError):
    """An operation was applied to values from different lineales."""


class InvalidValue(DialnetError):
    """A payload violates the invariants of its lineale (range, type, shape)."""


class ValueSyntaxError(DialnetError):
    """A value string does not parse under the target lineale's syntax."""


class UnknownLineale(DialnetError):
    """A lineale tag names no registered instance."""


class ShapeMismatch(DialnetError):
    """Carriers, tables, or matrices do not line up dimensionally."""


class CapExceeded(DialnetError):
    """A constructed carrier would exceed the fixed size cap.

    Exponential and product carriers grow fast; the cap keeps explicit
    enumeration tractable and this error reports how large a cap the
    construction would have needed.
    """

    def __init__(self, required: int, cap: int, what: str = "carrier", unit: str = "elements"):
        self.required = required
        self.cap = cap
        super().__init__(f"{what} needs {required} {unit}, cap is {cap}")


class InvalidMorphism(DialnetError):
    """A candidate morphism fails its pointwise order condition."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__(f"morphism condition violated at {len(self.violations)} point(s)")


class DocumentSyntaxError(DialnetError):
    """A net or morphism document is not well-formed (JSON shape, missing keys)."""


class DocumentSemanticError(DialnetError):
    """A well-formed document refers to unknown labels or carries invalid values."""
