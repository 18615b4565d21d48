"""Lineales: partially ordered commutative monoids with a residual implication.

A lineale bundles a carrier, a partial order, a monoidal product with unit,
and an implication that is right adjoint to the product:

    tensor(b, c) <= a   iff   b <= imp(c, a)

Weights on net arcs live in one of five fixed lineales -- truth values
(bool2, kleene3), multiplicities (nat), integer thresholds (int), and
probabilities (prob) -- or in a finite product of them, all commutative.

Values are immutable and tagged; operations never coerce between
lineales -- applying an operation to values of different tags raises
:class:`~dialnet.errors.TagMismatch`.  The underscored operations act on
bare payloads (a product's is a plain pair), which is how objects store weights.
"""

from __future__ import annotations

import random
import re
import sys
from decimal import Decimal
from fractions import Fraction
from typing import Any, Callable, NamedTuple, Optional

from .errors import (
    CapExceeded,
    InvalidValue,
    TagMismatch,
    UnknownLineale,
    ValueSyntaxError,
)
from .record import Frozen, record

__all__ = [
    "LinealeValue",
    "Lineale",
    "product_lineale",
    "get_lineale",
    "format_value",
    "format_payload",
    "BOOL2",
    "KLEENE3",
    "NAT",
    "INT",
    "PROB",
    "MAX_PRODUCT_FACTORS",
]

@record
class LinealeValue(NamedTuple):
    """An element of a lineale: a tag naming the lineale plus a payload.

    Payloads by tag: ``bool2`` holds a bool, ``kleene3`` an int in
    {-1, 0, 1}, ``nat`` a nonnegative int, ``int`` an int, ``prob`` a
    Fraction in [0, 1] (kept in lowest terms by construction), and
    product lineales hold a plain pair of component payloads.
    """

    tag: str
    payload: Any

    def __str__(self) -> str:
        return format_value(self)


class Lineale(Frozen):
    """A lineale instance: the order, product, unit, and implication.

    Instances are immutable records of payload-level operations, equal
    when their tags are; the fields (unit_payload, _carrier, _sample, ...)
    are the API.  value, unwrap and parse cross the tagged edge of
    :class:`LinealeValue`, and leq, tensor and imp enforce that both
    arguments carry this instance's tag.  ``__slots__`` lists the fields
    in constructor order.
    """

    __slots__ = ("tag", "unit_payload", "_leq", "_tensor", "_imp", "_sample", "_validate",
                 "_parse", "_coerce", "_carrier", "factors")

    def __init__(self, tag: str, unit_payload: Any, _leq: Callable[[Any, Any], bool],
                 _tensor: Callable[[Any, Any], Any], _imp: Callable[[Any, Any], Any],
                 _sample: Callable[[random.Random, int], Any], _validate: Callable[[Any], None],
                 _parse: Callable[[str], Any], _coerce: Callable[[Any], Any] = lambda p: p,
                 _carrier: Optional[tuple] = None, factors: Optional[tuple[Lineale, Lineale]] = None):
        fields = (tag, unit_payload, _leq, _tensor, _imp, _sample, _validate, _parse, _coerce,
                  _carrier, factors)
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def __repr__(self) -> str:
        return f"Lineale({self.tag!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Lineale) and other.tag == self.tag

    def __hash__(self) -> int:
        return hash(("Lineale", self.tag))

    # -- value construction -------------------------------------------------

    def value(self, payload: Any) -> LinealeValue:
        """Wrap a payload as a value of this lineale, validating invariants."""
        p = self._coerce(payload)
        self._validate(p)
        return LinealeValue(self.tag, p)

    def unwrap(self, v: LinealeValue) -> Any:
        """The payload of a value of this lineale; TagMismatch for any other value."""
        if not isinstance(v, LinealeValue) or v.tag != self.tag:
            got = v.tag if isinstance(v, LinealeValue) else type(v).__name__
            raise TagMismatch(f"expected a {self.tag} value, got {got}")
        return v.payload

    # -- the four operations ------------------------------------------------

    def leq(self, a: LinealeValue, b: LinealeValue) -> bool:
        """Whether a precedes b in this lineale's partial order."""
        return self._leq(self.unwrap(a), self.unwrap(b))

    def tensor(self, a: LinealeValue, b: LinealeValue) -> LinealeValue:
        """Monoidal product of two values."""
        return LinealeValue(self.tag, self._tensor(self.unwrap(a), self.unwrap(b)))

    def imp(self, a: LinealeValue, b: LinealeValue) -> LinealeValue:
        """Internal hom: the largest c with tensor(c, a) below b."""
        return LinealeValue(self.tag, self._imp(self.unwrap(a), self.unwrap(b)))

    # -- text syntax ----------------------------------------------------------

    def parse(self, text: str) -> LinealeValue:
        """Parse the textual value syntax for this lineale."""
        return LinealeValue(self.tag, self._parse_payload(text))

    def _parse_payload(self, text: str) -> Any:
        payload = self._parse(text.strip())
        self._validate(payload)
        return payload


def format_value(v: LinealeValue) -> str:
    """Canonical text for a value; the inverse of each lineale's parse."""
    return format_payload(v.payload)


def format_payload(p: Any) -> str:
    """Canonical text for a bare payload, as format_value gives its value."""
    if isinstance(p, bool):
        return "true" if p else "false"
    if isinstance(p, (int, Fraction)):  # a Fraction writes as n/d, or n when d is 1
        try:
            return str(p)
        except ValueError:  # a number with more digits than Python writes as text
            digits = max(Decimal(n).adjusted() + 1 for n in (p.numerator, p.denominator))
            raise CapExceeded(digits, sys.get_int_max_str_digits(), "weight text", "digits") from None
    if type(p) is tuple:  # a product's plain pair, not a LinealeValue
        return f"({format_payload(p[0])},{format_payload(p[1])})"
    raise InvalidValue(f"unprintable payload {_shown_payload(p)}")


# --------------------------------------------------------------------------
# Concrete instances
# --------------------------------------------------------------------------


def _echo(text: str, limit: int = 60) -> str:
    """repr(text) for an error message; a text over limit bytes of UTF-8 shows
    as the repr of a head that fits in limit bytes, and its length."""
    head, long = text[:limit], len(text.encode("utf-8", "surrogatepass")) > limit
    while long and len(repr(head).encode()) > limit + 2:  # an escape or a wide character takes several
        head = head[:-1]
    return repr(text) if head == text else f"{head!r}… ({len(text)} characters)"


def _shown(text: str, limit: int = 60) -> str:
    """text as it is when it fits in limit bytes of UTF-8, else quoted and cut by _echo."""
    return text if len(text.encode("utf-8", "surrogatepass")) <= limit else _echo(text, limit)


def _shown_payload(p, text=repr) -> str:
    """_shown(text(p)), or its type for a payload holding a number too long for text."""
    try:
        return _shown(text(p))
    except ValueError:  # a number over int's limit of digits in text
        return f"{type(p).__name__} with a number of over {sys.get_int_max_str_digits()} digits"


def _parse_int(text: str) -> int:
    try:
        return int(text, 10)
    except ValueError:
        if re.fullmatch(r"\s*[+-]?\d+(?:_\d+)*\s*", text):  # int's syntax, so only too long
            digits, limit = sum(map(str.isdecimal, text)), sys.get_int_max_str_digits()
            raise ValueSyntaxError(f"integer of {digits} digits, over the limit of {limit}") from None
        raise ValueSyntaxError(f"not an integer: {_echo(text)}") from None


def _bool2() -> Lineale:
    def validate(p):
        if not isinstance(p, bool):
            raise InvalidValue(f"bool2 payload must be a bool, got {_shown_payload(p)}")

    def parse(text):
        if text == "true":
            return True
        if text == "false":
            return False
        raise ValueSyntaxError(f"not a bool2 value: {_echo(text)}")

    return Lineale(
        tag="bool2",
        unit_payload=True,
        _leq=lambda a, b: (not a) or b,
        _tensor=lambda a, b: a and b,
        _imp=lambda a, b: (not a) or b,
        _sample=lambda rng, bound: rng.random() < 0.5,
        _validate=validate,
        _parse=parse,
        _carrier=(False, True),
    )


def _kleene3() -> Lineale:
    def validate(p):
        if type(p) is not int or p not in (-1, 0, 1):
            raise InvalidValue(f"kleene3 payload must be -1, 0 or 1, got {_shown_payload(p)}")

    return Lineale(
        tag="kleene3",
        unit_payload=1,
        _leq=lambda a, b: a <= b,
        _tensor=min,
        _imp=lambda a, b: 1 if a <= b else b,
        _sample=lambda rng, bound: rng.choice((-1, 0, 1)),
        _validate=validate,
        _parse=_parse_int,
        _carrier=(-1, 0, 1),
    )


def _nat() -> Lineale:
    # Order is the reverse of the numeric one: 3 precedes 2.  The product
    # is addition, so "smaller" in the lineale means "needs more".
    def validate(p):
        if type(p) is not int:
            raise InvalidValue(f"nat payload must be an int, got {_shown_payload(p)}")
        if p < 0:
            raise InvalidValue(f"nat payload must be nonnegative, got {_shown_payload(p, str)}")

    return Lineale(
        tag="nat",
        unit_payload=0,
        _leq=lambda a, b: a >= b,
        _tensor=lambda a, b: a + b,
        _imp=lambda a, b: max(b - a, 0),
        _sample=lambda rng, bound: rng.randint(0, bound),
        _validate=validate,
        _parse=_parse_int,
    )


def _prob() -> Lineale:
    one = Fraction(1)

    def coerce(p):
        if isinstance(p, float):
            raise InvalidValue(
                "prob payloads are exact rationals; pass a Fraction, not a float"
            )
        if isinstance(p, int) and not isinstance(p, bool):
            return Fraction(p)
        return p

    def validate(p):
        if not isinstance(p, Fraction):
            raise InvalidValue(f"prob payload must be a Fraction, got {_shown_payload(p)}")
        if not 0 <= p <= 1:
            raise InvalidValue(f"prob payload must lie in [0, 1], got {_shown_payload(p, str)}")

    def imp(a, b):
        if a == 0 or a < b:
            return one
        return b / a

    def parse(text):
        if "/" in text:
            num_s, _, den_s = text.partition("/")
            num, den = _parse_int(num_s), _parse_int(den_s)
            if den == 0:
                raise ValueSyntaxError(f"zero denominator in {_echo(text)}")
            return Fraction(num, den)
        return Fraction(_parse_int(text))

    def draw(rng, bound):
        den = rng.randint(1, bound)
        return Fraction(rng.randint(0, den), den)

    return Lineale(
        tag="prob",
        unit_payload=one,
        _leq=lambda a, b: a <= b,
        _tensor=lambda a, b: a * b,
        _imp=imp,
        _sample=draw,
        _coerce=coerce,
        _validate=validate,
        _parse=parse,
    )


def _int() -> Lineale:
    # a partially ordered group: imp(a, b) = tensor(b, inverse(a)) = b - a
    def validate(p):
        if type(p) is not int:
            raise InvalidValue(f"int payload must be an int, got {_shown_payload(p)}")

    return Lineale(
        tag="int",
        unit_payload=0,
        _leq=lambda a, b: a <= b,
        _tensor=lambda a, b: a + b,
        _imp=lambda a, b: b - a,
        _sample=lambda rng, bound: rng.randint(-bound, bound),
        _validate=validate,
        _parse=_parse_int,
    )


def _top_level_comma(text: str) -> int:
    """Index of the first comma outside every parenthesis, or -1."""
    depth = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            return i
    return -1


def product_lineale(first: Lineale, second: Lineale) -> Lineale:
    """The componentwise lineale on pairs drawn from two factor lineales."""
    tag = f"prod({first.tag},{second.tag})"

    def validate(p):
        if not (type(p) is tuple and len(p) == 2):
            raise InvalidValue(f"{tag} payload must be a pair, got {_shown_payload(p)}")
        first._validate(p[0])
        second._validate(p[1])

    def coerce(p):
        if isinstance(p, (tuple, list)) and len(p) == 2 and type(p) is not LinealeValue:
            return (first._coerce(p[0]), second._coerce(p[1]))
        return p

    def leq(p, q):
        return first._leq(p[0], q[0]) and second._leq(p[1], q[1])

    def tensor(p, q):
        return (first._tensor(p[0], q[0]), second._tensor(p[1], q[1]))

    def imp(p, q):
        return (first._imp(p[0], q[0]), second._imp(p[1], q[1]))

    def draw(rng, bound):
        return (first._sample(rng, bound), second._sample(rng, bound))

    def parse(text):
        if not (text.startswith("(") and text.endswith(")")):
            raise ValueSyntaxError(f"not a pair value: {_echo(text)}")
        body = text[1:-1]
        split = _top_level_comma(body)
        if split < 0:
            raise ValueSyntaxError(f"missing top-level comma in pair: {_echo(text)}")
        return (
            first._parse_payload(body[:split]),
            second._parse_payload(body[split + 1 :]),
        )

    fc, sc = first._carrier, second._carrier
    carrier = None
    if fc is not None and sc is not None:
        carrier = tuple((a, b) for a in fc for b in sc)

    return Lineale(
        tag=tag,
        unit_payload=(first.unit_payload, second.unit_payload),
        _leq=leq,
        _tensor=tensor,
        _imp=imp,
        _sample=draw,
        _coerce=coerce,
        _validate=validate,
        _parse=parse,
        _carrier=carrier,
        factors=(first, second),
    )


BOOL2 = _bool2()
KLEENE3 = _kleene3()
NAT = _nat()
INT = _int()
PROB = _prob()

_BASE = {lin.tag: lin for lin in (BOOL2, KLEENE3, NAT, INT, PROB)}


# a product tag may name at most this many base lineales; a finite
# product's carrier is built eagerly and grows exponentially with them
MAX_PRODUCT_FACTORS = 8


def get_lineale(tag: str) -> Lineale:
    """Resolve a tag string, including nested ``prod(<tag>,<tag>)`` forms.

    A tag naming more than MAX_PRODUCT_FACTORS base lineales raises
    UnknownLineale before any factor is built.
    """
    tag = tag.strip()
    if tag in _BASE:
        return _BASE[tag]
    if tag.startswith("prod(") and tag.endswith(")"):
        # every base lineale after the first is preceded by a comma
        if tag.count(",") >= MAX_PRODUCT_FACTORS:
            raise UnknownLineale(
                f"product tag names more than {MAX_PRODUCT_FACTORS} base lineales"
            )
        body = tag[5:-1]
        i = _top_level_comma(body)
        if i < 0:
            raise UnknownLineale(f"malformed product tag: {_echo(tag)}")
        return product_lineale(get_lineale(body[:i]), get_lineale(body[i + 1 :]))
    raise UnknownLineale(f"unknown lineale tag: {_echo(tag)}")
