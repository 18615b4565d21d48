"""Value-level tests for the lineale instances.

Every expected number here was worked out by hand from the definitions
(order, monoid, residual) before the implementation existed, so the
tables below act as an independent oracle for the instance code.
"""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dialnet import (
    BOOL2,
    INT,
    KLEENE3,
    NAT,
    PROB,
    InvalidValue,
    Lineale,
    LinealeValue,
    TagMismatch,
    UnknownLineale,
    ValueSyntaxError,
    format_value,
    get_lineale,
    product_lineale,
)
from dialnet.lineale import MAX_PRODUCT_FACTORS, format_payload


def payload(v):
    return v.payload


# ---------------------------------------------------------------------------
# bool2: truth values under conjunction
# ---------------------------------------------------------------------------


def test_bool2_truth_tables():
    t, f = BOOL2.value(True), BOOL2.value(False)
    assert BOOL2.unit_payload == t.payload
    assert payload(BOOL2.tensor(t, t)) is True
    assert payload(BOOL2.tensor(t, f)) is False
    assert payload(BOOL2.tensor(f, f)) is False
    # implication: false only at true -> false
    assert payload(BOOL2.imp(t, f)) is False
    assert payload(BOOL2.imp(f, f)) is True
    assert payload(BOOL2.imp(f, t)) is True
    assert payload(BOOL2.imp(t, t)) is True
    assert BOOL2.leq(f, t)
    assert not BOOL2.leq(t, f)


def test_bool2_adjunction_exhaustive():
    vals = [BOOL2.value(False), BOOL2.value(True)]
    for a in vals:
        for b in vals:
            for c in vals:
                assert BOOL2.leq(BOOL2.tensor(b, c), a) == BOOL2.leq(
                    b, BOOL2.imp(c, a)
                )


# ---------------------------------------------------------------------------
# kleene3: three truth values under min
# ---------------------------------------------------------------------------


def test_kleene3_tables():
    m1, z, p1 = (KLEENE3.value(p) for p in (-1, 0, 1))
    assert KLEENE3.unit_payload == p1.payload
    assert payload(KLEENE3.tensor(z, p1)) == 0
    assert payload(KLEENE3.tensor(z, m1)) == -1
    # a <= b gives top, otherwise the consequent
    assert payload(KLEENE3.imp(z, m1)) == -1
    assert payload(KLEENE3.imp(p1, z)) == 0
    assert payload(KLEENE3.imp(m1, m1)) == 1
    assert payload(KLEENE3.imp(m1, p1)) == 1
    assert payload(KLEENE3.imp(z, p1)) == 1
    assert KLEENE3.leq(m1, z) and KLEENE3.leq(z, p1)
    assert not KLEENE3.leq(p1, z)


def test_kleene3_adjunction_all_27():
    vals = [KLEENE3.value(p) for p in (-1, 0, 1)]
    checked = 0
    for a in vals:
        for b in vals:
            for c in vals:
                lhs = KLEENE3.leq(KLEENE3.tensor(b, c), a)
                rhs = KLEENE3.leq(b, KLEENE3.imp(c, a))
                assert lhs == rhs, (a, b, c)
                checked += 1
    assert checked == 27


def test_kleene3_rejects_outsiders():
    with pytest.raises(InvalidValue):
        KLEENE3.value(5)
    with pytest.raises(InvalidValue):
        KLEENE3.value(True)  # bools are not carrier elements
    with pytest.raises(InvalidValue):
        KLEENE3.parse("5")


# ---------------------------------------------------------------------------
# nat: counting weights, order reversed so "smaller or equal" means covers
# ---------------------------------------------------------------------------


def test_nat_order_is_reversed():
    assert NAT.leq(NAT.value(3), NAT.value(2))
    assert not NAT.leq(NAT.value(2), NAT.value(3))
    assert NAT.leq(NAT.value(5), NAT.value(5))


def test_nat_monoid_and_residual():
    assert payload(NAT.tensor(NAT.value(2), NAT.value(3))) == 5
    assert NAT.unit_payload == NAT.value(0).payload
    # truncated subtraction: imp(a, b) = max(b - a, 0)
    assert payload(NAT.imp(NAT.value(3), NAT.value(5))) == 2
    assert payload(NAT.imp(NAT.value(5), NAT.value(3))) == 0
    assert payload(NAT.imp(NAT.value(0), NAT.value(7))) == 7


def test_nat_rejects_negatives():
    with pytest.raises(InvalidValue):
        NAT.value(-1)
    with pytest.raises(ValueSyntaxError):
        NAT.parse("x")


@given(st.integers(0, 1000), st.integers(0, 1000), st.integers(0, 1000))
def test_nat_adjunction_property(a, b, c):
    va, vb, vc = NAT.value(a), NAT.value(b), NAT.value(c)
    assert NAT.leq(NAT.tensor(vb, vc), va) == NAT.leq(vb, NAT.imp(vc, va))


# ---------------------------------------------------------------------------
# int: additive group, usual order, built through the po-group construction
# ---------------------------------------------------------------------------


def test_int_is_a_pogroup_lineale():
    assert payload(INT.imp(INT.value(5), INT.value(3))) == -2
    assert payload(INT.imp(INT.value(-2), INT.value(4))) == 6
    assert payload(INT.tensor(INT.value(-3), INT.value(10))) == 7
    assert INT.leq(INT.value(-1), INT.value(0))
    assert not INT.leq(INT.value(1), INT.value(0))


def test_int_rejects_bool_payload():
    with pytest.raises(InvalidValue):
        INT.value(True)


@given(st.integers(-500, 500), st.integers(-500, 500), st.integers(-500, 500))
def test_int_adjunction_property(a, b, c):
    va, vb, vc = INT.value(a), INT.value(b), INT.value(c)
    assert INT.leq(INT.tensor(vb, vc), va) == INT.leq(vb, INT.imp(vc, va))


# ---------------------------------------------------------------------------
# prob: exact rationals in [0, 1] under multiplication
# ---------------------------------------------------------------------------


def test_prob_values_are_exact():
    half = PROB.value(Fraction(1, 2))
    third = PROB.value(Fraction(1, 3))
    assert payload(PROB.tensor(half, third)) == Fraction(1, 6)
    assert PROB.unit_payload == PROB.value(Fraction(1)).payload


def test_prob_residual_cases():
    zero = PROB.value(Fraction(0))
    quarter = PROB.value(Fraction(1, 4))
    half = PROB.value(Fraction(1, 2))
    assert payload(PROB.imp(zero, quarter)) == 1  # vacuous antecedent
    assert payload(PROB.imp(quarter, half)) == 1  # already below
    assert payload(PROB.imp(half, quarter)) == Fraction(1, 2)


def test_prob_rejects_floats_and_outsiders():
    with pytest.raises(InvalidValue):
        PROB.value(0.5)
    with pytest.raises(InvalidValue):
        PROB.value(Fraction(3, 2))
    with pytest.raises(InvalidValue):
        PROB.parse("2")


@given(
    st.fractions(0, 1, max_denominator=20),
    st.fractions(0, 1, max_denominator=20),
    st.fractions(0, 1, max_denominator=20),
)
def test_prob_adjunction_property(a, b, c):
    va, vb, vc = PROB.value(a), PROB.value(b), PROB.value(c)
    assert PROB.leq(PROB.tensor(vb, vc), va) == PROB.leq(vb, PROB.imp(vc, va))


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------


def test_product_componentwise():
    prod = product_lineale(PROB, INT)
    assert prod.tag == "prod(prob,int)"
    x = prod.parse("(1/2,-3)")
    y = prod.parse("(1/2,5)")
    assert format_value(prod.tensor(x, y)) == "(1/4,2)"
    assert format_payload(prod.unit_payload) == "(1,0)"
    assert prod.leq(x, y)  # 1/2 <= 1/2 and -3 <= 5
    assert not prod.leq(y, x)


def test_product_order_needs_both_components():
    prod = product_lineale(PROB, INT)
    lo = prod.parse("(1/4,5)")
    hi = prod.parse("(1/2,-3)")
    assert not prod.leq(lo, hi)  # first ok, second fails
    assert not prod.leq(hi, lo)  # second ok, first fails


def test_registry_builds_products_recursively():
    assert get_lineale("prob") is PROB
    assert get_lineale("prod(prob,int)").tag == "prod(prob,int)"
    nested = get_lineale("prod(prod(bool2,nat),int)")
    assert nested.tag == "prod(prod(bool2,nat),int)"
    v = nested.parse("((true,4),-1)")
    assert format_value(v) == "((true,4),-1)"


def test_unknown_tag():
    with pytest.raises(UnknownLineale):
        get_lineale("frob")


def _balanced_tag(leaves: int) -> str:
    if leaves == 1:
        return "bool2"
    half = leaves // 2
    return f"prod({_balanced_tag(half)},{_balanced_tag(leaves - half)})"


def test_product_tags_name_a_bounded_number_of_factors():
    import tracemalloc

    at_limit = get_lineale(_balanced_tag(MAX_PRODUCT_FACTORS))
    assert len(at_limit._carrier) == 2**MAX_PRODUCT_FACTORS
    deep = "prod(bool2," * 2000 + "bool2" + ")" * 2000
    tracemalloc.start()
    try:
        for tag in (deep, _balanced_tag(32), _balanced_tag(MAX_PRODUCT_FACTORS + 1)):
            with pytest.raises(UnknownLineale, match="more than"):
                get_lineale(tag)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # refused before any factor or carrier is built
    assert peak < 256 * 1024


# ---------------------------------------------------------------------------
# cross-cutting plumbing
# ---------------------------------------------------------------------------


def test_tag_mismatch_is_refused():
    with pytest.raises(TagMismatch):
        BOOL2.tensor(BOOL2.value(True), NAT.value(2))
    with pytest.raises(TagMismatch):
        NAT.leq(NAT.value(1), INT.value(1))


def sample(lin, seed, bound):
    return LinealeValue(lin.tag, lin._sample(random.Random(seed), bound))


def test_sampling_is_deterministic():
    for lin in (BOOL2, KLEENE3, NAT, INT, PROB, get_lineale("prod(prob,int)")):
        assert sample(lin, 42, 16) == sample(lin, 42, 16)
        lin._validate(sample(lin, 42, 16).payload)


def test_sampling_honors_the_size_bound():
    for seed in range(50):
        assert sample(PROB, seed, 8).payload.denominator <= 8
        assert sample(NAT, seed, 9).payload <= 9
        assert abs(sample(INT, seed, 9).payload) <= 9


def test_finite_carriers():
    assert len(BOOL2._carrier) == 2
    assert len(KLEENE3._carrier) == 3
    assert NAT._carrier is None
    prod = product_lineale(BOOL2, KLEENE3)
    assert len(prod._carrier) == 6


@given(st.integers(-10**6, 10**6))
def test_int_format_parse_roundtrip(n):
    v = INT.value(n)
    assert INT.parse(format_value(v)) == v


@given(st.fractions(0, 1, max_denominator=997))
def test_prob_format_parse_roundtrip(q):
    v = PROB.value(q)
    assert PROB.parse(format_value(v)) == v


def test_format_value_canonical_forms():
    assert format_value(BOOL2.value(True)) == "true"
    assert format_value(NAT.value(7)) == "7"
    assert format_value(PROB.value(Fraction(1))) == "1"  # integral rationals bare
    assert format_value(PROB.value(Fraction(2, 4))) == "1/2"


# the laws-workload lineales plus a nested product
PAYLOAD_TAGS = (
    "bool2",
    "kleene3",
    "nat",
    "int",
    "prob",
    "prod(prob,int)",
    "prod(bool2,kleene3)",
    "prod(prod(bool2,nat),int)",
)


def by_factors(lin, op, p, q):
    """op on two payloads, computed with the public methods of the base factors."""
    if lin.factors is None:
        r = getattr(lin, op)(lin.value(p), lin.value(q))
        return r if op == "leq" else r.payload
    f1, f2 = lin.factors
    first, second = by_factors(f1, op, p[0], q[0]), by_factors(f2, op, p[1], q[1])
    return (first and second) if op == "leq" else (first, second)


@given(st.sampled_from(PAYLOAD_TAGS), st.integers(0, 2**32))
def test_payload_ops_agree_with_public_ops(tag, seed):
    lin = get_lineale(tag)
    rng = random.Random(seed)
    p, q = lin._sample(rng, 6), lin._sample(rng, 6)
    a, b = LinealeValue(lin.tag, p), LinealeValue(lin.tag, q)
    assert lin._leq(p, q) == lin.leq(a, b) == by_factors(lin, "leq", p, q)
    assert lin._tensor(p, q) == lin.tensor(a, b).payload == by_factors(lin, "tensor", p, q)
    assert lin._imp(p, q) == lin.imp(a, b).payload == by_factors(lin, "imp", p, q)
    assert lin.parse(format_value(a)) == a
    assert lin.value(p) == a


def test_product_payloads_are_plain_pairs():
    prod = product_lineale(PROB, INT)
    assert prod.parse("(1/2,5)").payload == (Fraction(1, 2), 5)
    assert prod.unit_payload == (Fraction(1), 0)
    assert prod.value((0, 3)).payload == (Fraction(0), 3)  # components coerce
    assert product_lineale(BOOL2, KLEENE3)._carrier[0] == (False, -1)
    with pytest.raises(InvalidValue):
        prod.value((PROB.value(Fraction(1, 2)), INT.value(5)))  # not payloads


def test_unwrap_checks_the_tag():
    assert NAT.unwrap(NAT.value(3)) == 3
    with pytest.raises(TagMismatch):
        NAT.unwrap(INT.value(3))
    with pytest.raises(TagMismatch):
        NAT.unwrap(3)


def test_echo_quotes_a_short_text_whole_and_a_long_one_bounded():
    from ast import literal_eval

    from dialnet.lineale import _echo

    for text in ("", "x", "'\"", "x" * 60, "\x00" * 60):
        assert _echo(text) == repr(text)
    assert _echo("x" * 61) == repr("x" * 60) + "… (61 characters)"
    # escapes spell a character in several, and the head is cut to fit
    for text in ("\x00" * 61, "\U000e0001" * 500, "'" * 30 + '"' * 70):
        shown = _echo(text)
        head, tail = shown.rsplit("… ", 1)
        assert tail == f"({len(text)} characters)" and len(head) <= 62
        assert text.startswith(literal_eval(head)) and literal_eval(head)


@pytest.mark.parametrize(
    "payload", [None, object(), [1], "1", 1.5], ids=["none", "object", "list", "str", "float"]
)
def test_format_payload_refuses_a_payload_no_lineale_holds(payload):
    from dialnet.lineale import format_payload

    with pytest.raises(InvalidValue, match="unprintable payload"):
        format_payload(payload)


HUGE_INT = 10**5000  # over the 4,300 digits Python writes an int in as text
TOO_LONG = f"with a number of over {sys.get_int_max_str_digits()} digits"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: BOOL2.value(HUGE_INT), f"bool2 payload must be a bool, got int {TOO_LONG}"),
        (lambda: KLEENE3.value(HUGE_INT), f"kleene3 payload must be -1, 0 or 1, got int {TOO_LONG}"),
        (lambda: NAT.value(-HUGE_INT), f"nat payload must be nonnegative, got int {TOO_LONG}"),
        (lambda: INT.value([HUGE_INT]), f"int payload must be an int, got list {TOO_LONG}"),
        (lambda: PROB.value(Fraction(HUGE_INT, 3)), f"prob payload must lie in [0, 1], got Fraction {TOO_LONG}"),
        (lambda: get_lineale("prod(nat,int)").value(HUGE_INT), f"prod(nat,int) payload must be a pair, got int {TOO_LONG}"),
        (lambda: format_payload([HUGE_INT]), f"unprintable payload list {TOO_LONG}"),
        # a payload that writes as text is named as before
        (lambda: NAT.value(-5), "nat payload must be nonnegative, got -5"),
        (lambda: PROB.value(Fraction(3, 2)), "prob payload must lie in [0, 1], got 3/2"),
        (lambda: KLEENE3.value(2), "kleene3 payload must be -1, 0 or 1, got 2"),
        (lambda: BOOL2.value("yes"), "bool2 payload must be a bool, got 'yes'"),
    ],
    ids=["bool2", "kleene3", "nat", "int", "prob", "product", "format_payload",
         "short-nat", "short-prob", "short-kleene3", "short-bool2"],
)
def test_a_payload_too_long_to_write_is_an_invalid_value(call, message):
    with pytest.raises(InvalidValue) as e:
        call()
    assert str(e.value) == message
