"""The nine record types: immutable, equal only to their own kind, hashed by
their fields.

Seven of them are NamedTuples and so tuples too; a tuple compares equal to
any tuple with equal items, and a LinealeValue could pass for a product's
payload pair.  These tests pin that neither happens.
"""

import copy
import pickle
from typing import NamedTuple

import pytest

from dialnet import (
    BOOL2,
    KLEENE3,
    NAT,
    DialMorphism,
    DialObject,
    FinSet,
    FnTable,
    InvalidValue,
    Lineale,
    LinealeValue,
    MorphismDocument,
    NetDocument,
    PetriNet,
    build_example,
    example_path,
    get_lineale,
    identity,
    parse_net_document,
    product_lineale,
)
from dialnet.lineale import format_payload
from dialnet.netdoc import read_text
from dialnet.record import record


def _records():
    """One record of each type, and the name of one of its fields."""
    obj = DialObject(NAT, FinSet(1), FinSet(2), (0, 1))
    doc = parse_net_document(read_text(example_path("water")))
    return [
        (FinSet(2, ("a", "b")), "size"),
        (FnTable(FinSet(2), FinSet(2), (1, 0)), "table"),
        (NAT.value(3), "payload"),
        (NAT, "tag"),
        (build_example("water"), "default"),
        (doc, "lineale"),
        (MorphismDocument(doc, "water.net", (("H2", "H2"),), (("t", "t"),)), "source"),
        (obj, "cells"),
        (identity(obj), "fwd"),
    ]


RECORDS = _records()
IDS = [type(r).__name__ for r, _ in RECORDS]
TUPLES = [r for r, _ in RECORDS if isinstance(r, tuple)]


def test_there_is_one_record_of_each_type():
    types = {FinSet, FnTable, LinealeValue, Lineale, PetriNet, NetDocument, MorphismDocument}
    assert {type(r) for r, _ in RECORDS} == types | {DialObject, DialMorphism}
    assert len(TUPLES) == 7


@pytest.mark.parametrize("rec, field", RECORDS, ids=IDS)
def test_a_field_cannot_be_assigned(rec, field):
    before = getattr(rec, field)
    with pytest.raises(AttributeError):
        setattr(rec, field, "bogus")
    assert getattr(rec, field) is before


@pytest.mark.parametrize("rec, field", RECORDS, ids=IDS)
def test_a_copy_is_built_through_the_constructor(rec, field):
    for twin in (copy.copy(rec), copy.deepcopy(rec)):
        assert type(twin) is type(rec) and twin == rec and getattr(twin, field) == getattr(rec, field)
    if type(rec) in (FinSet, FnTable, LinealeValue, NetDocument, MorphismDocument):
        assert pickle.loads(pickle.dumps(rec)) == rec  # the others hold a lineale's lambdas


def test_a_lineale_keeps_its_tag_and_its_hash():
    h = hash(NAT)
    with pytest.raises(AttributeError):
        NAT.tag = "bogus"
    with pytest.raises(AttributeError):
        del NAT._leq
    assert get_lineale("nat") is NAT and NAT.tag == "nat" and hash(NAT) == h


# (a, b) pairs, equal and unequal, of the records whose equality is not field-wise
NE_PAIRS = [
    (NAT, Lineale("nat", 0, *(getattr(KLEENE3, f) for f in Lineale.__slots__[2:]))),
    (NAT, KLEENE3),
    (FinSet(2, ("a", "b")), FinSet(2)),
    (FinSet(2, ("a", "b")), FinSet(3, ("a", "b", "c"))),
    (build_example("water"), build_example("water")),
    (build_example("water"), build_example("sir")),
]


@pytest.mark.parametrize("a, b", NE_PAIRS)
def test_not_equal_is_the_negation_of_equal(a, b):
    assert (a != b) is (not a == b)
    assert (b != a) is (not b == a)
    assert (a == b) is (b == a)


def test_the_pairs_hold_equal_and_unequal_records():
    assert [a == b for a, b in NE_PAIRS] == [True, False] * 3
    assert NE_PAIRS[0][1]._leq is KLEENE3._leq


@pytest.mark.parametrize("rec", TUPLES, ids=[type(r).__name__ for r in TUPLES])
def test_a_record_equals_no_plain_tuple_and_no_record_of_another_type(rec):
    fields = tuple(rec)
    twin_type = record(NamedTuple(type(rec).__name__, [(f, object) for f in rec._fields]))
    twin = twin_type(*fields)
    same = type(rec)(*fields)
    assert same == rec and not same != rec and hash(same) == hash(rec)
    for other in (fields, twin):
        assert rec != other and other != rec
        assert not rec == other and not other == rec


def test_the_slotted_records_equal_no_tuple_of_their_fields():
    s = FinSet(2)
    assert s != (2, None, None) and (2, None, None) != s and s != 2 and FinSet(2) != (2,)
    fields = tuple(getattr(NAT, f) for f in Lineale.__slots__)
    assert NAT != fields and fields != NAT and NAT != "nat"


def test_hashes_are_those_of_the_compared_fields():
    s, fn, net = RECORDS[0][0], RECORDS[1][0], RECORDS[4][0]
    assert hash(s) == hash((2,)) == hash(FinSet(2))
    assert hash(fn) == hash((fn.dom, fn.cod, fn.table))
    assert hash(net) == hash((net.lin, net.places, net.transitions, net.default))
    assert hash(NAT.value(3)) == hash(("nat", 3))


@pytest.mark.parametrize(
    "make, message",
    [
        (
            lambda: product_lineale(NAT, NAT).value(NAT.value(3)),
            "prod(nat,nat) payload must be a pair, got LinealeValue(tag='nat', payload=3)",
        ),
        (lambda: format_payload(NAT.value(3)), "unprintable payload LinealeValue(tag='nat', payload=3)"),
        (
            lambda: product_lineale(NAT, NAT).value((NAT.value(1), NAT.value(2))),
            "nat payload must be an int, got LinealeValue(tag='nat', payload=1)",
        ),
    ],
)
def test_a_value_is_not_taken_for_a_payload_pair(make, message):
    with pytest.raises(InvalidValue) as e:
        make()
    assert str(e.value) == message


def test_a_product_still_takes_a_list_or_a_tuple_for_its_pair():
    lin = product_lineale(BOOL2, NAT)
    assert lin.value([True, 2]) == lin.value((True, 2)) == LinealeValue(lin.tag, (True, 2))
    assert format_payload((True, 2)) == "(true,2)"
