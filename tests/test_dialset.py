"""Objects are weighted relations, morphisms are forward/backward table
pairs under a pointwise order condition.  The small cases here were
worked out by hand; the law suites in test_laws.py do the heavy lifting.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from dialnet import (
    BOOL2,
    CapExceeded,
    DEFAULT_CAP,
    DialObject,
    FinSet,
    FnTable,
    InvalidMorphism,
    KLEENE3,
    NAT,
    ShapeMismatch,
    TagMismatch,
    Violation,
    associator,
    check_morphism,
    compose,
    curry_dial,
    dial_morphism,
    enumerate_morphisms,
    get_lineale,
    hom_mor,
    hom_obj,
    identity,
    inverse,
    left_unitor,
    oplus,
    oplus_copair,
    oplus_inl,
    oplus_inr,
    right_unitor,
    symmetry,
    tensor_mor,
    tensor_obj,
    tensor_unit,
    uncurry_dial,
    with_pairing,
    with_product,
    with_proj1,
    with_proj2,
)
import dialnet.dialset
from dialnet.dialset import _hom_counts, _hom_tables, _shared
from dialnet.laws import all_objects, random_morphism, random_object
import index_oracle
from index_oracle import fn_from_index, fn_pair_from_index

T = BOOL2.value(True)
F = BOOL2.value(False)

# objects store raw payloads, not tagged values
BOTTOM = DialObject(BOOL2, FinSet(1), FinSet(1), (False,))
TOP = DialObject(BOOL2, FinSet(1), FinSet(1), (True,))

ID1 = FnTable(FinSet(1), FinSet(1), (0,))


def nat_obj(rows):
    cells = tuple(NAT.value(v).payload for row in rows for v in row)
    return DialObject(NAT, FinSet(len(rows)), FinSet(len(rows[0])), cells)


def bool_obj(rows):
    cells = tuple(bool(v) for row in rows for v in row)
    return DialObject(BOOL2, FinSet(len(rows)), FinSet(len(rows[0])), cells)


def cell(o: DialObject, u: int, x: int):
    """The payload at (u, x) of o's row-major cells."""
    return o.cells[u * o.neg.size + x]


# ---------------------------------------------------------------------------
# objects
# ---------------------------------------------------------------------------


def test_object_shape_is_checked():
    with pytest.raises(ShapeMismatch):
        DialObject(BOOL2, FinSet(2), FinSet(1), (T,))
    with pytest.raises(ShapeMismatch):
        DialObject(BOOL2, FinSet(1), FinSet(2), (T,))
    # cells are payloads; a tagged value, of any lineale, is refused
    with pytest.raises(TagMismatch):
        DialObject(BOOL2, FinSet(1), FinSet(1), (NAT.value(1),))
    with pytest.raises(TagMismatch):
        DialObject(BOOL2, FinSet(1), FinSet(1), (T,))


def test_dial_object_tabulates():
    a = DialObject(NAT, FinSet(2), FinSet(3), tuple(range(6)))
    assert cell(a, 1, 2) == a.cells[5] == 5
    with pytest.raises(TagMismatch):
        DialObject(BOOL2, FinSet(1), FinSet(1), (NAT.value(1),))


# ---------------------------------------------------------------------------
# the morphism condition
# ---------------------------------------------------------------------------


def test_false_maps_into_true():
    assert check_morphism(BOTTOM, TOP, ID1, ID1) == []


def test_true_does_not_map_into_false():
    vs = check_morphism(TOP, BOTTOM, ID1, ID1)
    assert vs == [Violation(0, 0, T, F)]
    with pytest.raises(InvalidMorphism) as exc:
        dial_morphism(TOP, BOTTOM, ID1, ID1)
    assert "1 point(s)" in str(exc.value)


def test_nat_condition_uses_reversed_order():
    # covering weights: 3 sits below 2 in the lineale sense
    three, two = nat_obj([[3]]), nat_obj([[2]])
    assert check_morphism(three, two, ID1, ID1) == []
    assert len(check_morphism(two, three, ID1, ID1)) == 1


def test_condition_quantifies_over_target_negatives():
    # bwd picks the column of the source that each target column must beat
    src = bool_obj([[1, 0]])
    tgt = bool_obj([[1, 1]])
    fwd = ID1
    bwd_good = FnTable(FinSet(2), FinSet(2), (0, 0))
    bwd_bad = FnTable(FinSet(2), FinSet(2), (0, 1))
    assert check_morphism(src, tgt, fwd, bwd_good) == []
    assert check_morphism(src, tgt, fwd, bwd_bad) == []
    # flipping the direction makes column 1 fail
    assert len(check_morphism(tgt, src, fwd, bwd_bad)) == 1


def test_shape_and_tag_guards():
    with pytest.raises(ShapeMismatch):
        check_morphism(BOTTOM, TOP, FnTable(FinSet(2), FinSet(1), (0, 0)), ID1)
    with pytest.raises(TagMismatch):
        check_morphism(BOTTOM, nat_obj([[1]]), ID1, ID1)


def test_compose_and_identity():
    a, b = nat_obj([[4]]), nat_obj([[2]])
    m = dial_morphism(a, b, ID1, ID1)
    assert compose(m, identity(a)).fwd == m.fwd
    assert compose(identity(b), m).bwd == m.bwd
    with pytest.raises(ShapeMismatch):
        compose(m, m)  # b is not a


# ---------------------------------------------------------------------------
# cartesian product and coproduct carriers
# ---------------------------------------------------------------------------


def test_with_product_blocks():
    a, b = nat_obj([[3]]), nat_obj([[7]])
    p = with_product(a, b)
    assert p.pos.size == 1 and p.neg.size == 2
    assert list(p.cells) == [3, 7]


def test_projections_and_pairing_mediate():
    a, b = bool_obj([[1, 0], [0, 1]]), bool_obj([[1], [1]])
    p1, p2 = with_proj1(a, b), with_proj2(a, b)
    assert check_morphism(with_product(a, b), a, p1.fwd, p1.bwd) == []
    assert check_morphism(with_product(a, b), b, p2.fwd, p2.bwd) == []
    c = bool_obj([[0, 0]])
    f = dial_morphism(c, a, FnTable(FinSet(1), FinSet(2), (1,)), FnTable(FinSet(2), FinSet(2), (0, 1)))
    g = dial_morphism(c, b, FnTable(FinSet(1), FinSet(2), (0,)), FnTable(FinSet(1), FinSet(2), (1,)))
    h = with_pairing(f, g)
    assert compose(p1, h) == f
    assert compose(p2, h) == g


def test_oplus_blocks_and_injections():
    a, b = nat_obj([[3]]), nat_obj([[7]])
    s = oplus(a, b)
    assert s.pos.size == 2 and s.neg.size == 1
    assert list(s.cells) == [3, 7]
    i1, i2 = oplus_inl(a, b), oplus_inr(a, b)
    assert check_morphism(a, s, i1.fwd, i1.bwd) == []
    assert check_morphism(b, s, i2.fwd, i2.bwd) == []


def test_cap_is_checked_before_building_labels():
    import tracemalloc

    def labelled(n_pos, n_neg):
        pos = FinSet(n_pos, tuple(f"p{i}" for i in range(n_pos)))
        neg = FinSet(n_neg, tuple(f"t{i}" for i in range(n_neg)))
        return DialObject(BOOL2, pos, neg, (False,) * (n_pos * n_neg))

    tall, wide = labelled(2000, 1), labelled(1, 2000)
    for build, a in ((with_product, tall), (oplus, wide)):
        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded) as exc:
                build(a, a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.required == 4_000_000
        # the 4M product labels alone would take hundreds of MiB
        assert peak < 2 * 2**20, (build.__name__, peak)


def test_copair_mediates():
    a, b, c = bool_obj([[1]]), bool_obj([[0]]), bool_obj([[1], [1]])
    f = dial_morphism(a, c, FnTable(FinSet(1), FinSet(2), (0,)), ID1)
    g = dial_morphism(b, c, FnTable(FinSet(1), FinSet(2), (1,)), ID1)
    h = oplus_copair(f, g)
    assert compose(h, oplus_inl(a, b)) == f
    assert compose(h, oplus_inr(a, b)) == g


# ---------------------------------------------------------------------------
# tensor and hom
# ---------------------------------------------------------------------------


def test_tensor_of_singletons_multiplies_weights():
    a, b = nat_obj([[3]]), nat_obj([[7]])
    t = tensor_obj(a, b)
    assert t.pos.size == 1 and t.neg.size == 1
    assert t.cells == (10,)  # nat tensor is addition


def test_tensor_weight_formula():
    a = nat_obj([[1, 2], [3, 4]])
    b = nat_obj([[5, 6]])
    t = tensor_obj(a, b)
    # neg carrier: pairs (f: V->X, g: U->Y) with V=1, X=2, U=2, Y=2
    assert t.pos.size == 2 and t.neg.size == 2 * 4
    for u, v in itertools.product(range(2), range(1)):
        for fi in range(2):
            for gi in range(4):
                w = cell(t, u * 1 + v, fi * 4 + gi)
                fv = fi  # f has one entry
                gu = (gi >> (1 - u)) & 1  # base-2 numeral, position 0 high
                assert w == cell(a, u, fv) + cell(b, v, gu)


def test_tensor_unit_weight():
    i = tensor_unit(NAT)
    assert i.pos.size == i.neg.size == 1
    assert i.cells == (NAT.unit_payload,)


def test_hom_of_singletons_is_residual():
    a, b = nat_obj([[3]]), nat_obj([[5]])
    h = hom_obj(a, b)
    assert h.pos.size == 1 and h.neg.size == 1
    assert h.cells == (2,)  # max(5 - 3, 0)


def test_hom_row_all_true_iff_morphism():
    # over bool2 a hom element has an all-true row exactly when its table
    # pair passes the morphism check
    a = bool_obj([[1, 0], [1, 1]])
    b = bool_obj([[0, 1]])
    h = hom_obj(a, b)
    assert h.pos.size == 1**2 * 2**2  # |V|^|U| * |X|^|Y|
    for p in range(h.pos.size):
        fi, ki = divmod(p, 2**2)
        fwd = FnTable(a.pos, b.pos, fn_from_index(fi, 2, 1))
        bwd = FnTable(b.neg, a.neg, fn_from_index(ki, 2, 2))
        row_true = all(cell(h, p, c) for c in range(h.neg.size))
        assert row_true == (check_morphism(a, b, fwd, bwd) == [])


def test_tensor_mor_acts_pointwise():
    a, b = nat_obj([[2]]), nat_obj([[0]])
    a2, b2 = nat_obj([[1]]), nat_obj([[0]])
    m = dial_morphism(a, a2, ID1, ID1)
    n = dial_morphism(b, b2, ID1, ID1)
    tm = tensor_mor(m, n)
    assert check_morphism(tensor_obj(a, b), tensor_obj(a2, b2), tm.fwd, tm.bwd) == []


def test_hom_mor_is_contravariant_in_first_argument():
    lo, hi = nat_obj([[2]]), nat_obj([[1]])
    c = nat_obj([[5]])
    m = dial_morphism(lo, hi, ID1, ID1)
    hm = hom_mor(m, identity(c))
    # precomposition direction: hom(hi, c) -> hom(lo, c)
    assert hm.source == hom_obj(hi, c)
    assert hm.target == hom_obj(lo, c)


# ---------------------------------------------------------------------------
# structural isomorphisms
# ---------------------------------------------------------------------------


def test_unitors_and_symmetry_are_isos():
    a = bool_obj([[1, 0], [0, 1]])
    b = bool_obj([[1], [0]])
    for m in (left_unitor(a), right_unitor(a), symmetry(a, b)):
        back = inverse(m)
        assert compose(back, m) == identity(m.source)
        assert compose(m, back) == identity(m.target)
        assert check_morphism(m.source, m.target, m.fwd, m.bwd) == []


def test_associator_regroups():
    a, b, c = bool_obj([[1]]), bool_obj([[0]]), bool_obj([[1, 1]])
    m = associator(a, b, c)
    assert m.source == tensor_obj(tensor_obj(a, b), c)
    assert m.target == tensor_obj(a, tensor_obj(b, c))
    assert compose(inverse(m), m) == identity(m.source)


def test_curry_uncurry_roundtrip_small():
    import random

    a, b = bool_obj([[1, 0]]), bool_obj([[1], [0]])
    rng = random.Random(3)
    for _ in range(10):
        m = random_morphism(BOOL2, rng, tensor_obj(a, b))
        n = curry_dial(m, a, b)
        assert n.source == a
        assert n.target == hom_obj(b, m.target)
        assert uncurry_dial(n, b, m.target) == m


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_enumerate_counts_singletons():
    assert len(enumerate_morphisms(BOTTOM, TOP)) == 1
    assert len(enumerate_morphisms(TOP, BOTTOM)) == 0


def brute_force_morphisms(a, b):
    """The enumeration oracle: every (fwd, bwd) table pair, in lexicographic
    order, kept when check_morphism finds no violation."""
    required = b.pos.size**a.pos.size * a.neg.size**b.neg.size
    if required > DEFAULT_CAP:
        raise CapExceeded(required, DEFAULT_CAP, "morphism candidate space")
    tables = lambda dom, cod: [
        FnTable(dom, cod, t) for t in itertools.product(range(cod.size), repeat=dom.size)
    ]
    return [
        (f, F)
        for f in tables(a.pos, b.pos)
        for F in tables(b.neg, a.neg)
        if check_morphism(a, b, f, F) == []
    ]


def test_enumerate_agrees_with_check_and_is_lexicographic():
    a = bool_obj([[1, 0], [0, 0]])
    b = bool_obj([[1], [1]])
    got = enumerate_morphisms(a, b)
    assert [(m.fwd, m.bwd) for m in got] == brute_force_morphisms(a, b)
    keys = [(m.fwd.table, m.bwd.table) for m in got]
    assert keys == sorted(keys)


@st.composite
def _small_object_pairs(draw):
    lin = get_lineale(
        draw(st.sampled_from(["bool2", "kleene3", "nat", "prob", "prod(prob,int)"]))
    )
    rng = draw(st.randoms(use_true_random=False))

    def obj():
        pos, neg = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        cells = tuple(lin.sample(rng, 3).payload for _ in range(pos * neg))
        return DialObject(lin, FinSet(pos), FinSet(neg), cells)

    return obj(), obj()


@settings(max_examples=300, deadline=None)
@given(_small_object_pairs())
# a wide column: candidates {1, 8}, which a frozenset would iterate as 8, 1
@example((bool_obj([[1, 0, 1, 1, 1, 1, 1, 1, 0]]), bool_obj([[0]])))
# row 0 admits x = 0, row 1 rules it out
@example((bool_obj([[0, 1], [1, 0]]), bool_obj([[0]])))
def test_enumerate_matches_the_brute_force_oracle(pair):
    a, b = pair
    got = enumerate_morphisms(a, b)
    assert all(m.source == a and m.target == b for m in got)
    assert [(m.fwd, m.bwd) for m in got] == brute_force_morphisms(a, b)


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(*[st.integers(0, 20)] * 4).filter(
        lambda s: s[2] ** s[0] * s[1] ** s[3] > DEFAULT_CAP
    )
)
def test_enumerate_over_the_cap_raises_what_the_oracle_raises(sizes):
    u, x, v, y = sizes
    a = DialObject(BOOL2, FinSet(u), FinSet(x), (True,) * (u * x))
    b = DialObject(BOOL2, FinSet(v), FinSet(y), (True,) * (v * y))
    with pytest.raises(CapExceeded) as got:
        enumerate_morphisms(a, b)
    with pytest.raises(CapExceeded) as want:
        brute_force_morphisms(a, b)
    assert (got.value.required, got.value.cap, str(got.value)) == (
        want.value.required,
        want.value.cap,
        str(want.value),
    )


def _oracle_hom_tables(sources, targets):
    """The brute-force oracle on each (source, target) pair in turn, as
    (source, target, f, bwd) tuples."""
    return [
        (id(a), id(b), f.table, F.table)
        for a in sources
        for b in targets
        for f, F in brute_force_morphisms(a, b)
    ]


def _found_hom_tables(sources, targets, found):
    for a, b, f, bwds in _hom_tables(sources, targets):
        found.extend((id(a), id(b), f, bt) for bt in bwds)
    return found


def _seeded_objects(tag, seed, n):
    lin, rng = get_lineale(tag), random.Random(seed)
    objs = []
    for _ in range(n):
        pos, neg = rng.randrange(3), rng.randrange(3)
        cells = tuple(lin.sample(rng, 3).payload for _ in range(pos * neg))
        objs.append(DialObject(lin, FinSet(pos), FinSet(neg), cells))
    return objs


def _twin_payload_objects():
    # equal payloads in distinct objects, within a row, across rows and
    # across targets, so a lookup keyed on the values must treat them alike
    prob, nat = get_lineale("prob"), get_lineale("nat")
    half, big = (lambda: Fraction(1, 2)), (lambda: int("1" + "0" * 30))
    return [
        DialObject(prob, FinSet(2), FinSet(2), (half(), Fraction(1, 3), half(), half())),
        DialObject(prob, FinSet(2), FinSet(1), (half(), Fraction(2, 3))),
        DialObject(prob, FinSet(1), FinSet(2), (half(), half())),
    ], [
        DialObject(nat, FinSet(2), FinSet(2), (big(), 3, big(), big())),
        DialObject(nat, FinSet(1), FinSet(2), (big(), 0)),
        DialObject(nat, FinSet(2), FinSet(1), (big(), big() + 1)),
    ]


def test_hom_tables_from_many_sources_match_the_oracle_pair_by_pair():
    # all_objects includes carriers of size 0 on either side, as the
    # seeded families may; sources of every |A.pos| share each call, so
    # value tuples or column lists read for one source must not answer
    # another
    families = [
        all_objects(BOOL2, 2),
        _seeded_objects("nat", 5, 12),
        _seeded_objects("prob", 6, 12),
        *_twin_payload_objects(),
    ]
    for objs in families:
        assert _found_hom_tables(objs, objs, []) == _oracle_hom_tables(objs, objs)
        assert _found_hom_tables(objs[::-1], objs, []) == _oracle_hom_tables(objs[::-1], objs)


def test_hom_tables_keep_nothing_from_one_call_to_the_next():
    # the same shapes in the same order over two lineales, one call each:
    # a value tuple or column kept from the kleene3 call would answer the
    # bool2 one
    bools = all_objects(BOOL2, 2)
    to_kleene = {False: 1, True: -1}
    kleenes = [
        DialObject(KLEENE3, o.pos, o.neg, tuple(map(to_kleene.get, o.cells)))
        for o in bools
    ]
    for objs in (kleenes, bools):
        assert _found_hom_tables(objs, objs, []) == _oracle_hom_tables(objs, objs)


def test_a_share_builds_each_object_once_and_is_dropped_with_its_block():
    a, b = random_object(KLEENE3, random.Random(3)), random_object(KLEENE3, random.Random(4))
    assert tensor_obj(a, b) is not tensor_obj(a, b)
    twin = DialObject(b.lin, b.pos, b.neg, b.cells)  # equal to b, another object
    with pytest.raises(RuntimeError):
        with _shared():
            ab = tensor_obj(a, b)
            assert ab is tensor_obj(a, b) is symmetry(a, b).source
            a_twin = tensor_obj(a, twin)
            assert a_twin == ab and a_twin is not ab and a_twin is tensor_obj(a, twin)
            assert hom_obj(a, b) is hom_obj(a, b) != ab
            raise RuntimeError("a case ends early")
    assert dialnet.dialset._share.get() is None
    assert hom_obj(a, b) is not hom_obj(a, b)


def test_a_share_holds_the_unit_object_the_unitors_tensor_with():
    a = random_object(KLEENE3, random.Random(5))
    with _shared():
        i = tensor_unit(KLEENE3)
        assert tensor_unit(KLEENE3) is i
        assert left_unitor(a).source is tensor_obj(i, a)
        assert right_unitor(a).source is tensor_obj(a, i)
    assert tensor_unit(KLEENE3) is not tensor_unit(KLEENE3)


def _oracle_hom_counts(sources, targets):
    """Per source, the oracle's number of morphisms into all of targets and
    the last of them, as (source, count, (target, f, bwd) or None)."""
    out = []
    for a in sources:
        found = [(id(b), f.table, F.table) for b in targets for f, F in brute_force_morphisms(a, b)]
        out.append((id(a), len(found), found[-1] if found else None))
    return out


def test_hom_counts_match_the_oracle_source_by_source():
    # the count and the last case out of every source, over carriers of
    # size 0 on either side, twin payloads, and sources of every shape in
    # one call, in either order
    families = [
        all_objects(BOOL2, 2),
        all_objects(KLEENE3, 2),
        _seeded_objects("nat", 5, 12),
        _seeded_objects("prob", 6, 12),
        *_twin_payload_objects(),
    ]
    for objs in families:
        want = _oracle_hom_counts(objs, objs)
        for sources, expected in ((objs, want), (objs[::-1], want[::-1])):
            got = [
                (id(a), count, last and (id(last[0]), *last[1:]))
                for a, count, last in _hom_counts(sources, objs)
            ]
            assert got == expected


class _UnreadWeights(tuple):
    """Cells that the object checks may walk but no search may index or slice."""

    def __getitem__(self, i):
        raise AssertionError("a cell was read")


def test_hom_tables_raise_the_oracle_cap_error_when_the_target_is_reached():
    a, small = bool_obj([[1]] * 3), bool_obj([[1]] * 2)
    big = bool_obj([[1]] * 17)  # 17**3 = 4913 candidates, over the cap
    found = []
    with pytest.raises(CapExceeded) as got:
        _found_hom_tables((small, a), (small, big, small), found)
    with pytest.raises(CapExceeded) as want:
        brute_force_morphisms(a, big)
    assert str(got.value) == str(want.value)
    # small -> big is 17**2 * 1 = 289 candidates, in the cap
    assert found == _oracle_hom_tables((small,), (small, big, small)) + _oracle_hom_tables(
        (a,), (small,)
    )
    assert _oracle_hom_tables((a,), (small,)) != []
    # the over-cap pair is refused before its value tuples are read
    unread = DialObject(BOOL2, big.pos, big.neg, _UnreadWeights(big.cells))
    with pytest.raises(CapExceeded) as got:
        _found_hom_tables((a,), (small, unread), [])
    assert str(got.value) == str(want.value)


def test_enumerate_respects_cap():
    # 2**12 candidates fit the cap exactly; 17**3 = 4913 are just above it
    assert len(enumerate_morphisms(bool_obj([[1]] * 12), bool_obj([[1]] * 2))) == 4096
    with pytest.raises(CapExceeded) as exc:
        enumerate_morphisms(bool_obj([[1]] * 3), bool_obj([[1]] * 17))
    assert exc.value.required == 4913 and exc.value.cap == 4096


def test_empty_carriers_are_fine():
    empty_pos = DialObject(BOOL2, FinSet(0), FinSet(1), ())
    ms = enumerate_morphisms(empty_pos, TOP)
    assert len(ms) == 1  # unique empty forward table, unique bwd into 1
    assert identity(empty_pos).fwd.table == ()
    t = tensor_obj(empty_pos, TOP)
    assert t.pos.size == 0


def test_all_objects_census():
    assert len(all_objects(BOOL2, 2)) == 31
    assert len(all_objects(KLEENE3, 2)) == 107


def test_random_generators_produce_valid_morphisms():
    import random

    rng = random.Random(11)
    for _ in range(25):
        a = random_object(KLEENE3, rng)
        m = random_morphism(KLEENE3, rng, a)
        assert check_morphism(m.source, m.target, m.fwd, m.bwd) == []


# ---------------------------------------------------------------------------
# tensor and hom compute each lineale op once per pair of input cells
# ---------------------------------------------------------------------------

@st.composite
def _object_pairs(draw):
    lin = get_lineale(draw(st.sampled_from(["prob", "prod(prob,int)", "nat"])))
    u, x, v, y = (draw(st.integers(0, 3)) for _ in range(4))

    def obj(pos, neg):
        rng = draw(st.randoms(use_true_random=False))
        cells = tuple(lin.sample(rng, 4).payload for _ in range(pos * neg))
        return DialObject(lin, FinSet(pos), FinSet(neg), cells)

    return obj(u, x), obj(v, y)


def _distinct_objects(o: DialObject) -> int:
    return len(set(map(id, o.cells)))


@settings(max_examples=80, deadline=None)
@given(_object_pairs())
def test_tensor_and_hom_share_results_of_equal_input_pairs(pair):
    a, b = pair
    (u_n, x_n), (v_n, y_n) = a.shape, b.shape
    lin = a.lin
    pairs_of_cells = u_n * x_n * v_n * y_n
    try:
        t = tensor_obj(a, b)
    except CapExceeded:
        t = None
    if t is not None:
        for r in range(t.pos.size):
            u, v = divmod(r, v_n)
            for c in range(t.neg.size):
                f, g = fn_pair_from_index(c, v_n, x_n, u_n, y_n)
                assert cell(t, r, c) == lin._tensor(cell(a, u, f[v]), cell(b, v, g[u]))
        assert _distinct_objects(t) <= pairs_of_cells
    try:
        h = hom_obj(a, b)
    except CapExceeded:
        return
    for r in range(h.pos.size):
        f, big_f = fn_pair_from_index(r, u_n, v_n, y_n, x_n)
        for c in range(h.neg.size):
            u, y = divmod(c, y_n)
            assert cell(h, r, c) == lin._imp(cell(a, u, big_f[y]), cell(b, f[u], y))
    assert _distinct_objects(h) <= pairs_of_cells


# ---------------------------------------------------------------------------
# structure-map tables against the per-element oracle
# ---------------------------------------------------------------------------

_SHAPES = list(itertools.product(range(3), repeat=2))  # every (|pos|, |neg|) in {0, 1, 2}^2


def _flat(shape) -> DialObject:
    # constant weights: every pair of tables of the right shapes is a morphism
    p, n = shape
    return DialObject(BOOL2, FinSet(p), FinSet(n), (False,) * (p * n))


def _any_table(rng, dom: int, cod: int) -> tuple[int, ...] | None:
    if cod == 0 and dom:
        return None
    return tuple(rng.randrange(cod) for _ in range(dom))


def _seeded_morphism(rng, src, tgt):
    f, fb = _any_table(rng, src[0], tgt[0]), _any_table(rng, tgt[1], src[1])
    if f is None or fb is None:
        return None
    a, b = _flat(src), _flat(tgt)
    return dial_morphism(a, b, FnTable(a.pos, b.pos, f), FnTable(b.neg, a.neg, fb))


def _not_injective(t: tuple[int, ...]) -> bool:
    return len(set(t)) < len(t)


def test_associator_and_symmetry_tables_match_the_oracle_on_every_small_shape():
    for a, b, c in itertools.product(_SHAPES, repeat=3):
        m = associator(_flat(a), _flat(b), _flat(c))
        assert m.bwd.table == index_oracle.associator_bwd(a, b, c), (a, b, c)
        assert m.fwd.table == tuple(range(m.source.pos.size))
    for a, b in itertools.product(_SHAPES, repeat=2):
        m = symmetry(_flat(a), _flat(b))
        assert m.bwd.table == index_oracle.symmetry_bwd(a, b), (a, b)
    # the empty corners: X^0 has one element, 0^B none for nonempty B
    assert associator(_flat((0, 0)), _flat((0, 0)), _flat((0, 0))).bwd.table == (0,)
    assert symmetry(_flat((1, 0)), _flat((1, 2))).bwd.table == ()


def test_tensor_mor_and_hom_mor_tables_match_the_oracle_on_every_small_shape():
    rng = random.Random(16)
    collapsing = 0
    for s1, t1, s2, t2 in itertools.product(_SHAPES, repeat=4):
        m1, m2 = _seeded_morphism(rng, s1, t1), _seeded_morphism(rng, s2, t2)
        if m1 is None or m2 is None:
            continue
        tables = (m1.fwd.table, m1.bwd.table, m2.fwd.table, m2.bwd.table)
        collapsing += any(map(_not_injective, tables))
        f, fb, g, gb = tables
        tm = tensor_mor(m1, m2)
        assert tm.bwd.table == index_oracle.tensor_mor_bwd(s1, t1, s2, t2, f, fb, g, gb)
        # hom_mor(m1, m2): hom(t1, s2) -> hom(s1, t2)
        hm = hom_mor(m1, m2)
        assert hm.fwd.table == index_oracle.hom_mor_fwd(s1, t1, s2, t2, f, fb, g, gb)
    assert collapsing > 1000  # non-injective f, g, fb and gb are well covered


_ONE = DialObject(NAT, FinSet(1), FinSet(1), (0,))
_TWO = DialObject(NAT, FinSet(2), FinSet(1), (0, 0))
_BOOL_ONE = DialObject(BOOL2, FinSet(1), FinSet(1), (True,))
_ONTO_ONE = FnTable(FinSet(2), FinSet(1), (0, 0))
_ID_ONE = FnTable(FinSet(1), FinSet(1), (0,))


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        (
            lambda: dialnet.dialset.DialMorphism(_ONE, _ONE, _ID_ONE, _ONTO_ONE),
            ShapeMismatch,
            "backward table does not map the negative carriers",
        ),
        (
            lambda: inverse(dialnet.dialset.DialMorphism(_TWO, _ONE, _ONTO_ONE, _ID_ONE)),
            ShapeMismatch,
            "table is not a bijection",
        ),
        (lambda: with_pairing(identity(_ONE), identity(_TWO)), ShapeMismatch, "shared source"),
        (lambda: oplus_copair(identity(_ONE), identity(_TWO)), ShapeMismatch, "shared target"),
        (
            lambda: curry_dial(identity(tensor_obj(_ONE, _ONE)), _BOOL_ONE, _BOOL_ONE),
            TagMismatch,
            "factors are over a different lineale",
        ),
        (
            lambda: curry_dial(identity(_ONE), _TWO, _TWO),
            ShapeMismatch,
            "source is not shaped like the tensor",
        ),
        (
            lambda: uncurry_dial(identity(hom_obj(_ONE, _ONE)), _BOOL_ONE, _BOOL_ONE),
            TagMismatch,
            "factors are over a different lineale",
        ),
        (
            lambda: uncurry_dial(identity(_ONE), _TWO, _TWO),
            ShapeMismatch,
            "target is not shaped like the hom",
        ),
    ],
    ids=[
        "check_shapes_bwd", "inverse", "with_pairing", "oplus_copair",
        "curry_tag", "curry_shape", "uncurry_tag", "uncurry_shape",
    ],
)
def test_a_constructor_refuses_ill_shaped_input(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()
