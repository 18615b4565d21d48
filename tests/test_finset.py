"""Finite sets, function tables, and the index conventions everything
else leans on: row-major pairs, left-block-first sums, and exponential
indices read as base-|codomain| numerals with position 0 most
significant.
"""

import itertools
import math

import pytest
from hypothesis import example, given, strategies as st

from dialnet import CapExceeded, DEFAULT_CAP, FinSet, FnTable, ShapeMismatch
from dialnet.finset import (
    compose,
    copair,
    coproduct_set,
    digit_table,
    exp_set,
    fn_pair_digits,
    fn_pair_weights,
    hom_shape,
    identity,
    inl,
    inr,
    pairing,
    product_fn,
    product_set,
    proj1,
    proj2,
    swap,
    tensor_shape,
)
from index_oracle import fn_from_index, fn_index, fn_pair_from_index, fn_pair_index, pair_index


def test_finset_equality_ignores_labels():
    # labels are presentation only; the carrier is the size
    assert FinSet(3) == FinSet(3, ("a", "b", "c"))
    assert FinSet(3) != FinSet(4)
    assert FinSet(2) != 2
    assert hash(FinSet(2)) == hash(FinSet(2, ("x", "y")))
    labelled = FnTable(FinSet(2, ("a", "b")), FinSet(1), (0, 0))
    assert labelled == FnTable(FinSet(2), FinSet(1, ("z",)), (0, 0))
    assert hash(labelled) == hash(FnTable(FinSet(2), FinSet(1), (0, 0)))


def test_finset_label_fallback_and_lookup():
    s = FinSet(2, ("p", "q"))
    assert s.label(1) == "q"
    assert s.index_of("p") == 0
    assert FinSet(3).label(2) == "2"


def test_finset_rejects_bad_labels():
    with pytest.raises(ShapeMismatch):
        FinSet(2, ("a",))
    with pytest.raises(ShapeMismatch):
        FinSet(2, ("a", "a"))


def test_fn_table_validation():
    a, b = FinSet(2), FinSet(3)
    f = FnTable(a, b, (2, 0))
    assert f.table[0] == 2 and f.table[1] == 0
    with pytest.raises(ShapeMismatch):
        FnTable(a, b, (0,))
    with pytest.raises(ShapeMismatch):
        FnTable(a, b, (0, 3))
    # the message names the first entry out of range
    for table, entry, at in (((0, 3, -1), 3, 1), ((-1, 5, 1), -1, 0), ((2, 1, 7), 7, 2)):
        with pytest.raises(ShapeMismatch, match=rf"^table entry {entry} at {at} outside codomain of size 3$"):
            FnTable(b, b, table)
    with pytest.raises(ShapeMismatch, match="^table entry 0 at 0 outside codomain of size 0$"):
        FnTable(FinSet(1), FinSet(0), (0,))
    assert FnTable(FinSet(0), FinSet(0), ()).table == ()


def test_compose_is_g_after_f():
    a, b, c = FinSet(2), FinSet(3), FinSet(2)
    f = FnTable(a, b, (1, 2))
    g = FnTable(b, c, (0, 0, 1))
    assert compose(g, f).table == (0, 1)
    assert compose(f, identity(a)) == f
    assert compose(identity(b), f) == f
    with pytest.raises(ShapeMismatch):
        compose(g, g)  # cod size 2 does not feed dom size 3


# ---------------------------------------------------------------------------
# pairs: row-major
# ---------------------------------------------------------------------------


def test_pair_index_row_major():
    assert [pair_index(i, j, 3) for i in range(2) for j in range(3)] == list(range(6))


def test_product_set_labels():
    p = product_set(FinSet(2, ("a", "b")), FinSet(2, ("x", "y")))
    assert p.size == 4
    assert p.labels == ("(a,x)", "(a,y)", "(b,x)", "(b,y)")
    # backslash and comma are escaped inside components, so pairs that
    # would print alike unescaped keep distinct labels
    q = product_set(FinSet(2, ("x,y", "x")), FinSet(2, ("z", "y,z")))
    assert q.labels == ("(x\\,y,z)", "(x\\,y,y\\,z)", "(x,z)", "(x,y\\,z)")
    r = product_set(FinSet(2, ("a\\", "a")), FinSet(2, (",b", "\\,b")))
    assert len(set(r.labels)) == 4


def test_projections_and_pairing():
    a, b = FinSet(2), FinSet(3)
    p1, p2 = proj1(a, b), proj2(a, b)
    assert p1.table == (0, 0, 0, 1, 1, 1)
    assert p2.table == (0, 1, 2, 0, 1, 2)
    c = FinSet(2)
    f = FnTable(c, a, (1, 0))
    g = FnTable(c, b, (2, 2))
    h = pairing(f, g)
    assert compose(p1, h) == f
    assert compose(p2, h) == g
    assert swap(a, b).table == tuple(
        pair_index(j, i, a.size) for i in range(a.size) for j in range(b.size)
    )


def test_product_fn_acts_componentwise():
    f = FnTable(FinSet(2), FinSet(2), (1, 0))
    g = FnTable(FinSet(2), FinSet(3), (2, 0))
    h = product_fn(f, g)
    for i, j in itertools.product(range(2), range(2)):
        assert h.table[pair_index(i, j, 2)] == pair_index(f.table[i], g.table[j], 3)


def test_product_maps_match_the_per_element_formulas():
    for m, n in itertools.product(range(4), repeat=2):
        a, b = FinSet(m), FinSet(n)
        cells = range(m * n)
        assert proj1(a, b).table == tuple(k // n for k in cells)
        assert proj2(a, b).table == tuple(k % n for k in cells)
        assert swap(a, b).table == tuple(pair_index(k % n, k // n, m) for k in cells)


def small_tables():
    """Every table between sets of size at most 2, empty sets included."""
    for d, c in itertools.product(range(3), repeat=2):
        for t in itertools.product(range(c), repeat=d):
            yield FnTable(FinSet(d), FinSet(c), t)


def test_product_fn_and_pairing_match_pair_index():
    tables = list(small_tables())
    for f, g in itertools.product(tables, repeat=2):
        n = g.cod.size
        h = product_fn(f, g)
        assert (h.dom.size, h.cod.size) == (f.dom.size * g.dom.size, f.cod.size * n)
        assert h.table == tuple(pair_index(x, y, n) for x in f.table for y in g.table)
        if f.dom.size == g.dom.size:
            p = pairing(f, g)
            assert (p.dom.size, p.cod.size) == (f.dom.size, f.cod.size * n)
            assert p.table == tuple(pair_index(x, y, n) for x, y in zip(f.table, g.table))


# ---------------------------------------------------------------------------
# sums: left block first
# ---------------------------------------------------------------------------


def test_coproduct_labels_and_injections():
    s = coproduct_set(FinSet(2, ("a", "b")), FinSet(1, ("z",)))
    assert s.size == 3
    assert s.labels == ("left.a", "left.b", "right.z")
    assert inl(FinSet(2), FinSet(1)).table == (0, 1)
    assert inr(FinSet(2), FinSet(1)).table == (2,)


def test_copair_routes_both_blocks():
    c = FinSet(4)
    f = FnTable(FinSet(2), c, (3, 1))
    g = FnTable(FinSet(2), c, (0, 2))
    h = copair(f, g)
    assert h.table == (3, 1, 0, 2)
    assert compose(h, inl(FinSet(2), FinSet(2))) == f
    assert compose(h, inr(FinSet(2), FinSet(2))) == g


# ---------------------------------------------------------------------------
# exponentials
# ---------------------------------------------------------------------------


def test_exponential_index_convention():
    # |dom|=2, |base|=3: nine tables, position 0 is the high digit
    tabs = [fn_from_index(k, 2, 3) for k in range(9)]
    assert tabs[0] == (0, 0)  # constant 0 first
    assert tabs[8] == (2, 2)  # constant |base|-1 last
    assert tabs[5] == (1, 2)
    for k, t in enumerate(tabs):
        assert fn_index(t, 3) == k


def test_all_tables_enumeration():
    dom, base = FinSet(2), FinSet(3)
    got = [fn_from_index(k, dom.size, base.size) for k in range(exp_set(base, dom).size)]
    assert len(got) == 9 and len(set(got)) == 9
    assert got == sorted(got)  # lexicographic because index 0 digit is high


def test_exp_set_labels_and_cap():
    e = exp_set(FinSet(3, ("a", "b", "c")), FinSet(2, ("x", "y")))
    assert e.size == 9
    assert e.labels[0] == "fn0" and e.labels[-1] == "fn8"
    assert exp_set(FinSet(2), FinSet(12)).size == 4096
    with pytest.raises(CapExceeded) as exc:
        exp_set(FinSet(2), FinSet(13))
    assert exc.value.required == 8192 and exc.value.cap == 4096
    with pytest.raises(CapExceeded):
        exp_set(FinSet(2), FinSet(DEFAULT_CAP))


def _carrier(n: int, labelled: bool) -> FinSet:
    return FinSet(n, tuple(f"e{i}" for i in range(n))) if labelled else FinSet(n)


@pytest.mark.parametrize("build", [product_set, coproduct_set, exp_set])
@pytest.mark.parametrize("sizes", [(2, 3), (3, 0), (0, 2), (0, 0)])
def test_carrier_labelled_iff_all_factors_are(build, sizes):
    # (3, 0) and (0, 0) give X^0, one element; (0, 2) gives 0^B, empty
    for flags in itertools.product((False, True), repeat=2):
        a, b = map(_carrier, sizes, flags)
        c = build(a, b)
        assert (c.labels is not None) == all(flags), (flags, c)
        if c.labels is not None:
            assert len(set(c.labels)) == c.size


def test_empty_domain_exponential():
    # exactly one function out of the empty set
    assert exp_set(FinSet(3), FinSet(0)).size == 1
    assert fn_from_index(0, 0, 3) == ()


def test_point_equations_exhaustive():
    for na, nb in itertools.product(range(4), repeat=2):
        a, b = FinSet(na), FinSet(nb)
        ab, ba = product_set(a, b), product_set(b, a)
        assert compose(swap(b, a), swap(a, b)) == identity(ab)
        assert compose(proj1(a, b), pairing(proj1(a, b), proj2(a, b))) == proj1(a, b)
        assert copair(inl(a, b), inr(a, b)) == identity(coproduct_set(a, b))
        assert compose(swap(a, b), pairing(proj1(a, b), proj2(a, b))) == pairing(
            proj2(a, b), proj1(a, b)
        )


@given(st.integers(2, 5), st.integers(1, 4), st.integers(0, 10**6))
def test_fn_index_roundtrip(base, dom, raw):
    k = raw % base**dom
    assert fn_index(fn_from_index(k, dom, base), base) == k


# ---------------------------------------------------------------------------
# pairs of response tables, and carrier shapes
# ---------------------------------------------------------------------------

shapes = st.tuples(st.integers(0, 3), st.integers(0, 3))


@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
def test_fn_pair_codec_is_a_bijection(f_dom, f_base, g_dom, g_base):
    size = f_base**f_dom * g_base**g_dom
    seen = set()
    for f in itertools.product(range(f_base), repeat=f_dom):
        for g in itertools.product(range(g_base), repeat=g_dom):
            k = fn_pair_index(f, f_base, g, g_base)
            assert 0 <= k < size and k not in seen
            seen.add(k)
            assert fn_pair_from_index(k, f_dom, f_base, g_dom, g_base) == (f, g)
    assert len(seen) == size


@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
def test_fn_pair_weights_and_digits_agree_with_the_codec(f_dom, f_base, g_dom, g_base):
    size = f_base**f_dom * g_base**g_dom
    f_w, g_w = fn_pair_weights(f_dom, f_base, g_dom, g_base)
    cols = fn_pair_digits(range(size), f_dom, f_base, g_dom, g_base)
    assert len(cols) == f_dom + g_dom
    for k in range(size):
        f, g = fn_pair_from_index(k, f_dom, f_base, g_dom, g_base)
        assert sum(d * w for d, w in zip(f + g, f_w + g_w)) == k
        assert tuple(col[k] for col in cols) == f + g


@given(st.lists(st.tuples(st.lists(st.integers(0, 6), max_size=3), st.integers(0, 40)), max_size=5))
@example([])  # X^0 has one element
@example([(range(2), 1), (range(0), 1)])  # 0^B is empty for nonempty B
@example([((1, 0), 1), ((0, 0, 0), 0)])  # a fixed table, and a digit that lands nowhere
def test_digit_table_is_the_sum_of_per_digit_contributions(digits):
    # index k's digits, most significant first, in the radices len(values)
    radices = [len(values) for values, _ in digits]
    want = []
    for k in range(math.prod(radices)):
        ds, rest = [], k
        for r in reversed(radices):
            rest, d = divmod(rest, r)
            ds.append(d)
        want.append(sum(values[d] * w for (values, w), d in zip(digits, reversed(ds))))
    assert digit_table(digits) == tuple(want)


@given(shapes, shapes)
def test_shapes_match_built_carriers(a, b):
    from dialnet import BOOL2, DialObject, hom_obj, tensor_obj

    a_obj, b_obj = (
        DialObject(BOOL2, FinSet(p), FinSet(n), (False,) * (p * n)) for p, n in (a, b)
    )
    for shape, build in ((tensor_shape, tensor_obj), (hom_shape, hom_obj)):
        built = build(a_obj, b_obj)  # carriers of at most 3**3 * 3**3, under the cap
        assert (built.pos.size, built.neg.size) == shape(a, b)


@pytest.mark.parametrize(
    "call, fragment",
    [
        (lambda: FinSet(-1), "set size must be nonnegative, got -1"),
        (lambda: FinSet(2).index_of("a"), "set has no labels"),
        (lambda: pairing(identity(FinSet(1)), identity(FinSet(2))), "pairing needs a shared domain"),
        (lambda: copair(identity(FinSet(1)), identity(FinSet(2))), "copairing needs a shared codomain"),
    ],
    ids=["negative_size", "index_of_unlabelled", "pairing", "copair"],
)
def test_a_set_or_table_builder_refuses_ill_shaped_input(call, fragment):
    with pytest.raises(ShapeMismatch, match=fragment):
        call()
