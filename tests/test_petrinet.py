"""Nets as pre/post weighted relations over shared carriers, plus the
five worked examples.  Arc weights below were read off the reaction
descriptions by hand and act as the oracle for the builders.
"""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import dialnet.dialset
import dialnet.petrinet
from dialnet import (
    INT,
    KLEENE3,
    NAT,
    PROB,
    EXAMPLE_NAMES,
    CapExceeded,
    DialObject,
    FinSet,
    FnTable,
    InvalidMorphism,
    NetDocument,
    NetViolation,
    PetriNet,
    ShapeMismatch,
    TagMismatch,
    build_example,
    check_morphism,
    check_net_morphism,
    document_to_net,
    example_default,
    get_lineale,
    net_compose,
    net_from_arcs,
    net_from_relations,
    net_hom,
    net_identity,
    net_morphism,
    net_oplus,
    net_tensor,
    net_with,
    oplus,
    tensor_obj,
    with_product,
)


def weight(net, part, place, transition):
    obj = net.pre if part == "pre" else net.post
    u = net.places.index_of(place)
    x = net.transitions.index_of(transition)
    return obj.weight_at(u, x).payload


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_pre_and_post_share_carriers():
    water = build_example("water")
    assert water.pre.pos is water.places
    assert water.post.pos is water.places
    assert water.pre.neg is water.transitions
    assert net_from_relations(water.pre, water.post) == water
    assert hash(net_from_relations(water.pre, water.post)) == hash(water)
    with pytest.raises(ShapeMismatch):
        net_from_relations(water.pre, tensor_obj(water.post, water.post))


def test_net_from_arcs_rejects_values_of_another_lineale():
    with pytest.raises(TagMismatch):
        net_from_arcs(NAT, ("a",), ("t",), INT.value(0), {}, {})
    with pytest.raises(TagMismatch):
        net_from_arcs(NAT, ("a",), ("t",), NAT.value(0), {("a", "t"): INT.value(1)}, {})
    with pytest.raises(TagMismatch):
        net_from_arcs(NAT, ("a",), ("t",), NAT.value(0), {}, {("a", "t"): 1})


def test_net_from_arcs_rejects_unknown_labels():
    with pytest.raises(ShapeMismatch):
        net_from_arcs(
            NAT,
            ("a",),
            ("t",),
            NAT.value(0),
            pre_arcs={("nope", "t"): NAT.value(1)},
            post_arcs={},
        )


# ---------------------------------------------------------------------------
# the worked examples
# ---------------------------------------------------------------------------


def test_water_arcs():
    net = build_example("water")
    assert net.lin is NAT
    assert net.places.labels == ("H2", "O2", "H2O")
    assert net.transitions.size == 1
    assert weight(net, "pre", "H2", "t") == 2
    assert weight(net, "pre", "O2", "t") == 1
    assert weight(net, "pre", "H2O", "t") == 0
    assert weight(net, "post", "H2O", "t") == 2
    assert weight(net, "post", "H2", "t") == 0


def test_sir_probabilities():
    net = build_example("sir")
    assert net.lin is PROB
    assert net.places.labels == ("S", "I", "R")
    assert net.transitions.labels == ("c", "r", "i")
    half = Fraction(1, 2)
    assert weight(net, "pre", "S", "c") == half  # contact
    assert weight(net, "pre", "I", "c") == 1
    assert weight(net, "post", "I", "c") == half
    assert weight(net, "post", "S", "c") == half  # 1 - p_infect
    assert weight(net, "pre", "I", "r") == half  # recovery
    assert weight(net, "post", "R", "r") == 1
    assert weight(net, "pre", "I", "i") == half  # stays infected
    assert weight(net, "post", "I", "i") == 1


def test_sir_rates_are_configurable():
    net = build_example("sir", p_infect=Fraction(1, 3))
    assert weight(net, "post", "I", "c") == Fraction(1, 3)
    assert weight(net, "post", "S", "c") == Fraction(2, 3)


def test_circadian_shape_and_hypothesized_arcs():
    net = build_example("circadian")
    assert net.lin is KLEENE3
    assert net.places.size == 12
    assert net.transitions.size == 4
    flat = [w for row in net.pre.weight for w in row]
    flat += [w for row in net.post.weight for w in row]
    # two arcs are only hypothesized (weight 0); everything else is
    # definite presence or absence
    assert flat.count(0) == 2
    assert weight(net, "pre", "KaiAC", "dephos1") == 0
    assert weight(net, "pre", "KaiBC+P", "phos2") == 0
    assert weight(net, "post", "KaiBC+P", "dephos1") == 1
    assert weight(net, "pre", "KaiABC+P", "dephos1") == 1
    assert weight(net, "pre", "P1", "dephos1") == -1


def test_inhibitor_threshold():
    net = build_example("inhibitor")
    assert net.lin is INT
    assert weight(net, "pre", "S1", "r") == 2
    assert weight(net, "pre", "S2", "r") == 2
    assert weight(net, "pre", "I", "r") == -3
    assert weight(net, "post", "S3", "r") == 1


def test_catalysis_pairs():
    net = build_example("catalysis")
    assert net.lin.tag == "prod(prob,int)"
    # product payloads are plain (rate, role) pairs
    rate = lambda pair: pair[0]
    role = lambda pair: pair[1]
    w = weight(net, "pre", "I", "r")
    assert (rate(w), role(w)) == (Fraction(2, 5), -3)
    w = weight(net, "pre", "C", "r")
    assert (rate(w), role(w)) == (Fraction(1, 2), 5)
    w = weight(net, "post", "S3", "r")
    assert (rate(w), role(w)) == (Fraction(3, 10), 0)
    custom = build_example("catalysis", r4=Fraction(9, 10))
    assert rate(weight(custom, "pre", "I", "r")) == Fraction(9, 10)


def test_example_defaults():
    from dialnet import format_value

    expected = {
        "water": "0",
        "sir": "0",
        "circadian": "-1",
        "inhibitor": "0",
        "catalysis": "(0,0)",
    }
    for name in EXAMPLE_NAMES:
        assert format_value(example_default(name)) == expected[name]


def test_unknown_example_name():
    with pytest.raises(ShapeMismatch) as exc:
        build_example("perpetuum-mobile")
    assert "water" in str(exc.value)  # the message names valid choices


# ---------------------------------------------------------------------------
# net morphisms
# ---------------------------------------------------------------------------


def lowered_water():
    n = NAT.value
    return net_from_arcs(
        NAT,
        ("H2", "O2", "H2O"),
        ("t",),
        n(0),
        pre_arcs={("H2", "t"): n(1), ("O2", "t"): n(1)},
        post_arcs={("H2O", "t"): n(2)},
    )


def test_identity_is_a_net_morphism():
    water = build_example("water")
    m = net_identity(water)
    assert check_net_morphism(water, water, m.fwd, m.bwd) == []


def test_weight_lowering_is_a_simulation():
    # counting weights sit in the reversed order, so lowering an arc
    # weight in the target keeps the condition satisfiable
    water = build_example("water")
    variant = lowered_water()
    f = FnTable(water.places, variant.places, (0, 1, 2))
    F = FnTable(variant.transitions, water.transitions, (0,))
    assert check_net_morphism(water, variant, f, F) == []
    m = net_morphism(water, variant, f, F)
    assert m.source is water


def test_weight_raising_fails_with_one_violation():
    water = build_example("water")
    variant = lowered_water()
    f = FnTable(variant.places, water.places, (0, 1, 2))
    F = FnTable(water.transitions, variant.transitions, (0,))
    vs = check_net_morphism(variant, water, f, F)
    assert vs == [NetViolation("pre", 0, 0, NAT.value(1), NAT.value(2))]
    with pytest.raises(InvalidMorphism):
        net_morphism(variant, water, f, F)


def test_refinement_by_added_place():
    # target has one more place; the forward map need not be onto
    water = build_example("water")
    bigger = net_from_arcs(
        NAT,
        ("H2", "O2", "H2O", "heat"),
        ("t",),
        NAT.value(0),
        pre_arcs={("H2", "t"): NAT.value(2), ("O2", "t"): NAT.value(1)},
        post_arcs={("H2O", "t"): NAT.value(2), ("heat", "t"): NAT.value(1)},
    )
    f = FnTable(water.places, bigger.places, (0, 1, 2))
    F = FnTable(bigger.transitions, water.transitions, (0,))
    assert check_net_morphism(water, bigger, f, F) == []


def test_net_compose_runs_backward_on_transitions():
    water = build_example("water")
    variant = lowered_water()
    m = net_morphism(
        water,
        variant,
        FnTable(water.places, variant.places, (0, 1, 2)),
        FnTable(variant.transitions, water.transitions, (0,)),
    )
    i = net_identity(variant)
    c = net_compose(i, m)
    assert c.fwd == m.fwd and c.bwd == m.bwd


# ---------------------------------------------------------------------------
# connectives commute with the pre/post projections
# ---------------------------------------------------------------------------


def test_tensor_carrier_sizes():
    water = build_example("water")
    t = net_tensor(water, water)
    assert t.places.size == 9
    assert t.places.labels[0] == "(H2,H2)"
    assert t.pre == tensor_obj(water.pre, water.pre)
    assert t.post == tensor_obj(water.post, water.post)


def test_with_adds_transitions():
    water = build_example("water")
    w = net_with(water, water)
    assert w.places.size == 9
    assert w.transitions.size == 2
    assert w.transitions.labels == ("left.t", "right.t")


def test_oplus_adds_places():
    water = build_example("water")
    o = net_oplus(water, water)
    assert o.places.size == 6
    assert o.transitions.size == 1
    assert o.places.labels[0] == "left.H2"


def test_hom_carriers():
    water = build_example("water")
    h = net_hom(water, water)
    assert h.places.size == 27 * 1  # V^U x X^Y
    assert h.transitions.size == 3  # U x Y


def test_connectives_reject_mixed_lineales():
    water, sir = build_example("water"), build_example("sir")
    with pytest.raises(TagMismatch):
        net_tensor(water, sir)
    # with and oplus do not build the relations, but say what they would
    for net_op, dense_op in ((net_with, with_product), (net_oplus, oplus)):
        with pytest.raises(TagMismatch) as dense:
            dense_op(water.pre, sir.pre)
        with pytest.raises(TagMismatch, match=re.escape(str(dense.value))):
            net_op(water, sir)


def test_all_connectives_commute_with_projections():
    from dialnet import hom_obj

    a, b = build_example("water"), lowered_water()
    assert net_with(a, b).pre == with_product(a.pre, b.pre)
    assert net_with(a, b).post == with_product(a.post, b.post)
    assert net_oplus(a, b).pre == oplus(a.pre, b.pre)
    assert net_hom(a, b).pre == hom_obj(a.pre, b.pre)
    assert net_hom(a, b).post == hom_obj(a.post, b.post)


# ---------------------------------------------------------------------------
# random cross-checks against the relation layer
# ---------------------------------------------------------------------------


def random_nat_net(rng, n_places, n_transitions):
    import dialnet

    places = FinSet(n_places, tuple(f"p{i}" for i in range(n_places)))
    transitions = FinSet(n_transitions, tuple(f"t{i}" for i in range(n_transitions)))
    mk = lambda: dialnet.dial_object(
        NAT, places, transitions, lambda u, x: NAT.value(rng.randint(0, 5))
    )
    return net_from_relations(mk(), mk())


def random_net_morphism_from(rng, source):
    # random tables; target weights are the numeric min over the
    # forward preimage, which is exactly the join in the reversed order
    np_t, nt_t = rng.randint(1, 3), rng.randint(1, 3)
    places = FinSet(np_t)
    transitions = FinSet(nt_t)
    f = FnTable(source.places, places, tuple(rng.randrange(np_t) for _ in range(source.places.size)))
    F = FnTable(transitions, source.transitions, tuple(rng.randrange(source.transitions.size) for _ in range(nt_t)))

    def lowered(obj):
        def weight(v, y):
            hits = [
                obj.weight_at(u, F(y)).payload
                for u in range(source.places.size)
                if f(u) == v
            ]
            return NAT.value(min(hits) if hits else 0)

        import dialnet

        return dialnet.dial_object(NAT, places, transitions, weight)

    target = net_from_relations(lowered(source.pre), lowered(source.post))
    return net_morphism(source, target, f, F)


def _dense_check(a, b, f, big_f):
    """The net condition as the dense relation check on pre, then on post."""
    return [NetViolation("pre", *v) for v in check_morphism(a.pre, b.pre, f, big_f)] + [
        NetViolation("post", *v) for v in check_morphism(a.post, b.post, f, big_f)
    ]


def test_net_condition_is_the_relation_condition_on_both_parts():
    import random

    rng = random.Random(77)
    for _ in range(40):
        a = random_nat_net(rng, rng.randint(1, 3), rng.randint(1, 3))
        b = random_nat_net(rng, rng.randint(1, 3), rng.randint(1, 3))
        f = FnTable(a.places, b.places, tuple(rng.randrange(b.places.size) for _ in range(a.places.size)))
        F = FnTable(b.transitions, a.transitions, tuple(rng.randrange(a.transitions.size) for _ in range(b.transitions.size)))
        assert check_net_morphism(a, b, f, F) == _dense_check(a, b, f, F)


def test_net_compose_is_associative():
    import random

    rng = random.Random(78)
    for _ in range(30):
        a = random_nat_net(rng, rng.randint(1, 3), rng.randint(1, 3))
        m1 = random_net_morphism_from(rng, a)
        m2 = random_net_morphism_from(rng, m1.target)
        m3 = random_net_morphism_from(rng, m2.target)
        left = net_compose(m3, net_compose(m2, m1))
        right = net_compose(net_compose(m3, m2), m1)
        assert left.fwd == right.fwd and left.bwd == right.bwd
        i = net_identity(a)
        assert net_compose(m1, i).fwd == m1.fwd
        assert net_compose(m1, i).bwd == m1.bwd


# ---------------------------------------------------------------------------
# the stored form and the sparse morphism check against dense oracles
# ---------------------------------------------------------------------------

# Value texts per lineale; some spell one value twice ("0" and "00"), so
# a document can list an arc equal to its default under another text.
_TEXTS = {
    "bool2": ("true", "false", " true"),
    "nat": ("0", "00", "1", "2", "100000000000000000000"),
    "prob": ("0", "0/3", "1/2", "2/4", "1"),
    "prod(prob,int)": ("(0,0)", "(0/2,0)", "(1/2,5)", "(2/4,5)", "(1,-3)"),
}


@st.composite
def _documents(draw, tag, n_places, n_transitions):
    """A net document whose arcs come in any order and may equal the default."""
    texts = _TEXTS[tag]
    cells = [(u, x) for u in range(n_places) for x in range(n_transitions)]

    def arcs():
        listed = draw(st.lists(st.sampled_from(cells), unique=True) if cells else st.just([]))
        return tuple((f"p{u}", f"t{x}", draw(st.sampled_from(texts))) for u, x in listed)

    return NetDocument(
        lineale=tag,
        default_weight=draw(st.sampled_from(texts)),
        places=tuple(f"p{i}" for i in range(n_places)),
        transitions=tuple(f"t{i}" for i in range(n_transitions)),
        pre=arcs(),
        post=arcs(),
    )


def _dense_relations(doc):
    """The pre and post matrices a document denotes, filled cell by cell."""
    lin = get_lineale(doc.lineale)
    places = FinSet(len(doc.places), doc.places)
    transitions = FinSet(len(doc.transitions), doc.transitions)

    def matrix(triples):
        grid = [[lin.parse(doc.default_weight).payload] * transitions.size for _ in doc.places]
        for p, t, v in triples:
            grid[places.index_of(p)][transitions.index_of(t)] = lin.parse(v).payload
        return DialObject(lin, places, transitions, tuple(map(tuple, grid)))

    return matrix(doc.pre), matrix(doc.post)


def _modal_oracle(pre, post):
    counts = {}
    for obj in (pre, post):
        for row in obj.weight:
            for v in row:
                counts[v] = counts.get(v, 0) + 1
    return max(counts, key=counts.__getitem__) if counts else pre.lin.unit_payload


def _assert_stored_form(net):
    for arcs in (net.pre_arcs, net.post_arcs):
        assert list(arcs) == sorted(arcs)
        assert all(0 <= k < net.places.size * net.transitions.size for k in arcs)
        assert all(v != net.default for v in arcs.values())


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_TEXTS)).flatmap(
    lambda tag: st.tuples(st.integers(0, 4), st.integers(0, 4)).flatmap(
        lambda shape: _documents(tag, *shape)
    )
))
def test_loaded_net_equals_net_of_its_dense_relations(doc):
    pre, post = _dense_relations(doc)
    net = document_to_net(doc)
    assert net == net_from_relations(pre, post)
    assert net.pre == pre and net.post == post
    assert net.default == _modal_oracle(pre, post)
    _assert_stored_form(net)
    _assert_stored_form(net_from_relations(pre, post))


def test_modal_tie_counts_an_unlisted_default_cell_first():
    # 0 and 1 both fill two cells; the unlisted cell (p0, t) of pre comes
    # first, although the arc that lists 0 again comes after both 1s
    doc = NetDocument(
        "nat", "0", ("p0", "p1"), ("t",),
        pre=(("p1", "t", "1"),),
        post=(("p1", "t", "0"), ("p0", "t", "1")),
    )
    pre, post = _dense_relations(doc)
    net = document_to_net(doc)
    assert net.default == 0 == _modal_oracle(pre, post)
    assert net == net_from_relations(pre, post)


@st.composite
def _net_pairs(draw):
    """Two nets of one lineale, often with different defaults, and a cap."""
    tag = draw(st.sampled_from(sorted(_TEXTS)))
    a, b = (
        document_to_net(draw(_documents(tag, draw(st.integers(0, 4)), draw(st.integers(0, 4)))))
        for _ in range(2)
    )
    return a, b, draw(st.integers(0, 20))


@settings(max_examples=300, deadline=None)
@given(_net_pairs(), st.sampled_from([(net_with, with_product), (net_oplus, oplus)]))
def test_with_and_oplus_copy_arcs_as_the_dense_route_does(case, ops):
    a, b, cap = case
    net_op, dense_op = ops
    try:
        pre, post = dense_op(a.pre, b.pre, cap), dense_op(a.post, b.post, cap)
    except CapExceeded as e:
        with pytest.raises(CapExceeded, match=re.escape(str(e))):
            net_op(a, b, cap)
        return
    net, expected = net_op(a, b, cap), net_from_relations(pre, post)
    assert net == expected
    assert list(net.pre_arcs) == list(expected.pre_arcs)
    assert list(net.post_arcs) == list(expected.post_arcs)
    assert net.places.labels == pre.pos.labels
    assert net.transitions.labels == pre.neg.labels
    assert net.pre == pre and net.post == post
    assert net.default == _modal_oracle(pre, post)
    _assert_stored_form(net)


@st.composite
def _net_morphisms(draw):
    """Two nets of one lineale and arbitrary (often non-injective) tables."""
    tag = draw(st.sampled_from(sorted(_TEXTS)))
    n_u, n_x = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    n_v = draw(st.integers(1 if n_u else 0, 4))
    n_y = draw(st.integers(0, 4 if n_x else 0))
    source = document_to_net(draw(_documents(tag, n_u, n_x)))
    target = document_to_net(draw(_documents(tag, n_v, n_y)))
    f_table = tuple(draw(st.integers(0, n_v - 1)) for _ in range(n_u))
    big_f_table = tuple(draw(st.integers(0, n_x - 1)) for _ in range(n_y))
    f = FnTable(source.places, target.places, f_table)
    big_f = FnTable(target.transitions, source.transitions, big_f_table)
    return source, target, f, big_f


@settings(max_examples=400, deadline=None)
@given(_net_morphisms())
def test_sparse_check_equals_dense_oracle(case):
    source, target, f, big_f = case
    assert check_net_morphism(source, target, f, big_f) == _dense_check(source, target, f, big_f)


def test_failing_default_comparison_lists_every_cell():
    # over nat 0 is not below 1, so every cell off the arcs is a violation
    n = NAT.value
    source = net_from_arcs(NAT, ("a", "b"), ("t", "u"), n(0), {("a", "t"): n(3)}, {})
    target = net_from_arcs(NAT, ("c",), ("s", "r", "q"), n(1), {}, {("c", "q"): n(0)})
    f = FnTable(source.places, target.places, (0, 0))
    big_f = FnTable(target.transitions, source.transitions, (0, 0, 1))
    violations = check_net_morphism(source, target, f, big_f)
    assert violations == _dense_check(source, target, f, big_f)
    # pre: all six cells but the two over the source arc (3 sits below 1);
    # post: all six cells but the two at the target's 0 arc
    assert [(v.part, v.u, v.y) for v in violations] == [
        ("pre", 0, 2), ("pre", 1, 0), ("pre", 1, 1), ("pre", 1, 2),
        ("post", 0, 0), ("post", 0, 1), ("post", 1, 0), ("post", 1, 1),
    ]


def test_violations_come_in_row_major_order():
    # cells 16 and 9 sit in one small hash set in that order, not sorted
    n = NAT.value
    places, transitions = tuple(f"p{i}" for i in range(4)), tuple(f"t{i}" for i in range(5))
    arcs = {("p3", "t1"): n(1), ("p1", "t4"): n(1), ("p0", "t2"): n(1)}
    source = net_from_arcs(NAT, places, transitions, n(5), arcs, {})
    target = net_from_arcs(NAT, places, transitions, n(5), {}, arcs)
    m = net_identity(source)
    violations = check_net_morphism(source, target, m.fwd, m.bwd)
    assert violations == _dense_check(source, target, m.fwd, m.bwd)
    assert [(v.part, v.u, v.y) for v in violations] == [
        ("pre", 0, 2), ("pre", 1, 4), ("pre", 3, 1),
    ]


def test_shape_check_and_sparse_check_do_not_densify(monkeypatch):
    n_p, n_t = 3000, 300
    places = tuple(f"p{i}" for i in range(n_p))
    transitions = tuple(f"t{i}" for i in range(n_t))
    arcs = {(places[i * 7], transitions[i % n_t]): NAT.value(i % 5 + 1) for i in range(400)}
    net = net_from_arcs(NAT, places, transitions, NAT.value(0), arcs, arcs)
    # carriers of 60 x 50, so with and oplus stay under the cap
    few = {(p, t): w for (p, t), w in arcs.items() if p in places[:60] and t in transitions[:50]}
    small = net_from_arcs(NAT, places[:60], transitions[:50], NAT.value(0), few, {})
    raised = net_from_arcs(NAT, places[:60], transitions[:50], NAT.value(1), {}, few)

    def densify(*args, **kwargs):
        raise AssertionError("densified a net")

    monkeypatch.setattr(PetriNet, "_relation", densify)
    for name in ("with_product", "oplus", "check_morphism"):
        monkeypatch.setattr(dialnet.dialset, name, densify)
        monkeypatch.setattr(dialnet.petrinet, name, densify, raising=False)
    m = net_identity(net)
    assert check_net_morphism(net, net, m.fwd, m.bwd) == []
    assert net_morphism(net, net, m.fwd, m.bwd) == m
    # 0 is not below 1, so every cell off the source arcs fails
    m = net_identity(small)
    violations = check_net_morphism(small, raised, m.fwd, m.bwd)
    assert len(violations) == 2 * 60 * 50 - len(few)
    assert net_with(small, raised).places.size == 3600
    assert net_oplus(small, raised).transitions.size == 2500
