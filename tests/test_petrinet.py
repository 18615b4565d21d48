"""Nets as pre/post weighted relations over shared carriers, plus the
five worked examples.  Arc weights below were read off the reaction
descriptions by hand and act as the oracle for the shipped example
documents: every cell of every example is compared with them.
"""

import json
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import dialnet.dialset
import dialnet.petrinet
import dense
from dialnet import (
    INT,
    KLEENE3,
    NAT,
    PROB,
    EXAMPLE_NAMES,
    CapExceeded,
    DialMorphism,
    DialObject,
    FinSet,
    FnTable,
    Lineale,
    NetDocument,
    NetViolation,
    PetriNet,
    ShapeMismatch,
    TagMismatch,
    build_example,
    check_morphism,
    check_net_morphism,
    compose,
    document_to_net,
    example_default,
    example_path,
    get_lineale,
    identity,
    net_from_arcs,
    net_hom,
    net_oplus,
    net_tensor,
    net_with,
    oplus,
    tensor_obj,
    with_product,
)
from index_oracle import fn_pair_from_index


def weight(net, part, place, transition):
    obj = dense.relation(net, part)
    u = net.places.index_of(place)
    x = net.transitions.index_of(transition)
    return obj.cells[u * net.transitions.size + x]


def certified(source, target, f, F):
    """The net morphism (f, F), after checking that it has no violations."""
    assert check_net_morphism(source, target, f, F) == []
    return DialMorphism(source, target, f, F)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_pre_and_post_share_carriers():
    water = build_example("water")
    pre, post = dense.pre(water), dense.post(water)
    assert pre.pos is water.places
    assert post.pos is water.places
    assert pre.neg is water.transitions
    assert dense.net_from_relations(pre, post) == water
    assert hash(dense.net_from_relations(pre, post)) == hash(water)
    with pytest.raises(ShapeMismatch):
        dense.net_from_relations(pre, tensor_obj(post, post))
    # the relations' labels do not count
    assert DialObject(pre.lin, FinSet(3), FinSet(1), pre.cells) == pre
    # the net read from its document is the net built from its arcs
    doc = json.loads(example_path("water").read_text(encoding="utf-8"))
    lin = get_lineale(doc["lineale"])
    pre_arcs, post_arcs = ({(p, t): lin.parse(w) for p, t, w in doc[k]} for k in ("pre", "post"))
    fields = (tuple(doc["places"]), tuple(doc["transitions"]), lin.parse(doc["default_weight"]))
    built = net_from_arcs(lin, *fields, pre_arcs, post_arcs)
    assert built == water and hash(built) == hash(water)
    assert {water: "read"}[built] == "read"
    pre_arcs[("H2", "t")] = lin.parse("3")
    assert net_from_arcs(lin, *fields, pre_arcs, post_arcs) != water


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


def assert_net(net, lin, places, transitions, default, pre, post):
    """net is over lin with these labels and default, and each relation
    holds the default except at its listed (place, transition) arcs."""
    assert net.lin == lin
    assert net.places.labels == places
    assert net.transitions.labels == transitions
    assert net.default == default
    for part, arcs in (("pre", pre), ("post", post)):
        assert set(arcs) <= {(p, t) for p in places for t in transitions}
        for p in places:
            for t in transitions:
                expected = arcs.get((p, t), default)
                assert weight(net, part, p, t) == expected, (part, p, t)


def test_water_arcs():
    # 2 H2 + O2 -> 2 H2O
    assert_net(
        build_example("water"),
        NAT,
        ("H2", "O2", "H2O"),
        ("t",),
        0,
        pre={("H2", "t"): 2, ("O2", "t"): 1},
        post={("H2O", "t"): 2},
    )


def test_sir_probabilities():
    half = Fraction(1, 2)
    assert_net(
        build_example("sir"),
        PROB,
        ("S", "I", "R"),
        ("c", "r", "i"),
        0,
        pre={
            ("S", "c"): half,  # contact
            ("I", "c"): 1,
            ("I", "r"): half,  # recovery
            ("I", "i"): half,  # stays infected: 1 - recovery
        },
        post={
            ("I", "c"): half,  # infection
            ("S", "c"): half,  # 1 - infection
            ("R", "r"): 1,
            ("I", "i"): 1,
        },
    )


def test_circadian_shape_and_hypothesized_arcs():
    # 1 = present, -1 = absent, 0 = hypothesized; two arcs are only
    # hypothesized, everything else is definite presence or absence
    assert_net(
        build_example("circadian"),
        KLEENE3,
        (
            "P1",
            "KaiA1",
            "KaiA2",
            "KaiBC+P",
            "KaiABC+P",
            "KaiB1",
            "P2",
            "KaiAC",
            "KaiAC+P",
            "KaiB2",
            "P4",
            "P3",
        ),
        ("dephos1", "dephos2", "phos1", "phos2"),
        -1,
        pre={
            ("KaiABC+P", "dephos1"): 1,
            ("KaiAC", "dephos1"): 0,
            ("KaiBC+P", "dephos2"): 1,
            ("KaiA2", "dephos2"): 1,
            ("P3", "phos1"): 1,
            ("KaiAC", "phos1"): 1,
            ("KaiAC+P", "phos2"): 1,
            ("KaiB2", "phos2"): 1,
            ("P4", "phos2"): 1,
            ("KaiBC+P", "phos2"): 0,
        },
        post={
            ("P1", "dephos1"): 1,
            ("KaiBC+P", "dephos1"): 1,
            ("KaiA1", "dephos1"): 1,
            ("KaiB1", "dephos2"): 1,
            ("P2", "dephos2"): 1,
            ("KaiAC", "dephos2"): 1,
            ("KaiAC+P", "phos1"): 1,
            ("KaiABC+P", "phos2"): 1,
        },
    )


def test_inhibitor_threshold():
    assert_net(
        build_example("inhibitor"),
        INT,
        ("S1", "S2", "S3", "I"),
        ("r",),
        0,
        pre={("S1", "r"): 2, ("S2", "r"): 2, ("I", "r"): -3},
        post={("S3", "r"): 1},
    )


def test_catalysis_pairs():
    # product payloads are plain (rate, role) pairs: role 0 is a reactant
    # or product, a negative role an inhibitor threshold, a positive role
    # a catalyst threshold
    r1, r2, r3, r4, r5 = (Fraction(k, 10) for k in range(1, 6))
    assert_net(
        build_example("catalysis"),
        get_lineale("prod(prob,int)"),
        ("S1", "S2", "S3", "I", "C"),
        ("r",),
        (0, 0),
        pre={
            ("S1", "r"): (r1, 0),
            ("S2", "r"): (r2, 0),
            ("I", "r"): (r4, -3),
            ("C", "r"): (r5, 5),
        },
        post={("S3", "r"): (r3, 0)},
    )


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
    # a name that would reach a shipped file through the path is still refused
    for name in ("../data/water", "water/../water"):
        with pytest.raises(ShapeMismatch, match="unknown example"):
            build_example(name)


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
    m = identity(water)
    assert check_net_morphism(water, water, m.fwd, m.bwd) == []


def test_weight_lowering_is_a_simulation():
    # counting weights sit in the reversed order, so lowering an arc
    # weight in the target keeps the condition satisfiable
    water = build_example("water")
    variant = lowered_water()
    f = FnTable(water.places, variant.places, (0, 1, 2))
    F = FnTable(variant.transitions, water.transitions, (0,))
    m = certified(water, variant, f, F)
    assert m.source is water


def test_weight_raising_fails_with_one_violation():
    water = build_example("water")
    variant = lowered_water()
    f = FnTable(variant.places, water.places, (0, 1, 2))
    F = FnTable(water.transitions, variant.transitions, (0,))
    vs = check_net_morphism(variant, water, f, F)
    assert vs == [NetViolation("pre", 0, 0, NAT.value(1), NAT.value(2))]


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
    m = certified(
        water,
        variant,
        FnTable(water.places, variant.places, (0, 1, 2)),
        FnTable(variant.transitions, water.transitions, (0,)),
    )
    i = identity(variant)
    c = compose(i, m)
    assert c.fwd == m.fwd and c.bwd == m.bwd


# ---------------------------------------------------------------------------
# connectives commute with the pre/post projections
# ---------------------------------------------------------------------------


def test_tensor_carrier_sizes():
    water = build_example("water")
    t = net_tensor(water, water)
    assert t.places.size == 9
    assert t.places.labels[0] == "(H2,H2)"
    assert dense.pre(t) == tensor_obj(dense.pre(water), dense.pre(water))
    assert dense.post(t) == tensor_obj(dense.post(water), dense.post(water))


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
    from dialnet import hom_obj

    water, sir = build_example("water"), build_example("sir")
    # no connective builds the relations, but each says what they would
    for net_op, dense_op in (
        (net_with, with_product), (net_oplus, oplus), (net_tensor, tensor_obj), (net_hom, hom_obj)
    ):
        with pytest.raises(TagMismatch) as expected:
            dense_op(dense.pre(water), dense.pre(sir))
        with pytest.raises(TagMismatch, match=re.escape(str(expected.value))):
            net_op(water, sir)


def test_with_and_oplus_over_the_cap_raise_as_the_dense_route_does():
    def net(n_p, n_t):
        places, transitions = tuple(f"p{i}" for i in range(n_p)), tuple(f"t{i}" for i in range(n_t))
        return net_from_arcs(NAT, places, transitions, NAT.value(0), {("p0", "t0"): NAT.value(1)}, {})

    # 65 x 64 = 4160 result places for with, result transitions for oplus
    for net_op, dense_op, a, b in (
        (net_with, with_product, net(65, 1), net(64, 2)),
        (net_oplus, oplus, net(1, 65), net(2, 64)),
    ):
        with pytest.raises(CapExceeded) as expected:
            dense_op(dense.pre(a), dense.pre(b))
        assert (expected.value.required, expected.value.cap) == (4160, 4096)
        with pytest.raises(CapExceeded, match=re.escape(str(expected.value))):
            net_op(a, b)


def test_connectives_refuse_a_result_relation_over_the_cell_budget():
    from dialnet.finset import MAX_CELLS

    def net(n_p, n_t):
        places, transitions = tuple(f"p{i}" for i in range(n_p)), tuple(f"t{i}" for i in range(n_t))
        return net_from_arcs(NAT, places, transitions, NAT.value(0), {}, {})

    # every result carrier is within DEFAULT_CAP; only the cells are over
    over = (
        (net_with, net(64, 128), net(64, 129), 4096 * 257),
        (net_oplus, net(129, 64), net(128, 64), 257 * 4096),
        (net_tensor, net(4096, 4096), net(1, 1), 4096 * 4096),
        (net_hom, net(1, 1), net(4096, 4096), 4096 * 4096),
    )
    for net_op, a, b, cells in over:
        with pytest.raises(CapExceeded) as raised:
            net_op(a, b)
        assert (raised.value.required, raised.value.cap) == (cells, MAX_CELLS)
        assert str(raised.value) == f"net relation needs {cells} cells, cap is {MAX_CELLS}"
    # exactly at the budget is built
    assert net_with(net(64, 128), net(64, 128)).transitions.size * 4096 == MAX_CELLS
    assert net_oplus(net(128, 64), net(128, 64)).places.size * 4096 == MAX_CELLS


def test_all_connectives_commute_with_projections():
    from dialnet import hom_obj

    a, b = build_example("water"), lowered_water()
    assert dense.pre(net_with(a, b)) == with_product(dense.pre(a), dense.pre(b))
    assert dense.post(net_with(a, b)) == with_product(dense.post(a), dense.post(b))
    assert dense.pre(net_oplus(a, b)) == oplus(dense.pre(a), dense.pre(b))
    assert dense.pre(net_hom(a, b)) == hom_obj(dense.pre(a), dense.pre(b))
    assert dense.post(net_hom(a, b)) == hom_obj(dense.post(a), dense.post(b))


# ---------------------------------------------------------------------------
# random cross-checks against the relation layer
# ---------------------------------------------------------------------------


def random_nat_net(rng, n_places, n_transitions):
    places = FinSet(n_places, tuple(f"p{i}" for i in range(n_places)))
    transitions = FinSet(n_transitions, tuple(f"t{i}" for i in range(n_transitions)))
    mk = lambda: DialObject(NAT, places, transitions, tuple(
        rng.randint(0, 5) for _ in range(n_places * n_transitions)
    ))
    return dense.net_from_relations(mk(), mk())


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
            n_x = source.transitions.size
            hits = [obj.cells[u * n_x + F.table[y]] for u in range(source.places.size) if f.table[u] == v]
            return min(hits) if hits else 0

        cells = tuple(weight(v, y) for v in range(np_t) for y in range(nt_t))
        return DialObject(NAT, places, transitions, cells)

    target = dense.net_from_relations(lowered(dense.pre(source)), lowered(dense.post(source)))
    return certified(source, target, f, F)


def _dense_check(a, b, f, big_f):
    """The net condition as the dense relation check on pre, then on post."""
    return [NetViolation("pre", *v) for v in check_morphism(dense.pre(a), dense.pre(b), f, big_f)] + [
        NetViolation("post", *v) for v in check_morphism(dense.post(a), dense.post(b), f, big_f)
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
        left = compose(m3, compose(m2, m1))
        right = compose(compose(m3, m2), m1)
        assert left.fwd == right.fwd and left.bwd == right.bwd
        i = identity(a)
        assert compose(m1, i).fwd == m1.fwd
        assert compose(m1, i).bwd == m1.bwd


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
    """The dense pre and post relations a document denotes, filled cell by cell."""
    lin = get_lineale(doc.lineale)
    places = FinSet(len(doc.places), doc.places)
    transitions = FinSet(len(doc.transitions), doc.transitions)

    def matrix(triples):
        cells = [lin.parse(doc.default_weight).payload] * (places.size * transitions.size)
        for p, t, v in triples:
            cells[places.index_of(p) * transitions.size + transitions.index_of(t)] = lin.parse(v).payload
        return DialObject(lin, places, transitions, tuple(cells))

    return matrix(doc.pre), matrix(doc.post)


def _modal_oracle(pre, post):
    counts = {}
    for obj in (pre, post):
        for v in obj.cells:
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
    assert net == dense.net_from_relations(pre, post)
    assert dense.pre(net) == pre and dense.post(net) == post
    assert net.default == _modal_oracle(pre, post)
    _assert_stored_form(net)
    _assert_stored_form(dense.net_from_relations(pre, post))


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
    assert net == dense.net_from_relations(pre, post)


@st.composite
def _net_pairs(draw):
    """Two nets of one lineale, often with different defaults."""
    tag = draw(st.sampled_from(sorted(_TEXTS)))
    return tuple(
        document_to_net(draw(_documents(tag, draw(st.integers(0, 4)), draw(st.integers(0, 4)))))
        for _ in range(2)
    )


@settings(max_examples=300, deadline=None)
@given(_net_pairs(), st.sampled_from([(net_with, with_product), (net_oplus, oplus)]))
def test_with_and_oplus_copy_arcs_as_the_dense_route_does(case, ops):
    a, b = case
    net_op, dense_op = ops
    pre, post = dense_op(dense.pre(a), dense.pre(b)), dense_op(dense.post(a), dense.post(b))
    net, expected = net_op(a, b), dense.net_from_relations(pre, post)
    assert net == expected
    assert list(net.pre_arcs) == list(expected.pre_arcs)
    assert list(net.post_arcs) == list(expected.post_arcs)
    assert net.places.labels == pre.pos.labels
    assert net.transitions.labels == pre.neg.labels
    assert dense.pre(net) == pre and dense.post(net) == post
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


def _nat_morphism(places, transitions, pre, post, f, big_f):
    """A nat morphism between nets of default 0: places and transitions
    are (source labels, target labels) pairs, pre and post (source arcs,
    target arcs) pairs of {(place, transition): weight}, f and big_f tables."""
    n = NAT.value
    source, target = (
        net_from_arcs(NAT, places[i], transitions[i], n(0),
                      {k: n(w) for k, w in pre[i].items()}, {k: n(w) for k, w in post[i].items()})
        for i in (0, 1)
    )
    return (source, target, FnTable(source.places, target.places, f),
            FnTable(target.transitions, source.transitions, big_f))


# Over nat, v is above the default 0 only when v is 0, so every target arc
# below fails against it.  Source places p0, p1, p2 map to target places
# q0, q1, q0 (f is not injective); target transitions s0, s1 map back to
# t0, t1, so t2 is outside F's image.
_TWO_PASSES = _nat_morphism(
    (("p0", "p1", "p2"), ("q0", "q1")),
    (("t0", "t1", "t2"), ("s0", "s1")),
    # (p0, t0) sits under both a source arc and the failing target arc (q0, s0)
    ({("p0", "t0"): 1, ("p1", "t0"): 1, ("p2", "t2"): 4},
     {("q0", "s0"): 2, ("q1", "s0"): 3, ("q0", "s1"): 2}),
    ({}, {("q1", "s1"): 1}),
    (0, 1, 0),
    (0, 1),
)
_UNDER_BOTH = _nat_morphism(
    (("p0", "p1"), ("q0", "q1")), (("t0", "t1"), ("s0", "s1")),
    ({("p0", "t0"): 1}, {("q0", "s0"): 2}), ({}, {}), (0, 1), (0, 1),
)
_NO_PLACES = _nat_morphism(((), ("q0",)), (("t0",), ("s0",)), ({}, {}), ({}, {}), (), (0,))
_NO_TRANSITIONS = _nat_morphism(
    (("p0", "p1"), ("q0",)), ((), ()), ({}, {}), ({}, {}), (0, 0), (),
)


@settings(max_examples=400, deadline=None)
@given(_net_morphisms())
@example(_TWO_PASSES)
@example(_UNDER_BOTH)
@example(_NO_PLACES)
@example(_NO_TRANSITIONS)
def test_sparse_check_equals_dense_oracle(case):
    source, target, f, big_f = case
    assert check_net_morphism(source, target, f, big_f) == _dense_check(source, target, f, big_f)


def test_the_two_passes_list_each_failing_cell_once_in_row_major_order():
    violations = check_net_morphism(*_TWO_PASSES)
    assert violations == _dense_check(*_TWO_PASSES)
    # pass one fails (0, 0) and (1, 0) at their source arcs, with the source
    # arc's weight; pass two fails the preimage rows 0 and 2 of the target
    # arcs (q0, s0) and (q0, s1), except (0, 0), which sits under a source arc
    assert [(v.part, v.u, v.y, v.source_weight.payload, v.target_weight.payload)
            for v in violations] == [
        ("pre", 0, 0, 1, 2), ("pre", 0, 1, 0, 2), ("pre", 1, 0, 1, 3),
        ("pre", 2, 0, 0, 2), ("pre", 2, 1, 0, 2), ("post", 1, 1, 0, 1),
    ]
    assert check_net_morphism(*_UNDER_BOTH) == [
        NetViolation("pre", 0, 0, NAT.value(1), NAT.value(2)),
    ]
    assert check_net_morphism(*_NO_PLACES) == check_net_morphism(*_NO_TRANSITIONS) == []


def test_the_check_compares_each_source_arc_cell_and_each_target_payload_once():
    compared = []

    def counting(a, b):
        compared.append((a, b))
        return a >= b

    lin = Lineale(**{**{name: getattr(NAT, name) for name in Lineale.__slots__}, "_leq": counting})
    places = tuple(f"p{i}" for i in range(3000))
    transitions = tuple(f"t{i}" for i in range(300))
    source_arcs = {(places[i * 600], transitions[i * 60]): lin.value(3) for i in range(5)}
    shared = lin.value(10**6)  # one payload object, not above the source default 0
    target_arcs = {(places[i * 59 + 1], transitions[i * 5]): shared for i in range(50)}
    source = net_from_arcs(lin, places, transitions, lin.value(0), source_arcs, source_arcs)
    target = net_from_arcs(lin, places, transitions, lin.value(0), target_arcs, target_arcs)
    assert len({id(v) for v in target.pre_arcs.values()}) == 1
    m = identity(source)
    compared.clear()
    violations = check_net_morphism(source, target, m.fwd, m.bwd)
    assert len(violations) == 2 * 50
    # per relation: 5 source-arc cells, 1 distinct target payload, 1 for the defaults
    assert len(compared) <= 2 * (5 + 1 + 1)


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
    m = identity(source)
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

    monkeypatch.setattr(DialObject, "__post_init__", densify)
    for name in ("with_product", "oplus", "check_morphism"):
        monkeypatch.setattr(dialnet.dialset, name, densify)
        monkeypatch.setattr(dialnet.petrinet, name, densify, raising=False)
    m = identity(net)
    assert check_net_morphism(net, net, m.fwd, m.bwd) == []
    assert DialMorphism(net, net, m.fwd, m.bwd) == m
    # 0 is not below 1, so every cell off the source arcs fails
    m = identity(small)
    violations = check_net_morphism(small, raised, m.fwd, m.bwd)
    assert len(violations) == 2 * 60 * 50 - len(few)
    assert net_with(small, raised).places.size == 3600
    assert net_oplus(small, raised).transitions.size == 2500


# ---------------------------------------------------------------------------
# net tensor and hom against the dense route and the per-cell formula
# ---------------------------------------------------------------------------


def _assert_cells_follow_the_formula(net_op, a, b, net):
    """Every result cell of net_tensor or net_hom is the connective's
    formula on the input cells that (f, g) or (f, F) picks; net and objects
    share one cell builder, so the dense route alone would not check it."""
    (n_u, n_x), (n_v, n_y) = (a.pos.size, a.neg.size), (b.pos.size, b.neg.size)
    lin = a.lin
    for part in ("pre", "post"):
        wa, wb = dense.relation(a, part).cells, dense.relation(b, part).cells
        w, n_t = dense.relation(net, part).cells, net.transitions.size
        if net_op is net_tensor:
            for c in range(net.transitions.size):
                f, g = fn_pair_from_index(c, n_v, n_x, n_u, n_y)
                for r in range(net.places.size):
                    u, v = divmod(r, n_v)
                    assert w[r * n_t + c] == lin._tensor(wa[u * n_x + f[v]], wb[v * n_y + g[u]])
        else:
            for r in range(net.places.size):
                f, big_f = fn_pair_from_index(r, n_u, n_v, n_y, n_x)
                for c in range(net.transitions.size):
                    u, y = divmod(c, n_y)
                    assert w[r * n_t + c] == lin._imp(wa[u * n_x + big_f[y]], wb[f[u] * n_y + y])


def _assert_equals_dense_route(net_op, dense_op, a, b):
    """net_op(a, b) is the stored form of dense_op on both relations: the
    same default, the same arcs in the same order, the same labels, and
    over the cap the same CapExceeded; and every cell follows the formula."""
    try:
        pre = dense_op(dense.pre(a), dense.pre(b))
        post = dense_op(dense.post(a), dense.post(b))
    except CapExceeded as e:
        with pytest.raises(CapExceeded, match=re.escape(str(e))) as raised:
            net_op(a, b)
        assert (raised.value.required, raised.value.cap) == (e.required, e.cap)
        return
    net, expected = net_op(a, b), dense.net_from_relations(pre, post)
    assert net.default == expected.default == _modal_oracle(pre, post)
    assert list(net.pre_arcs.items()) == list(expected.pre_arcs.items())
    assert list(net.post_arcs.items()) == list(expected.post_arcs.items())
    assert net.places.labels == pre.pos.labels
    assert net.transitions.labels == pre.neg.labels
    assert net == expected
    _assert_stored_form(net)
    _assert_cells_follow_the_formula(net_op, a, b, net)


@settings(max_examples=300, deadline=None)
@given(_net_pairs(), st.sampled_from(["tensor", "hom"]))
def test_tensor_and_hom_equal_the_dense_route(case, op):
    from dialnet import hom_obj

    net_op, dense_op = {"tensor": (net_tensor, tensor_obj), "hom": (net_hom, hom_obj)}[op]
    _assert_equals_dense_route(net_op, dense_op, *case)


def _doc_net(tag, places, transitions, default, pre=(), post=()):
    return document_to_net(NetDocument(tag, default, places, transitions, pre, post))


def test_tensor_and_hom_ties_go_to_the_value_met_first():
    from dialnet import hom_obj

    # one place and transition each: pre holds 0 + 0, post 1 + 0, a tie
    # that pre's value wins
    one = _doc_net("nat", ("p",), ("t",), "0", post=(("p", "t", "1"),))
    zero = _doc_net("nat", ("q",), ("s",), "0")
    assert net_tensor(one, zero).default == 0 and net_tensor(one, zero).post_arcs == {0: 1}
    # ties whose first cells sit where hom's op-table order is not the order
    # of first cells: the first pair needs columns (u, y) ordered by u first,
    # the second rows (f, F) ordered by f first (found by a random search)
    places, one_t, two_t = ("p0", "p1"), ("t0",), ("t0", "t1")
    pairs = [
        (_doc_net("nat", places, one_t, "0", (("p1", "t0", "1"),), (("p0", "t0", "2"),)),
         _doc_net("nat", places, two_t, "3", (("p0", "t0", "2"), ("p1", "t1", "0")),
                  (("p0", "t0", "1"),))),
        (_doc_net("nat", places, two_t, "0", (("p0", "t1", "1"),),
                  (("p1", "t0", "3"), ("p1", "t1", "3"))),
         _doc_net("nat", places, one_t, "2", (("p0", "t0", "1"),), (("p0", "t0", "3"),))),
        (one, zero),
    ]
    for x, y in pairs:
        for net_op, dense_op in ((net_tensor, tensor_obj), (net_hom, hom_obj)):
            _assert_equals_dense_route(net_op, dense_op, x, y)
            _assert_equals_dense_route(net_op, dense_op, y, x)


def test_tensor_and_hom_of_default_only_and_empty_nets():
    from dialnet import hom_obj

    nets = [
        _doc_net("prob", ("p0", "p1"), ("t0", "t1", "t2"), "1/2"),
        _doc_net("prob", ("q0",), ("s0", "s1"), "1"),
        _doc_net("prob", (), ("s0",), "0"),
        _doc_net("prob", ("q0", "q1"), (), "1/3"),
        _doc_net("prod(prob,int)", ("p0", "p1"), ("t0",), "(1/2,3)", pre=(("p1", "t0", "(2/4,3)"),)),
    ]
    for a in nets:
        for b in nets:
            if a.lin.tag == b.lin.tag:
                for net_op, dense_op in ((net_tensor, tensor_obj), (net_hom, hom_obj)):
                    _assert_equals_dense_route(net_op, dense_op, a, b)
    # a default-only input is a default-only result, however many cells
    big = _doc_net("nat", tuple(f"p{i}" for i in range(64)), tuple(f"t{i}" for i in range(64)), "0")
    unit = _doc_net("nat", ("p",), ("t",), "1")
    # over nat, tensor is + and 1 implies 0 is max(0 - 1, 0)
    for net, default in ((net_tensor(big, unit), 1), (net_hom(unit, big), 0)):
        assert (net.default, net.pre_arcs, net.post_arcs) == (default, {}, {})


def _guard_cells(monkeypatch):
    """Patch the cell builders of net_tensor and net_hom so that the cell
    iterators they return raise when read while reads["allowed"] is False."""
    reads = {"allowed": False}

    def guard(build):
        def guarded(*args):
            table, cells = build(*args)

            def read():
                if not reads["allowed"]:
                    raise AssertionError("read a relation's cells")
                yield from cells

            return table, read()

        return guarded

    for name in ("_tensor_cells", "_hom_cells"):
        monkeypatch.setattr(dialnet.petrinet, name, guard(getattr(dialnet.petrinet, name)))
    return reads


def test_tensor_and_hom_read_cells_only_on_a_tie_or_for_arcs(monkeypatch):
    from dialnet import hom_obj

    reads = _guard_cells(monkeypatch)
    ops = ((net_tensor, tensor_obj), (net_hom, hom_obj))
    # arc-free inputs give one value per op table: the default, with no arcs
    arc_free = [
        (_doc_net("nat", ("p0", "p1"), ("t0", "t1", "t2"), "2"), _doc_net("nat", ("q0",), ("s0", "s1"), "3")),
        (_doc_net("prob", ("p0",), ("t0", "t1"), "1/2"), _doc_net("prob", ("q0", "q1"), ("s0",), "1/3")),
        (_doc_net("kleene3", ("p0", "p1"), ("t0",), "0"), _doc_net("kleene3", ("q0",), ("s0", "s1"), "1")),
    ]
    for a, b in arc_free:
        for net_op, dense_op in ops:
            _assert_equals_dense_route(net_op, dense_op, a, b)
            _assert_equals_dense_route(net_op, dense_op, b, a)
    # a tie reads the cells: pre holds 0 + 0, post 1 + 0
    one = _doc_net("nat", ("p",), ("t",), "0", post=(("p", "t", "1"),))
    zero = _doc_net("nat", ("q",), ("s",), "0")
    with pytest.raises(AssertionError, match="read a relation's cells"):
        net_tensor(one, zero)
    reads["allowed"] = True
    for net_op, dense_op in ops:
        _assert_equals_dense_route(net_op, dense_op, one, zero)
        _assert_equals_dense_route(net_op, dense_op, zero, one)


def test_tensor_and_hom_of_arc_free_nets_build_no_op_table(monkeypatch):
    from dialnet import hom_obj

    # the shapes each cell builder of net_tensor and net_hom is called with
    shapes = []

    def record(build):
        def recorded(lin, a_rows, b_rows, *args):
            shapes.append(args)
            return build(lin, a_rows, b_rows, *args)

        return recorded

    for name in ("_tensor_cells", "_hom_cells"):
        monkeypatch.setattr(dialnet.petrinet, name, record(getattr(dialnet.petrinet, name)))
    ops = ((net_tensor, tensor_obj), (net_hom, hom_obj))
    # arc-free nets, with empty carriers on either side
    arc_free = [
        _doc_net("nat", ("p0", "p1"), ("t0", "t1", "t2"), "2"),
        _doc_net("nat", ("q0",), ("s0", "s1"), "3"),
        _doc_net("nat", (), ("s0",), "1"),
        _doc_net("nat", ("q0", "q1"), (), "4"),
        _doc_net("nat", (), (), "5"),
    ]
    for a in arc_free:
        for b in arc_free:
            for net_op, dense_op in ops:
                _assert_equals_dense_route(net_op, dense_op, a, b)
                shapes.clear()
                net = net_op(a, b)
                if net.places.size * net.transitions.size:
                    # only op(a.default, b.default) is computed
                    assert shapes == [((1, 1), (1, 1))]
    # one input with an arc: the whole op table is built
    one_arc = _doc_net("nat", ("p0", "p1"), ("t0",), "2", pre=(("p1", "t0", "5"),))
    for net_op, dense_op in ops:
        for a, b in ((one_arc, arc_free[1]), (arc_free[1], one_arc)):
            shapes.clear()
            _assert_equals_dense_route(net_op, dense_op, a, b)
            assert tuple((n.places.size, n.transitions.size) for n in (a, b)) in shapes


def test_combine_builds_no_dialobject(tmp_path, monkeypatch):
    from dialnet import example_path
    from dialnet.cli import main

    def build(*args, **kwargs):
        raise AssertionError("built a DialObject")

    monkeypatch.setattr(DialObject, "__post_init__", build)
    for name in ("water", "sir", "catalysis"):
        path = str(example_path(name))
        for op in ("tensor", "hom", "with", "oplus"):
            assert main(["combine", "--op", op, path, path, "--out", str(tmp_path / "x.net")]) == 0
