"""The machine-checked law suites.

Green runs over every required lineale live here at modest case counts;
test_acceptance.py repeats them at the full advertised counts.  The
mutation tests prove the suites can actually fail.
"""

import contextlib
import functools
import itertools
import random

import pytest

import dialnet.dialset
import dialnet.finset
import dialnet.laws
from dialnet import (
    BOOL2,
    DialMorphism,
    DialnetError,
    DialObject,
    FinSet,
    FnTable,
    ShapeMismatch,
    INT,
    KLEENE3,
    LawResult,
    Lineale,
    LinealeValue,
    NAT,
    PROB,
    TagMismatch,
    UnknownLineale,
    adjunction_oracle,
    category_laws,
    check_morphism,
    coherence_laws,
    functoriality_laws,
    get_lineale,
    lineale_laws,
    mutate_imp,
    mutated_kleene3,
    run_all,
    universal_laws,
)
from dialnet.finset import compose as table_compose
from dialnet.laws import _Law, random_morphism, random_object

ALL_TAGS = ("bool2", "kleene3", "nat", "int", "prob", "prod(prob,int)")


def failing(results):
    return [r for r in results if not r.passed]


def _with(lin, **changes):
    """lin with the fields in changes replaced, built through Lineale's constructor."""
    return Lineale(**{**{name: getattr(lin, name) for name in Lineale.__slots__}, **changes})


# ---------------------------------------------------------------------------
# everything is green
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_lineale_suite_green(tag):
    rs = lineale_laws(get_lineale(tag), cases=64)
    assert failing(rs) == []


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_full_run_green(tag):
    rs = run_all(get_lineale(tag), cases=24)
    assert failing(rs) == []


@pytest.mark.parametrize("lin", [KLEENE3, BOOL2], ids=["kleene3", "bool2"])
def test_law_suites_build_no_labelled_carrier(monkeypatch, lin):
    # the suites' objects have unlabelled carriers, and a product, sum or
    # function space of unlabelled factors is unlabelled too
    labels = []
    init = FinSet.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        labels.append(self.labels)

    monkeypatch.setattr(FinSet, "__init__", recording)
    assert failing(run_all(lin, cases=8)) == []
    assert labels and set(labels) == {None}


def test_exhaustive_counts_for_finite_carriers():
    # finite carriers get every quadruple, which covers the advertised
    # triple counts (8 and 27) with room to spare
    by_name = {r.name: r for r in lineale_laws(BOOL2)}
    assert by_name["hom.adjunction"].cases == 2**4
    by_name = {r.name: r for r in lineale_laws(KLEENE3)}
    assert by_name["hom.adjunction"].cases == 3**4
    # infinite carriers honor the requested count
    by_name = {r.name: r for r in lineale_laws(NAT, cases=321)}
    assert by_name["hom.adjunction"].cases == 321


@pytest.mark.parametrize(
    "lin, identity_cases, assoc_cases",
    [(KLEENE3, 37217, 80), (BOOL2, 2901, 45), (mutated_kleene3(), 37217, 80)],
    ids=["kleene3", "bool2", "mutated_kleene3"],
)
def test_exhaustive_category_case_counts_are_pinned(lin, identity_cases, assoc_cases):
    # a faster enumeration or law check must not shrink the case set; the
    # mutated copy keeps kleene3's counts (its adjunction failure is checked
    # by test_broken_imp_fails_adjunction_with_counterexample)
    by_name = {r.name: r for r in category_laws(lin, cases=1)}
    assert by_name["category.identity.exhaustive"].cases == identity_cases
    assert by_name["category.assoc.exhaustive"].cases == assoc_cases
    assert by_name["category.identity.exhaustive"].passed
    assert by_name["category.assoc.exhaustive"].passed


@pytest.mark.parametrize("lin, identity_cases", [(KLEENE3, 37217), (BOOL2, 2901)], ids=["kleene3", "bool2"])
def test_exhaustive_identity_law_counts_its_cases_when_every_table_keeps_it(
    monkeypatch, lin, identity_cases
):
    # with honest composition and identities every table space keeps the
    # law, so each source's cases are counted and none is searched in order
    def refused(sources, targets):
        raise AssertionError("the ordered search ran")

    monkeypatch.setattr(dialnet.laws, "_hom_tables", refused)
    law = {r.name: r for r in category_laws(lin, cases=1)}["category.identity.exhaustive"]
    assert law.passed and law.cases == identity_cases


def _kept_swap(g, f, compose=dialnet.finset.compose):
    # (0, 1) after (1, 0) comes out as (0, 1), so id . swap != swap
    if (g.table, f.table) == ((0, 1), (1, 0)):
        return FnTable(f.dom, g.cod, (0, 1))
    return compose(g, f)


def _dropped_backward(m2, m1):
    # the backward table is m1's alone wherever its shape allows
    if m1.target != m2.source:
        raise ShapeMismatch("cannot compose: middle objects differ")
    bwd = m1.bwd if m1.bwd.dom.size == m2.target.neg.size else table_compose(m1.bwd, m2.bwd)
    return DialMorphism(m1.source, m2.target, table_compose(m2.fwd, m1.fwd), bwd)


def _reversed_on_square(m2, m1):
    # m1 after m2 wherever all three objects share a shape, so the ends
    # keep their shapes; the middle-object check goes with the order
    if m1.source.shape == m1.target.shape == m2.target.shape:
        m2, m1 = m1, m2
    fwd, bwd = table_compose(m2.fwd, m1.fwd), table_compose(m1.bwd, m2.bwd)
    return DialMorphism(m1.source, m2.target, fwd, bwd)


def _swapped_identity_table(a):
    # the identity table read back to front, a swap on two elements
    return FnTable(a, a, tuple(range(a.size))[::-1])


def _constant_identity_backward(a, identity=dialnet.dialset.identity):
    m = identity(a)
    return DialMorphism(a, a, m.fwd, FnTable(a.neg, a.neg, (0,) * a.neg.size))


def _swapped_positive_identity(a, identity=dialnet.dialset.identity):
    # a swap as the identity of a 2-element positive carrier, so the forward
    # and backward identity tables of one size differ
    m = identity(a)
    if a.pos.size != 2:
        return m
    return DialMorphism(a, a, FnTable(a.pos, a.pos, (1, 0)), m.bwd)


# the first counterexample each broken composition or identity gives, as
# the law printed it when it still checked enumerate_morphisms' morphisms
BROKEN_IDENTITY_COUNTEREXAMPLES = {
    ("kept-swap", "kleene3"): "fwd=() bwd=(1, 0) src=0x2[] tgt=0x2[]",
    ("kept-swap", "bool2"): "fwd=() bwd=(1, 0) src=0x2[] tgt=0x2[]",
    ("dropped-backward", "kleene3"): "fwd=() bwd=(1, 1) src=0x2[] tgt=2x2[1,1; 1,1]",
    ("dropped-backward", "bool2"):
        "fwd=() bwd=(1, 1) src=0x2[] tgt=2x2[true,true; true,true]",
    ("reversed-on-square", "kleene3"):
        "fwd=(1, 1) bwd=(1, 1) src=2x2[-1,-1; -1,-1] tgt=2x2[1,1; 1,1]",
    ("reversed-on-square", "bool2"):
        "fwd=(1, 1) bwd=(1, 1) src=2x2[false,false; false,false] tgt=2x2[true,true; true,true]",
    ("swapped-identity-table", "kleene3"): "fwd=() bwd=(0,) src=0x2[] tgt=0x1[]",
    ("swapped-identity-table", "bool2"): "fwd=() bwd=(0,) src=0x2[] tgt=0x1[]",
    ("constant-identity-backward", "kleene3"): "fwd=() bwd=(1,) src=0x2[] tgt=0x1[]",
    ("constant-identity-backward", "bool2"): "fwd=() bwd=(1,) src=0x2[] tgt=0x1[]",
    # the forward table (0,) fails by itself; a verdict stored under the
    # backward identity tables of the same sizes must not answer it
    ("swapped-positive-identity", "kleene3"): "fwd=(0,) bwd=() src=1x0[] tgt=2x0[; ]",
    ("swapped-positive-identity", "bool2"): "fwd=(0,) bwd=() src=1x0[] tgt=2x0[; ]",
}


@pytest.mark.parametrize("lin", [KLEENE3, BOOL2], ids=["kleene3", "bool2"])
@pytest.mark.parametrize(
    "broken, where, mutant",
    [
        pytest.param(broken, where, mutant, id=broken)
        for broken, where, mutant in [
            ("kept-swap", [(dialnet.finset, "compose")], _kept_swap),
            ("dropped-backward", [(dialnet.dialset, "compose"), (dialnet.laws, "compose")],
             _dropped_backward),
            ("reversed-on-square", [(dialnet.dialset, "compose"), (dialnet.laws, "compose")],
             _reversed_on_square),
            # dialset binds finset.identity as table_identity
            ("swapped-identity-table",
             [(dialnet.finset, "identity"), (dialnet.dialset, "table_identity")],
             _swapped_identity_table),
            ("constant-identity-backward",
             [(dialnet.dialset, "identity"), (dialnet.laws, "identity")],
             _constant_identity_backward),
            ("swapped-positive-identity", [(dialnet.laws, "identity")], _swapped_positive_identity),
        ]
    ],
)
def test_exhaustive_identity_law_catches_broken_composition(monkeypatch, lin, broken, where, mutant):
    # the law composes through the library: a broken finset.compose,
    # dialset.compose or identity must fail it, not only the random laws by
    # luck of seed, and name the same first counterexample as before
    for module, name in where:
        monkeypatch.setattr(module, name, mutant)
    by_name = {r.name: r for r in category_laws(lin, cases=1)}
    law = by_name["category.identity.exhaustive"]
    assert not law.passed and law.cases == {KLEENE3: 37217, BOOL2: 2901}[lin]
    assert law.counterexample == BROKEN_IDENTITY_COUNTEREXAMPLES[broken, lin.tag]


def test_show_obj_cuts_non_square_cells_into_rows():
    # the pinned counterexamples are 2x2, 0xn or 2x0, which print the same
    # with rows and columns swapped; these do not
    show = dialnet.laws._show_obj
    assert show(DialObject(NAT, FinSet(2), FinSet(3), (0, 1, 2, 3, 4, 5))) == "2x3[0,1,2; 3,4,5]"
    assert show(DialObject(NAT, FinSet(3), FinSet(1), (0, 1, 2))) == "3x1[0; 1; 2]"


@pytest.mark.parametrize(
    "lin, bottom, counterexample",
    [
        (KLEENE3, -1, "fwd=(1,) bwd=(0, 0) src=1x1[-1] tgt=2x2[1,1; 1,1]"),
        (BOOL2, False, "fwd=(1,) bwd=(0, 0) src=1x1[false] tgt=2x2[true,true; true,true]"),
    ],
    ids=["kleene3", "bool2"],
)
def test_exhaustive_identity_law_composes_the_last_case_out_of_each_source(
    monkeypatch, lin, bottom, counterexample
):
    # a constant forward table for every composite out of one 1 x 1 object:
    # only the last case out of that object goes through dialset.compose,
    # so that case alone fails and is the law's counterexample
    source = DialObject(lin, FinSet(1), FinSet(1), (bottom,))

    def broken(m2, m1, compose=dialnet.dialset.compose):
        m = compose(m2, m1)
        if m.source != source:
            return m
        return DialMorphism(m.source, m.target, FnTable(m.fwd.dom, m.fwd.cod, (0,) * m.fwd.dom.size), m.bwd)

    for module in (dialnet.dialset, dialnet.laws):
        monkeypatch.setattr(module, "compose", broken)
    law = {r.name: r for r in category_laws(lin, cases=1)}["category.identity.exhaustive"]
    assert not law.passed and law.cases == {KLEENE3: 37217, BOOL2: 2901}[lin]
    assert law.counterexample == counterexample


def test_suite_names_are_stable():
    names = {r.name for r in run_all(BOOL2, cases=4)}
    expected = {
        "order.reflexive",
        "order.antisymmetric",
        "order.transitive",
        "monoid.associative",
        "monoid.unit",
        "monoid.commutative",
        "order.compatible",
        "hom.adjunction",
        "hom.variance",
        "category.identity.exhaustive",
        "category.assoc.exhaustive",
        "category.identity.random",
        "category.assoc.random",
        "category.compose.valid",
        "tensor.functor.identity",
        "tensor.functor.composition",
        "tensor.functor.valid",
        "hom.functor.identity",
        "hom.functor.composition",
        "hom.functor.valid",
        "product.mediating",
        "product.unique",
        "coproduct.mediating",
        "coproduct.unique",
        "coherence.pentagon",
        "coherence.triangle",
        "coherence.unitor.weights",
        "coherence.unitor.iso",
        "coherence.associator.iso",
        "coherence.symmetry.involution",
        "coherence.symmetry.natural",
        "coherence.symmetry.unitor",
        "adjunction.homset.counts",
        "adjunction.bijection",
        "adjunction.roundtrip",
        "adjunction.transpose.valid",
        "adjunction.natural",
    }
    assert names == expected


def test_law_suites_are_seed_deterministic():
    a = category_laws(KLEENE3, seed=5, cases=30)
    b = category_laws(KLEENE3, seed=5, cases=30)
    assert a == b


def test_law_result_formatting():
    ok = LawResult("x.y", True, 12)
    bad = LawResult("x.y", False, 12, "a=1 b=2")
    assert str(ok) == "pass  x.y (12 cases)"
    assert "FAIL" in str(bad) and "a=1 b=2" in str(bad)


@pytest.mark.parametrize("seed", [2, 3, 5])
def test_no_law_passes_on_zero_cases(seed):
    # independent draws over prod(prob,int) left Hom(A (x) B, C) empty here
    rs = run_all(get_lineale("prod(prob,int)"), seed=seed, cases=8)
    assert [r.name for r in rs if r.cases == 0] == []
    assert failing(rs) == []


def test_a_law_that_checked_no_case_fails():
    r = _Law("x.y").result()
    assert not r.passed and r.cases == 0
    assert "no case" in str(r)


def test_random_morphism_into_an_object_is_valid():
    rng = random.Random(23)
    for _ in range(25):
        t = random_object(KLEENE3, rng)
        m = random_morphism(KLEENE3, rng, t, into=True)
        assert m.target == t
        assert check_morphism(m.source, m.target, m.fwd, m.bwd) == []


# ---------------------------------------------------------------------------
# mutation sensitivity: the suites must be able to say no
# ---------------------------------------------------------------------------


def test_broken_imp_fails_adjunction_with_counterexample():
    rs = lineale_laws(mutated_kleene3())
    bad = {r.name: r for r in failing(rs)}
    assert "hom.adjunction" in bad
    assert bad["hom.adjunction"].counterexample  # concrete witness reported
    # the mutation leaves order and monoid structure intact
    for name in ("order.reflexive", "monoid.associative", "monoid.unit"):
        assert name not in bad


def test_broken_imp_has_its_own_tag():
    broken = mutated_kleene3()
    assert broken != KLEENE3
    with pytest.raises(UnknownLineale):
        get_lineale(broken.tag)
    with pytest.raises(TagMismatch):
        broken.leq(broken.value(1), KLEENE3.value(1))
    with pytest.raises(TagMismatch):
        KLEENE3.tensor(_unit(broken), _unit(KLEENE3))


def test_broken_imp_fails_on_bool2_too():
    rs = lineale_laws(mutate_imp(BOOL2))
    assert any(r.name == "hom.adjunction" for r in failing(rs))


def test_broken_imp_breaks_the_oracle():
    rs = adjunction_oracle(mutated_kleene3(), cases=6)
    assert failing(rs) != []


def test_a_lineale_built_positionally_in_the_documented_order_passes_its_laws():
    # the field order README gives: tag, unit payload, then the payload ops
    ops = (BOOL2._leq, BOOL2._tensor, BOOL2._imp, BOOL2._sample, BOOL2._validate, BOOL2._parse)
    args = ("bool2_again", True, *ops, BOOL2._coerce, (False, True), None)
    lin = Lineale(*args)
    assert [getattr(lin, name) for name in Lineale.__slots__] == list(args)
    assert lin != BOOL2 and lin._carrier == (False, True)
    results = lineale_laws(lin)
    assert results and all(r.passed for r in results)
    # the identity is the default coercion
    assert Lineale(*args[:8]).value(True) == lin.value(True)


def test_mutate_imp_leaves_the_honest_lineale_as_it_was():
    imp, one, low = KLEENE3._imp, KLEENE3.value(1), KLEENE3.value(-1)
    broken = mutate_imp(KLEENE3)
    assert KLEENE3._imp is imp and KLEENE3.tag == "kleene3"
    assert KLEENE3.imp(one, low) == low and broken._imp(1, -1) == 1
    assert broken != KLEENE3 and broken.tag == "mutate_imp(kleene3)"
    with pytest.raises(UnknownLineale):
        get_lineale(broken.tag)
    assert get_lineale("kleene3") is KLEENE3


def test_mutated_suite_differs_from_honest_suite():
    # same seeds, same counts; the only difference is the broken imp
    honest = {r.name: r.passed for r in run_all(KLEENE3, cases=6)}
    broken = {r.name: r.passed for r in run_all(mutated_kleene3(), cases=6)}
    assert all(honest.values())
    assert not all(broken.values())


def _unit(lin):
    return LinealeValue(lin.tag, lin.unit_payload)


# each axiom a mutant below breaks, on values through the public ops
_AXIOM_ON_VALUES = {
    "order.reflexive": lambda L, a, b, c, d: L.leq(a, a),
    "order.antisymmetric": lambda L, a, b, c, d: not (L.leq(a, b) and L.leq(b, a)) or a == b,
    "order.transitive": lambda L, a, b, c, d: not (L.leq(a, b) and L.leq(b, c)) or L.leq(a, c),
    "monoid.associative": lambda L, a, b, c, d: L.tensor(L.tensor(a, b), c) == L.tensor(a, L.tensor(b, c)),
    "monoid.unit": lambda L, a, b, c, d: L.tensor(_unit(L), a) == a == L.tensor(a, _unit(L)),
    "monoid.commutative": lambda L, a, b, c, d: L.tensor(a, b) == L.tensor(b, a),
    "hom.variance": lambda L, a, b, c, d: (
        not (L.leq(b, a) and L.leq(c, d)) or L.leq(L.imp(a, c), L.imp(b, d))
    ),
}

# (lineale, what the mutant replaces, the law it must fail); kleene3's laws
# run over every quadruple, nat's over seeded samples
_AXIOM_MUTANTS = [
    (KLEENE3, {"_tensor": lambda a, b: a}, "monoid.commutative"),
    (KLEENE3, {"_tensor": lambda a, b: -min(a, b)}, "monoid.associative"),
    (KLEENE3, {"unit_payload": 0}, "monoid.unit"),
    (KLEENE3, {"_leq": lambda a, b: a < b}, "order.reflexive"),
    (KLEENE3, {"_leq": lambda a, b: True}, "order.antisymmetric"),
    (KLEENE3, {"_leq": lambda a, b: b in (a, a + 1)}, "order.transitive"),
    (KLEENE3, {"_imp": lambda a, b: a}, "hom.variance"),
    (NAT, {"_tensor": lambda a, b: a}, "monoid.commutative"),
    (NAT, {"_tensor": lambda a, b: abs(a - b)}, "monoid.associative"),
    (NAT, {"unit_payload": 1}, "monoid.unit"),
    (NAT, {"_leq": lambda a, b: a > b}, "order.reflexive"),
    (NAT, {"_leq": lambda a, b: True}, "order.antisymmetric"),
    (NAT, {"_leq": lambda a, b: a in (b, b + 1)}, "order.transitive"),
    (NAT, {"_imp": lambda a, b: a}, "hom.variance"),
]


@pytest.mark.parametrize(
    "lin, fields, law_name",
    _AXIOM_MUTANTS,
    ids=[f"{lin.tag}-{law}-{','.join(f)}" for lin, f, law in _AXIOM_MUTANTS],
)
def test_a_broken_axiom_fails_with_the_first_counterexample(lin, fields, law_name):
    mutant = _with(lin, tag=f"mutant({lin.tag})", **fields)
    seed, cases = 5, 400
    got = {r.name: r for r in lineale_laws(mutant, seed, cases)}[law_name]
    # the same quadruples as values, in the same order, checked one by one
    value = functools.partial(LinealeValue, mutant.tag)
    carrier = mutant._carrier
    if carrier is not None:
        quads = itertools.product(map(value, carrier), repeat=4)
    else:
        rng = random.Random(seed)
        quads = (tuple(value(mutant._sample(rng, 6)) for _ in range(4)) for _ in range(cases))
    holds = _AXIOM_ON_VALUES[law_name]
    first = next(q for q in quads if not holds(mutant, *q))
    assert (got.passed, got.cases) == (False, len(carrier) ** 4 if carrier else cases)
    assert got.counterexample == "a={} b={} c={} d={}".format(*first)


def _reversed(construct, side: str = "bwd"):
    # the construction with its backward (or forward) table read back to
    # front: the shapes still fit, the morphism is wrong
    def mutant(*args):
        m = construct(*args)
        t = getattr(m, side)
        return DialMorphism(**{**m._asdict(), side: FnTable(t.dom, t.cod, t.table[::-1])})

    return mutant


@pytest.mark.parametrize(
    "construction, suite, law_name",
    [
        ("tensor_mor", functoriality_laws, "tensor.functor.identity"),
        ("associator", coherence_laws, "coherence.associator.iso"),
        ("curry_dial", adjunction_oracle, "adjunction.roundtrip"),
        ("with_pairing", universal_laws, "product.mediating"),
        ("oplus_copair", universal_laws, "coproduct.mediating"),
        ("symmetry", coherence_laws, "coherence.symmetry.involution"),
        ("hom_mor.fwd", functoriality_laws, "hom.functor.composition"),
    ],
)
def test_broken_construction_fails_the_law_that_names_it(monkeypatch, construction, suite, law_name):
    # "name.fwd" reverses the forward table of the construction name
    def verdict():
        return {r.name: r for r in suite(KLEENE3, seed=1, cases=8)}[law_name].passed

    assert verdict()
    name, _, side = construction.partition(".")
    mutant = _reversed(getattr(dialnet.dialset, name), side or "bwd")
    for module in (dialnet.dialset, dialnet.laws):
        monkeypatch.setattr(module, name, mutant)
    assert not verdict()


@pytest.mark.parametrize("construction", ["with_proj1", "oplus_inl.fwd"])
def test_a_broken_projection_or_injection_fails_a_law(monkeypatch, construction):
    # product.mediating and coproduct.mediating check that the maps they
    # compose with are morphisms: at this seed both mutants compose to the
    # right maps on every case, but they are not morphisms
    name, _, side = construction.partition(".")
    mutant = _reversed(getattr(dialnet.dialset, name), side or "bwd")
    for module in (dialnet.dialset, dialnet.laws):
        monkeypatch.setattr(module, name, mutant)
    assert failing(run_all(KLEENE3, seed=1, cases=8))


def _flaky(cells_of):
    # the cell builder with its first cell changed to another carrier value
    # on every second call: equal factors no longer give equal objects
    calls = itertools.count()

    def mutant(lin, *args):
        table, cells = cells_of(lin, *args)
        if next(calls) % 2:
            first = next(cells)
            cells = itertools.chain([next(v for v in lin._carrier if v != first)], cells)
        return table, cells

    return mutant


@pytest.mark.parametrize("lin", [KLEENE3, BOOL2], ids=lambda lin: lin.tag)
@pytest.mark.parametrize("suite", [coherence_laws, functoriality_laws, adjunction_oracle])
def test_a_nondeterministic_tensor_fails_every_suite_that_shares_it(monkeypatch, lin, suite):
    # the change sits below the share, so the suites must still compare an
    # object built outside it with its shared twin to see it
    assert not failing(suite(lin, seed=1, cases=8))
    monkeypatch.setattr(dialnet.dialset, "_tensor_cells", _flaky(dialnet.dialset._tensor_cells))
    try:
        assert failing(suite(lin, seed=1, cases=8))
    except DialnetError:
        pass


@pytest.mark.parametrize("suite", [coherence_laws, functoriality_laws, adjunction_oracle])
def test_the_share_lives_one_case(monkeypatch, suite):
    # each case opens an empty share of its own and drops it when it ends,
    # so nothing built in one case is reachable from the next or afterwards
    shared, sizes = dialnet.dialset._shared, []

    @contextlib.contextmanager
    def recording():
        assert dialnet.dialset._share.get() is None
        with shared():
            assert dialnet.dialset._share.get() == {}
            yield
            sizes.append(len(dialnet.dialset._share.get()))
        assert dialnet.dialset._share.get() is None

    monkeypatch.setattr(dialnet.laws, "_shared", recording)
    assert not failing(suite(KLEENE3, seed=1, cases=8))
    assert len(sizes) == 8 and min(sizes) > 0
    assert dialnet.dialset._share.get() is None


# ---------------------------------------------------------------------------
# spot checks on suite internals that the acceptance run leans on
# ---------------------------------------------------------------------------


def test_functoriality_uses_exact_table_equality():
    rs = functoriality_laws(BOOL2, cases=40)
    assert failing(rs) == []
    names = {r.name for r in rs}
    assert "tensor.functor.composition" in names
    assert "hom.functor.composition" in names


def test_universal_laws_include_uniqueness():
    rs = universal_laws(BOOL2, cases=40)
    assert failing(rs) == []
    names = {r.name for r in rs}
    assert {"product.mediating", "product.unique",
            "coproduct.mediating", "coproduct.unique"} <= names


def test_coherence_includes_pentagon_and_triangle():
    rs = coherence_laws(BOOL2, cases=12)
    assert failing(rs) == []
    by_name = {r.name: r for r in rs}
    assert by_name["coherence.pentagon"].cases >= 12
    assert by_name["coherence.triangle"].cases >= 12


def test_every_pentagon_size_within_the_entry_budget_fits_the_cap():
    # coherence_laws draws pentagon sizes from the combinations within the entry
    # budget; capping the largest carrier as well, as it once did, keeps the same list
    laws, cap = dialnet.laws, dialnet.finset.DEFAULT_CAP
    stages = laws._pentagon_stages
    combos = list(itertools.product(itertools.product(laws._SIZES, repeat=2), repeat=4))
    within = [c for c in combos if sum(p * n for p, n in stages(c)) <= laws._PENTAGON_ENTRY_BUDGET]
    assert within == [c for c in within if max(max(s) for s in stages(c)) <= cap]
    assert len(within) == 207 and ((1, 1),) * 4 in within and ((2, 2),) * 4 not in within
    for combo in within:
        assert len(stages(combo)) == 12 and all(max(shape) <= cap for shape in stages(combo))


_UNORDERED = _with(NAT, _leq=lambda a, b: False)


@pytest.mark.parametrize(
    "call, fragment",
    [
        (lambda: dialnet.laws._bound(_UNORDERED, 1, 2, True), "no upper bound rule for nat"),
        (lambda: dialnet.laws._bound(_UNORDERED, 1, 2, False), "no lower bound rule for nat"),
        (lambda: dialnet.laws.all_objects(NAT), "nat has an infinite carrier"),
        (lambda: dialnet.laws.all_objects(INT), "int has an infinite carrier"),
    ],
    ids=["no_upper_bound", "no_lower_bound", "all_objects_nat", "all_objects_int"],
)
def test_a_law_helper_refuses_a_lineale_it_cannot_serve(call, fragment):
    with pytest.raises(DialnetError, match=fragment):
        call()


# ---------------------------------------------------------------------------
# the adjunction and uniqueness laws read hom-sets as tables; the record-level
# loops in laws_oracle must give the same results
# ---------------------------------------------------------------------------

import laws_oracle  # noqa: E402

_ORACLE_LINEALES = [
    *map(get_lineale, (*ALL_TAGS, "prod(bool2,kleene3)")),
    mutate_imp(KLEENE3),
    mutate_imp(NAT),
]


@pytest.mark.parametrize("lin", _ORACLE_LINEALES, ids=lambda lin: lin.tag)
@pytest.mark.parametrize("suite", ["adjunction_oracle", "universal_laws"])
def test_the_table_reading_gives_the_record_oracles_results(lin, suite):
    for seed in range(1, 6):
        got = getattr(dialnet.laws, suite)(lin, seed, 8)
        assert got == getattr(laws_oracle, suite)(lin, seed, 8)
        assert all(r.cases > 0 for r in got)


def _verdicts(suite, *names):
    by_name = {r.name: r for r in suite(KLEENE3, seed=1, cases=8)}
    return [by_name[name].passed for name in names]


def test_a_reversed_uncurry_table_rule_fails_the_round_trip(monkeypatch):
    # the round trip runs laws' own reading of uncurry_dial's table rule
    assert _verdicts(adjunction_oracle, "adjunction.roundtrip") == [True]
    rule = dialnet.laws._uncurried

    def mutant(*args):
        fwd, bwd = rule(*args)
        return fwd, bwd[::-1]

    monkeypatch.setattr(dialnet.laws, "_uncurried", mutant)
    assert _verdicts(adjunction_oracle, "adjunction.roundtrip") == [False]


def test_a_right_hom_set_reader_that_drops_its_last_table_fails_the_counts(monkeypatch):
    assert _verdicts(adjunction_oracle, "adjunction.homset.counts") == [True]
    read = dialnet.laws._hom_tables

    def mutant(*args):  # every table but the last backward table of the last forward one
        found = [(a, b, f, [*bwds]) for a, b, f, bwds in read(*args)]
        if found:
            found[-1][3].pop()
        return iter(found)

    monkeypatch.setattr(dialnet.laws, "_hom_tables", mutant)
    assert _verdicts(adjunction_oracle, "adjunction.homset.counts") == [False]


def test_a_candidate_reader_that_yields_the_mediating_map_twice_fails_uniqueness(monkeypatch):
    names = ("product.unique", "coproduct.unique")
    assert _verdicts(universal_laws, *names) == [True, True]
    read = dialnet.laws._hom_tables

    def mutant(*args):  # every backward table twice over
        for a, b, f, bwds in read(*args):
            yield a, b, f, (bt for bt in bwds for _ in range(2))

    monkeypatch.setattr(dialnet.laws, "_hom_tables", mutant)
    assert _verdicts(universal_laws, *names) == [False, False]
