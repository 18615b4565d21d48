"""The machine-checked law suites.

Green runs over every required lineale live here at modest case counts;
test_acceptance.py repeats them at the full advertised counts.  The
mutation tests prove the suites can actually fail.
"""

import random

import pytest

from dialnet import (
    BOOL2,
    INT,
    CapExceeded,
    KLEENE3,
    LawResult,
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
from dialnet.laws import _Law, random_morphism_into, random_object

ALL_TAGS = ("bool2", "kleene3", "nat", "int", "prob", "prod(prob,int)")


def failing(results):
    return [r for r in results if not r.passed]


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


def test_random_morphism_into_is_valid():
    rng = random.Random(23)
    for _ in range(25):
        t = random_object(KLEENE3, rng)
        m = random_morphism_into(KLEENE3, rng, t)
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
        KLEENE3.tensor(broken.unit, KLEENE3.unit)


def test_broken_imp_fails_on_bool2_too():
    rs = lineale_laws(mutate_imp(BOOL2))
    assert any(r.name == "hom.adjunction" for r in failing(rs))


def test_broken_imp_breaks_the_oracle():
    rs = adjunction_oracle(mutated_kleene3(), cases=6)
    assert failing(rs) != []


def test_mutated_suite_differs_from_honest_suite():
    # same seeds, same counts; the only difference is the broken imp
    honest = {r.name: r.passed for r in run_all(KLEENE3, cases=6)}
    broken = {r.name: r.passed for r in run_all(mutated_kleene3(), cases=6)}
    assert all(honest.values())
    assert not all(broken.values())


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


def test_coherence_with_no_pentagon_under_the_cap():
    with pytest.raises(CapExceeded) as exc:
        coherence_laws(BOOL2, cases=1, cap=0)
    assert exc.value.cap == 0 and exc.value.required == 1
