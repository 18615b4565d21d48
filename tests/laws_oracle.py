"""The record-level adjunction and uniqueness loops, kept as the tests' oracle.

laws.adjunction_oracle and laws.universal_laws read hom-sets as tables:
the right hom-set of the adjunction and the uniqueness candidates are
(fwd, bwd) table pairs, the round trip and the composites with the
projections and injections are worked out on tables, and the shared
tensor(A, B) is compared once per triple with one built on its own.
Here every enumerated morphism is a DialMorphism, every transpose goes
through uncurry_dial and every composite through dialset.compose, and
each law compares whole records, as in the definitions.  The tests
assert that both give equal LawResults: names, verdicts, case counts
and counterexample texts.
"""

import random

from dialnet.dialset import (
    _shared,
    check_morphism,
    compose,
    curry_dial,
    enumerate_morphisms,
    hom_obj,
    identity,
    oplus,
    oplus_copair,
    oplus_inl,
    oplus_inr,
    tensor_mor,
    tensor_obj,
    uncurry_dial,
    with_pairing,
    with_product,
    with_proj1,
    with_proj2,
)
from dialnet.laws import _Law, _show_mor, _show_obj, _valid, random_morphism, random_object


def adjunction_oracle(lin, seed, cases):
    """laws.adjunction_oracle with both hom-sets enumerated as morphisms."""
    rng = random.Random(seed)
    counts = _Law("adjunction.homset.counts")
    bijection = _Law("adjunction.bijection")
    roundtrip = _Law("adjunction.roundtrip")
    validity = _Law("adjunction.transpose.valid")
    natural = _Law("adjunction.natural")
    for i in range(cases):
        a = random_object(lin, rng)
        b = random_object(lin, rng)
        # built outside the share, so that the round trip holds the shared
        # tensor(A, B) that uncurry_dial builds to one built on its own
        ab = tensor_obj(a, b)
        with _shared():
            if i % 4 == 3:
                c = random_object(lin, rng)
            else:
                c = random_morphism(lin, rng, ab).target
            h = hom_obj(b, c)
            left = enumerate_morphisms(ab, c)
            right = enumerate_morphisms(a, h)
            ctx = lambda: (
                f"A={_show_obj(a)} B={_show_obj(b)} C={_show_obj(c)} "
                f"|left|={len(left)} |right|={len(right)}"
            )
            counts.check(len(left) == len(right), ctx)
            right_keys = {(m.fwd.table, m.bwd.table) for m in right}
            seen = set()
            for m in left:
                im = curry_dial(m, a, b)
                key = (im.fwd.table, im.bwd.table)
                bijection.check(
                    key in right_keys and key not in seen,
                    lambda: f"{ctx()} curried={_show_mor(im)}",
                )
                seen.add(key)
                roundtrip.check(uncurry_dial(im, b, c) == m, lambda: _show_mor(m))
                validity.check(not check_morphism(a, h, im.fwd, im.bwd), lambda: _show_mor(im))
            if left:
                m = rng.choice(left)
                n = random_morphism(lin, rng, a, into=True)
                lhs = curry_dial(compose(m, tensor_mor(n, identity(b))), n.source, b)
                rhs = compose(curry_dial(m, a, b), n)
                natural.check(lhs == rhs, lambda: f"{_show_mor(m)} via {_show_mor(n)}")
    return [law.result() for law in (counts, bijection, roundtrip, validity, natural)]


def universal_laws(lin, seed, cases):
    """laws.universal_laws with every uniqueness candidate a morphism."""
    rng = random.Random(seed)
    p_med = _Law("product.mediating")
    p_unq = _Law("product.unique")
    s_med = _Law("coproduct.mediating")
    s_unq = _Law("coproduct.unique")
    for _ in range(cases):
        src = random_object(lin, rng)
        m1 = random_morphism(lin, rng, src)
        m2 = random_morphism(lin, rng, src)
        a, b = m1.target, m2.target
        pair = with_pairing(m1, m2)
        p1, p2 = with_proj1(a, b), with_proj2(a, b)
        ctx = lambda: f"{_show_mor(m1)} & {_show_mor(m2)}"
        projected = compose(p1, pair) == m1 and compose(p2, pair) == m2
        p_med.check(projected and all(map(_valid, (pair, p1, p2))), ctx)
        mediating = [
            m
            for m in enumerate_morphisms(src, with_product(a, b))
            if compose(p1, m) == m1 and compose(p2, m) == m2
        ]
        p_unq.check(mediating == [pair], ctx)

        tgt = random_object(lin, rng)
        n1 = random_morphism(lin, rng, tgt, into=True)
        n2 = random_morphism(lin, rng, tgt, into=True)
        a, b = n1.source, n2.source
        cop = oplus_copair(n1, n2)
        i1, i2 = oplus_inl(a, b), oplus_inr(a, b)
        ctx = lambda: f"{_show_mor(n1)} (+) {_show_mor(n2)}"
        injected = compose(cop, i1) == n1 and compose(cop, i2) == n2
        s_med.check(injected and all(map(_valid, (cop, i1, i2))), ctx)
        mediating = [
            m
            for m in enumerate_morphisms(oplus(a, b), tgt)
            if compose(m, i1) == n1 and compose(m, i2) == n2
        ]
        s_unq.check(mediating == [cop], ctx)
    return [law.result() for law in (p_med, p_unq, s_med, s_unq)]
