"""Executable law suites for lineales, the relation category, and its structure.

Every algebraic claim the package relies on is rechecked here from
scratch: nothing trusts the constructors.  Suites return LawResult
records (one per law) with a counterexample string on failure, so both
the CLI and the test suite can surface exactly which instance broke
and where.

Finite lineales are checked exhaustively; infinite ones with seeded
random values.  Random objects keep carrier sizes in {1, 2} so that
the brute-force morphism enumerations stay under the size cap, and
random valid morphisms are produced constructively: pick the tables
first, then force the target (or source) weights to satisfy the order
condition by joining in the constrained values.
"""

from __future__ import annotations

import itertools
import random
from typing import NamedTuple, Optional

from .dialset import (
    DialObject,
    DialMorphism,
    associator,
    check_morphism,
    compose,
    curry_dial,
    dial_morphism,
    enumerate_morphisms,
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
from .errors import CapExceeded, DialnetError
from .finset import DEFAULT_CAP, FinSet, FnTable, tensor_shape
from .lineale import KLEENE3, Lineale, format_payload

__all__ = [
    "DEFAULT_SEED",
    "LawResult",
    "lineale_laws",
    "category_laws",
    "adjunction_oracle",
    "functoriality_laws",
    "coherence_laws",
    "universal_laws",
    "run_all",
    "all_objects",
    "random_object",
    "random_morphism_from",
    "random_morphism_into",
    "mutate_imp",
    "mutated_kleene3",
]

DEFAULT_SEED = 1729

_SIZES = (1, 2)
_VALUE_BOUND = 4  # small sample space makes order relations actually fire


class LawResult(NamedTuple):
    name: str
    passed: bool
    cases: int
    counterexample: Optional[str] = None

    def __str__(self) -> str:
        mark = "pass" if self.passed else "FAIL"
        tail = "" if self.passed else f"  [{self.counterexample}]"
        return f"{mark}  {self.name} ({self.cases} cases){tail}"


class _Law:
    """Accumulates outcomes for one named law."""

    def __init__(self, name: str):
        self.name = name
        self.cases = 0
        self.counterexample: Optional[str] = None

    def check(self, ok: bool, describe) -> None:
        self.cases += 1
        if not ok and self.counterexample is None:
            self.counterexample = describe() if callable(describe) else describe

    def result(self) -> LawResult:
        """The verdict; a law that checked no case has shown nothing and fails."""
        if self.cases == 0:
            return LawResult(self.name, False, 0, "no case was checked")
        return LawResult(self.name, self.counterexample is None, self.cases, self.counterexample)


def _show_obj(a: DialObject) -> str:
    grid = "; ".join(
        ",".join(format_payload(v) for v in row) for row in a.weight
    )
    return f"{a.pos.size}x{a.neg.size}[{grid}]"


def _show_mor(m: DialMorphism) -> str:
    return (
        f"fwd={m.fwd.table} bwd={m.bwd.table} "
        f"src={_show_obj(m.source)} tgt={_show_obj(m.target)}"
    )


# -- value and object generators -----------------------------------------------


def _join(lin: Lineale, a, b):
    """An upper bound of the payloads a and b.

    All base lineales here are chains, so max works; product lineales
    recurse componentwise.
    """
    if lin._leq(a, b):
        return b
    if lin._leq(b, a):
        return a
    if lin.factors is not None:
        f1, f2 = lin.factors
        return (_join(f1, a[0], b[0]), _join(f2, a[1], b[1]))
    raise DialnetError(f"no upper bound rule for {lin.tag}")


def _meet(lin: Lineale, a, b):
    if lin._leq(a, b):
        return a
    if lin._leq(b, a):
        return b
    if lin.factors is not None:
        f1, f2 = lin.factors
        return (_meet(f1, a[0], b[0]), _meet(f2, a[1], b[1]))
    raise DialnetError(f"no lower bound rule for {lin.tag}")


def random_object(
    lin: Lineale,
    rng: random.Random,
    sizes: tuple[int, ...] = _SIZES,
    bound: int = _VALUE_BOUND,
) -> DialObject:
    pos = FinSet(rng.choice(sizes))
    neg = FinSet(rng.choice(sizes))
    rows = tuple(
        tuple(lin._sample(rng, bound) for _ in range(neg.size))
        for _ in range(pos.size)
    )
    return DialObject(lin, pos, neg, rows)


def random_morphism_from(
    lin: Lineale,
    rng: random.Random,
    source: DialObject,
    sizes: tuple[int, ...] = _SIZES,
) -> DialMorphism:
    """A valid morphism out of ``source`` with freshly built target.

    Tables are random; target weights start random and are then raised
    just far enough to satisfy the order condition.
    """
    pos = FinSet(rng.choice(sizes))
    neg = FinSet(rng.choice(sizes))
    f = tuple(rng.randrange(pos.size) for _ in range(source.pos.size))
    bt = tuple(rng.randrange(source.neg.size) for _ in range(neg.size))
    rows = []
    for v in range(pos.size):
        row = []
        for y in range(neg.size):
            val = lin._sample(rng, _VALUE_BOUND)
            for u in range(source.pos.size):
                if f[u] == v:
                    val = _join(lin, val, source.weight[u][bt[y]])
            row.append(val)
        rows.append(tuple(row))
    target = DialObject(lin, pos, neg, tuple(rows))
    return dial_morphism(
        source, target, FnTable(source.pos, pos, f), FnTable(neg, source.neg, bt)
    )


def random_morphism_into(
    lin: Lineale,
    rng: random.Random,
    target: DialObject,
    sizes: tuple[int, ...] = _SIZES,
) -> DialMorphism:
    """Dual of random_morphism_from: builds the source, lowering weights."""
    pos = FinSet(rng.choice(sizes))
    neg = FinSet(rng.choice(sizes))
    f = tuple(rng.randrange(target.pos.size) for _ in range(pos.size))
    bt = tuple(rng.randrange(neg.size) for _ in range(target.neg.size))
    rows = []
    for u in range(pos.size):
        row = []
        for x in range(neg.size):
            val = lin._sample(rng, _VALUE_BOUND)
            for y in range(target.neg.size):
                if bt[y] == x:
                    val = _meet(lin, val, target.weight[f[u]][y])
            row.append(val)
        rows.append(tuple(row))
    source = DialObject(lin, pos, neg, tuple(rows))
    return dial_morphism(
        source, target, FnTable(pos, target.pos, f), FnTable(target.neg, neg, bt)
    )


def all_objects(lin: Lineale, max_size: int = 2) -> list[DialObject]:
    """Every object with carrier sizes up to max_size over a finite lineale."""
    carrier = lin._carrier
    if carrier is None:
        raise DialnetError(f"{lin.tag} has an infinite carrier")
    out = []
    for pu in range(max_size + 1):
        for nx in range(max_size + 1):
            pos, neg = FinSet(pu), FinSet(nx)
            for flat in itertools.product(carrier, repeat=pu * nx):
                rows = tuple(
                    tuple(flat[u * nx + x] for x in range(nx)) for u in range(pu)
                )
                out.append(DialObject(lin, pos, neg, rows))
    return out


# -- lineale axioms --------------------------------------------------------------


def lineale_laws(
    lin: Lineale, seed: int = DEFAULT_SEED, cases: int = 1000
) -> list[LawResult]:
    """Order axioms, monoid axioms, adjunction, and hom variance.

    Exhaustive over all value quadruples when the carrier is small,
    seeded random quadruples otherwise.
    """
    carrier = lin.carrier()
    if carrier is not None and len(carrier) ** 4 <= 20000:
        quads = list(itertools.product(carrier, repeat=4))
    else:
        rng = random.Random(seed)
        quads = [
            tuple(lin.sample(rng, 6) for _ in range(4)) for _ in range(cases)
        ]

    leq, tens, imp, e = lin.leq, lin.tensor, lin.imp, lin.unit
    laws = {
        name: _Law(name)
        for name in (
            "order.reflexive",
            "order.antisymmetric",
            "order.transitive",
            "monoid.associative",
            "monoid.unit",
            "monoid.commutative",
            "order.compatible",
            "hom.adjunction",
            "hom.variance",
        )
    }
    for a, b, c, d in quads:
        ctx = lambda: f"a={a} b={b} c={c} d={d}"
        laws["order.reflexive"].check(leq(a, a), ctx)
        laws["order.antisymmetric"].check(
            not (leq(a, b) and leq(b, a)) or a == b, ctx
        )
        laws["order.transitive"].check(
            not (leq(a, b) and leq(b, c)) or leq(a, c), ctx
        )
        laws["monoid.associative"].check(
            tens(tens(a, b), c) == tens(a, tens(b, c)), ctx
        )
        laws["monoid.unit"].check(tens(e, a) == a and tens(a, e) == a, ctx)
        laws["monoid.commutative"].check(tens(a, b) == tens(b, a), ctx)
        laws["order.compatible"].check(
            not (leq(a, b) and leq(c, d)) or leq(tens(a, c), tens(b, d)), ctx
        )
        laws["hom.adjunction"].check(
            leq(tens(b, c), a) == leq(b, imp(c, a)), ctx
        )
        laws["hom.variance"].check(
            not (leq(b, a) and leq(c, d)) or leq(imp(a, c), imp(b, d)), ctx
        )
    return [law.result() for law in laws.values()]


# -- category laws ----------------------------------------------------------------


def category_laws(
    lin: Lineale, seed: int = DEFAULT_SEED, cases: int = 500
) -> list[LawResult]:
    """Identity and associativity of composition, plus validity closure."""
    rng = random.Random(seed)
    results = []

    carrier = lin.carrier()
    if carrier is not None and len(carrier) <= 3:
        law = _Law("category.identity.exhaustive")
        objs = all_objects(lin, 2)
        ids = [identity(a) for a in objs]
        for a, ia in zip(objs, ids):
            for b, ib in zip(objs, ids):
                for m in enumerate_morphisms(a, b):
                    law.check(
                        compose(ib, m) == m and compose(m, ia) == m,
                        lambda: _show_mor(m),
                    )
        results.append(law.result())

        law = _Law("category.assoc.exhaustive")
        small = all_objects(lin, 1)
        homs = {}
        for a in small:
            for b in small:
                homs[(id(a), id(b))] = enumerate_morphisms(a, b)
        for a, b, c, d in itertools.product(small, repeat=4):
            for m1 in homs[(id(a), id(b))]:
                for m2 in homs[(id(b), id(c))]:
                    for m3 in homs[(id(c), id(d))]:
                        law.check(
                            compose(compose(m3, m2), m1)
                            == compose(m3, compose(m2, m1)),
                            lambda: f"{_show_mor(m1)} | {_show_mor(m2)} | {_show_mor(m3)}",
                        )
        results.append(law.result())

    ident = _Law("category.identity.random")
    assoc = _Law("category.assoc.random")
    closed = _Law("category.compose.valid")
    for _ in range(cases):
        a = random_object(lin, rng)
        m1 = random_morphism_from(lin, rng, a)
        m2 = random_morphism_from(lin, rng, m1.target)
        m3 = random_morphism_from(lin, rng, m2.target)
        ident.check(
            compose(identity(m1.target), m1) == m1
            and compose(m1, identity(a)) == m1,
            lambda: _show_mor(m1),
        )
        assoc.check(
            compose(compose(m3, m2), m1) == compose(m3, compose(m2, m1)),
            lambda: f"{_show_mor(m1)} | {_show_mor(m2)} | {_show_mor(m3)}",
        )
        c21 = compose(m2, m1)
        closed.check(
            not check_morphism(c21.source, c21.target, c21.fwd, c21.bwd),
            lambda: _show_mor(c21),
        )
    results.extend([ident.result(), assoc.result(), closed.result()])
    return results


# -- adjunction oracle --------------------------------------------------------------


def adjunction_oracle(
    lin: Lineale,
    seed: int = DEFAULT_SEED,
    cases: int = 200,
    cap: int = DEFAULT_CAP,
) -> list[LawResult]:
    """Brute-force comparison of the two hom-sets of the adjunction.

    For random object triples (A, B, C): enumerate every morphism
    tensor(A,B) -> C and every morphism A -> hom(B,C); the counts must
    agree, currying must be an injection of the first set into the
    second (hence a bijection), transposing back must be the identity,
    and the transpose must itself be valid.  Also checks naturality of
    the transpose in the first argument.

    Three triples in four take C to be the target of a random morphism
    out of tensor(A, B), so that the hom-sets are not empty; every
    fourth C is drawn on its own, so empty hom-sets are compared too.
    """
    rng = random.Random(seed)
    counts = _Law("adjunction.homset.counts")
    bijection = _Law("adjunction.bijection")
    roundtrip = _Law("adjunction.roundtrip")
    validity = _Law("adjunction.transpose.valid")
    natural = _Law("adjunction.natural")
    for i in range(cases):
        a = random_object(lin, rng)
        b = random_object(lin, rng)
        ab = tensor_obj(a, b, cap)
        if i % 4 == 3:
            c = random_object(lin, rng)
        else:
            c = random_morphism_from(lin, rng, ab).target
        h = hom_obj(b, c, cap)
        left = enumerate_morphisms(ab, c, cap)
        right = enumerate_morphisms(a, h, cap)
        ctx = lambda: (
            f"A={_show_obj(a)} B={_show_obj(b)} C={_show_obj(c)} "
            f"|left|={len(left)} |right|={len(right)}"
        )
        counts.check(len(left) == len(right), ctx)
        right_keys = {(m.fwd.table, m.bwd.table) for m in right}
        seen = set()
        for m in left:
            im = curry_dial(m, a, b, cap)
            key = (im.fwd.table, im.bwd.table)
            bijection.check(
                key in right_keys and key not in seen,
                lambda: f"{ctx()} curried={_show_mor(im)}",
            )
            seen.add(key)
            roundtrip.check(
                uncurry_dial(im, b, c, cap) == m, lambda: _show_mor(m)
            )
            validity.check(
                not check_morphism(a, h, im.fwd, im.bwd),
                lambda: _show_mor(im),
            )
        if left:
            m = rng.choice(left)
            n = random_morphism_into(lin, rng, a)
            lhs = curry_dial(
                compose(m, tensor_mor(n, identity(b), cap)), n.source, b, cap
            )
            rhs = compose(curry_dial(m, a, b, cap), n)
            natural.check(lhs == rhs, lambda: f"{_show_mor(m)} via {_show_mor(n)}")
    return [
        counts.result(),
        bijection.result(),
        roundtrip.result(),
        validity.result(),
        natural.result(),
    ]


# -- functoriality --------------------------------------------------------------------


def functoriality_laws(
    lin: Lineale, seed: int = DEFAULT_SEED, cases: int = 200
) -> list[LawResult]:
    """tensor_mor and hom_mor preserve identities and composition exactly."""
    rng = random.Random(seed)
    t_id = _Law("tensor.functor.identity")
    t_comp = _Law("tensor.functor.composition")
    t_valid = _Law("tensor.functor.valid")
    h_id = _Law("hom.functor.identity")
    h_comp = _Law("hom.functor.composition")
    h_valid = _Law("hom.functor.valid")
    for _ in range(cases):
        a = random_object(lin, rng)
        b = random_object(lin, rng)
        t_id.check(
            tensor_mor(identity(a), identity(b)) == identity(tensor_obj(a, b)),
            lambda: f"A={_show_obj(a)} B={_show_obj(b)}",
        )
        h_id.check(
            hom_mor(identity(a), identity(b)) == identity(hom_obj(a, b)),
            lambda: f"A={_show_obj(a)} B={_show_obj(b)}",
        )

        m1 = random_morphism_from(lin, rng, a)
        m1p = random_morphism_from(lin, rng, m1.target)
        m2 = random_morphism_from(lin, rng, b)
        m2p = random_morphism_from(lin, rng, m2.target)
        lhs = tensor_mor(compose(m1p, m1), compose(m2p, m2))
        rhs = compose(tensor_mor(m1p, m2p), tensor_mor(m1, m2))
        t_comp.check(
            lhs == rhs, lambda: f"{_show_mor(m1)}+{_show_mor(m1p)} x {_show_mor(m2)}+{_show_mor(m2p)}"
        )
        tm = tensor_mor(m1, m2)
        t_valid.check(
            not check_morphism(tm.source, tm.target, tm.fwd, tm.bwd),
            lambda: _show_mor(tm),
        )

        a1 = random_morphism_from(lin, rng, random_object(lin, rng))
        a2 = random_morphism_from(lin, rng, a1.target)
        b1 = random_morphism_from(lin, rng, random_object(lin, rng))
        b2 = random_morphism_from(lin, rng, b1.target)
        # hom_mor(a2 . a1, b2 . b1) factors through the middle hom object
        lhs = hom_mor(compose(a2, a1), compose(b2, b1))
        rhs = compose(hom_mor(a1, b2), hom_mor(a2, b1))
        h_comp.check(
            lhs == rhs,
            lambda: f"{_show_mor(a1)}+{_show_mor(a2)} x {_show_mor(b1)}+{_show_mor(b2)}",
        )
        hm = hom_mor(a2, b1)
        h_valid.check(
            not check_morphism(hm.source, hm.target, hm.fwd, hm.bwd),
            lambda: _show_mor(hm),
        )
    return [
        t_id.result(),
        t_comp.result(),
        t_valid.result(),
        h_id.result(),
        h_comp.result(),
        h_valid.result(),
    ]


# -- monoidal coherence ------------------------------------------------------------------


# weight-matrix entries we are willing to materialize per pentagon instance;
# keeps the worst sampled corner to a fraction of a second
_PENTAGON_ENTRY_BUDGET = 80_000


def _pentagon_stages(sz) -> list[tuple[int, int]]:
    """Shapes of every tensor built along both pentagon paths."""
    a, b, c, d = sz
    ab, bc, cd = tensor_shape(a, b), tensor_shape(b, c), tensor_shape(c, d)
    abc, a_bc = tensor_shape(ab, c), tensor_shape(a, bc)
    b_cd, bc_d = tensor_shape(b, cd), tensor_shape(bc, d)
    four = [tensor_shape(x, y) for x, y in ((abc, d), (a_bc, d), (a, bc_d), (a, b_cd))]
    return [ab, bc, cd, abc, a_bc, b_cd, bc_d, tensor_shape(ab, cd)] + four


def coherence_laws(
    lin: Lineale,
    seed: int = DEFAULT_SEED,
    cases: int = 50,
    cap: int = DEFAULT_CAP,
) -> list[LawResult]:
    """Pentagon, triangle, unitor, symmetry, and isomorphism checks.

    Pentagon instances are drawn from the size combinations whose
    intermediate carriers fit under the cap; with the default cap that
    rules out the all-2 corner, which would need a carrier of several
    million elements.
    """
    rng = random.Random(seed)
    sides = tuple(
        itertools.product(_SIZES, repeat=2)
    )  # (pos, neg) choices per object
    # (largest carrier, total weight entries) per choice of four shapes;
    # sizes stay in {1, 2}, so even the uncapped stages are small integers
    plans = {}
    for combo in itertools.product(sides, repeat=4):
        stages = _pentagon_stages(combo)
        plans[combo] = (max(max(s) for s in stages), sum(p * n for p, n in stages))
    pentagon_sizes = [
        combo
        for combo, (largest, cost) in plans.items()
        if largest <= cap and cost <= _PENTAGON_ENTRY_BUDGET
    ]
    if not pentagon_sizes:
        needed = min(largest for largest, _ in plans.values())
        raise CapExceeded(needed, cap, what="smallest pentagon instance")

    pentagon = _Law("coherence.pentagon")
    triangle = _Law("coherence.triangle")
    unitor_w = _Law("coherence.unitor.weights")
    unitor_iso = _Law("coherence.unitor.iso")
    assoc_iso = _Law("coherence.associator.iso")
    sym_inv = _Law("coherence.symmetry.involution")
    sym_nat = _Law("coherence.symmetry.natural")
    sym_unit = _Law("coherence.symmetry.unitor")

    def rand_with_sizes(sz):
        (pu, nx) = sz
        rows = tuple(
            tuple(lin._sample(rng, _VALUE_BOUND) for _ in range(nx))
            for _ in range(pu)
        )
        return DialObject(lin, FinSet(pu), FinSet(nx), rows)

    for _ in range(cases):
        sz = pentagon_sizes[rng.randrange(len(pentagon_sizes))]
        a, b, c, d = (rand_with_sizes(s) for s in sz)
        bc = tensor_obj(b, c, cap)
        cd = tensor_obj(c, d, cap)
        ab = tensor_obj(a, b, cap)
        left = compose(
            tensor_mor(identity(a), associator(b, c, d, cap), cap),
            compose(
                associator(a, bc, d, cap),
                tensor_mor(associator(a, b, c, cap), identity(d), cap),
            ),
        )
        right = compose(associator(a, b, cd, cap), associator(ab, c, d, cap))
        pentagon.check(
            left == right,
            lambda: f"A={_show_obj(a)} B={_show_obj(b)} C={_show_obj(c)} D={_show_obj(d)}",
        )

        a2 = random_object(lin, rng)
        b2 = random_object(lin, rng)
        ctx2 = lambda: f"A={_show_obj(a2)} B={_show_obj(b2)}"
        i = tensor_unit(lin)
        tri_left = tensor_mor(right_unitor(a2, cap), identity(b2), cap)
        tri_right = compose(
            tensor_mor(identity(a2), left_unitor(b2, cap), cap),
            associator(a2, i, b2, cap),
        )
        triangle.check(tri_left == tri_right, ctx2)

        lu = left_unitor(a2, cap)
        ru = right_unitor(a2, cap)
        unitor_w.check(
            lu.source.weight == a2.weight and ru.source.weight == a2.weight,
            ctx2,
        )
        ok_iso = True
        for m in (lu, ru):
            mi = inverse(m)
            ok_iso = (
                ok_iso
                and not check_morphism(m.source, m.target, m.fwd, m.bwd)
                and not check_morphism(mi.source, mi.target, mi.fwd, mi.bwd)
                and compose(mi, m) == identity(m.source)
                and compose(m, mi) == identity(m.target)
            )
        unitor_iso.check(ok_iso, ctx2)

        c2 = random_object(lin, rng)
        asc = associator(a2, b2, c2, cap)
        asci = inverse(asc)
        assoc_iso.check(
            not check_morphism(asc.source, asc.target, asc.fwd, asc.bwd)
            and not check_morphism(asci.source, asci.target, asci.fwd, asci.bwd)
            and compose(asci, asc) == identity(asc.source)
            and compose(asc, asci) == identity(asc.target),
            lambda: f"{ctx2()} C={_show_obj(c2)}",
        )

        sym = symmetry(a2, b2, cap)
        sym_inv.check(
            not check_morphism(sym.source, sym.target, sym.fwd, sym.bwd)
            and compose(symmetry(b2, a2, cap), sym) == identity(sym.source),
            ctx2,
        )
        n1 = random_morphism_from(lin, rng, a2)
        n2 = random_morphism_from(lin, rng, b2)
        sym_nat.check(
            compose(symmetry(n1.target, n2.target, cap), tensor_mor(n1, n2, cap))
            == compose(tensor_mor(n2, n1, cap), sym),
            lambda: f"{_show_mor(n1)} x {_show_mor(n2)}",
        )
        sym_unit.check(
            compose(left_unitor(a2, cap), symmetry(a2, i, cap))
            == right_unitor(a2, cap),
            ctx2,
        )
    return [
        pentagon.result(),
        triangle.result(),
        unitor_w.result(),
        unitor_iso.result(),
        assoc_iso.result(),
        sym_inv.result(),
        sym_nat.result(),
        sym_unit.result(),
    ]


# -- universal properties ---------------------------------------------------------------


def universal_laws(
    lin: Lineale,
    seed: int = DEFAULT_SEED,
    cases: int = 100,
    cap: int = DEFAULT_CAP,
) -> list[LawResult]:
    """Pairing and copairing are mediating and unique (by enumeration)."""
    rng = random.Random(seed)
    p_med = _Law("product.mediating")
    p_unq = _Law("product.unique")
    s_med = _Law("coproduct.mediating")
    s_unq = _Law("coproduct.unique")
    for _ in range(cases):
        src = random_object(lin, rng)
        m1 = random_morphism_from(lin, rng, src)
        m2 = random_morphism_from(lin, rng, src)
        a, b = m1.target, m2.target
        pair = with_pairing(m1, m2, cap)
        p1, p2 = with_proj1(a, b, cap), with_proj2(a, b, cap)
        ctx = lambda: f"{_show_mor(m1)} & {_show_mor(m2)}"
        p_med.check(
            compose(p1, pair) == m1
            and compose(p2, pair) == m2
            and not check_morphism(pair.source, pair.target, pair.fwd, pair.bwd),
            ctx,
        )
        mediating = [
            m
            for m in enumerate_morphisms(src, with_product(a, b, cap), cap)
            if compose(p1, m) == m1 and compose(p2, m) == m2
        ]
        p_unq.check(mediating == [pair], ctx)

        tgt = random_object(lin, rng)
        n1 = random_morphism_into(lin, rng, tgt)
        n2 = random_morphism_into(lin, rng, tgt)
        a, b = n1.source, n2.source
        cop = oplus_copair(n1, n2, cap)
        i1, i2 = oplus_inl(a, b, cap), oplus_inr(a, b, cap)
        ctx = lambda: f"{_show_mor(n1)} (+) {_show_mor(n2)}"
        s_med.check(
            compose(cop, i1) == n1
            and compose(cop, i2) == n2
            and not check_morphism(cop.source, cop.target, cop.fwd, cop.bwd),
            ctx,
        )
        mediating = [
            m
            for m in enumerate_morphisms(oplus(a, b, cap), tgt, cap)
            if compose(m, i1) == n1 and compose(m, i2) == n2
        ]
        s_unq.check(mediating == [cop], ctx)
    return [p_med.result(), p_unq.result(), s_med.result(), s_unq.result()]


# -- aggregation and mutation -----------------------------------------------------------


def run_all(
    lin: Lineale, seed: int = DEFAULT_SEED, cases: int = 100
) -> list[LawResult]:
    """All suites with case counts scaled for interactive use."""
    out = []
    out += lineale_laws(lin, seed, max(cases, 100))
    out += category_laws(lin, seed + 1, cases)
    out += functoriality_laws(lin, seed + 2, max(1, cases // 2))
    out += universal_laws(lin, seed + 3, max(1, cases // 2))
    out += coherence_laws(lin, seed + 4, max(1, cases // 4))
    out += adjunction_oracle(lin, seed + 5, max(1, cases // 4))
    return out


def mutate_imp(lin: Lineale) -> Lineale:
    """Copy of `lin` with its implication replaced by the constant unit.

    Exists so the suites can demonstrate sensitivity: against the broken
    instance the adjunction law must fail with a concrete counterexample.
    A constant implication still typechecks everywhere, so nothing short
    of the adjunction property itself can catch it.  The copy has its own
    tag, which get_lineale does not resolve, so its values never mix with
    those of the honest lineale.
    """
    unit = lin.unit_payload
    return Lineale(
        tag=f"mutate_imp({lin.tag})",
        description=lin.description + " (implication deliberately broken)",
        unit_payload=unit,
        leq=lin._leq,
        tensor=lin._tensor,
        imp=lambda a, b: unit,
        sample=lin._sample,
        validate=lin._validate,
        parse=lin._parse,
        coerce=lin._coerce,
        carrier=lin._carrier,
        factors=lin.factors,
    )


def mutated_kleene3() -> Lineale:
    """Three-valued lineale with its implication forced to constant 1."""
    return mutate_imp(KLEENE3)
