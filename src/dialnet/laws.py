"""Executable law suites for lineales, the relation category, and its structure.

Every algebraic claim the package relies on is rechecked here from
scratch: nothing trusts the constructors.  Suites return LawResult
records (one per law) with a counterexample string on failure, so both
the CLI and the test suite can surface exactly which instance broke
and where.

Finite lineales are checked exhaustively, the axioms on payloads and the
identity law on hom-sets read as table tuples; infinite ones with seeded
random values.  Random objects keep carrier sizes in {1, 2} so that the
morphism enumerations stay under the fixed size cap.  random_morphism
builds a valid morphism out of a given object (or into it): it picks the
tables first, then raises (or lowers) the fresh end's weights just far
enough to satisfy the order condition.
"""

from __future__ import annotations

import itertools
import random
from operator import mul
from typing import NamedTuple, Optional

from .dialset import (
    DialObject,
    DialMorphism,
    _hom_counts,
    _hom_tables,
    _shared,
    _uncurried,
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
    oplus_copair,
    oplus_inl,
    oplus_inr,
    right_unitor,
    symmetry,
    tensor_mor,
    tensor_obj,
    tensor_unit,
    with_pairing,
    with_proj1,
    with_proj2,
)
from . import finset
from .errors import DialnetError
from .finset import FinSet, FnTable, tensor_shape
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
    "random_morphism",
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

    def check(self, ok: bool, describe, cases: int = 1) -> None:
        self.cases += cases
        if not ok and self.counterexample is None:
            self.counterexample = describe() if callable(describe) else describe

    def result(self) -> LawResult:
        """The verdict; a law that checked no case has shown nothing and fails."""
        if self.cases == 0:
            return LawResult(self.name, False, 0, "no case was checked")
        return LawResult(self.name, self.counterexample is None, self.cases, self.counterexample)


def _show_obj(a: DialObject) -> str:
    rows = finset._rows(a.cells, *a.shape)
    grid = "; ".join(",".join(map(format_payload, row)) for row in rows)
    return f"{a.pos.size}x{a.neg.size}[{grid}]"


def _show_mor(m: DialMorphism) -> str:
    return (
        f"fwd={m.fwd.table} bwd={m.bwd.table} "
        f"src={_show_obj(m.source)} tgt={_show_obj(m.target)}"
    )


def _valid(m: DialMorphism) -> bool:
    return not check_morphism(m.source, m.target, m.fwd, m.bwd)


def _tables(m: DialMorphism) -> tuple:
    return m.fwd.table, m.bwd.table


def _iso(m: DialMorphism) -> bool:
    """m and its inverse are valid and compose to the identities both ways."""
    mi = inverse(m)
    valid = _valid(m) and _valid(mi)
    return valid and compose(mi, m) == identity(m.source) and compose(m, mi) == identity(m.target)


# -- value and object generators -----------------------------------------------


def _bound(lin: Lineale, a, b, upper: bool):
    """The join of the payloads a and b when upper, else their meet: one of
    the two in a chain (every base lineale here), componentwise in a product."""
    if lin._leq(a, b):
        return b if upper else a
    if lin._leq(b, a):
        return a if upper else b
    if lin.factors is not None:
        f1, f2 = lin.factors
        return (_bound(f1, a[0], b[0], upper), _bound(f2, a[1], b[1], upper))
    raise DialnetError(f"no {'upper' if upper else 'lower'} bound rule for {lin.tag}")


def _random_object_on(
    lin: Lineale, rng: random.Random, pos: FinSet, neg: FinSet
) -> DialObject:
    cells = tuple(lin._sample(rng, _VALUE_BOUND) for _ in range(pos.size * neg.size))
    return DialObject(lin, pos, neg, cells)


def random_object(lin: Lineale, rng: random.Random) -> DialObject:
    pos = FinSet(rng.choice(_SIZES))
    neg = FinSet(rng.choice(_SIZES))
    return _random_object_on(lin, rng, pos, neg)


def random_morphism(lin: Lineale, rng: random.Random, end: DialObject, into=False) -> DialMorphism:
    """A valid morphism out of end, or into it when into, whose other end is
    built fresh: tables are random, and the fresh weights start random and
    are then raised (out of end) or lowered (into it) just far enough to
    satisfy the order condition."""
    pos = FinSet(rng.choice(_SIZES))
    neg = FinSet(rng.choice(_SIZES))
    ends = [(pos, neg), (end.pos, end.neg)]
    (src_pos, src_neg), (tgt_pos, tgt_neg) = ends if into else ends[::-1]
    f = tuple(rng.randrange(tgt_pos.size) for _ in range(src_pos.size))
    bt = tuple(rng.randrange(src_neg.size) for _ in range(tgt_neg.size))
    n = end.neg.size

    def weight(i: int, j: int):
        val = lin._sample(rng, _VALUE_BOUND)
        # the weights of end that the order condition holds this one to
        if into:
            bounds = [end.cells[f[i] * n + y] for y in range(n) if bt[y] == j]
        else:
            bounds = [end.cells[u * n + bt[j]] for u in range(end.pos.size) if f[u] == i]
        for w in bounds:
            val = _bound(lin, val, w, upper=not into)
        return val

    cells = tuple(weight(i, j) for i in range(pos.size) for j in range(neg.size))
    fresh = DialObject(lin, pos, neg, cells)
    source, target = (fresh, end) if into else (end, fresh)
    return dial_morphism(source, target, FnTable(src_pos, tgt_pos, f), FnTable(tgt_neg, src_neg, bt))


def all_objects(lin: Lineale, max_size: int = 2) -> list[DialObject]:
    """Every object with carrier sizes up to max_size over a finite lineale."""
    carrier = lin._carrier
    if carrier is None:
        raise DialnetError(f"{lin.tag} has an infinite carrier")
    out = []
    for pu in range(max_size + 1):
        for nx in range(max_size + 1):
            pos, neg = FinSet(pu), FinSet(nx)
            for cells in itertools.product(carrier, repeat=pu * nx):
                out.append(DialObject(lin, pos, neg, cells))
    return out


# -- lineale axioms --------------------------------------------------------------


def lineale_laws(
    lin: Lineale, seed: int = DEFAULT_SEED, cases: int = 1000
) -> list[LawResult]:
    """Order axioms, monoid axioms, adjunction, and hom variance.

    Exhaustive over all payload quadruples when the carrier is small, seeded
    random quadruples otherwise; the payload ops are those every check uses.
    """
    carrier = lin._carrier
    if carrier is not None and len(carrier) ** 4 <= 20000:
        quads = list(itertools.product(carrier, repeat=4))
    else:
        rng = random.Random(seed)
        quads = [tuple(lin._sample(rng, 6) for _ in range(4)) for _ in range(cases)]

    leq, tens, imp, e = lin._leq, lin._tensor, lin._imp, lin.unit_payload
    axioms = {  # law name -> whether the quadruple (a, b, c, d) keeps it
        "order.reflexive": lambda a, b, c, d: leq(a, a),
        "order.antisymmetric": lambda a, b, c, d: not (leq(a, b) and leq(b, a)) or a == b,
        "order.transitive": lambda a, b, c, d: not (leq(a, b) and leq(b, c)) or leq(a, c),
        "monoid.associative": lambda a, b, c, d: tens(tens(a, b), c) == tens(a, tens(b, c)),
        "monoid.unit": lambda a, b, c, d: tens(e, a) == a and tens(a, e) == a,
        "monoid.commutative": lambda a, b, c, d: tens(a, b) == tens(b, a),
        "order.compatible": lambda a, b, c, d: (
            not (leq(a, b) and leq(c, d)) or leq(tens(a, c), tens(b, d))
        ),
        "hom.adjunction": lambda a, b, c, d: leq(tens(b, c), a) == leq(b, imp(c, a)),
        "hom.variance": lambda a, b, c, d: not (leq(b, a) and leq(c, d)) or leq(imp(a, c), imp(b, d)),
    }
    laws = {name: _Law(name) for name in axioms}
    for name, holds in axioms.items():  # every quadruple is checked, the first failure kept
        bad = next((q for q, ok in zip(quads, [*itertools.starmap(holds, quads)]) if not ok), None)
        ctx = lambda: "a={} b={} c={} d={}".format(*map(format_payload, bad))
        laws[name].check(bad is None, ctx, len(quads))
    return [law.result() for law in laws.values()]


# -- category laws ----------------------------------------------------------------


def category_laws(
    lin: Lineale, seed: int = DEFAULT_SEED, cases: int = 500
) -> list[LawResult]:
    """Identity and associativity of composition, plus validity closure."""
    rng = random.Random(seed)
    results = []

    carrier = lin._carrier
    if carrier is not None and len(carrier) <= 3:
        # id_b . m == m and m . id_a == m on table tuples, each through the pure
        # finset.compose once per pair of identity tables.  If every table space
        # keeps the law, each source has its cases counted; else every source is
        # searched in order.  Each last case also goes through dialset.compose.
        # (kleene3: about 11 ms for this suite in-process, 114 ms walking every case.)
        law = _Law("category.identity.exhaustive")
        objs = all_objects(lin, 2)
        ids = {id(a): identity(a) for a in objs}
        memo: dict = {}  # (domain identity, codomain identity) -> table -> it keeps the law

        def keeps(t, id_dom: FnTable, id_cod: FnTable) -> bool:
            known = memo.setdefault((id_dom.table, id_cod.table), {})
            if t not in known:
                table = FnTable(id_dom.cod, id_cod.dom, t)
                known[t] = finset.compose(id_cod, table) == table == finset.compose(table, id_dom)
            return known[t]

        def morphism(a, b, f, bt) -> DialMorphism:
            return DialMorphism(a, b, FnTable(a.pos, b.pos, f), FnTable(b.neg, a.neg, bt))

        kinds = {(m.fwd.table, m.bwd.table): m for m in ids.values()}  # one per identity
        clean = all(  # every table of every space between two identities keeps the law
            keeps(t, i, j)
            for ia, ib in itertools.product(kinds.values(), repeat=2)
            for i, j in ((ia.fwd, ib.fwd), (ib.bwd, ia.bwd))
            for t in itertools.product(range(j.dom.size), repeat=i.cod.size)
        )
        for a, count, last in _hom_counts(objs, objs):
            ia = ids[id(a)]
            if clean:
                law.check(True, None, count)
            else:
                for _, b, f, bwds in _hom_tables((a,), objs):
                    ib = ids[id(b)]
                    for bt in bwds:
                        ok = keeps(f, ia.fwd, ib.fwd) and keeps(bt, ib.bwd, ia.bwd)
                        law.check(ok, lambda: _show_mor(morphism(a, b, f, bt)))
            if last is not None:
                m, ib = morphism(a, *last), ids[id(last[0])]
                law.check(compose(ib, m) == m == compose(m, ia), lambda: _show_mor(m), 0)
        results.append(law.result())

        law = _Law("category.assoc.exhaustive")
        small = all_objects(lin, 1)
        outs = {id(a): [(b, h) for b in small if (h := enumerate_morphisms(a, b))] for a in small}
        paths = (  # the nonempty hom-sets along each path a -> b -> c -> d, in order
            (h1, h2, h3)
            for a in small for b, h1 in outs[id(a)] for c, h2 in outs[id(b)] for _, h3 in outs[id(c)]
        )
        for m1, m2, m3 in (m for hs in paths for m in itertools.product(*hs)):
            law.check(
                compose(compose(m3, m2), m1) == compose(m3, compose(m2, m1)),
                lambda: f"{_show_mor(m1)} | {_show_mor(m2)} | {_show_mor(m3)}",
            )
        results.append(law.result())

    ident = _Law("category.identity.random")
    assoc = _Law("category.assoc.random")
    closed = _Law("category.compose.valid")
    for _ in range(cases):
        a = random_object(lin, rng)
        m1 = random_morphism(lin, rng, a)
        m2 = random_morphism(lin, rng, m1.target)
        m3 = random_morphism(lin, rng, m2.target)
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
        closed.check(_valid(c21), lambda: _show_mor(c21))
    results.extend([ident.result(), assoc.result(), closed.result()])
    return results


# -- adjunction oracle --------------------------------------------------------------


def adjunction_oracle(
    lin: Lineale, seed: int = DEFAULT_SEED, cases: int = 200
) -> list[LawResult]:
    """Brute-force comparison of the two hom-sets of the adjunction.

    For random object triples (A, B, C): enumerate every morphism
    tensor(A,B) -> C, and every morphism A -> hom(B,C) as a pair of tables;
    the counts must agree, currying must be an injection of the first set
    into the second (hence a bijection), transposing back (by uncurry_dial's
    table rule) must be the identity, and the transpose must be valid.
    Also checks naturality of the transpose in the first argument.

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
        # built outside the share, so that each case compares it once with the
        # shared tensor(A, B) that the left hom-set is read out of
        ab = tensor_obj(a, b)
        with _shared():  # one case's objects are built once and kept no longer
            if i % 4 == 3:
                c = random_object(lin, rng)
            else:
                c = random_morphism(lin, rng, ab).target
            h = hom_obj(b, c)
            same = tensor_obj(a, b) == ab  # folded into every round trip of the case
            left = enumerate_morphisms(tensor_obj(a, b), c)
            right = [(f, bt) for _, _, f, bwds in _hom_tables((a,), (h,)) for bt in bwds]
            ctx = lambda: (
                f"A={_show_obj(a)} B={_show_obj(b)} C={_show_obj(c)} "
                f"|left|={len(left)} |right|={len(right)}"
            )
            counts.check(len(left) == len(right), ctx)
            right_keys, seen, shapes = set(right), set(), (a.shape, b.shape, c.shape)
            for m in left:
                im = curry_dial(m, a, b)
                key = _tables(im)
                bijection.check(
                    key in right_keys and key not in seen,
                    lambda: f"{ctx()} curried={_show_mor(im)}",
                )
                seen.add(key)
                back = _uncurried(*key, *shapes)
                roundtrip.check(same and back == _tables(m), lambda: _show_mor(m))
                validity.check(
                    not check_morphism(a, h, im.fwd, im.bwd),
                    lambda: _show_mor(im),
                )
            if left:
                m = rng.choice(left)
                n = random_morphism(lin, rng, a, into=True)
                lhs = curry_dial(
                    compose(m, tensor_mor(n, identity(b))), n.source, b
                )
                rhs = compose(curry_dial(m, a, b), n)
                natural.check(lhs == rhs, lambda: f"{_show_mor(m)} via {_show_mor(n)}")
    return [law.result() for law in (counts, bijection, roundtrip, validity, natural)]


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
        with _shared():  # one case's objects are built once and kept no longer
            a = random_object(lin, rng)
            b = random_object(lin, rng)
            ctx = lambda: f"A={_show_obj(a)} B={_show_obj(b)}"
            t_id.check(tensor_mor(identity(a), identity(b)) == identity(tensor_obj(a, b)), ctx)
            h_id.check(hom_mor(identity(a), identity(b)) == identity(hom_obj(a, b)), ctx)

            m1 = random_morphism(lin, rng, a)
            m1p = random_morphism(lin, rng, m1.target)
            m2 = random_morphism(lin, rng, b)
            m2p = random_morphism(lin, rng, m2.target)
            lhs = tensor_mor(compose(m1p, m1), compose(m2p, m2))
            rhs = compose(tensor_mor(m1p, m2p), tensor_mor(m1, m2))
            t_comp.check(
                lhs == rhs, lambda: f"{_show_mor(m1)}+{_show_mor(m1p)} x {_show_mor(m2)}+{_show_mor(m2p)}"
            )
            tm = tensor_mor(m1, m2)
            t_valid.check(_valid(tm), lambda: _show_mor(tm))

            a1 = random_morphism(lin, rng, random_object(lin, rng))
            a2 = random_morphism(lin, rng, a1.target)
            b1 = random_morphism(lin, rng, random_object(lin, rng))
            b2 = random_morphism(lin, rng, b1.target)
            # hom_mor(a2 . a1, b2 . b1) factors through the middle hom object
            lhs = hom_mor(compose(a2, a1), compose(b2, b1))
            rhs = compose(hom_mor(a1, b2), hom_mor(a2, b1))
            h_comp.check(
                lhs == rhs,
                lambda: f"{_show_mor(a1)}+{_show_mor(a2)} x {_show_mor(b1)}+{_show_mor(b2)}",
            )
            hm = hom_mor(a2, b1)
            h_valid.check(_valid(hm), lambda: _show_mor(hm))
    return [law.result() for law in (t_id, t_comp, t_valid, h_id, h_comp, h_valid)]


# -- monoidal coherence ------------------------------------------------------------------


# weight-matrix entries we are willing to materialize per pentagon instance;
# keeps the worst sampled corner to a fraction of a second
_PENTAGON_ENTRY_BUDGET = 80_000


def _shape_tables(sides) -> tuple[dict, dict]:
    """The tensor shapes of each pair of sides, pair[x][y], and of both
    bracketings of each triple, triple[x][y][z] = ((x y) z, x (y z))."""
    pair = {x: {y: tensor_shape(x, y) for y in sides} for x in sides}
    brackets = lambda x, y, z: (tensor_shape(pair[x][y], z), tensor_shape(x, pair[y][z]))
    return pair, {x: {y: {z: brackets(x, y, z) for z in sides} for y in sides} for x in sides}


def _pentagon_stages(sz, tables=None) -> list[tuple[int, int]]:
    """Shapes of every tensor built along both pentagon paths, those of two
    and three sides read from tables (_shape_tables of sz's sides if None)."""
    pair, triple = tables or _shape_tables(sz)
    a, b, c, d = sz
    ab, bc, cd = pair[a][b], pair[b][c], pair[c][d]
    (abc, a_bc), (bc_d, b_cd) = triple[a][b][c], triple[b][c][d]
    four = tensor_shape(abc, d), tensor_shape(a_bc, d), tensor_shape(a, bc_d), tensor_shape(a, b_cd)
    return [ab, bc, cd, abc, a_bc, b_cd, bc_d, tensor_shape(ab, cd), *four]


def coherence_laws(
    lin: Lineale, seed: int = DEFAULT_SEED, cases: int = 50
) -> list[LawResult]:
    """Pentagon, triangle, unitor, symmetry, and isomorphism checks.

    Pentagon instances are drawn from the size combinations whose tensors
    fit the entry budget, and so the cap; that rules out the all-2 corner
    (a carrier of several million elements) and keeps the all-1 corner.
    """
    rng = random.Random(seed)
    sides = tuple(itertools.product(_SIZES, repeat=2))  # (pos, neg) choices per object
    tables = _shape_tables(sides)

    def fits(combo) -> bool:  # by its total weight entries; sizes in {1, 2} keep them small ints
        return sum(itertools.starmap(mul, _pentagon_stages(combo, tables))) <= _PENTAGON_ENTRY_BUDGET

    pentagon_sizes = list(filter(fits, itertools.product(sides, repeat=4)))

    pentagon = _Law("coherence.pentagon")
    triangle = _Law("coherence.triangle")
    unitor_w = _Law("coherence.unitor.weights")
    unitor_iso = _Law("coherence.unitor.iso")
    assoc_iso = _Law("coherence.associator.iso")
    sym_inv = _Law("coherence.symmetry.involution")
    sym_nat = _Law("coherence.symmetry.natural")
    sym_unit = _Law("coherence.symmetry.unitor")

    for _ in range(cases):
        with _shared():  # one case's objects are built once and kept no longer
            sz = pentagon_sizes[rng.randrange(len(pentagon_sizes))]
            a, b, c, d = (_random_object_on(lin, rng, FinSet(p), FinSet(n)) for p, n in sz)
            bc = tensor_obj(b, c)
            cd = tensor_obj(c, d)
            ab = tensor_obj(a, b)
            left = compose(
                tensor_mor(identity(a), associator(b, c, d)),
                compose(
                    associator(a, bc, d),
                    tensor_mor(associator(a, b, c), identity(d)),
                ),
            )
            right = compose(associator(a, b, cd), associator(ab, c, d))
            pentagon.check(
                left == right,
                lambda: f"A={_show_obj(a)} B={_show_obj(b)} C={_show_obj(c)} D={_show_obj(d)}",
            )

            a2 = random_object(lin, rng)
            b2 = random_object(lin, rng)
            ctx2 = lambda: f"A={_show_obj(a2)} B={_show_obj(b2)}"
            i = tensor_unit(lin)
            tri_left = tensor_mor(right_unitor(a2), identity(b2))
            tri_right = compose(
                tensor_mor(identity(a2), left_unitor(b2)),
                associator(a2, i, b2),
            )
            triangle.check(tri_left == tri_right, ctx2)

            lu = left_unitor(a2)
            ru = right_unitor(a2)
            unitor_w.check(
                lu.source.cells == a2.cells and ru.source.cells == a2.cells,
                ctx2,
            )
            unitor_iso.check(all([_iso(lu), _iso(ru)]), ctx2)

            c2 = random_object(lin, rng)
            assoc_iso.check(_iso(associator(a2, b2, c2)), lambda: f"{ctx2()} C={_show_obj(c2)}")

            sym = symmetry(a2, b2)
            sym_inv.check(_valid(sym) and compose(symmetry(b2, a2), sym) == identity(sym.source), ctx2)
            n1 = random_morphism(lin, rng, a2)
            n2 = random_morphism(lin, rng, b2)
            sym_nat.check(
                compose(symmetry(n1.target, n2.target), tensor_mor(n1, n2))
                == compose(tensor_mor(n2, n1), sym),
                lambda: f"{_show_mor(n1)} x {_show_mor(n2)}",
            )
            sym_unit.check(
                compose(left_unitor(a2), symmetry(a2, i)) == right_unitor(a2),
                ctx2,
            )
    checked = (pentagon, triangle, unitor_w, unitor_iso, assoc_iso, sym_inv, sym_nat, sym_unit)
    return [law.result() for law in checked]


# -- universal properties ---------------------------------------------------------------


def _mediating(source: DialObject, target: DialObject, legs, out: bool) -> list[tuple]:
    """The (fwd, bwd) tables of each valid morphism m: source -> target whose
    composite with each leg, leg . m if out else m . leg, has the tables of
    that leg's given map; tables compose by finset.compose's rule."""
    after = lambda g, f: tuple(map(g.__getitem__, f))  # g . f
    legs = [(leg.fwd.table, leg.bwd.table, _tables(given)) for leg, given in legs]
    return [
        (f, bt)
        for _, _, f, bwds in _hom_tables((source,), (target,))
        for bt in bwds
        if all(
            ((after(lf, f), after(bt, lb)) if out else (after(f, lf), after(lb, bt))) == given
            for lf, lb, given in legs
        )
    ]


def universal_laws(
    lin: Lineale, seed: int = DEFAULT_SEED, cases: int = 100
) -> list[LawResult]:
    """Pairing and copairing are mediating and unique (by enumeration, on
    tables, into the projections' product and out of the injections' coproduct)."""
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
        mediating = _mediating(src, p1.source, ((p1, m1), (p2, m2)), out=True)
        p_unq.check(mediating == [_tables(pair)] and (pair.source, pair.target) == (src, p1.source), ctx)

        tgt = random_object(lin, rng)
        n1 = random_morphism(lin, rng, tgt, into=True)
        n2 = random_morphism(lin, rng, tgt, into=True)
        a, b = n1.source, n2.source
        cop = oplus_copair(n1, n2)
        i1, i2 = oplus_inl(a, b), oplus_inr(a, b)
        ctx = lambda: f"{_show_mor(n1)} (+) {_show_mor(n2)}"
        injected = compose(cop, i1) == n1 and compose(cop, i2) == n2
        s_med.check(injected and all(map(_valid, (cop, i1, i2))), ctx)
        mediating = _mediating(i1.target, tgt, ((i1, n1), (i2, n2)), out=False)
        s_unq.check(mediating == [_tables(cop)] and (cop.source, cop.target) == (i1.target, tgt), ctx)
    return [law.result() for law in (p_med, p_unq, s_med, s_unq)]


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
    fields = {name: getattr(lin, name) for name in Lineale.__slots__}
    return Lineale(**{**fields, "tag": f"mutate_imp({lin.tag})", "_imp": lambda a, b: lin.unit_payload})


def mutated_kleene3() -> Lineale:
    """Three-valued lineale with its implication forced to constant 1."""
    return mutate_imp(KLEENE3)
