"""Lineale-weighted relations and the lax maps between them.

An object is a pair of finite carriers with a weight matrix over a
lineale: a "positive" carrier (rows) and a "negative" carrier
(columns).  A morphism is a forward function on positive carriers and
a backward function on negative carriers, subject to a pointwise order
condition:

    weight_A(u, bwd(y))  <=  weight_B(fwd(u), y)   for all u, y.

On Petri nets the positive carrier holds places, the negative one
transitions, and morphisms read as simulations.

The connectives:

* with_product (cartesian): carriers (U x V, X + Y)
* oplus (cocartesian):      carriers (U + V, X x Y)
* tensor_obj:               carriers (U x V, X^V x Y^U)
* hom_obj:                  carriers (V^U x X^Y, U x Y)

tensor and hom are adjoint; curry_dial / uncurry_dial realize the
bijection between hom-sets.  Every constructor here returns morphisms
that are valid by the corresponding proof, but nothing is trusted:
check_morphism recomputes the condition pointwise and the test suite
always rechecks constructor outputs.

Index conventions (row-major pairs, left-block coproducts, numeral
exponentials, response-table pairs) and carrier shapes come from the
finset module; every constructor checks the cap on the shape before it
builds any label or row.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import getitem
from typing import Callable, NamedTuple

from .errors import CapExceeded, InvalidMorphism, ShapeMismatch, TagMismatch
from .finset import (
    DEFAULT_CAP,
    FinSet,
    FnTable,
    copair,
    coproduct_set,
    exp_set,
    fn_from_index,
    fn_pair_from_index,
    fn_pair_index,
    hom_shape,
    inl,
    inr,
    pair_index,
    pairing,
    product_fn,
    product_set,
    proj1,
    proj2,
    singleton,
    tensor_shape,
)
from .finset import compose as table_compose
from .finset import identity as table_identity
from .finset import swap as table_swap
from .lineale import Lineale, LinealeValue

__all__ = [
    "DialObject",
    "DialMorphism",
    "Violation",
    "dial_object",
    "check_shapes",
    "check_morphism",
    "dial_morphism",
    "identity",
    "compose",
    "inverse",
    "with_product",
    "with_proj1",
    "with_proj2",
    "with_pairing",
    "oplus",
    "oplus_inl",
    "oplus_inr",
    "oplus_copair",
    "tensor_unit",
    "tensor_obj",
    "tensor_mor",
    "hom_obj",
    "hom_mor",
    "curry_dial",
    "uncurry_dial",
    "associator",
    "left_unitor",
    "right_unitor",
    "symmetry",
    "enumerate_morphisms",
]


@dataclass(frozen=True, slots=True)
class DialObject:
    """Two finite carriers and a weight matrix between them.

    ``weight[u][x]`` is the payload of the lineale value attached to the
    pair (u, x) -- for a product lineale a plain pair of component
    payloads; :meth:`weight_at` wraps it as a value.  Rows run over the
    positive carrier, columns over the negative one.
    """

    lin: Lineale
    pos: FinSet
    neg: FinSet
    weight: tuple[tuple[object, ...], ...]

    def __post_init__(self):
        if len(self.weight) != self.pos.size:
            raise ShapeMismatch(
                f"{len(self.weight)} weight rows for positive carrier "
                f"of size {self.pos.size}"
            )
        for row in self.weight:
            if len(row) != self.neg.size:
                raise ShapeMismatch(
                    f"weight row of length {len(row)} for negative carrier "
                    f"of size {self.neg.size}"
                )
            # a wrapped value would silently compare unequal to every payload
            if LinealeValue in map(type, row):
                raise TagMismatch(
                    f"weight rows hold {self.lin.tag} payloads, not tagged values"
                )

    @property
    def shape(self) -> tuple[int, int]:
        """The carrier sizes (|pos|, |neg|), as the finset shape functions take them."""
        return self.pos.size, self.neg.size

    def weight_at(self, u: int, x: int) -> LinealeValue:
        return LinealeValue(self.lin.tag, self.weight[u][x])


def dial_object(
    lin: Lineale,
    pos: FinSet,
    neg: FinSet,
    weight_fn: Callable[[int, int], LinealeValue],
) -> DialObject:
    """Build an object by tabulating a weight function over the carriers."""
    rows = tuple(
        tuple(lin.unwrap(weight_fn(u, x)) for x in range(neg.size))
        for u in range(pos.size)
    )
    return DialObject(lin, pos, neg, rows)


class Violation(NamedTuple):
    """One point where the morphism condition fails."""

    u: int
    y: int
    source_weight: LinealeValue
    target_weight: LinealeValue


def _same_lineale(a, b) -> Lineale:
    if a.lin.tag != b.lin.tag:
        raise TagMismatch(f"objects over {a.lin.tag} and {b.lin.tag} cannot combine")
    return a.lin


def check_shapes(source, target, fwd: FnTable, bwd: FnTable) -> None:
    """Raise unless both ends share a lineale, fwd maps the positive
    carriers forward and bwd maps the negative carriers backward.

    The ends are objects or nets: anything with a ``lin`` and ``pos`` /
    ``neg`` carriers, so a net's shape is checked without building its
    relations.
    """
    _same_lineale(source, target)
    if fwd.dom.size != source.pos.size or fwd.cod.size != target.pos.size:
        raise ShapeMismatch("forward table does not map the positive carriers")
    if bwd.dom.size != target.neg.size or bwd.cod.size != source.neg.size:
        raise ShapeMismatch("backward table does not map the negative carriers")


def check_morphism(
    source: DialObject, target: DialObject, fwd: FnTable, bwd: FnTable
) -> list[Violation]:
    """All points (u, y) where weight(u, bwd y) is not below weight(fwd u, y).

    An empty list means (fwd, bwd) is a morphism from source to target.
    """
    check_shapes(source, target, fwd, bwd)
    tag, leq = source.lin.tag, source.lin._leq
    out = []
    for u in range(source.pos.size):
        fu = fwd.table[u]
        for y in range(target.neg.size):
            a = source.weight[u][bwd.table[y]]
            b = target.weight[fu][y]
            if not leq(a, b):
                out.append(Violation(u, y, LinealeValue(tag, a), LinealeValue(tag, b)))
    return out


@dataclass(frozen=True, slots=True)
class DialMorphism:
    """A forward/backward pair of tables between two objects.

    Construction checks shapes only; use :func:`dial_morphism` to also
    enforce the order condition, or :func:`check_morphism` to audit.
    """

    source: DialObject
    target: DialObject
    fwd: FnTable
    bwd: FnTable

    def __post_init__(self):
        check_shapes(self.source, self.target, self.fwd, self.bwd)


def dial_morphism(
    source: DialObject, target: DialObject, fwd: FnTable, bwd: FnTable
) -> DialMorphism:
    """Certify (fwd, bwd) as a morphism, or raise with every violation."""
    violations = check_morphism(source, target, fwd, bwd)
    if violations:
        raise InvalidMorphism(violations)
    return DialMorphism(source, target, fwd, bwd)


def identity(a: DialObject) -> DialMorphism:
    return DialMorphism(a, a, table_identity(a.pos), table_identity(a.neg))


def compose(m2: DialMorphism, m1: DialMorphism) -> DialMorphism:
    """m2 after m1.  Valid whenever both inputs are valid."""
    if m1.target != m2.source:
        raise ShapeMismatch("cannot compose: middle objects differ")
    return DialMorphism(
        m1.source,
        m2.target,
        table_compose(m2.fwd, m1.fwd),
        table_compose(m1.bwd, m2.bwd),
    )


def _invert_table(t: FnTable) -> FnTable:
    if t.dom.size != t.cod.size or len(set(t.table)) != t.dom.size:
        raise ShapeMismatch("table is not a bijection")
    inv = [0] * t.dom.size
    for i, j in enumerate(t.table):
        inv[j] = i
    return FnTable(t.cod, t.dom, tuple(inv))


def inverse(m: DialMorphism) -> DialMorphism:
    """Reverse an isomorphism by inverting both tables.

    Only meaningful for the structural isomorphisms built here; the
    result of inverting an arbitrary valid morphism need not be valid.
    """
    return DialMorphism(m.target, m.source, _invert_table(m.fwd), _invert_table(m.bwd))


def _guard(n: int, cap: int) -> None:
    if n > cap:
        raise CapExceeded(n, cap)


# -- cartesian and cocartesian structure -------------------------------------


def with_product(a: DialObject, b: DialObject, cap: int = DEFAULT_CAP) -> DialObject:
    """The cartesian product: pairs of rows, disjoint union of columns."""
    lin = _same_lineale(a, b)
    _guard(a.pos.size * b.pos.size, cap)
    pos = product_set(a.pos, b.pos)
    neg = coproduct_set(a.neg, b.neg)
    rows = []
    for u in range(a.pos.size):
        for v in range(b.pos.size):
            rows.append(a.weight[u] + b.weight[v])
    return DialObject(lin, pos, neg, tuple(rows))


def with_proj1(a: DialObject, b: DialObject, cap: int = DEFAULT_CAP) -> DialMorphism:
    return DialMorphism(
        with_product(a, b, cap), a, proj1(a.pos, b.pos), inl(a.neg, b.neg)
    )


def with_proj2(a: DialObject, b: DialObject, cap: int = DEFAULT_CAP) -> DialMorphism:
    return DialMorphism(
        with_product(a, b, cap), b, proj2(a.pos, b.pos), inr(a.neg, b.neg)
    )


def with_pairing(
    m1: DialMorphism, m2: DialMorphism, cap: int = DEFAULT_CAP
) -> DialMorphism:
    """The mediating morphism into a cartesian product from a shared source."""
    if m1.source != m2.source:
        raise ShapeMismatch("pairing needs a shared source object")
    prod = with_product(m1.target, m2.target, cap)
    return DialMorphism(
        m1.source, prod, pairing(m1.fwd, m2.fwd), copair(m1.bwd, m2.bwd)
    )


def oplus(a: DialObject, b: DialObject, cap: int = DEFAULT_CAP) -> DialObject:
    """The coproduct: disjoint union of rows, pairs of columns."""
    lin = _same_lineale(a, b)
    _guard(a.neg.size * b.neg.size, cap)
    pos = coproduct_set(a.pos, b.pos)
    neg = product_set(a.neg, b.neg)
    # column (x, y) of row inl u is a(u, x), of row inr v is b(v, y)
    n_x, n_y = a.neg.size, b.neg.size
    rows = [
        tuple(itertools.chain.from_iterable(map(itertools.repeat, row, itertools.repeat(n_y))))
        for row in a.weight
    ]
    rows += [row * n_x for row in b.weight]
    return DialObject(lin, pos, neg, tuple(rows))


def oplus_inl(a: DialObject, b: DialObject, cap: int = DEFAULT_CAP) -> DialMorphism:
    return DialMorphism(a, oplus(a, b, cap), inl(a.pos, b.pos), proj1(a.neg, b.neg))


def oplus_inr(a: DialObject, b: DialObject, cap: int = DEFAULT_CAP) -> DialMorphism:
    return DialMorphism(b, oplus(a, b, cap), inr(a.pos, b.pos), proj2(a.neg, b.neg))


def oplus_copair(
    m1: DialMorphism, m2: DialMorphism, cap: int = DEFAULT_CAP
) -> DialMorphism:
    """The mediating morphism out of a coproduct into a shared target."""
    if m1.target != m2.target:
        raise ShapeMismatch("copairing needs a shared target object")
    cop = oplus(m1.source, m2.source, cap)
    return DialMorphism(
        cop, m1.target, copair(m1.fwd, m2.fwd), pairing(m1.bwd, m2.bwd)
    )


# -- monoidal structure -------------------------------------------------------


def tensor_unit(lin: Lineale) -> DialObject:
    """Singleton carriers weighted by the lineale's unit."""
    return DialObject(lin, singleton(), singleton(), ((lin.unit_payload,),))


def tensor_obj(a: DialObject, b: DialObject, cap: int = DEFAULT_CAP) -> DialObject:
    """Monoidal product.

    Positive carrier U x V; negative carrier X^V x Y^U, read as a pair
    of response tables.  The weight at ((u, v), (f, g)) is
    tensor(weight_a(u, f(v)), weight_b(v, g(u))).
    """
    lin = _same_lineale(a, b)
    _guard(max(tensor_shape(a.shape, b.shape)), cap)
    pos = product_set(a.pos, b.pos)
    xs = exp_set(a.neg, b.pos, cap)
    ys = exp_set(b.neg, a.pos, cap)
    neg = product_set(xs, ys)
    f_tabs = [fn_from_index(fi, b.pos.size, a.neg.size) for fi in range(xs.size)]
    g_tabs = [fn_from_index(gi, a.pos.size, b.neg.size) for gi in range(ys.size)]
    tens = lin._tensor
    f_at = [[f[v] for f in f_tabs] for v in range(b.pos.size)]
    rows = []
    for u in range(a.pos.size):
        au = a.weight[u]
        g_at_u = [g[u] for g in g_tabs]
        for v in range(b.pos.size):
            # one product per pair of cells (x, y), so equal inputs share
            # one result object; row (u, v) then picks them per (f, g)
            products = [list(map(tens, itertools.repeat(ax), b.weight[v])) for ax in au]
            by_x = [list(map(px.__getitem__, g_at_u)) for px in products]
            picked = map(by_x.__getitem__, f_at[v])
            rows.append(tuple(itertools.chain.from_iterable(picked)))
    return DialObject(lin, pos, neg, tuple(rows))


def tensor_mor(
    m1: DialMorphism, m2: DialMorphism, cap: int = DEFAULT_CAP
) -> DialMorphism:
    """Tensor two morphisms.

    Forward acts componentwise.  Backward takes a pair of target
    response tables (f', g') to (F . f' . g, G . g' . f), pre- and
    post-composing with the given maps.
    """
    src = tensor_obj(m1.source, m2.source, cap)
    tgt = tensor_obj(m1.target, m2.target, cap)
    fwd = product_fn(m1.fwd, m2.fwd)

    f, g = m1.fwd.table, m2.fwd.table
    fb, gb = m1.bwd.table, m2.bwd.table
    xn_s, yn_s = m1.source.neg.size, m2.source.neg.size
    (up_t, xn_t), (vp_t, yn_t) = m1.target.shape, m2.target.shape
    table = []
    for c in range(tgt.neg.size):
        fp, gp = fn_pair_from_index(c, vp_t, xn_t, up_t, yn_t)
        new_f = tuple(fb[fp[gv]] for gv in g)
        new_g = tuple(gb[gp[fu]] for fu in f)
        table.append(fn_pair_index(new_f, xn_s, new_g, yn_s))
    return DialMorphism(src, tgt, fwd, FnTable(tgt.neg, src.neg, tuple(table)))


def hom_obj(a: DialObject, b: DialObject, cap: int = DEFAULT_CAP) -> DialObject:
    """Internal hom.

    Positive carrier V^U x X^Y: candidate forward/backward table pairs.
    Negative carrier U x Y: the points where a candidate is probed.
    The weight at ((f, F), (u, y)) is imp(weight_a(u, F(y)),
    weight_b(f(u), y)), so a candidate is a morphism exactly when all
    its weights sit above the unit.
    """
    lin = _same_lineale(a, b)
    _guard(max(hom_shape(a.shape, b.shape)), cap)
    fs = exp_set(b.pos, a.pos, cap)
    bs = exp_set(a.neg, b.neg, cap)
    pos = product_set(fs, bs)
    neg = product_set(a.pos, b.neg)
    f_tabs = [fn_from_index(fi, a.pos.size, b.pos.size) for fi in range(fs.size)]
    b_tabs = [fn_from_index(bi, b.neg.size, a.neg.size) for bi in range(bs.size)]
    imp = lin._imp
    # implications[u][v][y][x] = imp(weight_a(u, x), weight_b(v, y)), each
    # computed once: cells with equal inputs share one result object
    implications = [
        [[list(map(imp, au, itertools.repeat(by))) for by in bv] for bv in b.weight]
        for au in a.weight
    ]
    rows = []
    for f in f_tabs:
        at_f = [implications[u][fu] for u, fu in enumerate(f)]
        for bt in b_tabs:
            row = []
            for columns in at_f:
                row.extend(map(getitem, columns, bt))
            rows.append(tuple(row))
    return DialObject(lin, pos, neg, tuple(rows))


def hom_mor(
    m_in: DialMorphism, m_out: DialMorphism, cap: int = DEFAULT_CAP
) -> DialMorphism:
    """Hom is contravariant in its first argument, covariant in the second.

    Given m_in: A' -> A and m_out: B -> B', produce
    hom(A, B) -> hom(A', B').  Forward conjugates a candidate pair
    (h, H) to (g . h . f, F . H . G); backward sends a probe (u', y')
    to (f(u'), G(y')).
    """
    a_prime, a = m_in.source, m_in.target
    b, b_prime = m_out.source, m_out.target
    src = hom_obj(a, b, cap)
    tgt = hom_obj(a_prime, b_prime, cap)

    f, fb = m_in.fwd.table, m_in.bwd.table
    g, gb = m_out.fwd.table, m_out.bwd.table
    fwd_table = []
    for idx in range(src.pos.size):
        h, H = fn_pair_from_index(idx, a.pos.size, b.pos.size, b.neg.size, a.neg.size)
        new_h = tuple(g[h[fu]] for fu in f)
        new_H = tuple(fb[H[gy]] for gy in gb)
        fwd_table.append(
            fn_pair_index(new_h, b_prime.pos.size, new_H, a_prime.neg.size)
        )
    bwd_table = [pair_index(fu, gy, b.neg.size) for fu in f for gy in gb]
    return DialMorphism(
        src,
        tgt,
        FnTable(src.pos, tgt.pos, tuple(fwd_table)),
        FnTable(tgt.neg, src.neg, tuple(bwd_table)),
    )


# -- the tensor-hom adjunction ------------------------------------------------


def curry_dial(
    m: DialMorphism, a: DialObject, b: DialObject, cap: int = DEFAULT_CAP
) -> DialMorphism:
    """Transpose m: tensor(a, b) -> c into a -> hom(b, c).

    Forward pairs the transpose of m's forward map with the transpose
    (swapped and re-curried) of the second backward component; backward
    evaluates the first backward component.  The order condition is
    preserved with equality, so the output is valid whenever m is.

    The caller asserts that m.source really is tensor_obj(a, b); only
    the carrier shapes are verified here.
    """
    if m.source.lin.tag != a.lin.tag or a.lin.tag != b.lin.tag:
        raise TagMismatch("factors are over a different lineale than the morphism")
    if m.source.shape != tensor_shape(a.shape, b.shape):
        raise ShapeMismatch("morphism source is not shaped like the tensor of the factors")
    c = m.target
    (au, ax), (bv, by) = a.shape, b.shape
    tgt = hom_obj(b, c, cap)

    f = m.fwd.table
    # the response-table pair that m's backward map sends each z to
    responses = [fn_pair_from_index(k, bv, ax, au, by) for k in m.bwd.table]
    fwd_table = [
        fn_pair_index(
            f[u * bv : (u + 1) * bv], c.pos.size, tuple(g[u] for _, g in responses), by
        )
        for u in range(au)
    ]
    bwd_table = [fz[v] for v in range(bv) for fz, _ in responses]
    return DialMorphism(
        a,
        tgt,
        FnTable(a.pos, tgt.pos, tuple(fwd_table)),
        FnTable(tgt.neg, a.neg, tuple(bwd_table)),
    )


def uncurry_dial(
    m: DialMorphism, b: DialObject, c: DialObject, cap: int = DEFAULT_CAP
) -> DialMorphism:
    """Transpose m: a -> hom(b, c) back into tensor(a, b) -> c."""
    if m.target.lin.tag != b.lin.tag or b.lin.tag != c.lin.tag:
        raise TagMismatch("factors are over a different lineale than the morphism")
    if m.target.shape != hom_shape(b.shape, c.shape):
        raise ShapeMismatch("morphism target is not shaped like the hom of the factors")
    a = m.source
    bv, by = b.shape
    cw, cz = c.shape
    src = tensor_obj(a, b, cap)

    G = m.bwd.table
    # the forward/backward candidate pair that m's forward map sends each u to
    candidates = [fn_pair_from_index(k, bv, cw, cz, by) for k in m.fwd.table]
    fwd_table = [w for h, _ in candidates for w in h]
    # G runs over the row-major B.pos x C.neg; G[z::cz] is its column z
    bwd_table = [
        fn_pair_index(G[z::cz], a.neg.size, tuple(H[z] for _, H in candidates), by)
        for z in range(cz)
    ]
    return DialMorphism(
        src,
        c,
        FnTable(src.pos, c.pos, tuple(fwd_table)),
        FnTable(c.neg, src.neg, tuple(bwd_table)),
    )


# -- structural isomorphisms ----------------------------------------------------


def associator(
    a: DialObject, b: DialObject, c: DialObject, cap: int = DEFAULT_CAP
) -> DialMorphism:
    """The isomorphism tensor(tensor(a, b), c) -> tensor(a, tensor(b, c)).

    Row-major indexing makes the forward table the identity; the
    backward table regroups response tables between the two bracketings
    elementwise.
    """
    src = tensor_obj(tensor_obj(a, b, cap), c, cap)
    tgt = tensor_obj(a, tensor_obj(b, c, cap), cap)
    (au, ax), (bv, by), (cw, cz) = a.shape, b.shape, c.shape
    ab_neg = tensor_shape(a.shape, b.shape)[1]
    bc_neg = tensor_shape(b.shape, c.shape)[1]

    fwd = FnTable(src.pos, tgt.pos, tuple(range(src.pos.size)))

    table = []
    for idx in range(tgt.neg.size):
        # target response: f on V x W, and per u a pair (g_u on W, h_u on V)
        f, k = fn_pair_from_index(idx, bv * cw, ax, au, bc_neg)
        gh = [fn_pair_from_index(ku, cw, by, bv, cz) for ku in k]
        # source response: per w a pair (f(-, w), g_-(w)), and h on U x V
        m = tuple(
            fn_pair_index(f[w::cw], ax, tuple(g[w] for g, _ in gh), by)
            for w in range(cw)
        )
        n = tuple(z for _, h in gh for z in h)
        table.append(fn_pair_index(m, ab_neg, n, cz))
    return DialMorphism(src, tgt, fwd, FnTable(tgt.neg, src.neg, tuple(table)))


def _unitor(src: DialObject, a: DialObject) -> DialMorphism:
    # tensoring with the singleton unit leaves both carriers' indices alone
    return DialMorphism(
        src,
        a,
        FnTable(src.pos, a.pos, tuple(range(a.pos.size))),
        FnTable(a.neg, src.neg, tuple(range(a.neg.size))),
    )


def left_unitor(a: DialObject, cap: int = DEFAULT_CAP) -> DialMorphism:
    """tensor(I, a) -> a.  Both tables are identities under our indexing."""
    return _unitor(tensor_obj(tensor_unit(a.lin), a, cap), a)


def right_unitor(a: DialObject, cap: int = DEFAULT_CAP) -> DialMorphism:
    """tensor(a, I) -> a.  Both tables are identities under our indexing."""
    return _unitor(tensor_obj(a, tensor_unit(a.lin), cap), a)


def symmetry(a: DialObject, b: DialObject, cap: int = DEFAULT_CAP) -> DialMorphism:
    """tensor(a, b) -> tensor(b, a): swap rows, swap response pairs.

    Valid because every lineale here has a commutative product.
    """
    src = tensor_obj(a, b, cap)
    tgt = tensor_obj(b, a, cap)
    fwd = table_swap(a.pos, b.pos)
    (au, ax), (bv, by) = a.shape, b.shape
    table = []
    for idx in range(tgt.neg.size):
        g, f = fn_pair_from_index(idx, au, by, bv, ax)
        table.append(fn_pair_index(f, ax, g, by))
    return DialMorphism(src, tgt, fwd, FnTable(tgt.neg, src.neg, tuple(table)))


# -- brute-force oracle ---------------------------------------------------------


def enumerate_morphisms(
    a: DialObject, b: DialObject, cap: int = DEFAULT_CAP
) -> list[DialMorphism]:
    """Every valid morphism a -> b, in lexicographic (forward, backward) order.

    The candidate space has |B.pos|^|A.pos| * |A.neg|^|B.neg| elements
    and is capped.  This is the oracle the law suites compare against.
    """
    n = hom_shape(a.shape, b.shape)[0]
    if n > cap:
        raise CapExceeded(n, cap, what="morphism candidate space")
    leq = a.lin._leq
    ys = range(b.neg.size)
    out = []
    # itertools.product yields tables in exponential index order
    for f in itertools.product(range(b.pos.size), repeat=a.pos.size):
        rows = [(a.weight[u], b.weight[fu]) for u, fu in enumerate(f)]
        for bt in itertools.product(range(a.neg.size), repeat=b.neg.size):
            ok = True
            for au, bu in rows:
                for y in ys:
                    if not leq(au[bt[y]], bu[y]):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                out.append(
                    DialMorphism(
                        a,
                        b,
                        FnTable(a.pos, b.pos, f),
                        FnTable(b.neg, a.neg, bt),
                    )
                )
    return out
