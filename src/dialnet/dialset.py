"""Lineale-weighted relations and the lax maps between them.

An object is a pair of finite carriers, "positive" and "negative", and
a relation between them over a lineale: the weight of each pair (u, x),
stored as one tuple of cells in the nets' row-major order, cell (u, x)
at u * |neg| + x.  A morphism is a forward function on positive carriers
and a backward function on negative carriers, subject to a pointwise
order condition:

    weight_A(u, bwd(y))  <=  weight_B(fwd(u), y)   for all u, y.

On Petri nets the positive carrier holds places, the negative one
transitions, and morphisms read as simulations.

The connectives:

* with_product (cartesian): carriers (U x V, X + Y)
* oplus (cocartesian):      carriers (U + V, X x Y)
* tensor_obj:               carriers (U x V, X^V x Y^U)
* hom_obj:                  carriers (V^U x X^Y, U x Y)

tensor and hom are adjoint; curry_dial / uncurry_dial realize the
bijection between hom-sets.  Each has one cell builder in finset, which
the net layer shares: from the two objects' cells it gives the op table,
one payload per pair of input cells, and the result cells in row-major
order, each an op-table object; _pointwise, their one assembly, keeps them.
Every constructor here returns morphisms that are valid by the
corresponding proof, but nothing is trusted: check_morphism recomputes
the condition pointwise and the test suite always rechecks constructor
outputs.

_hom_search reads the hom-sets out of many sources into many targets in
one pass, from per-column candidate sets, not by testing every table pair
(the tests' oracle).  _hom_tables lists them in order, and enumerate_morphisms
builds a morphism from each; _hom_counts counts them and finds each source's
last, as the exhaustive identity law reads them unless a table breaks it.

Index conventions (row-major pairs, left-block coproducts, numeral
exponentials, response-table pairs), carrier shapes and the morphism
shape check come from the finset module, as does _rows, the one place a
relation is cut into rows; every constructor checks the shape against
the fixed cap finset.DEFAULT_CAP before it builds any label or cell.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
from collections import Counter
from operator import mul
from typing import NamedTuple

from .errors import InvalidMorphism, ShapeMismatch, TagMismatch
from .finset import FinSet, FnTable, _guard, _hom_carriers, _hom_cells, _rows, _same_lineale
from .finset import _tensor_carriers, _tensor_cells, check_shapes, copair, coproduct_set
from .finset import digit_table, fn_pair_digits, fn_pair_weights, hom_shape, inl, inr, pairing
from .finset import product_fn, product_set, proj1, proj2, tensor_shape
from .finset import compose as table_compose
from .finset import identity as table_identity
from .finset import swap as table_swap
from .lineale import Lineale, LinealeValue
from .record import record

__all__ = [
    "DialObject",
    "DialMorphism",
    "Violation",
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


@record
class DialObject(NamedTuple):
    """Two finite carriers and the relation between them, as one tuple of cells.

    ``cells[u * |neg| + x]`` is the payload of the lineale value attached
    to the pair (u, x) -- for a product lineale a plain pair of component
    payloads -- in the row-major order of a net's relations.
    """

    lin: Lineale
    pos: FinSet
    neg: FinSet
    cells: tuple[object, ...]

    def __post_init__(self):
        if len(self.cells) != self.pos.size * self.neg.size:
            raise ShapeMismatch(
                f"{len(self.cells)} cells for carriers of sizes "
                f"{self.pos.size} x {self.neg.size}"
            )
        # a wrapped value would silently compare unequal to every payload
        if LinealeValue in map(type, self.cells):
            raise TagMismatch(f"cells hold {self.lin.tag} payloads, not tagged values")

    @property
    def shape(self) -> tuple[int, int]:
        """The carrier sizes (|pos|, |neg|), as the finset shape functions take them."""
        return self.pos.size, self.neg.size


class Violation(NamedTuple):
    """One point where the morphism condition fails."""

    u: int
    y: int
    source_weight: LinealeValue
    target_weight: LinealeValue


def check_morphism(
    source: DialObject, target: DialObject, fwd: FnTable, bwd: FnTable
) -> list[Violation]:
    """All points (u, y) where weight(u, bwd y) is not below weight(fwd u, y).

    An empty list means (fwd, bwd) is a morphism from source to target.
    """
    check_shapes(source, target, fwd, bwd)
    tag, leq = source.lin.tag, source.lin._leq
    sc, tc, n_x, n_y = source.cells, target.cells, source.neg.size, target.neg.size
    out = []
    for u, fu in enumerate(fwd.table):
        a0, b0 = u * n_x, fu * n_y  # the first cells of source row u and target row fu
        for y, x in enumerate(bwd.table):
            a, b = sc[a0 + x], tc[b0 + y]
            if not leq(a, b):
                out.append(Violation(u, y, LinealeValue(tag, a), LinealeValue(tag, b)))
    return out


@record
class DialMorphism(NamedTuple):
    """A forward/backward pair of tables between two objects or two nets.

    The ends are anything :func:`check_shapes` accepts, so one type serves
    DialObjects and PetriNets, and :func:`identity` and :func:`compose`
    work on both.  Construction checks shapes only; :func:`dial_morphism`
    also enforces the order condition, and :func:`check_morphism` (for
    nets, ``petrinet.check_net_morphism``) lists where it fails.
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
    return FnTable(t.cod, t.dom, tuple(sorted(range(t.dom.size), key=t.table.__getitem__)))


def inverse(m: DialMorphism) -> DialMorphism:
    """Reverse an isomorphism by inverting both tables.

    Only meaningful for the structural isomorphisms built here; the
    result of inverting an arbitrary valid morphism need not be valid.
    """
    return DialMorphism(m.target, m.source, _invert_table(m.fwd), _invert_table(m.bwd))


# -- cartesian and cocartesian structure -------------------------------------


def with_product(a: DialObject, b: DialObject) -> DialObject:
    """The cartesian product: pairs of rows, disjoint union of columns."""
    lin = _same_lineale(a, b)
    _guard(a.pos.size * b.pos.size)
    pos = product_set(a.pos, b.pos)
    neg = coproduct_set(a.neg, b.neg)
    # row (u, v) is a's row u, then b's row v
    rows = itertools.product(_rows(a.cells, *a.shape), _rows(b.cells, *b.shape))
    cells = itertools.chain.from_iterable(ra + rb for ra, rb in rows)
    return DialObject(lin, pos, neg, tuple(cells))


def with_proj1(a: DialObject, b: DialObject) -> DialMorphism:
    return DialMorphism(with_product(a, b), a, proj1(a.pos, b.pos), inl(a.neg, b.neg))


def with_proj2(a: DialObject, b: DialObject) -> DialMorphism:
    return DialMorphism(with_product(a, b), b, proj2(a.pos, b.pos), inr(a.neg, b.neg))


def with_pairing(m1: DialMorphism, m2: DialMorphism) -> DialMorphism:
    """The mediating morphism into a cartesian product from a shared source."""
    if m1.source != m2.source:
        raise ShapeMismatch("pairing needs a shared source object")
    prod = with_product(m1.target, m2.target)
    return DialMorphism(
        m1.source, prod, pairing(m1.fwd, m2.fwd), copair(m1.bwd, m2.bwd)
    )


def oplus(a: DialObject, b: DialObject) -> DialObject:
    """The coproduct: disjoint union of rows, pairs of columns."""
    lin = _same_lineale(a, b)
    _guard(a.neg.size * b.neg.size)
    pos = coproduct_set(a.pos, b.pos)
    neg = product_set(a.neg, b.neg)
    # column (x, y) of row inl u is a(u, x), of row inr v is b(v, y)
    n_x, n_y = a.neg.size, b.neg.size
    left = itertools.chain.from_iterable(map(itertools.repeat, a.cells, itertools.repeat(n_y)))
    right = (row * n_x for row in _rows(b.cells, *b.shape))
    return DialObject(lin, pos, neg, tuple(itertools.chain(left, *right)))


def oplus_inl(a: DialObject, b: DialObject) -> DialMorphism:
    return DialMorphism(a, oplus(a, b), inl(a.pos, b.pos), proj1(a.neg, b.neg))


def oplus_inr(a: DialObject, b: DialObject) -> DialMorphism:
    return DialMorphism(b, oplus(a, b), inr(a.pos, b.pos), proj2(a.neg, b.neg))


def oplus_copair(m1: DialMorphism, m2: DialMorphism) -> DialMorphism:
    """The mediating morphism out of a coproduct into a shared target."""
    if m1.target != m2.target:
        raise ShapeMismatch("copairing needs a shared target object")
    cop = oplus(m1.source, m2.source)
    return DialMorphism(
        cop, m1.target, copair(m1.fwd, m2.fwd), pairing(m1.bwd, m2.bwd)
    )


# -- monoidal structure -------------------------------------------------------


def _landing(weights, reads, n: int) -> list[int]:
    """Per input digit 0..n-1, the sum of weights[i] over the output digits i with reads[i] == it."""
    out = [0] * n
    for w, i in zip(weights, reads):
        out[i] += w
    return out


def _pointwise(a: DialObject, b: DialObject, carriers, build) -> DialObject:
    """The tensor or hom of a and b from the connective's carriers and cell builder."""
    lin = _same_lineale(a, b)
    pos, neg = carriers(a, b)
    _, cells = build(lin, a.cells, b.cells, a.shape, b.shape)
    return DialObject(lin, pos, neg, tuple(cells))


# (builder, *ids of its arguments) -> (object, arguments) while a _shared() block
# runs in this thread, else None; holding the arguments keeps their ids from being reused
_share: contextvars.ContextVar[dict | None] = contextvars.ContextVar("share", default=None)


@contextlib.contextmanager
def _shared():
    """Within the block, tensor_unit, tensor_obj and hom_obj build each object
    once per tuple of arguments and hand out that one object again, so equal
    objects are the same object; the share is dropped when the block ends."""
    token = _share.set({})
    try:
        yield
    finally:
        _share.reset(token)


def _once(build):
    """build(*args) as it runs outside a share, looked up in the open one."""

    @functools.wraps(build)
    def shared(*args):
        share = _share.get()
        if share is None:
            return build(*args)
        key = (build, *map(id, args))
        if key not in share:
            share[key] = build(*args), args
        return share[key][0]

    return shared


@_once
def tensor_unit(lin: Lineale) -> DialObject:
    """One-element carriers weighted by the lineale's unit."""
    return DialObject(lin, FinSet(1), FinSet(1), (lin.unit_payload,))


@_once
def tensor_obj(a: DialObject, b: DialObject) -> DialObject:
    """Monoidal product.

    Positive carrier U x V; negative carrier X^V x Y^U, read as a pair
    of response tables.  The weight at ((u, v), (f, g)) is
    tensor(weight_a(u, f(v)), weight_b(v, g(u))).
    """
    return _pointwise(a, b, _tensor_carriers, _tensor_cells)


def tensor_mor(m1: DialMorphism, m2: DialMorphism) -> DialMorphism:
    """Tensor two morphisms.

    Forward acts componentwise.  Backward takes a pair of target
    response tables (f', g') to (F . f' . g, G . g' . f), pre- and
    post-composing with the given maps: the source digit f(v) is the
    target digit f'(g(v)) through F, and g(u) is g'(f(u)) through G.
    """
    src = tensor_obj(m1.source, m2.source)
    tgt = tensor_obj(m1.target, m2.target)
    fwd = product_fn(m1.fwd, m2.fwd)

    (u_s, x_s), (v_s, y_s) = m1.source.shape, m2.source.shape
    f_w, g_w = fn_pair_weights(v_s, x_s, u_s, y_s)
    fb, gb = m1.bwd.table, m2.bwd.table
    digits = [(fb, w) for w in _landing(f_w, m2.fwd.table, m2.target.pos.size)]
    digits += [(gb, w) for w in _landing(g_w, m1.fwd.table, m1.target.pos.size)]
    return DialMorphism(src, tgt, fwd, FnTable(tgt.neg, src.neg, digit_table(digits)))


@_once
def hom_obj(a: DialObject, b: DialObject) -> DialObject:
    """Internal hom.

    Positive carrier V^U x X^Y: candidate forward/backward table pairs.
    Negative carrier U x Y: the points where a candidate is probed.
    The weight at ((f, F), (u, y)) is imp(weight_a(u, F(y)),
    weight_b(f(u), y)), so a candidate is a morphism exactly when all
    its weights sit above the unit.
    """
    return _pointwise(a, b, _hom_carriers, _hom_cells)


def hom_mor(m_in: DialMorphism, m_out: DialMorphism) -> DialMorphism:
    """Hom is contravariant in its first argument, covariant in the second.

    Given m_in: A' -> A and m_out: B -> B', produce
    hom(A, B) -> hom(A', B').  Forward conjugates a candidate pair
    (h, H) to (g . h . f, F . H . G): the target digit h'(u') is the
    source digit h(f(u')) through g, and H'(y') is H(G(y')) through F.
    Backward sends a probe (u', y') to (f(u'), G(y')).
    """
    a_prime, a = m_in.source, m_in.target
    b, b_prime = m_out.source, m_out.target
    src = hom_obj(a, b)
    tgt = hom_obj(a_prime, b_prime)

    f, fb = m_in.fwd.table, m_in.bwd.table
    g, gb = m_out.fwd.table, m_out.bwd.table
    (u_t, x_t), (v_t, y_t) = a_prime.shape, b_prime.shape
    h_w, big_h_w = fn_pair_weights(u_t, v_t, y_t, x_t)
    digits = [(g, w) for w in _landing(h_w, f, a.pos.size)]
    digits += [(fb, w) for w in _landing(big_h_w, gb, b.neg.size)]
    fwd = FnTable(src.pos, tgt.pos, digit_table(digits))
    return DialMorphism(src, tgt, fwd, product_fn(m_in.fwd, m_out.bwd))


# -- the tensor-hom adjunction ------------------------------------------------


def curry_dial(m: DialMorphism, a: DialObject, b: DialObject) -> DialMorphism:
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
    tgt = hom_obj(b, c)

    f = m.fwd.table
    # digit p of the response pair (f_z, g_z) that m's backward map sends
    # each z to: f_z(v) at p = v, g_z(u) at p = |V| + u
    cols = fn_pair_digits(m.bwd.table, bv, ax, au, by)
    h_w, big_h_w = fn_pair_weights(bv, c.pos.size, c.neg.size, by)
    fwd_table = [
        sum(map(mul, f[u * bv : (u + 1) * bv], h_w)) + sum(map(mul, cols[bv + u], big_h_w))
        for u in range(au)
    ]
    bwd_table = [fz_v for col in cols[:bv] for fz_v in col]
    return DialMorphism(
        a,
        tgt,
        FnTable(a.pos, tgt.pos, tuple(fwd_table)),
        FnTable(tgt.neg, a.neg, tuple(bwd_table)),
    )


def uncurry_dial(m: DialMorphism, b: DialObject, c: DialObject) -> DialMorphism:
    """Transpose m: a -> hom(b, c) back into tensor(a, b) -> c."""
    if m.target.lin.tag != b.lin.tag or b.lin.tag != c.lin.tag:
        raise TagMismatch("factors are over a different lineale than the morphism")
    if m.target.shape != hom_shape(b.shape, c.shape):
        raise ShapeMismatch("morphism target is not shaped like the hom of the factors")
    a = m.source
    bv, by = b.shape
    cw, cz = c.shape
    src = tensor_obj(a, b)

    G = m.bwd.table
    # digit p of the candidate pair (h_u, H_u) that m's forward map sends
    # each u to: h_u(v) at p = v, H_u(z) at p = |V| + z
    cols = fn_pair_digits(m.fwd.table, bv, cw, cz, by)
    fwd_table = [cols[v][u] for u in range(a.pos.size) for v in range(bv)]
    # G runs over the row-major B.pos x C.neg; G[z::cz] is its column z
    f_w, g_w = fn_pair_weights(bv, a.neg.size, a.pos.size, by)
    bwd_table = [
        sum(map(mul, G[z::cz], f_w)) + sum(map(mul, cols[bv + z], g_w)) for z in range(cz)
    ]
    return DialMorphism(
        src,
        c,
        FnTable(src.pos, c.pos, tuple(fwd_table)),
        FnTable(c.neg, src.neg, tuple(bwd_table)),
    )


# -- structural isomorphisms ----------------------------------------------------


def associator(a: DialObject, b: DialObject, c: DialObject) -> DialMorphism:
    """The isomorphism tensor(tensor(a, b), c) -> tensor(a, tensor(b, c)).

    Row-major indexing makes the forward table the identity.  The
    backward table moves each digit of a target response, f on V x W and
    per u a pair (g_u on W, h_u on V), to the source response: per w the
    pair (f(-, w), g_-(w)), and h on U x V.
    """
    src = tensor_obj(tensor_obj(a, b), c)
    tgt = tensor_obj(a, tensor_obj(b, c))
    (au, ax), (bv, by), (cw, cz) = a.shape, b.shape, c.shape

    fwd = FnTable(src.pos, tgt.pos, tuple(range(src.pos.size)))

    pair_w, h_w = fn_pair_weights(cw, tensor_shape(a.shape, b.shape)[1], au * bv, cz)
    f_w, g_w = fn_pair_weights(bv, ax, au, by)
    digits = [(range(ax), pair_w[w] * f_w[v]) for v in range(bv) for w in range(cw)]
    for u in range(au):
        digits += [(range(by), pair_w[w] * g_w[u]) for w in range(cw)]
        digits += [(range(cz), h_w[u * bv + v]) for v in range(bv)]
    return DialMorphism(src, tgt, fwd, FnTable(tgt.neg, src.neg, digit_table(digits)))


def left_unitor(a: DialObject) -> DialMorphism:
    """tensor(I, a) -> a.  Both tables are identities under our indexing."""
    source = tensor_obj(tensor_unit(a.lin), a)
    return DialMorphism(source, a, table_identity(a.pos), table_identity(a.neg))


def right_unitor(a: DialObject) -> DialMorphism:
    """tensor(a, I) -> a.  Both tables are identities under our indexing."""
    source = tensor_obj(a, tensor_unit(a.lin))
    return DialMorphism(source, a, table_identity(a.pos), table_identity(a.neg))


def symmetry(a: DialObject, b: DialObject) -> DialMorphism:
    """tensor(a, b) -> tensor(b, a): swap rows, swap response pairs.

    The backward table moves the digits of a target response (g, f) to
    the source response (f, g).  Valid because every lineale here has a
    commutative product.
    """
    src = tensor_obj(a, b)
    tgt = tensor_obj(b, a)
    fwd = table_swap(a.pos, b.pos)
    (au, ax), (bv, by) = a.shape, b.shape
    f_w, g_w = fn_pair_weights(bv, ax, au, by)
    digits = [(range(by), w) for w in g_w] + [(range(ax), w) for w in f_w]
    return DialMorphism(src, tgt, fwd, FnTable(tgt.neg, src.neg, digit_table(digits)))


# -- enumeration -----------------------------------------------------------------


def _hom_search(sources, targets):
    """The search core: per source a in order, (a, column, hom).  hom yields
    per target b, in order, (b, [(f, v), ...]) over each forward table f from
    a into b, v holding per y the values (weight_b(f(u), y))_u, read once per
    (|A.pos|, target).  column(v[y]) is the x with weight_a(u, x) <=
    weight_b(f(u), y) for all u, once per source and value tuple; f's valid
    backward tables are the product of its columns.  No cache outlives the
    call.  A pair's candidate space, |B.pos|^|A.pos| * |A.neg|^|B.neg|, is
    capped when the pair is reached, before its value tuples are read."""
    targets, by_shape = tuple(targets), {}  # (|A.pos|, target index) -> [(f, v)]

    def hom(a):
        n, shape = a.pos.size, a.shape
        for j, b in enumerate(targets):
            _guard(hom_shape(shape, b.shape)[0], "morphism candidate space")
            if (n, j) not in by_shape:
                # with no rows every column reads the empty value tuple
                empty, row = ((),) * b.neg.size, _rows(b.cells, *b.shape).__getitem__
                fs = itertools.product(range(b.pos.size), repeat=n)
                by_shape[n, j] = [(f, tuple(zip(*map(row, f))) if f else empty) for f in fs]
            yield b, by_shape[n, j]

    for a in sources:
        yield a, _column(a), hom(a)


def _column(a):
    n_x = a.neg.size
    leq, cols = a.lin._leq, [(x, a.cells[x::n_x]) for x in range(n_x)]
    fits = lambda vy: tuple(x for x, col in cols if all(map(leq, col, vy)))
    return functools.cache(fits)


def _cases(column, hom):
    """(b, f, columns) per forward table f of hom that has a valid backward table."""
    for b, fs in hom:
        for f, v in fs:
            if all(cols := [*map(column, v)]):
                yield b, f, cols


def _hom_tables(sources, targets):
    """The ordered search: (a, b, f, iterator of backward tables) per valid
    morphism from each source into each target, in lexicographic (source,
    target, forward, backward) order.  The exhaustive identity law runs it
    only for a source whose table spaces hold a table that breaks the law."""
    for a, column, hom in _hom_search(sources, targets):
        yield from ((a, b, f, itertools.product(*cols)) for b, f, cols in _cases(column, hom))


def _hom_counts(sources, targets):
    """Per source a in order, (a, count, last): how many valid morphisms run
    from a into the targets, and the last as (b, f, bwd) or None.  Per source
    shape, each distinct value tuple v has its multiplicity m over (target, f)
    and its columns' indices; a source reads each column size once and sums m
    times the product of v's sizes.  last reads back to front."""
    per_shape: dict = {}  # source shape -> (homs, column tuples, multiplicities, index columns)
    for a, column, hom in _hom_search(sources, targets):
        if a.shape not in per_shape:
            homs, index = list(hom), {}
            mult = Counter(v for _, fs in homs for _, v in fs)
            keys = [[index.setdefault(vy, len(index)) for vy in v] for v in mult]
            padded = itertools.zip_longest(*keys, fillvalue=-1)  # index -1 reads size 1
            per_shape[a.shape] = homs, [*index], [*mult.values()], [*padded]
        homs, vys, ms, index_columns = per_shape[a.shape]
        terms, size = ms, [*map(len, map(column, vys)), 1].__getitem__
        for col in index_columns:
            terms = map(mul, terms, map(size, col))
        last = next(_cases(column, ((b, fs[::-1]) for b, fs in homs[::-1])), None)
        yield a, sum(terms), last and (*last[:2], tuple(col[-1] for col in last[2]))


def enumerate_morphisms(a: DialObject, b: DialObject) -> list[DialMorphism]:
    """Every valid morphism a -> b, in lexicographic (forward, backward) order."""
    out = []
    for _, _, f, bwds in _hom_tables((a,), (b,)):
        fwd = FnTable(a.pos, b.pos, f)
        out.extend(DialMorphism(a, b, fwd, FnTable(b.neg, a.neg, bt)) for bt in bwds)
    return out
