"""Finite sets as index ranges, and tables for the functions between them.

Everything downstream (objects, morphisms, nets) works with elements
0..size-1; labels are cosmetic and never affect equality.  A product,
coproduct or function space is labelled exactly when all of its factors
are, so only nets, whose places and transitions are named, carry labels
through the constructions.  Products, coproducts and exponentials come
with fixed index conventions so that independently built tables agree:

* product: pair (i, j) is the row-major two-digit numeral i * |B| + j
* coproduct: the left block comes first, inr(j) = |A| + j
* exponential X^B: a table (t_0, .., t_{n-1}) is read as a base-|X|
  numeral with t_0 the most significant digit, so index 0 is the
  constant-0 function and the top index is constant |X|-1
* pair of response tables (f, g) in X^V x Y^U: one mixed-radix numeral
  with digits f(0), .., f(|V|-1), g(0), .., g(|U|-1), place values from
  fn_pair_weights, digits from fn_pair_digits, and back by fn_pair_join

This module is the one place for that index arithmetic.  A structure map
sends each input digit to fixed output digits, so its output index is a
sum of per-digit contributions; digit_table alone turns them into a table,
for the projections, swap, product_fn and the maps between function
spaces.  _blocks alone says where with and oplus put each input cell, and
yields their cells in row-major order, so a net's arcs need no sort.

One size rule holds for objects and nets: every connective (with, oplus,
tensor, hom) of dialset and of petrinet takes its carriers from _carriers,
which works the result shape out from the factors' shapes alone (as
tensor_shape and hom_shape do) and, before any label or cell exists,
refuses a product or function-space carrier over DEFAULT_CAP (4096)
elements, then a result relation over MAX_CELLS (2**20) cells; netdoc's
reader refuses a net over MAX_CELLS cells before it reads an arc.

The last section serves dialset's objects and petrinet's nets alike, so a
net command never loads dialset: check_shapes, the one morphism shape
check; Violation, the one record of where a morphism fails; _carriers;
_blocks; and the tensor and hom cell builders, which turn two relations'
cells into an op table and the result cells.  A relation of shape (|U|,
|X|) is one sequence of |U| * |X| payloads in row-major order, cell (u, x)
at u * |X| + x; _rows is the one place that cuts it into rows.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from functools import cache
from itertools import accumulate, chain, count, repeat
from operator import add, mod, mul
from typing import TYPE_CHECKING, NamedTuple, Optional

from .errors import CapExceeded, ShapeMismatch, TagMismatch
from .record import Frozen, record

if TYPE_CHECKING:
    from .lineale import Lineale, LinealeValue

__all__ = [
    "DEFAULT_CAP",
    "MAX_CELLS",
    "FinSet",
    "FnTable",
    "identity",
    "compose",
    "product_set",
    "proj1",
    "proj2",
    "pairing",
    "product_fn",
    "swap",
    "coproduct_set",
    "inl",
    "inr",
    "copair",
    "exp_set",
    "fn_pair_weights",
    "fn_pair_digits",
    "fn_pair_join",
    "digit_table",
    "tensor_shape",
    "hom_shape",
    "check_shapes",
    "Violation",
]

DEFAULT_CAP = 4096
MAX_CELLS = 2**20


def _guard(n: int, what: str = "carrier", cap: int = DEFAULT_CAP, unit: str = "elements") -> None:
    """Raise CapExceeded when n units would not fit under cap."""
    if n > cap:
        raise CapExceeded(n, cap, what, unit)


class FinSet(Frozen):
    """A finite set {0, .., size-1}, optionally carrying distinct labels;
    index is the one label -> element map, read-only, None when unlabelled.

    Two sets are equal, and hash alike, when their sizes are: labels are
    presentation only.
    """

    __slots__ = ("size", "labels", "index")

    def __init__(self, size: int, labels: Optional[tuple[str, ...]] = None):
        if size < 0:
            raise ShapeMismatch(f"set size must be nonnegative, got {size}")
        index = None
        if labels is not None:
            if len(labels) != size:
                raise ShapeMismatch(f"{len(labels)} labels for a set of size {size}")
            index = dict(zip(labels, range(size)))
            if len(index) != size:
                raise ShapeMismatch("labels must be distinct")
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "index", index)

    def __repr__(self) -> str:
        return f"FinSet(size={self.size!r}, labels={self.labels!r})"

    def __eq__(self, other: object) -> bool:
        return other.size == self.size if type(other) is FinSet else NotImplemented

    def __hash__(self) -> int:
        return hash((self.size,))

    def label(self, i: int) -> str:
        if self.labels is not None:
            return self.labels[i]
        return str(i)

    def index_of(self, label: str) -> int:
        if self.index is None:
            raise ShapeMismatch("set has no labels")
        try:
            return self.index[label]
        except KeyError:
            raise ShapeMismatch(f"no element labelled {label!r}") from None


@record
class FnTable(NamedTuple):
    """A function between finite sets, tabulated: table[i] is the image of i.

    Equality compares the carrier sizes and the images; labels do not
    count, since FinSet's equality ignores them.
    """

    dom: FinSet
    cod: FinSet
    table: tuple[int, ...]

    def __post_init__(self):
        if len(self.table) != self.dom.size:
            raise ShapeMismatch(
                f"table length {len(self.table)} != domain size {self.dom.size}"
            )
        # one pass in C; the loop only names the first entry out of range
        if self.table and not (0 <= min(self.table) and max(self.table) < self.cod.size):
            for i, t in enumerate(self.table):
                if not 0 <= t < self.cod.size:
                    raise ShapeMismatch(
                        f"table entry {t} at {i} outside codomain of size {self.cod.size}"
                    )


def identity(a: FinSet) -> FnTable:
    return FnTable(a, a, tuple(range(a.size)))


def compose(g: FnTable, f: FnTable) -> FnTable:
    """g after f."""
    if f.cod.size != g.dom.size:
        raise ShapeMismatch(
            f"cannot compose: middle sizes {f.cod.size} and {g.dom.size} differ"
        )
    return FnTable(f.dom, g.cod, tuple(g.table[t] for t in f.table))


# -- products ---------------------------------------------------------------


def _escape(label: str) -> str:
    return label.replace("\\", "\\\\").replace(",", "\\,")


def product_set(a: FinSet, b: FinSet) -> FinSet:
    """Pairs labelled (la,lb), with backslash and comma escaped inside la
    and lb so that distinct pairs always get distinct labels."""
    labels = None
    if a.labels is not None and b.labels is not None:
        left = [f"({_escape(la)},".__add__ for la in a.labels]
        right = [f"{_escape(lb)})" for lb in b.labels]
        labels = tuple(chain.from_iterable(map(map, left, repeat(right))))
    return FinSet(a.size * b.size, labels)


def proj1(a: FinSet, b: FinSet) -> FnTable:
    return FnTable(product_set(a, b), a, digit_table([(range(a.size), 1), (range(b.size), 0)]))


def proj2(a: FinSet, b: FinSet) -> FnTable:
    return FnTable(product_set(a, b), b, digit_table([(range(a.size), 0), (range(b.size), 1)]))


def pairing(f: FnTable, g: FnTable) -> FnTable:
    """The mediating map <f, g> into a product, from their shared domain."""
    if f.dom.size != g.dom.size:
        raise ShapeMismatch("pairing needs a shared domain")
    n = g.cod.size
    table = tuple(i * n + j for i, j in zip(f.table, g.table))
    return FnTable(f.dom, product_set(f.cod, g.cod), table)


def product_fn(f: FnTable, g: FnTable) -> FnTable:
    """f x g acting componentwise on a product."""
    table = digit_table([(f.table, g.cod.size), (g.table, 1)])
    return FnTable(product_set(f.dom, g.dom), product_set(f.cod, g.cod), table)


def swap(a: FinSet, b: FinSet) -> FnTable:
    """(i, j) |-> (j, i), from a x b to b x a."""
    table = digit_table([(range(a.size), 1), (range(b.size), a.size)])
    return FnTable(product_set(a, b), product_set(b, a), table)


# -- coproducts ---------------------------------------------------------------


def coproduct_set(a: FinSet, b: FinSet) -> FinSet:
    labels = None
    if a.labels is not None and b.labels is not None:
        labels = tuple(f"left.{la}" for la in a.labels) + tuple(
            f"right.{lb}" for lb in b.labels
        )
    return FinSet(a.size + b.size, labels)


def inl(a: FinSet, b: FinSet) -> FnTable:
    return FnTable(a, coproduct_set(a, b), tuple(range(a.size)))


def inr(a: FinSet, b: FinSet) -> FnTable:
    return FnTable(b, coproduct_set(a, b), tuple(a.size + j for j in range(b.size)))


def copair(f: FnTable, g: FnTable) -> FnTable:
    """Case analysis [f, g] out of a coproduct, into their shared codomain."""
    if f.cod.size != g.cod.size:
        raise ShapeMismatch("copairing needs a shared codomain")
    dom = coproduct_set(f.dom, g.dom)
    return FnTable(dom, f.cod, f.table + g.table)


# -- exponentials -------------------------------------------------------------


def exp_set(base: FinSet, dom: FinSet) -> FinSet:
    """The function space base^dom, of |base| ** |dom| elements, guarded by the cap.

    Labelled fn0, fn1, .. in index order when base and dom both are.  The
    empty function is the one element of X^0, and 0^B is empty for
    nonempty B.
    """
    n = base.size**dom.size
    _guard(n, "function space")
    named = base.labels is not None and dom.labels is not None
    return FinSet(n, tuple(f"fn{k}" for k in range(n)) if named else None)


def fn_pair_weights(f_dom: int, f_base: int, g_dom: int, g_base: int) -> tuple[list, list]:
    """Place values of the digits f(0), .. and g(0), .. of an index into
    f_base^f_dom x g_base^g_dom."""
    g_w = [g_base**p for p in range(g_dom - 1, -1, -1)]
    return [g_base**g_dom * f_base**p for p in range(f_dom - 1, -1, -1)], g_w


def fn_pair_digits(indices, f_dom: int, f_base: int, g_dom: int, g_base: int) -> list[list[int]]:
    """Per digit f(0), .., f(f_dom-1), g(0), .., g(g_dom-1) of an index into
    f_base^f_dom x g_base^g_dom, that digit of each of indices."""
    radix = [g_base] * g_dom + [f_base] * f_dom  # the least significant digit first
    cols = [[] for _ in radix]
    for k in indices:
        for r, col in zip(radix, cols):
            col.append(k % r)
            k //= r
    cols.reverse()
    return cols


def fn_pair_join(f_rows, f_base: int, g_rows, g_base: int) -> list[int]:
    """Per pair of digit rows (f(0), ..) and (g(0), ..), the index into
    f_base^|f| x g_base^|g| whose digits fn_pair_digits reads back."""
    out = []
    for fs, gs in zip(f_rows, g_rows):
        k = 0
        for d in fs:
            k = k * f_base + d
        for d in gs:
            k = k * g_base + d
        out.append(k)
    return out


def digit_table(digits) -> tuple[int, ...]:
    """The table of a map sending each digit of a mixed-radix index to fixed output digits.

    digits holds a (values, weight) pair per input digit, most significant
    first: digit value d adds values[d] * weight to the output index.
    values is range(radix) or a fixed table the digit passes through;
    weight sums the place values of the output digits it lands in.  The
    table is the outer sum of these contributions, so no index is decoded.
    No digits give one entry (X^0 has one element); a digit of radix 0
    gives none (0^B is empty for nonempty B).
    """
    table = [0]
    for values, weight in digits:
        steps = [v * weight for v in values]
        table = [t + s for t in table for s in steps]
    return tuple(table)


# -- carrier shapes -------------------------------------------------------------
# A shape is the (positive, negative) pair of carrier sizes of an object.


def tensor_shape(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """Shape of the tensor: (U x V, X^V x Y^U) for a = (U, X), b = (V, Y)."""
    (u, x), (v, y) = a, b
    return u * v, x**v * y**u


def hom_shape(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """Shape of the internal hom: (V^U x X^Y, U x Y) for a = (U, X), b = (V, Y)."""
    (u, x), (v, y) = a, b
    return v**u * x**y, u * y

# -- morphism shapes, the connectives' carriers, and the tensor and hom cells ----
# The ends of a morphism and the factors of a connective are objects or nets:
# anything with a ``lin`` and ``pos`` / ``neg`` carriers.


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


class Violation(NamedTuple):
    """A failure of the morphism condition at the cell (u, y) of relation
    part: None for an object's, "pre" or "post" for a net's.  With u and y
    None it stands for all of part's failing cells over no arc, cells many."""

    part: Optional[str]
    u: Optional[int]
    y: Optional[int]
    source_weight: LinealeValue
    target_weight: LinealeValue
    cells: int = 1


def _carriers(op: str, a, b, what: str = "relation") -> tuple[Lineale, FinSet, FinSet]:
    """The shared lineale of a and b and the carriers of their connective op,
    "with", "oplus", "tensor" or "hom", under the one size rule above; what
    names the result relation when it is refused."""
    lin = _same_lineale(a, b)
    (u, x), (v, y) = shapes = (a.pos.size, a.neg.size), (b.pos.size, b.neg.size)
    if op == "with":  # (U x V, X + Y)
        pos, neg = u * v, x + y
        _guard(pos)
    elif op == "oplus":  # (U + V, X x Y)
        pos, neg = u + v, x * y
        _guard(neg)
    else:
        pos, neg = (tensor_shape if op == "tensor" else hom_shape)(*shapes)
        _guard(max(pos, neg))
    _guard(pos * neg, what, MAX_CELLS, "cells")
    if op == "with":
        return lin, product_set(a.pos, b.pos), coproduct_set(a.neg, b.neg)
    if op == "oplus":
        return lin, coproduct_set(a.pos, b.pos), product_set(a.neg, b.neg)
    if op == "tensor":
        responses = product_set(exp_set(a.neg, b.pos), exp_set(b.neg, a.pos))
        return lin, product_set(a.pos, b.pos), responses
    return lin, product_set(exp_set(b.pos, a.pos), exp_set(a.neg, b.neg)), product_set(a.pos, b.neg)


def _blocks(op: str, a, b, a_cells, b_cells):
    """The listed cells of a op b in row-major order, as lazy iterators of
    their indices and payloads, from a's and b's as (indices, payloads) in
    index order.  oplus: row inl u spreads each a(u, x) over (x, y) for every
    y, row inr v repeats b's row v for every x.  with: row (u, v) is a's row
    u, then b's row v; the rows of one u gather from b's cells and a's row u
    repeated |V| times, at positions that depend only on the row's length."""
    (n_u, n_x), (n_v, n_y) = (a.pos.size, a.neg.size), (b.pos.size, b.neg.size)
    (a_keys, a_pays), (b_keys, b_pays) = a_cells, b_cells
    shape = (n_u * n_v, n_x + n_y) if op == "with" else (n_u + n_v, n_x * n_y)
    if len(a_keys) == n_u * n_x and len(b_keys) == n_v * n_y:  # and so is every cell of a op b
        a_rows, b_rows = _rows(a_pays, n_u, n_x), _rows(b_pays, n_v, n_y)
        if op == "with":
            rows = map(add, chain.from_iterable(map(repeat, a_rows, repeat(n_v))), b_rows * n_u)
        else:
            rows = chain(map(repeat, a_pays, repeat(n_y)), map(mul, b_rows, repeat(n_x)))
        return range(shape[0] * shape[1]), chain.from_iterable(rows)
    (b_cols, b_rows), n = _cut(b_cells, n_v, n_y), shape[1]
    if op == "oplus":
        spans = (range(k * n_y, k * n_y + n_y) for k in a_keys)  # a's cell k fills |Y| cells from k * |Y|
        tiles = ([s + x * n_y + y for x in range(n_x) for y in c] for s, c in zip(count(n_u * n, n), b_cols))
        pays = chain(map(repeat, a_pays, repeat(n_y)), map(mul, b_rows, repeat(n_x)))
        return chain.from_iterable(chain(spans, tiles)), chain.from_iterable(pays)
    (a_cols, a_rows), b_pays = _cut(a_cells, n_u, n_x), [*chain(*b_rows)]
    b_rel, n_b = [v * n + n_x + y for v, c in enumerate(b_cols) for y in c], len(b_pays)
    ends = [*accumulate(map(len, b_cols), initial=0)]
    # a block is, per v, a's row and then b's row v: at(la) says where each of its cells
    # is in b's cells followed by a's row |V| times, and rows_at(la) adds v * n to the latter
    at = cache(lambda la: [*chain(*chain(*zip(
        map(range, count(n_b, la), count(n_b + la, la)), map(range, ends, ends[1:]))))])
    rows_at = cache(lambda la: [s for s in range(0, n_v * n, n) for _ in range(la)])
    keys = (map([*map(f.__add__, b_rel), *map(add, rows_at(len(c)), [f + x for x in c] * n_v)].__getitem__,
                at(len(c))) for f, c in zip(count(0, n_v * n), a_cols))
    pays = (map([*b_pays, *list(row) * n_v].__getitem__, at(len(row))) for row in a_rows)
    return chain.from_iterable(keys), chain.from_iterable(pays)


def _cut(cells, n_rows: int, n_cols: int) -> tuple[list, list]:
    """The (indices, payloads) cells of an n_rows x n_cols relation, in index
    order, cut into rows by bisection: per row, its cells' columns and payloads."""
    keys, pays = cells
    ends = list(map(bisect_left, repeat(keys), map(mul, range(n_rows + 1), repeat(n_cols))))
    cols, cuts = list(map(mod, keys, repeat(n_cols))), list(map(slice, ends, ends[1:]))
    return list(map(cols.__getitem__, cuts)), list(map(pays.__getitem__, cuts))


def _rows(cells, n_rows: int, n_cols: int) -> list:
    """The row-major cells of an n_rows x n_cols relation, cut into its rows."""
    return [cells[r * n_cols : r * n_cols + n_cols] for r in range(n_rows)]


def _op_table(op, a_cells, b_cells, a_shape, b_shape) -> list[list[list]]:
    """table[u][v][x * |Y| + y] = op(a(u, x), b(v, y)), from the cells of
    relations of shapes (|U|, |X|) and (|V|, |Y|): one payload per pair of
    input cells, so cells with equal inputs share one object."""
    (n_u, n_x), (n_v, n_y) = a_shape, b_shape
    b_rows = _rows(b_cells, n_v, n_y)

    def row(au) -> list[list]:  # each a(u, x) |Y| times against b's rows |X| times
        ax = list(itertools.chain.from_iterable(map(itertools.repeat, au, itertools.repeat(n_y))))
        return [list(map(op, ax, bv * n_x)) for bv in b_rows]

    return list(map(row, _rows(a_cells, n_u, n_x)))


def _tensor_cells(lin: Lineale, a_cells, b_cells, a_shape, b_shape):
    """The tensor's op table and its cells, from the row-major cells of
    relations of shapes (|U|, |X|) and (|V|, |Y|).  The cells ((u, v), (f, g))
    come in row-major order, each one the op-table object at (u, v, f(v),
    g(u)); they are computed as they are read."""
    (n_u, n_x), (n_v, n_y) = a_shape, b_shape
    table = _op_table(lin._tensor, a_cells, b_cells, a_shape, b_shape)
    # f_at[v]: f(v) for every table f of X^V in index order, empty when
    # X^V is (X empty, V not); g_at[u] likewise for Y^U
    f_at = list(zip(*itertools.product(range(n_x), repeat=n_v))) or [()] * n_v
    g_at = list(zip(*itertools.product(range(n_y), repeat=n_u))) or [()] * n_u

    def row(u: int, v: int):  # per f, the part of x = f(v) over every g
        parts = [table[u][v][x * n_y : x * n_y + n_y].__getitem__ for x in range(n_x)]
        by_x = [list(map(part, g_at[u])) for part in parts]
        return itertools.chain.from_iterable(map(by_x.__getitem__, f_at[v]))

    pairs = itertools.product(range(n_u), range(n_v))
    return table, itertools.chain.from_iterable(itertools.starmap(row, pairs))


def _hom_cells(lin: Lineale, a_cells, b_cells, a_shape, b_shape):
    """The internal hom's op table and its cells, from the row-major cells of
    relations of shapes (|U|, |X|) and (|V|, |Y|).  The cells ((f, F), (u, y))
    come in row-major order, each one the op-table object at (u, f(u), F(y),
    y); they are computed as they are read."""
    (n_u, n_x), (n_v, n_y) = a_shape, b_shape
    table = _op_table(lin._imp, a_cells, b_cells, a_shape, b_shape)
    n_big_f = n_x**n_y
    # per F, and within it per u, the entries F(y) * |Y| + y of every y
    picks = [[x * n_y + y for y, x in enumerate(big_f)]
             for big_f in itertools.product(range(n_x), repeat=n_y) for _ in range(n_u)]

    def rows(f: tuple[int, ...]):  # the rows (f, F) of one f, for every F
        at_f = [table[u][v].__getitem__ for u, v in enumerate(f)]
        return itertools.chain.from_iterable(map(map, at_f * n_big_f, picks))

    fs = itertools.product(range(n_v), repeat=n_u)
    return table, itertools.chain.from_iterable(map(rows, fs))
