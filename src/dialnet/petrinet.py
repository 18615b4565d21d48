"""Lineale-weighted Petri nets and the category they form.

A net is a pair of weighted relations over one shared carrier pair:
places on the positive side, transitions on the negative side.  The
pre relation records what a transition consumes from each place, the
post relation what it produces.  A net morphism is a DialMorphism: a
single pair (forward place map, backward transition map) that is both a
morphism for the pre relations and for the post relations, as
check_net_morphism checks; over the additive naturals it reads as a
simulation (the target consumes and produces no more than the source),
over the integers as threshold refinement, and so on per lineale.

Nets are sparse, so a net stores its lineale, places and transitions,
one default payload, and two arc maps that hold only the cells whose
payload differs from the default.  The maps are keyed by the row-major
cell index u * |transitions| + x (finset's product convention) and
list their cells in that order.  The default is the modal payload: the
most frequent one across pre then post, ties going to the first one
met (the lineale's unit when there are no cells).  So each net has one
stored form, and two nets are equal exactly when their relations are.
_modal is the one place that picks the default, and _off the one place
that picks a relation's cells off a default.  Two builders work the
stored form out from counts of the distinct payloads: _net_from_cells
from a fill payload, the cells listed off it (the arcs as they are if
in index order and free of the default) and their count by value, which
every caller hands over; _pointwise_net from the op tables and cells of
finset's tensor or hom builder, which dialset's tensor_obj and hom_obj share.

No connective builds a dense result.  with and oplus copy each input
cell into a block of result cells, so they cost time in the arcs (and
in all of b's cells when its default differs from a's).  tensor and hom
count the default over their op tables, one payload per pair of input
cells, and pick the arcs out of a relation's cells in one C pass,
unless nothing in the relation is off the default; when neither input
has an arc, every cell holds one payload and no table is built.
Before it builds anything, each connective refuses a product or
exponential carrier over DEFAULT_CAP elements and a result relation
over MAX_CELLS cells.

Checking a net morphism costs time in the carrier sizes plus the source
arcs and their F-preimages, the distinct target payloads and the
f-preimages of the target arcs that fail, not in the cells: one pass
compares each cell (u, y) over a source arc (u, F(y)); every other cell
holds the source default, so the other pass lists it only under a target
arc not above that default.  When the defaults fail, all cells are compared.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, compress, count, islice, product, repeat
from operator import eq, lt
from typing import Iterable, Mapping, NamedTuple

from .finset import MAX_CELLS, FinSet, FnTable, _guard, _hom_carriers, _hom_cells, _same_lineale
from .finset import _tensor_carriers, _tensor_cells, check_shapes, coproduct_set, product_set
from .lineale import Lineale, LinealeValue
from .record import record

__all__ = [
    "PetriNet",
    "NetViolation",
    "net_from_arcs",
    "check_net_morphism",
    "net_tensor",
    "net_with",
    "net_oplus",
    "net_hom",
]


@record
class PetriNet(NamedTuple):
    """A net in its stored form: the modal default plus the arcs off it.

    pre_arcs and post_arcs map row-major cell indices (finset's product
    convention) to payloads, in index order, and hold exactly the cells
    whose payload is not equal to default.  The two builders keep these
    invariants; the constructor itself does not check them.  Equality
    compares every field; the hash leaves out the arc maps, which are dicts.
    """

    lin: Lineale
    places: FinSet
    transitions: FinSet
    default: object
    pre_arcs: dict[int, object]
    post_arcs: dict[int, object]

    def __hash__(self) -> int:
        return hash(self[:4])


# pos and neg, the carriers check_shapes reads, are the places and the transitions
PetriNet.pos, PetriNet.neg = PetriNet.places, PetriNet.transitions

def _off(keys, payloads, default, objects, fits=eq) -> dict[int, object]:
    """The cells keys[i] -> payloads[i] with not fits(default, payload), in order.
    objects holds every object in payloads: each distinct one is tested once,
    cells are picked by id in C, and payloads is not read if none is off."""
    distinct = dict(zip(map(id, objects), objects))
    off = {i for i, v in distinct.items() if not fits(default, v)}
    if not off:
        return {}
    if len(off) == len(distinct):
        return dict(zip(keys, payloads))
    payloads = list(payloads)
    return dict(compress(zip(keys, payloads), map(off.__contains__, map(id, payloads))))


def _rebased(arcs: dict[int, object], n: int, held: object, default: object) -> dict[int, object]:
    """The cells off default, in index order, of a relation of n cells that
    holds held except at the cells listed in arcs."""
    payloads = map(arcs.get, range(n), repeat(held))
    return _off(range(n), payloads, default, [held, *arcs.values()])


def _modal(counts: Mapping[object, int], cells: Iterable[object]) -> object:
    """The most frequent payload by counts (payload -> number of cells); a
    tie goes to the tied payload met first in cells, the payloads of the
    cells pre then post in index order, which are read only on a tie."""
    top = max(counts.values())
    tied = {v for v, c in counts.items() if c == top}
    if len(tied) == 1:
        return tied.pop()
    return next(filter(tied.__contains__, cells))


def _net_from_cells(
    lin: Lineale,
    places: FinSet,
    transitions: FinSet,
    fill: object,
    pre: dict[int, object],
    post: dict[int, object],
    listed: Mapping[object, int],
) -> PetriNet:
    """The net whose relations hold fill except at the cells listed in pre
    and post (index -> payload maps in any order; a listed cell may equal
    fill), which listed counts by payload value.  A map that lists its
    cells in index order, none equal to the default, becomes the
    relation's arcs as it is, so the caller hands it over."""
    n = places.size * transitions.size
    default = lin.unit_payload
    if n:
        counts = Counter({fill: 2 * n - len(pre) - len(post)})
        counts.update(listed)  # an equal listed payload adds to fill's count

        def in_order():  # read only on a tie, which needs n <= len(pre) + len(post)
            for cells in (pre, post):
                yield from map(cells.get, range(n), repeat(fill))

        default = _modal(counts, in_order())
    if fill != default:  # every unlisted cell holds fill and is off the default
        arcs = (_rebased(cells, n, fill, default) for cells in (pre, post))
        return PetriNet(lin, places, transitions, default, *arcs)

    def arcs(cells: dict[int, object]) -> dict[int, object]:
        if not all(map(lt, cells, islice(cells, 1, None))):
            keys = sorted(cells)  # the keys alone: sorting the items makes a tuple per cell
            cells = dict(zip(keys, map(cells.__getitem__, keys)))
        if default in listed:
            cells = _off(cells, cells.values(), default, cells.values())
        return cells

    return PetriNet(lin, places, transitions, default, arcs(pre), arcs(post))


def net_from_arcs(
    lin: Lineale,
    place_labels: tuple[str, ...],
    transition_labels: tuple[str, ...],
    default: LinealeValue,
    pre_arcs: Mapping[tuple[str, str], LinealeValue],
    post_arcs: Mapping[tuple[str, str], LinealeValue],
) -> PetriNet:
    """Assemble a net from sparse arc maps; unmentioned arcs get the default."""
    places = FinSet(len(place_labels), place_labels)
    transitions = FinSet(len(transition_labels), transition_labels)
    fill = lin.unwrap(default)
    n_t = transitions.size

    def cells(arcs: Mapping[tuple[str, str], LinealeValue]) -> dict[int, object]:
        return {
            places.index_of(p) * n_t + transitions.index_of(t): lin.unwrap(v)
            for (p, t), v in arcs.items()
        }

    pre, post = cells(pre_arcs), cells(post_arcs)
    listed = Counter(chain(pre.values(), post.values()))
    return _net_from_cells(lin, places, transitions, fill, pre, post, listed)


class NetViolation(NamedTuple):
    """A morphism-condition failure, tagged with the relation it violates."""

    part: str  # "pre" or "post"
    u: int
    y: int
    source_weight: LinealeValue
    target_weight: LinealeValue


def _preimages(table: tuple[int, ...], size: int) -> list[list[int]]:
    inv: list[list[int]] = [[] for _ in range(size)]
    for i, j in enumerate(table):
        inv[j].append(i)
    return inv


def check_net_morphism(
    source: PetriNet, target: PetriNet, fwd: FnTable, bwd: FnTable
) -> list[NetViolation]:
    """All points where (fwd, bwd) fails for the pre or the post relation,
    pre before post, then by u, then by y.  Two passes over the arcs find
    them (see the module docstring); only the points found are sorted."""
    check_shapes(source, target, fwd, bwd)
    leq, ds, dt = source.lin._leq, source.default, target.default
    f, F = fwd.table, bwd.table
    n_x, n_y = source.transitions.size, target.transitions.size
    f_inv, F_inv = _preimages(f, target.places.size), _preimages(F, n_x)
    tag = source.lin.tag

    def every_cell(s_arcs, t_arcs):  # the defaults fail, so every cell is compared
        for u, y in product(range(source.places.size), range(n_y)):
            a = s_arcs.get(u * n_x + F[y], ds)
            b = t_arcs.get(f[u] * n_y + y, dt)
            if not leq(a, b):
                yield u, y, a, b

    out = []
    for part, s_arcs, t_arcs in (
        ("pre", source.pre_arcs, target.pre_arcs),
        ("post", source.post_arcs, target.post_arcs),
    ):
        if not leq(ds, dt):
            found = every_cell(s_arcs, t_arcs)
        else:  # (u, y, a, b) per failing cell; pass one: the cells over a source arc (u, F(y))
            found = []
            for (u, x), a in zip(map(divmod, s_arcs, repeat(n_x)), s_arcs.values()):
                for y in F_inv[x]:
                    b = t_arcs.get(f[u] * n_y + y, dt)
                    if not leq(a, b):
                        found.append((u, y, a, b))
            # pass two: the other cells hold ds, so fail only at target arcs not above it
            failing = _off(t_arcs, t_arcs.values(), ds, t_arcs.values(), leq)
            for (v, y), b in zip(map(divmod, failing, repeat(n_y)), failing.values()):
                for u in f_inv[v]:
                    if u * n_x + F[y] not in s_arcs:
                        found.append((u, y, ds, b))
            found.sort()  # the cells (u, y) are distinct, so no weights are compared
        for u, y, a, b in found:
            out.append(NetViolation(part, u, y, LinealeValue(tag, a), LinealeValue(tag, b)))
    return out


def _pointwise_net(a: PetriNet, b: PetriNet, carriers, build) -> PetriNet:
    """The stored form of a tensor or hom from the connective's finset
    carriers and cell builder, run on the dense row-major cells of the pre
    and of the post relations.  Every op-table entry fills equally many
    cells, so the entries count the payloads for _modal.
    """
    _same_lineale(a, b)
    places, transitions = carriers(a, b)
    _guard(places.size * transitions.size, "net relation", MAX_CELLS, "cells")
    arc_free = not (a.pre_arcs or a.post_arcs or b.pre_arcs or b.post_arcs)
    if arc_free and places.size * transitions.size:
        # every cell holds op(a.default, b.default): the op table of one-cell inputs
        table, _ = build(a.lin, [a.default], [b.default], (1, 1), (1, 1))
        return PetriNet(a.lin, places, transitions, table[0][0][0], {}, {})

    def dense(net: PetriNet, arcs: dict[int, object]) -> list[object]:
        return list(map(arcs.get, range(net.pos.size * net.neg.size), repeat(net.default)))

    shapes = (a.pos.size, a.neg.size), (b.pos.size, b.neg.size)
    tables, cells = map(list, zip(*[
        build(a.lin, dense(a, a_arcs), dense(b, b_arcs), *shapes)
        for a_arcs, b_arcs in ((a.pre_arcs, b.pre_arcs), (a.post_arcs, b.post_arcs))
    ]))

    def entries(table):
        return chain.from_iterable(chain.from_iterable(table))

    def in_order():  # read only on a tie; the cells it reads are kept for the arcs
        cells[:] = [list(c) for c in cells]
        yield from chain(*cells)

    counts = Counter(chain(*map(entries, tables)))
    # with no entries, which is exactly when there are no cells, it is the unit
    default = _modal(counts, in_order()) if counts else a.lin.unit_payload

    arcs = (_off(count(), c, default, [*entries(t)]) for t, c in zip(tables, cells))
    return PetriNet(a.lin, places, transitions, default, *arcs)


def net_tensor(a: PetriNet, b: PetriNet) -> PetriNet:
    """The monoidal product: places U x V, transitions the pairs (f, g) of
    response tables in X^V x Y^U; ((u, v), (f, g)) holds a(u, f(v)) tensor
    b(v, g(u))."""
    return _pointwise_net(a, b, _tensor_carriers, _tensor_cells)


def _block_net(
    a: PetriNet, b: PetriNet, places: FinSet, transitions: FinSet, a_at, b_at
) -> PetriNet:
    """The net each of whose cells copies one cell of a or of b.  a_at and
    b_at are (first, step, copies): input cell (r, c) goes to the result
    cells first(r, c) + i * step for i < copies."""
    n_b = b.places.size * b.transitions.size
    listed: dict[object, int] = {}  # the result's listed cells by payload value

    def cells(a_arcs: dict[int, object], b_arcs: dict[int, object]) -> dict[int, object]:
        if b.default != a.default:
            # b's unlisted cells do not hold a's default, so list b's cells off it
            b_arcs = _rebased(b_arcs, n_b, b.default, a.default)
        out: dict[int, object] = {}
        for net, arcs, (first, step, copies) in ((a, a_arcs, a_at), (b, b_arcs, b_at)):
            for k, w in arcs.items():
                start = first(*divmod(k, net.transitions.size))
                out.update(zip(range(start, start + step * copies, step), repeat(w)))
                listed[w] = listed.get(w, 0) + copies
        return out

    pre, post = cells(a.pre_arcs, b.pre_arcs), cells(a.post_arcs, b.post_arcs)
    return _net_from_cells(a.lin, places, transitions, a.default, pre, post, listed)


def net_with(a: PetriNet, b: PetriNet) -> PetriNet:
    """The cartesian product: ((u, v), inl x) holds a(u, x) and ((u, v),
    inr y) holds b(v, y), so a's arcs are copied |V| times, b's |U| times."""
    _same_lineale(a, b)
    n_u, n_v = a.places.size, b.places.size
    n_x, n_t = a.transitions.size, a.transitions.size + b.transitions.size
    _guard(n_u * n_v)
    _guard(n_u * n_v * n_t, "net relation", MAX_CELLS, "cells")
    places = product_set(a.places, b.places)
    transitions = coproduct_set(a.transitions, b.transitions)
    a_at = (lambda u, x: u * n_v * n_t + x, n_t, n_v)
    b_at = (lambda v, y: v * n_t + n_x + y, n_v * n_t, n_u)
    return _block_net(a, b, places, transitions, a_at, b_at)


def net_oplus(a: PetriNet, b: PetriNet) -> PetriNet:
    """The coproduct: (inl u, (x, y)) holds a(u, x) and (inr v, (x, y))
    holds b(v, y), so a's arcs are copied |Y| times, b's |X| times."""
    _same_lineale(a, b)
    n_u, n_x, n_y = a.places.size, a.transitions.size, b.transitions.size
    n_t = n_x * n_y
    _guard(n_t)
    _guard((n_u + b.places.size) * n_t, "net relation", MAX_CELLS, "cells")
    places = coproduct_set(a.places, b.places)
    transitions = product_set(a.transitions, b.transitions)
    a_at = (lambda u, x: u * n_t + x * n_y, 1, n_y)
    b_at = (lambda v, y: (n_u + v) * n_t + y, n_y, n_x)
    return _block_net(a, b, places, transitions, a_at, b_at)


def net_hom(a: PetriNet, b: PetriNet) -> PetriNet:
    """The internal hom: places the pairs (f, F) in V^U x X^Y, transitions
    U x Y; ((f, F), (u, y)) holds a(u, F(y)) implies b(f(u), y)."""
    return _pointwise_net(a, b, _hom_carriers, _hom_cells)
