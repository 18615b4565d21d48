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
from a fill payload, the cells listed off it in index order (the arcs
as they are if free of the default) and their count by value, which
every caller hands over; _pointwise_net from the op tables and cells of
finset's tensor or hom builder, which dialset's tensor_obj and hom_obj share.

No connective builds a dense result.  with and oplus take each
relation's cells in row-major order from finset._blocks into one map, so
no sort runs and they cost time in the arcs (and in all of b's cells
when its default differs from a's).
tensor and hom merge their op tables (one payload per pair of input
cells) to one object per value and count the default over them, so a
cell equals the default exactly when it is that object: _off picks the
arcs in one C pass of is_not, and never reads a relation's cells if none
is off the default.  When neither input has an arc, every cell holds one
payload and no table is built.  Each connective takes its carriers from
finset._carriers, the one size rule for objects and nets.

Checking a net morphism costs time in the carrier sizes plus the source
arcs and their F-preimages, the distinct target payloads and the
f-preimages of the target arcs that fail, not in the cells: one pass
compares each cell (u, y) over a source arc (u, F(y)); every other cell
holds the source default, so the other pass lists it only under a target
arc not above that default.  When the defaults fail, every cell over no
arc fails too, and one record per part counts them from the arcs' preimages.
Its records are finset's Violation (alias NetViolation), part "pre" or "post".
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, compress, count, repeat, tee
from operator import eq, is_not
from typing import Iterable, Mapping, NamedTuple

from .finset import FinSet, FnTable, Violation, _blocks, _carriers, _hom_cells, _tensor_cells, check_shapes
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
    objects holds every object in payloads, each distinct one tested once.  If
    none is off, payloads is not read; if all are, a map keys (whose values are
    payloads) is returned as it is.  Else a C pass picks the cells by id, or
    as not being the one object that fits."""
    distinct = dict(zip(map(id, objects), objects))
    off = {i for i, v in distinct.items() if not fits(default, v)}
    if not off:
        return {}
    if len(off) == len(distinct):
        return keys if type(keys) is dict else dict(zip(keys, payloads))
    payloads, picked = tee(payloads)
    if len(off) + 1 == len(distinct):
        [fit] = (v for i, v in distinct.items() if i not in off)
        return dict(compress(zip(keys, payloads), map(is_not, picked, repeat(fit))))
    return dict(compress(zip(keys, payloads), map(off.__contains__, map(id, picked))))


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
    and post (index -> payload maps in index order; a listed cell may equal
    fill), which listed counts by payload value.  A map none of whose cells
    equals the default becomes the relation's arcs as it is, so the caller
    hands it over."""
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
        # in index order: the keys are distinct, so no two payloads are compared
        return dict(sorted(
            (places.index_of(p) * n_t + transitions.index_of(t), lin.unwrap(v))
            for (p, t), v in arcs.items()
        ))

    pre, post = cells(pre_arcs), cells(post_arcs)
    listed = Counter(chain(pre.values(), post.values()))
    return _net_from_cells(lin, places, transitions, fill, pre, post, listed)


NetViolation = Violation  # the name the net layer's callers first had for it


def _preimages(table: tuple[int, ...], size: int) -> list[list[int]]:
    inv: list[list[int]] = [[] for _ in range(size)]
    for i, j in enumerate(table):
        inv[j].append(i)
    return inv


def check_net_morphism(
    source: PetriNet, target: PetriNet, fwd: FnTable, bwd: FnTable
) -> list[Violation]:
    """All points where (fwd, bwd) fails for the pre or the post relation,
    pre before post, then by u, then by y, and per part one last record for
    the failing cells over no arc.  Two passes over the arcs find the points."""
    check_shapes(source, target, fwd, bwd)
    leq, ds, dt = source.lin._leq, source.default, target.default
    f, F = fwd.table, bwd.table
    n_u, n_x, n_y = source.places.size, source.transitions.size, target.transitions.size
    f_inv, F_inv = _preimages(f, target.places.size), _preimages(F, n_x)
    tag = source.lin.tag

    out = []
    for part, s_arcs, t_arcs in (
        ("pre", source.pre_arcs, target.pre_arcs),
        ("post", source.post_arcs, target.post_arcs),
    ):
        found = []  # (u, y, a, b) per failing cell; pass one: the cells over a source arc (u, F(y))
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
            out.append(Violation(part, u, y, LinealeValue(tag, a), LinealeValue(tag, b)))
        if not leq(ds, dt):  # every cell over no arc holds (ds, dt) and fails
            cells = n_u * n_y - sum(len(f_inv[v]) for v, _ in map(divmod, t_arcs, repeat(n_y)))
            targets = (f[u] * n_y + y for u, x in map(divmod, s_arcs, repeat(n_x)) for y in F_inv[x])
            cells -= sum(1 for k in targets if k not in t_arcs)  # over a source arc only
            if cells:
                weights = LinealeValue(tag, ds), LinealeValue(tag, dt)
                out.append(Violation(part, None, None, *weights, cells))
    return out


def _pointwise_net(a: PetriNet, b: PetriNet, op: str, build) -> PetriNet:
    """The stored form of the tensor or hom op from finset's carriers and the
    connective's cell builder, run on the dense row-major cells of the pre
    and of the post relations.  Every op-table entry fills equally many
    cells, so the entries count the payloads for _modal.
    """
    _, places, transitions = _carriers(op, a, b, "net relation")
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

    one: dict[object, object] = {}  # each payload value's one object, which the cells then are
    for part in chain.from_iterable(chain.from_iterable(tables)):
        part[:] = map(one.setdefault, part, part)
    counts = Counter(chain(*map(entries, tables)))
    # with no entries, which is exactly when there are no cells, it is the unit
    default = _modal(counts, in_order()) if counts else a.lin.unit_payload

    arcs = (_off(count(), c, default, [*entries(t)]) for t, c in zip(tables, cells))
    return PetriNet(a.lin, places, transitions, default, *arcs)


def net_tensor(a: PetriNet, b: PetriNet) -> PetriNet:
    """The monoidal product: places U x V, transitions the pairs (f, g) of
    response tables in X^V x Y^U; ((u, v), (f, g)) holds a(u, f(v)) tensor
    b(v, g(u))."""
    return _pointwise_net(a, b, "tensor", _tensor_cells)


def _block_net(a: PetriNet, b: PetriNet, op: str) -> PetriNet:
    """The with or oplus op of a and b, each of whose cells copies the cell
    of a or of b that finset._blocks places there."""
    _, places, transitions = _carriers(op, a, b, "net relation")
    listed: dict[object, int] = {}  # the result's listed cells by payload value
    (n_u, n_x), (n_v, n_y) = (a.pos.size, a.neg.size), (b.pos.size, b.neg.size)
    copies = (n_v, n_u) if op == "with" else (n_y, n_x)  # of each cell of a, of b

    def cells(a_arcs: dict[int, object], b_arcs: dict[int, object]) -> dict[int, object]:
        if b.default != a.default:
            # b's unlisted cells do not hold a's default, so list b's cells off it
            b_arcs = _rebased(b_arcs, n_v * n_y, b.default, a.default)
        for arcs, k in zip((a_arcs, b_arcs), copies):
            for w in arcs.values():
                listed[w] = listed.get(w, 0) + k
        a_cells, b_cells = ((list(arcs), list(arcs.values())) for arcs in (a_arcs, b_arcs))
        return dict(zip(*_blocks(op, a, b, a_cells, b_cells)))  # in index order

    pre, post = cells(a.pre_arcs, b.pre_arcs), cells(a.post_arcs, b.post_arcs)
    return _net_from_cells(a.lin, places, transitions, a.default, pre, post, listed)


def net_with(a: PetriNet, b: PetriNet) -> PetriNet:
    """The cartesian product: ((u, v), inl x) holds a(u, x) and ((u, v),
    inr y) holds b(v, y), so a's arcs are copied |V| times, b's |U| times."""
    return _block_net(a, b, "with")


def net_oplus(a: PetriNet, b: PetriNet) -> PetriNet:
    """The coproduct: (inl u, (x, y)) holds a(u, x) and (inr v, (x, y))
    holds b(v, y), so a's arcs are copied |Y| times, b's |X| times."""
    return _block_net(a, b, "oplus")


def net_hom(a: PetriNet, b: PetriNet) -> PetriNet:
    """The internal hom: places the pairs (f, F) in V^U x X^Y, transitions
    U x Y; ((f, F), (u, y)) holds a(u, F(y)) implies b(f(u), y)."""
    return _pointwise_net(a, b, "hom", _hom_cells)
