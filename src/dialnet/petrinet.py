"""Lineale-weighted Petri nets and the category they form.

A net is a pair of weighted relations over one shared carrier pair:
places on the positive side, transitions on the negative side.  The
pre relation records what a transition consumes from each place, the
post relation what it produces.  A net morphism is a single pair
(forward place map, backward transition map) that is simultaneously a
morphism for the pre relations and for the post relations; over the
additive naturals it reads as a simulation (the target consumes and
produces no more than the source), over the integers as threshold
refinement, and so on per lineale.

Nets are sparse, so a net stores its lineale, places and transitions,
one default payload, and two arc maps that hold only the cells whose
payload differs from the default.  The maps are keyed by the row-major
cell index u * |transitions| + x (finset's pair_index convention) and
list their cells in that order.  The default is the modal payload: the
most frequent one across pre then post, ties going to the first one
met (the lineale's unit when there are no cells).  So each net has one
stored form, and two nets are equal exactly when their relations are.
net_from_arcs and net_from_relations build that form: from arcs, the
cost is in the arcs; from dense relations, the comparisons with the
default run once per distinct payload object, not once per cell (the
cells that are one common object are set aside by an identity test in
C, the others are looked up by object id).

The dense relations net.pre and net.post are built on each access.
Only the connectives need them: they act componentwise on (pre, post),
and net_from_relations turns the dense results back into a net.

Checking a net morphism costs time in the carrier sizes plus the arcs
and their preimages, not in the cells: check_net_morphism compares one
by one only the cells (u, y) with a source arc at (u, F(y)) or a target
arc at (f(u), y), and compares the two defaults once for every other
cell.  When that comparison fails, every other cell fails too, and the
dense check_morphism lists them all.

The module also builds the worked example nets: water (stoichiometry
over the naturals), circadian (three-valued presence/absence with two
hypothesized arcs at weight 0), sir (probabilities), inhibitor
(integer thresholds), catalysis (rate/role pairs).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, count, repeat
from operator import eq, is_not, itemgetter
from typing import Iterable, Mapping, NamedTuple

from .dialset import (
    DialObject,
    check_morphism,
    check_shapes,
    hom_obj,
    oplus,
    tensor_obj,
    with_product,
)
from .errors import InvalidMorphism, ShapeMismatch, TagMismatch
from .finset import DEFAULT_CAP, FinSet, FnTable
from .finset import compose as table_compose
from .finset import identity as table_identity
from .lineale import INT, KLEENE3, NAT, PROB, Lineale, LinealeValue, product_lineale

__all__ = [
    "PetriNet",
    "NetMorphism",
    "NetViolation",
    "net_from_arcs",
    "net_from_relations",
    "check_net_morphism",
    "net_morphism",
    "net_identity",
    "net_compose",
    "net_tensor",
    "net_with",
    "net_oplus",
    "net_hom",
    "build_example",
    "EXAMPLE_NAMES",
]


@dataclass(frozen=True, slots=True)
class PetriNet:
    """A net in its stored form: the modal default plus the arcs off it.

    pre_arcs and post_arcs map row-major cell indices to payloads, in
    index order, and hold exactly the cells whose payload is not equal
    to default.  net_from_arcs and net_from_relations keep these
    invariants; the constructor itself does not check them.
    """

    lin: Lineale
    places: FinSet
    transitions: FinSet
    default: object
    pre_arcs: dict[int, object]
    post_arcs: dict[int, object]

    def __hash__(self) -> int:
        # the arc maps are dicts; equal nets still agree on these fields
        sizes = (self.places.size, self.transitions.size)
        arcs = (len(self.pre_arcs), len(self.post_arcs))
        return hash((self.lin, sizes, self.default, arcs))

    @property
    def pos(self) -> FinSet:
        """The places: the positive carrier of both relations."""
        return self.places

    @property
    def neg(self) -> FinSet:
        """The transitions: the negative carrier of both relations."""
        return self.transitions

    @property
    def pre(self) -> DialObject:
        """The dense pre relation, built on each access."""
        return self._relation(self.pre_arcs)

    @property
    def post(self) -> DialObject:
        """The dense post relation, built on each access."""
        return self._relation(self.post_arcs)

    def _relation(self, arcs: dict[int, object]) -> DialObject:
        n_t = self.transitions.size
        cells = [self.default] * (self.places.size * n_t)
        for k, v in arcs.items():
            cells[k] = v
        rows = tuple(
            tuple(cells[u * n_t : (u + 1) * n_t]) for u in range(self.places.size)
        )
        return DialObject(self.lin, self.places, self.transitions, rows)


def _most_frequent(counted: Iterable[tuple[object, int]]) -> object:
    """The payload with the largest count, from (payload, count) pairs given
    in order of first appearance; equal payloads are merged by value."""
    by_value: dict[object, int] = {}
    for v, c in counted:
        by_value[v] = by_value.get(v, 0) + c
    # max is stable, so ties go to the first payload met
    return max(by_value, key=by_value.__getitem__)


def _off_default(
    keys: Iterable[int], payloads: list[object], default: object
) -> dict[int, object]:
    """The cells whose payload is not equal to default, as key -> payload;
    keys run in step with payloads.

    The comparison runs once per distinct payload object; the selection
    of cells by object id runs in C.
    """
    objects = dict(zip(map(id, payloads), payloads))
    off = {i for i, v in objects.items() if v != default}
    return dict(compress(zip(keys, payloads), map(off.__contains__, map(id, payloads))))


def _net_from_cells(
    lin: Lineale,
    places: FinSet,
    transitions: FinSet,
    fill: object,
    pre: dict[int, object],
    post: dict[int, object],
) -> PetriNet:
    """The net whose relations hold fill except at the cells listed in pre
    and post (index -> payload maps; a listed cell may equal fill)."""
    n = places.size * transitions.size
    pre_cells, post_cells = sorted(pre.items()), sorted(post.items())
    listed = [*pre_cells, *((n + k, v) for k, v in post_cells)]
    default = lin.unit_payload if n == 0 else _modal_of_cells(fill, listed, n)

    def arcs(cells: list[tuple[int, object]]) -> dict[int, object]:
        if fill != default:
            # every unlisted cell holds fill and is off the default
            held = dict(cells)
            payloads = list(map(held.get, range(n), repeat(fill)))
            return _off_default(range(n), payloads, default)
        payloads = list(map(itemgetter(1), cells))
        return _off_default(map(itemgetter(0), cells), payloads, default)

    return PetriNet(
        lin, places, transitions, default, arcs(pre_cells), arcs(post_cells)
    )


def _modal_of_cells(fill: object, listed: list[tuple[int, object]], n: int) -> object:
    """The modal payload of relations of n cells each that hold fill except
    at the listed (position, payload) cells, positions ascending and post's
    shifted by n; ties go to the payload whose first cell comes first."""
    ids = list(map(id, map(itemgetter(1), listed)))
    counts = Counter(ids)
    # id -> (position, payload) of the object's first cell
    first = dict(zip(reversed(ids), reversed(listed)))
    uncovered = 2 * n - len(listed)
    if uncovered:
        gap = next((i for i, (pos, _) in enumerate(listed) if pos != i), len(listed))
        pos, _ = first.get(id(fill), (gap, fill))
        first[id(fill)] = (min(pos, gap), fill)
        counts[id(fill)] += uncovered
    order = sorted(first.items(), key=lambda item: item[1][0])
    return _most_frequent((v, counts[i]) for i, (_, v) in order)


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

    return _net_from_cells(
        lin, places, transitions, fill, cells(pre_arcs), cells(post_arcs)
    )


def _modal_of_relations(pre: DialObject, post: DialObject) -> object:
    """The modal payload of two dense relations, with the tie rule above.

    The cells that are the first cell's object are counted by an identity
    test, the others by object id; the per-object counts are then merged
    by value in order of first appearance.
    """
    rows = (*pre.weight, *post.weight)
    first = next(chain.from_iterable(rows), None)
    if first is None:
        return pre.lin.unit_payload
    cells = chain.from_iterable(rows)
    rest = list(compress(cells, map(is_not, chain.from_iterable(rows), repeat(first))))
    objects = dict(zip(map(id, rest), rest))
    counts = Counter(map(id, rest))
    total = sum(map(len, rows))
    counted = ((v, counts[i]) for i, v in objects.items())
    return _most_frequent(chain([(first, total - len(rest))], counted))


def _relation_arcs(obj: DialObject, default: object) -> dict[int, object]:
    """The cells of a dense relation off the default payload.

    The cells that are the first object equal to the default are set
    aside by an identity test; every other cell goes to _off_default.
    """

    def cells():
        return chain.from_iterable(obj.weight)

    skip = next(compress(cells(), map(eq, cells(), repeat(default))), None)
    rest = list(compress(cells(), map(is_not, cells(), repeat(skip))))
    positions = compress(count(), map(is_not, cells(), repeat(skip)))
    return _off_default(positions, rest, default)


def net_from_relations(pre: DialObject, post: DialObject) -> PetriNet:
    """The net with these dense pre and post relations, in its stored form."""
    if post.lin.tag != pre.lin.tag:
        raise TagMismatch("pre and post relations are over different lineales")
    if post.pos != pre.pos or post.neg != pre.neg:
        raise ShapeMismatch("post relation carriers differ from pre's")
    default = _modal_of_relations(pre, post)
    return PetriNet(
        pre.lin,
        pre.pos,
        pre.neg,
        default,
        _relation_arcs(pre, default),
        _relation_arcs(post, default),
    )


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
    """All points where (fwd, bwd) fails for the pre or the post relation:
    pre before post, then by u, then by y (see the module docstring for
    which cells are compared one by one)."""
    check_shapes(source, target, fwd, bwd)
    leq, ds, dt = source.lin._leq, source.default, target.default
    if not leq(ds, dt):
        return [
            NetViolation(part, *v)
            for part, s_obj, t_obj in (
                ("pre", source.pre, target.pre),
                ("post", source.post, target.post),
            )
            for v in check_morphism(s_obj, t_obj, fwd, bwd)
        ]
    f, F = fwd.table, bwd.table
    n_x, n_y = source.transitions.size, target.transitions.size
    f_inv, F_inv = _preimages(f, target.places.size), _preimages(F, n_x)
    tag = source.lin.tag
    out = []
    for part, s_arcs, t_arcs in (
        ("pre", source.pre_arcs, target.pre_arcs),
        ("post", source.post_arcs, target.post_arcs),
    ):
        touched: set[int] = set()
        for k in s_arcs:
            u, x = divmod(k, n_x)
            touched.update([u * n_y + y for y in F_inv[x]])
        for k in t_arcs:
            v, y = divmod(k, n_y)
            touched.update([u * n_y + y for u in f_inv[v]])
        for c in sorted(touched):
            u, y = divmod(c, n_y)
            a = s_arcs.get(u * n_x + F[y], ds)
            b = t_arcs.get(f[u] * n_y + y, dt)
            if not leq(a, b):
                out.append(
                    NetViolation(part, u, y, LinealeValue(tag, a), LinealeValue(tag, b))
                )
    return out


@dataclass(frozen=True, slots=True)
class NetMorphism:
    """A forward place map and a backward transition map between nets.

    The backward table runs from the TARGET's transitions to the
    SOURCE's, mirroring the contravariant component of the underlying
    relation morphisms.
    """

    source: PetriNet
    target: PetriNet
    fwd: FnTable
    bwd: FnTable

    def __post_init__(self):
        check_shapes(self.source, self.target, self.fwd, self.bwd)


def net_morphism(
    source: PetriNet, target: PetriNet, fwd: FnTable, bwd: FnTable
) -> NetMorphism:
    """Certify (fwd, bwd) against both relations, or raise with all violations."""
    violations = check_net_morphism(source, target, fwd, bwd)
    if violations:
        raise InvalidMorphism(violations)
    return NetMorphism(source, target, fwd, bwd)


def net_identity(net: PetriNet) -> NetMorphism:
    return NetMorphism(
        net, net, table_identity(net.places), table_identity(net.transitions)
    )


def net_compose(m2: NetMorphism, m1: NetMorphism) -> NetMorphism:
    if m1.target != m2.source:
        raise ShapeMismatch("cannot compose: middle nets differ")
    return NetMorphism(
        m1.source,
        m2.target,
        table_compose(m2.fwd, m1.fwd),
        table_compose(m1.bwd, m2.bwd),
    )


def _combine(a: PetriNet, b: PetriNet, op, cap: int) -> PetriNet:
    return net_from_relations(op(a.pre, b.pre, cap), op(a.post, b.post, cap))


def net_tensor(a: PetriNet, b: PetriNet, cap: int = DEFAULT_CAP) -> PetriNet:
    return _combine(a, b, tensor_obj, cap)


def net_with(a: PetriNet, b: PetriNet, cap: int = DEFAULT_CAP) -> PetriNet:
    return _combine(a, b, with_product, cap)


def net_oplus(a: PetriNet, b: PetriNet, cap: int = DEFAULT_CAP) -> PetriNet:
    return _combine(a, b, oplus, cap)


def net_hom(a: PetriNet, b: PetriNet, cap: int = DEFAULT_CAP) -> PetriNet:
    return _combine(a, b, hom_obj, cap)


# -- worked examples ----------------------------------------------------------

EXAMPLE_NAMES = ("water", "sir", "circadian", "inhibitor", "catalysis")


def _water() -> PetriNet:
    n = NAT.value
    return net_from_arcs(
        NAT,
        ("H2", "O2", "H2O"),
        ("t",),
        n(0),
        pre_arcs={("H2", "t"): n(2), ("O2", "t"): n(1)},
        post_arcs={("H2O", "t"): n(2)},
    )


def _sir(
    p_contact: Fraction = Fraction(1, 2),
    p_infect: Fraction = Fraction(1, 2),
    p_recover: Fraction = Fraction(1, 2),
) -> PetriNet:
    v = PROB.value
    return net_from_arcs(
        PROB,
        ("S", "I", "R"),
        ("c", "r", "i"),
        v(0),
        pre_arcs={
            ("S", "c"): v(p_contact),
            ("I", "c"): v(1),
            ("I", "r"): v(p_recover),
            ("I", "i"): v(1 - p_recover),
        },
        post_arcs={
            ("I", "c"): v(p_infect),
            ("S", "c"): v(1 - p_infect),
            ("R", "r"): v(1),
            ("I", "i"): v(1),
        },
    )


def _circadian() -> PetriNet:
    # Some species (P, KaiA, KaiB) occur at several distinct nodes of
    # the net; numeric suffixes keep the labels unique.  Weight 1 =
    # present, -1 = absent, 0 = hypothesized but unconfirmed.
    k = KLEENE3.value
    places = (
        "P1",
        "KaiA1",
        "KaiA2",
        "KaiBC+P",
        "KaiABC+P",
        "KaiB1",
        "P2",
        "KaiAC",
        "KaiAC+P",
        "KaiB2",
        "P4",
        "P3",
    )
    transitions = ("dephos1", "dephos2", "phos1", "phos2")
    pre = {
        ("KaiABC+P", "dephos1"): k(1),
        ("KaiAC", "dephos1"): k(0),
        ("KaiBC+P", "dephos2"): k(1),
        ("KaiA2", "dephos2"): k(1),
        ("P3", "phos1"): k(1),
        ("KaiAC", "phos1"): k(1),
        ("KaiAC+P", "phos2"): k(1),
        ("KaiB2", "phos2"): k(1),
        ("P4", "phos2"): k(1),
        ("KaiBC+P", "phos2"): k(0),
    }
    post = {
        ("P1", "dephos1"): k(1),
        ("KaiBC+P", "dephos1"): k(1),
        ("KaiA1", "dephos1"): k(1),
        ("KaiB1", "dephos2"): k(1),
        ("P2", "dephos2"): k(1),
        ("KaiAC", "dephos2"): k(1),
        ("KaiAC+P", "phos1"): k(1),
        ("KaiABC+P", "phos2"): k(1),
    }
    return net_from_arcs(KLEENE3, places, transitions, k(-1), pre, post)


def _inhibitor() -> PetriNet:
    z = INT.value
    return net_from_arcs(
        INT,
        ("S1", "S2", "S3", "I"),
        ("r",),
        z(0),
        pre_arcs={("S1", "r"): z(2), ("S2", "r"): z(2), ("I", "r"): z(-3)},
        post_arcs={("S3", "r"): z(1)},
    )


def _catalysis(
    r1: Fraction = Fraction(1, 10),
    r2: Fraction = Fraction(2, 10),
    r3: Fraction = Fraction(3, 10),
    r4: Fraction = Fraction(4, 10),
    r5: Fraction = Fraction(5, 10),
) -> PetriNet:
    # Pair weights (rate, role): role 0 = reactant/product, negative =
    # inhibitor threshold, positive = catalyst threshold.  The rate
    # component is a stand-in on the rational unit interval; the role
    # component is an integer.  Rates default to placeholders.
    lin = product_lineale(PROB, INT)

    def pv(rate: Fraction, role: int) -> LinealeValue:
        return lin.value((rate, role))

    return net_from_arcs(
        lin,
        ("S1", "S2", "S3", "I", "C"),
        ("r",),
        pv(Fraction(0), 0),
        pre_arcs={
            ("S1", "r"): pv(r1, 0),
            ("S2", "r"): pv(r2, 0),
            ("I", "r"): pv(r4, -3),
            ("C", "r"): pv(r5, 5),
        },
        post_arcs={("S3", "r"): pv(r3, 0)},
    )


def build_example(name: str, **params) -> PetriNet:
    """One of the worked nets by name; sir and catalysis accept rate overrides.

    sir takes p_contact, p_infect, p_recover; catalysis takes r1..r5.
    All parameters are exact rationals.
    """
    builders = {
        "water": _water,
        "sir": _sir,
        "circadian": _circadian,
        "inhibitor": _inhibitor,
        "catalysis": _catalysis,
    }
    if name not in builders:
        raise ShapeMismatch(
            f"unknown example {name!r}; choose from {', '.join(EXAMPLE_NAMES)}"
        )
    return builders[name](**params)
