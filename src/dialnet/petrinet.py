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
One builder, _net_from_cells, works that form out from a fill payload
and the cells listed off it; its comparisons with the default run once
per distinct payload object, not once per cell.

The dense relations net.pre and net.post are built on each access, and
only tensor and hom use them: net_from_relations turns their dense
results back into a net.  with and oplus copy each input cell into a
block of result cells, so they cost time in the arcs (and in all of
b's cells when its default differs from a's), not in a dense matrix.

Checking a net morphism costs time in the carrier sizes plus the arcs
and their preimages, not in the cells: check_net_morphism compares one
by one only the cells (u, y) with a source arc at (u, F(y)) or a target
arc at (f(u), y), and compares the two defaults once for every other
cell.  When that comparison fails, every other cell fails too, and the
same loop compares every cell instead, still without densifying.

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
from operator import is_not, ne
from typing import Iterable, Mapping, NamedTuple

from .dialset import DialObject, check_shapes, hom_obj, tensor_obj
from .dialset import _guard, _same_lineale
from .errors import InvalidMorphism, ShapeMismatch, TagMismatch
from .finset import DEFAULT_CAP, FinSet, FnTable, coproduct_set, product_set
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
    to default.  _net_from_cells keeps these invariants; the constructor
    itself does not check them.
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


def _off_default(
    keys: Iterable[int], payloads: list[object], default: object
) -> dict[int, object]:
    """The cells whose payload is not equal to default, as key -> payload;
    keys run in step with payloads.

    The cells that are the default object itself are set aside by an
    identity test, the comparison runs once per other distinct payload
    object, and the selection of cells by object id runs in C.
    """
    rest = list(map(is_not, payloads, repeat(default)))
    keys, payloads = compress(keys, rest), list(compress(payloads, rest))
    objects = dict(zip(map(id, payloads), payloads))
    off = {i for i, v in objects.items() if v != default}
    if len(off) == len(objects):
        return dict(zip(keys, payloads))
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
    and post (index -> payload maps in any order; a listed cell may equal
    fill).  This is the one place that works out the stored form."""
    n = places.size * transitions.size
    pre_keys, post_keys = sorted(pre), sorted(post)
    pre_vals = list(map(pre.__getitem__, pre_keys))
    post_vals = list(map(post.__getitem__, post_keys))
    default = lin.unit_payload
    if n:
        positions = chain(pre_keys, map(n.__add__, post_keys))
        default = _modal_of_cells(fill, positions, pre_vals + post_vals, n)

    def arcs(keys: list[int], payloads: list[object], held: dict) -> dict[int, object]:
        if fill != default:
            # every unlisted cell holds fill and is off the default
            everywhere = list(map(held.get, range(n), repeat(fill)))
            return _off_default(range(n), everywhere, default)
        return _off_default(keys, payloads, default)

    pre_arcs, post_arcs = arcs(pre_keys, pre_vals, pre), arcs(post_keys, post_vals, post)
    return PetriNet(lin, places, transitions, default, pre_arcs, post_arcs)


def _modal_of_cells(
    fill: object, positions: Iterable[int], payloads: list[object], n: int
) -> object:
    """The modal payload of relations of n cells each that hold fill except
    at the listed cells, positions ascending (post's shifted by n) in step
    with payloads; ties go to the payload whose first cell comes first."""
    counts = Counter(map(id, payloads))
    # id -> payload, in the order of each object's first cell
    objects = dict(zip(map(id, payloads), payloads))
    uncovered = 2 * n - len(payloads)
    if uncovered:
        # the cells before the first unlisted one, which holds fill, are all listed
        gap = next(compress(count(), map(ne, positions, count())), len(payloads))
        head = dict(zip(map(id, payloads[:gap]), payloads[:gap]))
        head.setdefault(id(fill), fill)
        objects = {**head, **objects}
        counts[id(fill)] += uncovered
    by_value: dict[object, int] = {}
    for i, v in objects.items():
        by_value[v] = by_value.get(v, 0) + counts[i]
    # max is stable, so ties go to the first payload met
    return max(by_value, key=by_value.__getitem__)


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


def net_from_relations(pre: DialObject, post: DialObject) -> PetriNet:
    """The net with these dense pre and post relations, in its stored form."""
    if post.lin.tag != pre.lin.tag:
        raise TagMismatch("pre and post relations are over different lineales")
    if post.pos != pre.pos or post.neg != pre.neg:
        raise ShapeMismatch("post relation carriers differ from pre's")
    first = next(chain.from_iterable(pre.weight), None)

    def cells(obj: DialObject) -> dict[int, object]:
        # the cells that are not the first cell's object, picked in C
        flat = list(chain.from_iterable(obj.weight))
        return dict(compress(zip(count(), flat), map(is_not, flat, repeat(first))))

    return _net_from_cells(pre.lin, pre.pos, pre.neg, first, cells(pre), cells(post))


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
    everywhere = not leq(ds, dt)
    f, F = fwd.table, bwd.table
    n_x, n_y = source.transitions.size, target.transitions.size
    f_inv, F_inv = _preimages(f, target.places.size), _preimages(F, n_x)
    tag = source.lin.tag
    out = []
    for part, s_arcs, t_arcs in (
        ("pre", source.pre_arcs, target.pre_arcs),
        ("post", source.post_arcs, target.post_arcs),
    ):
        if everywhere:
            # every cell off the arcs fails, so every cell is compared
            cells: Iterable[int] = range(source.places.size * n_y)
        else:
            touched: set[int] = set()
            for k in s_arcs:
                u, x = divmod(k, n_x)
                touched.update([u * n_y + y for y in F_inv[x]])
            for k in t_arcs:
                v, y = divmod(k, n_y)
                touched.update([u * n_y + y for u in f_inv[v]])
            cells = sorted(touched)
        for c in cells:
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


def net_tensor(a: PetriNet, b: PetriNet, cap: int = DEFAULT_CAP) -> PetriNet:
    pre, post = tensor_obj(a.pre, b.pre, cap), tensor_obj(a.post, b.post, cap)
    return net_from_relations(pre, post)


def _block_net(
    a: PetriNet, b: PetriNet, places: FinSet, transitions: FinSet, a_at, b_at
) -> PetriNet:
    """The net each of whose cells copies one cell of a or of b.  a_at and
    b_at are (first, step, copies): input cell (r, c) goes to the result
    cells first(r, c) + i * step for i < copies."""
    n_b = b.places.size * b.transitions.size

    def cells(a_arcs: dict[int, object], b_arcs: dict[int, object]) -> dict[int, object]:
        if b.default != a.default:
            # b's unlisted cells do not hold a's default, so list them all
            b_arcs = dict(zip(range(n_b), map(b_arcs.get, range(n_b), repeat(b.default))))
        out: dict[int, object] = {}
        for net, arcs, (first, step, copies) in ((a, a_arcs, a_at), (b, b_arcs, b_at)):
            for k, w in arcs.items():
                start = first(*divmod(k, net.transitions.size))
                out.update(zip(range(start, start + step * copies, step), repeat(w)))
        return out

    pre, post = cells(a.pre_arcs, b.pre_arcs), cells(a.post_arcs, b.post_arcs)
    return _net_from_cells(a.lin, places, transitions, a.default, pre, post)


def net_with(a: PetriNet, b: PetriNet, cap: int = DEFAULT_CAP) -> PetriNet:
    """The cartesian product: ((u, v), inl x) holds a(u, x) and ((u, v),
    inr y) holds b(v, y), so a's arcs are copied |V| times, b's |U| times."""
    _same_lineale(a, b)
    _guard(a.places.size * b.places.size, cap)
    n_u, n_v = a.places.size, b.places.size
    n_x, n_t = a.transitions.size, a.transitions.size + b.transitions.size
    places = product_set(a.places, b.places)
    transitions = coproduct_set(a.transitions, b.transitions)
    a_at = (lambda u, x: u * n_v * n_t + x, n_t, n_v)
    b_at = (lambda v, y: v * n_t + n_x + y, n_v * n_t, n_u)
    return _block_net(a, b, places, transitions, a_at, b_at)


def net_oplus(a: PetriNet, b: PetriNet, cap: int = DEFAULT_CAP) -> PetriNet:
    """The coproduct: (inl u, (x, y)) holds a(u, x) and (inr v, (x, y))
    holds b(v, y), so a's arcs are copied |Y| times, b's |X| times."""
    _same_lineale(a, b)
    _guard(a.transitions.size * b.transitions.size, cap)
    n_u, n_x, n_y = a.places.size, a.transitions.size, b.transitions.size
    n_t = n_x * n_y
    places = coproduct_set(a.places, b.places)
    transitions = product_set(a.transitions, b.transitions)
    a_at = (lambda u, x: u * n_t + x * n_y, 1, n_y)
    b_at = (lambda v, y: (n_u + v) * n_t + y, n_y, n_x)
    return _block_net(a, b, places, transitions, a_at, b_at)


def net_hom(a: PetriNet, b: PetriNet, cap: int = DEFAULT_CAP) -> PetriNet:
    pre, post = hom_obj(a.pre, b.pre, cap), hom_obj(a.post, b.post, cap)
    return net_from_relations(pre, post)


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
