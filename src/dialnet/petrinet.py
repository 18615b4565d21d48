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

A net stores only the two relations; its lineale, places and
transitions are read off pre, and construction checks that post
agrees.  All connectives act componentwise on (pre, post); both
components produce identical carriers, so the result is again a net.

The module also builds the worked example nets: water (stoichiometry
over the naturals), circadian (three-valued presence/absence with two
hypothesized arcs at weight 0), sir (probabilities), inhibitor
(integer thresholds), catalysis (rate/role pairs).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, NamedTuple

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
    """A pre/post pair of weight relations over shared places and transitions."""

    pre: DialObject
    post: DialObject

    def __post_init__(self):
        if self.post.lin.tag != self.pre.lin.tag:
            raise TagMismatch("pre and post relations are over different lineales")
        if self.post.pos != self.pre.pos or self.post.neg != self.pre.neg:
            raise ShapeMismatch("post relation carriers differ from pre's")

    @property
    def lin(self) -> Lineale:
        return self.pre.lin

    @property
    def places(self) -> FinSet:
        return self.pre.pos

    @property
    def transitions(self) -> FinSet:
        return self.pre.neg


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

    def matrix(arcs: Mapping[tuple[str, str], LinealeValue]):
        grid = [[fill] * transitions.size for _ in range(places.size)]
        for (p, t), v in arcs.items():
            grid[places.index_of(p)][transitions.index_of(t)] = lin.unwrap(v)
        return tuple(tuple(row) for row in grid)

    pre = DialObject(lin, places, transitions, matrix(pre_arcs))
    post = DialObject(lin, places, transitions, matrix(post_arcs))
    return PetriNet(pre, post)


class NetViolation(NamedTuple):
    """A morphism-condition failure, tagged with the relation it violates."""

    part: str  # "pre" or "post"
    u: int
    y: int
    source_weight: LinealeValue
    target_weight: LinealeValue


def check_net_morphism(
    source: PetriNet, target: PetriNet, fwd: FnTable, bwd: FnTable
) -> list[NetViolation]:
    """All points where (fwd, bwd) fails for the pre or the post relation."""
    out = []
    for part, s_obj, t_obj in (
        ("pre", source.pre, target.pre),
        ("post", source.post, target.post),
    ):
        for v in check_morphism(s_obj, t_obj, fwd, bwd):
            out.append(NetViolation(part, v.u, v.y, v.source_weight, v.target_weight))
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
        check_shapes(self.source.pre, self.target.pre, self.fwd, self.bwd)


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
    return PetriNet(op(a.pre, b.pre, cap), op(a.post, b.post, cap))


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
