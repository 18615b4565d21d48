"""The dense net route, kept as the tests' oracle.

A net's relations as full DialObjects, and a net back from two dense
relations through the library's one stored-form builder.  net_tensor and
net_hom are checked against tensor_obj / hom_obj taken this way, which
checks how they pick the default and the arcs; since both routes share
dialset's cell builders, the tests also check every cell against the
connective's formula.
"""

from collections import Counter
from itertools import chain, compress, count, repeat
from operator import is_not

from dialnet import DialObject, PetriNet, ShapeMismatch, TagMismatch
from dialnet.petrinet import _net_from_cells


def relation(net: PetriNet, part: str) -> DialObject:
    """The dense pre or post relation of a net."""
    arcs = net.pre_arcs if part == "pre" else net.post_arcs
    n_t = net.transitions.size
    cells = [net.default] * (net.places.size * n_t)
    for k, v in arcs.items():
        cells[k] = v
    rows = tuple(tuple(cells[u * n_t : (u + 1) * n_t]) for u in range(net.places.size))
    return DialObject(net.lin, net.places, net.transitions, rows)


def pre(net: PetriNet) -> DialObject:
    return relation(net, "pre")


def post(net: PetriNet) -> DialObject:
    return relation(net, "post")


def net_from_relations(pre: DialObject, post: DialObject) -> PetriNet:
    """The net with these dense pre and post relations, in its stored form."""
    if post.lin.tag != pre.lin.tag:
        raise TagMismatch("pre and post relations are over different lineales")
    if post.pos != pre.pos or post.neg != pre.neg:
        raise ShapeMismatch("post relation carriers differ from pre's")
    first = next(chain.from_iterable(pre.weight), None)

    def cells(obj: DialObject) -> dict:
        # the cells that are not the first cell's object, picked in C
        flat = list(chain.from_iterable(obj.weight))
        return dict(compress(zip(count(), flat), map(is_not, flat, repeat(first))))

    pre_cells, post_cells = cells(pre), cells(post)
    listed = Counter(chain(pre_cells.values(), post_cells.values()))
    return _net_from_cells(pre.lin, pre.pos, pre.neg, first, pre_cells, post_cells, listed)
