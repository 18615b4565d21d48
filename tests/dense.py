"""The dense net route, kept as the tests' oracle.

A net's relations as full DialObjects, each one tuple of cells in the
net's row-major order, and a net back from two dense relations through
the library's one stored-form builder.  net_tensor and net_hom are
checked against tensor_obj / hom_obj taken this way, which checks how
they pick the default and the arcs; since both routes share finset's
cell builders, the tests also check every cell against the connective's
formula.
"""

from collections import Counter
from itertools import chain, compress, repeat
from operator import is_not

from dialnet import DialObject, PetriNet, ShapeMismatch, TagMismatch
from dialnet.petrinet import _net_from_cells


def relation(net: PetriNet, part: str) -> DialObject:
    """The dense pre or post relation of a net."""
    arcs = net.pre_arcs if part == "pre" else net.post_arcs
    cells = [net.default] * (net.places.size * net.transitions.size)
    for k, v in arcs.items():
        cells[k] = v
    return DialObject(net.lin, net.places, net.transitions, tuple(cells))


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
    first = next(iter(pre.cells), None)

    def cells(obj: DialObject) -> dict:
        # the cells that are not the first cell's object, picked in C
        return dict(compress(enumerate(obj.cells), map(is_not, obj.cells, repeat(first))))

    pre_cells, post_cells = cells(pre), cells(post)
    listed = Counter(chain(pre_cells.values(), post_cells.values()))
    return _net_from_cells(pre.lin, pre.pos, pre.neg, first, pre_cells, post_cells, listed)
