"""Net and morphism documents: the on-disk JSON format and DOT export.

A net document is a single JSON object:

    {
      "format_version": "1",
      "lineale": "nat",
      "default_weight": "0",
      "places": ["H2", "O2", "H2O"],
      "transitions": ["t"],
      "pre": [["H2", "t", "2"], ["O2", "t", "1"]],
      "post": [["H2O", "t", "2"]]
    }

Arcs are sparse triples (place, transition, value); every pair not
listed takes default_weight, so the relations stay total.  A morphism
document carries "source" and "target" (paths or inline net objects),
"f" mapping source places to target places, and "F" mapping TARGET
transitions to SOURCE transitions -- the backward direction trips
people up, so it is worth repeating: F goes from the target net's
transitions to the source net's.

Malformed JSON (a repeated key too) or a wrong shape raises
DocumentSyntaxError; documents that parse but refer to unknown labels,
repeat arcs, or carry values outside their lineale raise
DocumentSemanticError, which the CLI maps to exit codes 2 and 3.  A
file over MAX_DOCUMENT_BYTES is never parsed.

The worked example nets exist only as documents in the package data
(EXAMPLE_NAMES); build_example reads one by name.

Serialization is canonical: the layout is exactly that of
json.dumps(indent=2, ensure_ascii=False) -- fixed key order, two-space
indent, arcs in row-major (place, transition) order, values in
canonical form -- plus one trailing newline, written directly rather
than through json.dumps, whose indenting encoder is pure Python.
serialize_net writes a net and serialize_net_document a document through
one layout, so a parsed canonical file is reproduced byte for byte.

Reading and writing cost time in the labels and arcs, not in the cells.
A file goes from the loaded JSON to the net's stored form (see petrinet)
in one checked pass: every field's syntax is checked in place, then each
relation's arcs are looked up, keyed and counted in C passes, each
distinct weight text is parsed once, and the relation's list is dropped
once it is built.  Only when a pass fails does a per-arc loop run, in
the order of the checks, to name the first defect.  A net is written
straight from its arc maps: each label and each distinct payload object
is encoded once and every piece of the text is joined in one C call;
only an explicit default other than the net's own visits every cell.
save_net refuses what it could not read back: a text over
MAX_DOCUMENT_BYTES (CapExceeded) and a lone-surrogate label
(DocumentSyntaxError).
"""

from __future__ import annotations

import json
import os
import stat
from collections import Counter
from contextlib import suppress
from functools import cache
from itertools import chain, repeat
from json.encoder import encode_basestring
from operator import add, floordiv, itemgetter, mod, mul
from pathlib import Path
from typing import NamedTuple, Optional, Union

from .errors import (
    CapExceeded,
    DialnetError,
    DocumentSemanticError,
    DocumentSyntaxError,
    ShapeMismatch,
)
from .finset import FinSet, FnTable
from .lineale import LinealeValue, _echo, _shown, format_payload, get_lineale
from .petrinet import PetriNet, _net_from_cells, _rebased
from .record import record

__all__ = [
    "FORMAT_VERSION",
    "MAX_DOCUMENT_BYTES",
    "EXAMPLE_NAMES",
    "NetDocument",
    "NetSummary",
    "MorphismDocument",
    "parse_net_document",
    "serialize_net_document",
    "serialize_net",
    "document_to_net",
    "net_to_document",
    "read_text",
    "write_text",
    "read_net",
    "load_net",
    "save_net",
    "example_path",
    "example_default",
    "build_example",
    "parse_morphism_document",
    "resolve_morphism_document",
    "export_dot",
]

FORMAT_VERSION = "1"

# 32 MiB: eight times a combined net at the size cap (about 4 MB), while
# validating a document at the bound (660k arcs) peaks near 200 MiB
MAX_DOCUMENT_BYTES = 32 * 2**20

EXAMPLE_NAMES = ("water", "sir", "circadian", "inhibitor", "catalysis")

_NET_KEYS = (
    "format_version",
    "lineale",
    "default_weight",
    "places",
    "transitions",
    "pre",
    "post",
)
_MOR_KEYS = ("format_version", "source", "target", "f", "F")


@record
class NetDocument(NamedTuple):
    """The parsed, still-textual form of a net file."""

    lineale: str
    default_weight: str
    places: tuple[str, ...]
    transitions: tuple[str, ...]
    pre: tuple[tuple[str, str, str], ...]
    post: tuple[tuple[str, str, str], ...]


@record
class MorphismDocument(NamedTuple):
    """A morphism file: two nets plus the forward and backward label maps.

    place_map follows f (source place to target place); transition_map
    follows F (target transition back to source transition).
    """

    source: Union[str, NetDocument]
    target: Union[str, NetDocument]
    place_map: tuple[tuple[str, str], ...]
    transition_map: tuple[tuple[str, str], ...]


def _expect_str(value, where: str) -> str:
    if not isinstance(value, str):
        raise DocumentSyntaxError(f"{where} must be a string")
    return value


def _expect_label_list(value, where: str) -> None:
    if not isinstance(value, list):
        raise DocumentSyntaxError(f"{where} must be a list of strings")
    # the common case is checked in C; the loop names the first bad item
    if not (set(map(type, value)) <= {str} and _has_utf8("".join(value))):
        for i, item in enumerate(value):
            if not isinstance(item, str):
                raise DocumentSyntaxError(f"{where}[{i}] must be a string")
            if not _has_utf8(item):
                raise DocumentSyntaxError(f"{where}[{i}] holds a lone surrogate")


def _has_utf8(text: str) -> bool:
    """Whether text, which is printed and written as UTF-8, has that form:
    a lone surrogate (the JSON escape \\ud800) has none and is dropped here."""
    return text.encode("utf-8", "ignore").decode("utf-8") == text


def _expect_triples(value, where: str) -> None:
    if not isinstance(value, list):
        raise DocumentSyntaxError(f"{where} must be a list of triples")
    # the common case is checked in C; the loop names the first bad item
    if not (
        set(map(type, value)) <= {list}
        and set(map(len, value)) <= {3}
        and set(map(type, chain.from_iterable(value))) <= {str}
    ):
        for i, item in enumerate(value):
            if not (isinstance(item, list) and len(item) == 3):
                raise DocumentSyntaxError(
                    f"{where}[{i}] must be a [place, transition, value] triple"
                )
            if not all(isinstance(x, str) for x in item):
                raise DocumentSyntaxError(f"{where}[{i}] must be a string")


def _check_keys(obj: dict, keys: tuple[str, ...], what: str) -> None:
    missing = [k for k in keys if k not in obj]
    if missing:
        raise DocumentSyntaxError(f"{what} is missing keys: {', '.join(missing)}")
    extra = [k for k in obj if k not in keys]
    if extra:
        shown = ", ".join(extra)
        raise DocumentSyntaxError(f"{what} has unknown keys: {_shown(shown)}")
    version = _expect_str(obj["format_version"], "format_version")
    if version != FORMAT_VERSION:
        raise DocumentSyntaxError(
            f"unsupported format_version {_echo(version)}; this tool reads "
            f"{FORMAT_VERSION!r}"
        )


def _net_fields(obj, what: str = "net document") -> dict:
    """obj itself, once every field has the syntax of a net document."""
    if not isinstance(obj, dict):
        raise DocumentSyntaxError(f"{what} must be a JSON object")
    _check_keys(obj, _NET_KEYS, what)
    checks = (_expect_str,) * 2 + (_expect_label_list,) * 2 + (_expect_triples,) * 2
    for key, check in zip(_NET_KEYS[1:], checks):
        check(obj[key], key)
    return obj


def _net_document_from_json(obj, what: str = "net document") -> NetDocument:
    f = _net_fields(obj, what)
    labels = (tuple(f[k]) for k in ("places", "transitions"))
    arcs = (tuple(map(tuple, f[k])) for k in ("pre", "post"))
    return NetDocument(f["lineale"], f["default_weight"], *labels, *arcs)


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict, refusing a repeated key (json.loads keeps the last)."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for k, _ in pairs:
            if k in seen:
                raise DocumentSyntaxError(f"repeated key {_echo(k)} in a JSON object")
            seen.add(k)
    return obj


def _load_json(text: str):
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except ValueError as e:  # a JSONDecodeError, or an integer over int's digit limit
        raise DocumentSyntaxError(f"not valid JSON: {e}") from None
    except RecursionError:
        raise DocumentSyntaxError("not valid JSON: nested too deeply") from None


def parse_net_document(text: str) -> NetDocument:
    return _net_document_from_json(_load_json(text))


# an element of a depth-1 array, and the three pieces of an arc triple, as
# json.dumps(indent=2) lays them out; each ends with the separator to the next
_ELEMENT = "{},\n    "
_ARC_PIECES = ("[\n      {},\n      ", "{},\n      ", "{}\n    ],\n    ")


def _layout(lineale: str, default_weight: str, places, transitions, pre, post) -> str:
    """The canonical text: json.dumps(indent=2, ensure_ascii=False) plus a
    newline; pre and post list the place, transition and value pieces of arcs.
    Every piece is joined once, in C, so the text is built in one copy."""

    def array(*columns: list[str]) -> list[str]:
        # the pieces of every element in turn; the last drops its separator
        joined = [""] * (len(columns) * len(columns[0]))
        for i, column in enumerate(columns):
            joined[i :: len(columns)] = column
        if not joined:
            return ["[]"]
        joined[-1] = joined[-1][: -len(",\n    ")]
        joined[0] = "[\n    " + joined[0]
        joined.append("\n  ]")
        return joined

    def labels(texts) -> list[str]:
        return array([_ELEMENT.format(encode_basestring(t)) for t in texts])

    fields = (
        ("format_version", [encode_basestring(FORMAT_VERSION)]),
        ("lineale", [encode_basestring(lineale)]),
        ("default_weight", [encode_basestring(default_weight)]),
        ("places", labels(places)),
        ("transitions", labels(transitions)),
        ("pre", array(*pre)),
        ("post", array(*post)),
    )
    text = []
    for sep, (key, value) in zip(chain(["{\n"], repeat(",\n")), fields):
        text.append(f'{sep}  "{key}": ')
        text += value
    text.append("\n}\n")
    return "".join(text)


def serialize_net_document(doc: NetDocument) -> str:
    """The canonical text of a document."""

    def pieces(triples) -> list[list[str]]:
        cols = zip(*triples) if triples else ((), (), ())
        return [[f.format(encode_basestring(t)) for t in c] for f, c in zip(_ARC_PIECES, cols)]

    pre, post = pieces(doc.pre), pieces(doc.post)
    return _layout(doc.lineale, doc.default_weight, doc.places, doc.transitions, pre, post)


def _parse_weight(lin, text: str, where: str) -> object:
    """The payload a weight text denotes; where names the text in the error."""
    try:
        return lin.parse(text).payload
    except DialnetError as e:
        raise DocumentSemanticError(f"{where}: {e}") from None


def _carrier(labels: list, kind: str) -> FinSet:
    """The set of labels, which must be distinct and nonempty."""
    with suppress(ShapeMismatch):  # a repeated label, which the loop names
        carrier = FinSet(len(labels), tuple(labels))
        if "" not in carrier.index:
            return carrier
    seen = set()
    for lbl in labels:
        if not lbl:
            raise DocumentSemanticError(f"empty {kind} label")
        if lbl in seen:
            raise DocumentSemanticError(f"duplicate {kind} label {_echo(lbl)}")
        seen.add(lbl)


def _cells(lin, triples, part: str, places: dict, transitions: dict, payloads: dict, listed: dict):
    """The cells that a relation's checked triples list, as index -> payload.
    payloads maps each weight text met so far to its one payload object, and
    listed counts the listed cells by payload value."""
    column = lambda i: map(itemgetter(i), triples)
    texts = Counter(column(2))
    try:
        for text in texts.keys() - payloads.keys():
            payloads[text] = lin.parse(text).payload
        rows = map(mul, map(places.__getitem__, column(0)), repeat(len(transitions)))
        keys = map(add, rows, map(transitions.__getitem__, column(1)))
        cells = dict(zip(keys, map(payloads.__getitem__, column(2))))
    except (KeyError, DialnetError):
        cells = {}
    if len(cells) < len(triples):  # the loop names the first defective arc
        seen = set()
        for i, (p, t, v) in enumerate(triples):
            if p not in places:
                raise DocumentSemanticError(f"{part}[{i}]: unknown place label {_echo(p)}")
            if t not in transitions:
                raise DocumentSemanticError(f"{part}[{i}]: unknown transition label {_echo(t)}")
            if (p, t) in seen:
                raise DocumentSemanticError(f"{part}[{i}]: duplicate arc for ({_echo(p)}, {_echo(t)})")
            seen.add((p, t))
            if v not in payloads:
                _parse_weight(lin, v, f"{part}[{i}]")
    for text, k in texts.items():  # texts of equal values merge
        listed[payloads[text]] = listed.get(payloads[text], 0) + k
    return cells


def _net_from_fields(fields: dict) -> PetriNet:
    """The net that a document's checked fields denote.  Once its relation
    is built, each relation's list in fields is replaced by its arc count,
    so that the list can be freed."""
    try:
        lin = get_lineale(fields["lineale"])
    except DialnetError as e:
        raise DocumentSemanticError(str(e)) from None
    places, transitions = (_carrier(fields[kind + "s"], kind) for kind in ("place", "transition"))
    default = _parse_weight(lin, fields["default_weight"], "default_weight")
    payloads, cells, listed = {fields["default_weight"]: default}, [], {}
    for part in ("pre", "post"):
        triples = fields[part]
        cells.append(_cells(lin, triples, part, places.index, transitions.index, payloads, listed))
        fields[part] = len(triples)
    del triples  # post's list, before the net is built
    return _net_from_cells(lin, places, transitions, default, *cells, listed)


def document_to_net(doc: NetDocument) -> PetriNet:
    """Validate a document and build the net it denotes."""
    return _net_from_fields(doc._asdict())


class NetSummary(NamedTuple):
    """What a net file says beyond the net it denotes: the lineale and
    default weight as written, and how many arcs pre and post list."""

    lineale: str
    default_weight: str
    pre: int
    post: int


def read_net(path: Union[str, Path]) -> tuple[PetriNet, NetSummary]:
    """The net a file holds, and the file's NetSummary."""
    fields = _net_fields(_load_json(read_text(path)))
    net = _net_from_fields(fields)
    return net, NetSummary(*map(fields.get, ("lineale", "default_weight", "pre", "post")))


def _labels(s: FinSet) -> tuple[str, ...]:
    return tuple(s.label(i) for i in range(s.size))


def _arc_columns(net: PetriNet, arcs, default, places, transitions, text):
    """places[u], transitions[x] and text(payload) for the cells of a
    relation off the default payload, in row-major order, as three lists.

    With the net's own default these are its arcs.  text runs once per
    distinct payload object; the rest runs in C.
    """
    if default != net.default:
        arcs = _rebased(arcs, len(places) * len(transitions), net.default, default)
    n_t = len(transitions)
    payloads = list(arcs.values())
    texts = {i: text(v) for i, v in dict(zip(map(id, payloads), payloads)).items()}
    return [
        list(map(places.__getitem__, map(floordiv, arcs, repeat(n_t)))),
        list(map(transitions.__getitem__, map(mod, arcs, repeat(n_t)))),
        list(map(texts.__getitem__, map(id, payloads))),
    ]


def serialize_net(net: PetriNet, default: Optional[LinealeValue] = None) -> str:
    """The canonical text of a net, straight from its arc maps.  Without an
    explicit default the net's own, its modal payload, is used; a default
    of another lineale raises TagMismatch."""
    default = net.default if default is None else net.lin.unwrap(default)
    places, transitions = _labels(net.places), _labels(net.transitions)
    p_piece, t_piece, v_piece = _ARC_PIECES
    pieces = (
        [p_piece.format(encode_basestring(p)) for p in places],
        [t_piece.format(encode_basestring(t)) for t in transitions],
        lambda v: v_piece.format(encode_basestring(format_payload(v))),
    )
    pre = _arc_columns(net, net.pre_arcs, default, *pieces)
    post = _arc_columns(net, net.post_arcs, default, *pieces)
    return _layout(net.lin.tag, format_payload(default), places, transitions, pre, post)


def net_to_document(net: PetriNet, default: Optional[LinealeValue] = None) -> NetDocument:
    """The document serialize_net(net, default) writes."""
    return parse_net_document(serialize_net(net, default))


def example_path(name: str) -> Path:
    """Path of the shipped (package data) document of an example in EXAMPLE_NAMES."""
    if name not in EXAMPLE_NAMES:
        raise ShapeMismatch(
            f"unknown example {name!r}; choose from {', '.join(EXAMPLE_NAMES)}"
        )
    return Path(__file__).parent / "data" / f"{name}.net"


def _open_nonblocking(path: str, flags: int) -> int:
    # a FIFO with no writer would block the open itself
    return os.open(path, flags | os.O_NONBLOCK)


def _cannot(verb: str, path, why) -> DocumentSyntaxError:
    """cannot <verb> <path>: <why>, the path shown once, as _shown(path, 200) gives it."""
    if getattr(why, "filename", None) is not None:  # an OSError's text repeats the path
        why = f"[Errno {why.errno}] {why.strerror}"
    why = f"not UTF-8 ({why.reason})" if isinstance(why, UnicodeError) else why  # no position
    return DocumentSyntaxError(f"cannot {verb} {_shown(str(path), 200)}: {why}")


def read_text(path: Union[str, Path]) -> str:
    """A regular file's text; an unreadable or non-UTF-8 file, a pipe or device
    (which may never end), a file over MAX_DOCUMENT_BYTES, or a NUL byte in
    the path is a DocumentSyntaxError."""
    too_large = f"larger than {MAX_DOCUMENT_BYTES} bytes"
    try:
        with open(path, encoding="utf-8", opener=_open_nonblocking) as f:
            st = os.fstat(f.fileno())
            if not stat.S_ISREG(st.st_mode):
                raise _cannot("read", path, "not a regular file")
            if st.st_size > MAX_DOCUMENT_BYTES:
                raise _cannot("read", path, too_large)
            # a file that grew since fstat is read on to one character past the
            # bound; asking for that much up front would allocate 32 MiB
            text = f.read(st.st_size + 1)
            if len(text) > st.st_size:
                text += f.read(MAX_DOCUMENT_BYTES - st.st_size)
    except (OSError, ValueError) as e:
        raise _cannot("read", path, e) from None
    if len(text) > MAX_DOCUMENT_BYTES:
        raise _cannot("read", path, too_large)
    return text


def write_text(path: Union[str, Path], text: Union[str, bytes]) -> None:
    """Write an output file, text as UTF-8; an unwritable path is a DocumentSyntaxError."""
    data = text.encode("utf-8") if isinstance(text, str) else text
    try:
        Path(path).write_bytes(data)
    except (OSError, ValueError) as e:  # ValueError: a NUL or lone surrogate in the path
        raise _cannot("write", path, e) from None


def example_default(name: str) -> LinealeValue:
    """The absent-arc weight a shipped example is drawn with: its file's default_weight."""
    doc = parse_net_document(read_text(example_path(name)))
    return get_lineale(doc.lineale).parse(doc.default_weight)


def load_net(path: Union[str, Path]) -> PetriNet:
    return read_net(path)[0]


def build_example(name: str) -> PetriNet:
    """One of the worked nets by name, read from its shipped document."""
    return load_net(example_path(name))


def save_net(net: PetriNet, path: Union[str, Path]) -> None:
    """Write serialize_net(net).  A text over MAX_DOCUMENT_BYTES,
    which read_text would refuse, raises CapExceeded, and a label the reader
    would refuse raises its DocumentSyntaxError; neither writes anything."""
    try:
        data = serialize_net(net).encode("utf-8")
    except UnicodeEncodeError:
        # only a label can hold a lone surrogate; name it as the reader does
        _expect_label_list(list(_labels(net.places)), "places")
        _expect_label_list(list(_labels(net.transitions)), "transitions")
        raise
    if len(data) > MAX_DOCUMENT_BYTES:
        raise CapExceeded(len(data), MAX_DOCUMENT_BYTES, "net document", "bytes")
    write_text(path, data)


# -- morphism documents --------------------------------------------------------


def _expect_label_map(value, where: str) -> tuple[tuple[str, str], ...]:
    if not isinstance(value, dict):
        raise DocumentSyntaxError(f"{where} must be an object of label pairs")
    # the common case is checked in C; the loop names the first bad item
    if not set(map(type, chain(value, value.values()))) <= {str}:
        for k, v in value.items():
            _expect_str(k, f"{where} key")
            _expect_str(v, f"{where}[{_echo(k)}]")
    return tuple(value.items())


def parse_morphism_document(text: str) -> MorphismDocument:
    obj = _load_json(text)
    if not isinstance(obj, dict):
        raise DocumentSyntaxError("morphism document must be a JSON object")
    _check_keys(obj, _MOR_KEYS, "morphism document")

    def end(value, which: str):
        if isinstance(value, str):
            return value
        return _net_document_from_json(value, f"{which} net")

    return MorphismDocument(
        source=end(obj["source"], "source"),
        target=end(obj["target"], "target"),
        place_map=_expect_label_map(obj["f"], "f"),
        transition_map=_expect_label_map(obj["F"], "F"),
    )


def _resolve_end(end: Union[str, NetDocument], base_dir: Path, load) -> PetriNet:
    if isinstance(end, NetDocument):
        return document_to_net(end)
    return load(base_dir / end)  # an absolute end replaces base_dir


def resolve_morphism_document(
    mdoc: MorphismDocument, base_dir: Union[str, Path] = "."
) -> tuple[PetriNet, PetriNet, FnTable, FnTable]:
    """Load both ends and turn the label maps into tables.

    f must cover every source place; F must cover every target
    transition.  Anything else is a semantic error.
    """
    base, load = Path(base_dir), cache(load_net)  # a file both ends name is read once
    source = _resolve_end(mdoc.source, base, load)
    target = _resolve_end(mdoc.target, base, load)

    def to_table(pairs, dom, cod, name: str, dom_kind: str, cod_kind: str) -> FnTable:
        mapping, index = dict(pairs), cod.index
        try:  # the common case runs in C; the loop below names the first defect
            if len(mapping) == len(pairs):
                table = tuple(map(index.__getitem__, map(mapping.pop, dom.labels)))
                if not mapping:
                    return FnTable(dom, cod, table)
        except KeyError:
            pass
        mapping = {}
        for k, v in pairs:
            if k in mapping:
                raise DocumentSemanticError(f"{name}: duplicate entry for {_echo(k)}")
            mapping[k] = v
        for lbl in dom.labels:
            if lbl not in mapping:
                raise DocumentSemanticError(f"{name}: no entry for {dom_kind} {_echo(lbl)}")
            img = mapping.pop(lbl)
            if img not in index:
                raise DocumentSemanticError(
                    f"{name}: unknown {cod_kind} {_echo(img)} (image of {_echo(lbl)})"
                )
        stray = ", ".join(_echo(k, 40) for k in list(mapping)[:3])  # three fit in one line
        more = f" and {len(mapping) - 3} more" if len(mapping) > 3 else ""
        raise DocumentSemanticError(f"{name}: unknown {dom_kind}(s) {stray}{more}")

    fwd = to_table(
        mdoc.place_map, source.places, target.places, "f", "source place", "target place"
    )
    bwd = to_table(
        mdoc.transition_map,
        target.transitions,
        source.transitions,
        "F",
        "target transition",
        "source transition",
    )
    return source, target, fwd, bwd


# -- DOT export -----------------------------------------------------------------


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(net: PetriNet, default: Optional[LinealeValue] = None) -> str:
    """Graphviz text: places as circles, transitions as boxes.

    Arcs carrying the default weight are left out, matching the sparse
    document form.  Output is deterministic for a given net.
    """
    default = net.default if default is None else net.lin.unwrap(default)
    places, transitions = _labels(net.places), _labels(net.transitions)
    # each node id and each distinct weight text is quoted once
    p_ids = [_quote("p:" + lbl) for lbl in places]
    t_ids = [_quote("t:" + lbl) for lbl in transitions]
    label = lambda v: _quote(format_payload(v))
    arcs = lambda r: _arc_columns(net, r, default, p_ids, t_ids, label)
    lines = ["digraph net {", "  rankdir=LR;"]
    lines += map("  {} [shape=circle, label={}];".format, p_ids, map(_quote, places))
    lines += map("  {} [shape=box, label={}];".format, t_ids, map(_quote, transitions))
    lines += map("  {} -> {} [label={}];".format, *arcs(net.pre_arcs))
    lines += map("  {1} -> {0} [label={2}];".format, *arcs(net.post_arcs))
    lines.append("}")
    return "\n".join(lines) + "\n"
