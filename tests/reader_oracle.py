"""The document reader as a per-item loop, kept as the tests' oracle.

The library reads a net document in one checked pass per relation, in C,
and runs a per-arc loop only to name the first defect.  Here every field,
label, arc and map entry is checked one at a time, in the order the
reader promises: syntax before semantics; keys, version, lineale,
default, places, transitions, pre, post; then the lineale, the labels,
the default weight, and per arc its place, its transition, whether it
repeats, and its weight; for a morphism, both ends before f and F.  A
label in a message is echoed as the reader echoes it, cut to a bounded
head and its length when long.  The tests compare the CLI's exit code
and error line with these.
"""

import json

from dialnet import DialnetError, DocumentSemanticError, DocumentSyntaxError, get_lineale

NET_KEYS = ("format_version", "lineale", "default_weight", "places", "transitions", "pre", "post")
MOR_KEYS = ("format_version", "source", "target", "f", "F")


def _echo(text: str, limit: int = 60) -> str:
    """The repr of text when it is at most limit bytes of UTF-8; otherwise the
    repr of the longest head whose repr is at most limit bytes between its
    quotes, then an ellipsis and the length of text in characters."""
    if len(text.encode("utf-8", "surrogatepass")) <= limit:
        return repr(text)
    # a head over limit characters never fits, so the search stops there
    n = max(k for k in range(limit + 1) if len(repr(text[:k]).encode()) <= limit + 2)
    return f"{text[:n]!r}… ({len(text)} characters)"


def _unique_keys(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for k, _ in pairs:
            if k in seen:
                raise DocumentSyntaxError(f"repeated key {_echo(k)} in a JSON object")
            seen.add(k)
    return obj


def load_json(text: str):
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as e:
        raise DocumentSyntaxError(f"not valid JSON: {e}") from None
    except RecursionError:
        raise DocumentSyntaxError("not valid JSON: nested too deeply") from None


def _expect_str(value, where: str) -> str:
    if not isinstance(value, str):
        raise DocumentSyntaxError(f"{where} must be a string")
    return value


def _has_utf8(text: str) -> bool:
    return text.encode("utf-8", "ignore").decode("utf-8") == text


def _expect_label_list(value, where: str) -> tuple:
    if not isinstance(value, list):
        raise DocumentSyntaxError(f"{where} must be a list of strings")
    for i, item in enumerate(value):
        if not isinstance(item, str):
            raise DocumentSyntaxError(f"{where}[{i}] must be a string")
        if not _has_utf8(item):
            raise DocumentSyntaxError(f"{where}[{i}] holds a lone surrogate")
    return tuple(value)


def _expect_triples(value, where: str) -> tuple:
    if not isinstance(value, list):
        raise DocumentSyntaxError(f"{where} must be a list of triples")
    for i, item in enumerate(value):
        if not (isinstance(item, list) and len(item) == 3):
            raise DocumentSyntaxError(f"{where}[{i}] must be a [place, transition, value] triple")
        if not all(isinstance(x, str) for x in item):
            raise DocumentSyntaxError(f"{where}[{i}] must be a string")
    return tuple(map(tuple, value))


def _check_keys(obj: dict, keys: tuple, what: str) -> None:
    missing = [k for k in keys if k not in obj]
    if missing:
        raise DocumentSyntaxError(f"{what} is missing keys: {', '.join(missing)}")
    extra = [k for k in obj if k not in keys]
    if extra:
        raise DocumentSyntaxError(f"{what} has unknown keys: {', '.join(extra)}")
    version = _expect_str(obj["format_version"], "format_version")
    if version != "1":
        raise DocumentSyntaxError(f"unsupported format_version {_echo(version)}; this tool reads '1'")


def net_syntax(obj, what: str = "net document") -> dict:
    """The fields of a net document, as tuples, or its DocumentSyntaxError."""
    if not isinstance(obj, dict):
        raise DocumentSyntaxError(f"{what} must be a JSON object")
    _check_keys(obj, NET_KEYS, what)
    return {
        "lineale": _expect_str(obj["lineale"], "lineale"),
        "default_weight": _expect_str(obj["default_weight"], "default_weight"),
        "places": _expect_label_list(obj["places"], "places"),
        "transitions": _expect_label_list(obj["transitions"], "transitions"),
        "pre": _expect_triples(obj["pre"], "pre"),
        "post": _expect_triples(obj["post"], "post"),
    }


def _parse_weight(lin, text: str, where: str) -> None:
    try:
        lin.parse(text)
    except DialnetError as e:
        raise DocumentSemanticError(f"{where}: {e}") from None


def net_semantics(doc: dict) -> None:
    """Raise the DocumentSemanticError of the first semantic defect, if any."""
    try:
        lin = get_lineale(doc["lineale"])
    except DialnetError as e:
        raise DocumentSemanticError(str(e)) from None
    for kind, labels in (("place", doc["places"]), ("transition", doc["transitions"])):
        seen = set()
        for lbl in labels:
            if not lbl:
                raise DocumentSemanticError(f"empty {kind} label")
            if lbl in seen:
                raise DocumentSemanticError(f"duplicate {kind} label {_echo(lbl)}")
            seen.add(lbl)
    _parse_weight(lin, doc["default_weight"], "default_weight")
    for part in ("pre", "post"):
        arcs = set()
        for i, (p, t, v) in enumerate(doc[part]):
            if p not in doc["places"]:
                raise DocumentSemanticError(f"{part}[{i}]: unknown place label {_echo(p)}")
            if t not in doc["transitions"]:
                raise DocumentSemanticError(f"{part}[{i}]: unknown transition label {_echo(t)}")
            if (p, t) in arcs:
                raise DocumentSemanticError(f"{part}[{i}]: duplicate arc for ({_echo(p)}, {_echo(t)})")
            arcs.add((p, t))
            _parse_weight(lin, v, f"{part}[{i}]")


def _expect_label_map(value, where: str) -> tuple:
    if not isinstance(value, dict):
        raise DocumentSyntaxError(f"{where} must be an object of label pairs")
    out = []
    for k, v in value.items():
        out.append((_expect_str(k, f"{where} key"), _expect_str(v, f"{where}[{_echo(k)}]")))
    return tuple(out)


def _map_semantics(pairs, dom, cod, name: str, dom_kind: str, cod_kind: str) -> None:
    mapping = {}
    for k, v in pairs:
        if k in mapping:
            raise DocumentSemanticError(f"{name}: duplicate entry for {_echo(k)}")
        mapping[k] = v
    for lbl in dom:
        if lbl not in mapping:
            raise DocumentSemanticError(f"{name}: no entry for {dom_kind} {_echo(lbl)}")
        img = mapping.pop(lbl)
        if img not in cod:
            raise DocumentSemanticError(f"{name}: unknown {cod_kind} {_echo(img)} (image of {_echo(lbl)})")
    if mapping:
        # the first three strays, each echoed in 40 bytes, and a count of the rest
        shown = [_echo(k, 40) for k in mapping][:3]
        rest = len(mapping) - len(shown)
        stray = ", ".join(shown) + (f" and {rest} more" if rest else "")
        raise DocumentSemanticError(f"{name}: unknown {dom_kind}(s) {stray}")


def read_net(text: str) -> None:
    """Raise what reading a net document's text raises, if anything."""
    net_semantics(net_syntax(load_json(text)))


def read_morphism(text: str) -> None:
    """Raise what reading a morphism document's text, whose ends are inline
    nets, raises, if anything."""
    obj = load_json(text)
    if not isinstance(obj, dict):
        raise DocumentSyntaxError("morphism document must be a JSON object")
    _check_keys(obj, MOR_KEYS, "morphism document")
    source, target = (net_syntax(obj[k], f"{k} net") for k in ("source", "target"))
    f, big_f = _expect_label_map(obj["f"], "f"), _expect_label_map(obj["F"], "F")
    net_semantics(source)
    net_semantics(target)
    _map_semantics(f, source["places"], target["places"], "f", "source place", "target place")
    kinds = ("target transition", "source transition")
    _map_semantics(big_f, target["transitions"], source["transitions"], "F", *kinds)


def exit_and_error(read, text: str) -> tuple[int, str]:
    """The CLI's exit code and stderr for what read(text) raises: (0, "")
    when it raises nothing."""
    try:
        read(text)
    except DocumentSyntaxError as e:
        return 2, f"error: {e}\n"
    except DialnetError as e:
        return 3, f"error: {e}\n"
    return 0, ""
