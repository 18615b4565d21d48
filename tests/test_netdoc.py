"""The on-disk document format and the DOT export.

Shipped example files are the canonical serializer output, so the
round-trip tests compare raw bytes, not parsed structures.
"""

import io
import itertools
import json
import os
import tempfile
import types
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import dense
import pytest
from hypothesis import example, given, settings, strategies as st

from dialnet import (
    BOOL2,
    EXAMPLE_NAMES,
    DialnetError,
    DialObject,
    DocumentSemanticError,
    DocumentSyntaxError,
    NetDocument,
    PetriNet,
    build_example,
    check_net_morphism,
    document_to_net,
    example_default,
    example_path,
    export_dot,
    load_net,
    net_to_document,
    parse_morphism_document,
    parse_net_document,
    resolve_morphism_document,
    save_net,
    serialize_net,
    serialize_net_document,
    TagMismatch,
    get_lineale,
    net_from_arcs,
    net_oplus,
    net_tensor,
    net_with,
)
from dialnet.finset import FinSet
from dialnet.lineale import format_payload
from dialnet.netdoc import read_text

WATER_TEXT = example_path("water").read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# net documents
# ---------------------------------------------------------------------------


def test_shipped_files_roundtrip_bit_exactly():
    for name in EXAMPLE_NAMES:
        text = example_path(name).read_text(encoding="utf-8")
        doc = parse_net_document(text)
        assert serialize_net_document(doc) == text, name


def test_package_data_ships_exactly_the_examples():
    # build_example reads the installed documents, so the package-data
    # globs must ship one file per name and no file without a name
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as f:
        globs = tomllib.load(f)["tool"]["setuptools"]["package-data"]["dialnet"]
    package = root / "src" / "dialnet"
    assert {p.stem for p in (package / "data").glob("*.net")} == set(EXAMPLE_NAMES)
    packaged = {p for g in globs for p in package.glob(g)}
    for name in EXAMPLE_NAMES:
        assert package / "data" / f"{name}.net" in packaged, name


def test_read_text_bounds_the_document_size(tmp_path, monkeypatch):
    monkeypatch.setattr("dialnet.netdoc.MAX_DOCUMENT_BYTES", 8)
    p = tmp_path / "doc.net"
    p.write_text("12345678", encoding="utf-8")
    assert read_text(p) == "12345678"
    p.write_text("123456789", encoding="utf-8")
    with pytest.raises(DocumentSyntaxError, match="larger than 8 bytes"):
        read_text(p)
    # a file that grew after its size was taken is refused by the read itself
    real_fstat = os.fstat
    monkeypatch.setattr(
        os,
        "fstat",
        lambda fd: types.SimpleNamespace(st_mode=real_fstat(fd).st_mode, st_size=0),
    )
    with pytest.raises(DocumentSyntaxError, match="larger than 8 bytes"):
        read_text(p)


def test_serializer_is_canonical():
    water = build_example("water")
    doc = net_to_document(water, example_default("water"))
    assert serialize_net_document(doc) == WATER_TEXT
    assert WATER_TEXT.endswith("\n")


def test_default_of_another_lineale_is_refused():
    water = build_example("water")
    with pytest.raises(TagMismatch):
        net_to_document(water, BOOL2.value(False))
    with pytest.raises(TagMismatch):
        export_dot(water, BOOL2.value(False))


def test_save_and_load(tmp_path):
    p, water = tmp_path / "w.net", build_example("water")
    save_net(water, p)
    assert p.read_text(encoding="utf-8") == serialize_net(water)
    assert serialize_net(water, example_default("water")) == WATER_TEXT
    assert load_net(p) == water


def test_default_weight_fills_unlisted_arcs():
    doc = parse_net_document(WATER_TEXT)
    net = document_to_net(doc)
    u = net.places.index_of("H2O")
    assert dense.pre(net).cells[u * net.transitions.size + 0] == 0


def test_modal_default_when_unspecified():
    # without an explicit default the most common weight is factored out
    net = build_example("circadian")
    doc = net_to_document(net)
    assert doc.default_weight == "-1"
    assert document_to_net(doc) == net


def test_randomized_nets_roundtrip():
    import random

    from dialnet import DialObject, get_lineale
    from dialnet.finset import FinSet

    rng = random.Random(101)
    for tag in ("bool2", "kleene3", "nat", "int", "prob", "prod(prob,int)"):
        lin = get_lineale(tag)
        for _ in range(10):
            places = FinSet(rng.randint(1, 4), None)
            transitions = FinSet(rng.randint(1, 3), None)
            mk = lambda: DialObject(lin, places, transitions, tuple(
                lin.sample(rng, 6).payload for _ in range(places.size * transitions.size)
            ))
            net = dense.net_from_relations(mk(), mk())
            doc = net_to_document(net)
            assert parse_net_document(serialize_net_document(doc)) == doc
            assert document_to_net(doc) == net


def test_parse_rejects_bad_json():
    with pytest.raises(DocumentSyntaxError):
        parse_net_document("{nope")
    with pytest.raises(DocumentSyntaxError):
        parse_net_document("[1, 2]")


def test_parse_rejects_missing_and_extra_keys():
    obj = json.loads(WATER_TEXT)
    del obj["places"]
    with pytest.raises(DocumentSyntaxError) as exc:
        parse_net_document(json.dumps(obj))
    assert "places" in str(exc.value)
    obj = json.loads(WATER_TEXT)
    obj["placez"] = []
    with pytest.raises(DocumentSyntaxError):
        parse_net_document(json.dumps(obj))


def test_parse_rejects_unknown_version():
    obj = json.loads(WATER_TEXT)
    obj["format_version"] = "7"
    with pytest.raises(DocumentSyntaxError):
        parse_net_document(json.dumps(obj))


def _water_json(**changes):
    obj = json.loads(WATER_TEXT)
    obj.update(changes)
    return json.dumps(obj)


def test_unknown_lineale_tag():
    doc = parse_net_document(_water_json(lineale="frob"))
    with pytest.raises(DocumentSemanticError) as exc:
        document_to_net(doc)
    assert "frob" in str(exc.value)


def test_unknown_place_label_in_triple():
    doc = parse_net_document(
        _water_json(pre=[["H2", "t", "2"], ["XYZ", "t", "1"]])
    )
    with pytest.raises(DocumentSemanticError) as exc:
        document_to_net(doc)
    assert "XYZ" in str(exc.value)


def test_value_out_of_carrier():
    doc = parse_net_document(_water_json(lineale="prob", default_weight="0",
                                         pre=[["H2", "t", "2"]], post=[]))
    with pytest.raises(DocumentSemanticError):
        document_to_net(doc)


def test_unparsable_value():
    doc = parse_net_document(_water_json(default_weight="zero"))
    with pytest.raises(DocumentSemanticError):
        document_to_net(doc)


def test_duplicate_labels_and_arcs():
    doc = parse_net_document(_water_json(places=["H2", "H2", "H2O"]))
    with pytest.raises(DocumentSemanticError):
        document_to_net(doc)
    doc = parse_net_document(
        _water_json(pre=[["H2", "t", "2"], ["H2", "t", "1"]])
    )
    with pytest.raises(DocumentSemanticError):
        document_to_net(doc)


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"pre": [["H2", "t", "2"], ["O2", "t", 1]]}, "pre[1] must be a string"),
        ({"post": [["H2O", "t"]]}, "post[0] must be a [place, transition, value] triple"),
        ({"pre": [["H2", "t", "2"], "O2"]}, "pre[1] must be a [place, transition, value] triple"),
        ({"places": ["H2", 7]}, "places[1] must be a string"),
        ({"pre": [["H2", "t", "2"], ["O2", "t", "x"]]}, "pre[1]: not an integer: 'x'"),
        (
            {"post": [["H2O", "t", "2"], ["H2O", "t", "2"]]},
            "post[1]: duplicate arc for ('H2O', 't')",
        ),
        ({"pre": [["H2", "u", "2"]]}, "pre[0]: unknown transition label 'u'"),
        ({"default_weight": "-1"}, "default_weight: nat payload must be nonnegative, got -1"),
    ],
)
def test_document_errors_name_the_item(changes, message):
    with pytest.raises(DialnetError) as exc:
        document_to_net(parse_net_document(_water_json(**changes)))
    assert str(exc.value) == message


def test_each_weight_text_is_parsed_once(monkeypatch):
    from dialnet.lineale import Lineale

    parsed = []
    parse = Lineale.parse
    monkeypatch.setattr(Lineale, "parse", lambda lin, text: parsed.append(text) or parse(lin, text))
    pre = [["H2", "t", "2"], ["O2", "t", "2"]]
    net = document_to_net(parse_net_document(_water_json(pre=pre, post=[["H2O", "t", "0"]])))
    assert sorted(parsed) == ["0", "2"]
    # equal texts share one payload object
    assert len(net.pre_arcs) == 2
    assert len({id(v) for v in net.pre_arcs.values()}) == 1


def test_empty_carriers_are_rejected():
    doc = parse_net_document(_water_json(places=[]))
    with pytest.raises(DocumentSemanticError):
        document_to_net(doc)


# ---------------------------------------------------------------------------
# morphism documents
# ---------------------------------------------------------------------------


def lowered_water_doc():
    obj = json.loads(WATER_TEXT)
    obj["pre"] = [["H2", "t", "1"], ["O2", "t", "1"]]
    return obj


def morphism_json(source, target, f, big_f):
    return json.dumps(
        {
            "format_version": "1",
            "source": source,
            "target": target,
            "f": f,
            "F": big_f,
        }
    )


def test_morphism_document_with_file_ends(tmp_path):
    (tmp_path / "a.net").write_text(WATER_TEXT, encoding="utf-8")
    (tmp_path / "b.net").write_text(
        json.dumps(lowered_water_doc()), encoding="utf-8"
    )
    text = morphism_json(
        "a.net",
        "b.net",
        {"H2": "H2", "O2": "O2", "H2O": "H2O"},
        {"t": "t"},
    )
    mdoc = parse_morphism_document(text)
    source, target, fwd, bwd = resolve_morphism_document(mdoc, tmp_path)
    assert source == build_example("water")
    assert check_net_morphism(source, target, fwd, bwd) == []


def test_morphism_document_with_inline_ends():
    text = morphism_json(
        json.loads(WATER_TEXT),
        lowered_water_doc(),
        {"H2": "H2", "O2": "O2", "H2O": "H2O"},
        {"t": "t"},
    )
    mdoc = parse_morphism_document(text)
    assert isinstance(mdoc.source, NetDocument)
    source, target, fwd, bwd = resolve_morphism_document(mdoc)
    assert check_net_morphism(source, target, fwd, bwd) == []


def test_transition_map_runs_target_to_source():
    # F keys are TARGET transitions; a map keyed by source labels that
    # do not exist in the target must be rejected
    water = json.loads(WATER_TEXT)
    other = json.loads(WATER_TEXT)
    other["transitions"] = ["u"]
    other["pre"] = [["H2", "u", "2"], ["O2", "u", "1"]]
    other["post"] = [["H2O", "u", "2"]]
    good = parse_morphism_document(
        morphism_json(water, other,
                      {"H2": "H2", "O2": "O2", "H2O": "H2O"}, {"u": "t"})
    )
    _, _, fwd, bwd = resolve_morphism_document(good)
    assert bwd.table == (0,)
    bad = parse_morphism_document(
        morphism_json(water, other,
                      {"H2": "H2", "O2": "O2", "H2O": "H2O"}, {"t": "u"})
    )
    with pytest.raises(DocumentSemanticError):
        resolve_morphism_document(bad)


def test_morphism_map_must_be_total():
    text = morphism_json(
        json.loads(WATER_TEXT),
        json.loads(WATER_TEXT),
        {"H2": "H2", "O2": "O2"},  # H2O missing
        {"t": "t"},
    )
    with pytest.raises(DocumentSemanticError) as exc:
        resolve_morphism_document(parse_morphism_document(text))
    assert "H2O" in str(exc.value)


def test_morphism_map_rejects_unknown_image():
    text = morphism_json(
        json.loads(WATER_TEXT),
        json.loads(WATER_TEXT),
        {"H2": "H2", "O2": "O2", "H2O": "steam"},
        {"t": "t"},
    )
    with pytest.raises(DocumentSemanticError):
        resolve_morphism_document(parse_morphism_document(text))


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------


def test_water_dot_shape():
    dot = export_dot(build_example("water"), example_default("water"))
    assert dot.count("shape=circle") == 3
    assert dot.count("shape=box") == 1
    assert dot.count("->") == 3
    labels = [part.split("]")[0] for part in dot.split("[label=")[1:]]
    assert sorted(l.strip('"') for l in labels) == ["1", "2", "2"]
    # arcs run place -> transition for pre and transition -> place for post
    assert '"p:H2" -> "t:t" [label="2"];' in dot
    assert '"t:t" -> "p:H2O" [label="2"];' in dot


def test_inhibitor_dot_has_negative_label():
    dot = export_dot(build_example("inhibitor"), example_default("inhibitor"))
    assert 'label="-3"' in dot


def test_circadian_dot_has_exactly_two_zero_arcs():
    dot = export_dot(build_example("circadian"), example_default("circadian"))
    assert dot.count('label="0"') == 2


def test_catalysis_dot_pair_labels():
    dot = export_dot(build_example("catalysis"), example_default("catalysis"))
    assert 'label="(2/5,-3)"' in dot
    assert 'label="(1/2,5)"' in dot


def test_all_default_net_has_no_edges():
    from dialnet import NAT, net_from_arcs

    silent = net_from_arcs(NAT, ("p",), ("t",), NAT.value(0), {}, {})
    dot = export_dot(silent, NAT.value(0))
    assert "->" not in dot
    assert "p:p" in dot


def test_dot_is_byte_stable():
    a = export_dot(build_example("sir"), example_default("sir"))
    b = export_dot(build_example("sir"), example_default("sir"))
    assert a == b


def test_dot_quotes_tricky_labels():
    from dialnet import NAT, net_from_arcs

    net = net_from_arcs(
        NAT, ('say "hi"',), ("t\\u",), NAT.value(0),
        {('say "hi"', "t\\u"): NAT.value(1)}, {},
    )
    dot = export_dot(net, NAT.value(0))
    assert '\\"hi\\"' in dot
    assert "t\\\\u" in dot


# ---------------------------------------------------------------------------
# the write path against its plain oracles
# ---------------------------------------------------------------------------


def _json_dumps_oracle(doc: NetDocument) -> str:
    """The canonical text as json.dumps lays it out."""
    payload = {
        "format_version": "1",
        "lineale": doc.lineale,
        "default_weight": doc.default_weight,
        "places": list(doc.places),
        "transitions": list(doc.transitions),
        "pre": [list(t) for t in doc.pre],
        "post": [list(t) for t in doc.post],
    }
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


def _oracle_document(net: PetriNet, default=None) -> NetDocument:
    """net_to_document as a value-keyed count and a per-cell != filter."""
    if default is None:
        counts = {}
        for obj in (dense.pre(net), dense.post(net)):
            for v in obj.cells:
                counts[v] = counts.get(v, 0) + 1
        d = max(counts, key=counts.__getitem__) if counts else net.lin.unit_payload
    else:
        d = default.payload
    places = tuple(net.places.label(i) for i in range(net.places.size))
    transitions = tuple(net.transitions.label(i) for i in range(net.transitions.size))

    def arcs(obj):
        return tuple(
            (p, t, format_payload(v))
            for (p, t), v in zip(itertools.product(places, transitions), obj.cells)
            if v != d
        )

    return NetDocument(
        net.lin.tag, format_payload(d), places, transitions, arcs(dense.pre(net)), arcs(dense.post(net))
    )


def _oracle_dot(doc: NetDocument) -> str:
    def q(s):
        return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["digraph net {", "  rankdir=LR;"]
    lines += [f"  {q('p:' + p)} [shape=circle, label={q(p)}];" for p in doc.places]
    lines += [f"  {q('t:' + t)} [shape=box, label={q(t)}];" for t in doc.transitions]
    lines += [f"  {q('p:' + p)} -> {q('t:' + t)} [label={q(v)}];" for p, t, v in doc.pre]
    lines += [f"  {q('t:' + t)} -> {q('p:' + p)} [label={q(v)}];" for p, t, v in doc.post]
    return "\n".join(lines + ["}"]) + "\n"


def _assert_write_path_matches_oracle(net: PetriNet, default=None) -> None:
    doc = net_to_document(net, default)
    expected = _oracle_document(net, default)
    assert doc == expected
    assert serialize_net_document(doc) == _json_dumps_oracle(expected)
    assert export_dot(net, default) == _oracle_dot(expected)


_TRICKY_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\/\x00\x01\x1f\x7f\u2028\u00e9\u4e2d\U0001f600{}[],: '),
        st.characters(),
    ),
    max_size=6,
)


@settings(max_examples=300)
@given(
    st.builds(
        NetDocument,
        lineale=_TRICKY_TEXT,
        default_weight=_TRICKY_TEXT,
        places=st.lists(_TRICKY_TEXT, max_size=4).map(tuple),
        transitions=st.lists(_TRICKY_TEXT, max_size=4).map(tuple),
        pre=st.lists(st.tuples(_TRICKY_TEXT, _TRICKY_TEXT, _TRICKY_TEXT), max_size=4).map(tuple),
        post=st.lists(st.tuples(_TRICKY_TEXT, _TRICKY_TEXT, _TRICKY_TEXT), max_size=4).map(tuple),
    )
)
def test_serializer_matches_json_dumps(doc):
    assert serialize_net_document(doc) == _json_dumps_oracle(doc)


# Value texts per lineale.  Parsing a text again gives a fresh payload
# object (big ints, Fractions and pairs are not cached), so a net can
# hold equal payloads that are distinct objects.
_VALUE_TEXTS = {
    "bool2": ("true", "false"),
    "nat": ("0", "1", "2", "100000000000000000000"),
    "prob": ("0", "1", "1/2", "2/3"),
    "prod(prob,int)": ("(1,0)", "(1/2,5)", "(2/5,-3)", "(1/2,100000000000000000000)"),
}


@st.composite
def _nets(draw, tag=None, max_places=4, max_transitions=4):
    tag = tag or draw(st.sampled_from(sorted(_VALUE_TEXTS)))
    lin = get_lineale(tag)
    texts = _VALUE_TEXTS[tag]
    shared = {t: lin.parse(t).payload for t in texts}
    n_p = draw(st.integers(0, max_places))
    n_t = draw(st.integers(0, max_transitions))
    labelled = draw(st.booleans())

    def carrier(n, prefix):
        return FinSet(n, tuple(f"{prefix}{i}" for i in range(n)) if labelled else None)

    def cell():
        text = draw(st.sampled_from(texts))
        return shared[text] if draw(st.booleans()) else lin.parse(text).payload

    def obj(places, transitions):
        return DialObject(lin, places, transitions, tuple(cell() for _ in range(n_p * n_t)))

    places, transitions = carrier(n_p, "p"), carrier(n_t, "t")
    return dense.net_from_relations(obj(places, transitions), obj(places, transitions))


@settings(max_examples=200, deadline=None)
@given(_nets(), st.data())
def test_write_path_matches_value_keyed_oracle(net, data):
    default = None
    if data.draw(st.booleans()):
        default = net.lin.parse(data.draw(st.sampled_from(_VALUE_TEXTS[net.lin.tag])))
    _assert_write_path_matches_oracle(net, default)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_VALUE_TEXTS)).flatmap(
    lambda tag: st.tuples(_nets(tag, 3, 2), _nets(tag, 3, 2))
))
def test_write_path_matches_oracle_on_combined_nets(pair):
    a, b = pair
    for combine in (net_with, net_oplus, net_tensor):
        _assert_write_path_matches_oracle(combine(a, b))


@st.composite
def _labelled_nets(draw):
    """Nets whose labels need escaping: quotes, backslashes, control and
    non-ASCII characters."""
    tag = draw(st.sampled_from(sorted(_VALUE_TEXTS)))
    lin = get_lineale(tag)
    labels = st.lists(_TRICKY_TEXT, unique=True, max_size=4).map(tuple)
    places, transitions = draw(labels), draw(labels)
    value = st.sampled_from(_VALUE_TEXTS[tag]).map(lin.parse)
    cells = st.tuples(st.sampled_from(places), st.sampled_from(transitions))
    arcs = st.dictionaries(cells, value) if places and transitions else st.just({})
    return net_from_arcs(lin, places, transitions, draw(value), draw(arcs), draw(arcs))


@settings(max_examples=300, deadline=None)
@given(st.one_of(_labelled_nets(), _nets()), st.data())
def test_net_text_matches_the_document_path_and_json_dumps(net, data):
    # the direct writer against the NetDocument path and the plain oracles,
    # with the net's own default or an explicit, often different, one
    default = None
    if data.draw(st.booleans()):
        default = net.lin.parse(data.draw(st.sampled_from(_VALUE_TEXTS[net.lin.tag])))
    text = serialize_net(net, default)
    assert text == _json_dumps_oracle(_oracle_document(net, default))
    try:
        data = text.encode("utf-8")
    except UnicodeEncodeError:
        # hypothesis can draw a lone surrogate, which has no UTF-8 form; the
        # reader refuses such a label, so there is no document to compare
        with pytest.raises(DocumentSyntaxError, match="holds a lone surrogate") as want:
            net_to_document(net, default)
        with tempfile.TemporaryDirectory() as tmp, pytest.raises(DocumentSyntaxError) as got:
            save_net(net, Path(tmp) / "n.net")
        assert str(got.value) == str(want.value)
        return
    assert text == serialize_net_document(net_to_document(net, default))
    with tempfile.TemporaryDirectory() as tmp:
        save_net(net, Path(tmp) / "n.net")
        assert (Path(tmp) / "n.net").read_bytes() == serialize_net(net).encode("utf-8")


_PROB = get_lineale("prob")
_HALF = Fraction(1, 2)
# 1/2 as two distinct objects, and an arc equal to the default 0: by value,
# 1/2 and 0 each fill three cells, a tie that 1/2, met first, wins
_HALVES = net_from_arcs(
    _PROB, ("p",), ("a", "b", "c"), _PROB.value(Fraction(0)),
    {("p", "a"): _PROB.value(_HALF), ("p", "b"): _PROB.value(Fraction(2, 4)),
     ("p", "c"): _PROB.value(Fraction(0))},
    {("p", "a"): _PROB.value(_HALF)},
)


def test_net_from_arcs_counts_its_cells_by_value():
    assert (_HALVES.default, _HALVES.pre_arcs, _HALVES.post_arcs) == (_HALF, {2: 0}, {1: 0, 2: 0})


@settings(max_examples=200, deadline=None)
@given(_labelled_nets())
@example(_HALVES)
def test_net_from_arcs_equals_the_net_of_its_dense_relations(net):
    oracle = dense.net_from_relations(dense.pre(net), dense.post(net))
    assert net == oracle
    assert (net.default, net.pre_arcs, net.post_arcs) == (oracle.default, oracle.pre_arcs, oracle.post_arcs)


_NAT = get_lineale("nat")


@settings(max_examples=300, deadline=None)
@given(st.one_of(_labelled_nets(), _nets()), st.integers(0, 4))
@example(
    net_from_arcs(
        _NAT, ('say "hi"', "a\\b"), ("t\\u", '"'), _NAT.value(0),
        {('say "hi"', "t\\u"): _NAT.value(1), ("a\\b", '"'): _NAT.value(2)},
        {("a\\b", "t\\u"): _NAT.value(1)},
    ),
    1,
)
def test_dot_matches_the_per_arc_oracle(net, pick):
    # export_dot quotes each node id and weight text once; the oracle quotes
    # both ends and the weight text of every arc.  pick 0 keeps the net's
    # own default, any other pick an explicit default that differs from it
    others = [t for t in _VALUE_TEXTS[net.lin.tag] if net.lin.parse(t).payload != net.default]
    default = net.lin.parse(others[(pick - 1) % len(others)]) if pick else None
    assert export_dot(net, default) == _oracle_dot(_oracle_document(net, default))


@pytest.mark.parametrize("key", ["places", "transitions"])
def test_save_net_refuses_a_lone_surrogate_label_and_writes_nothing(tmp_path, key):
    nat = get_lineale("nat")
    labels = {"places": ["p", "q"], "transitions": ["t", "s"]}
    labels[key][1] += "\ud800"
    net = net_from_arcs(
        nat, tuple(labels["places"]), tuple(labels["transitions"]), nat.parse("0"),
        {("p", "t"): nat.parse("1")}, {},
    )
    path = tmp_path / "n.net"
    with pytest.raises(DocumentSyntaxError) as got:
        save_net(net, path)
    assert str(got.value) == f"{key}[1] holds a lone surrogate"
    assert not path.exists()


def test_example_text_is_the_net_text():
    from dialnet.cli import main

    for name in EXAMPLE_NAMES:
        net, default = build_example(name), example_default(name)
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["example", "--name", name]) == 0
        assert out.getvalue() == serialize_net(net, default)
        assert out.getvalue() == serialize_net_document(net_to_document(net, default))


def test_modal_default_merges_equal_payload_objects():
    from fractions import Fraction

    prob = get_lineale("prob")
    places, transitions = FinSet(1), FinSet(4)
    # 1/2 sits in two distinct objects, 1/3 in one object used twice:
    # a per-object count would see 1/3 first, the value count sees a tie
    # that the first appearance, 1/2, wins
    third = Fraction(1, 3)
    pre = DialObject(prob, places, transitions, (Fraction(1, 2), third, third, Fraction(1, 2)))
    net = dense.net_from_relations(pre, pre)
    assert net_to_document(net).default_weight == "1/2"
    _assert_write_path_matches_oracle(net)
    # a majority spread over distinct objects still wins
    many = (Fraction(2, 3), Fraction(2, 3), Fraction(2, 3), Fraction(2, 3))
    net = dense.net_from_relations(pre, DialObject(prob, places, transitions, many))
    assert net_to_document(net).default_weight == "2/3"
    _assert_write_path_matches_oracle(net)


# ---------------------------------------------------------------------------
# the document edge under fuzzing
# ---------------------------------------------------------------------------

_EDGE_TEXT = st.one_of(
    st.text(max_size=6),
    st.sampled_from(
        ["1", "nat", "prob", "bool2", "kleene3", "int", "prod(prob,int)",
         "prod(bool2,kleene3)", "prod(", "prod(nat)", "prod(nat,", "prod(,)",
         "0", "-1", "1/2", "1/0", "(1/2,5)", "((true,1),0)", "true", "p", "t", ""]
    ),
    st.integers(0, 40).map(lambda n: "prod(bool2," * n + "bool2" + ")" * n),
    st.integers(0, 40).map(lambda n: "prod(" * n + "nat" + ")" * n),
)
_JSON_VALUE = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), _EDGE_TEXT),
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.dictionaries(st.one_of(_EDGE_TEXT, st.sampled_from(["f", "F", "pre"])), kids, max_size=4),
    ),
    max_leaves=12,
)
_LABELS = st.lists(st.sampled_from(["p", "q", "t", "u", ""]), max_size=3)
_TRIPLES = st.lists(st.lists(_EDGE_TEXT, max_size=4), max_size=4)
_NET_OBJECT = st.fixed_dictionaries(
    {
        "format_version": st.one_of(st.just("1"), _JSON_VALUE),
        "lineale": st.one_of(_EDGE_TEXT, _JSON_VALUE),
        "default_weight": st.one_of(_EDGE_TEXT, _JSON_VALUE),
        "places": st.one_of(_LABELS, _JSON_VALUE),
        "transitions": st.one_of(_LABELS, _JSON_VALUE),
        "pre": st.one_of(_TRIPLES, _JSON_VALUE),
        "post": st.one_of(_TRIPLES, _JSON_VALUE),
    }
)
_LABEL_MAP = st.dictionaries(st.sampled_from(["p", "q", "t", "u"]), _EDGE_TEXT, max_size=3)
_MORPHISM_OBJECT = st.fixed_dictionaries(
    {
        "format_version": st.one_of(st.just("1"), _JSON_VALUE),
        "source": st.one_of(_NET_OBJECT, _JSON_VALUE),
        "target": st.one_of(_NET_OBJECT, _JSON_VALUE),
        "f": st.one_of(_LABEL_MAP, _JSON_VALUE),
        "F": st.one_of(_LABEL_MAP, _JSON_VALUE),
    }
)
# an object's text with one of its keys given a second time
_REPEATED_KEY = st.one_of(_NET_OBJECT, _MORPHISM_OBJECT, _LABEL_MAP.filter(bool)).flatmap(
    lambda obj: st.tuples(st.sampled_from(sorted(obj)), _JSON_VALUE).map(
        lambda kv: f"{json.dumps(obj)[:-1]}, {json.dumps(kv[0])}: {json.dumps(kv[1])}}}"
    )
)
_EDGE_DOCUMENTS = st.one_of(
    st.one_of(_NET_OBJECT, _MORPHISM_OBJECT, _JSON_VALUE).map(json.dumps),
    _REPEATED_KEY,
    st.integers(0, 5000).map(lambda n: "[" * n + "]" * n),
    st.text(max_size=20),
).flatmap(lambda text: st.one_of(st.just(text), st.integers(0, len(text)).map(lambda k: text[:k])))


@settings(max_examples=400, deadline=None)
@given(_EDGE_DOCUMENTS)
def test_document_edge_raises_only_dialnet_errors(text):
    try:
        document_to_net(parse_net_document(text))
    except DialnetError:
        pass
    try:
        mdoc = parse_morphism_document(text)
        if isinstance(mdoc.source, NetDocument) and isinstance(mdoc.target, NetDocument):
            resolve_morphism_document(mdoc)
    except DialnetError:
        pass
