"""The on-disk document format and the DOT export.

Shipped example files are the canonical serializer output, so the
round-trip tests compare raw bytes, not parsed structures.
"""

import json

import pytest

from dialnet import (
    BOOL2,
    EXAMPLE_NAMES,
    DocumentSemanticError,
    DocumentSyntaxError,
    NetDocument,
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
    serialize_net_document,
    TagMismatch,
)

WATER_TEXT = example_path("water").read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# net documents
# ---------------------------------------------------------------------------


def test_shipped_files_roundtrip_bit_exactly():
    for name in EXAMPLE_NAMES:
        text = example_path(name).read_text(encoding="utf-8")
        doc = parse_net_document(text)
        assert serialize_net_document(doc) == text, name


def test_shipped_files_match_builders():
    for name in EXAMPLE_NAMES:
        assert load_net(example_path(name)) == build_example(name), name


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
    p = tmp_path / "w.net"
    save_net(build_example("water"), p, example_default("water"))
    assert p.read_text(encoding="utf-8") == WATER_TEXT
    assert load_net(p) == build_example("water")


def test_default_weight_fills_unlisted_arcs():
    doc = parse_net_document(WATER_TEXT)
    net = document_to_net(doc)
    u = net.places.index_of("H2O")
    assert net.pre.weight_at(u, 0).payload == 0


def test_modal_default_when_unspecified():
    # without an explicit default the most common weight is factored out
    net = build_example("circadian")
    doc = net_to_document(net)
    assert doc.default_weight == "-1"
    assert document_to_net(doc) == net


def test_randomized_nets_roundtrip():
    import random

    from dialnet import PetriNet, dial_object, get_lineale
    from dialnet.finset import FinSet

    rng = random.Random(101)
    for tag in ("bool2", "kleene3", "nat", "int", "prob", "prod(prob,int)"):
        lin = get_lineale(tag)
        for _ in range(10):
            places = FinSet(rng.randint(1, 4), None)
            transitions = FinSet(rng.randint(1, 3), None)
            mk = lambda: dial_object(
                lin, places, transitions, lambda u, x: lin.sample(rng, 6)
            )
            net = PetriNet(mk(), mk())
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
