"""The CLI refuses a broken document exactly as the per-item reader does.

Over hypothesis corpora of broken net and morphism documents (wrong types,
wrong triple lengths, unknown, empty and repeated labels, repeated arcs,
bad weights, several defects at once in pre and post, across syntax and
semantics), `validate`, `export-dot` and `check-morphism` give the exit
code and the `error:` line of tests/reader_oracle.py, and accept exactly
what it accepts.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

import reader_oracle
from dialnet.cli import main

_BAD = st.one_of(
    st.none(), st.booleans(), st.integers(-1, 2), st.just([]), st.just(["p0"]), st.just({"p0": 1})
)
_PLACE = st.sampled_from(["p0", "p1", "p2", "t0", "q", "", "a\ud800"])
_TRANSITION = st.sampled_from(["t0", "t1", "p0", "q", ""])
_WEIGHT = st.sampled_from(
    ["0", "1", "2", " 3 ", "1/2", "2/4", "-1", "x", "", "1/0", "true", "false",
     "(1,0)", "(1/2,-3)", "(2,0)", "(1)", "9" * 70 + "x"]
)
# lineales, each with weight texts it reads
_GOOD = {
    "nat": ["0", "1", "2"], "int": ["-1", "0", "3"], "prob": ["0", "1/2", "2/4", "1"],
    "bool2": ["true", "false"], "kleene3": ["-1", "0", "1"], " nat ": ["0", "1"],
    "prod(prob,int)": ["(1,0)", "(1/2,-3)"],
}


def _mostly(draw, good, bad, percent: int = 85):
    """A draw from good, or in about 100 - percent cases from bad."""
    return draw(good) if draw(st.integers(0, 99)) < percent else draw(bad)


@st.composite
def _triples(draw, good):
    def triple():
        place = _mostly(draw, st.sampled_from(["p0", "p1", "p2"]), _PLACE)
        transition = _mostly(draw, st.sampled_from(["t0", "t1"]), _TRANSITION)
        weight = _mostly(draw, good, _WEIGHT)
        shapes = st.one_of(
            st.lists(st.one_of(_PLACE, _WEIGHT), max_size=4), _BAD,
            st.permutations([place, transition, draw(_BAD)]),
        )
        return _mostly(draw, st.just([place, transition, weight]), shapes, 90)

    return [triple() for _ in range(draw(st.integers(0, 6)))]


@st.composite
def _nets(draw):
    """A net document object, often with one or more defects."""
    places, transitions = st.lists(_PLACE, max_size=4), st.lists(_TRANSITION, max_size=3)
    lineale = draw(st.sampled_from(sorted(_GOOD)))
    good, unknown = st.sampled_from(_GOOD[lineale]), st.sampled_from(["n", "prod(n"])
    obj = {
        "format_version": "1",
        "lineale": _mostly(draw, st.just(lineale), st.one_of(unknown, _BAD)),
        "default_weight": _mostly(draw, good, st.one_of(_WEIGHT, _BAD)),
        "places": _mostly(draw, st.just(["p0", "p1", "p2"]), st.one_of(places, _BAD)),
        "transitions": _mostly(draw, st.just(["t0", "t1"]), st.one_of(transitions, _BAD)),
        "pre": _mostly(draw, _triples(good), _BAD, 95),
        "post": _mostly(draw, _triples(good), _BAD, 95),
    }
    change = _mostly(draw, st.just(None), st.sampled_from(["drop", "extra", "version"]), 90)
    if change == "drop":
        del obj[draw(st.sampled_from(sorted(obj)))]
    elif change == "extra":
        obj["extra"] = 1
    elif change == "version":
        obj["format_version"] = draw(st.sampled_from(["2", 1, None]))
    return obj


# valid nat nets over the same labels, so that the maps of a morphism are reached
_VALID_NETS = st.fixed_dictionaries(
    {
        "format_version": st.just("1"),
        "lineale": st.just("nat"),
        "default_weight": st.sampled_from(["0", "1"]),
        "places": st.just(["p0", "p1", "p2"]),
        "transitions": st.just(["t0", "t1"]),
        "pre": st.lists(st.sampled_from([["p0", "t0", "1"], ["p2", "t1", "2"]]), max_size=1),
        "post": st.just([]),
    }
)


@st.composite
def _maps(draw, labels):
    """A label map sending labels to themselves, with some entries dropped,
    redirected, added or given a value of the wrong type."""
    entries = {k: k for k in labels}
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.one_of(st.sampled_from(sorted(entries)), _PLACE, _TRANSITION))
        if draw(st.booleans()):
            entries.pop(k, None)
        else:
            entries[k] = draw(st.one_of(_PLACE, _BAD))
    return entries


@st.composite
def _morphisms(draw):
    end = lambda: _mostly(draw, _VALID_NETS, st.one_of(_nets(), _BAD), 80)
    source, target = end(), end()
    maps = (_maps(["p0", "p1", "p2"]), _maps(["t0", "t1"]))
    f, big_f = (_mostly(draw, labels, _BAD, 90) for labels in maps)
    return {"format_version": "1", "source": source, "target": target, "f": f, "F": big_f}


def _run(argv, text: str):
    """Exit code, stdout, stderr of one command on text saved as a file,
    and whether the command wrote its --out file."""
    with tempfile.TemporaryDirectory() as d:
        path, out_path = Path(d) / "doc.json", Path(d) / "out.dot"
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([a.format(doc=path, out=out_path) for a in argv])
        return code, out.getvalue(), err.getvalue(), out_path.exists()


def _assert_as_oracle(read, argv, obj) -> None:
    text = json.dumps(obj)
    expected_code, expected_err = reader_oracle.exit_and_error(read, text)
    code, out, err, wrote = _run(argv, text)
    if expected_code:
        assert (code, out, err, wrote) == (expected_code, "", expected_err, False)
    else:  # the document reads; check-morphism then checks the morphism itself,
        # which ends over two lineales fail
        assert code == 0 or argv[0] == "check-morphism" and code == 3
        assert err == "" or err.startswith("error: objects over ") and not out
        if argv[0] == "validate":  # the summary gives the texts and arc counts as written
            places, transitions = obj["places"], obj["transitions"]
            assert out.splitlines()[1:] == [
                f"  lineale: {obj['lineale']}",
                f"  places ({len(places)}): {', '.join(places)}",
                f"  transitions ({len(transitions)}): {', '.join(transitions)}",
                f"  arcs: {len(obj['pre'])} pre, {len(obj['post'])} post "
                f"(default weight {obj['default_weight']})",
            ]


@settings(max_examples=400, deadline=None)
@given(_nets(), st.sampled_from([["validate", "{doc}"], ["export-dot", "{doc}", "--out", "{out}"]]))
@example(  # two defects in one arc: its unknown place is named before its bad weight
    {"format_version": "1", "lineale": "nat", "default_weight": "0", "places": ["p0"],
     "transitions": ["t0"], "pre": [["p0", "t0", "1"], ["q", "t0", "x"]],
     "post": [["p0", "t0", "x"]]},
    ["validate", "{doc}"],
)
@example(  # an empty place label is named before a repeated transition label
    {"format_version": "1", "lineale": "nat", "default_weight": "0", "places": ["p0", ""],
     "transitions": ["t0", "t0"], "pre": [], "post": []},
    ["export-dot", "{doc}", "--out", "{out}"],
)
@example(  # a repeated arc in pre is named before a bad weight in post
    {"format_version": "1", "lineale": "prob", "default_weight": "1", "places": ["p0", "p1"],
     "transitions": ["t0"], "pre": [["p1", "t0", "1/2"], ["p1", "t0", "2/4"]],
     "post": [["p0", "t0", "3/2"]]},
    ["validate", "{doc}"],
)
@example(  # a syntax defect in post is named before a semantic one in pre
    {"format_version": "1", "lineale": "nat", "default_weight": "0", "places": ["p0"],
     "transitions": ["t0"], "pre": [["q", "t0", "x"]], "post": [["p0", "t0"]]},
    ["validate", "{doc}"],
)
@example(  # a long unknown label is echoed cut, with its length
    {"format_version": "1", "lineale": " nat ", "default_weight": "0", "places": ["p0", "p1", "p2"],
     "transitions": ["t0", "t1"], "pre": [], "post": [["p0", "9" * 70 + "x", "p0"]]},
    ["validate", "{doc}"],
)
def test_net_documents_are_refused_as_the_oracle_refuses_them(obj, argv):
    _assert_as_oracle(reader_oracle.read_net, argv, obj)


@settings(max_examples=400, deadline=None)
@given(_morphisms())
def test_morphism_documents_are_refused_as_the_oracle_refuses_them(obj):
    _assert_as_oracle(reader_oracle.read_morphism, ["check-morphism", "{doc}"], obj)
