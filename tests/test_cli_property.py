"""The whole CLI on hostile input: documents drawn from the shipped nets and
morphism documents with odd leaves and keys, under odd arguments.

Every run must end in a documented exit code (0, 2, 3 or 4) with no
exception escaping main, must print only text that UTF-8 can carry, and
must keep every stderr line under 300 bytes.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings, strategies as st

from dialnet.cli import main
from dialnet.netdoc import EXAMPLE_NAMES, example_path


class Raw(str):
    """JSON text written into a document as it is."""


class Obj(list):
    """A JSON object as its (key, value) pairs, so a key can repeat."""


def dump(value) -> str:
    if isinstance(value, Raw):
        return value
    if isinstance(value, Obj):
        return "{" + ", ".join(f"{json.dumps(k)}: {dump(v)}" for k, v in value) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(dump, value)) + "]"
    return json.dumps(value)


def shipped(name: str) -> Obj:
    return json.loads(example_path(name).read_text(encoding="utf-8"), object_pairs_hook=Obj)


def identity_morphism(name: str, inline: bool) -> Obj:
    net = shipped(name)
    end = net if inline else str(example_path(name))
    places, transitions = dict(net)["places"], dict(net)["transitions"]
    return Obj([
        ("format_version", "1"), ("source", end), ("target", end),
        ("f", Obj((p, p) for p in places)), ("F", Obj((t, t) for t in transitions)),
    ])


LONG = 5000
texts = st.text(st.characters(blacklist_characters="/"), max_size=12) | st.sampled_from([
    "", " ", "x" * LONG, "é水🜁" * 40, "\ud800", "a\udfffb", "\x00", "9" * LONG,
    "-" + "9" * LONG, "1/" + "3" * LONG, f"(1,{'9' * LONG})", "prod(" * 40 + "nat" + ")" * 40,
    "true", "-1", "1/0", "(0,1)", "prod(nat,int)", "1", "0", "H2", "t",
])
leaves = st.one_of(
    texts, texts, texts,  # most often a text where a text belongs, for the semantic checks
    st.builds(Raw, st.sampled_from([
        "9" * LONG, "-" + "9" * LONG, "1e400", "-0.0", "[" * LONG + "]" * LONG, "null", "[]", "{}",
    ])),
    st.integers(), st.booleans(), st.none(), st.floats(allow_nan=False),
    st.just(Obj()), st.lists(st.text(max_size=3), max_size=3),
)


def paths(value, at=()):
    """Every position in a document, as the indices that lead to it, inner ones first."""
    if isinstance(value, list):  # Obj too: a pair's value is at (i, 1)
        for i, item in enumerate(value):
            yield from paths(item[1] if isinstance(value, Obj) else item, (*at, i))
    yield at


def get(value, at):
    for i in at:
        value = value[i][1] if isinstance(value, Obj) else value[i]
    return value


def put(value, at, leaf):
    if not at:
        return leaf
    i, rest = at[0], at[1:]
    out = type(value)(value)
    if isinstance(value, Obj):
        out[i] = (value[i][0], put(value[i][1], rest, leaf))
    else:
        out[i] = put(value[i], rest, leaf)
    return out


@st.composite
def documents(draw):
    name = draw(st.sampled_from(EXAMPLE_NAMES))
    kind = draw(st.sampled_from(["net", "morphism", "inline morphism"]))
    doc = shipped(name) if kind == "net" else identity_morphism(name, kind == "inline morphism")
    for _ in range(draw(st.sampled_from([0, 1, 1, 2, 3]))):
        change = draw(st.sampled_from(["text"] * 3 + ["leaf", "drop key", "repeat key"]))
        where = [at for at in paths(doc) if isinstance(get(doc, at), str)]
        if change == "text" and where:  # a label, weight, tag or path replaced by another text
            doc = put(doc, draw(st.sampled_from(where)), draw(texts))
        elif change in ("text", "leaf"):
            doc = put(doc, draw(st.sampled_from(list(paths(doc)))), draw(leaves))
        elif isinstance(doc, Obj) and doc:
            i = draw(st.integers(0, len(doc) - 1))
            doc = Obj(doc[:i] + doc[i + 1 :] if change == "drop key" else [*doc, doc[i]])
    return kind, dump(doc)


odd = st.sampled_from([
    "", "-", "--", "-h", "--out", "--op", "--bogus", "x" * LONG, "\ud800", "\x00", "0", "-1",
    "9" * LONG, "tensor", "nat", "é水", "é水🜁" * 100, "--cases", "--seed", "--lineale", "--mutate-imp",
])


@st.composite
def command_lines(draw, kind: str, doc: str, other: str, out: str):
    """argv for one subcommand, mostly one that reads the drawn kind of
    document, or odd arguments."""
    fitting = ["check-morphism"] if "morphism" in kind else ["validate", "export-dot", "combine"]
    command = draw(st.sampled_from(fitting) | st.sampled_from(
        ["validate", "check-morphism", "export-dot", "combine", "laws", "example", "odd"]
    ))
    bad_outs = [out + ".d/x", out[: out.rindex("/")], out + "\ud800", out + "\x00", "a" * LONG]
    outs = st.sampled_from([out] * 5 + bad_outs)
    if command in ("validate", "check-morphism"):
        argv = [command, doc]
    elif command == "export-dot":
        argv = ["export-dot", doc, *draw(st.sampled_from([[], ["--out", draw(outs)]]))]
    elif command == "combine":
        op = draw(st.sampled_from(["tensor", "hom", "with", "oplus"] * 4) | odd)
        nets = draw(st.permutations([doc, draw(st.sampled_from([doc, other]))]))
        argv = ["combine", "--op", op, *nets, "--out", draw(outs)]
    elif command == "laws":
        tag = draw(st.sampled_from(["nat", "kleene3", "bool2", "prod(prob,int)"] * 2) | texts)
        cases = draw(st.sampled_from(["1", "2"] * 4 + ["0", "x"]) | odd)
        argv = ["laws", "--lineale", tag, "--cases", cases]
        argv += draw(st.sampled_from([[], ["--seed", "3"], ["--mutate-imp"]]))
    elif command == "example":
        name = draw(st.sampled_from(EXAMPLE_NAMES) | odd)
        argv = ["example", "--name", name, *draw(st.sampled_from([[], ["--out", draw(outs)]]))]
    else:
        argv = draw(st.lists(odd, max_size=4))
    return draw(st.permutations(argv)) if draw(st.integers(0, 9)) == 0 else argv


@settings(
    max_examples=150, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(documents(), st.data())
def test_the_cli_ends_every_run_with_a_documented_code_and_short_errors(tmp_path_factory, drawn, data):
    (kind, text), work = drawn, tmp_path_factory.mktemp("cli")
    doc = work / "doc.json"
    doc.write_text(text, encoding="utf-8")
    other = str(example_path(data.draw(st.sampled_from(EXAMPLE_NAMES))))
    argv = data.draw(command_lines(kind, str(doc), other, str(work / "out.net")))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse: usage errors and --help
            code = e.code
    assert code in (0, 2, 3, 4), (argv, err.getvalue()[:300])
    out.getvalue().encode("utf-8")  # stdout is strict UTF-8: text it cannot carry is a traceback
    for line in err.getvalue().splitlines():
        assert len(line.encode("utf-8", "backslashreplace")) < 300, (argv, line[:300])
