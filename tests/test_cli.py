"""Command-line behavior: exit codes, output shape, and file plumbing.

Commands run in-process through main(argv); stdout/stderr are captured
with redirect_* so the tests do not depend on pytest capture modes.
One subprocess test proves the module entry points work end to end.
"""

import argparse
import errno
import hashlib
import io
import json
import os
import random
import re
import resource
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import dialnet
from dialnet import example_path, load_net, net_with
from dialnet.cli import _build_parser, main
from dialnet.lineale import _echo

WATER = str(example_path("water"))
SIR = str(example_path("sir"))
CIRCADIAN = str(example_path("circadian"))


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_shipped_water():
    code, out, _ = run("validate", WATER)
    assert code == 0
    assert "ok" in out
    assert "places (3)" in out
    assert "transitions (1)" in out


def test_validate_missing_file(tmp_path):
    code, _, err = run("validate", str(tmp_path / "absent.net"))
    assert code == 2
    assert "error" in err


def test_validate_bad_json(tmp_path):
    p = tmp_path / "broken.net"
    p.write_text("{oops", encoding="utf-8")
    code, _, err = run("validate", str(p))
    assert code == 2


def test_deeply_nested_json_is_a_syntax_error(tmp_path):
    p = tmp_path / "deep.json"
    p.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    for command in ("validate", "check-morphism"):
        code, _, err = run(command, str(p))
        assert code == 2, command
        assert "nested too deeply" in err


def test_deeply_nested_product_tag_is_refused(tmp_path):
    doc = json.loads(Path(WATER).read_text(encoding="utf-8"))
    doc["lineale"] = "prod(nat," * 2000 + "nat" + ")" * 2000
    p = tmp_path / "deep_tag.net"
    p.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run("validate", str(p))
    assert code == 3
    assert "base lineales" in err


def test_validate_non_utf8_file(tmp_path):
    p = tmp_path / "utf16.net"
    p.write_bytes(b"\xff\xfe{\x00}\x00")
    code, _, err = run("validate", str(p))
    assert code == 2
    assert "cannot read" in err


def test_validate_unknown_label(tmp_path):
    obj = json.loads(example_path("water").read_text(encoding="utf-8"))
    obj["pre"].append(["XYZ", "t", "1"])
    p = tmp_path / "bad.net"
    p.write_text(json.dumps(obj), encoding="utf-8")
    code, _, err = run("validate", str(p))
    assert code == 3
    assert "XYZ" in err


def test_validate_value_outside_carrier(tmp_path):
    obj = json.loads(example_path("water").read_text(encoding="utf-8"))
    obj["lineale"] = "prob"
    p = tmp_path / "bad.net"
    p.write_text(json.dumps(obj), encoding="utf-8")
    code, _, err = run("validate", str(p))
    assert code == 3


LONG = "9" * (sys.get_int_max_str_digits() + 1)


@pytest.mark.parametrize(
    "tag, unit, text",
    [
        ("nat", "0", LONG),
        ("int", "0", "-" + LONG),
        ("prob", "1", LONG + "/1"),
        ("prob", "1", "1/" + LONG),
        ("prod(prob,int)", "(1,0)", f"(1/2,{LONG})"),
    ],
)
@pytest.mark.parametrize("where", ["default_weight", "pre[0]"])
def test_validate_names_an_over_long_integer_without_echoing_it(tmp_path, tag, unit, text, where):
    obj = {
        "format_version": "1", "lineale": tag, "places": ["p"], "transitions": ["t"],
        "default_weight": text if where == "default_weight" else unit,
        "pre": [["p", "t", text if where == "pre[0]" else unit]], "post": [],
    }
    p = tmp_path / "long.net"
    p.write_text(json.dumps(obj), encoding="utf-8")
    code, _, err = run("validate", str(p))
    assert code == 3
    assert err.count("\n") == 1 and err.startswith(f"error: {where}: ") and len(err) < 200
    assert f"{len(LONG)} digits" in err and str(sys.get_int_max_str_digits()) in err
    assert "9999" not in err


@pytest.mark.parametrize(
    "tag, unit, text, message",
    [
        ("nat", "0", "9" * 4400 + "x", "not an integer"),
        ("bool2", "true", "x" * 4400, "not a bool2 value"),
        ("bool2", "true", "\x00" * 4400, "not a bool2 value"),
        ("prob", "1", "1/" + "0" * 4000, "zero denominator in"),
        ("prod(prob,int)", "(1,0)", "1" * 4400, "not a pair value"),
        ("prod(prob,int)", "(1,0)", "(" + "1" * 4400 + ")", "missing top-level comma in pair"),
    ],
    ids=["integer", "bool2", "bool2-escapes", "zero-denominator", "pair", "pair-comma"],
)
@pytest.mark.parametrize("where", ["default_weight", "pre[0]"])
def test_validate_bounds_the_echo_of_a_long_weight_text(tmp_path, tag, unit, text, message, where):
    obj = {
        "format_version": "1", "lineale": tag, "places": ["p"], "transitions": ["t"],
        "default_weight": text if where == "default_weight" else unit,
        "pre": [["p", "t", text if where == "pre[0]" else unit]], "post": [],
    }
    p = tmp_path / "long.net"
    p.write_text(json.dumps(obj), encoding="utf-8")
    code, _, err = run("validate", str(p))
    assert code == 3
    assert err.count("\n") == 1 and err.startswith(f"error: {where}: {message}") and len(err) < 200
    assert err.endswith(f"… ({len(text)} characters)\n")


# ---------------------------------------------------------------------------
# check-morphism
# ---------------------------------------------------------------------------


def write_morphism(tmp_path, name, source, target, f, big_f):
    p = tmp_path / name
    p.write_text(
        json.dumps(
            {
                "format_version": "1",
                "source": source,
                "target": target,
                "f": f,
                "F": big_f,
            }
        ),
        encoding="utf-8",
    )
    return str(p)


def test_check_identity_on_sir(tmp_path):
    ids = {l: l for l in ("S", "I", "R")}
    idt = {l: l for l in ("c", "r", "i")}
    m = write_morphism(tmp_path, "id.mor", SIR, SIR, ids, idt)
    code, out, _ = run("check-morphism", m)
    assert code == 0
    assert "ok" in out


def test_check_lowering_simulation(tmp_path):
    lowered = json.loads(example_path("water").read_text(encoding="utf-8"))
    lowered["pre"] = [["H2", "t", "1"], ["O2", "t", "1"]]
    (tmp_path / "low.net").write_text(json.dumps(lowered), encoding="utf-8")
    f = {"H2": "H2", "O2": "O2", "H2O": "H2O"}
    m = write_morphism(tmp_path, "sim.mor", WATER, "low.net", f, {"t": "t"})
    code, out, _ = run("check-morphism", m)
    assert code == 0
    # the reverse raises a weight, which the order rejects
    m = write_morphism(tmp_path, "rev.mor", "low.net", WATER, f, {"t": "t"})
    code, out, _ = run("check-morphism", m)
    assert code == 3
    assert "1 violation(s)" in out
    assert "[pre]" in out and "'H2'" in out


def test_check_morphism_reports_every_point(tmp_path):
    # a deliberately scrambled backward map on sir
    f = {l: l for l in ("S", "I", "R")}
    big_f = {"c": "r", "r": "c", "i": "i"}
    m = write_morphism(tmp_path, "bad.mor", SIR, SIR, f, big_f)
    code, out, _ = run("check-morphism", m)
    assert code == 3
    assert "violation" in out


def test_check_morphism_with_nul_byte_in_source_path(tmp_path):
    f = {l: l for l in ("H2", "O2", "H2O")}
    m = write_morphism(tmp_path, "nul.mor", "wa\u0000ter.net", WATER, f, {"t": "t"})
    code, _, err = run("check-morphism", m)
    assert code == 2
    assert err.startswith("error: cannot read ")


def test_a_file_that_both_ends_name_is_read_once(tmp_path, monkeypatch):
    read = []
    load_net = dialnet.netdoc.load_net
    counted = lambda path: read.append(path) or load_net(path)
    monkeypatch.setattr(dialnet.netdoc, "load_net", counted)
    (tmp_path / "sir.net").write_text(Path(SIR).read_text(encoding="utf-8"), encoding="utf-8")
    (tmp_path / "copy.net").write_text(Path(SIR).read_text(encoding="utf-8"), encoding="utf-8")
    # a scrambled backward map, so that the violations are printed
    f, big_f = {l: l for l in ("S", "I", "R")}, {"c": "r", "r": "c", "i": "i"}
    outputs = []
    for target, reads in (("sir.net", 1), ("./sir.net", 1), ("copy.net", 2), (SIR, 2)):
        read.clear()
        m = write_morphism(tmp_path, "m.mor", "sir.net", target, f, big_f)
        outputs.append(run("check-morphism", m))
        assert len(read) == reads, target
    assert outputs[0][0] == 3 and "violation" in outputs[0][1]
    assert outputs.count(outputs[0]) == 4
    # a broken file named twice is read once and gives the error line it gave before
    (tmp_path / "broken.net").write_text("{oops", encoding="utf-8")
    read.clear()
    m = write_morphism(tmp_path, "m.mor", "broken.net", "broken.net", {}, {})
    assert run("check-morphism", m) == (2, "", (
        "error: not valid JSON: Expecting property name enclosed in double quotes: "
        "line 1 column 2 (char 1)\n"
    ))
    assert len(read) == 1


# ---------------------------------------------------------------------------
# combine
# ---------------------------------------------------------------------------


def test_combine_with_writes_validatable_file(tmp_path):
    out_path = str(tmp_path / "ww.net")
    code, out, _ = run("combine", "--op", "with", WATER, WATER, "--out", out_path)
    assert code == 0
    net = load_net(out_path)
    assert net == net_with(load_net(WATER), load_net(WATER))
    assert net.transitions.size == 2
    assert net.transitions.labels == ("left.t", "right.t")
    code, _, _ = run("validate", out_path)
    assert code == 0


def test_combine_tensor_singleton_labels(tmp_path):
    out_path = str(tmp_path / "tt.net")
    code, _, _ = run("combine", "--op", "tensor", WATER, WATER, "--out", out_path)
    assert code == 0
    net = load_net(out_path)
    assert net.places.size == 9
    assert "(H2,H2)" in net.places.labels
    assert net.transitions.labels[0].startswith("(fn")


def test_combine_hom_over_cap(tmp_path):
    code, _, err = run(
        "combine", "--op", "hom", CIRCADIAN, CIRCADIAN,
        "--out", str(tmp_path / "x.net"),
    )
    assert code == 4
    assert "cap" in err


def test_combine_with_over_cap_stops_before_building(tmp_path):
    places = [f"p{i}" for i in range(2000)]
    doc = {
        "format_version": "1", "lineale": "nat", "default_weight": "0",
        "places": places, "transitions": ["t"], "pre": [], "post": [],
    }
    path = tmp_path / "tall.net"
    path.write_text(json.dumps(doc))
    code, _, err = run(
        "combine", "--op", "with", str(path), str(path), "--out", str(tmp_path / "x.net")
    )
    assert code == 4
    assert "cap is 4096" in err
    assert not (tmp_path / "x.net").exists()


def test_combine_with_keeps_pair_labels_distinct(tmp_path):
    # unescaped, ("x,y", "z") and ("x", "y,z") would both read (x,y,z)
    paths = []
    for name, places in (("a", ["x,y", "x"]), ("b", ["z", "y,z"])):
        doc = {
            "format_version": "1", "lineale": "nat", "default_weight": "0",
            "places": places, "transitions": ["t"], "pre": [], "post": [],
        }
        paths.append(tmp_path / f"{name}.net")
        paths[-1].write_text(json.dumps(doc))
    out_path = tmp_path / "ab.net"
    code, _, _ = run("combine", "--op", "with", *map(str, paths), "--out", str(out_path))
    assert code == 0
    labels = load_net(out_path).places.labels
    assert len(set(labels)) == 4


def test_combine_unwritable_out(tmp_path):
    code, _, err = run(
        "combine", "--op", "with", WATER, WATER,
        "--out", str(tmp_path / "absent" / "x.net"),
    )
    assert code == 2
    assert "cannot write" in err


def test_combine_mixed_lineales(tmp_path):
    code, _, err = run(
        "combine", "--op", "tensor", WATER, SIR, "--out", str(tmp_path / "x.net")
    )
    assert code == 3


# (exit code, sha256 of --out) of each shipped net combined with itself, as
# written before the connectives and the writer stopped going through dense
# relations and NetDocuments; circadian's tensor and hom exceed the cap
SELF_COMBINED = {
    ("water", "tensor"): (0, "fcefe76ed34a1a490dab7064b85c123b5d49c9182f5546c35877ff73a553717e"),
    ("water", "hom"): (0, "0e88d4e521785a443b58c786bc03a8bbbb2f1dc21fab131ab0e16a424c61110d"),
    ("water", "with"): (0, "df0ac34d71144997ce79c6cf655d6342bf462bae80741535b76a784afd7d4ceb"),
    ("water", "oplus"): (0, "5397dcd82680aa8e11d000bea69977bbeb0c344f8eefd939a41546813cfefba4"),
    ("sir", "tensor"): (0, "dd016da735e7b5d624cb8cbd0c120398b6d753789f022cbd555b62264dfbe766"),
    ("sir", "hom"): (0, "7b0c09467978db85d5d8768a968316cc39e72d3eeeddb01abd65b9fbebb5934f"),
    ("sir", "with"): (0, "b1276e1c12a1b54f0f4b8395543c2df128d1e273af533052424d4447de4d1551"),
    ("sir", "oplus"): (0, "9f60176ef9031e5d863df0e5f09fe0c3bb69f69d0c1ea1ed9bd71de5e2c3ba8f"),
    ("circadian", "tensor"): (4, None),
    ("circadian", "hom"): (4, None),
    ("circadian", "with"): (0, "9f8393656c9910db41ad64d3398d4590a8b86872f834b28e613129d3a920b3d3"),
    ("circadian", "oplus"): (0, "6a31f69dc60e1178f7c1fce29817d3563fefc2045720c7b53d7ccdceaa7c39cf"),
    ("inhibitor", "tensor"): (0, "f3881ed155630420e0faab661e2007c788af3dc4f07c1b21abaa99ea7d99cf1d"),
    ("inhibitor", "hom"): (0, "8f70eee6c73fc284f990eb9ffbf0bd1324e4c132d68b0b558df8e927e3e6d6f3"),
    ("inhibitor", "with"): (0, "d5bb06e3a0264ccf9adf62707caa9eeb698877880cc547782db2b27f2d452d4e"),
    ("inhibitor", "oplus"): (0, "79037167efc68e47e00371fdf5aece1b0d563965d0986352678abd14fbc9b10b"),
    ("catalysis", "tensor"): (0, "a8432ecc47646efe421170c6aec49ae83744640b840548842fba330a8af05da6"),
    ("catalysis", "hom"): (0, "dd9ce78388b60127e4bee9d64094bb208e239f94ed2b6bbb7cc93c4eef3d3052"),
    ("catalysis", "with"): (0, "b9e35feace1d5f163cbd45292004a124da1027c32dca5453f47ab636e35e0eb5"),
    ("catalysis", "oplus"): (0, "cc4324c8e19e3a519ce9fa1101b5036a4b69804305eac97d8dca82944f1c5afe"),
}


@pytest.mark.parametrize("name, op", sorted(SELF_COMBINED))
def test_self_combined_shipped_nets_are_byte_stable(tmp_path, name, op):
    out_path = tmp_path / "out.net"
    path = str(example_path(name))
    code, _, err = run("combine", "--op", op, path, path, "--out", str(out_path))
    expected_code, expected_sha = SELF_COMBINED[name, op]
    assert code == expected_code, err
    if expected_sha is None:
        assert not out_path.exists()
    else:
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == expected_sha


def test_combine_refuses_a_text_the_reader_would_refuse(tmp_path, monkeypatch):
    # the bound counts UTF-8 bytes, which these labels make more than characters
    doc = {
        "format_version": "1", "lineale": "nat", "default_weight": "0",
        "places": ["H₂", "O₂"], "transitions": ["é"], "pre": [["O₂", "é", "1"]], "post": [],
    }
    path, out_path = tmp_path / "a.net", tmp_path / "aa.net"
    path.write_text(json.dumps(doc), encoding="utf-8")
    text = dialnet.serialize_net(net_with(load_net(path), load_net(path)))
    size = len(text.encode("utf-8"))
    assert size > len(text)
    argv = ("combine", "--op", "with", str(path), str(path), "--out", str(out_path))
    monkeypatch.setattr(dialnet.netdoc, "MAX_DOCUMENT_BYTES", size - 1)
    assert run(*argv) == (4, "", f"error: net document needs {size} bytes, cap is {size - 1}\n")
    assert not out_path.exists()
    monkeypatch.setattr(dialnet.netdoc, "MAX_DOCUMENT_BYTES", size)
    assert run(*argv)[0] == 0
    assert out_path.read_bytes() == text.encode("utf-8")


def test_combine_of_two_320_kb_nets_is_refused_not_written(tmp_path):
    # 64 places with 5 KB labels: with has 4096 places of about 10 KB each,
    # a 41 MB text that validate would refuse as over 32 MiB
    paths = []
    for side in "ab":
        doc = {
            "format_version": "1", "lineale": "nat", "default_weight": "0",
            "places": [f"{side}{i:02}" + "x" * 5000 for i in range(64)],
            "transitions": ["t"], "pre": [], "post": [],
        }
        paths.append(tmp_path / f"{side}.net")
        paths[-1].write_text(json.dumps(doc))
    out_path = tmp_path / "ab.net"
    code, out, err = run("combine", "--op", "with", *map(str, paths), "--out", str(out_path))
    bound = dialnet.netdoc.MAX_DOCUMENT_BYTES
    assert (code, out) == (4, "")
    assert err.startswith("error: net document needs ") and err.count("\n") == 1
    assert err.endswith(f" bytes, cap is {bound}\n")
    assert int(err.split()[4]) > bound
    assert not out_path.exists()


@pytest.mark.parametrize(
    "op, a_shape, b_shape, cells",
    [("with", (64, 2000), (64, 2000), 4096 * 4000), ("tensor", (4096, 4096), (1, 1), 4096 * 4096)],
)
def test_combine_over_the_cell_budget_is_refused_before_building(tmp_path, op, a_shape, b_shape, cells):
    # label-only nets whose result relation has millions of cells; with's
    # inputs have different defaults, so all of b's block would be arcs
    paths = []
    for side, (n_p, n_t), default in (("a", a_shape, "0"), ("b", b_shape, "1")):
        doc = {
            "format_version": "1", "lineale": "nat", "default_weight": default,
            "places": [f"{side}p{i}" for i in range(n_p)],
            "transitions": [f"{side}t{i}" for i in range(n_t)], "pre": [], "post": [],
        }
        paths.append(tmp_path / f"{side}.net")
        paths[-1].write_text(json.dumps(doc))
    out_path = tmp_path / "ab.net"
    t0 = time.perf_counter()
    result = run("combine", "--op", op, *map(str, paths), "--out", str(out_path))
    elapsed = time.perf_counter() - t0
    assert result == (4, "", f"error: net relation needs {cells} cells, cap is 1048576\n")
    assert elapsed < 1.0
    assert not out_path.exists()


def run_child(*argv):
    """One command in a child process: (process, peak RSS in KiB, seconds
    main took).  The child reads VmHWM, not ru_maxrss: Linux carries the
    parent's high-water mark over exec into ru_maxrss, VmHWM is the new
    image's own."""
    code = (
        "import sys, time; from dialnet.cli import main; t = time.perf_counter(); "
        "rc = main(sys.argv[1:]); t = time.perf_counter() - t; "
        "hwm = next(l for l in open('/proc/self/status') if l.startswith('VmHWM:')); "
        "print(hwm.split()[1], t, file=sys.stderr); sys.exit(rc)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(dialnet.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    hwm, seconds = proc.stderr.split()
    return proc, int(hwm), float(seconds)


def test_combine_at_the_cell_budget_stays_small(tmp_path):
    # label-only nets whose tensor and hom have exactly MAX_CELLS cells: a
    # dense result or a list per input cell would take hundreds of MiB, and
    # an op table over every cell about a second
    paths = {}
    for side, (n_p, n_t), default in (("big", (256, 4096), "0"), ("one", (1, 1), "1")):
        doc = {
            "format_version": "1", "lineale": "nat", "default_weight": default,
            "places": [f"{side}p{i}" for i in range(n_p)],
            "transitions": [f"{side}t{i}" for i in range(n_t)], "pre": [], "post": [],
        }
        paths[side] = tmp_path / f"{side}.net"
        paths[side].write_text(json.dumps(doc))
    # over nat, tensor is + and 1 implies 0 is max(0 - 1, 0)
    for op, a, b, default in (("tensor", "big", "one", 1), ("hom", "one", "big", 0)):
        out_path = tmp_path / f"{op}.net"
        argv = ["combine", "--op", op, str(paths[a]), str(paths[b]), "--out", str(out_path)]
        _, hwm, seconds = run_child(*argv)
        net = load_net(out_path)
        assert net.places.size * net.transitions.size == dialnet.finset.MAX_CELLS
        assert (net.default, net.pre_arcs, net.post_arcs) == (default, {}, {})
        assert hwm < 100 * 1024 and seconds < 0.3, op


def test_validate_of_a_30_mb_document_stays_small(tmp_path):
    # a seeded 1320 x 300 nat net with 280k arcs in each relation, in the
    # canonical layout (about 28 MB); json.loads alone holds about 150 MiB
    rng = random.Random(1320)
    places, transitions = [f"p{i}" for i in range(1320)], [f"t{i}" for i in range(300)]

    def arcs() -> str:
        cells = sorted(rng.sample(range(1320 * 300), 280_000))
        return ",\n".join(
            f'    [\n      "{places[k // 300]}",\n      "{transitions[k % 300]}",\n'
            f'      "{rng.randint(1, 9)}"\n    ]'
            for k in cells
        )

    head = json.dumps(
        {"format_version": "1", "lineale": "nat", "default_weight": "0",
         "places": places, "transitions": transitions},
        indent=2,
    )
    path = tmp_path / "big.net"
    path.write_text(f'{head[:-2]},\n  "pre": [\n{arcs()}\n  ],\n  "post": [\n{arcs()}\n  ]\n}}\n')
    assert 27 * 2**20 < path.stat().st_size < 32 * 2**20
    proc, hwm, _ = run_child("validate", str(path))
    assert proc.stdout == (
        f"ok: {path}\n  lineale: nat\n  places (1320): {', '.join(places)}\n"
        f"  transitions (300): {', '.join(transitions)}\n"
        "  arcs: 280000 pre, 280000 post (default weight 0)\n"
    )
    assert hwm < 190 * 1024


# ---------------------------------------------------------------------------
# laws
# ---------------------------------------------------------------------------


# (exit code, sha256 of stdout) of `laws --cases 8` on the benchmark's seven
# lineales, with --mutate-imp on kleene3 and nat; seeds 1 and 2 recorded before
# the exhaustive identity law searched each source object's hom-sets in one
# pass, seeds 3 to 5 before the law suites shared tensor and hom objects
# within a case; seed None omits --seed, recorded while the parser took its
# default from the laws module
LAWS_OUTPUT = {
    ("bool2", 1, False): (0, "e6761be22cbd770e9af9200277782e842c33dada7c9ddc29a94d9ce70b99626c"),
    ("kleene3", 1, False): (0, "07e6bc84f6b1e38c4631d679f6afa6e213714dd088c7b13cbea2c0402b666e94"),
    ("kleene3", 1, True): (3, "819df2a68e8e0886c4459a6036299ee54d6463e460bb31126aaa0e6221a1ee8c"),
    ("nat", 1, False): (0, "c54ce4eb6fb7b11bd0bbcf0f742bed199e9d9a6132f77ddc4084b89348e77632"),
    ("nat", 1, True): (3, "0ac5ffa45631872266af4ff43bc7b3f6621c0edd11bff5a5177ce929c74d2a5c"),
    ("int", 1, False): (0, "9b58a6d43bea7819ded7525c35590e2a9d79720ead2d5fd49d1a36c4e83ce56a"),
    ("prob", 1, False): (0, "d5f689cf0fe172b1fcf7ed551b1bf60f05e513a2be6707c5add98a20583388fa"),
    ("prod(prob,int)", 1, False): (0, "6079b5935f0149c9b1fa70e2d79840aeec174539650b2895f1ae810020328051"),
    ("prod(bool2,kleene3)", 1, False): (0, "827c8e5e7ad67ee110a1577d8ff25962c569094c132302d3842cab9718f352d2"),
    ("bool2", 2, False): (0, "38296a4b0057f65ce6d7a9474869e707a1067b9db9d2d5cd329f9b7c5cf125a2"),
    ("kleene3", 2, False): (0, "caac3ccb0e9c2785c8010e32d125943c00994beb1fa214d0a81a43d7ac2c4c10"),
    ("kleene3", 2, True): (3, "8c81c82baca33e856552a2671d50d90fbddf8870129e1ef5e83903b12deea082"),
    ("nat", 2, False): (0, "005bd8077b91c35d0f7d8942140726dec1113ae9e1986d663d44501f0b7ff624"),
    ("nat", 2, True): (3, "0b9e960e47df2eb97496ee3fd7981235cb96f9e2c06d49f58d71f7711419289e"),
    ("int", 2, False): (0, "4ff5ab72d7fc0e7b234a1331a759455ec4bc226fdd6acf514f90fb58223d90e0"),
    ("prob", 2, False): (0, "d5f689cf0fe172b1fcf7ed551b1bf60f05e513a2be6707c5add98a20583388fa"),
    ("prod(prob,int)", 2, False): (0, "3cacbb32fb3607ae06f37b311c7fb6284e54dc136de892a21ff0046517a18ad0"),
    ("prod(bool2,kleene3)", 2, False): (0, "03e93c5ea5b3e8a2b23b66109075fdcadc9c6c34944697b5a7ac681de45a3e73"),
    ("bool2", 3, False): (0, "e8e9ee7ca704f8f30a0220faae3a93b87922f51262b2ebdb4843e4af018fb621"),
    ("kleene3", 3, False): (0, "8dce522050818b12f36f61f1d0087b444e0c9f3e17eb02ae59b60f8eab72bb46"),
    ("kleene3", 3, True): (3, "fa9c74fd49c643cf015af9d91790e85d0b46adf84d844027ccb73e0c9d89c489"),
    ("nat", 3, False): (0, "15cf08b1fde59f903d74e1e4243b3488d6be76d3b238510eb35645f89b4afa72"),
    ("nat", 3, True): (3, "9b0f1ccba2fdc9f1abbeab942f8f18240fed13a4cbf7a615c84be9d594c6fc19"),
    ("int", 3, False): (0, "f311c361d8dd169724dc9956e488cc5f406008d432e3b3f3aef63e96bad22a52"),
    ("prob", 3, False): (0, "7abc43b36ec03b73232d910a6278b5cf9ee8c872f4d6fec1dca94c0da30d0119"),
    ("prod(prob,int)", 3, False): (0, "bd650602dcabb63369551de7fc9d76cfb699416e3b52498d70f4db923ff74781"),
    ("prod(bool2,kleene3)", 3, False): (0, "182cab6e5ecb87e290a7b2bd4846dfe4885c95fb646d061dc48e8d4815e3eb7b"),
    ("bool2", 4, False): (0, "e8e9ee7ca704f8f30a0220faae3a93b87922f51262b2ebdb4843e4af018fb621"),
    ("kleene3", 4, False): (0, "ede32d3351852549cb367c0c5fc83697c545ea27038a0540847a144e393485e3"),
    ("kleene3", 4, True): (3, "5cb857ba8cf089cafd0ec3c320c67f6d03a62d4208cfcd6017a1ab29485d5c80"),
    ("nat", 4, False): (0, "0490479c4e430ebe52fc59c0d48660304a1c4a4686e8bebd975f4c5fd53eca5f"),
    ("nat", 4, True): (3, "553395af26368f0ad16d2d53c4d97702a4bc660b8da231c9e8620cdacd6094fa"),
    ("int", 4, False): (0, "1e1e821a4b4801325c80f421f94bae3be70d6b7b6b3dc719c495713ba0b35c63"),
    ("prob", 4, False): (0, "897504925cd1073ee4c4705d94cabacd1140d320d80151eba95b654bf524d305"),
    ("prod(prob,int)", 4, False): (0, "eb1615389fb313bb6cc91f979eb9e4596aaeedde83052a35ef26019b3855237a"),
    ("prod(bool2,kleene3)", 4, False): (0, "71a5b5769f7575e7633e0abfa965b7689c09b8d030e672354f06584265fe147c"),
    ("bool2", 5, False): (0, "c7a9f435659ce50c0becaa637ddbbfce2cdfa4aee2c590c3ca9c498dc679d05b"),
    ("kleene3", 5, False): (0, "4b892a5d781ceee4faf8ffbdb39b99458d649d2d32b0b3942ce4f28fd3d390ec"),
    ("kleene3", 5, True): (3, "d660a01766624771a5c59f8bb09e08f0c78456026deb3d788d2b3e9959ba30a8"),
    ("nat", 5, False): (0, "22aa060debc1b2df61a18e5a6f46acc10969dbb41adf66929d06cb3c9e614849"),
    ("nat", 5, True): (3, "dd34e7d0994de2be9054f30fa624634f6101d799b12a5adbbc0b0eb99f932663"),
    ("int", 5, False): (0, "e39a87e78af8f130444db852d6ceed17a3547ea386652bcf4a5ef17d36f47905"),
    ("prob", 5, False): (0, "03fa324a75c82582c444cac403934a8ccf9b78aec88eca3d58ed56ab63d52a95"),
    ("prod(prob,int)", 5, False): (0, "e100f685771c3facd1f44dd4c357a8705e194b1f24e0228d44f5ab517a8dbef1"),
    ("prod(bool2,kleene3)", 5, False): (0, "a85c02da106bdfcdb44e30ce6187100c340b92f3b95707fbc3c69de14553e748"),
    ("nat", None, False): (0, "912e320731ab526ba44e8b8ac77f0c616b45141282d2b8c8a84bf0cb40844c7e"),
    ("kleene3", None, True): (3, "35cfe47c05edcb196b354ee38c4758d6de55e135a0112f4d8917606460039e77"),
}


@pytest.mark.parametrize("tag, seed, mutate", sorted(LAWS_OUTPUT, key=repr))
def test_laws_output_is_byte_stable(tag, seed, mutate):
    argv = ["laws", "--lineale", tag, "--cases", "8", *["--seed", str(seed)] * (seed is not None)]
    code, out, _ = run(*argv, *["--mutate-imp"] * mutate)
    assert (code, hashlib.sha256(out.encode("utf-8")).hexdigest()) == LAWS_OUTPUT[tag, seed, mutate]


def test_laws_bool2_all_pass():
    code, out, _ = run("laws", "--lineale", "bool2", "--cases", "8")
    assert code == 0
    assert "pass" in out
    assert "FAIL" not in out
    assert "laws passed over bool2" in out


def test_laws_unknown_tag():
    code, _, err = run("laws", "--lineale", "frob")
    assert code == 3


def test_laws_rejects_case_counts_below_one():
    for cases in ("-5", "0"):
        with pytest.raises(SystemExit) as exc:
            run("laws", "--lineale", "nat", "--cases", cases)
        assert exc.value.code == 2


def test_laws_rejects_case_counts_above_the_bound(capsys):
    # the parser refuses the count, so no case list is ever built
    parser = _build_parser()
    assert parser.parse_args(["laws", "--lineale", "nat", "--cases", "10000"]).cases == 10000
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["laws", "--lineale", "nat", "--cases", "10001"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error:" in line] == [
        "dialnet laws: error: argument --cases: must be from 1 to 10000, got 10001"
    ]
    with pytest.raises(SystemExit):
        parser.parse_args(["laws", "--help"])
    assert "1 to 10000" in capsys.readouterr().out


def test_laws_mutation_mode_fails_adjunction():
    code, out, _ = run(
        "laws", "--lineale", "kleene3", "--cases", "8", "--mutate-imp"
    )
    assert code == 3
    assert "FAIL  hom.adjunction" in out
    # the summary names the requested lineale, not the mutated copy's tag
    assert out.endswith("laws passed over kleene3\n")


# ---------------------------------------------------------------------------
# export-dot and example
# ---------------------------------------------------------------------------


def test_export_dot_to_stdout():
    code, out, _ = run("export-dot", WATER)
    assert code == 0
    assert out.count("->") == 3
    assert 'label="2"' in out


def test_export_dot_to_file(tmp_path):
    p = str(tmp_path / "water.dot")
    code, out, _ = run("export-dot", WATER, "--out", p)
    assert code == 0
    text = Path(p).read_text(encoding="utf-8")
    assert text.startswith("digraph")


def test_successive_commands_share_the_parser_but_no_option(tmp_path):
    # main builds its parser once per process; an option one command gave
    # must not carry over to the next
    assert _build_parser() is _build_parser()
    assert run("laws", "--lineale", "bool2", "--cases", "2", "--mutate-imp")[0] == 3
    code, out, _ = run("laws", "--lineale", "bool2", "--cases", "2")
    assert code == 0 and out.endswith(" laws passed over bool2\n")
    p = tmp_path / "water.dot"
    assert run("export-dot", WATER, "--out", str(p)) == (0, f"wrote {p}\n", "")
    code, out, _ = run("export-dot", WATER)
    assert code == 0 and out == p.read_text(encoding="utf-8")


def test_export_dot_unwritable_out(tmp_path):
    code, out, err = run("export-dot", WATER, "--out", str(tmp_path / "absent" / "x.dot"))
    assert code == 2
    assert out == ""
    assert "cannot write" in err


def test_export_dot_uses_files_declared_default(tmp_path):
    # raising the declared default silences every arc at that weight,
    # explicit or not; only the lone weight-1 arc survives
    obj = json.loads(example_path("water").read_text(encoding="utf-8"))
    obj["default_weight"] = "2"
    obj["pre"] = [["H2", "t", "2"], ["O2", "t", "1"]]
    obj["post"] = [["H2O", "t", "2"]]
    p = tmp_path / "w2.net"
    p.write_text(json.dumps(obj), encoding="utf-8")
    code, out, _ = run("export-dot", str(p))
    assert code == 0
    assert out.count("->") == 1
    assert 'label="1"' in out


def test_example_stdout_matches_shipped():
    for name in dialnet.EXAMPLE_NAMES:
        code, out, _ = run("example", "--name", name)
        assert code == 0, name
        assert out == example_path(name).read_text(encoding="utf-8"), name


def test_example_writes_file(tmp_path):
    p = str(tmp_path / "c.net")
    code, _, _ = run("example", "--name", "circadian", "--out", p)
    assert code == 0
    assert Path(p).read_text(encoding="utf-8") == example_path("circadian").read_text(
        encoding="utf-8"
    )


def test_example_reads_its_document_once(tmp_path, monkeypatch):
    reads = []
    original = dialnet.netdoc.read_text

    def counting_read_text(path):
        reads.append(path)
        return original(path)

    # both names a read could go through: the CLI's import and netdoc's own
    monkeypatch.setattr(dialnet.cli, "read_text", counting_read_text)
    monkeypatch.setattr(dialnet.netdoc, "read_text", counting_read_text)
    for name in dialnet.EXAMPLE_NAMES:
        for out in ([], ["--out", str(tmp_path / f"{name}.net")]):
            reads.clear()
            code, _, _ = run("example", "--name", name, *out)
            assert code == 0
            assert reads == [example_path(name)], (name, out)


def test_example_unwritable_out(tmp_path):
    code, out, err = run(
        "example", "--name", "water", "--out", str(tmp_path / "absent" / "x.net")
    )
    assert code == 2
    assert out == ""
    assert "cannot write" in err


def test_module_entry_point_runs():
    # the child finds the package where this process found it
    env = dict(os.environ, PYTHONPATH=str(Path(dialnet.__file__).parents[1]))
    _, expected, _ = run("validate", WATER)
    for module in ("dialnet", "dialnet.cli"):
        proc = subprocess.run(
            [sys.executable, "-m", module, "validate", WATER],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, module
        assert proc.stdout == expected, module
    # exit codes pass through: an unreadable file is exit 2
    proc = subprocess.run(
        [sys.executable, "-m", "dialnet", "validate", str(Path(WATER).with_name("absent.net"))],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 2
    assert "cannot read" in proc.stderr


def run_limited(*argv, timeout=30):
    """main(argv) in a child process whose address space is capped at
    256 MiB, so a read without end fails fast instead of filling memory."""
    cap = 256 * 2**20
    return subprocess.run(
        [sys.executable, "-m", "dialnet", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(Path(dialnet.__file__).parents[1])),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        timeout=timeout,
    )


def test_devices_and_pipes_are_refused(tmp_path):
    f = {l: l for l in ("H2", "O2", "H2O")}
    m = write_morphism(tmp_path, "zero.mor", "/dev/zero", WATER, f, {"t": "t"})
    fifo = tmp_path / "fifo.net"
    os.mkfifo(fifo)  # no writer: a blocking open would never return
    for argv in (("validate", "/dev/zero"), ("check-morphism", m), ("validate", str(fifo))):
        proc = run_limited(*argv)
        assert proc.returncode == 2, argv
        assert proc.stderr.startswith("error: cannot read "), argv
        assert proc.stderr.endswith(": not a regular file\n"), argv
        assert proc.stderr.count("\n") == 1, argv


def test_documents_over_the_size_bound_are_refused(tmp_path):
    big = tmp_path / "big.net"
    big.touch()
    os.truncate(big, 2**30)  # sparse: 1 GiB of st_size, no disk blocks
    f = {l: l for l in ("H2", "O2", "H2O")}
    m = write_morphism(tmp_path, "big.mor", str(big), WATER, f, {"t": "t"})
    bound = dialnet.netdoc.MAX_DOCUMENT_BYTES
    for argv in (("validate", str(big)), ("check-morphism", m)):
        proc = run_limited(*argv)
        assert proc.returncode == 2, argv
        assert proc.stderr == f"error: cannot read {big}: larger than {bound} bytes\n"


@pytest.mark.parametrize("length", [200, 201, 5_000, 200_000])
def test_a_path_over_200_characters_is_cut_in_its_error_line(tmp_path, length):
    # the path shows once: whole up to 200 characters, else cut as usage
    # errors are, with the OSError's reason but not its copy of the path
    head = str(tmp_path / "absent") + os.sep
    path = head + "x" * (length - len(head))
    with pytest.raises(OSError) as reason:
        open(path, "rb")
    e = reason.value
    shown = f"{path if length <= 200 else _echo(path, 200)}: [Errno {e.errno}] {e.strerror}"
    f = {l: l for l in ("H2", "O2", "H2O")}
    m = write_morphism(tmp_path, "long.mor", path, WATER, f, {"t": "t"})
    for verb, argv in (
        ("read", ("validate", path)),
        ("read", ("check-morphism", m)),
        ("write", ("export-dot", WATER, "--out", path)),
    ):
        code, out, err = run(*argv)
        assert (code, out, err) == (2, "", f"error: cannot {verb} {shown}\n"), argv
        assert len(err.encode()) < 300, argv  # bounded whatever the path


WIDE = "é水🜁" * 40  # 120 characters, 360 bytes of UTF-8


@pytest.mark.parametrize(
    "argv",
    [
        ("export-dot", WATER, "--out", "{tmp}/out\ud800"),
        ("export-dot", WATER, "--out", "{tmp}/out\x00"),
        ("example", "--name", "water", "--out", "{tmp}/" + "a" * 300 + "\ud800"),
        ("validate", "{tmp}/" + WIDE),
        ("check-morphism", "{tmp}/wide.mor"),
        ("laws", "--lineale", "nat", "--cases", WIDE * 2),
    ],
    ids=["surrogate-out", "nul-out", "long-surrogate-out", "wide-path", "wide-source", "wide-argument"],
)
def test_an_odd_path_or_argument_ends_in_short_error_lines(tmp_path, argv):
    # a NUL or lone surrogate in an output path is refused like an unwritable
    # one; a path shows once, and every cut counts bytes of UTF-8, not characters
    write_morphism(tmp_path, "wide.mor", WIDE, WATER, {"H2": "H2"}, {"t": "t"})
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # a usage error
            code = e.code
    assert code == 2 and err.getvalue()
    for line in err.getvalue().splitlines():
        assert len(line.encode("utf-8", "backslashreplace")) < 300, line


def test_three_long_unknown_map_entries_fit_one_short_line(tmp_path):
    f = {**{p: p for p in ("H2", "O2", "H2O")}, **{c * 100_000: "H2" for c in "xyzw"}}
    m = write_morphism(tmp_path, "stray.mor", WATER, WATER, f, {"t": "t"})
    code, out, err = run("check-morphism", m)
    assert (code, out) == (3, "") and err.count("\n") == 1 and " and 1 more" in err
    assert len(err.encode()) < 300 and err.count("(100000 characters)") == 3


def test_a_document_that_is_not_utf8_is_named_so_in_one_short_line(tmp_path):
    for name in ("bad.net", "b" * 200):
        path = tmp_path / name
        path.write_bytes(b"\xff{}")
        code, out, err = run("validate", str(path))
        assert (code, out) == (2, "") and err.endswith(": not UTF-8 (invalid start byte)\n")
        assert len(err.encode()) < 300


@pytest.mark.parametrize("key, index", [("places", 1), ("transitions", 0)])
def test_lone_surrogate_labels_are_refused(tmp_path, key, index):
    # the JSON escape \ud800 decodes to a lone surrogate, which has no UTF-8
    # form to print or write; each command refuses the document instead of
    # ending in a traceback, and writes no --out file (child processes, so
    # stdout encodes as it does on a terminal)
    doc = {
        "format_version": "1", "lineale": "nat", "default_weight": "0",
        "places": ["p", "q"], "transitions": ["t"], "pre": [["p", "t", "1"]], "post": [],
    }
    doc[key][index] += "\ud800"
    net = tmp_path / "s.net"
    net.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    for argv in (
        ("validate", str(net)),
        ("combine", "--op", "with", str(net), str(net), "--out", str(out)),
        ("export-dot", str(net)),
        ("export-dot", str(net), "--out", str(out)),
    ):
        proc = run_limited(*argv)
        assert proc.returncode == 2, argv
        assert proc.stderr == f"error: {key}[{index}] holds a lone surrogate\n", argv
        assert proc.stdout == "", argv
        assert not out.exists(), argv


# ---------------------------------------------------------------------------
# repeated JSON keys, weights too long to write, and the synopses
# ---------------------------------------------------------------------------


def appending(obj: dict, key: str, text: str) -> str:
    """The JSON text of obj with the member key: text appended, even when
    obj has key already."""
    return f"{json.dumps(obj)[:-1]}, {json.dumps(key)}: {text}}}"


WATER_OBJ = json.loads(Path(WATER).read_text(encoding="utf-8"))
WATER_MAPS = {"f": {l: l for l in ("H2", "O2", "H2O")}, "F": {"t": "t"}}


@pytest.mark.parametrize("key", list(WATER_OBJ))
def test_a_repeated_net_key_is_refused(tmp_path, key):
    # json.loads would keep the second value; here the same one, so the
    # document would otherwise be valid
    net = tmp_path / "r.net"
    net.write_text(appending(WATER_OBJ, key, json.dumps(WATER_OBJ[key])), encoding="utf-8")
    out = tmp_path / "out"
    for argv in (
        ("validate", str(net)),
        ("combine", "--op", "with", str(net), WATER, "--out", str(out)),
        ("export-dot", str(net), "--out", str(out)),
    ):
        assert run(*argv) == (2, "", f"error: repeated key {key!r} in a JSON object\n"), argv
        assert not out.exists(), argv


def test_a_repeated_key_in_an_inline_net_is_refused(tmp_path):
    m = tmp_path / "m.mor"
    doc = {"format_version": "1", "target": WATER, **WATER_MAPS}
    m.write_text(appending(doc, "source", appending(WATER_OBJ, "pre", "[]")), encoding="utf-8")
    assert run("check-morphism", str(m)) == (2, "", "error: repeated key 'pre' in a JSON object\n")


@pytest.mark.parametrize("name, key, image", [("f", "H2", "H2O"), ("F", "t", "t")])
def test_a_repeated_map_entry_is_refused(tmp_path, name, key, image):
    m = tmp_path / "m.mor"
    doc = {"format_version": "1", "source": WATER, "target": WATER, **WATER_MAPS}
    entries = appending(doc.pop(name), key, json.dumps(image))
    m.write_text(appending(doc, name, entries), encoding="utf-8")
    assert run("check-morphism", str(m)) == (2, "", f"error: repeated key {key!r} in a JSON object\n")


HUGE = "x" * 100_000


def _water(**fields) -> dict:
    return {**WATER_OBJ, **fields}


def _water_morphism(source=WATER, **maps) -> str:
    return json.dumps({"format_version": "1", "source": source, "target": WATER, **WATER_MAPS, **maps})


# per message that echoes a label, tag, key or version text: the command, its
# exit code, and a document whose one such text has 100,000 characters
LONG_ECHOES = {
    "format-version": ("validate", 2, json.dumps(_water(format_version=HUGE))),
    "repeated-key": ("validate", 2, appending({HUGE: 1}, HUGE, "2")),
    "unknown-key": ("validate", 2, json.dumps(_water(**{HUGE: 1}))),
    "unknown-tag": ("validate", 3, json.dumps(_water(lineale=HUGE))),
    "malformed-tag": ("validate", 3, json.dumps(_water(lineale=f"prod({HUGE})"))),
    "duplicate-label": ("validate", 3, json.dumps(_water(places=[HUGE, HUGE]))),
    "unknown-place": ("validate", 3, json.dumps(_water(pre=[[HUGE, "t", "1"]]))),
    "unknown-transition": ("validate", 3, json.dumps(_water(pre=[["H2", HUGE, "1"]]))),
    "duplicate-arc": ("validate", 3, json.dumps(_water(places=[HUGE], pre=[[HUGE, "t", "1"]] * 2, post=[]))),
    "map-value": ("check-morphism", 2, _water_morphism(f={HUGE: 1})),
    "no-entry": ("check-morphism", 3, _water_morphism(_water(places=[*WATER_OBJ["places"], HUGE]))),
    "unknown-image": ("check-morphism", 3, _water_morphism(f={**WATER_MAPS["f"], "H2": HUGE})),
    "unknown-domain": ("check-morphism", 3, _water_morphism(f={**WATER_MAPS["f"], HUGE: "H2"})),
}


@pytest.mark.parametrize("message", list(LONG_ECHOES))
def test_a_long_echoed_text_is_cut_to_one_short_line(tmp_path, message):
    command, code, text = LONG_ECHOES[message]
    p = tmp_path / "long.json"
    p.write_text(text, encoding="utf-8")
    got, out, err = run(command, str(p))
    assert (got, out) == (code, "")
    assert err.count("\n") == 1 and err.startswith("error: ") and len(err) < 200
    assert re.search(r"… \(1000\d\d characters\)", err)


def test_a_long_lineale_argument_is_cut_to_one_short_line():
    code, out, err = run("laws", "--lineale", HUGE)
    assert (code, out) == (3, "")
    assert err.count("\n") == 1 and len(err) < 200 and "… (100000 characters)" in err


def test_a_long_repeated_map_entry_is_cut_to_a_short_message():
    # a JSON map cannot repeat a key, so only a document built in code reaches this check
    pairs = (("H2", "H2"), (HUGE, "H2"), (HUGE, "O2"))
    doc = dialnet.MorphismDocument(WATER, WATER, pairs, (("t", "t"),))
    with pytest.raises(dialnet.DocumentSemanticError) as e:
        dialnet.resolve_morphism_document(doc)
    assert len(str(e.value)) < 200 and "… (100000 characters)" in str(e.value)


def test_a_violation_line_cuts_a_long_place_label(tmp_path):
    source = _water(places=[HUGE, "O2", "H2O"], pre=[[HUGE, "t", "1"], ["O2", "t", "1"]])
    m = tmp_path / "long.mor"
    m.write_text(_water_morphism(source, f={HUGE: "H2", "O2": "O2", "H2O": "H2O"}), encoding="utf-8")
    code, out, err = run("check-morphism", str(m))
    assert (code, err) == (3, "")
    head, line = out.splitlines()
    assert head == "not a net morphism: 1 violation(s)" and len(line) < 200
    assert line.startswith("  [pre] place 'xxx") and "… (100000 characters) / transition 't': " in line


def test_a_violation_line_cuts_a_long_weight(tmp_path):
    target = tmp_path / "big.net"
    target.write_text(json.dumps(_water(pre=[["H2", "t", "9" * 4000], ["O2", "t", "1"]])), encoding="utf-8")
    m = tmp_path / "big.mor"
    m.write_text(_water_morphism(WATER, target=str(target)), encoding="utf-8")
    code, out, err = run("check-morphism", str(m))
    assert (code, err) == (3, "")
    head, line = out.splitlines()
    assert head == "not a net morphism: 1 violation(s)" and len(line.encode("utf-8")) < 300
    assert line.endswith("target weight '" + "9" * 60 + "'… (4000 characters)")


# a weight that parses but lies outside its lineale, with about 4,200 digits
OVER = "1" + "0" * 4200 + "/3"
PROB_ARCS = {"pre": [["H2", "t", "1"], ["O2", "t", "1"]], "post": [["H2O", "t", "1"]]}
OUT_OF_RANGE = {
    "prob-arc": _water(lineale="prob", **{**PROB_ARCS, "pre": [["H2", "t", OVER], ["O2", "t", "1"]]}),
    "prob-default": _water(lineale="prob", default_weight=OVER, **PROB_ARCS),
    "prob-in-a-pair": _water(
        lineale="prod(prob,nat)", default_weight="(0,0)", pre=[["H2", "t", f"({OVER},1)"]], post=[]
    ),
    "negative-nat": _water(pre=[["H2", "t", "-" + "9" * 4200]]),
    "kleene3": _water(lineale="kleene3", pre=[["H2", "t", "9" * 4200]], post=[]),
}


@pytest.mark.parametrize("case", list(OUT_OF_RANGE))
def test_a_long_weight_out_of_range_is_cut_to_one_short_line(tmp_path, case):
    p = tmp_path / "range.net"
    p.write_text(json.dumps(OUT_OF_RANGE[case]), encoding="utf-8")
    code, out, err = run("validate", str(p))
    assert (code, out) == (3, "")
    assert err.count("\n") == 1 and err.startswith("error: ") and len(err.encode("utf-8")) < 300
    assert re.search(r"… \(42\d\d characters\)", err)


# a JSON integer longer than int's digit limit fails json.loads itself
BIG = "9" * 5000
BIG_NUMBER_DOCS = {
    "validate": json.dumps(_water(places=["@", "O2", "H2O"])),
    "export-dot": json.dumps(_water(pre=[["H2", "t", "@"]])),
    "combine": json.dumps(_water(default_weight="@")),
    "check-morphism": _water_morphism(f={**WATER_MAPS["f"], "H2": "@"}),
}


@pytest.mark.parametrize("command", list(BIG_NUMBER_DOCS))
def test_an_integer_too_long_to_read_is_a_malformed_document(tmp_path, command):
    p = tmp_path / "big.json"
    p.write_text(BIG_NUMBER_DOCS[command].replace('"@"', BIG), encoding="utf-8")
    extra = {"combine": ["--op", "with", WATER, "--out", str(tmp_path / "c.net")]}.get(command, [])
    code, out, err = run(command, *extra, str(p))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("error: not valid JSON: ") and len(err) < 200
    assert "Traceback" not in err and not (tmp_path / "c.net").exists()


@pytest.mark.parametrize(
    "argv",
    [["laws", "--lineale", "nat", "--cases"], ["laws", "--lineale", "nat", "--seed"],
     ["combine", "a.net", "b.net", "--out", "c.net", "--op"], ["example", "--name"]],
    ids=["cases", "seed", "op", "name"],
)
def test_a_long_argument_is_cut_in_the_usage_error(argv):
    err = io.StringIO()
    with redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main([*argv, "x" * 5000])
    assert exc.value.code == 2
    errors = [line for line in err.getvalue().splitlines() if ": error: " in line]
    assert len(errors) == 1 and len(errors[0].encode("utf-8")) < 300
    assert re.search(r"… \(5\d\d\d characters\)$", errors[0])
    assert len(err.getvalue().encode("utf-8")) < 600


@pytest.mark.parametrize(
    "tag, weight, needed",
    [("nat", "{}", lambda n: n + 1), ("int", "-{}", lambda n: n + 1), ("prob", "1/{}", lambda n: 2 * n)],
    ids=["nat", "int", "prob"],
)
def test_a_weight_too_long_to_write_exits_4(tmp_path, tag, weight, needed):
    # a weight of as many nines as Python writes is valid, but the tensor's
    # sum (nat, int) or product (prob) of two has more digits than that
    limit = sys.get_int_max_str_digits()
    doc = dict(WATER_OBJ, lineale=tag, default_weight=weight.format("9" * limit), pre=[], post=[])
    net = tmp_path / "long.net"
    net.write_text(json.dumps(doc), encoding="utf-8")
    assert run("validate", str(net))[0] == 0
    out = tmp_path / "out.net"
    assert run("combine", "--op", "tensor", str(net), str(net), "--out", str(out)) == (
        4, "", f"error: weight text needs {needed(limit)} digits, cap is {limit}\n"
    )
    assert not out.exists()
    assert run("combine", "--op", "with", str(net), str(net), "--out", str(out))[0] == 0


def test_synopses_name_every_long_option():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    cli_block = readme.split("\n## CLI\n", 1)[1].split("```")[1]
    parser = _build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    for where, text in (("cli docstring", dialnet.cli.__doc__), ("README", cli_block)):
        synopses = {}
        for line in text.splitlines():
            words = line.split()
            if words[:1] == ["dialnet"]:
                synopses[words[1]] = line
        assert sorted(synopses) == sorted(commands), where
        for name, sub in commands.items():
            for action in sub._actions:
                for opt in action.option_strings:
                    if opt.startswith("--") and opt != "--help":
                        assert re.search(re.escape(opt) + r"(?![\w-])", synopses[name]), (where, name, opt)
