"""Checks one operation's exit code and output against the generator's answer.

`check(op, rc, stdout, stderr, workdir)` returns None when the command
did what the answer says, and otherwise a one-line description of the
first difference found.  Outputs are read with the standard library
only; nothing here imports dialnet.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

_LAW_LINE = re.compile(r"(pass|FAIL)  (\S+) \((\d+) cases\)(  \[.*\])?$")
_SUMMARY = re.compile(r"(\d+)/(\d+) laws passed over (.+)$")
_NET_KEYS = ["format_version", "lineale", "default_weight", "places", "transitions", "pre", "post"]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check(op: dict, rc, stdout: str, stderr: str, workdir: Path) -> str | None:
    if rc != op["exit"]:
        return f"exit {rc!r}, expected {op['exit']} ({stderr.strip()[:200]})"
    return _CHECKS[op["cmd"]](op, stdout, stderr, workdir)


def _validate(op, stdout, stderr, workdir):
    if _sha(stdout) != op["stdout_sha"]:
        return "validate summary differs from the generated net"
    return None


def _export_dot(op, stdout, stderr, workdir):
    if stdout != op["stdout"]:
        return f"stdout {stdout!r}, expected {op['stdout']!r}"
    path = workdir / op["out_file"]
    if not path.is_file():
        return f"{op['out_file']} was not written"
    if _sha(path.read_text(encoding="utf-8")) != op["out_sha"]:
        return "DOT output differs from the generated net"
    return None


def _check_morphism(op, stdout, stderr, workdir):
    want = op["violations"]
    if not want:
        if stdout != "ok: (f, F) is a net morphism\n":
            return f"stdout {stdout[:200]!r}, expected the ok line"
        return None
    lines = stdout.splitlines()
    header = f"not a net morphism: {len(want)} violation(s)"
    if not lines or lines[0] != header:
        return f"first line {lines[:1]!r}, expected {header!r}"
    got = sorted(lines[1:])
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        return f"violation lines differ: missing {missing[:2]}, unexpected {extra[:2]}"
    return None


def _combine(op, stdout, stderr, workdir):
    path = workdir / op["out_file"]
    if op["exit"] == 4:
        if not (stderr.startswith("error: ") and "cap is 4096" in stderr):
            return f"stderr {stderr[:200]!r} does not report the cap"
        if path.exists():
            return "a net was written although the cap was exceeded"
        return None
    if stdout != op["stdout"]:
        return f"stdout {stdout!r}, expected {op['stdout']!r}"
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        return f"cannot read {op['out_file']}: {e}"
    if list(doc) != _NET_KEYS or doc["format_version"] != "1":
        return f"keys {list(doc)} are not the canonical net document keys"
    if doc["lineale"] != op["lineale"]:
        return f"lineale {doc['lineale']!r}, expected {op['lineale']!r}"
    if doc["default_weight"] != op["default"]:
        return f"default weight {doc['default_weight']!r}, expected {op['default']!r}"
    rows, cols = op["size"]
    if (len(doc["places"]), len(doc["transitions"])) != (rows, cols):
        return (
            f"carriers {len(doc['places'])} x {len(doc['transitions'])}, "
            f"expected {rows} x {cols}"
        )
    if [len(doc["pre"]), len(doc["post"])] != op["arcs"]:
        return f"arc counts {len(doc['pre'])}/{len(doc['post'])}, expected {op['arcs']}"
    pre = {(p, t): v for p, t, v in doc["pre"]}
    post = {(p, t): v for p, t, v in doc["post"]}
    default = doc["default_weight"]
    for r, c, p_label, t_label, want_pre, want_post in op["cells"]:
        if doc["places"][r] != p_label or doc["transitions"][c] != t_label:
            return f"labels at ({r}, {c}) are not ({p_label}, {t_label})"
        got = (pre.get((p_label, t_label), default), post.get((p_label, t_label), default))
        if got != (want_pre, want_post):
            return f"cell ({p_label}, {t_label}) is {got}, expected {(want_pre, want_post)}"
    return None


def _laws(op, stdout, stderr, workdir):
    lines = stdout.splitlines()
    summary = _SUMMARY.match(lines[-1]) if lines else None
    if summary is None:
        return f"no summary line in {stdout[-200:]!r}"
    passed, total, tag = int(summary[1]), int(summary[2]), summary[3]
    results = [_LAW_LINE.match(line) for line in lines[:-1]]
    if not results or None in results:
        return "a law line does not parse"
    if tag != op["lineale"] or total != len(results):
        return f"summary {lines[-1]!r} does not match {len(results)} law lines over {op['lineale']}"
    if passed != sum(m[1] == "pass" for m in results):
        return f"summary {lines[-1]!r} miscounts the passing laws"
    failing = {m[2] for m in results if m[1] == "FAIL"}
    if "must_fail" in op:
        if op["must_fail"] not in failing:
            return f"{op['must_fail']} passed against the broken implication"
    elif failing:
        return f"laws failed: {sorted(failing)}"
    return None


def zero_case_laws(stdout: str) -> int:
    """Laws reported as passing after checking no case at all.

    A vacuous pass is a defect of the law suites, but the command's
    verdict still matches its answer, so it is counted, not failed.
    """
    return sum(
        1
        for m in map(_LAW_LINE.match, stdout.splitlines())
        if m and m[1] == "pass" and m[3] == "0"
    )


_CHECKS = {
    "validate": _validate,
    "export-dot": _export_dot,
    "check-morphism": _check_morphism,
    "combine": _combine,
    "laws": _laws,
}
