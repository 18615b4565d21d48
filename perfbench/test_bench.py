"""Self-tests of the benchmark: its inputs, its checker and its tracer.

    python3 -m pytest perfbench/test_bench.py -q

They run the real CLI on the smallest operations of each workload.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import check  # noqa: E402
import gen  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402
from dialnet import cli  # noqa: E402


def _files(d: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


def _run(op: dict, work: Path):
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(work)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(op["argv"]))
    finally:
        os.chdir(cwd)
    return rc, out.getvalue(), err.getvalue()


def _small_ops(workload: str, work: Path) -> list[dict]:
    """A few quick operations of the workload, covering each command and exit code."""
    ops = gen.generate(workload, 5, 1, work)
    if workload == "net_io":
        return [o for o in ops if o["size"][0] <= 500]
    if workload == "combine":
        return [o for o in ops if o["exit"] == 4 or (o["kind"], o["lineale"]) == ("tensor", "nat")]
    return [o for o in ops if o["lineale"] in ("nat", "int")]


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_same_seed_gives_identical_inputs(tmp_path, workload):
    first = gen.generate(workload, 7, 2, tmp_path / "a")
    again = gen.generate(workload, 7, 2, tmp_path / "b")
    other = gen.generate(workload, 8, 2, tmp_path / "c")
    assert first == again
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert first != other


def test_checker_flags_a_corrupted_output_cell(tmp_path):
    op = next(
        o
        for o in gen.generate("combine", 3, 1, tmp_path)
        if (o["kind"], o["lineale"], o["exit"]) == ("tensor", "nat", 0)
    )
    rc, out, err = _run(op, tmp_path)
    assert check.check(op, rc, out, err, tmp_path) is None

    path = tmp_path / op["out_file"]
    doc = json.loads(path.read_text(encoding="utf-8"))
    _, _, place, transition, want_pre, _ = next(c for c in op["cells"] if c[4] != op["default"])
    for arc in doc["pre"]:
        if (arc[0], arc[1]) == (place, transition):
            arc[2] = str(int(want_pre) + 100)
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    problem = check.check(op, rc, out, err, tmp_path)
    assert problem is not None and "cell" in problem


def test_checker_flags_a_wrong_exit_code(tmp_path):
    op = next(o for o in gen.generate("combine", 3, 1, tmp_path) if o["exit"] == 4)
    rc, out, err = _run(op, tmp_path)
    assert check.check(op, rc, out, err, tmp_path) is None
    assert "exit 0" in check.check(op, 0, out, err, tmp_path)
    assert "expected 3" in check.check(dict(op, exit=3), rc, out, err, tmp_path)


def test_checker_flags_a_missing_violation_line(tmp_path):
    op = next(
        o
        for o in gen.generate("net_io", 3, 1, tmp_path)
        if o.get("kind") == "violations" and o["size"][0] == 300
    )
    rc, out, err = _run(op, tmp_path)
    assert rc == 3 and check.check(op, rc, out, err, tmp_path) is None
    lines = out.splitlines(keepends=True)
    assert len(lines) == 1 + len(op["violations"])
    problem = check.check(op, rc, "".join(lines[:-1]), err, tmp_path)
    assert problem is not None and "violation lines differ" in problem


def _flip(out: str, law: str, mark: str) -> str:
    """The laws output with one law's verdict changed and the summary recounted."""
    lines = out.splitlines()
    lines = [(mark + line[4:]) if line.split()[1:2] == [law] else line for line in lines]
    passed = sum(line.startswith("pass") for line in lines[:-1])
    total, tag = lines[-1].split("/", 1)[1].split(" laws passed over ")
    lines[-1] = f"{passed}/{total} laws passed over {tag}"
    return "\n".join(lines) + "\n"


def test_checker_flags_a_law_verdict(tmp_path):
    honest, mutated = (
        next(o for o in gen.generate("laws", 3, 1, tmp_path) if o["kind"] == kind)
        for kind in ("nat", "nat+mutate")
    )
    rc, out, err = _run(honest, tmp_path)
    assert check.check(honest, rc, out, err, tmp_path) is None
    broken = _flip(out, "hom.adjunction", "FAIL")
    assert "laws failed" in check.check(honest, rc, broken, err, tmp_path)
    assert "miscounts" in check.check(honest, rc, out.replace("pass", "FAIL", 1), err, tmp_path)

    rc, out, err = _run(mutated, tmp_path)
    assert rc == 3 and check.check(mutated, rc, out, err, tmp_path) is None
    fixed = _flip(out, "hom.adjunction", "pass")
    assert "passed against the broken implication" in check.check(mutated, rc, fixed, err, tmp_path)


def _traced_counts(ops: list[dict], work: Path) -> dict:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        results = bench.run_ops(cli, ops, check, work, tracer)
    finally:
        tracer.uninstall()
    assert [r.problem for r in results] == [None] * len(ops)
    return {k: v for k, (v, unit) in tracer.metrics().items() if unit in ("count", "bytes")}


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_traced_counts_repeat_exactly(tmp_path, workload):
    ops = _small_ops(workload, tmp_path)
    first = _traced_counts(ops, tmp_path)
    assert first == _traced_counts(ops, tmp_path)
    assert first["cli.exit_0"] + first["cli.exit_3"] + first["cli.exit_4"] == len(ops)
    assert cli.main.__module__ == "dialnet.cli" and not hasattr(cli.main, "__wrapped__")


def test_traced_counts_repeat_across_processes():
    def counts(hash_seed: str) -> dict:
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "laws", "--seed", "4",
             "--seconds", "1", "--trace", "1"],
            env=env, cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}

    assert counts("1") == counts("2")


def test_tail_percentile_keeps_ten_samples_beyond():
    assert bench.tail_rank(31) == (67, 21)
    assert bench.tail_rank(105) == (90, 95)
    assert bench.tail_rank(8) == (100, 8)


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "laws", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
