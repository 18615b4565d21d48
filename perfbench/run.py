"""Benchmark of the dialnet CLI: end to end, and per layer when traced.

    python3 perfbench/run.py --workload net_io|combine|laws --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
its `src/` directory, never from an installed copy.  Each workload is a
closed loop with one client: every operation is a real `dialnet`
command, called in-process through `dialnet.cli.main(argv)` with
stdout and stderr captured to memory and its output files written to a
scratch directory under `.bench_work/`.  Every operation's exit code
and output is checked against the answer `gen.py` computed on its own.

The op sequence is fixed by the workload and the seed: a pool of
operations repeated for `round(S / nominal round time)` rounds, each
round in its own seeded order.  The nominal round times below were
measured at the commit that introduced the benchmark, so a run there
measures about S seconds.

Times are reported in reference seconds.  On a shared machine the speed
a process gets changes within seconds by a fifth or more, so a fixed
piece of pure-Python work (`calibrate`) is timed right before and right
after every operation and set-up sample, and the wall time is scaled by
`REF_CALIBRATION_S` over their mean: the time the operation would take
where the calibration takes `REF_CALIBRATION_S`.  The wall-clock
figures are printed beside them.

`--trace 0` prints the end-to-end metrics: `ops_per_s`, `op_p50_ms`,
`op_tail_ms` (the highest percentile with at least ten latencies above
it), `setup_s` (median time for a fresh interpreter to import
`dialnet.cli`, which every CLI call pays, sampled between operations)
and `peak_rss_mib` (each op's resident-memory high-water mark, at the
same percentile as `op_tail_ms`).  `--trace 1` runs each op of the
first round untraced and then with the wrappers of `tracing.py`
installed, and prints the per-layer metrics of the traced pass with
the tracing overhead.  Spans go to
`.bench_out/spans-<workload>-<seed>.jsonl`.

Each metric is printed as `name: value unit`; the last line is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.  The
exit code is 1 when any operation fails its check, and 2 when the
checkout holds no dialnet sources.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

ROUND_SECONDS = {"net_io": 9.6, "combine": 6.4, "laws": 3.4}
SETUP_RUNS = 15
REF_CALIBRATION_S = 0.0125


def calibrate() -> float:
    """Seconds for a fixed piece of pure-Python work, collector off."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        d: dict = {}
        for i in range(20000):
            k = (i % 97, i % 89)
            d[k] = d.get(k, 0) + i * i % 7
        sorted(d.items())
        return time.perf_counter() - t0
    finally:
        gc.enable()


def _python_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def time_import() -> tuple[float, float]:
    """Wall and reference seconds for a fresh interpreter to import dialnet.cli."""
    before = calibrate()
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import dialnet.cli"], env=_python_env(), cwd=ROOT, check=True)
    wall = time.perf_counter() - t0
    return wall, wall * 2 * REF_CALIBRATION_S / (before + calibrate())


def generate(workload: str, seed: int, rounds: int, work: Path) -> list[dict]:
    """Write the inputs in a separate process, so its memory is not counted."""
    answers = work / "answers.json"
    subprocess.run(
        [sys.executable, str(HERE / "gen.py"), "--workload", workload, "--seed", str(seed),
         "--rounds", str(rounds), "--out", str(work), "--answers", str(answers)],
        check=True,
        stdout=subprocess.DEVNULL,
    )
    return json.loads(answers.read_text(encoding="utf-8"))


class OpResult(NamedTuple):
    wall: float  # seconds
    seconds: float  # reference seconds
    problem: Optional[str]  # None when the output matched the answer
    zero_case_laws: int
    peak_rss_mib: float  # resident-memory high-water mark while the op ran


def _reset_peak_rss() -> None:
    """Restart the process's resident-memory high-water mark (Linux 4.0+).

    Without it, `ru_maxrss` keeps the peak of every earlier op as well.
    """
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass


def run_ops(cli, ops: list[dict], check, work: Path, tracer=None) -> list[OpResult]:
    """Run each op once, in `work`, and check its output."""
    results = []
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for op in ops:
            if tracer is not None:
                tracer.op = op["id"]
            out, err = io.StringIO(), io.StringIO()
            gc.collect()
            before = calibrate()
            _reset_peak_rss()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                try:
                    rc = cli.main(list(op["argv"]))
                except SystemExit as e:
                    rc = e.code
                except Exception as e:  # an uncaught error is a failed op, not a crash
                    rc = f"uncaught {type(e).__name__}: {e}"
                t1 = time.perf_counter()
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            scale = 2 * REF_CALIBRATION_S / (before + calibrate())
            results.append(
                OpResult(
                    t1 - t0,
                    (t1 - t0) * scale,
                    check.check(op, rc, out.getvalue(), err.getvalue(), work),
                    check.zero_case_laws(out.getvalue()),
                    peak,
                )
            )
            if "out_file" in op:
                (work / op["out_file"]).unlink(missing_ok=True)
    finally:
        os.chdir(cwd)
    return results


def tail_rank(n: int) -> tuple[int, int]:
    """The highest whole percentile with at least ten of n samples above it.

    Returns (percentile, 1-based rank in ascending order); with ten or
    fewer samples that is the maximum.
    """
    if n <= 10:
        return 100, n
    pct = 100 * (n - 10) // n
    return pct, max(1, math.ceil(pct * n / 100))


def latency_metrics(results: list[OpResult], setup: list[tuple[float, float]]):
    """End-to-end metrics in reference time, and notes with the wall-clock ones."""
    pct, rank = tail_rank(len(results))

    def figures(times):
        times = sorted(times)
        return len(times) / sum(times), statistics.median(times) * 1e3, times[rank - 1] * 1e3

    ref = figures(r.seconds for r in results)
    wall = figures(r.wall for r in results)
    rss = sorted(r.peak_rss_mib for r in results)
    metrics = {
        "ops_per_s": (ref[0], "1/s"),
        "op_p50_ms": (ref[1], "ms"),
        "op_tail_ms": (ref[2], "ms"),
        "setup_s": (statistics.median(s for _, s in setup), "s"),
        "peak_rss_mib": (rss[rank - 1], "MiB"),
    }
    tail_note = f" p{pct} of {len(results)} ops"
    notes = {
        "ops_per_s": f"  (wall clock {wall[0]:.6g})",
        "op_p50_ms": f"  (wall clock {wall[1]:.6g})",
        "op_tail_ms": f"  ({tail_note.strip()}; wall clock {wall[2]:.6g})",
        "setup_s": f"  (wall clock {statistics.median(w for w, _ in setup):.6g})",
        "peak_rss_mib": f"  ({tail_note.strip()}; max {rss[-1]:.1f})",
    }
    return metrics, notes


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Benchmark the dialnet CLI.")
    p.add_argument("--workload", required=True, choices=sorted(ROUND_SECONDS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "dialnet" / "cli.py").is_file():
        print(f"error: no dialnet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    cli = importlib.import_module("dialnet.cli")
    if Path(cli.__file__).resolve().parent != SRC / "dialnet":
        print(f"error: dialnet was imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import check
    import tracing

    rounds = max(1, round(args.seconds / ROUND_SECONDS[args.workload]))
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=ROOT / ".bench_work"))
    try:
        ops = generate(args.workload, args.seed, rounds, work)
        if args.trace == 0:
            # Set-up samples are spread over the run, between operations.
            time_import()  # writes the bytecode caches
            setup, results = [], []
            cuts = [len(ops) * k // SETUP_RUNS for k in range(SETUP_RUNS + 1)]
            for lo, hi in zip(cuts, cuts[1:]):
                setup.append(time_import())
                results += run_ops(cli, ops[lo:hi], check, work)
            ran = ops
            metrics, notes = latency_metrics(results, setup)
        else:
            # Each op of the first round runs untraced, then traced, so that
            # both passes see the same warm caches.
            first = ops[: len(ops) // rounds]
            ran = first + first
            tracer = tracing.Tracer()
            plain, traced = [], []
            for op in first:
                plain += run_ops(cli, [op], check, work)
                tracer.install()
                try:
                    traced += run_ops(cli, [op], check, work, tracer)
                finally:
                    tracer.uninstall()
            tracer.write_spans(ROOT / ".bench_out" / f"spans-{args.workload}-{args.seed}.jsonl")
            results = plain + traced
            metrics = tracer.metrics()
            overhead = sum(r.seconds for r in traced) / sum(r.seconds for r in plain)
            metrics["trace.overhead"] = (overhead, "ratio")
            metrics["trace.spans"] = (len(tracer.spans), "count")
            notes = {"trace.overhead": "  (traced over untraced reference time, same ops)"}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [(op, r.problem) for op, r in zip(ran, results) if r.problem]
    vacuous = [op["id"] for op, r in zip(ran, results) if r.zero_case_laws]
    for op, problem in failed[:20]:
        print(f"FAILED op {op['id']} ({' '.join(op['argv'][:3])}): {problem}")
    print(f"workload {args.workload}, seed {args.seed}, {len(results)} ops in {rounds} round(s)")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}{notes.get(name, '')}")
    print(f"failed_frac: {len(failed) / len(results):.6g}  ({len(failed)}/{len(results)} ops)")
    if vacuous:
        print(f"note: ops {vacuous} passed some law after checking zero cases (counted, not failed)")
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(results),
                "failed": len(failed),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
