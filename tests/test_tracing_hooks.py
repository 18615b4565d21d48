"""The names perfbench/tracing.py wraps exist, and its hooks come off cleanly.

The tracer looks up every function it wraps by name, so a deleted or
renamed one breaks `perfbench/run.py --trace 1` and nothing else; these
tests catch that without running the benchmark.
"""

import importlib
import importlib.util
import io
import pkgutil
import sys
from contextlib import redirect_stdout
from pathlib import Path

import dialnet
from dialnet import BOOL2, cli, dialset, example_path
from dialnet.laws import all_objects

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_runs_and_uninstalls():
    tracing = load_tracing()
    original = cli.main
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main is not original
        with redirect_stdout(io.StringIO()):
            code = cli.main(["validate", str(example_path("water"))])
    finally:
        tracer.uninstall()
    assert cli.main is original
    assert code == 0
    metrics = tracer.metrics()
    assert metrics["cli.exit_0"] == (1, "count")
    assert metrics["lineale.parse_calls"][0] > 0


def test_every_exported_name_resolves():
    for info in pkgutil.iter_modules(dialnet.__path__):
        if info.name == "__main__":
            continue  # importing it runs the command line
        module = importlib.import_module(f"dialnet.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"dialnet.{info.name}.__all__ names {name!r}"


def test_tracer_counts_every_enumeration_the_laws_make(monkeypatch):
    # the exhaustive identity law reads hom-sets as table tuples and makes no
    # enumerate_morphisms call; the tracer counts exactly the calls the other
    # laws make, and the law still checks every morphism of the 31 x 31 pairs
    # of bool2 objects with carriers up to 2
    original = dialset.enumerate_morphisms
    calls = 0

    def counted(a, b):
        nonlocal calls
        calls += 1
        return original(a, b)

    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "dialnet"]:
        for name, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, name, counted)
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    out = io.StringIO()
    try:
        with redirect_stdout(out):
            code = cli.main(["laws", "--lineale", "bool2", "--cases", "1"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.metrics()["dialset.enum_calls"][0] == calls > 0
    objs = all_objects(BOOL2, 2)
    morphisms = sum(len(original(a, b)) for a in objs for b in objs)
    assert morphisms == 2901
    assert f"pass  category.identity.exhaustive ({morphisms} cases)\n" in out.getvalue()
