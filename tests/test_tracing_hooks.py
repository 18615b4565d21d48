"""The names perfbench/tracing.py wraps exist, and its hooks come off cleanly.

The tracer looks up every function it wraps by name, so a deleted or
renamed one breaks `perfbench/run.py --trace 1` and nothing else; these
tests catch that without running the benchmark.
"""

import importlib
import importlib.util
import io
import pkgutil
from contextlib import redirect_stdout
from pathlib import Path

import dialnet
from dialnet import cli, example_path

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


def test_tracer_sees_every_enumeration_of_the_identity_law():
    # the exhaustive identity law enumerates each of the 31 x 31 pairs of
    # bool2 objects with carriers up to 2 through the public function
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with redirect_stdout(io.StringIO()):
            code = cli.main(["laws", "--lineale", "bool2", "--cases", "1"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.metrics()["dialset.enum_calls"][0] >= 31**2
