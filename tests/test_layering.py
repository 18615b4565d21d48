"""Which private names one dialnet module takes from another, and which
modules a command loads.

A net's stored form (the modal default and the arcs off it) is worked out
only in petrinet; the other modules reach it through the few private
helpers allowed below.  A new `from .module import _name` has to be
added here on purpose.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import dialnet

ALLOWED = {
    ("dialset", "finset", "_guard"),
    ("petrinet", "finset", "_guard"),
    ("petrinet", "dialset", "_hom_carriers"),
    ("petrinet", "dialset", "_hom_cells"),
    ("petrinet", "dialset", "_same_lineale"),
    ("petrinet", "dialset", "_tensor_carriers"),
    ("petrinet", "dialset", "_tensor_cells"),
    ("laws", "dialset", "_hom_counts"),
    ("laws", "dialset", "_hom_tables"),
    ("laws", "dialset", "_shared"),
    ("cli", "lineale", "_echo"),
    ("cli", "lineale", "_shown"),
    ("netdoc", "lineale", "_echo"),
    ("netdoc", "lineale", "_shown"),
    ("netdoc", "petrinet", "_net_from_cells"),
    ("netdoc", "petrinet", "_rebased"),
}


def private_imports() -> set[tuple[str, str, str]]:
    """(importer, module, name) for every relative import of a private name."""
    found = set()
    for path in Path(dialnet.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                found.update(
                    (path.stem, node.module, a.name) for a in node.names if a.name.startswith("_")
                )
    return found


def test_private_imports_are_the_allowed_ones():
    assert private_imports() == ALLOWED


# what `import dialnet.cli` loads: every module a net command runs, not the law suites
NET_MODULES = [
    "dialnet", "dialnet.cli", "dialnet.dialset", "dialnet.errors", "dialnet.finset",
    "dialnet.lineale", "dialnet.netdoc", "dialnet.petrinet",
]
LAW_NAMES = [
    "DEFAULT_SEED", "LawResult", "adjunction_oracle", "category_laws", "coherence_laws",
    "functoriality_laws", "lineale_laws", "mutate_imp", "mutated_kleene3", "run_all",
    "universal_laws",
]


def fresh(code: str):
    """The JSON that code prints when run in a new interpreter on this package."""
    env = {**os.environ, "PYTHONPATH": str(Path(dialnet.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


COMMANDS = """
import io, json, sys, tempfile
from contextlib import redirect_stdout
from pathlib import Path

import dialnet.cli

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "dialnet")

seen, codes = [loaded()], []
water = str(dialnet.netdoc.example_path("water"))
maps = {"f": {p: p for p in ("H2", "O2", "H2O")}, "F": {"t": "t"}}
with tempfile.TemporaryDirectory() as d, redirect_stdout(io.StringIO()):
    mor = Path(d, "id.mor")
    mor.write_text(json.dumps({"format_version": "1", "source": water, "target": water, **maps}))
    for argv in (["validate", water], ["export-dot", water], ["check-morphism", str(mor)],
                 ["combine", "--op", "tensor", water, water, "--out", str(Path(d, "ww.net"))],
                 ["example", "--name", "water"]):
        codes.append(dialnet.cli.main(argv))
    seen.append(loaded())
    codes.append(dialnet.cli.main(["laws", "--lineale", "nat", "--cases", "1"]))
    seen.append(loaded())
print(json.dumps([seen, codes]))
"""


def test_net_commands_never_load_the_law_suites():
    (at_import, after_nets, after_laws), codes = fresh(COMMANDS)
    assert at_import == NET_MODULES
    assert after_nets == NET_MODULES
    assert after_laws == sorted([*NET_MODULES, "dialnet.laws"])
    assert codes == [0] * 6


def test_the_law_names_read_from_the_package_are_those_of_laws():
    code = f"""
import json, sys
import dialnet
try:
    dialnet.no_such_name
    unknown = "resolved"
except AttributeError:
    unknown = "laws" if "dialnet.laws" in sys.modules else "not loaded"
import dialnet.laws
same = [getattr(dialnet, n) is getattr(dialnet.laws, n) for n in {LAW_NAMES!r}]
print(json.dumps([unknown, same, hasattr(dialnet, "random_object")]))
"""
    assert fresh(code) == ["not loaded", [True] * len(LAW_NAMES), False]
