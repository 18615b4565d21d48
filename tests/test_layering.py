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
    # the tensor / hom cell builders live in finset, so that petrinet, and with
    # it every net command, needs no dialset
    ("dialset", "finset", "_guard"),
    ("dialset", "finset", "_hom_carriers"),
    ("dialset", "finset", "_hom_cells"),
    # the one place a relation's row-major cells are cut into rows
    ("dialset", "finset", "_rows"),
    ("dialset", "finset", "_same_lineale"),
    ("dialset", "finset", "_tensor_carriers"),
    ("dialset", "finset", "_tensor_cells"),
    ("petrinet", "finset", "_guard"),
    ("petrinet", "finset", "_hom_carriers"),
    ("petrinet", "finset", "_hom_cells"),
    ("petrinet", "finset", "_same_lineale"),
    ("petrinet", "finset", "_tensor_carriers"),
    ("petrinet", "finset", "_tensor_cells"),
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


# what `import dialnet.cli` loads: every module a net command runs, not the
# category of relations or the law suites, which only `laws` loads, and not
# the stdlib's dataclasses, whose import costs more than any dialnet module
NET_MODULES = [
    "dialnet", "dialnet.cli", "dialnet.errors", "dialnet.finset", "dialnet.lineale",
    "dialnet.netdoc", "dialnet.petrinet", "dialnet.record",
]
LAW_NAMES = [
    "DEFAULT_SEED", "LawResult", "adjunction_oracle", "category_laws", "coherence_laws",
    "functoriality_laws", "lineale_laws", "mutate_imp", "mutated_kleene3", "run_all",
    "universal_laws",
]
DIALSET_NAMES = [
    "DialMorphism", "DialObject", "Violation", "associator", "check_morphism", "compose",
    "curry_dial", "dial_morphism", "enumerate_morphisms", "hom_mor", "hom_obj", "identity",
    "inverse", "left_unitor", "oplus", "oplus_copair", "oplus_inl", "oplus_inr",
    "right_unitor", "symmetry", "tensor_mor", "tensor_obj", "tensor_unit", "uncurry_dial",
    "with_pairing", "with_product", "with_proj1", "with_proj2",
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

def loaded():  # dialnet's modules, and dataclasses, which no command may load
    return sorted(m for m in sys.modules if m.split(".")[0] in ("dialnet", "dataclasses"))

seen, codes = [loaded()], []
water = str(dialnet.netdoc.example_path("water"))
maps = {"f": {p: p for p in ("H2", "O2", "H2O")}, "F": {"t": "t"}}
with tempfile.TemporaryDirectory() as d, redirect_stdout(io.StringIO()):
    mor = Path(d, "id.mor")
    mor.write_text(json.dumps({"format_version": "1", "source": water, "target": water, **maps}))
    combine = [["combine", "--op", op, water, water, "--out", str(Path(d, op + ".net"))]
               for op in ("tensor", "hom", "with", "oplus")]
    for argv in (["validate", water], ["export-dot", water], ["check-morphism", str(mor)],
                 *combine, ["example", "--name", "water"]):
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
    assert after_laws == sorted([*NET_MODULES, "dialnet.dialset", "dialnet.laws"])
    assert codes == [0] * 9


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


def test_the_category_names_read_from_the_package_are_those_of_dialset():
    code = f"""
import json, sys
import dialnet
try:
    dialnet.no_such_name
    unknown = "resolved"
except AttributeError:
    unknown = [m for m in ("dialnet.dialset", "dialnet.laws") if m in sys.modules]
import dialnet.dialset
same = [getattr(dialnet, n) is getattr(dialnet.dialset, n) for n in {DIALSET_NAMES!r}]
print(json.dumps([unknown, same, hasattr(dialnet, "_pointwise")]))
"""
    assert fresh(code) == [[], [True] * len(DIALSET_NAMES), False]


def test_dir_lists_the_lazy_names_without_loading_them():
    code = """
import json, sys
import dialnet
names = dir(dialnet)
loaded = [m for m in ("dialnet.dialset", "dialnet.laws") if m in sys.modules]
print(json.dumps([names, loaded]))
"""
    names, loaded = fresh(code)
    assert loaded == []
    assert names == sorted(names)
    assert {*LAW_NAMES, *DIALSET_NAMES, "PetriNet", "FinSet", "__version__"} <= {*names}
