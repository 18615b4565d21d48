"""Which private names one dialnet module takes from another.

A net's stored form (the modal default and the arcs off it) is worked out
only in petrinet; the other modules reach it through the few private
helpers allowed below.  A new `from .module import _name` has to be
added here on purpose.
"""

import ast
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
