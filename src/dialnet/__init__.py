"""Lineale-weighted relations, their category, and compositional Petri nets.

The package has three layers:

* lineale / finset: weight values with ordered-monoid structure, and
  finite carriers with tabulated functions, the morphism shape check and
  violation record, and the tensor and hom cell builders;
* dialset: weighted relations between carriers, the lax morphisms
  between them, and the cartesian / cocartesian / monoidal closed
  structure, each law machine-checked by the suites in `laws`; both load
  on first use, when a name of theirs is read from the package;
* petrinet / netdoc / cli: Petri nets as pre/post relation pairs,
  simulation checking, a JSON file format, DOT export, and the
  `dialnet` command.

The package binds the `__all__` of lineale, petrinet and netdoc, the
exceptions of errors and four names of finset on import, and the
dialset and laws names in `_LAZY` on first read.
"""

import importlib

from .errors import *
# not *: finset's identity and compose would hide dialset's, which _LAZY names
from .finset import DEFAULT_CAP, FinSet, FnTable, Violation
from .lineale import *
from .petrinet import *
from .netdoc import *

__version__ = "0.1.0"

# name -> the module it is read from on first use (PEP 562), so that
# `import dialnet.cli` loads neither the category nor the law suites
_LAZY = {
    **dict.fromkeys((
        "DialMorphism", "DialObject", "associator", "check_morphism", "compose", "curry_dial",
        "dial_morphism", "enumerate_morphisms", "hom_mor", "hom_obj", "identity", "inverse",
        "left_unitor", "oplus", "oplus_copair", "oplus_inl", "oplus_inr", "right_unitor",
        "symmetry", "tensor_mor", "tensor_obj", "tensor_unit", "uncurry_dial", "with_pairing",
        "with_product", "with_proj1", "with_proj2",
    ), "dialset"),
    **dict.fromkeys((
        "DEFAULT_SEED", "LawResult", "adjunction_oracle", "category_laws", "coherence_laws",
        "functoriality_laws", "lineale_laws", "mutate_imp", "mutated_kleene3", "run_all",
        "universal_laws",
    ), "laws"),
}


def __getattr__(name: str):  # PEP 562: a lazy name loads its module
    if name in _LAZY:
        return getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
