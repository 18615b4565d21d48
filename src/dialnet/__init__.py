"""Lineale-weighted relations, their category, and compositional Petri nets.

The package has three layers:

* lineale / finset: weight values with ordered-monoid structure, and
  finite carriers with tabulated functions;
* dialset: weighted relations between carriers, the lax morphisms
  between them, and the cartesian / cocartesian / monoidal closed
  structure, each law machine-checked by the suites in `laws`, loaded on first use;
* petrinet / netdoc / cli: Petri nets as pre/post relation pairs,
  simulation checking, a JSON file format, DOT export, and the
  `dialnet` command.
"""

from .errors import (
    CapExceeded,
    DialnetError,
    DocumentSemanticError,
    DocumentSyntaxError,
    InvalidMorphism,
    InvalidValue,
    ShapeMismatch,
    TagMismatch,
    UnknownLineale,
    ValueSyntaxError,
)
from .finset import DEFAULT_CAP, FinSet, FnTable
from .lineale import (
    BOOL2,
    INT,
    KLEENE3,
    NAT,
    PROB,
    Lineale,
    LinealeValue,
    format_value,
    get_lineale,
    product_lineale,
)
from .dialset import (
    DialMorphism,
    DialObject,
    Violation,
    associator,
    check_morphism,
    compose,
    curry_dial,
    dial_morphism,
    enumerate_morphisms,
    hom_mor,
    hom_obj,
    identity,
    inverse,
    left_unitor,
    oplus,
    oplus_copair,
    oplus_inl,
    oplus_inr,
    right_unitor,
    symmetry,
    tensor_mor,
    tensor_obj,
    tensor_unit,
    uncurry_dial,
    with_pairing,
    with_product,
    with_proj1,
    with_proj2,
)
from .petrinet import (
    NetViolation,
    PetriNet,
    check_net_morphism,
    net_from_arcs,
    net_hom,
    net_oplus,
    net_tensor,
    net_with,
)
from .netdoc import (
    EXAMPLE_NAMES,
    MorphismDocument,
    NetDocument,
    build_example,
    document_to_net,
    example_default,
    example_path,
    export_dot,
    load_net,
    net_to_document,
    parse_morphism_document,
    parse_net_document,
    resolve_morphism_document,
    save_net,
    serialize_net,
    serialize_net_document,
)

__version__ = "0.1.0"

_LAW_NAMES = {
    "DEFAULT_SEED", "LawResult", "adjunction_oracle", "category_laws", "coherence_laws",
    "functoriality_laws", "lineale_laws", "mutate_imp", "mutated_kleene3", "run_all",
    "universal_laws",
}


def __getattr__(name: str):  # PEP 562: a law name loads the suites
    if name in _LAW_NAMES:
        from . import laws
        return getattr(laws, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
