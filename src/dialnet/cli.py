"""Command-line front end.

    dialnet validate <net.json>
    dialnet check-morphism <morphism.json>
    dialnet combine --op tensor|with|oplus|hom <a.json> <b.json> --out <c.json>
    dialnet laws --lineale <tag> [--seed N] [--cases N]
    dialnet export-dot <net.json> [--out <g.dot>]
    dialnet example --name <water|sir|circadian|inhibitor|catalysis> [--out <f.json>]

Exit codes: 0 success, 2 unreadable/malformed document or unwritable
output file, 3 semantic failure (bad labels or values, failed morphism
check, failed law, unknown lineale), 4 size cap exceeded.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from .errors import (
    CapExceeded,
    DialnetError,
    DocumentSyntaxError,
)
from .laws import DEFAULT_SEED, mutate_imp, run_all
from .lineale import get_lineale
from .netdoc import (
    document_to_net,
    example_default,
    export_dot,
    load_net,
    net_to_document,
    parse_morphism_document,
    parse_net_document,
    read_text,
    resolve_morphism_document,
    save_net,
    serialize_net_document,
    write_text,
)
from . import petrinet
from .petrinet import EXAMPLE_NAMES, build_example, check_net_morphism

__all__ = ["main"]

# each op is petrinet.net_<op>, looked up at call time so that a wrapper
# installed on the module (perfbench's tracer) is the one called
_COMBINE_OPS = ("hom", "oplus", "tensor", "with")


def _cmd_validate(args) -> int:
    doc = parse_net_document(read_text(args.net))
    net = document_to_net(doc)
    print(f"ok: {args.net}")
    print(f"  lineale: {doc.lineale}")
    print(f"  places ({net.places.size}): {', '.join(doc.places)}")
    print(f"  transitions ({net.transitions.size}): {', '.join(doc.transitions)}")
    print(
        f"  arcs: {len(doc.pre)} pre, {len(doc.post)} post "
        f"(default weight {doc.default_weight})"
    )
    return 0


def _cmd_check_morphism(args) -> int:
    mdoc = parse_morphism_document(read_text(args.morphism))
    base = Path(args.morphism).resolve().parent
    source, target, fwd, bwd = resolve_morphism_document(mdoc, base)
    violations = check_net_morphism(source, target, fwd, bwd)
    if not violations:
        print("ok: (f, F) is a net morphism")
        return 0
    print(f"not a net morphism: {len(violations)} violation(s)")
    for v in violations:
        print(
            f"  [{v.part}] place {source.places.label(v.u)!r} / "
            f"transition {target.transitions.label(v.y)!r}: "
            f"source weight {v.source_weight} is not below "
            f"target weight {v.target_weight}"
        )
    return 3


def _cmd_combine(args) -> int:
    a = load_net(args.net_a)
    b = load_net(args.net_b)
    combined = getattr(petrinet, f"net_{args.op}")(a, b)
    save_net(combined, args.out)
    print(
        f"wrote {args.out}: {combined.places.size} places, "
        f"{combined.transitions.size} transitions"
    )
    return 0


def _cmd_laws(args) -> int:
    lin = get_lineale(args.lineale)
    tag = lin.tag
    if args.mutate_imp:
        lin = mutate_imp(lin)
    results = run_all(lin, seed=args.seed, cases=args.cases)
    for r in results:
        print(r)
    passed = sum(1 for r in results if r.passed)
    print(f"{passed}/{len(results)} laws passed over {tag}")
    return 0 if passed == len(results) else 3


def _cmd_export_dot(args) -> int:
    doc = parse_net_document(read_text(args.net))
    net = document_to_net(doc)
    default = get_lineale(doc.lineale).parse(doc.default_weight)
    text = export_dot(net, default)
    if args.out:
        write_text(args.out, text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_example(args) -> int:
    net = build_example(args.name)
    default = example_default(args.name)
    if args.out:
        save_net(net, args.out, default)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(serialize_net_document(net_to_document(net, default)))
    return 0


def _case_count(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dialnet",
        description="Lineale-weighted Petri nets: validate, combine, and check laws.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse a net file and check its invariants")
    p.add_argument("net", help="net document (JSON)")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser(
        "check-morphism",
        help="check a morphism document (f on places, F backward on transitions)",
    )
    p.add_argument("morphism", help="morphism document (JSON)")
    p.set_defaults(func=_cmd_check_morphism)

    p = sub.add_parser("combine", help="combine two nets with a connective")
    p.add_argument("--op", required=True, choices=_COMBINE_OPS)
    p.add_argument("net_a", help="first net document")
    p.add_argument("net_b", help="second net document")
    p.add_argument("--out", required=True, help="path for the combined net")
    p.set_defaults(func=_cmd_combine)

    p = sub.add_parser("laws", help="run the law suites for a lineale")
    p.add_argument("--lineale", required=True, help="tag, e.g. nat or prod(prob,int)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--cases", type=_case_count, default=100)
    p.add_argument(
        "--mutate-imp",
        action="store_true",
        help="break the implication on purpose; the suite must then fail",
    )
    p.set_defaults(func=_cmd_laws)

    p = sub.add_parser("export-dot", help="render a net as Graphviz DOT")
    p.add_argument("net", help="net document (JSON)")
    p.add_argument("--out", help="output path (stdout when omitted)")
    p.set_defaults(func=_cmd_export_dot)

    p = sub.add_parser("example", help="write one of the worked example nets")
    p.add_argument("--name", required=True, choices=EXAMPLE_NAMES)
    p.add_argument("--out", help="output path (stdout when omitted)")
    p.set_defaults(func=_cmd_example)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DocumentSyntaxError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except CapExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except DialnetError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
