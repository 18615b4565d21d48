"""Command-line front end.

    dialnet validate <net.json>
    dialnet check-morphism <morphism.json>
    dialnet combine --op tensor|with|oplus|hom <a.json> <b.json> --out <c.json>
    dialnet laws --lineale <tag> [--seed N] [--cases N] [--mutate-imp]
    dialnet export-dot <net.json> [--out <g.dot>]
    dialnet example --name <water|sir|circadian|inhibitor|catalysis> [--out <f.json>]

Exit codes: 0 success, 2 unreadable/malformed document or unwritable
output (a file, or a stdout whose reader closed it early), 3 semantic
failure (bad labels or values, failed morphism check, failed law, unknown
lineale), 4 size cap exceeded.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path
from typing import Optional

from .errors import (
    CapExceeded,
    DialnetError,
    DocumentSyntaxError,
)
from .lineale import _echo, _shown, get_lineale
from .netdoc import (
    EXAMPLE_NAMES,
    example_path,
    export_dot,
    load_net,
    parse_morphism_document,
    read_net,
    read_text,
    resolve_morphism_document,
    save_net,
    write_text,
)
from . import petrinet
from .petrinet import check_net_morphism

__all__ = ["main"]

# each op is petrinet.net_<op>, looked up at call time so that a wrapper
# installed on the module (perfbench's tracer) is the one called
_COMBINE_OPS = ("hom", "oplus", "tensor", "with")


def _cmd_validate(args) -> int:
    net, doc = read_net(args.net)
    print(f"ok: {args.net}")
    print(f"  lineale: {doc.lineale}")
    print(f"  places ({net.places.size}): {', '.join(net.places.labels)}")
    print(f"  transitions ({net.transitions.size}): {', '.join(net.transitions.labels)}")
    print(
        f"  arcs: {doc.pre} pre, {doc.post} post "
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
    print(f"not a net morphism: {sum(v.cells for v in violations)} violation(s)")
    for v in violations:  # a record with no point counts the cells over no arc
        at = f"{v.cells} cells over no arc" if v.u is None else (
            f"place {_echo(source.places.label(v.u))} / "
            f"transition {_echo(target.transitions.label(v.y))}"
        )
        print(
            f"  [{v.part}] {at}: "
            f"source weight {_shown(str(v.source_weight))} is not below "
            f"target weight {_shown(str(v.target_weight))}"
        )
    return 3


def _cmd_combine(args) -> int:
    load = functools.cache(load_net)  # a file named twice is read once
    a, b = load(args.net_a), load(args.net_b)
    combined = getattr(petrinet, f"net_{args.op}")(a, b)
    save_net(combined, args.out)
    print(
        f"wrote {args.out}: {combined.places.size} places, "
        f"{combined.transitions.size} transitions"
    )
    return 0


def _cmd_laws(args) -> int:
    from .laws import DEFAULT_SEED, mutate_imp, run_all  # only this command runs the suites
    lin = get_lineale(args.lineale)
    tag = lin.tag
    if args.mutate_imp:
        lin = mutate_imp(lin)
    results = run_all(lin, seed=DEFAULT_SEED if args.seed is None else args.seed, cases=args.cases)
    for r in results:
        print(r)
    passed = sum(1 for r in results if r.passed)
    print(f"{passed}/{len(results)} laws passed over {tag}")
    return 0 if passed == len(results) else 3


def _emit(text: str, out: Optional[str]) -> int:
    """Write text to the file out, or to stdout when out is None."""
    if out:
        write_text(out, text)
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_export_dot(args) -> int:
    net, doc = read_net(args.net)
    return _emit(export_dot(net, net.lin.parse(doc.default_weight)), args.out)


def _cmd_example(args) -> int:
    # the shipped document is already in canonical form
    return _emit(read_text(example_path(args.name)), args.out)


# a law case list is built whole, so the count is bounded
MAX_CASES = 10_000


def _case_count(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not 1 <= n <= MAX_CASES:
        raise argparse.ArgumentTypeError(f"must be from 1 to {MAX_CASES}, got {n}")
    return n


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # a message may echo a whole argument
        data = message.encode("utf-8", "surrogatepass")
        if len(data) > 200:  # cut to 200 bytes, less a character cut in two
            message = f"{data[:200].decode('utf-8', 'ignore')}… ({len(message)} characters)"
        super().error(message)


@functools.cache  # one parser per process: parse_args leaves it as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--seed", type=int)  # laws.DEFAULT_SEED when omitted
    p.add_argument("--cases", type=_case_count, default=100, help=f"1 to {MAX_CASES}")
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
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not in the interpreter's last flush
        return status
    except DialnetError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2 if isinstance(e, DocumentSyntaxError) else 4 if isinstance(e, CapExceeded) else 3
    except BrokenPipeError:  # the reader is gone, so the rest of the output goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2


if __name__ == "__main__":
    sys.exit(main())
