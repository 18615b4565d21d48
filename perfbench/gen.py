"""Seeded inputs for the benchmark, with answers computed without dialnet.

`generate(workload, seed, rounds, out_dir)` writes the net and morphism
documents a workload's operations read, and returns the operation list.
Each operation carries the argv handed to `dialnet.cli.main` and the
answer the checker compares against: exit code, carrier sizes, arc
counts, planted violations, digests of whole outputs, and a seeded
sample of combined cells recomputed here in plain Python.

Nothing in this module imports dialnet.  The value arithmetic below is
the table in the README (nat: `+`, reverse order, `max(b-a, 0)`; prob:
`*`, usual order, `1 if a == 0 or a < b else b / a`; products
componentwise), and the index and label conventions are the ones
documented in `dialnet.finset` and the README's file format section.
The same seed always gives byte-identical files and the same answers.

Run as a script to write one workload's inputs and its op list:

    python3 perfbench/gen.py --workload net_io --seed 1 --out DIR --answers DIR/ops.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

# Every character used by the labels of the shipped example nets,
# punctuation included.
ALPHABET = "+1234ABCHIKOPRSacdehioprst"
CAP = 4096  # the CLI's default size cap
SAMPLE_CELLS = 48  # combined cells recomputed per combine operation

LAW_TAGS = (
    "bool2",
    "kleene3",
    "nat",
    "int",
    "prob",
    "prod(prob,int)",
    "prod(bool2,kleene3)",
)
MUTATE_TAGS = ("kleene3", "nat")
LAW_CASES = 8


# -- values -------------------------------------------------------------------


def fmt(v) -> str:
    """Canonical text of a payload: int, Fraction, or a (Fraction, int) pair."""
    if isinstance(v, tuple):
        return f"({fmt(v[0])},{fmt(v[1])})"
    if isinstance(v, Fraction):
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    return str(v)


def tensor(tag: str, a, b):
    return a + b if tag == "nat" else a * b


def imp(tag: str, a, b):
    if tag == "nat":
        return max(b - a, 0)
    return Fraction(1) if a == 0 or a < b else b / a


DEFAULT = {"nat": 0, "prob": Fraction(0), "prod(prob,int)": (Fraction(0), 0)}


def draw(rng: random.Random, tag: str):
    """A value other than the lineale's default, so every listed arc shows."""
    if tag == "nat":
        return rng.randint(1, 9)
    if tag == "prob":
        den = rng.randint(1, 8)
        return Fraction(rng.randint(1, den), den)
    while True:
        den = rng.randint(1, 6)
        v = (Fraction(rng.randint(0, den), den), rng.randint(-4, 4))
        if v != DEFAULT[tag]:
            return v


def allowed_move(rng: random.Random, tag: str, v):
    """A value w with v <= w in the lineale order, for a simulation target."""
    if tag == "nat":  # reverse order: numerically lower is above
        return rng.randint(0, v)
    p, i = v
    return (p + (1 - p) * Fraction(rng.randint(0, 2), 2), i + rng.randint(0, 2))


def violating_move(rng: random.Random, tag: str, v):
    """A value w with v <= w false."""
    if tag == "nat":
        return v + rng.randint(1, 3)
    return (v[0], v[1] - rng.randint(1, 3))


# -- nets ---------------------------------------------------------------------


def labels(rng: random.Random, n: int, taken: set | None = None) -> list[str]:
    seen = set(taken or ())
    out = []
    while len(out) < n:
        s = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(2, 7)))
        if s not in seen:
            seen.add(s)
            out.append(s)
    return out


class Net:
    """A net as the generator sees it: labels plus sparse arc maps by index."""

    def __init__(self, tag, places, transitions, pre, post):
        self.tag = tag
        self.places = places
        self.transitions = transitions
        self.pre = pre
        self.post = post

    def cell(self, part: str, u: int, x: int):
        return getattr(self, part).get((u, x), DEFAULT[self.tag])

    def document(self) -> str:
        def arcs(m):
            return [
                [self.places[u], self.transitions[x], fmt(m[(u, x)])]
                for u, x in sorted(m)
            ]

        doc = {
            "format_version": "1",
            "lineale": self.tag,
            "default_weight": fmt(DEFAULT[self.tag]),
            "places": self.places,
            "transitions": self.transitions,
            "pre": arcs(self.pre),
            "post": arcs(self.post),
        }
        return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"

    def dot(self) -> str:
        def q(s):
            return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'

        lines = ["digraph net {", "  rankdir=LR;"]
        lines += [f"  {q('p:' + p)} [shape=circle, label={q(p)}];" for p in self.places]
        lines += [f"  {q('t:' + t)} [shape=box, label={q(t)}];" for t in self.transitions]
        for u, x in sorted(self.pre):
            lines.append(
                f"  {q('p:' + self.places[u])} -> {q('t:' + self.transitions[x])} "
                f"[label={q(fmt(self.pre[(u, x)]))}];"
            )
        for u, x in sorted(self.post):
            lines.append(
                f"  {q('t:' + self.transitions[x])} -> {q('p:' + self.places[u])} "
                f"[label={q(fmt(self.post[(u, x)]))}];"
            )
        lines.append("}")
        return "\n".join(lines) + "\n"


def random_net(rng: random.Random, tag: str, n_p: int, n_t: int, density: float) -> Net:
    places = labels(rng, n_p)
    transitions = labels(rng, n_t, taken=set(places))

    def arcs():
        k = max(1, round(density * n_p * n_t))
        return {divmod(c, n_t): draw(rng, tag) for c in sorted(rng.sample(range(n_p * n_t), k))}

    return Net(tag, places, transitions, arcs(), arcs())


def dense_net(rng: random.Random, tag: str, n_p: int, n_t: int) -> Net:
    """Every cell drawn independently; about a third keep the default."""
    places = labels(rng, n_p)
    transitions = labels(rng, n_t, taken=set(places))

    def arcs():
        return {
            (u, x): draw(rng, tag)
            for u in range(n_p)
            for x in range(n_t)
            if rng.random() < 0.65
        }

    return Net(tag, places, transitions, arcs(), arcs())


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- net_io ---------------------------------------------------------------------

# (places, transitions, lineale, morphism kinds checked against this net).
# In a run of three rounds, nine ops on the 3000 x 300 net take 1.2 to
# 2.5 s and the next nine 0.6 to 0.7 s, so the tail rank, ten from the
# top, lands inside that second group rather than between groups.
NET_IO_POOL = (
    (300, 30, "nat", ("identity", "lowered", "violations")),
    (500, 50, "prod(prob,int)", ("identity", "lowered", "violations")),
    (800, 80, "nat", ("lowered", "violations")),
    (1200, 120, "prod(prob,int)", ("violations",)),
    (1600, 160, "nat", ("lowered",)),
    (3000, 300, "nat", ("lowered", "violations")),
)
NET_IO_DENSITY = 1 / 150  # per relation; the 3000 x 300 net has about 12k arcs


def _target(rng: random.Random, src: Net, kind: str):
    """A target net with shuffled carriers, and the violations planted in it."""
    tag = src.tag
    p_order = list(range(len(src.places)))
    t_order = list(range(len(src.transitions)))
    rng.shuffle(p_order)
    rng.shuffle(t_order)
    p_new = {u: i for i, u in enumerate(p_order)}
    t_new = {x: i for i, x in enumerate(t_order)}
    parts = {}
    for part in ("pre", "post"):
        m = {}
        for (u, x), v in getattr(src, part).items():
            w = allowed_move(rng, tag, v) if rng.random() < 0.5 else v
            if w != DEFAULT[tag]:
                m[(p_new[u], t_new[x])] = w
        parts[part] = m
    planted = []
    if kind == "violations":
        k = rng.randint(1, 8)
        cells = set()
        while len(cells) < k:
            cells.add(
                (
                    rng.choice(("pre", "post")),
                    rng.randrange(len(src.places)),
                    rng.randrange(len(src.transitions)),
                )
            )
        for part, u, x in sorted(cells):
            sv = src.cell(part, u, x)
            tv = violating_move(rng, tag, sv)
            parts[part][(p_new[u], t_new[x])] = tv
            planted.append(
                f"  [{part}] place {src.places[u]!r} / transition "
                f"{src.transitions[x]!r}: source weight {fmt(sv)} is not below "
                f"target weight {fmt(tv)}"
            )
    tgt = Net(
        tag,
        [src.places[u] for u in p_order],
        [src.transitions[x] for x in t_order],
        parts["pre"],
        parts["post"],
    )
    return tgt, sorted(planted)


def _morphism_doc(rng: random.Random, src_name: str, tgt_name: str, src: Net, tgt: Net) -> str:
    f = list(src.places)
    big_f = list(tgt.transitions)
    rng.shuffle(f)
    rng.shuffle(big_f)
    doc = {
        "format_version": "1",
        "source": src_name,
        "target": tgt_name,
        "f": {p: p for p in f},
        "F": {t: t for t in big_f},
    }
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def _validate_stdout(name: str, net: Net) -> str:
    return (
        f"ok: {name}\n"
        f"  lineale: {net.tag}\n"
        f"  places ({len(net.places)}): {', '.join(net.places)}\n"
        f"  transitions ({len(net.transitions)}): {', '.join(net.transitions)}\n"
        f"  arcs: {len(net.pre)} pre, {len(net.post)} post "
        f"(default weight {fmt(DEFAULT[net.tag])})\n"
    )


def net_io_ops(rng: random.Random, out: Path) -> list[dict]:
    ops = []
    for i, (n_p, n_t, tag, kinds) in enumerate(NET_IO_POOL):
        src = random_net(rng, tag, n_p, n_t, NET_IO_DENSITY)
        name = f"n{i}.net"
        (out / name).write_text(src.document(), encoding="utf-8")
        ops.append(
            {
                "cmd": "validate",
                "argv": ["validate", name],
                "exit": 0,
                "size": [n_p, n_t],
                "stdout_sha": sha(_validate_stdout(name, src)),
            }
        )
        dot_name = f"n{i}.dot"
        ops.append(
            {
                "cmd": "export-dot",
                "argv": ["export-dot", name, "--out", dot_name],
                "exit": 0,
                "size": [n_p, n_t],
                "stdout": f"wrote {dot_name}\n",
                "out_file": dot_name,
                "out_sha": sha(src.dot()),
            }
        )
        for kind in kinds:
            if kind == "identity":
                tgt_name, planted = name, []
                tgt = src
            else:
                tgt, planted = _target(rng, src, kind)
                tgt_name = f"n{i}_{kind}.net"
                (out / tgt_name).write_text(tgt.document(), encoding="utf-8")
            mor_name = f"m{i}_{kind}.json"
            (out / mor_name).write_text(
                _morphism_doc(rng, name, tgt_name, src, tgt), encoding="utf-8"
            )
            ops.append(
                {
                    "cmd": "check-morphism",
                    "kind": kind,
                    "argv": ["check-morphism", mor_name],
                    "exit": 3 if planted else 0,
                    "size": [n_p, n_t],
                    "violations": planted,
                }
            )
    return ops


# -- combine --------------------------------------------------------------------


def _digits(k: int, length: int, base: int) -> list[int]:
    """Table of the function with index k in base^length, most significant first."""
    out = [0] * length
    for pos in range(length - 1, -1, -1):
        k, out[pos] = divmod(k, base)
    return out


class Combined:
    """The result of a connective, cell by cell, from the finset conventions."""

    def __init__(self, op: str, a: Net, b: Net):
        self.op, self.a, self.b, self.tag = op, a, b, a.tag
        U, X = len(a.places), len(a.transitions)
        V, Y = len(b.places), len(b.transitions)
        self.U, self.X, self.V, self.Y = U, X, V, Y
        if op == "tensor":
            self.n_rows, self.n_cols = U * V, X**V * Y**U
        elif op == "hom":
            self.n_rows, self.n_cols = V**U * X**Y, U * Y
        elif op == "with":
            self.n_rows, self.n_cols = U * V, X + Y
        else:
            self.n_rows, self.n_cols = U + V, X * Y

    def over_cap(self) -> bool:
        U, X, V, Y = self.U, self.X, self.V, self.Y
        if self.op == "tensor":
            sizes = (U * V, X**V, Y**U, X**V * Y**U)
        elif self.op == "hom":
            sizes = (V**U, X**Y, V**U * X**Y, U * Y)
        elif self.op == "with":
            sizes = (U * V,)
        else:
            sizes = (X * Y,)
        return max(sizes) > CAP

    def place(self, r: int) -> str:
        a, b = self.a, self.b
        if self.op in ("tensor", "with"):
            u, v = divmod(r, self.V)
            return f"({a.places[u]},{b.places[v]})"
        if self.op == "hom":
            fi, bi = divmod(r, self.X**self.Y)
            return f"(fn{fi},fn{bi})"
        if r < self.U:
            return f"left.{a.places[r]}"
        return f"right.{b.places[r - self.U]}"

    def transition(self, c: int) -> str:
        a, b = self.a, self.b
        if self.op == "tensor":
            fi, gi = divmod(c, self.Y**self.U)
            return f"(fn{fi},fn{gi})"
        if self.op == "hom":
            u, y = divmod(c, self.Y)
            return f"({a.places[u]},{b.transitions[y]})"
        if self.op == "with":
            if c < self.X:
                return f"left.{a.transitions[c]}"
            return f"right.{b.transitions[c - self.X]}"
        x, y = divmod(c, self.Y)
        return f"({a.transitions[x]},{b.transitions[y]})"

    def cell(self, part: str, r: int, c: int):
        a, b, tag = self.a, self.b, self.tag
        if self.op == "tensor":
            u, v = divmod(r, self.V)
            fi, gi = divmod(c, self.Y**self.U)
            f = _digits(fi, self.V, self.X)
            g = _digits(gi, self.U, self.Y)
            return tensor(tag, a.cell(part, u, f[v]), b.cell(part, v, g[u]))
        if self.op == "hom":
            fi, bi = divmod(r, self.X**self.Y)
            f = _digits(fi, self.U, self.V)
            bt = _digits(bi, self.Y, self.X)
            u, y = divmod(c, self.Y)
            return imp(tag, a.cell(part, u, bt[y]), b.cell(part, f[u], y))
        if self.op == "with":
            u, v = divmod(r, self.V)
            return a.cell(part, u, c) if c < self.X else b.cell(part, v, c - self.X)
        x, y = divmod(c, self.Y)
        if r < self.U:
            return a.cell(part, r, x)
        return b.cell(part, r - self.U, y)

    def histogram(self, part: str) -> dict:
        """How often each value occurs in one relation, counted by shape.

        In a tensor every pair (x, y) of input columns meets each row
        X^(V-1) * Y^(U-1) times; in a hom every pair (x, v) meets each
        column V^(U-1) * X^(Y-1) times; with and oplus copy cells.
        """
        a, b, tag = self.a, self.b, self.tag
        U, X, V, Y = self.U, self.X, self.V, self.Y
        h: dict = {}

        def add(v, n):
            h[v] = h.get(v, 0) + n

        if self.op == "tensor":
            n = X ** (V - 1) * Y ** (U - 1)
            for u in range(U):
                for v in range(V):
                    for x in range(X):
                        for y in range(Y):
                            add(tensor(tag, a.cell(part, u, x), b.cell(part, v, y)), n)
        elif self.op == "hom":
            n = V ** (U - 1) * X ** (Y - 1)
            for u in range(U):
                for y in range(Y):
                    for x in range(X):
                        for v in range(V):
                            add(imp(tag, a.cell(part, u, x), b.cell(part, v, y)), n)
        else:
            ka, kb = (V, U) if self.op == "with" else (Y, X)
            for net, k in ((a, ka), (b, kb)):
                m = getattr(net, part)
                add(DEFAULT[tag], (len(net.places) * len(net.transitions) - len(m)) * k)
                for v in m.values():
                    add(v, k)
        return h

    def modal_default(self, hists) -> object:
        """The most frequent value over both relations, ties to the first seen.

        This is the default weight `net_to_document` picks when none is
        given.  Ties are broken by scanning cells in row-major order,
        pre before post, which only runs when a tie occurs.
        """
        total: dict = {}
        for h in hists:
            for v, n in h.items():
                total[v] = total.get(v, 0) + n
        top = max(total.values())
        tied = {v for v, n in total.items() if n == top}
        if len(tied) == 1:
            return tied.pop()
        for part in ("pre", "post"):
            for r in range(self.n_rows):
                for c in range(self.n_cols):
                    v = self.cell(part, r, c)
                    if v in tied:
                        return v
        raise AssertionError("unreachable: a tied value must occur")


# (op, lineale, size of a, size of b); sizes are (places, transitions).
# Each result sits at the cap of 4096 in the carrier the cap limits; the
# last three pairs exceed it by a little.  Only the two oplus results take
# over a second, so the tail rank, ten from the top, falls among the
# tensor, hom and with results of similar cost.
COMBINE_POOL = (
    ("tensor", "nat", (3, 4), (3, 4)),
    ("tensor", "prob", (2, 8), (2, 8)),
    ("hom", "nat", (3, 2), (4, 6)),
    ("hom", "prob", (2, 4), (8, 3)),
    ("with", "nat", (64, 24), (64, 16)),
    ("with", "prob", (64, 10), (64, 10)),
    ("oplus", "nat", (64, 64), (64, 64)),
    ("oplus", "prob", (40, 64), (24, 64)),
    ("tensor", "prob", (3, 4), (3, 5)),
    ("with", "nat", (65, 20), (64, 20)),
    ("oplus", "prob", (70, 64), (64, 65)),
)
SPARSE_DENSITY = 0.05


def combine_ops(rng: random.Random, out: Path) -> list[dict]:
    ops = []
    for i, (op, tag, (ua, xa), (ub, xb)) in enumerate(COMBINE_POOL):
        if op in ("tensor", "hom"):
            a, b = dense_net(rng, tag, ua, xa), dense_net(rng, tag, ub, xb)
        else:
            a = random_net(rng, tag, ua, xa, SPARSE_DENSITY)
            b = random_net(rng, tag, ub, xb, SPARSE_DENSITY)
        a_name, b_name, out_name = f"c{i}a.net", f"c{i}b.net", f"c{i}_{op}.net"
        (out / a_name).write_text(a.document(), encoding="utf-8")
        (out / b_name).write_text(b.document(), encoding="utf-8")
        res = Combined(op, a, b)
        entry = {
            "cmd": "combine",
            "kind": op,
            "argv": ["combine", "--op", op, a_name, b_name, "--out", out_name],
            "lineale": tag,
            "size": [res.n_rows, res.n_cols],
            "out_file": out_name,
        }
        if res.over_cap():
            entry["exit"] = 4
            ops.append(entry)
            continue
        hists = [res.histogram("pre"), res.histogram("post")]
        default = res.modal_default(hists)
        cells = res.n_rows * res.n_cols
        samples = []
        for _ in range(SAMPLE_CELLS):
            r, c = rng.randrange(res.n_rows), rng.randrange(res.n_cols)
            samples.append(
                [
                    r,
                    c,
                    res.place(r),
                    res.transition(c),
                    fmt(res.cell("pre", r, c)),
                    fmt(res.cell("post", r, c)),
                ]
            )
        entry.update(
            {
                "exit": 0,
                "stdout": f"wrote {out_name}: {res.n_rows} places, {res.n_cols} transitions\n",
                "default": fmt(default),
                "arcs": [cells - h.get(default, 0) for h in hists],
                "cells": samples,
            }
        )
        ops.append(entry)
    return ops


# -- laws -----------------------------------------------------------------------


def laws_ops(rng: random.Random, out: Path) -> list[dict]:
    ops = []
    for tag in LAW_TAGS:
        ops.append(
            {
                "cmd": "laws",
                "kind": tag,
                "argv": ["laws", "--lineale", tag, "--cases", str(LAW_CASES),
                         "--seed", str(rng.randrange(1 << 30))],
                "exit": 0,
                "lineale": tag,
            }
        )
    for tag in MUTATE_TAGS:
        ops.append(
            {
                "cmd": "laws",
                "kind": f"{tag}+mutate",
                "argv": ["laws", "--lineale", tag, "--cases", str(LAW_CASES),
                         "--seed", str(rng.randrange(1 << 30)), "--mutate-imp"],
                "exit": 3,
                "lineale": tag,
                "must_fail": "hom.adjunction",
            }
        )
    return ops


WORKLOADS = {"net_io": net_io_ops, "combine": combine_ops, "laws": laws_ops}


def generate(workload: str, seed: int, rounds: int, out_dir: Path) -> list[dict]:
    """Write the inputs and return `rounds` rounds of operations.

    Each round runs every operation of the pool once, in its own seeded
    order; laws rounds draw fresh law seeds, the other workloads reuse
    the pool's files.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    make = WORKLOADS[workload]
    pool = make(rng, out_dir)
    ops = []
    for round_no in range(rounds):
        if round_no and workload == "laws":
            pool = make(rng, out_dir)
        order = list(pool)
        rng.shuffle(order)
        ops.extend(order)
    return [dict(op, id=i) for i, op in enumerate(ops)]


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rounds", type=int, default=1)
    p.add_argument("--out", required=True, help="directory for the input files")
    p.add_argument("--answers", required=True, help="path for the op list with answers")
    args = p.parse_args()
    ops = generate(args.workload, args.seed, args.rounds, Path(args.out))
    Path(args.answers).write_text(json.dumps(ops, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
