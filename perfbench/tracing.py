"""Per-layer tracing, installed from outside the package.

`Tracer.install()` replaces the public functions listed below with
timing wrappers, in every `dialnet` module namespace that binds them,
so calls between modules (for example `laws` calling its imported
`tensor_obj`) are seen.  `uninstall()` puts the originals back.

Two kinds of wrapper:

* span functions record (group, start, end, parent span, op id) in
  memory; `write_spans` saves them when the run ends;
* per-value calls (`Lineale.leq/tensor/imp/parse`, `format_value`,
  `FinSet.index_of`, and the `FnTable` / `DialObject` validation that
  runs on every construction) are counted and timed but leave no span.

Both share one call stack, so each group's self time is its duration
minus the time its children (spans and per-value calls) cover.  Layers
are the package's modules; a group named `dialset.build` belongs to
the `dialset` layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("lineale", "finset", "dialset", "petrinet", "netdoc", "laws", "cli")
SUITES = ("lineale", "category", "functoriality", "universal", "coherence", "adjunction")

# module -> {public function: span group}
SPANS = {
    "cli": {"main": "cli.main"},
    "lineale": {"get_lineale": "lineale.get_lineale"},
    "finset": {"exp_set": "finset.exp_set"},
    "dialset": {
        **dict.fromkeys(("tensor_obj", "hom_obj", "with_product", "oplus"), "dialset.build"),
        "check_morphism": "dialset.check",
        "enumerate_morphisms": "dialset.enum",
        **dict.fromkeys(
            (
                "associator",
                "left_unitor",
                "right_unitor",
                "symmetry",
                "curry_dial",
                "uncurry_dial",
                "tensor_mor",
                "hom_mor",
            ),
            "dialset.structure",
        ),
    },
    "petrinet": {
        "net_from_arcs": "petrinet.from_arcs",
        "check_net_morphism": "petrinet.check",
        **dict.fromkeys(("net_tensor", "net_hom", "net_with", "net_oplus"), "petrinet.combine"),
    },
    "netdoc": {
        "parse_net_document": "netdoc.parse",
        "parse_morphism_document": "netdoc.parse",
        "document_to_net": "netdoc.to_net",
        "resolve_morphism_document": "netdoc.resolve",
        "net_to_document": "netdoc.to_doc",
        "serialize_net_document": "netdoc.serialize",
        "export_dot": "netdoc.dot",
        "load_net": "netdoc.load",
        "save_net": "netdoc.save",
    },
    "laws": {
        "lineale_laws": "laws.lineale",
        "category_laws": "laws.category",
        "functoriality_laws": "laws.functoriality",
        "universal_laws": "laws.universal",
        "coherence_laws": "laws.coherence",
        "adjunction_oracle": "laws.adjunction",
        "run_all": "laws.run_all",
        "mutate_imp": "laws.mutate",
    },
}

# (module, class or None, attribute, counter group): per-value calls
COUNTED = (
    ("lineale", "Lineale", "leq", "lineale.op"),
    ("lineale", "Lineale", "tensor", "lineale.op"),
    ("lineale", "Lineale", "imp", "lineale.op"),
    ("lineale", "Lineale", "parse", "lineale.parse"),
    ("lineale", None, "format_value", "lineale.format"),
    ("finset", "FinSet", "index_of", "finset.index_of"),
    ("finset", "FnTable", "__post_init__", "finset.fntable"),
    ("dialset", "DialObject", "__post_init__", "dialset.object"),
)


def _probe_build(extra, args, out):
    extra["dialset.build_entries"] += out.pos.size * out.neg.size


def _probe_check(extra, args, out):
    source, target = args[0], args[1]
    extra["dialset.check_cells"] += source.pos.size * target.neg.size


def _probe_enum(extra, args, out):
    a, b = args[0], args[1]
    extra["dialset.enum_candidates"] += b.pos.size**a.pos.size * a.neg.size**b.neg.size
    extra["dialset.enum_found"] += len(out)


def _probe_to_net(extra, args, out):
    extra["netdoc.arcs_read"] += len(args[0].pre) + len(args[0].post)


def _probe_to_doc(extra, args, out):
    extra["netdoc.arcs_written"] += len(out.pre) + len(out.post)


def _probe_text(extra, args, out):
    extra["netdoc.bytes_written"] += len(out.encode("utf-8"))


def _probe_suite(group):
    key = f"{group}_cases"

    def probe(extra, args, out):
        extra[key] += sum(r.cases for r in out)

    return probe


def _probe_run_all(extra, args, out):
    extra["laws.zero_case_laws"] += sum(1 for r in out if r.passed and r.cases == 0)


def _probe_exit(extra, args, out):
    extra[f"cli.exit_{out}"] += 1


# Extra counts taken from a span's arguments and result, after it returns.
PROBES = {
    "dialset.build": _probe_build,
    "dialset.check": _probe_check,
    "dialset.enum": _probe_enum,
    "netdoc.to_net": _probe_to_net,
    "netdoc.to_doc": _probe_to_doc,
    "netdoc.serialize": _probe_text,
    "netdoc.dot": _probe_text,
    "cli.main": _probe_exit,
    "laws.run_all": _probe_run_all,
    **{f"laws.{s}": _probe_suite(f"laws.{s}") for s in SUITES},
}


class Tracer:
    """Spans and counts for one traced pass; install, run, uninstall."""

    def __init__(self):
        self.spans: list = []  # (group, start, end, parent index, op id)
        self.stats = defaultdict(lambda: [0, 0.0])  # group -> [calls, self seconds]
        self.extra = defaultdict(int)
        self.op = None
        self._stack = [[0.0, -1]]  # frames: [time covered by children, span index]
        self._undo: list = []

    def _wrap(self, group, fn, record):
        spans, stack, stat, extra = self.spans, self._stack, self.stats[group], self.extra
        probe = PROBES.get(group)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, len(spans) if record else parent[1]]
            if record:
                spans.append(None)
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                parent[0] += t1 - t0
                stat[0] += 1
                stat[1] += t1 - t0 - frame[0]
                if record:
                    spans[frame[1]] = (group, t0, t1, parent[1], self.op)
            if probe is not None:
                probe(extra, args, out)
            return out

        return wrapper

    def install(self) -> None:
        mods = [m for name, m in sys.modules.items() if name.split(".")[0] == "dialnet"]
        for modname, table in SPANS.items():
            home = importlib.import_module(f"dialnet.{modname}")
            for fname, group in table.items():
                orig = getattr(home, fname)
                self._rebind(mods, orig, self._wrap(group, orig, record=True))
        for modname, cls, attr, group in COUNTED:
            home = importlib.import_module(f"dialnet.{modname}")
            if cls is None:
                orig = getattr(home, attr)
                self._rebind(mods, orig, self._wrap(group, orig, record=False))
            else:
                owner = getattr(home, cls)
                orig = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(group, orig, record=False))
                self._undo.append((owner, attr, orig))

    def _rebind(self, mods, orig, wrapper) -> None:
        for m in mods:
            for name, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, name, wrapper)
                    self._undo.append((m, name, orig))

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo.clear()

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")

    def metrics(self) -> dict:
        """Per-layer metrics: name -> (value, unit)."""
        st, ex = self.stats, self.extra

        def calls(g):
            return st[g][0] if g in st else 0

        def secs(g):
            return st[g][1] if g in st else 0.0

        def per(num, den, scale=1.0):
            return num * scale / den if den else 0.0

        m = {}
        op_calls = calls("lineale.op")
        m["lineale.op_calls"] = (op_calls, "count")
        m["lineale.ns_per_op"] = (per(secs("lineale.op"), op_calls, 1e9), "ns")
        m["lineale.parse_calls"] = (calls("lineale.parse"), "count")
        m["lineale.format_calls"] = (calls("lineale.format"), "count")
        m["lineale.get_lineale_calls"] = (calls("lineale.get_lineale"), "count")
        m["lineale.get_lineale_s"] = (secs("lineale.get_lineale"), "s")

        m["finset.index_of_calls"] = (calls("finset.index_of"), "count")
        m["finset.index_of_s"] = (secs("finset.index_of"), "s")
        m["finset.fntable_builds"] = (calls("finset.fntable"), "count")
        m["finset.exp_set_calls"] = (calls("finset.exp_set"), "count")

        entries = ex["dialset.build_entries"]
        m["dialset.build_calls"] = (calls("dialset.build"), "count")
        m["dialset.build_entries"] = (entries, "count")
        m["dialset.build_s"] = (secs("dialset.build"), "s")
        m["dialset.build_ns_per_entry"] = (per(secs("dialset.build"), entries, 1e9), "ns")
        m["dialset.objects_built"] = (calls("dialset.object"), "count")
        m["dialset.object_validate_s"] = (secs("dialset.object"), "s")
        cells = ex["dialset.check_cells"]
        m["dialset.check_cells"] = (cells, "count")
        m["dialset.check_s"] = (secs("dialset.check"), "s")
        m["dialset.check_ns_per_cell"] = (per(secs("dialset.check"), cells, 1e9), "ns")
        cand, found = ex["dialset.enum_candidates"], ex["dialset.enum_found"]
        m["dialset.enum_calls"] = (calls("dialset.enum"), "count")
        m["dialset.enum_candidates"] = (cand, "count")
        m["dialset.enum_found"] = (found, "count")
        m["dialset.enum_hit_ratio"] = (per(found, cand), "ratio")
        m["dialset.enum_s"] = (secs("dialset.enum"), "s")
        m["dialset.enum_candidates_per_s"] = (per(cand, secs("dialset.enum")), "1/s")
        m["dialset.structure_calls"] = (calls("dialset.structure"), "count")
        m["dialset.structure_s"] = (secs("dialset.structure"), "s")

        m["petrinet.from_arcs_s"] = (secs("petrinet.from_arcs"), "s")
        m["petrinet.check_s"] = (secs("petrinet.check"), "s")
        m["petrinet.combine_s"] = (secs("petrinet.combine"), "s")

        m["netdoc.parse_s"] = (secs("netdoc.parse"), "s")
        m["netdoc.to_net_s"] = (secs("netdoc.to_net"), "s")
        m["netdoc.resolve_s"] = (secs("netdoc.resolve"), "s")
        m["netdoc.arcs_read"] = (ex["netdoc.arcs_read"], "count")
        m["netdoc.to_doc_s"] = (secs("netdoc.to_doc"), "s")
        m["netdoc.serialize_s"] = (secs("netdoc.serialize"), "s")
        m["netdoc.dot_s"] = (secs("netdoc.dot"), "s")
        m["netdoc.arcs_written"] = (ex["netdoc.arcs_written"], "count")
        m["netdoc.bytes_written"] = (ex["netdoc.bytes_written"], "bytes")

        for s in SUITES:
            m[f"laws.{s}_s"] = (secs(f"laws.{s}"), "s")
            m[f"laws.{s}_cases"] = (ex[f"laws.{s}_cases"], "count")
        m["laws.zero_case_laws"] = (ex["laws.zero_case_laws"], "count")

        m["cli.self_s"] = (secs("cli.main"), "s")
        for code in (0, 3, 4):
            m[f"cli.exit_{code}"] = (ex[f"cli.exit_{code}"], "count")

        for layer in LAYERS:
            total = sum(v[1] for g, v in st.items() if g.split(".")[0] == layer)
            m[f"{layer}.self_s"] = (total, "s")
        return m
