"""In-process runner for the traced and untraced passes.

Run as `python3 perfbench/tracer.py SPEC OUT`, where SPEC is a JSON file
with the package's `src` directory, the CLI argument lists to run, whether
to trace, and where to write spans.  Each request calls
`positroids.cli.main(argv)` with stdout and stderr sent to counting sinks;
the summary written to OUT holds each request's exit code, stdout sha256
and byte count, the untraced or traced time of the `main` calls, and, when
tracing, per-layer aggregates.

Tracing replaces each layer function below at every place the package
holds a reference to it (its defining module, the modules that import it,
and module-level dispatch tables), so nothing under `src/` changes.  Each
call records a span (id, parent, name, start, end, request) in memory; the
spans are written out once the pass ends.  Small helpers such as
`members_of` are left alone: they run hundreds of thousands of times per
census and a span each would swamp what is measured.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import sys
import time
import traceback
from collections import defaultdict


def _kept(result, args):
    return len(result.bases), math.comb(result.n, result.k)


def _positive(result, args):
    return int(result is not None), 1


def _scanned(n, *rest):
    return 1 << n


# (layer, module, attribute, kind, ratio name, ratio hook).  Kind "call"
# records one span per call; "iter" wraps a generator and records one span
# per next(), counting items.  A ratio hook maps (result, args) to a
# (useful, attempted) pair; for "iter" it maps the call's arguments to the
# attempted count and each item is one useful outcome.
LAYERS = (
    ("necklace.necklace_to_positroid", "necklace", "necklace_to_positroid",
     "call", "kept_ratio", _kept),
    ("necklace.positroid_necklace", "necklace", "positroid_necklace",
     "call", None, None),
    ("necklace.is_positroid", "necklace", "is_positroid", "call", None, None),
    ("necklace.all_necklaces", "necklace", "all_necklaces", "iter", None,
     None),
    ("necklace.sparse_paving_witness", "necklace", "sparse_paving_witness",
     "call", "positive_ratio", _positive),
    ("matroid.is_sparse_paving", "matroid", "is_sparse_paving", "call", None,
     None),
    ("matroid.circuits", "matroid", "circuits", "call", None, None),
    ("matroid.hyperplanes", "matroid", "hyperplanes", "call", None, None),
    ("matroid.relax", "matroid", "relax", "call", None, None),
    ("matroid.exchange_check", "matroid", "_exchange_masks", "call", None,
     None),
    ("matroid.Matroid.from_dict", "matroid", "Matroid.from_dict", "call",
     None, None),
    ("le_diagram.realizable_sets", "le_diagram", "realizable_sets", "call",
     "basis_ratio", _kept),
    ("le_diagram.build_network", "le_diagram", "build_network", "call", None,
     None),
    ("le_diagram.le_from_removals", "le_diagram", "le_from_removals", "call",
     None, None),
    ("decorated.necklace_to_decperm", "decorated", "necklace_to_decperm",
     "call", None, None),
    ("decorated.decperm_to_necklace", "decorated", "decperm_to_necklace",
     "call", None, None),
    ("enumeration.nonadjacent_subsets", "enumeration", "nonadjacent_subsets",
     "iter", "yield_ratio", _scanned),
    ("cli.decode", "cli", "_read_json", "call", None, None),
    # JSON encoding is the payload's to_dict plus the json.dumps call.
    ("cli.encode", "cli", "_dumps", "call", None, None),
    ("cli.encode", "matroid", "Matroid.to_dict", "call", None, None),
    ("cli.encode", "necklace", "GrassmannNecklace.to_dict", "call", None,
     None),
    ("cli.encode", "necklace", "NonAdjacentSet.to_dict", "call", None, None),
    ("cli.encode", "decorated", "DecoratedPermutation.to_dict", "call", None,
     None),
    ("cli.encode", "le_diagram", "LeDiagram.to_dict", "call", None, None),
)
MODULES = ("matroid", "necklace", "decorated", "le_diagram", "enumeration",
           "cli")
ROOT_SPAN = "cli"


class Tracer:
    """Span recorder; a span is [id, parent, name, start_ns, end_ns,
    request]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = 0
        self.ratios: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        self.items: dict[str, int] = defaultdict(int)

    def call(self, name, fn, args, kwargs):
        rec = [len(self.spans), self.stack[-1] if self.stack else None,
               name, 0, 0, self.request]
        self.spans.append(rec)
        self.stack.append(rec[0])
        rec[3] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[4] = time.perf_counter_ns()
            self.stack.pop()

    def count(self, ratio: str, useful: int, attempted: int):
        pair = self.ratios[ratio]
        pair[0] += useful
        pair[1] += attempted


class _TracedIter:
    def __init__(self, tracer: Tracer, layer: str, it, ratio: str | None):
        self.tracer, self.layer, self.it = tracer, layer, it
        self.ratio = ratio

    def __iter__(self):
        return self

    def __next__(self):
        item = self.tracer.call(self.layer, next, (self.it,), {})
        self.tracer.items[self.layer] += 1
        if self.ratio:
            self.tracer.count(self.ratio, 1, 0)
        return item


def _wrap(tracer, layer, fn, kind, ratio, hook):
    if kind == "iter":
        def traced(*args, **kwargs):
            key = f"{layer}.{ratio}" if ratio else None
            if key:
                tracer.count(key, 0, hook(*args, **kwargs))
            return _TracedIter(tracer, layer, fn(*args, **kwargs), key)
    elif ratio:
        def traced(*args, **kwargs):
            result = tracer.call(layer, fn, args, kwargs)
            tracer.count(f"{layer}.{ratio}", *hook(result, args))
            return result
    else:
        def traced(*args, **kwargs):
            return tracer.call(layer, fn, args, kwargs)
    traced.__wrapped__ = fn
    return traced


def _rebind(modules, old, new):
    """Point every module-level reference to `old` at `new`, including
    values of module-level dicts (such as the CLI's loader table)."""
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, key, new)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is old or getattr(v, "__func__", None) is old:
                        value[k] = new


def install(tracer: Tracer) -> None:
    modules = [importlib.import_module(f"positroids.{m}") for m in MODULES]
    modules.append(importlib.import_module("positroids"))
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
    for layer, modname, attr, kind, ratio, hook in LAYERS:
        owner = by_name[modname]
        cls_name, _, meth = attr.rpartition(".")
        if not cls_name:
            old = getattr(owner, attr)
            _rebind(modules, old, _wrap(tracer, layer, old, kind, ratio,
                                        hook))
            continue
        cls = getattr(owner, cls_name)
        raw = cls.__dict__[meth]
        if isinstance(raw, classmethod):
            setattr(cls, meth, classmethod(
                _wrap(tracer, layer, raw.__func__, kind, ratio, hook)))
            _rebind(modules, raw.__func__, getattr(cls, meth))
        else:
            setattr(cls, meth, _wrap(tracer, layer, raw, kind, ratio, hook))


def layer_summary(tracer: Tracer) -> dict:
    """calls (or items), busy and self seconds per layer.  Busy time counts
    only spans with no enclosing span of the same layer; self time is a
    span's duration minus the durations of its direct children."""
    spans = tracer.spans
    child_ns = [0] * len(spans)
    for s in spans:
        if s[1] is not None:
            child_ns[s[1]] += s[4] - s[3]
    out: dict[str, dict] = {}
    for s in spans:
        row = out.setdefault(s[2], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        dur = s[4] - s[3]
        row["calls"] += 1
        row["self_s"] += (dur - child_ns[s[0]]) / 1e9
        parent, nested = s[1], False
        while parent is not None:
            if spans[parent][2] == s[2]:
                nested = True
                break
            parent = spans[parent][1]
        if not nested:
            row["busy_s"] += dur / 1e9
    for layer, n in tracer.items.items():
        out.setdefault(layer, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        out[layer]["items"] = n
    return {"layers": out, "ratios": {k: list(v)
                                      for k, v in tracer.ratios.items()}}


class Sink:
    """Write-only text stream that keeps a byte count, a sha256 and, when
    asked, the last 2000 characters."""

    def __init__(self, keep_tail: bool = False):
        self.bytes = 0
        self.hash = hashlib.sha256()
        self.keep_tail = keep_tail
        self.tail = ""

    def write(self, text: str) -> int:
        data = text.encode()
        self.bytes += len(data)
        self.hash.update(data)
        if self.keep_tail:
            self.tail = (self.tail + text)[-2000:]
        return len(text)

    def flush(self):
        pass


def run(spec: dict) -> dict:
    sys.path.insert(0, spec["src"])
    cli = importlib.import_module("positroids.cli")
    tracer = Tracer() if spec["trace"] else None
    if tracer:
        install(tracer)
    results = []
    elapsed = 0.0
    real_out, real_err = sys.stdout, sys.stderr
    for index, argv in enumerate(spec["requests"]):
        out, err = Sink(), Sink(keep_tail=True)
        error = None
        sys.stdout, sys.stderr = out, err
        start = time.perf_counter()
        try:
            if tracer:
                tracer.request = index
                rc = tracer.call(ROOT_SPAN, cli.main, (argv,), {})
            else:
                rc = cli.main(argv)
        except Exception:  # a traceback is a failed request, not a crash
            rc, error = None, traceback.format_exc()
        finally:
            elapsed += time.perf_counter() - start
            sys.stdout, sys.stderr = real_out, real_err
        results.append({"rc": rc, "sha256": out.hash.hexdigest(),
                        "bytes": out.bytes, "stderr": err.tail,
                        "error": error})
    summary = {"elapsed_s": elapsed, "results": results}
    if tracer:
        summary.update(layer_summary(tracer))
        summary["spans"] = len(tracer.spans)
        with open(spec["spans"], "w", encoding="utf-8") as handle:
            for s in tracer.spans:
                handle.write(json.dumps(
                    {"id": s[0], "parent": s[1], "name": s[2],
                     "start_ns": s[3], "end_ns": s[4], "request": s[5]})
                    + "\n")
    return summary


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as handle:
        spec_in = json.load(handle)
    summary_out = run(spec_in)
    with open(sys.argv[2], "w", encoding="utf-8") as handle:
        json.dump(summary_out, handle)
