"""Spans around trialg's public functions, recorded from outside the program.

``Tracer.install()`` replaces each traced function with a wrapper that
records one span (name, start, end, parent span, op id, counters) and
rebinds every name under which a trialg module holds the original, so
calls through ``from ... import`` names are traced too.  ``Matrix.kron``
and ``Matrix.__mul__`` are wrapped on the class; ``RingElem`` operators,
which run millions of times, are not.  Spans stay in memory until the
worker writes them out.

``layer_metrics`` turns the spans of the traced passes into the per-layer
metrics named in BENCHMARK.json, averaged per pass.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from collections import defaultdict

MODULES = ("ring", "msc", "generate", "identities", "iso", "polysolve", "catalog", "cli")


def _args(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _kron_counts(fn, args, kwargs, result):
    return {"entries": result.nrows * result.ncols}


def _iso_counts(fn, args, kwargs, result):
    a = _args(fn, args, kwargs)
    return {"candidates": a["p"] ** (a["A"].dim ** 2), "witnesses": len(result)}


def _sweep_counts(fn, args, kwargs, result):
    if result.witnesses is not None:
        witnesses = len(result.witnesses)
    else:
        witnesses = int(result.status == "witness")
    return {"prime": result.effort["prime"], "assignments": result.effort["assignments"],
            "witnesses": witnesses}


def _buchberger_counts(fn, args, kwargs, result):
    return {"pairs_processed": result.effort["pairs_processed"],
            "pairs_skipped": result.effort["pairs_skipped_by_criteria"]}


def _certify_counts(fn, args, kwargs, result):
    return {"lift_attempts": (result.effort or {}).get("lift_attempts", 0)}


# (module, attribute, span name, counters read from the arguments/result)
TARGETS = (
    ("ring", "parse_scalar", "ring.parse_scalar", None),
    ("msc", "msc_from_doc", "msc.codec", None),
    ("msc", "msc_to_doc", "msc.codec", None),
    ("msc", "Matrix.kron", "msc.kron", _kron_counts),
    ("msc", "Matrix.__mul__", "msc.matmul", None),
    ("msc", "transform", "msc.transform", None),
    ("generate", "generate_nary", "generate.generate_nary", None),
    ("generate", "symbolic_system", "generate.symbolic_system", None),
    ("identities", "total_assoc_residuals", "identities.total_assoc_residuals", None),
    ("identities", "quintuple_oracle", "identities.oracle", None),
    ("identities", "binary_triple_oracle", "identities.oracle", None),
    ("iso", "iso_search", "iso.search", _iso_counts),
    ("iso", "iso_verify", "iso.verify", None),
    ("polysolve", "solve_ff_exhaustive", "polysolve.sweep", _sweep_counts),
    ("polysolve", "buchberger", "polysolve.buchberger", _buchberger_counts),
    ("polysolve", "certify_expressibility", "polysolve.certify", _certify_counts),
    ("catalog", "table1_verify", "catalog.table1_verify", None),
    ("catalog", "claims_verify", "catalog.claims_verify", None),
    ("catalog", "totassoc_scan", "catalog.totassoc_scan", None),
    ("catalog", "totassoc_constraints", "catalog.totassoc_constraints", None),
)


class Tracer:
    """Span recorder; one per traced worker process."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = None

    def _open(self, name):
        span = {"id": len(self.spans), "name": name, "op": self._op,
                "parent": self._stack[-1]["id"] if self._stack else None}
        self.spans.append(span)
        self._stack.append(span)
        span["start"] = time.perf_counter()
        return span

    def _close(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def op(self, op_id):
        """One CLI op: the root span, named "cli"."""
        self._op = op_id
        span = self._open("cli")
        try:
            yield
        finally:
            self._close(span)

    def wrap(self, name, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counts is not None:
                span.update(counts(fn, args, kwargs, result))
            return result

        return traced

    def install(self):
        mods = [importlib.import_module("trialg")]
        mods += [importlib.import_module(f"trialg.{m}") for m in MODULES]
        for module, attr, name, counts in TARGETS:
            owner = importlib.import_module(f"trialg.{module}")
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, counts)
            setattr(owner, attr, wrapper)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """Span id -> duration minus the time its direct children cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"]) - _covered(children[s["id"]], s["start"], s["end"])
        for s in spans
    }


def _outermost(spans):
    """Spans with no ancestor of the same name, so nested calls count once."""
    by_id = {s["id"]: s for s in spans}
    out = []
    for s in spans:
        parent = s["parent"]
        while parent is not None and by_id[parent]["name"] != s["name"]:
            parent = by_id[parent]["parent"]
        if parent is None:
            out.append(s)
    return out


# (metric, unit) in report order; the unit says how the value is formed
PER_LAYER = (
    ("cli.self_s", "s"),
    ("ring.parse_scalar.calls", "count"),
    ("ring.parse_scalar.s", "s"),
    ("msc.codec.s", "s"),
    ("msc.kron.calls", "count"),
    ("msc.kron.s", "s"),
    ("msc.kron.entries", "count"),
    ("msc.matmul.calls", "count"),
    ("msc.matmul.s", "s"),
    ("msc.transform.calls", "count"),
    ("msc.transform.s", "s"),
    ("generate.generate_nary.calls", "count"),
    ("generate.generate_nary.s", "s"),
    ("generate.symbolic_system.s", "s"),
    ("identities.total_assoc_residuals.calls", "count"),
    ("identities.total_assoc_residuals.s", "s"),
    ("identities.oracle.s", "s"),
    ("iso.search.calls", "count"),
    ("iso.search.s", "s"),
    ("iso.candidates", "count"),
    ("iso.candidates_per_s", "1/s"),
    ("iso.witnesses", "count"),
    ("iso.witness_ratio", "1"),
    ("iso.verify.s", "s"),
    ("polysolve.sweep.calls", "count"),
    ("polysolve.sweep.s", "s"),
    ("polysolve.sweep.p5.s", "s"),
    ("polysolve.sweep.p7.s", "s"),
    ("polysolve.sweep.assignments", "count"),
    ("polysolve.sweep.assignments_per_s", "1/s"),
    ("polysolve.sweep.witnesses", "count"),
    ("polysolve.buchberger.calls", "count"),
    ("polysolve.buchberger.s", "s"),
    ("polysolve.buchberger.pairs_processed", "count"),
    ("polysolve.buchberger.pairs_skipped", "count"),
    ("polysolve.certify.self_s", "s"),
    ("polysolve.lift.attempts", "count"),
    ("catalog.table1_verify.s", "s"),
    ("catalog.claims_verify.self_s", "s"),
    ("catalog.totassoc_scan.s", "s"),
    ("catalog.totassoc_constraints.s", "s"),
    ("trace.overhead_s", "s"),
)


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(spans, npasses, overhead_s):
    """Per-layer metrics of a run, averaged over its ``npasses`` traced
    passes; ``overhead_s`` is the traced minus the untraced pass time."""
    n = npasses
    selfs = self_times(spans)
    outer = _outermost(spans)

    def calls(name):
        return sum(1 for s in spans if s["name"] == name) / n

    def secs(name, **match):
        return sum(s["end"] - s["start"] for s in outer if s["name"] == name
                   and all(s.get(k) == v for k, v in match.items())) / n

    def self_s(name):
        return sum(selfs[s["id"]] for s in spans if s["name"] == name) / n

    def total(name, key):
        return sum(s.get(key, 0) for s in spans if s["name"] == name) / n

    m = {"cli.self_s": self_s("cli"), "msc.codec.s": secs("msc.codec"),
         "generate.symbolic_system.s": secs("generate.symbolic_system"),
         "identities.oracle.s": secs("identities.oracle")}
    for name in ("ring.parse_scalar", "msc.kron", "msc.matmul", "msc.transform",
                 "generate.generate_nary", "identities.total_assoc_residuals",
                 "iso.search", "polysolve.sweep", "polysolve.buchberger"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = secs(name)
    m["msc.kron.entries"] = total("msc.kron", "entries")
    m["iso.candidates"] = total("iso.search", "candidates")
    m["iso.candidates_per_s"] = _ratio(m["iso.candidates"], m["iso.search.s"])
    m["iso.witnesses"] = total("iso.search", "witnesses")
    m["iso.witness_ratio"] = _ratio(m["iso.witnesses"], m["iso.candidates"])
    m["iso.verify.s"] = secs("iso.verify")
    m["polysolve.sweep.p5.s"] = secs("polysolve.sweep", prime=5)
    m["polysolve.sweep.p7.s"] = secs("polysolve.sweep", prime=7)
    m["polysolve.sweep.assignments"] = total("polysolve.sweep", "assignments")
    m["polysolve.sweep.assignments_per_s"] = _ratio(
        m["polysolve.sweep.assignments"], m["polysolve.sweep.s"])
    m["polysolve.sweep.witnesses"] = total("polysolve.sweep", "witnesses")
    m["polysolve.buchberger.pairs_processed"] = total("polysolve.buchberger", "pairs_processed")
    m["polysolve.buchberger.pairs_skipped"] = total("polysolve.buchberger", "pairs_skipped")
    m["polysolve.certify.self_s"] = self_s("polysolve.certify")
    m["polysolve.lift.attempts"] = total("polysolve.certify", "lift_attempts")
    for name in ("table1_verify", "totassoc_scan", "totassoc_constraints"):
        m[f"catalog.{name}.s"] = secs(f"catalog.{name}")
    m["catalog.claims_verify.self_s"] = self_s("catalog.claims_verify")
    m["trace.overhead_s"] = overhead_s
    return {name: {"value": m[name], "unit": unit} for name, unit in PER_LAYER}


def module_shares(spans, wall):
    """Module -> share of ``wall`` (the traced passes' total time) spent in
    its own code, i.e. span self time; "-" is the time outside any span."""
    selfs = self_times(spans)
    shares = defaultdict(float)
    for s in spans:
        shares[s["name"].split(".")[0]] += selfs[s["id"]] / wall
    shares["-"] = 1.0 - sum(shares.values())
    return dict(shares)
