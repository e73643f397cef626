"""Span tracing for the traced benchmark run.

Layers are the `krevise` modules.  Each is measured from outside: the tracer
replaces a public function at every module attribute it is called through
(so branch-and-bound children, cut rounds and the benchmark's own calls are
all caught) with a wrapper that records a span.  A span has a name, a
layer, its op id, its parent span, start and end times, and counts read
from the returned object.  Spans stay in memory and are written out as
JSONL when the run ends.

Counting happens after a span has ended; its cost is kept per span as
`book` and charged to the `trace` pseudo-layer, so the self times of the
real layers plus `trace` add up to the op's traced wall time.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import time
from contextlib import contextmanager

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._patches = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name, layer):
        span = {
            "op": self.op,
            "span": len(self.spans) + len(self._stack),
            "parent": self._stack[-1]["span"] if self._stack else None,
            "name": name,
            "layer": layer,
            "t0": _clock(),
            "t1": None,
            "book": 0.0,
            "counts": {},
        }
        self._stack.append(span)
        return span

    def end(self, span):
        span["t1"] = _clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")
        self.spans.append(span)

    @contextmanager
    def span(self, name, layer):
        s = self.begin(name, layer)
        try:
            yield s
        finally:
            self.end(s)

    def parent_name(self):
        return self._stack[-1]["name"] if self._stack else None

    # -- wrapping ------------------------------------------------------------

    def wrap(self, fn, name, layer, before=None, after=None):
        """Wrapper around fn recording one span per call.

        before(tracer, args, kwargs) runs just before the span opens and
        returns a state (it must be O(1)); after(state, args, kwargs, result)
        returns the span's counts and runs once the span has ended.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(self, args, kwargs) if before else None
            s = self.begin(name, layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(s)
            if after:
                tb = _clock()
                s["counts"] = after(state, args, kwargs, out)
                s["book"] = _clock() - tb
            return out

        return wrapper

    def patch(self, module_name, attr, name, layer, before=None, after=None):
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, self.wrap(original, name, layer, before, after))

    def unpatch(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- output --------------------------------------------------------------

    def self_times(self):
        """{span id: self seconds}: duration minus children's duration and book."""
        covered = {}
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] = covered.get(s["parent"], 0.0) + (s["t1"] - s["t0"]) + s["book"]
        return {s["span"]: (s["t1"] - s["t0"]) - covered.get(s["span"], 0.0) for s in self.spans}

    def counts_digest(self, ops):
        """Hash of the counts of the set-up and of ops 0..ops-1, in span order.

        Counts are LP iterations, branch-and-bound nodes, rows, nonzeros,
        cut rounds, query answers and the like; they must repeat exactly for
        one seed.  Fixing the number of ops keeps the hash independent of how
        many ops a run found time for.
        """
        h = hashlib.sha256()
        for s in sorted(self.spans, key=lambda s: s["span"]):
            if s["counts"] and (s["op"] == "setup" or s["op"] < ops):
                h.update(json.dumps([s["op"], s["name"], s["counts"]], sort_keys=True).encode())
        return h.hexdigest()[:16]

    def write_jsonl(self, path, header, summary):
        with open(path, "w") as fh:
            fh.write(json.dumps({"record": "header", **header}) + "\n")
            for s in sorted(self.spans, key=lambda s: s["span"]):
                fh.write(json.dumps({"record": "span", **s}) + "\n")
            fh.write(json.dumps({"record": "summary", **summary}) + "\n")


# -- counters read from returned objects -----------------------------------


def _lp_role(tracer, args, kwargs):
    if kwargs.get("bound_patch"):
        return "child"
    parent = tracer.parent_name()
    if parent == "formulations.cut_loop_st":
        return "cut"
    return "root"


def _set_role(role):
    return lambda tracer, args, kwargs: role


def _solve_counts(role, args, kwargs, res):
    return {"role": role, "status": res.status, "iterations": res.iterations, "nodes": res.nodes}


def _rows_before(tracer, args, kwargs):
    model = args[0]
    return len(model.constraints)


def _rows_added(r0, args, kwargs, model):
    new = model.constraints[r0:]
    return {"rows": len(new), "nnz": sum(len(c.terms) for c in new)}


def _cut_counts(state, args, kwargs, res):
    return {"rounds": res.rounds, "cuts": res.cuts_added}


def _mps_size(state, args, kwargs, text):
    return {"bytes": len(text)}


def _nodes(state, args, kwargs, tree):
    return {"nodes": tree.node_count}


def _result(state, args, kwargs, out):
    """Answer of a revisability query, reduced to a count-like value."""
    if out is None or isinstance(out, (bool, int)):
        return {"result": out}
    if isinstance(out, tuple):  # max_inconsistency's (delta, witness), solve_dp's (value, x, plans)
        return {"result": out[0]}
    return {"result": out.height}  # separate_binary_fast's witness


# (module attribute, span name, layer, before, after).  Every place a traced
# function's name is bound is listed, so calls through any binding are seen.
PATCHES = [
    ("krevise.experiments", "run_experiment", "experiments.run_experiment", "experiments", None, None),
    ("krevise.solver", "solve_lp", "solver.solve_lp", "solver", _lp_role, _solve_counts),
    ("krevise.experiments", "solve_lp", "solver.solve_lp", "solver", _set_role("relax"), _solve_counts),
    ("krevise.solver", "solve_mip", "solver.solve_mip", "solver", _set_role("mip"), _solve_counts),
    ("krevise.experiments", "default_solver", "solver.default_solver", "solver", None, None),
    ("krevise.formulations", "cut_loop_st", "formulations.cut_loop_st", "formulations", None, _cut_counts),
    ("krevise.problems", "add_revision_rows", "formulations.add_revision_rows", "formulations",
     _rows_before, _rows_added),
    ("krevise.formulations", "hypercube_base_model", "formulations.hypercube_base_model", "formulations",
     None, None),
    ("krevise.formulations", "max_inconsistency", "revision.max_inconsistency", "revision", None, _result),
    ("krevise.formulations", "separate_binary_fast", "revision.separate_binary_fast", "revision", None, _result),
    ("krevise.revision", "max_inconsistency", "revision.max_inconsistency", "revision", None, _result),
    ("krevise.revision", "separate_binary_fast", "revision.separate_binary_fast", "revision", None, _result),
    ("krevise.revision", "is_k_revisable", "revision.is_k_revisable", "revision", None, _result),
    ("krevise.revision", "min_revisability", "revision.min_revisability", "revision", None, _result),
    ("krevise.experiments", "attach_revision", "problems.attach_revision", "problems", None, None),
    ("krevise.problems", "attach_revision", "problems.attach_revision", "problems", None, None),
    ("krevise.problems", "build_base_model", "problems.build_base_model", "problems", None, None),
    ("krevise.experiments", "build_lot_sizing", "problems.build_lot_sizing", "problems", None, None),
    ("krevise.experiments", "build_capacity_planning", "problems.build_capacity_planning", "problems",
     None, None),
    ("krevise.experiments", "build_saghp", "problems.build_saghp", "problems", None, None),
    ("krevise.experiments", "generate_lot_sizing", "problems.generate_lot_sizing", "problems", None, None),
    ("krevise.experiments", "generate_capacity_planning", "problems.generate_capacity_planning", "problems",
     None, None),
    ("krevise.experiments", "saghp_instance_from_weather", "problems.saghp_instance_from_weather",
     "problems", None, None),
    ("krevise.experiments", "solve_dp", "hypercube.solve_dp", "hypercube", None, _result),
    ("krevise.hypercube", "solve_dp", "hypercube.solve_dp", "hypercube", None, _result),
    ("krevise.hypercube", "verify_certificate", "hypercube.verify_certificate", "hypercube", None, None),
    ("krevise.experiments", "random_instance", "hypercube.random_instance", "hypercube", None, None),
    ("krevise.hypercube", "random_instance", "hypercube.random_instance", "hypercube", None, None),
    ("krevise.experiments", "generate_stree", "tree.generate_stree", "tree", None, _nodes),
    ("krevise.experiments", "generate_btree", "tree.generate_btree", "tree", None, _nodes),
    ("krevise.tree", "generate_stree", "tree.generate_stree", "tree", None, _nodes),
    ("krevise.tree", "generate_btree", "tree.generate_btree", "tree", None, _nodes),
    ("krevise.tree", "tree_from_dict", "tree.tree_from_dict", "tree", None, None),
    ("krevise.model", "write_mps", "model.write_mps", "model", None, _mps_size),
    ("krevise.model", "parse_mps", "model.parse_mps", "model", None, None),
    ("krevise.model", "write_lp", "model.write_lp", "model", None, None),
]


def install(tracer):
    for module_name, attr, name, layer, before, after in PATCHES:
        tracer.patch(module_name, attr, name, layer, before, after)
