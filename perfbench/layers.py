"""Per-layer metrics from the spans of a traced run.

Names are `<module>.<metric>`.  Unless a metric says otherwise, `_s` metrics
are seconds per op (span durations summed over the traced ops, divided by
their number), `_ms` metrics are milliseconds per call, and counts are per
call of the function that produced them.  `<layer>.self_s` is the layer's
self time per op; with `experiments.cell_self_s`, `bench.self_s` and
`trace.self_s` they add up to `trace.op_s`, the traced op time.
`trace.overhead_s` is that minus the untraced time of the same ops.
"""

from __future__ import annotations

LAYERS = ("solver", "formulations", "problems", "model", "revision", "hypercube", "tree")

# name -> (unit, better); BENCHMARK.json's per_layer list is this table.
METRICS = {
    "solver.root_lp_s": ("s/op", "lower"),
    "solver.root_lp_iters": ("count", "lower"),
    "solver.us_per_iter": ("us", "lower"),
    "solver.child_lp_s": ("s/op", "lower"),
    "solver.child_iters_per_root": ("ratio", "lower"),
    "solver.bb_nodes": ("count", "lower"),
    "solver.child_infeasible_ratio": ("ratio", "lower"),
    "solver.relax_lp_s": ("s/op", "lower"),
    "formulations.build_s": ("s/op", "lower"),
    "formulations.rows": ("count", "lower"),
    "formulations.nnz": ("count", "lower"),
    "formulations.cut_rounds": ("count", "lower"),
    "formulations.cuts_added": ("count", "lower"),
    "formulations.cut_loop_s": ("s/op", "lower"),
    "model.write_mps_s": ("s/op", "lower"),
    "model.parse_mps_s": ("s/op", "lower"),
    "model.write_lp_s": ("s/op", "lower"),
    "model.mps_mb": ("MB", "lower"),
    "problems.base_build_s": ("s/op", "lower"),
    "problems.attach_s": ("s/op", "lower"),
    "revision.max_inconsistency_ms": ("ms", "lower"),
    "revision.separate_binary_fast_ms": ("ms", "lower"),
    "revision.is_k_revisable_ms": ("ms", "lower"),
    "revision.min_revisability_ms": ("ms", "lower"),
    "hypercube.solve_dp_ms": ("ms", "lower"),
    "tree.gen_s": ("s", "lower"),
    "experiments.cell_self_s": ("s/op", "lower"),
    **{f"{layer}.self_s": ("s/op", "lower") for layer in LAYERS},
    "bench.self_s": ("s/op", "lower"),
    "trace.self_s": ("s/op", "lower"),
    "trace.op_s": ("s/op", "lower"),
    "trace.untraced_op_s": ("s/op", "lower"),
    "trace.overhead_s": ("s/op", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def _ratio(a, b):
    return a / b if b else 0.0


def metrics(tracer, n_ops, untraced_total):
    """Per-layer metrics of `n_ops` traced ops whose untraced time was `untraced_total`."""
    spans = [s for s in tracer.spans if s["op"] != "setup"]
    setup = [s for s in tracer.spans if s["op"] == "setup"]
    self_t = tracer.self_times()

    def dur(s):
        return s["t1"] - s["t0"]

    def named(name, pool=spans):
        return [s for s in pool if s["name"] == name]

    def per_op(pool):
        return sum(dur(s) for s in pool) / n_ops

    def mean_ms(name):
        calls = named(name)
        return 1e3 * _ratio(sum(dur(s) for s in calls), len(calls))

    def total(pool, key):
        return sum(s["counts"].get(key, 0) for s in pool)

    lps = named("solver.solve_lp")
    role = {r: [s for s in lps if s["counts"].get("role") == r] for r in ("root", "child", "relax", "cut")}
    root, child = role["root"], role["child"]
    iterating = [s for s in lps if s["counts"].get("iterations")]
    mips = named("solver.solve_mip")
    rows = named("formulations.add_revision_rows")
    cuts = named("formulations.cut_loop_st")
    mps = named("model.write_mps")
    builds = rows + named("formulations.hypercube_base_model")
    base_builds = [s for s in spans if s["layer"] == "problems" and s["name"] != "problems.attach_revision"]

    layer_self = {}
    for s in spans:
        layer_self[s["layer"]] = layer_self.get(s["layer"], 0.0) + self_t[s["span"]]
    book = sum(s["book"] for s in spans)
    op_s = per_op(named("bench.op"))
    untraced = untraced_total / n_ops

    values = {
        "solver.root_lp_s": per_op(root),
        "solver.root_lp_iters": _ratio(total(root, "iterations"), len(root)),
        "solver.us_per_iter": 1e6 * _ratio(sum(dur(s) for s in iterating), total(iterating, "iterations")),
        "solver.child_lp_s": per_op(child),
        "solver.child_iters_per_root": _ratio(_ratio(total(child, "iterations"), len(child)),
                                              _ratio(total(root, "iterations"), len(root))),
        "solver.bb_nodes": _ratio(total(mips, "nodes"), len(mips)),
        "solver.child_infeasible_ratio": _ratio(
            sum(s["counts"]["status"] == "infeasible" for s in child), len(child)),
        "solver.relax_lp_s": per_op(role["relax"]),
        "formulations.build_s": per_op(builds),
        "formulations.rows": _ratio(total(rows, "rows"), len(rows)),
        "formulations.nnz": _ratio(total(rows, "nnz"), len(rows)),
        "formulations.cut_rounds": _ratio(total(cuts, "rounds"), len(cuts)),
        "formulations.cuts_added": _ratio(total(cuts, "cuts"), len(cuts)),
        "formulations.cut_loop_s": sum(self_t[s["span"]] for s in cuts) / n_ops,
        "model.write_mps_s": per_op(mps),
        "model.parse_mps_s": per_op(named("model.parse_mps")),
        "model.write_lp_s": per_op(named("model.write_lp")),
        "model.mps_mb": _ratio(total(mps, "bytes"), len(mps)) / 1e6,
        "problems.base_build_s": per_op(base_builds),
        "problems.attach_s": per_op(named("problems.attach_revision")),
        "revision.max_inconsistency_ms": mean_ms("revision.max_inconsistency"),
        "revision.separate_binary_fast_ms": mean_ms("revision.separate_binary_fast"),
        "revision.is_k_revisable_ms": mean_ms("revision.is_k_revisable"),
        "revision.min_revisability_ms": mean_ms("revision.min_revisability"),
        "hypercube.solve_dp_ms": mean_ms("hypercube.solve_dp"),
        "tree.gen_s": sum((dur(s) for s in setup if s["layer"] == "tree"), 0.0),
        "experiments.cell_self_s": layer_self.get("experiments", 0.0) / n_ops,
        **{f"{layer}.self_s": layer_self.get(layer, 0.0) / n_ops for layer in LAYERS},
        "bench.self_s": layer_self.get("bench", 0.0) / n_ops,
        "trace.self_s": book / n_ops,
        "trace.op_s": op_s,
        "trace.untraced_op_s": untraced,
        "trace.overhead_s": op_s - untraced,
        "trace.overhead_ratio": _ratio(op_s - untraced, untraced),
    }
    return {name: {"value": values[name], "unit": METRICS[name][0]} for name in METRICS}
