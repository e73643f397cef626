"""The benchmark's four workloads.

Each workload is a closed loop with one caller: the runner starts op i+1
only after op i has returned.  A workload makes its inputs from the seed in
`setup`, names op i with `op`, runs it with `run` (the only timed call),
shrinks its output with `summarize` and judges it with `check`.  Both of the
last two run outside the timed region; `check` runs after the loop, so the
modules it needs (scipy) never count toward the measured peak memory.

Workloads call krevise through module attributes (`R.is_k_revisable`, not a
name imported from the module), so the traced run sees every call.
"""

from __future__ import annotations

import json
import random

from krevise import experiments as E
from krevise import formulations as F
from krevise import hypercube as H
from krevise import model as M
from krevise import problems as P
from krevise import revision as R
from krevise import tree as T

_REL_TOL = 1e-6


def _close(a, b, tol=_REL_TOL):
    return abs(a - b) <= tol * max(1.0, abs(b))


# -- scipy HiGHS reference -----------------------------------------------------


def highs_value(model, integral):
    """Optimal objective of a ModelIR by scipy's HiGHS (LP relaxation or MIP)."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_matrix

    n = len(model.variables)
    sign = -1.0 if model.objective_sense == M.MAX else 1.0
    c = np.zeros(n)
    for idx, coef in model.objective:
        c[idx] += coef
    rows, cols, vals = [], [], []
    lo = np.empty(len(model.constraints))
    hi = np.empty(len(model.constraints))
    for i, con in enumerate(model.constraints):
        for idx, coef in con.terms:
            rows.append(i)
            cols.append(idx)
            vals.append(coef)
        lo[i] = con.rhs if con.sense in (">=", "=") else -np.inf
        hi[i] = con.rhs if con.sense in ("<=", "=") else np.inf
    A = coo_matrix((vals, (rows, cols)), shape=(len(model.constraints), n)).tocsr()
    kinds = np.array([1 if integral and v.kind != M.CONTINUOUS else 0 for v in model.variables])
    res = milp(sign * c, integrality=kinds,
               bounds=Bounds([v.lower for v in model.variables], [v.upper for v in model.variables]),
               constraints=[LinearConstraint(A, lo, hi)] if len(model.constraints) else [])
    if res.status != 0:
        raise RuntimeError(f"HiGHS reference failed: {res.message}")
    return model.objective_constant + sign * res.fun


# -- workloads -------------------------------------------------------------------


class Workload:
    name = ""
    tail_pct = 95  # op_tail_ms percentile: the highest with >= 10 samples beyond it in a full run
    sizes = {}

    def summarize(self, op, out):
        return out

    def round_len(self, inputs):
        """Ops in one round: every op kind once (cells, corpus entries, queries)."""
        return len(inputs["ops"])


class _Sweep(Workload):
    """One op is one `krevise experiment` cell: build, MIP, LP relaxation, row."""

    time_limit = 10.0

    def run(self, op):
        report = E.run_experiment(E.ExperimentSpec.from_dict(op))
        return report.rows[0]

    def _cell_model(self, op, kind):
        spec = E.ExperimentSpec.from_dict({**op, "formulations": [kind]})
        seed, K = op["seeds"][0], op["K_values"][0]
        tree = None if spec.problem == "saghp" else E._make_tree(spec, seed)
        inst, base, tree = E._build_cell_model(spec, tree, seed, K, kind)
        if kind == F.ST:
            P.attach_revision(base, tree, F.RevisionFormulationSpec(F.ST, K))
        return inst, base, tree

    @staticmethod
    def _status_error(row):
        if row["status"] != "optimal":
            return f"status {row['status']}"
        return None


class HcSweep(_Sweep):
    """Hypercube cells on small S-trees, every formulation, K in {1, 2}.

    Each op draws a fresh instance from the seed and the formulation cycles
    with the op index, so a run samples hundreds of independent instances.
    """

    name = "hc-sweep"
    tail_pct = 95
    sizes = {
        "full": {"tree": {"target_nodes": 12, "T": 4, "rho": 0.5, "tolerance": 0.05}, "pool": 20000},
        "tiny": {"tree": {"target_nodes": 7, "T": 3, "rho": 0.5, "tolerance": 0.2}, "pool": 50},
    }
    cells = [(kind, K) for kind in E.FORMULATIONS for K in (1, 2)]

    def setup(self, seed, size):
        cfg = self.sizes[size]
        rng = random.Random(seed)
        return {"tree": cfg["tree"], "seeds": [rng.getrandbits(31) for _ in range(cfg["pool"])]}

    def round_len(self, inputs):
        return len(self.cells)

    def op(self, inputs, i):
        kind, K = self.cells[i % len(self.cells)]
        seeds = inputs["seeds"]
        return {"problem": "hypercube", "tree_kind": "stree", "tree_params": inputs["tree"],
                "K_values": [K], "formulations": [kind], "seeds": [seeds[i % len(seeds)]],
                "time_limit": self.time_limit}

    def check(self, op, row):
        err = self._status_error(row)
        if err:
            return err
        K, kind = op["K_values"][0], op["formulations"][0]
        inst, base, _ = self._cell_model(op, kind)
        z_k = H.solve_dp(inst, K)[0]
        if not _close(row["obj_ip"], z_k):
            return f"obj_ip {row['obj_ip']} != DP z_K {z_k}"
        lp = highs_value(base, integral=False)
        if not _close(row["obj_lp"], lp):
            return f"obj_lp {row['obj_lp']} != HiGHS LP {lp}"
        return None


class BaseSweep(_Sweep):
    """Lot-sizing, capacity-planning and SAGHP cells over a fixed corpus.

    Branch-and-bound effort on these problems is heavy-tailed across
    instances (one lot-sizing cell type took 31 to 794 ms over 12 instance
    seeds), so a fresh random draw per seed moved ops_per_s by 8-11%
    between seeds even at 900 cells a run.  The corpus (instance seeds
    0..M-1 per cell type) is therefore the same for every seed; the seed
    shuffles the order of each pass.
    """

    name = "base-sweep"
    tail_pct = 90
    lot_tree = {"target_nodes": 9, "T": 4, "rho": 0.35, "tolerance": 0.1}
    cap_params = {"n_tools": 2, "n_ops": 3, "n_products": 2, "base_demand": 10.0,
                  "tool_cap": 50.0, "tool_rate": 10.0}
    saghp_params = {"n_flights": 3, "pattern": "VIV"}
    sizes = {"full": {"corpus": 4}, "tiny": {"corpus": 1}}

    def __init__(self):
        self._refs = {}

    def _cells(self):
        cells = []
        for K in (1, 2):
            for kind in E.FORMULATIONS:
                cells.append({"problem": "lot_sizing", "tree_kind": "stree", "tree_params": self.lot_tree,
                              "formulations": [kind], "K_values": [K]})
            for kind in (F.CP, F.CP_PLUS):
                cells.append({"problem": "capacity_planning", "tree_kind": "btree",
                              "tree_params": {"T": 3}, "problem_params": self.cap_params,
                              "formulations": [kind], "K_values": [K]})
                cells.append({"problem": "saghp", "tree_params": {"T": 4},
                              "problem_params": self.saghp_params, "formulations": [kind], "K_values": [K]})
        return cells

    def setup(self, seed, size):
        corpus = [{**cell, "seeds": [s], "time_limit": self.time_limit}
                  for s in range(self.sizes[size]["corpus"]) for cell in self._cells()]
        return {"ops": corpus, "seed": seed, "orders": {}}

    def op(self, inputs, i):
        corpus = inputs["ops"]
        n_pass, k = divmod(i, len(corpus))
        order = inputs["orders"].get(n_pass)
        if order is None:
            order = list(range(len(corpus)))
            random.Random(inputs["seed"] * 1_000_003 + n_pass).shuffle(order)
            inputs["orders"] = {n_pass: order}
        return corpus[order[k]]

    def check(self, op, row):
        err = self._status_error(row)
        if err:
            return err
        key = (op["problem"], op["seeds"][0], op["K_values"][0])
        if key not in self._refs:
            _, base, _ = self._cell_model(op, F.CP_PLUS)
            self._refs[key] = highs_value(base, integral=True)
        ref = self._refs[key]
        if not _close(row["obj_ip"], ref):
            return f"obj_ip {row['obj_ip']} != reference {ref} shared by every formulation"
        if row["obj_lp"] > row["obj_ip"] + _REL_TOL * max(1.0, abs(row["obj_ip"])):
            return f"LP bound {row['obj_lp']} above IP value {row['obj_ip']} of a minimization"
        return None


# -- revisability queries --------------------------------------------------------


class Check(Workload):
    """Revisability queries on a perfect binary tree and a tall S-tree.

    Points are random binary (the reject path), random fractional (the
    separation DP) and DP-optimal (the accept path), for K = 1..3.  The
    seed draws the points and the DP's objective; both tree shapes are
    fixed, because the DP's memory grows with the node counts of the
    S-tree's top stages and a fresh S-tree per seed moved peak_rss_mb by 17%.
    """

    name = "check"
    tail_pct = 95
    sizes = {
        "full": {"btree_T": 12, "stree": (1000, 20, 3, 0.3, 0.05)},
        "tiny": {"btree_T": 6, "stree": (40, 8, 3, 0.4, 0.1)},
    }
    Ks = (1, 2, 3)

    def __init__(self):
        self._verdicts = {}

    def setup(self, seed, size):
        cfg = self.sizes[size]
        rng = random.Random(seed)
        target, T_, m, rho, tol = cfg["stree"]
        trees = [T.generate_btree(cfg["btree_T"]), T.generate_stree(target, T_, m, rho, tol, seed=0)]
        points = []
        for tree in trees:
            n = tree.node_count
            inst = H.random_instance(tree, seed=rng.getrandbits(31))
            pts = {"rand": [rng.randint(0, 1) for _ in range(n)],
                   "frac": [rng.random() for _ in range(n)], "inst": inst}
            for K in self.Ks:
                pts[f"dp{K}"] = H.solve_dp(inst, K)[1]
            points.append(pts)
        ops = []
        for t in range(len(trees)):
            for K in self.Ks:
                for x in ("rand", f"dp{K}"):
                    ops.append(("is_k_revisable", t, x, K))
                    ops.append(("separate_binary_fast", t, x, K))
                ops.append(("max_inconsistency", t, "frac", K))
                ops.append(("solve_dp", t, "inst", K))
            for x in ("rand",) + tuple(f"dp{K}" for K in self.Ks):
                ops.append(("min_revisability", t, x, None))
        return {"trees": trees, "points": points, "ops": ops}

    def op(self, inputs, i):
        fn, t, x, K = inputs["ops"][i % len(inputs["ops"])]
        return fn, inputs["trees"][t], inputs["points"][t][x], K, (fn, t, x, K)

    def run(self, op):
        fn, tree, x, K, _ = op
        if fn == "is_k_revisable":
            return R.is_k_revisable(tree, x, K)
        if fn == "separate_binary_fast":
            return R.separate_binary_fast(tree, x, K)
        if fn == "max_inconsistency":
            return R.max_inconsistency(tree, x, K)
        if fn == "min_revisability":
            return R.min_revisability(tree, x)
        value, xs, pi = H.solve_dp(x, K)
        return value, xs, H.verify_certificate(x, K, value, xs, pi)

    def summarize(self, op, out):
        fn = op[0]
        if fn == "separate_binary_fast":
            return None if out is None else json.dumps(out.to_jsonable())
        if fn == "max_inconsistency":
            return out[0], (None if out[1] is None else json.dumps(out[1].to_jsonable()))
        if fn == "solve_dp":
            return out[0], tuple(out[1]), out[2]
        return out

    def check(self, op, summary):
        key = (op[4], repr(summary))
        if key not in self._verdicts:
            self._verdicts[key] = self._check(op, summary)
        return self._verdicts[key]

    @staticmethod
    def _witness_error(tree, x, K, text, value=None):
        sub = R.ElbeSubtree.from_jsonable(json.loads(text))
        try:
            R.check_elbe(tree, sub)
        except R.PolicyError as exc:
            return f"witness is no ELBE subtree: {exc}"
        if sub.height < K + 1:
            return f"witness height {sub.height} < K+1 = {K + 1}"
        got = R.inconsistent_value(sub, x)
        if value is None:
            value = len(sub.sibling_pairs())  # binary x: every pair must disagree
        if not _close(got, value):
            return f"witness inconsistent value {got} != {value}"
        return None

    def _check(self, op, out):
        fn, tree, x, K, _ = op
        if fn == "is_k_revisable":
            ref = R.separate_binary_fast(tree, x, K) is None
            return None if out == ref else f"is_k_revisable {out} disagrees with separate_binary_fast"
        if fn == "separate_binary_fast":
            ref = R.is_k_revisable(tree, x, K)
            if ref != (out is None):
                return f"separate_binary_fast disagrees with is_k_revisable={ref}"
            return None if out is None else self._witness_error(tree, x, K, out)
        if fn == "max_inconsistency":
            delta, text = out
            if text is None:  # the tree has no ELBE subtree of height K+1
                return None if delta == 0 else f"delta {delta} without a witness"
            return self._witness_error(tree, x, K, text, value=delta)
        if fn == "min_revisability":
            if not R.is_k_revisable(tree, x, out):
                return f"min_revisability {out} but not {out}-revisable"
            if out > 0 and R.is_k_revisable(tree, x, out - 1):
                return f"min_revisability {out} not tight"
            return None
        value, xs, ok = out
        if not ok:
            return "DP certificate does not verify"
        if not R.is_k_revisable(tree, list(xs), K):
            return "DP point is not K-revisable"
        return None


# -- model export ----------------------------------------------------------------


def _random_flights(rng, T_, count):
    flights = []
    for i in range(count):
        duration = rng.randint(1, 2)
        flights.append(P.Flight(f"F{i}", rng.randint(1, T_ - duration), duration))
    return flights


def _signature(model):
    """Counts and objective that an MPS round trip must preserve."""
    names = [v.name for v in model.variables]
    return {
        "variables": len(model.variables),
        "rows": len(model.constraints),
        "nnz": sum(len(c.terms) for c in model.constraints),
        "sense": model.objective_sense,
        "objective": sorted((names[i], c) for i, c in model.objective if c),
        "constant": model.objective_constant,
    }


class Export(Workload):
    """Build one model, write MPS, parse it back, write LP (`krevise build/export`)."""

    name = "export"
    tail_pct = 75
    sizes = {
        "full": {"btree_T": 7, "big_T": 9, "ls_T": 7, "cap_T": 5, "saghp_T": 8, "flights": 40},
        "tiny": {"btree_T": 4, "big_T": 5, "ls_T": 4, "cap_T": 3, "saghp_T": 4, "flights": 4},
    }

    def setup(self, seed, size):
        cfg = self.sizes[size]
        rng = random.Random(seed)

        def hc(T_):
            data = H.instance_to_dict(H.random_instance(T.generate_btree(T_), seed=rng.getrandbits(31)))
            data["kind"] = "hypercube"
            return data

        small, big = hc(cfg["btree_T"]), hc(cfg["big_T"])
        lot = P.lot_sizing_to_dict(P.generate_lot_sizing(T.generate_btree(cfg["ls_T"]),
                                                         seed=rng.getrandbits(31)))
        cap = P.capacity_planning_to_dict(P.generate_capacity_planning(
            T.generate_btree(cfg["cap_T"]), seed=rng.getrandbits(31), n_tools=4, n_ops=6, n_products=3))
        sag = P.saghp_to_dict(P.saghp_instance_from_weather(
            _random_flights(rng, cfg["saghp_T"], cfg["flights"]), "VIVMSV", cfg["saghp_T"],
            {"V": 2, "M": 2, "I": 1, "S": 0}))
        ops = [(small, kind, K, False) for kind in (F.CP_PLUS, F.CP_PLUS_PLUS, F.STDP, F.PATH)
               for K in (1, 2)]
        ops += [(big, F.CP_PLUS_PLUS, 2, False), (lot, F.CP_PLUS_PLUS, 2, False),
                (cap, F.CP_PLUS, 2, True), (sag, F.CP_PLUS, 2, True)]
        return {"ops": ops}

    def op(self, inputs, i):
        return inputs["ops"][i % len(inputs["ops"])]

    def run(self, op):
        data, kind, K, vector = op
        model = P.build_base_model(data)
        tree = T.tree_from_dict(data["tree"])
        P.attach_revision(model, tree, F.RevisionFormulationSpec(kind, K, vector))
        mps = M.write_mps(model)
        parsed = M.parse_mps(mps)
        lp = M.write_lp(model)
        return model, parsed, len(mps), len(lp)

    def summarize(self, op, out):
        model, parsed, mps_len, lp_len = out
        return _signature(model), _signature(parsed), mps_len, lp_len

    def check(self, op, summary):
        built, parsed, mps_len, lp_len = summary
        for key in built:
            if built[key] != parsed[key]:
                return f"MPS round trip changed {key}"
        if not (mps_len and lp_len):
            return "empty MPS or LP text"
        return None


WORKLOADS = {w.name: w for w in (HcSweep, BaseSweep, Check, Export)}
