"""Desk-scale experiment harness: formulation benchmarking and sweeps.

Reproduces the benchmarking protocol shape (per-instance rows with solve
time, IP and LP objectives, relative gap, and embedded branch-and-bound
node counts) on synthetic instances.  Embedded-solver node counts are not
comparable to a commercial solver's, hence the distinct bb_nodes column.
Rows are reproducible for a fixed spec and seed; pass stable_output to
zero the wall-time column when byte-identical reruns matter.
"""

from __future__ import annotations

import csv
import io
import math
import os
import time
from dataclasses import dataclass, field
from itertools import combinations

from . import formulations as F
from .hypercube import (
    HypercubeInstance,
    full_adaptive_value,
    instance_to_dict,
    random_instance,
    solve_dp,
)
from .problems import (
    Flight,
    attach_revision,
    build_capacity_planning,
    build_lot_sizing,
    build_saghp,
    generate_capacity_planning,
    generate_lot_sizing,
    saghp_instance_from_weather,
)
from .revision import PolicyError
from .solver import SOLVER_ENV, MipOptions, default_solver, solve_lp
from .tree import ScenarioTree, generate_btree, generate_stree

CSV_HEADER = "problem,tree,seed,K,formulation,status,time_s,obj_ip,obj_lp,rel_gap,bb_nodes"

FORMULATIONS = (F.CP, F.CP_PLUS, F.CP_PLUS_PLUS, F.STDP, F.PATH, F.ST)


PROBLEMS = ("hypercube", "lot_sizing", "capacity_planning", "saghp")
_VECTOR_PROBLEMS = ("capacity_planning", "saghp")


@dataclass
class ExperimentSpec:
    problem: str  # one of PROBLEMS
    tree_kind: str = "btree"  # "btree" or "stree"; saghp builds its own weather tree
    tree_params: dict = field(default_factory=dict)
    problem_params: dict = field(default_factory=dict)
    K_values: tuple = (1,)
    formulations: tuple = (F.CP_PLUS,)
    seeds: tuple = (0,)
    time_limit: float = 60.0
    compute_pa: bool = False
    stable_output: bool = False
    workers: int = 1

    def __post_init__(self):
        if not self.seeds:
            raise PolicyError("experiment needs at least one seed")
        if self.workers < 1:
            raise PolicyError("workers must be >= 1")
        if self.problem not in PROBLEMS:
            raise PolicyError(f"unsupported experiment problem {self.problem!r}")
        for kind in self.formulations:
            if kind not in FORMULATIONS:
                raise PolicyError(f"unknown formulation {kind!r}")
            if self.problem in _VECTOR_PROBLEMS and kind not in (F.CP, F.CP_PLUS):
                raise PolicyError(
                    f"{self.problem} has vector strategic decisions; only CP-family "
                    "formulations apply (shared revision budget)"
                )

    @staticmethod
    def from_dict(data: dict) -> "ExperimentSpec":
        return ExperimentSpec(
            problem=data["problem"],
            tree_kind=data.get("tree_kind", "btree"),
            tree_params=dict(data.get("tree_params", {})),
            problem_params=dict(data.get("problem_params", {})),
            K_values=tuple(data.get("K_values", [1])),
            formulations=tuple(data.get("formulations", [F.CP_PLUS])),
            seeds=tuple(data.get("seeds", [0])),
            time_limit=float(data.get("time_limit", 60.0)),
            compute_pa=bool(data.get("compute_pa", False)),
            stable_output=bool(data.get("stable_output", False)),
            workers=int(data.get("workers", 1)),
        )


def _make_tree(spec: ExperimentSpec, seed: int) -> ScenarioTree:
    p = spec.tree_params
    if spec.tree_kind == "btree":
        return generate_btree(int(p.get("T", 3)))
    if spec.tree_kind == "stree":
        return generate_stree(
            int(p.get("target_nodes", 20)), int(p.get("T", 5)), int(p.get("m", 3)),
            float(p.get("rho", 0.5)), float(p.get("tolerance", 0.05)), seed=seed,
        )
    raise PolicyError(f"unknown tree kind {spec.tree_kind!r}")


def _tree_label(spec: ExperimentSpec, tree: ScenarioTree) -> str:
    return f"{spec.tree_kind}:T={tree.T}:n={tree.node_count}"


def _random_flights(T, seed, count):
    import random as _random

    rng = _random.Random(seed)
    flights = []
    for i in range(count):
        duration = rng.randint(1, max(1, min(2, T - 1)))
        mu = rng.randint(1, T - duration)
        flights.append(Flight(f"F{i}", mu, duration))
    return flights


def _saghp_instance(spec, seed):
    p = spec.problem_params
    T = int(spec.tree_params.get("T", 6))
    caps = dict(p.get("capacity_by_code", {"V": 2, "M": 2, "I": 1, "S": 0}))
    pattern = p.get("pattern", "VIV")
    return saghp_instance_from_weather(
        _random_flights(T, seed, int(p.get("n_flights", 3))),
        pattern, T, caps, air_capacity=p.get("air_capacity"))


def _build_cell_model(spec, tree, seed, K, kind):
    vector = spec.problem in _VECTOR_PROBLEMS
    if spec.problem == "hypercube":
        inst = random_instance(tree, seed=seed)
        base = F.hypercube_base_model(inst)
    elif spec.problem == "lot_sizing":
        inst = generate_lot_sizing(tree, seed=seed)
        base = build_lot_sizing(inst)
    elif spec.problem == "capacity_planning":
        p = spec.problem_params
        inst = generate_capacity_planning(
            tree, seed=seed, n_tools=int(p.get("n_tools", 2)),
            n_ops=int(p.get("n_ops", 3)), n_products=int(p.get("n_products", 2)),
            base_demand=float(p.get("base_demand", 10.0)),
            tool_cap=float(p.get("tool_cap", 50.0)),
            tool_rate=float(p.get("tool_rate", 10.0)))
        base = build_capacity_planning(inst)
    else:  # saghp brings its own weather tree
        inst = _saghp_instance(spec, seed)
        tree = inst.tree
        base = build_saghp(inst)
    if kind != F.ST:
        attach_revision(base, tree, F.RevisionFormulationSpec(kind, K, vector_mode=vector))
    return inst, base, tree


def _lp_relaxation_value(base):
    """LP bound of a cell model, via the external solver when configured."""
    if os.environ.get(SOLVER_ENV):
        from .model import parse_mps, write_mps
        from .solver import external_solve

        relaxed = parse_mps(write_mps(base))
        for var in relaxed.variables:
            var.kind = "continuous"
        return external_solve(relaxed).objective
    return solve_lp(base).objective


def _solve_cell(spec, tree, seed, K, kind, base):
    opts = MipOptions(time_limit=spec.time_limit)
    if kind == F.ST:
        mip = F.cut_loop_st(tree, K, base, mode="mip")
        _, relax, _ = _build_cell_model(spec, tree, seed, K, kind)
        lp = F.cut_loop_st(tree, K, relax, mode="lp")
        return "optimal", mip.value, lp.value, mip.rounds
    res = default_solver(base, opts)
    lp_value = _lp_relaxation_value(base)
    return res.status, res.objective, lp_value, res.nodes


def _rel_gap(obj_ip, obj_lp):
    if obj_ip is None or obj_lp is None or math.isnan(obj_ip) or math.isnan(obj_lp):
        return ""
    if obj_ip == 0.0:
        return 0.0 if obj_lp == 0.0 else math.inf
    return abs(obj_lp - obj_ip) / abs(obj_ip)


@dataclass
class ExperimentReport:
    rows: list
    summary: list

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_HEADER.split(","))
        for row in self.rows:
            writer.writerow([row[k] for k in CSV_HEADER.split(",")])
        return out.getvalue()

    def summary_csv(self) -> str:
        if not self.summary:
            return ""
        out = io.StringIO()
        keys = list(self.summary[0])
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(keys)
        for row in self.summary:
            writer.writerow([row[k] for k in keys])
        return out.getvalue()

    def aggregates(self) -> list:
        """Mean time/gap/node-count per (problem, K, formulation) over seeds."""
        groups = {}
        for row in self.rows:
            if not str(row["status"]).startswith("optimal"):
                continue
            groups.setdefault((row["problem"], row["K"], row["formulation"]), []).append(row)
        out = []
        for (problem, K, kind), rows in sorted(groups.items()):
            n = len(rows)
            gaps = [r["rel_gap"] for r in rows if r["rel_gap"] != ""]
            out.append({
                "problem": problem, "K": K, "formulation": kind, "instances": n,
                "mean_time_s": sum(r["time_s"] for r in rows) / n,
                "mean_rel_gap": (sum(gaps) / len(gaps)) if gaps else "",
                "mean_bb_nodes": sum(r["bb_nodes"] for r in rows) / n,
            })
        return out


def _run_cell(spec: ExperimentSpec, seed, K, kind) -> dict:
    """One independent (seed, K, formulation) cell; exceptions become rows."""
    tree = None if spec.problem == "saghp" else _make_tree(spec, seed)
    t0 = time.perf_counter()
    try:
        _, base, cell_tree = _build_cell_model(spec, tree, seed, K, kind)
        label = _tree_label(spec, cell_tree)
        status, obj_ip, obj_lp, nodes = _solve_cell(spec, cell_tree, seed, K, kind, base)
    except Exception as exc:  # keep sweeping, record the failure
        fallback = _tree_label(spec, tree) if tree is not None else spec.tree_kind
        return {
            "problem": spec.problem, "tree": fallback, "seed": seed, "K": K,
            "formulation": kind, "status": f"error:{type(exc).__name__}",
            "time_s": 0.0, "obj_ip": "", "obj_lp": "", "rel_gap": "", "bb_nodes": "",
        }
    elapsed = 0.0 if spec.stable_output else round(time.perf_counter() - t0, 3)
    return {
        "problem": spec.problem, "tree": label, "seed": seed, "K": K,
        "formulation": kind, "status": status, "time_s": elapsed,
        "obj_ip": obj_ip, "obj_lp": obj_lp,
        "rel_gap": _rel_gap(obj_ip, obj_lp), "bb_nodes": nodes,
    }


def _run_cell_args(args):
    return _run_cell(*args)


def run_experiment(spec: ExperimentSpec, out_path=None) -> ExperimentReport:
    """One row per (seed, K, formulation); summary rows per (seed, K).

    Cells are independent; with workers > 1 they run in a process pool and
    the report is assembled in deterministic input order either way.
    Solver failures are recorded in the status column without aborting the
    sweep.  When out_path is given the main table lands there and the
    summary beside it with a .summary.csv suffix.
    """
    cells = [(spec, seed, K, kind) for seed in spec.seeds
             for K in spec.K_values for kind in spec.formulations]
    if spec.workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=spec.workers) as pool:
            rows = list(pool.map(_run_cell_args, cells))
    else:
        rows = [_run_cell(*cell) for cell in cells]
    summary = []
    if spec.problem == "hypercube":
        for seed in spec.seeds:
            tree = _make_tree(spec, seed)
            inst = random_instance(tree, seed=seed)
            label = _tree_label(spec, tree)
            z_ms = full_adaptive_value(inst)
            for K in spec.K_values:
                z_k = solve_dp(inst, K)[0]
                entry = {
                    "problem": spec.problem, "tree": label, "seed": seed, "K": K,
                    "z_K": z_k, "z_MS": z_ms,
                    "rel_loss": (abs(z_ms - z_k) / abs(z_k)) if z_k else "",
                }
                if spec.compute_pa:
                    z_pa = hypercube_pa_value(inst, K)
                    entry["z_PA"] = z_pa
                    entry["rel_value"] = ((z_k - z_pa) / abs(z_pa)) if z_pa else ""
                summary.append(entry)
    report = ExperimentReport(rows, summary)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(report.to_csv())
        if report.summary:
            with open(str(out_path) + ".summary.csv", "w") as fh:
                fh.write(report.summary_csv())
    return report


# -- partially adaptive optimum for the hypercube -----------------------------------


def hypercube_pa_value(inst: HypercubeInstance, K: int, stages=None, stage_cap=16) -> float:
    """Best partially adaptive value with K adaptive stages.

    For the hypercube, fixing the adaptive stages decomposes the optimum
    into independent node groups: each group contributes the positive part
    of its objective sum.  Enumerates all stage subsets unless one is given.
    """
    tree = inst.tree
    c = inst.scalar_c()

    def value_for(L):
        total = 0.0
        for group in F.partially_adaptive_groups(tree, L):
            total += max(0.0, sum(c[v] for v in group))
        return total

    if stages is not None:
        return value_for(stages)
    if tree.T > stage_cap:
        raise PolicyError(f"stage enumeration guarded to T <= {stage_cap}; pass stages=")
    best = -math.inf
    for L in combinations(range(1, tree.T + 1), min(K, tree.T)):
        best = max(best, value_for(L))
    return best


# -- conjecture sweep ---------------------------------------------------------------


@dataclass
class ConjectureReport:
    max_ratio: float
    bound: float
    witness: dict  # serialized instance attaining the max ratio
    witness_meta: dict
    findings: list  # (meta, ratio) pairs exceeding the bound
    checked: int


def conjecture_sweep(trees, seeds, K_values, tol=1e-6) -> ConjectureReport:
    """Empirical maximum of z_K^LP / z_K for the complete plan formulation.

    Ratios above (2K+1)/(K+1) + tol are collected as findings (the sweep
    still completes).  Instances with z_K = 0 have z_K^LP = 0 as well and
    count as ratio 1.
    """
    max_ratio = -math.inf
    witness = None
    witness_meta = None
    findings = []
    checked = 0
    for ti, tree in enumerate(trees):
        for seed in seeds:
            inst = random_instance(tree, seed=seed)
            base = None
            for K in K_values:
                if not 0 <= K:
                    raise PolicyError("K must be >= 0")
                model = F.hypercube_base_model(inst)
                attach_revision(model, tree, F.RevisionFormulationSpec(F.CP, K))
                lp = solve_lp(model)
                if lp.status != "optimal":
                    raise PolicyError(f"CP LP relaxation returned {lp.status}")
                z_lp = lp.objective
                z_k = solve_dp(inst, K)[0]
                ratio = 1.0 if z_k == 0.0 else z_lp / z_k
                checked += 1
                meta = {"tree_index": ti, "seed": seed, "K": K,
                        "z_lp": z_lp, "z_k": z_k, "ratio": ratio}
                bound = (2 * K + 1) / (K + 1)
                if ratio > bound + tol:
                    findings.append(meta)
                if ratio > max_ratio:
                    max_ratio = ratio
                    witness = instance_to_dict(inst)
                    witness_meta = meta
    bound = min((2 * K + 1) / (K + 1) for K in K_values)
    return ConjectureReport(max_ratio, bound, witness, witness_meta, findings, checked)
