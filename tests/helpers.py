"""Shared test utilities: scipy oracles and exhaustive tree enumeration."""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from krevise.model import ModelIR
from krevise.tree import ScenarioTree


def milp_arrays(model: ModelIR, fix=None):
    n = len(model.variables)
    integrality = np.array([1.0 if v.kind in ("binary", "integer") else 0.0
                            for v in model.variables])
    lo = np.array([v.lower for v in model.variables])
    hi = np.array([v.upper for v in model.variables])
    if fix:
        for idx, val in fix.items():
            lo[idx] = hi[idx] = val
    cons = []
    for con in model.constraints:
        row = np.zeros(n)
        for i, coef in con.terms:
            row[i] += coef
        lob = -np.inf if con.sense == "<=" else con.rhs
        upb = np.inf if con.sense == ">=" else con.rhs
        cons.append(LinearConstraint(row, lob, upb))
    return integrality, lo, hi, cons


def scipy_solve(model: ModelIR, objective_terms=None, sense=None, relax=False):
    """Exact MILP (or, with relax, LP relaxation) optimum via scipy/HiGHS; returns (status, value)."""
    n = len(model.variables)
    integrality, lo, hi, cons = milp_arrays(model)
    if relax:
        integrality = np.zeros(n)
    c = np.zeros(n)
    for i, coef in objective_terms if objective_terms is not None else model.objective:
        c[i] += coef
    sense = sense or model.objective_sense
    res = milp(c if sense == "min" else -c, constraints=cons,
               bounds=Bounds(lo, hi), integrality=integrality)
    if res.status == 2:
        return "infeasible", None
    if res.status != 0:
        return f"status{res.status}", None
    val = res.fun if sense == "min" else -res.fun
    return "optimal", val + model.objective_constant


class MilpOracle:
    """Cached scipy bridge for repeated feasibility probes on one model."""

    def __init__(self, model: ModelIR):
        self.model = model
        self.integrality, self.lo, self.hi, self.cons = milp_arrays(model)
        self.zero = np.zeros(len(model.variables))
        self.x_index = {}
        for tag, idx in model.var_tags.items():
            parts = tag.split(":")
            if parts[0] == "x":
                self.x_index[int(parts[1])] = idx

    def feasible_with_x(self, x):
        lo = self.lo.copy()
        hi = self.hi.copy()
        for node, idx in self.x_index.items():
            lo[idx] = hi[idx] = float(x[node])
        res = milp(self.zero, constraints=self.cons, bounds=Bounds(lo, hi),
                   integrality=self.integrality)
        return res.status != 2


def scipy_feasible_with_x(model: ModelIR, tree: ScenarioTree, x):
    """Is the model feasible with its tagged x block fixed to the binary x?"""
    return MilpOracle(model).feasible_with_x(x)


# -- exhaustive enumeration of uniform-depth trees --------------------------------


@lru_cache(maxsize=None)
def _shapes(height, max_nodes):
    """Canonical encodings (sorted child tuples) of exact-height trees."""
    if max_nodes < height:
        return ()
    if height == 1:
        return (((), 1),)
    children = _shapes(height - 1, max_nodes - 1)
    out = []

    def extend(start, budget, chosen, size):
        if chosen:
            out.append((tuple(sorted(chosen)), size))
        for i in range(start, len(children)):
            enc, s = children[i]
            if s <= budget:
                chosen.append(enc)
                extend(i, budget - s, chosen, size + s)
                chosen.pop()

    extend(0, max_nodes - 1, [], 1)
    return tuple(out)


def _shape_to_parents(encoding):
    parents = [None]
    frontier = [(0, encoding)]
    while frontier:
        nxt = []
        for parent_id, enc in frontier:
            for child_enc in enc:
                parents.append(parent_id)
                nxt.append((len(parents) - 1, child_enc))
        frontier = nxt
    return parents


def uniform_trees(max_nodes, max_T):
    """All uniform-leaf-depth trees with <= max_nodes nodes and T <= max_T,
    one per isomorphism class, as ScenarioTree objects."""
    trees = []
    for T in range(1, max_T + 1):
        for enc, size in _shapes(T, max_nodes):
            trees.append(ScenarioTree(_shape_to_parents(enc)))
    return trees


def all_binary_policies(n):
    for bits in range(1 << n):
        yield [(bits >> v) & 1 for v in range(n)]
