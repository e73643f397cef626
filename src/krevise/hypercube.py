"""The K-revision hypercube problem: exact solvers and hard instances.

HC_K maximizes a per-node linear objective over binary strategic policies
subject only to the K-revision constraint.  The DP solver enumerates plan
suffixes as bitmasks (bit i of a node's mask is the planned decision for
stage tau(v)+i) and at each child chooses between inheriting the parent
plan and revising to the best fresh plan with one unit less budget.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .revision import GuardError, PlanPolicy, PolicyError, is_k_revisable, revision_policy_of
from .tree import ScenarioTree, split_multidim, tree_from_dict, tree_to_dict

DP_STAGE_CAP = 22


@dataclass(frozen=True)
class HypercubeInstance:
    """Scenario tree plus an objective vector per node.

    c[v] has one entry per strategic coordinate of v's stage.
    """

    tree: ScenarioTree
    c: tuple

    def __post_init__(self):
        if len(self.c) != self.tree.node_count:
            raise PolicyError("objective must have one vector per node")
        for v, vec in enumerate(self.c):
            want = self.tree.strategic_dim[self.tree.stage[v]]
            if len(vec) != want:
                raise PolicyError(f"c({v}) has {len(vec)} entries, stage dimension is {want}")

    @staticmethod
    def from_scalars(tree, values):
        return HypercubeInstance(tree, tuple((float(x),) for x in values))

    def scalar_c(self):
        if any(len(vec) != 1 for vec in self.c):
            raise PolicyError("instance has multi-dimensional stages; split first")
        return [vec[0] for vec in self.c]

    def abs_sum(self):
        return sum(abs(x) for vec in self.c for x in vec)


def split_instance(inst: HypercubeInstance):
    """One-dimensional equivalent via stage splitting (identity if already 1-d)."""
    tree2, mapping = split_multidim(inst.tree)
    c2 = tuple((float(inst.c[orig][coord]),) for orig, coord in mapping)
    return HypercubeInstance(tree2, c2), mapping


def full_adaptive_value(inst: HypercubeInstance) -> float:
    """z_MS = sum of positive objective entries (K >= T-1 is non-binding)."""
    return sum(max(x, 0.0) for vec in inst.c for x in vec)


def solve_dp(inst: HypercubeInstance, K: int, stage_cap=DP_STAGE_CAP):
    """Exact DP over plan-suffix bitmasks.

    Returns (value, x, plans) where plans is the active plan policy, x its
    first entries, and value = c . x.  Ties between inheriting and revising
    break toward inheriting.  Requires one strategic decision per node.
    """
    c = inst.scalar_c()
    tree = inst.tree
    T = tree.T
    if T > stage_cap:
        raise GuardError(f"DP guarded to {stage_cap} stages, tree has {T}")
    if K < 0:
        raise PolicyError("K must be >= 0")
    K = min(K, T - 1)

    # tab[v][k] is a vector over plan masks of G(v, k, plan); best[v][k] its max
    tab = [None] * tree.node_count
    best = [None] * tree.node_count
    for v in range(tree.node_count - 1, -1, -1):
        L = T - tree.stage[v] + 1
        nmask = 1 << L
        bit = np.tile(np.array([0.0, 1.0]), nmask // 2) if L > 1 else np.array([0.0, 1.0])
        own = c[v] * bit[:nmask]
        rows = []
        for k in range(K + 1):
            val = own.copy()
            for u in tree.children[v]:
                inherit = np.repeat(tab[u][k], 2)
                if k >= 1:
                    val += np.maximum(inherit, best[u][k - 1])
                else:
                    val += inherit
            rows.append(val)
        tab[v] = rows
        best[v] = [float(r.max()) for r in rows]

    root_masks = tab[0][K]
    value = float(root_masks.max())
    root_mask = int(np.argmax(root_masks))

    # backtrack the active plans, preferring inherit on ties
    plans = [None] * tree.node_count
    stack = [(0, K, root_mask)]
    while stack:
        v, k, mask = stack.pop()
        L = T - tree.stage[v] + 1
        plans[v] = tuple((mask >> i) & 1 for i in range(L))
        for u in tree.children[v]:
            sub = mask >> 1
            inherit_val = tab[u][k][sub]
            if k >= 1 and best[u][k - 1] > inherit_val + 1e-9:
                stack.append((u, k - 1, int(np.argmax(tab[u][k - 1]))))
            else:
                stack.append((u, k, sub))
    pi = PlanPolicy(tuple(plans))
    x = [plans[v][0] for v in range(tree.node_count)]
    return value, x, pi


def verify_certificate(inst: HypercubeInstance, K: int, value, x, pi: PlanPolicy, tol=1e-9):
    """Check the DP certificate: compatibility, budgets, and objective."""
    tree = inst.tree
    c = inst.scalar_c()
    if any(pi.plans[v][0] != x[v] for v in range(tree.node_count)):
        return False
    r = revision_policy_of(tree, pi)
    K = min(K, tree.T - 1)
    for sc in tree.scenarios():
        if sum(r[v] for v in sc.path) > K:
            return False
    return abs(sum(c[v] * x[v] for v in range(tree.node_count)) - value) <= tol


BRUTE_NODE_CAP = 18


def solve_bruteforce(inst: HypercubeInstance, K: int, node_cap=BRUTE_NODE_CAP) -> float:
    """max c.x over binary x passing the revisability check; oracle for the DP.

    Enumerates all policies but visits them in decreasing objective order,
    so the revisability check runs only until the first feasible one.
    """
    c = inst.scalar_c()
    tree = inst.tree
    n = tree.node_count
    if n > node_cap:
        raise GuardError(f"brute force guarded to {node_cap} nodes, instance has {n}")
    vals = np.zeros(1)
    for v in range(n):
        vals = np.concatenate([vals, vals + c[v]])
    for bits in np.argsort(-vals, kind="stable"):
        x = [(int(bits) >> v) & 1 for v in range(n)]
        if is_k_revisable(tree, x, K):
            return float(vals[bits])
    raise AssertionError("x == 0 is always K-revisable")


# -- MAX-DICUT reduction -------------------------------------------------------


def dicut_instance(vertices, arcs) -> HypercubeInstance:
    """Three-stage hypercube instance encoding MAX-DICUT on a digraph.

    Stage 2 has one node per arc (i, j) with a |V|-dimensional objective
    e_i - e_j; each arc node gets two one-dimensional children worth +1 and
    -1.  HC_1 of the result equals |A| + MAXDICUT(G).
    """
    verts = list(vertices)
    if not verts or not arcs:
        raise PolicyError("digraph needs at least one vertex and one arc")
    index = {v: i for i, v in enumerate(verts)}
    if len(index) != len(verts):
        raise PolicyError("duplicate vertex names")
    seen = set()
    for i, j in arcs:
        if i not in index or j not in index:
            raise PolicyError(f"arc ({i},{j}) references unknown vertex")
        if i == j:
            raise PolicyError(f"self-loop ({i},{j}) not allowed in a simple digraph")
        if (i, j) in seen:
            raise PolicyError(f"duplicate arc ({i},{j})")
        seen.add((i, j))
    nV, nA = len(verts), len(arcs)
    parents = [None] + [0] * nA
    for a in range(nA):
        parents.extend([1 + a, 1 + a])
    tree = ScenarioTree(parents, strategic_dim={1: 1, 2: nV, 3: 1})
    c = [(0.0,)]
    for i, j in arcs:
        vec = [0.0] * nV
        vec[index[i]] = 1.0
        vec[index[j]] = -1.0
        c.append(tuple(vec))
    for _ in arcs:
        c.extend([(1.0,), (-1.0,)])
    return HypercubeInstance(tree, tuple(c))


def maxdicut_bruteforce(vertices, arcs) -> int:
    """MAXDICUT by enumerating all cuts."""
    verts = list(vertices)
    index = {v: i for i, v in enumerate(verts)}
    best = 0
    for bits in range(1 << len(verts)):
        cut = sum(1 for i, j in arcs if (bits >> index[i]) & 1 and not (bits >> index[j]) & 1)
        best = max(best, cut)
    return best


# -- lifting and padding (hardness constructions) -----------------------------


def lift_magnitude(inst: HypercubeInstance) -> float:
    return 1.0 + inst.abs_sum()


def lift_instance(inst: HypercubeInstance) -> HypercubeInstance:
    """Append a (+M, -M) child pair to every leaf, M = 1 + sum |c|.

    Raises the stage count by one and satisfies
    HC_K(inst) = HC_{K+1}(lifted) - #leaves * M.
    """
    tree = inst.tree
    M = lift_magnitude(inst)
    parents = [None] + [tree.parent[v] for v in range(1, tree.node_count)]
    c = [tuple(vec) for vec in inst.c]
    dims = dict(tree.strategic_dim)
    dims[tree.T + 1] = 1
    for leaf in tree.leaves():
        parents.extend([leaf, leaf])
        c.extend([(M,), (-M,)])
    prob = {}
    next_id = tree.node_count
    for leaf in tree.leaves():
        p = tree.leaf_probability[leaf]
        prob[next_id] = p / 2.0
        prob[next_id + 1] = p / 2.0
        next_id += 2
    lifted = ScenarioTree(parents, leaf_prob=prob, strategic_dim=dims)
    return HypercubeInstance(lifted, tuple(c))


def pad_instance(inst: HypercubeInstance, new_T: int) -> HypercubeInstance:
    """Extend every leaf with a chain of zero-objective blank nodes.

    Raises the horizon to new_T without changing HC_K for any K.
    """
    tree = inst.tree
    if new_T < tree.T:
        raise PolicyError(f"new_T={new_T} below current T={tree.T}")
    if new_T == tree.T:
        return inst
    parents = [None] + [tree.parent[v] for v in range(1, tree.node_count)]
    c = [tuple(vec) for vec in inst.c]
    dims = dict(tree.strategic_dim)
    for t in range(tree.T + 1, new_T + 1):
        dims[t] = 1
    prob = {}
    for leaf in tree.leaves():
        tail = leaf
        for _ in range(new_T - tree.T):
            parents.append(tail)
            c.append((0.0,))
            tail = len(parents) - 1
        prob[tail] = tree.leaf_probability[leaf]
    padded = ScenarioTree(parents, leaf_prob=prob, strategic_dim=dims)
    return HypercubeInstance(padded, tuple(c))


# -- random instances and JSON io ---------------------------------------------


def random_instance(tree: ScenarioTree, seed: int, low=-10, high=10) -> HypercubeInstance:
    import random as _random

    rng = _random.Random(seed)
    c = tuple(
        tuple(float(rng.randint(low, high)) for _ in range(tree.strategic_dim[tree.stage[v]]))
        for v in range(tree.node_count)
    )
    return HypercubeInstance(tree, c)


def instance_to_dict(inst: HypercubeInstance) -> dict:
    return {
        "tree": tree_to_dict(inst.tree),
        "c": {str(v): list(vec) for v, vec in enumerate(inst.c)},
    }


def instance_from_dict(data: dict) -> HypercubeInstance:
    tree = tree_from_dict(data["tree"])
    c = tuple(tuple(float(x) for x in data["c"][str(v)]) for v in range(tree.node_count))
    return HypercubeInstance(tree, c)


def load_instance(path) -> HypercubeInstance:
    with open(path) as fh:
        return instance_from_dict(json.load(fh))
