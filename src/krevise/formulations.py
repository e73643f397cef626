"""MIP formulation builders for the K-revisable set.

All builders emit rows over a shared block of binary strategic variables
tagged "x:{node}" (or "x:{node}:{coord}" for vector stages).  The complete
plan family (CP, CP+) adds plan and revision variables; the subtree family
(ST cuts, STDP, CP++) adds continuous inconsistency variables Delta(v,h).
Every kind is one entry of a {kind: rows_fn} table.  `add_revision_rows`
checks the block's dimension once and grafts the kind's rows onto any model
that tags its strategic block, which is how base problems get their
revision constraint attached; `build` is a fresh strategic block plus
`add_revision_rows`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .model import BINARY, CONTINUOUS, INF, MAX, ModelIR
from .revision import (
    ElbeSubtree,
    PolicyError,
    _path_between,
    enumerate_elbe_subtrees,
    max_inconsistency,
    separate_binary_fast,
)
from .tree import ScenarioTree

CP = "cp"
CP_PLUS = "cp+"
CP_PLUS_PLUS = "cp++"
ST = "st"
STDP = "stdp"
PATH = "path"


@dataclass(frozen=True)
class RevisionFormulationSpec:
    kind: str
    K: int
    vector_mode: bool = False

    def __post_init__(self):
        if self.kind not in FORMULATION_KINDS:
            raise PolicyError(f"unknown formulation kind {self.kind!r}")
        if self.K < 0:
            raise PolicyError("K must be >= 0")
        if self.vector_mode and self.kind not in (CP, CP_PLUS):
            raise PolicyError(
                f"{self.kind} supports only one strategic decision per node; "
                "apply split_multidim or use a CP-family formulation in vector mode"
            )


@dataclass(frozen=True)
class Cut:
    """Model-independent linear row over symbolic (family, node) keys."""

    name: str
    terms: tuple  # ((family, node), coefficient)
    sense: str
    rhs: float

    def bind(self, lookup):
        return [(lookup(fam, node), coef) for (fam, node), coef in self.terms]


# -- strategic block -----------------------------------------------------------


def x_name(v, coord=None):
    return f"x_{v}" if coord is None else f"x_{v}_{coord}"


def add_strategic_block(model: ModelIR, tree: ScenarioTree):
    """Binary x variables per node (and coordinate), tagged for later reuse."""
    for v in range(tree.node_count):
        coords = range(tree.strategic_dim[tree.stage[v]])
        multi = tree.strategic_dim[tree.stage[v]] > 1
        for i in coords:
            coord = i if multi else None
            tag = f"x:{v}" if coord is None else f"x:{v}:{coord}"
            model.add_var(x_name(v, coord), BINARY, tag=tag)


def strategic_block_of(model: ModelIR, tree: ScenarioTree):
    """Recover the tagged x block; per-stage coordinate sets must agree.

    A stage may legitimately carry no strategic decisions (its nodes then
    appear with an empty coordinate map); a one-dimensional block uses the
    bare "x:{node}" tag with coordinate None.
    """
    raw = {v: {} for v in range(tree.node_count)}
    for tag, idx in model.var_tags.items():
        parts = tag.split(":")
        if parts[0] != "x":
            continue
        v = int(parts[1])
        if not 0 <= v < tree.node_count:
            raise PolicyError(f"tag {tag!r} references a node outside the tree")
        coord = parts[2] if len(parts) > 2 else None
        raw[v][coord] = idx
    per_stage = {}
    for v, coords in raw.items():
        key = tuple(sorted(coords, key=str))
        t = tree.stage[v]
        if per_stage.setdefault(t, key) != key:
            raise PolicyError(f"nodes at stage {t} tag different strategic coordinates")
    coord_lists = {t: list(per_stage.get(t, ())) for t in range(1, tree.T + 1)}
    if all(not coord_lists[t] for t in coord_lists):
        raise PolicyError("model tags no strategic block")
    return raw, coord_lists


# -- complete plan family (CP, CP+) --------------------------------------------


def only_child_nodes(tree: ScenarioTree):
    return {v for v in range(1, tree.node_count) if len(tree.children[tree.parent[v]]) == 1}


def _nearest_kept_ancestor(tree, only):
    pabar = {}
    for v in range(1, tree.node_count):
        w = tree.parent[v]
        while w in only:
            w = tree.parent[w]
        pabar[v] = w
    return pabar


def add_cp_rows(model: ModelIR, tree: ScenarioTree, K: int, xblock, coord_lists, prefix="",
                reduced=False):
    """CP (reduced=False) or CP+ (reduced=True) rows on top of an x block.

    In the reduced variant, only-child nodes carry no plan or revision
    variables: their compatibility rows read the nearest kept ancestor's
    plan and the scenario budgets skip them.  The revision budget is shared
    across stage coordinates (one r per node).
    """
    T = tree.T
    only = only_child_nodes(tree) if reduced else set()
    pabar = _nearest_kept_ancestor(tree, only)
    pi = {}
    for v in range(tree.node_count):
        if v in only:
            continue
        for t in range(tree.stage[v], T + 1):
            for coord in coord_lists[t]:
                pi[(v, t, coord)] = model.add_var(
                    f"{prefix}pi_{v}_{t}" + (f"_{coord}" if coord is not None else ""),
                    BINARY,
                    tag=f"{prefix}pi:{v}:{t}" + (f":{coord}" if coord is not None else ""),
                )
    r = {}
    for v in range(1, tree.node_count):
        if v in only:
            continue
        r[v] = model.add_var(f"{prefix}r_{v}", BINARY, tag=f"{prefix}r:{v}")
    # compatibility: x(v) equals the governing plan's entry for stage tau(v)
    for v in range(tree.node_count):
        owner = pabar[v] if v in only else v
        for coord in coord_lists[tree.stage[v]]:
            model.add_constraint(
                f"{prefix}compat:{v}" + (f":{coord}" if coord is not None else ""),
                [(xblock[v][coord], 1.0), (pi[(owner, tree.stage[v], coord)], -1.0)],
                "=",
                0.0,
            )
    # revision linking against the nearest kept ancestor's plan
    for v in range(1, tree.node_count):
        if v in only:
            continue
        up = pabar[v]
        for t in range(tree.stage[v], T + 1):
            for coord in coord_lists[t]:
                suffix = f":{coord}" if coord is not None else ""
                a = pi[(v, t, coord)]
                b = pi[(up, t, coord)]
                model.add_constraint(
                    f"{prefix}linkp:{v}:{t}{suffix}",
                    [(r[v], 1.0), (a, -1.0), (b, 1.0)],
                    ">=",
                    0.0,
                )
                model.add_constraint(
                    f"{prefix}linkm:{v}:{t}{suffix}",
                    [(r[v], 1.0), (a, 1.0), (b, -1.0)],
                    ">=",
                    0.0,
                )
    for sc in tree.scenarios():
        terms = [(r[v], 1.0) for v in sc.path if v != 0 and v not in only]
        model.add_constraint(f"{prefix}budget:{sc.leaf}", terms, "<=", float(K))
    return pi, r


# -- subtree cuts ----------------------------------------------------------------


def subtree_constraint_of(oriented: ElbeSubtree, name=None) -> Cut:
    """sum over oriented pairs of (x(u) - x(v)) <= 2^h - 2."""
    h = oriented.height
    if h < 1:
        raise PolicyError("subtree constraints need height >= 1")
    terms = []
    for u, v in oriented.sibling_pairs():
        terms.append((("x", u), 1.0))
        terms.append((("x", v), -1.0))
    rhs = float(2 ** h - 2)
    return Cut(name or f"st:h={h}:root={oriented.root}", tuple(terms), "<=", rhs)


def facet_inequality_of(tree: ScenarioTree, K: int, oriented: ElbeSubtree,
                        skip_r=(), name=None) -> Cut:
    """Revision-aware subtree inequality over (r, x).

    sum of r over ancestors of the subtree root (root included, tree root
    and `skip_r` nodes excluded) plus the oriented pair differences is at
    most K - h + 2^h - 1.  Height h must be in [K] with the root deeper
    than stage K - h; a height-0 subtree at a leaf degenerates to that
    scenario's budget row.
    """
    h = oriented.height
    if not 0 <= h <= K:
        raise PolicyError(f"facet inequalities need height in [0..K], got {h}")
    if tree.stage[oriented.root] <= K - h:
        raise PolicyError(
            f"facet inequality needs stage(root) > K - h; got stage {tree.stage[oriented.root]}"
        )
    if h == 0 and not tree.is_leaf(oriented.root):
        raise PolicyError("height-0 facet inequalities are leaf budget rows")
    terms = []
    for w in tree.path_to_root(oriented.root):
        if w != 0 and w not in skip_r:
            terms.append((("r", w), 1.0))
    for u, v in oriented.sibling_pairs():
        terms.append((("x", u), 1.0))
        terms.append((("x", v), -1.0))
    rhs = float(K - h + 2 ** h - 1)
    return Cut(name or f"cpfacet:h={h}:root={oriented.root}", tuple(terms), "<=", rhs)


def all_subtree_cuts(tree: ScenarioTree, K: int):
    """Every oriented height-(K+1) subtree constraint (small trees only)."""
    orientation_cap = 200000
    count = 0
    for sub in enumerate_elbe_subtrees(tree, K + 1):
        for oriented in _orientations(sub):
            count += 1
            if count > orientation_cap:
                raise PolicyError(
                    f"more than {orientation_cap} oriented subtree constraints; "
                    "use cut_loop_st instead"
                )
            yield subtree_constraint_of(oriented, name=f"st:h={K + 1}:seq={count}")


def _orientations(sub: ElbeSubtree):
    if sub.left is None:
        yield sub
        return
    for L in _orientations(sub.left):
        for R in _orientations(sub.right):
            yield ElbeSubtree(sub.node, L, R)
            yield ElbeSubtree(sub.node, R, L)


# -- subtree DP formulation (STDP) ------------------------------------------------


def height_window(tree: ScenarioTree, v: int, K: int):
    """Heights worth tracking at node v for budget K: H(v, K)."""
    lo = max(1, K - tree.stage[v] + 1)
    hi = min(K + 1, tree.T - tree.stage[v])
    return range(lo, hi + 1)


def _same_stage_join_pairs(tree: ScenarioTree, v: int):
    """Same-stage descendant pairs whose join is exactly v, via child groups."""
    groups = []
    for u in tree.children[v]:
        by_stage = {}
        for d in [u] + tree.descendants(u):
            by_stage.setdefault(tree.stage[d], []).append(d)
        groups.append(by_stage)
    for gi in range(len(groups)):
        for gj in range(gi + 1, len(groups)):
            shared = set(groups[gi]) & set(groups[gj])
            for s in sorted(shared):
                for p in groups[gi][s]:
                    for q in groups[gj][s]:
                        yield p, q


def add_stdp_rows(model: ModelIR, tree: ScenarioTree, K: int, xblock, coord_lists, prefix=""):
    """STDP rows: Delta(v,h) variables, DP recurrences, and the root budget.

    Delta(v, h-1) terms vanish (value 0) when h = 1; pair rows are emitted
    in both orders so Delta dominates |x(p) - x(q)| contributions.
    """
    delta = {}
    for v in range(tree.node_count):
        if tree.is_leaf(v):
            continue
        for h in height_window(tree, v, K):
            delta[(v, h)] = model.add_var(
                f"{prefix}Delta_{v}_{h}", CONTINUOUS, 0.0, INF, tag=f"{prefix}Delta:{v}:{h}"
            )
    seq = 0
    for v in range(tree.node_count):
        if tree.is_leaf(v):
            continue
        window = list(height_window(tree, v, K))
        if window:
            pairs = list(_same_stage_join_pairs(tree, v))
            for h in window:
                g = h - 1
                for p, q in pairs:
                    if g > 0 and ((p, g) not in delta or (q, g) not in delta):
                        continue
                    base = [(delta[(v, h)], 1.0)]
                    if g > 0:
                        base += [(delta[(p, g)], -1.0), (delta[(q, g)], -1.0)]
                    xp, xq = xblock[p][None], xblock[q][None]
                    seq += 1
                    model.add_constraint(
                        f"{prefix}stdp:pair:{v}:{h}:{seq}",
                        base + [(xp, -1.0), (xq, 1.0)],
                        ">=",
                        0.0,
                    )
                    seq += 1
                    model.add_constraint(
                        f"{prefix}stdp:pair:{v}:{h}:{seq}",
                        base + [(xp, 1.0), (xq, -1.0)],
                        ">=",
                        0.0,
                    )
        for u in tree.children[v]:
            for h in window:
                if (u, h) in delta:
                    model.add_constraint(
                        f"{prefix}stdp:child:{v}:{u}:{h}",
                        [(delta[(v, h)], 1.0), (delta[(u, h)], -1.0)],
                        ">=",
                        0.0,
                    )
    if (0, K + 1) in delta:
        model.add_constraint(
            f"{prefix}stdp:budget", [(delta[(0, K + 1)], 1.0)], "<=", float(2 ** (K + 1) - 2)
        )
    return delta


def add_facet_rows(model: ModelIR, tree: ScenarioTree, K: int, r, delta, skip, prefix=""):
    """Delta-linked facet rows: sum of r above v plus Delta(v,h) is capped."""
    for v in range(tree.node_count):
        if tree.is_leaf(v):
            continue
        ancestors = [w for w in tree.path_to_root(v) if w != 0 and w not in skip]
        for h in height_window(tree, v, K):
            terms = [(r[w], 1.0) for w in ancestors] + [(delta[(v, h)], 1.0)]
            model.add_constraint(
                f"{prefix}cpfacet:{v}:{h}", terms, "<=", float(K - h + 2 ** h - 1)
            )


def add_path_rows(model: ModelIR, tree: ScenarioTree, K: int, xblock, coord_lists, prefix=""):
    """Path formulation over (x, r): revisions separate unequal same-stage pairs."""
    r = {}
    for v in range(1, tree.node_count):
        r[v] = model.add_var(f"{prefix}r_{v}", BINARY, tag=f"{prefix}r:{v}")
    for t in range(2, tree.T + 1):
        same = tree.nodes_at_stage(t)
        for mu in same:
            for nu in same:
                if mu == nu:
                    continue
                terms = [(r[d], 1.0) for d in _path_between(tree, mu, nu)]
                terms += [(xblock[mu][None], -1.0), (xblock[nu][None], 1.0)]
                model.add_constraint(f"{prefix}path:{mu}:{nu}", terms, ">=", 0.0)
    for sc in tree.scenarios():
        terms = [(r[v], 1.0) for v in sc.path if v != 0]
        model.add_constraint(f"{prefix}budget:{sc.leaf}", terms, "<=", float(K))


# -- one table of formulations ---------------------------------------------------


def add_cp_pp_rows(model: ModelIR, tree: ScenarioTree, K: int, xblock, coord_lists, prefix=""):
    """CP+ rows plus STDP rows plus the Delta-linked facet family."""
    _, r = add_cp_rows(model, tree, K, xblock, coord_lists, prefix, reduced=True)
    delta = add_stdp_rows(model, tree, K, xblock, coord_lists, prefix)
    add_facet_rows(model, tree, K, r, delta, only_child_nodes(tree), prefix)


def add_st_rows(model: ModelIR, tree: ScenarioTree, K: int, xblock, coord_lists, prefix=""):
    """Every oriented subtree cut materialized (small trees only)."""
    for cut in all_subtree_cuts(tree, K):
        model.add_constraint(prefix + cut.name, cut.bind(lambda fam, node: xblock[node][None]),
                             cut.sense, cut.rhs)


# kind -> rows_fn(model, tree, K, xblock, coord_lists, prefix)
_ROWS = {
    CP: partial(add_cp_rows, reduced=False),
    CP_PLUS: partial(add_cp_rows, reduced=True),
    CP_PLUS_PLUS: add_cp_pp_rows,
    ST: add_st_rows,
    STDP: add_stdp_rows,
    PATH: add_path_rows,
}
FORMULATION_KINDS = tuple(_ROWS)


def _checked_block(model: ModelIR, tree: ScenarioTree, vector_mode=False):
    """The model's tagged x block; a vector-valued one needs vector_mode."""
    xblock, coord_lists = strategic_block_of(model, tree)
    if not vector_mode and any(coords != [None] for coords in coord_lists.values()):
        raise PolicyError(
            "strategic block is vector-valued; apply split_multidim first or use a "
            "CP-family formulation in vector mode"
        )
    return xblock, coord_lists


def add_revision_rows(model: ModelIR, tree: ScenarioTree, spec: RevisionFormulationSpec,
                      prefix="rev:"):
    """Graft the chosen revision formulation onto a model's tagged x block."""
    xblock, coord_lists = _checked_block(model, tree, spec.vector_mode)
    _ROWS[spec.kind](model, tree, spec.K, xblock, coord_lists, prefix)
    return model


def build(kind, tree, K, vector_mode=False) -> ModelIR:
    """A standalone model: a fresh strategic block plus the kind's revision rows."""
    spec = RevisionFormulationSpec(kind, K, vector_mode)
    model = ModelIR(f"{kind}_K{K}")
    add_strategic_block(model, tree)
    return add_revision_rows(model, tree, spec, prefix="")


build_cp = partial(build, CP)
build_cp_plus = partial(build, CP_PLUS)
build_cp_pp = partial(build, CP_PLUS_PLUS)
build_st = partial(build, ST)
build_stdp = partial(build, STDP)
build_path = partial(build, PATH)


# -- iterative subtree cut loop ----------------------------------------------------


class CutLoopNonconvergence(RuntimeError):
    def __init__(self, message, best_value=None, rounds=0, cuts_added=0):
        super().__init__(message)
        self.best_value = best_value
        self.rounds = rounds
        self.cuts_added = cuts_added


@dataclass
class CutLoopResult:
    value: float
    assignment: dict
    x: list
    cuts_added: int
    rounds: int
    status: str


def cut_loop_st(tree: ScenarioTree, K: int, base: ModelIR, solve=None, mode="lp",
                max_rounds=500, tol=1e-6) -> CutLoopResult:
    """Solve with subtree constraints generated on the fly.

    Each round solves the current model, separates the incumbent x (the DP
    separator for fractional points, the fast bottom-up one for integral
    points), adds the violated height-(K+1) cut, and repeats until no
    violation remains.  The base model must tag its x block and is extended
    in place.
    """
    from .solver import default_solver, solve_lp  # local import to avoid a cycle

    if mode not in ("lp", "mip"):
        raise PolicyError(f"mode must be 'lp' or 'mip', got {mode!r}")
    xblock, _ = _checked_block(base, tree)
    names = {v: base.variables[xblock[v][None]].name for v in xblock}
    if solve is None:
        solve = solve_lp if mode == "lp" else default_solver
    bound = 2 ** (K + 1) - 2
    cuts = 0
    last = None
    for rounds in range(1, max_rounds + 1):
        res = solve(base)
        if res.status != "optimal":
            raise CutLoopNonconvergence(
                f"solver returned status {res.status} in cut loop round {rounds}",
                best_value=getattr(res, "bound", None), rounds=rounds, cuts_added=cuts,
            )
        last = res
        xvals = [min(1.0, max(0.0, res.assignment[names[v]])) for v in range(tree.node_count)]
        if mode == "lp":
            delta, witness = max_inconsistency(tree, xvals, K)
            if delta <= bound + tol or witness is None:
                return CutLoopResult(res.objective, res.assignment, xvals, cuts, rounds, "optimal")
        else:
            xr = [round(val) for val in xvals]
            witness = separate_binary_fast(tree, xr, K)
            if witness is None:
                return CutLoopResult(res.objective, res.assignment, xvals, cuts, rounds, "optimal")
            witness = witness.truncate(K + 1)
        cuts += 1
        cut = subtree_constraint_of(witness, name=f"stcut:{cuts}")
        base.add_constraint(cut.name, cut.bind(lambda fam, node: xblock[node][None]), cut.sense,
                            cut.rhs)
    raise CutLoopNonconvergence(
        f"no convergence in {max_rounds} rounds",
        best_value=last.objective if last else None, rounds=max_rounds, cuts_added=cuts,
    )


# -- partially adaptive restriction ------------------------------------------------


def partially_adaptive_groups(tree: ScenarioTree, stages):
    """Nodes grouped by their ancestor at the most recent adaptive stage.

    Within each group the strategic decision must be identical; stage 1 is
    always an implicit anchor.
    """
    adaptive = sorted(set(stages) | {1})
    groups = {}
    for v in range(tree.node_count):
        t = tree.stage[v]
        anchor_stage = max(a for a in adaptive if a <= t)
        anchor = tree.ancestor_at_stage(v, anchor_stage)
        groups.setdefault((t, anchor), []).append(v)
    return [sorted(g) for g in groups.values()]


def add_partially_adaptive_rows(model: ModelIR, tree: ScenarioTree, stages, prefix="pa:"):
    xblock, coord_lists = strategic_block_of(model, tree)
    seq = 0
    for group in partially_adaptive_groups(tree, stages):
        rep = group[0]
        for v in group[1:]:
            for coord in coord_lists[tree.stage[v]]:
                seq += 1
                model.add_constraint(
                    f"{prefix}eq:{seq}",
                    [(xblock[v][coord], 1.0), (xblock[rep][coord], -1.0)],
                    "=",
                    0.0,
                )
    return model


def partially_adaptive(tree: ScenarioTree, stages) -> ModelIR:
    """Model fragment with x variables equated per partially adaptive group."""
    model = ModelIR("partially_adaptive")
    add_strategic_block(model, tree)
    return add_partially_adaptive_rows(model, tree, stages)


# -- hypercube objective on a strategic block ---------------------------------------


def hypercube_base_model(inst) -> ModelIR:
    """x block plus the hypercube objective (maximize c . x)."""
    tree = inst.tree
    model = ModelIR("hypercube")
    add_strategic_block(model, tree)
    xblock, _ = strategic_block_of(model, tree)
    terms = []
    for v in range(tree.node_count):
        multi = tree.strategic_dim[tree.stage[v]] > 1
        for i, coef in enumerate(inst.c[v]):
            coord = str(i) if multi else None
            if coef:
                terms.append((xblock[v][coord], float(coef)))
    model.set_objective(MAX, terms)
    return model
