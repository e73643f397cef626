import random

import pytest

from krevise.fixtures import (
    fractional_cp_point,
    seven_node_tree,
    stubborn_policy,
    tall_tree_fractional_x,
    tall_tree_instance,
)
from krevise.formulations import (
    CP,
    CP_PLUS,
    CP_PLUS_PLUS,
    PATH,
    ST,
    STDP,
    FORMULATION_KINDS,
    CutLoopNonconvergence,
    RevisionFormulationSpec,
    add_revision_rows,
    all_subtree_cuts,
    build,
    build_cp,
    build_cp_plus,
    build_cp_pp,
    build_path,
    build_st,
    build_stdp,
    cut_loop_st,
    facet_inequality_of,
    height_window,
    hypercube_base_model,
    only_child_nodes,
    partially_adaptive,
    partially_adaptive_groups,
    subtree_constraint_of,
)
from krevise.hypercube import HypercubeInstance, random_instance, solve_dp, split_instance
from krevise.model import evaluate
from krevise.revision import (
    ElbeSubtree,
    PolicyError,
    is_k_revisable,
    max_inconsistency,
    node_inconsistency_table,
)
from krevise.solver import solve_lp, solve_mip
from krevise.tree import ScenarioTree, generate_btree, generate_stree

from helpers import MilpOracle, all_binary_policies, scipy_solve


def count_vars(model, prefix):
    return sum(1 for v in model.variables if v.name.startswith(prefix))


def test_cp_counts_on_reference_tree():
    t = seven_node_tree()
    cp = build_cp(t, 1)
    assert count_vars(cp, "x_") == 7
    assert count_vars(cp, "r_") == 6
    assert count_vars(cp, "pi_") == sum(t.T - t.stage[v] + 1 for v in range(7))
    assert sum(1 for c in cp.constraints if c.name.startswith("budget")) == 4


def test_cp_plus_identical_without_only_children():
    t = seven_node_tree()
    assert only_child_nodes(t) == set()
    a, b = build_cp(t, 1), build_cp_plus(t, 1)
    assert [v.name for v in a.variables] == [v.name for v in b.variables]
    assert len(a.constraints) == len(b.constraints)


def test_cp_plus_path_tree_keeps_t_plan_vars():
    for T in (2, 4, 6):
        line = ScenarioTree([None] + list(range(T - 1)))
        model = build_cp_plus(line, 1)
        assert count_vars(model, "pi_") == T
        assert count_vars(model, "r_") == 0
        # every binary x is feasible on a path
        oracle = MilpOracle(model)
        rng = random.Random(T)
        for _ in range(4):
            assert oracle.feasible_with_x([rng.randint(0, 1) for _ in range(T)])


def test_cp_plus_eliminates_only_children():
    # chain below each second-stage node: those third-stage nodes are only children
    t = ScenarioTree([None, 0, 0, 1, 2, 3, 4])
    model = build_cp_plus(t, 1)
    only = only_child_nodes(t)
    assert only == {3, 4, 5, 6}
    for v in only:
        assert count_vars(model, f"pi_{v}_") == 0
        assert all(var.name != f"r_{v}" for var in model.variables)


def test_cp_plus_size_bound_random_trees():
    rng = random.Random(31)
    done = 0
    while done < 100:
        T = rng.randint(2, 7)
        try:
            t = generate_stree(rng.randint(2 * T, 40), T, m=3,
                               rho=rng.choice([0.3, 0.5, 0.8]), tolerance=0.9,
                               seed=rng.randint(0, 10 ** 6), max_attempts=200)
        except Exception:
            continue
        model = build_cp_plus(t, 1)
        assert count_vars(model, "pi_") <= 2 * t.node_count - t.T
        done += 1


def test_subtree_constraint_of_witness():
    t = seven_node_tree()
    x = stubborn_policy()
    _, witness = max_inconsistency(t, x, 1)
    cut = subtree_constraint_of(witness)
    assert cut.rhs == 2.0
    lhs = sum(coef * x[node] for (fam, node), coef in cut.terms)
    assert lhs == 3.0  # violated by the stubborn policy
    const = sum(coef * 1.0 for (fam, node), coef in cut.terms)
    assert const == 0.0  # constant policies always satisfy the cut


def test_subtree_cuts_tight_on_tall_tree_fraction():
    inst = tall_tree_instance(3)
    x = tall_tree_fractional_x(3)
    for cut in all_subtree_cuts(inst.tree, 1):
        lhs = sum(coef * x[node] for (fam, node), coef in cut.terms)
        assert lhs <= cut.rhs + 1e-12


def test_facet_inequality_arithmetic():
    t = seven_node_tree()
    pair = ElbeSubtree(0, ElbeSubtree(2), ElbeSubtree(1))  # oriented (v2, v1)
    cut = facet_inequality_of(t, 1, pair)
    assert cut.rhs == 1.0  # K - 1 + 2^1 - 1
    point = fractional_cp_point()
    lhs = sum(coef * point[("r_" if fam == "r" else "x_") + str(node)]
              for (fam, node), coef in cut.terms)
    assert abs(lhs - 1.0) < 1e-12  # tight at the fractional CP point
    # degenerate: a single leaf gives the budget row
    leaf = ElbeSubtree(3)
    budget = facet_inequality_of(t, 2, leaf)
    assert budget.rhs == 2.0
    assert [(fam, n) for (fam, n), _ in budget.terms] == [("r", 3), ("r", 1)]
    with pytest.raises(PolicyError):
        facet_inequality_of(t, 3, pair)  # stage(root)=1 not > K-h=2


def test_height_windows():
    t = generate_btree(4)
    assert list(height_window(t, 0, 1)) == [1, 2]
    assert list(height_window(t, 1, 1)) == [1, 2]
    leaf = t.leaves()[0]
    assert list(height_window(t, leaf, 1)) == []
    assert list(height_window(t, 0, 3)) == [3]  # min(K+1, T-1) = 3, max(1, K) = 3


def test_stdp_trivial_when_horizon_short():
    line = ScenarioTree([None, 0, 0])
    model = build_stdp(line, 2)  # K+1 = 3 > T-1
    assert count_vars(model, "Delta_") == 0
    assert all(not c.name.startswith("stdp:budget") for c in model.constraints)


def test_stdp_reference_layout_and_projection():
    t = seven_node_tree()
    model = build_stdp(t, 1)
    delta_names = {v.name for v in model.variables if v.name.startswith("Delta_")}
    assert delta_names == {"Delta_0_1", "Delta_0_2", "Delta_1_1", "Delta_2_1"}
    oracle = MilpOracle(model)
    for x in all_binary_policies(7):
        assert oracle.feasible_with_x(x) == is_k_revisable(t, x, 1)


def test_cp_pp_reduces_to_cp_plus_when_short():
    # T <= K: no height window survives anywhere
    line = ScenarioTree([None, 0])
    assert count_vars(build_cp_pp(line, 2), "Delta_") == 0
    # T = K+1: windows exist but never bind; projections coincide (everything)
    fork = ScenarioTree([None, 0, 0])
    a, b = build_cp_pp(fork, 1), build_cp_plus(fork, 1)
    oa, ob = MilpOracle(a), MilpOracle(b)
    for x in all_binary_policies(3):
        assert oa.feasible_with_x(x) and ob.feasible_with_x(x)


def test_fig4_point_separates_cp_from_cp_pp():
    t = seven_node_tree()
    point = fractional_cp_point()
    _, viol = evaluate(build_cp(t, 1), point, tol=1e-9)
    assert viol == []
    cpp = build_cp_pp(t, 1)
    table = node_inconsistency_table(t, stubborn_policy(), 2)
    full = dict(point)
    for var in cpp.variables:
        if var.name.startswith("Delta_"):
            _, v, h = var.name.split("_")
            full[var.name] = table[(int(v), int(h))]
    _, viol = evaluate(cpp, full, tol=1e-9)
    assert any(name.startswith("cpfacet") for name, _ in viol)
    # no Delta completion can help: the LP with (x, pi, r) fixed is infeasible
    fixed = cpp
    for var in fixed.variables:
        if var.name in point:
            var.lower = var.upper = point[var.name]
        var.kind = "continuous"
    assert solve_lp(fixed).status == "infeasible"


def test_path_formulation_reference():
    t = seven_node_tree()
    model = build_path(t, 1)
    # P*(v3, v5) excludes the join (the root)
    row = next(c for c in model.constraints if c.name == "path:3:5")
    names = {model.variables[i].name for i, _ in row.terms}
    assert names == {"r_3", "r_1", "r_5", "r_2", "x_3", "x_5"}
    oracle = MilpOracle(model)
    for x in all_binary_policies(7):
        assert oracle.feasible_with_x(x) == is_k_revisable(t, x, 1)


def test_all_formulations_agree_on_hypercube_optimum():
    rng = random.Random(4)
    tree = generate_stree(9, 4, rho=0.7, tolerance=0.5, seed=21)
    inst = random_instance(tree, seed=77)
    for K in (1, 2):
        expected = solve_dp(inst, K)[0]
        for kind in (CP, CP_PLUS, CP_PLUS_PLUS, STDP, PATH, ST):
            model = hypercube_base_model(inst)
            add_revision_rows(model, tree, RevisionFormulationSpec(kind, K))
            status, val = scipy_solve(model)
            assert status == "optimal" and abs(val - expected) < 1e-7, (kind, K)


def test_vector_mode_cp_matches_split_solution():
    inst = random_instance(ScenarioTree([None, 0, 0, 1, 1, 2, 2], strategic_dim={2: 2}), seed=9)
    flat, _ = split_instance(inst)
    for K in (0, 1, 2):
        expected = solve_dp(flat, K)[0]
        for kind in (CP, CP_PLUS):
            model = hypercube_base_model(inst)
            add_revision_rows(model, inst.tree, RevisionFormulationSpec(kind, K, vector_mode=True))
            status, val = scipy_solve(model)
            assert abs(val - expected) < 1e-7, (kind, K)


def test_vector_mode_required_for_st_family():
    inst = random_instance(ScenarioTree([None, 0, 0], strategic_dim={2: 2}), seed=1)
    for kind in FORMULATION_KINDS:
        with pytest.raises(PolicyError):
            build(kind, inst.tree, 1)
        with pytest.raises(PolicyError):
            add_revision_rows(hypercube_base_model(inst), inst.tree, RevisionFormulationSpec(kind, 1))
        if kind in (CP, CP_PLUS):
            assert build(kind, inst.tree, 1, vector_mode=True).constraints
        else:
            with pytest.raises(PolicyError):
                RevisionFormulationSpec(kind, 1, vector_mode=True)


def test_cut_loop_lp_tall_tree_bound():
    inst = tall_tree_instance(4)
    base = hypercube_base_model(inst)
    res = cut_loop_st(inst.tree, 1, base, mode="lp")
    assert res.value >= (2.0 / 3.0) * 4 * 2 ** 3 - 1e-6
    delta, _ = max_inconsistency(inst.tree, res.x, 1)
    assert delta <= 2 ** 2 - 2 + 1e-6


def test_cut_loop_mip_matches_dp():
    t = seven_node_tree()
    inst = random_instance(t, seed=15)
    base = hypercube_base_model(inst)
    res = cut_loop_st(t, 1, base, mode="mip", solve=solve_mip)
    assert abs(res.value - solve_dp(inst, 1)[0]) < 1e-6


def test_cut_loop_no_cuts_needed():
    t = seven_node_tree()
    inst = HypercubeInstance.from_scalars(t, [-1] * 7)  # optimum at x == 0
    base = hypercube_base_model(inst)
    res = cut_loop_st(t, 1, base, mode="mip", solve=solve_mip)
    assert res.cuts_added == 0 and res.value == 0.0


def test_cut_loop_round_cap():
    inst = tall_tree_instance(4)
    base = hypercube_base_model(inst)
    with pytest.raises(CutLoopNonconvergence) as err:
        cut_loop_st(inst.tree, 1, base, mode="lp", max_rounds=2)
    assert err.value.rounds == 2 and err.value.best_value is not None


def test_partially_adaptive_groups():
    t = generate_btree(3)
    # fully adaptive
    full = partially_adaptive_groups(t, range(2, t.T + 1))
    assert all(len(g) == 1 for g in full)
    # no adaptive stages: constant per stage
    rigid = partially_adaptive_groups(t, [])
    assert sorted(len(g) for g in rigid) == [1, 2, 4]
    # L = {3}: stage-3 decisions free, stage-2 tied together
    mid = partially_adaptive_groups(t, [3])
    assert sorted(len(g) for g in mid) == [1, 1, 1, 1, 1, 2]
    model = partially_adaptive(t, [3])
    assert sum(1 for c in model.constraints if c.name.startswith("pa:")) == 1


def test_build_dispatch():
    t = seven_node_tree()
    for kind in (CP, CP_PLUS, CP_PLUS_PLUS, STDP, PATH, ST):
        model = build(kind, t, 1)
        assert count_vars(model, "x_") == 7


def test_stdp_lp_value_matches_subtree_polytope_optimum():
    # sharpness at the LP level on arbitrary trees: optimizing any linear
    # objective over the STDP relaxation equals optimizing over all subtree
    # cuts (the cut loop terminates only when none are violated)
    rng = random.Random(58)
    for trial in range(8):
        tree = generate_stree(rng.randint(6, 12), rng.randint(3, 4), m=3,
                              rho=0.7, tolerance=0.5, seed=900 + trial)
        inst = random_instance(tree, seed=trial)
        for K in (1, 2):
            if K + 1 > tree.T - 1:
                continue
            model = hypercube_base_model(inst)
            add_revision_rows(model, tree, RevisionFormulationSpec(STDP, K))
            stdp_lp = solve_lp(model).objective
            loop = cut_loop_st(tree, K, hypercube_base_model(inst), mode="lp")
            assert abs(stdp_lp - loop.value) < 1e-6, (trial, K, stdp_lp, loop.value)


def test_lift_chain_twice():
    from krevise.hypercube import lift_instance, lift_magnitude

    tree = generate_btree(2)
    inst = random_instance(tree, seed=31)
    v0 = solve_dp(inst, 0)[0]
    m1 = lift_magnitude(inst)
    once = lift_instance(inst)
    v1 = solve_dp(once, 1)[0]
    assert abs(v1 - len(inst.tree.leaves()) * m1 - v0) < 1e-9
    m2 = lift_magnitude(once)
    twice = lift_instance(once)
    v2 = solve_dp(twice, 2)[0]
    assert abs(v2 - len(once.tree.leaves()) * m2 - v1) < 1e-9
