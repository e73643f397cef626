import os
import stat
import sys
import tempfile
import textwrap

import numpy as np
import pytest
from scipy.optimize import linprog

from krevise import solver
from krevise.experiments import ExperimentSpec, _build_cell_model, _make_tree, run_experiment
from krevise.formulations import (
    CP,
    CP_PLUS,
    CP_PLUS_PLUS,
    FORMULATION_KINDS,
    RevisionFormulationSpec,
    hypercube_base_model,
)
from krevise.hypercube import random_instance
from krevise.model import BINARY, CONTINUOUS, INF, INTEGER, MAX, MIN, ModelIR, evaluate
from krevise.problems import attach_revision
from krevise.solver import (
    MipOptions,
    SolutionParseError,
    SolutionVerificationError,
    SolverExitError,
    SolverSpawnError,
    external_solve,
    parse_solution_file,
    solve_lp,
    solve_mip,
)
from krevise.tree import generate_stree

from helpers import scipy_solve


def random_lp(rng, n, m):
    A = rng.normal(size=(m, n)).round(2)
    b = (rng.normal(size=m) * 2).round(2)
    c = rng.normal(size=n).round(2)
    hi = rng.uniform(0.5, 3, size=n).round(2)
    senses = rng.choice(["<=", ">=", "="], size=m)
    model = ModelIR("rnd")
    for i in range(n):
        model.add_var(f"v{i}", CONTINUOUS, 0.0, hi[i])
    for i in range(m):
        model.add_constraint(f"c{i}", [(j, A[i, j]) for j in range(n)], senses[i], b[i])
    model.set_objective(MIN, [(j, c[j]) for j in range(n)])
    return model, (A, b, c, hi, senses)


def test_lp_simple_bound():
    m = ModelIR()
    x = m.add_var("x", CONTINUOUS, 0, 1)
    m.add_constraint("c", [(x, 1.0)], "<=", 0.5)
    m.set_objective(MAX, [(x, 1.0)])
    res = solve_lp(m)
    assert res.status == "optimal" and abs(res.objective - 0.5) < 1e-9
    assert abs(res.bound - res.objective) <= 1e-6 * (1 + abs(res.objective))


def test_lp_statuses():
    m = ModelIR()
    z = m.add_var("z", CONTINUOUS, 0, 1)
    m.add_constraint("ge", [(z, 1.0)], ">=", 2)
    assert solve_lp(m).status == "infeasible"
    m2 = ModelIR()
    u = m2.add_var("u", CONTINUOUS, 0, INF)
    m2.set_objective(MAX, [(u, 1.0)])
    assert solve_lp(m2).status == "unbounded"


def test_lp_against_scipy_random():
    rng = np.random.default_rng(3)
    for trial in range(60):
        model, (A, b, c, hi, senses) = random_lp(rng, int(rng.integers(2, 9)), int(rng.integers(1, 8)))
        res = solve_lp(model)
        Aub, bub, Aeq, beq = [], [], [], []
        for i in range(len(b)):
            if senses[i] == "<=":
                Aub.append(A[i]); bub.append(b[i])
            elif senses[i] == ">=":
                Aub.append(-A[i]); bub.append(-b[i])
            else:
                Aeq.append(A[i]); beq.append(b[i])
        ref = linprog(c, A_ub=np.array(Aub) if Aub else None, b_ub=bub or None,
                      A_eq=np.array(Aeq) if Aeq else None, b_eq=beq or None,
                      bounds=list(zip([0.0] * len(c), hi)), method="highs")
        if ref.status == 2:
            assert res.status == "infeasible", trial
        elif ref.status == 0:
            assert res.status == "optimal", (trial, res.status)
            assert abs(res.objective - ref.fun) < 1e-6 * (1 + abs(ref.fun)), trial
            _, viol = evaluate(model, res.assignment, tol=1e-6)
            assert not viol


def test_lp_returns_vertex():
    # every optimal basic solution has at most m basic (non-bound) variables
    m = ModelIR()
    vs = [m.add_var(f"v{i}", CONTINUOUS, 0, 1) for i in range(6)]
    m.add_constraint("c0", [(v, 1.0) for v in vs], "<=", 2.5)
    m.set_objective(MAX, [(v, 1.0) for v in vs])
    res = solve_lp(m)
    interior = sum(1 for v in res.assignment.values() if 1e-9 < v < 1 - 1e-9)
    assert interior <= 1  # one row => at most one fractional coordinate at a vertex


def test_lp_determinism():
    rng = np.random.default_rng(5)
    model, _ = random_lp(rng, 7, 5)
    a = solve_lp(model)
    b = solve_lp(model)
    assert a.assignment == b.assignment and a.iterations == b.iterations


def test_mip_knapsack_and_certificate():
    m = ModelIR()
    vs = [m.add_var(f"y{i}", BINARY) for i in range(5)]
    weights = [3, 4, 5, 8, 9]
    values = [2, 3, 4, 7, 8]
    m.add_constraint("cap", [(vs[i], weights[i]) for i in range(5)], "<=", 12)
    m.set_objective(MAX, [(vs[i], values[i]) for i in range(5)])
    res = solve_mip(m)
    assert res.status == "optimal" and abs(res.objective - 10) < 1e-9
    _, viol = evaluate(m, res.assignment, tol=1e-5)
    assert not viol
    assert abs(res.bound - res.objective) <= 1e-6 * (1 + abs(res.objective))


def test_mip_infeasible():
    m = ModelIR()
    z = m.add_var("z", BINARY)
    m.add_constraint("a", [(z, 1.0)], ">=", 1)
    m.add_constraint("b", [(z, 1.0)], "<=", 0)
    assert solve_mip(m).status == "infeasible"


def test_mip_against_scipy_random():
    rng = np.random.default_rng(11)
    for trial in range(30):
        n, mm = int(rng.integers(2, 8)), int(rng.integers(1, 6))
        A = rng.integers(-3, 4, size=(mm, n)).astype(float)
        b = rng.integers(-2, 8, size=mm).astype(float)
        c = rng.integers(-5, 6, size=n).astype(float)
        model = ModelIR("rmip")
        for i in range(n):
            model.add_var(f"v{i}", BINARY)
        for i in range(mm):
            terms = [(j, A[i, j]) for j in range(n) if A[i, j]]
            if terms:
                model.add_constraint(f"c{i}", terms, "<=", b[i])
        model.set_objective(MAX, [(j, c[j]) for j in range(n)])
        res = solve_mip(model)
        status, val = scipy_solve(model)
        if status == "infeasible":
            assert res.status == "infeasible", trial
        else:
            assert res.status == "optimal" and abs(res.objective - val) < 1e-6, trial


def test_mip_mixed_integer_with_continuous():
    m = ModelIR()
    x = m.add_var("x", INTEGER, 0, 10)
    y = m.add_var("y", CONTINUOUS, 0, 10)
    m.add_constraint("c1", [(x, 1.0), (y, 1.0)], "<=", 7.3)
    m.add_constraint("c2", [(x, 2.0), (y, -1.0)], "<=", 5.0)
    m.set_objective(MAX, [(x, 3.0), (y, 1.0)])
    res = solve_mip(m)
    status, val = scipy_solve(m)
    assert abs(res.objective - val) < 1e-6


def test_mip_node_cap_reports_limit_with_bound():
    rng = np.random.default_rng(17)
    n = 14
    c = rng.integers(1, 20, size=n).astype(float)
    w = rng.integers(1, 20, size=n).astype(float)
    m = ModelIR()
    vs = [m.add_var(f"y{i}", BINARY) for i in range(n)]
    m.add_constraint("cap", [(vs[i], w[i]) for i in range(n)], "<=", float(w.sum()) / 2)
    m.set_objective(MAX, [(vs[i], c[i]) for i in range(n)])
    res = solve_mip(m, MipOptions(node_cap=3))
    assert res.status in ("limit", "optimal")
    _, exact = scipy_solve(m)
    assert res.bound >= exact - 1e-6  # valid bound for a max problem


# -- external bridge -------------------------------------------------------------


def _write_bridge_script(tmp_path):
    """A stand-in external solver: solves the MPS with the embedded engine."""
    script = tmp_path / "fakesolver.py"
    script.write_text(textwrap.dedent("""
        import sys
        from krevise.model import parse_mps
        from krevise.solver import solve_mip, solve_lp
        model = parse_mps(open(sys.argv[1]).read())
        res = solve_mip(model) if model.integer_indices() else solve_lp(model)
        if res.status != "optimal":
            sys.exit(3)
        with open(sys.argv[2], "w") as fh:
            fh.write(f"# Objective value = {res.objective}\\n")
            for name, val in res.assignment.items():
                fh.write(f"{name} {val:.12g}\\n")
    """))
    return f"{sys.executable} {script} {{mps}} {{sol}}"


def test_parse_solution_file_formats():
    text = "# Objective value = 12.5\nx 1\ny 0.5\n"
    assignment, obj = parse_solution_file(text)
    assert assignment == {"x": 1.0, "y": 0.5} and obj == 12.5
    text2 = "Optimal - objective value 7\n0 x 1.0 0.0\n1 y 2 0.5\n"
    assignment, obj = parse_solution_file(text2)
    assert assignment == {"x": 1.0, "y": 2.0} and obj == 7.0
    with pytest.raises(SolutionParseError):
        parse_solution_file("")
    with pytest.raises(SolutionParseError):
        parse_solution_file("x notanumber\n")


def test_external_solve_roundtrip(tmp_path):
    cmd = _write_bridge_script(tmp_path)
    m = ModelIR("ext")
    a = m.add_var("a", BINARY)
    b = m.add_var("b", BINARY)
    m.add_constraint("c", [(a, 1.0), (b, 1.0)], "<=", 1)
    m.set_objective(MAX, [(a, 2.0), (b, 3.0)])
    res = external_solve(m, solver_cmd=cmd)
    assert res.status == "optimal" and abs(res.objective - 3.0) < 1e-9
    embedded = solve_mip(m)
    assert abs(res.objective - embedded.objective) < 1e-9


def _no_leftover_dirs(tmp_path):
    return not list(tmp_path.glob("krevise_*"))


def test_external_solve_missing_binary(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    m = ModelIR()
    m.add_var("a", BINARY)
    with pytest.raises(SolverSpawnError):
        external_solve(m, solver_cmd="/definitely/not/here {mps} {sol}")
    assert _no_leftover_dirs(tmp_path)


def test_external_solve_nonzero_exit(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    m = ModelIR()
    m.add_var("a", BINARY)
    with pytest.raises(SolverExitError):
        external_solve(m, solver_cmd=f"{sys.executable} -c 'import sys; sys.exit(4)' {{mps}} {{sol}}")
    assert _no_leftover_dirs(tmp_path)


def test_external_solve_timeout(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    m = ModelIR()
    m.add_var("a", BINARY)
    cmd = f"{sys.executable} -c 'import time; time.sleep(30)' {{mps}} {{sol}}"
    with pytest.raises(SolverExitError, match="timed out"):
        external_solve(m, solver_cmd=cmd, timeout=0.5)
    assert _no_leftover_dirs(tmp_path)


def test_external_solve_verification_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    lying = tmp_path / "liar.py"
    lying.write_text("import sys\nopen(sys.argv[2], 'w').write('a 5\\n')\n")
    m = ModelIR()
    m.add_var("a", BINARY)
    m.add_constraint("c", [(0, 1.0)], "<=", 1)
    with pytest.raises(SolutionVerificationError):
        external_solve(m, solver_cmd=f"{sys.executable} {lying} {{mps}} {{sol}}")
    assert _no_leftover_dirs(tmp_path)


def test_default_solver_env_flow(tmp_path, monkeypatch):
    from krevise.solver import default_solver

    cmd = _write_bridge_script(tmp_path)
    m = ModelIR("envflow")
    a = m.add_var("a", BINARY)
    b = m.add_var("b", BINARY)
    m.add_constraint("c", [(a, 2.0), (b, 3.0)], "<=", 4)
    m.set_objective(MAX, [(a, 1.0), (b, 1.0)])
    embedded = default_solver(m)
    monkeypatch.setenv("KREVISE_SOLVER_CMD", cmd)
    external = default_solver(m)
    assert abs(embedded.objective - external.objective) < 1e-9


def test_cut_loop_with_external_backend(tmp_path):
    from krevise.formulations import cut_loop_st, hypercube_base_model
    from krevise.hypercube import random_instance, solve_dp
    from krevise.solver import external_solve
    from krevise.tree import generate_btree

    cmd = _write_bridge_script(tmp_path)
    tree = generate_btree(3)
    inst = random_instance(tree, seed=21)
    base = hypercube_base_model(inst)
    res = cut_loop_st(tree, 1, base, mode="mip",
                      solve=lambda model: external_solve(model, solver_cmd=cmd))
    assert abs(res.value - solve_dp(inst, 1)[0]) < 1e-6


def test_lp_degenerate_with_free_variables_against_scipy():
    # integer data drives degeneracy; free columns must price in both directions
    rng = np.random.default_rng(77)
    for trial in range(80):
        n, m = int(rng.integers(3, 25)), int(rng.integers(1, 18))
        A = rng.integers(-3, 4, size=(m, n)).astype(float)
        b = rng.integers(-4, 10, size=m).astype(float)
        c = rng.integers(-6, 7, size=n).astype(float)
        lo = np.zeros(n)
        hi = np.where(rng.random(n) < 0.3, np.inf, rng.integers(1, 5, size=n).astype(float))
        lo[rng.random(n) < 0.15] = -np.inf
        senses = rng.choice(["<=", ">=", "="], size=m, p=[0.5, 0.3, 0.2])
        model = ModelIR()
        for i in range(n):
            model.add_var(f"v{i}", CONTINUOUS, lo[i], hi[i])
        for i in range(m):
            terms = [(j, A[i, j]) for j in range(n) if A[i, j]]
            if terms:
                model.add_constraint(f"c{i}", terms, senses[i], b[i])
        sense = MIN if rng.random() < 0.5 else MAX
        model.set_objective(sense, [(j, c[j]) for j in range(n)])
        res = solve_lp(model, iteration_cap=200000)
        Aub, bub, Aeq, beq = [], [], [], []
        for i in range(m):
            if senses[i] == "<=":
                Aub.append(A[i]); bub.append(b[i])
            elif senses[i] == ">=":
                Aub.append(-A[i]); bub.append(-b[i])
            else:
                Aeq.append(A[i]); beq.append(b[i])
        cc = c if sense == MIN else -c
        ref = linprog(cc, A_ub=np.array(Aub) if Aub else None, b_ub=bub or None,
                      A_eq=np.array(Aeq) if Aeq else None, b_eq=beq or None,
                      bounds=[(None if not np.isfinite(l) else l,
                               None if not np.isfinite(h) else h) for l, h in zip(lo, hi)],
                      method="highs")
        if ref.status == 2:
            assert res.status == "infeasible", trial
        elif ref.status == 3:
            assert res.status == "unbounded", trial
        elif ref.status == 0:
            refval = ref.fun if sense == MIN else -ref.fun
            assert res.status == "optimal", (trial, res.status)
            assert abs(res.objective - refval) <= 1e-6 * (1 + abs(refval)), trial


# -- crash basis, warm-started children, numerical regressions --------------------


def _hypercube_model(tree, K, kind, seed):
    model = hypercube_base_model(random_instance(tree, seed=seed))
    attach_revision(model, tree, RevisionFormulationSpec(kind, K))
    return model


def _cell_model(cell, seed):
    spec = ExperimentSpec.from_dict({**cell, "seeds": [seed]})
    tree = None if spec.problem == "saghp" else _make_tree(spec, seed)
    return _build_cell_model(spec, tree, seed, spec.K_values[0], spec.formulations[0])[1]


def _warm_pairs(monkeypatch):
    """Re-solve every warm-started LP cold; the returned list gets (warm, cold) pairs."""
    pairs = []
    plain = solver.solve_lp

    def solve(model, *args, warm_start=None, **kwargs):
        res = plain(model, *args, warm_start=warm_start, **kwargs)
        if warm_start is not None and warm_start.basis is not None:
            pairs.append((res, plain(model, *args, **kwargs)))
        return res

    monkeypatch.setattr(solver, "solve_lp", solve)
    return pairs


def _assert_pairs_agree(pairs):
    for warm, cold in pairs:
        assert warm.status == cold.status
        if cold.status == "optimal":
            assert warm.objective == pytest.approx(cold.objective, rel=1e-7, abs=1e-7)


def test_cp_pp_lp_on_baseline_tree_matches_highs():
    # a ratio test accepting 1e-11 pivots ran this LP into a singular basis
    tree = generate_stree(40, 6, rho=0.5, seed=1)
    model = _hypercube_model(tree, 1, CP_PLUS_PLUS, 1)
    res = solve_lp(model)
    _, ref = scipy_solve(model, relax=True)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(ref, abs=1e-6) and ref == pytest.approx(102.0)


def test_lot_sizing_cp_pp_cell_matches_highs():
    # this cell ended in a singular basis inside branch and bound
    cell = {"problem": "lot_sizing", "tree_kind": "stree",
            "tree_params": {"target_nodes": 12, "T": 4, "rho": 0.5, "tolerance": 0.1},
            "formulations": [CP_PLUS_PLUS], "K_values": [1]}
    row = run_experiment(ExperimentSpec.from_dict({**cell, "seeds": [2]})).rows[0]
    _, ref = scipy_solve(_cell_model(cell, 2))
    assert row["status"] == "optimal"
    assert row["obj_ip"] == pytest.approx(ref, rel=1e-9) and ref == pytest.approx(217166.67, abs=0.01)


@pytest.mark.parametrize("kind", FORMULATION_KINDS)
def test_solve_lp_matches_highs_on_random_strees(kind):
    for seed in range(3):
        tree = generate_stree(14, 4, rho=0.5, seed=seed)
        for K in (1, 2):
            model = _hypercube_model(tree, K, kind, seed)
            res = solve_lp(model)
            _, ref = scipy_solve(model, relax=True)
            assert res.status == "optimal", (seed, K)
            assert res.objective == pytest.approx(ref, rel=1e-7, abs=1e-7), (seed, K)


_LOT_TREE = {"target_nodes": 9, "T": 4, "rho": 0.35, "tolerance": 0.1}
_CAP_PARAMS = {"n_tools": 2, "n_ops": 3, "n_products": 2, "base_demand": 10.0,
               "tool_cap": 50.0, "tool_rate": 10.0}
BASE_CELLS = [
    *({"problem": "lot_sizing", "tree_kind": "stree", "tree_params": _LOT_TREE,
       "formulations": [kind], "K_values": [K]} for kind in FORMULATION_KINDS for K in (1, 2)),
    *({"problem": "capacity_planning", "tree_kind": "btree", "tree_params": {"T": 3},
       "problem_params": _CAP_PARAMS, "formulations": [kind], "K_values": [K]}
      for kind in (CP, CP_PLUS) for K in (1, 2)),
    *({"problem": "saghp", "tree_params": {"T": 4}, "problem_params": {"n_flights": 3, "pattern": "VIV"},
       "formulations": [kind], "K_values": [K], "seeds": [0]} for kind in (CP, CP_PLUS) for K in (1, 2)),
]


@pytest.mark.parametrize("cell", BASE_CELLS,
                         ids=lambda c: f"{c['problem']}-{c['formulations'][0]}-K{c['K_values'][0]}")
def test_solve_mip_matches_highs_on_base_problems(cell, monkeypatch):
    pairs = _warm_pairs(monkeypatch)
    for seed in (0, 1, 2):
        model = _cell_model(cell, seed)
        res = solve_mip(model)
        _, ref = scipy_solve(model)
        assert res.status == "optimal", seed
        assert res.objective == pytest.approx(ref, rel=1e-7, abs=1e-7), seed
    _assert_pairs_agree(pairs)


def test_warm_children_match_cold_solves_on_random_mips(monkeypatch):
    # general integers, free continuous columns (priced at zero, so the
    # LP stays bounded) and equality rows
    pairs = _warm_pairs(monkeypatch)
    rng = np.random.default_rng(23)
    for trial in range(40):
        n, mm = int(rng.integers(3, 9)), int(rng.integers(2, 7))
        model = ModelIR("rmix")
        cost = rng.integers(-5, 6, size=n).astype(float)
        for j in range(n):
            if rng.random() < 0.7:
                model.add_var(f"v{j}", INTEGER, float(rng.integers(-2, 1)), float(rng.integers(1, 5)))
            elif rng.random() < 0.4:
                model.add_var(f"v{j}", CONTINUOUS, -INF, INF)
                cost[j] = 0.0
            else:
                model.add_var(f"v{j}", CONTINUOUS, 0.0, 6.0)
        for i in range(mm):
            row = rng.integers(-4, 5, size=n).astype(float) + rng.random(n).round(2)
            sense = rng.choice(["<=", ">=", "="], p=[0.5, 0.3, 0.2])
            model.add_constraint(f"c{i}", [(j, row[j]) for j in range(n)], sense,
                                 float(rng.integers(-3, 9)) + 0.5)
        model.set_objective(MAX, [(j, cost[j]) for j in range(n)])
        res = solve_mip(model)
        status, val = scipy_solve(model)
        assert res.status == status, trial
        if status == "optimal":
            assert res.objective == pytest.approx(val, abs=1e-6), trial
    _assert_pairs_agree(pairs)
    assert any(warm.status == "optimal" for warm, _ in pairs)
    assert any(warm.status == "infeasible" for warm, _ in pairs)


def _knapsack(n=14, seed=17):
    rng = np.random.default_rng(seed)
    c = rng.integers(1, 20, size=n).astype(float)
    w = rng.integers(1, 20, size=n).astype(float)
    m = ModelIR()
    vs = [m.add_var(f"y{i}", BINARY) for i in range(n)]
    m.add_constraint("cap", [(vs[i], w[i]) for i in range(n)], "<=", float(w.sum()) / 2)
    m.set_objective(MAX, [(vs[i], c[i]) for i in range(n)])
    return m


def test_mip_lp_iteration_cap_returns_limit_with_bound():
    m = _knapsack()
    _, exact = scipy_solve(m)
    res = solve_mip(m, MipOptions(lp_iteration_cap=1))
    assert res.status == "limit" and res.bound >= exact
    for cap in range(2, 40):
        res = solve_mip(m, MipOptions(lp_iteration_cap=cap))
        assert res.status in ("limit", "optimal"), cap
        assert res.bound >= exact - 1e-6, cap
        if res.status == "optimal":
            assert res.objective == pytest.approx(exact), cap


def test_mip_child_lp_at_iteration_cap_returns_limit_with_open_bound(monkeypatch):
    m = _knapsack()
    _, exact = scipy_solve(m)
    root = solve_lp(m)
    plain = solver.solve_lp

    def capped_children(model, *args, bound_patch=None, **kwargs):
        if bound_patch:
            kwargs["iteration_cap"] = 1
        return plain(model, *args, bound_patch=bound_patch, **kwargs)

    monkeypatch.setattr(solver, "solve_lp", capped_children)
    res = solve_mip(m)
    assert res.status == "limit" and res.nodes == 2
    assert res.bound == pytest.approx(root.objective) and res.bound >= exact
