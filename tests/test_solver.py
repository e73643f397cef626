import os
import stat
import sys
import tempfile
import textwrap

import numpy as np
import pytest
from scipy.optimize import linprog

from krevise.model import BINARY, CONTINUOUS, INF, INTEGER, MAX, MIN, ModelIR, evaluate
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
