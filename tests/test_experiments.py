import pytest

from krevise.experiments import (
    CSV_HEADER,
    ExperimentSpec,
    conjecture_sweep,
    hypercube_pa_value,
    run_experiment,
)
from krevise.fixtures import seven_node_tree
from krevise.formulations import CP, CP_PLUS, STDP, ST
from krevise.hypercube import HypercubeInstance, full_adaptive_value, random_instance, solve_dp
from krevise.revision import PolicyError
from krevise.tree import generate_btree


def tiny_spec(**kw):
    base = dict(problem="hypercube", tree_kind="btree", tree_params={"T": 3},
                K_values=(1,), formulations=(CP_PLUS, STDP), seeds=(0, 1),
                stable_output=True)
    base.update(kw)
    return ExperimentSpec(**base)


def test_header_and_row_shape(tmp_path):
    out = tmp_path / "report.csv"
    report = run_experiment(tiny_spec(), out_path=out)
    text = out.read_text()
    assert text.splitlines()[0] == CSV_HEADER
    assert len(report.rows) == 2 * 2  # seeds x formulations
    for row in report.rows:
        assert row["status"] == "optimal"
        assert row["bb_nodes"] >= 0


def test_formulations_agree_per_instance():
    report = run_experiment(tiny_spec(formulations=(CP, CP_PLUS, STDP, ST)))
    by_seed = {}
    for row in report.rows:
        by_seed.setdefault(row["seed"], []).append(row["obj_ip"])
    for seed, values in by_seed.items():
        assert max(values) - min(values) < 1e-6
        inst = random_instance(generate_btree(3), seed=seed)
        assert abs(values[0] - solve_dp(inst, 1)[0]) < 1e-6


def test_byte_identical_rerun(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_experiment(tiny_spec(), out_path=a)
    run_experiment(tiny_spec(), out_path=b)
    assert a.read_bytes() == b.read_bytes()


def test_summary_loss_zero_at_full_budget():
    spec = tiny_spec(K_values=(2,), formulations=(CP_PLUS,))
    report = run_experiment(spec)
    for row in report.summary:
        assert abs(row["z_K"] - row["z_MS"]) < 1e-9
        assert row["rel_loss"] in ("", 0.0) or abs(row["rel_loss"]) < 1e-12


def test_lp_gap_column():
    report = run_experiment(tiny_spec(K_values=(1,), formulations=(CP,), seeds=(3,)))
    row = report.rows[0]
    assert row["obj_lp"] >= row["obj_ip"] - 1e-9
    if row["obj_ip"]:
        assert row["rel_gap"] == pytest.approx(
            abs(row["obj_lp"] - row["obj_ip"]) / abs(row["obj_ip"]))


def test_error_rows_do_not_abort(tmp_path, monkeypatch):
    import krevise.experiments as ex

    calls = {"n": 0}
    original = ex.default_solver

    def flaky(model, opts=None):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("boom")
        return original(model, opts)

    monkeypatch.setattr(ex, "default_solver", flaky)
    report = run_experiment(tiny_spec(formulations=(CP_PLUS,), seeds=(0, 1)))
    statuses = [row["status"] for row in report.rows]
    assert statuses[0].startswith("error:") and statuses[1] == "optimal"


def test_lot_sizing_experiment_runs():
    spec = ExperimentSpec(problem="lot_sizing", tree_kind="stree",
                          tree_params={"target_nodes": 8, "T": 3, "rho": 0.7, "tolerance": 0.5},
                          K_values=(1,), formulations=(CP_PLUS,), seeds=(2,),
                          stable_output=True)
    report = run_experiment(spec)
    assert report.rows[0]["status"] == "optimal"


def test_spec_validation():
    with pytest.raises(PolicyError):
        ExperimentSpec(problem="hypercube", seeds=())
    with pytest.raises(PolicyError):
        ExperimentSpec(problem="nope")
    with pytest.raises(PolicyError):
        ExperimentSpec(problem="hypercube", formulations=("magic",))


# -- partially adaptive values ---------------------------------------------------


def test_pa_value_bounds():
    tree = generate_btree(3)
    for seed in range(5):
        inst = random_instance(tree, seed=seed)
        z_ms = full_adaptive_value(inst)
        for K in (1, 2):
            z_k = solve_dp(inst, K)[0]
            z_pa = hypercube_pa_value(inst, K)
            assert z_pa <= z_k + 1e-9 <= z_ms + 1e-9


def test_pa_value_full_stages_matches_ms():
    tree = generate_btree(3)
    inst = random_instance(tree, seed=11)
    assert abs(hypercube_pa_value(inst, 2, stages=(2, 3)) - full_adaptive_value(inst)) < 1e-9
    # no adaptive stages: stage-constant optimum
    got = hypercube_pa_value(inst, 0, stages=())
    c = inst.scalar_c()
    best = max(sum(th[tree.stage[v] - 1] * c[v] for v in range(7))
               for th in [(a, b, d) for a in (0, 1) for b in (0, 1) for d in (0, 1)])
    assert abs(got - best) < 1e-9


# -- conjecture sweep ---------------------------------------------------------------


def test_conjecture_worst_case_pattern_hits_three_halves():
    # +1 on one side of every sibling pair makes the CP LP hit z_MS while
    # the 1-revision optimum drops to two thirds of it
    from krevise.formulations import RevisionFormulationSpec, hypercube_base_model
    from krevise.problems import attach_revision
    from krevise.solver import solve_lp

    tree = seven_node_tree()
    inst = HypercubeInstance.from_scalars(tree, [0, 1, -1, 1, -1, 1, -1])
    z1 = solve_dp(inst, 1)[0]
    assert z1 == 2.0
    model = hypercube_base_model(inst)
    attach_revision(model, tree, RevisionFormulationSpec(CP, 1))
    z_lp = solve_lp(model).objective
    assert abs(z_lp - 3.0) < 1e-7
    assert z_lp / z1 == pytest.approx(1.5)  # exactly the conjectured bound for K=1


def test_conjecture_sweep_random_within_bound():
    trees = [generate_btree(3), generate_btree(4)]
    report = conjecture_sweep(trees, seeds=range(6), K_values=[1, 2])
    assert report.findings == []
    assert report.max_ratio <= 3 / 2 + 1e-6
    assert report.witness is not None and report.witness_meta["ratio"] == report.max_ratio


def test_conjecture_ratio_one_at_full_budget():
    tree = generate_btree(3)
    report = conjecture_sweep([tree], seeds=[4], K_values=[tree.T - 1])
    assert abs(report.max_ratio - 1.0) < 1e-6


def test_aggregates_match_row_means():
    report = run_experiment(tiny_spec(formulations=(CP, CP_PLUS), seeds=(0, 1, 2)))
    aggs = report.aggregates()
    assert {a["formulation"] for a in aggs} == {CP, CP_PLUS}
    for agg in aggs:
        rows = [r for r in report.rows if r["formulation"] == agg["formulation"]]
        assert agg["instances"] == len(rows)
        assert agg["mean_bb_nodes"] == pytest.approx(
            sum(r["bb_nodes"] for r in rows) / len(rows))
        assert agg["mean_rel_gap"] == pytest.approx(
            sum(r["rel_gap"] for r in rows) / len(rows))


def test_cp_relative_gap_bounded_on_two_branch_tree():
    # on the three-stage two-branch tree the CP LP never exceeds 3/2 of the
    # 1-revision optimum, so the relative gap stays at most 50%
    from krevise.formulations import RevisionFormulationSpec, hypercube_base_model
    from krevise.problems import attach_revision
    from krevise.solver import solve_lp

    tree = seven_node_tree()
    for seed in range(20):
        inst = random_instance(tree, seed=seed)
        z1 = solve_dp(inst, 1)[0]
        model = hypercube_base_model(inst)
        attach_revision(model, tree, RevisionFormulationSpec(CP, 1))
        z_lp = solve_lp(model).objective
        if z1 == 0.0:
            assert z_lp <= 1e-9
        else:
            assert abs(z_lp - z1) / abs(z1) <= 0.5 + 1e-6


def test_st_cells_run_for_both_problems():
    spec = tiny_spec(formulations=(ST,), seeds=(4,))
    report = run_experiment(spec)
    assert report.rows[0]["status"] == "optimal"
    ls_spec = ExperimentSpec(problem="lot_sizing", tree_kind="stree",
                             tree_params={"target_nodes": 7, "T": 3, "rho": 0.7,
                                          "tolerance": 0.5},
                             K_values=(1,), formulations=(ST,), seeds=(5,),
                             stable_output=True)
    ls_report = run_experiment(ls_spec)
    assert ls_report.rows[0]["status"] == "optimal"
    assert ls_report.rows[0]["obj_lp"] <= ls_report.rows[0]["obj_ip"] + 1e-9  # min problem


def test_mini_benchmark_table():
    # one small benchmark sweep across every formulation; IP optima must agree
    spec = ExperimentSpec(problem="hypercube", tree_kind="btree", tree_params={"T": 4},
                          K_values=(1, 2), formulations=("cp", "cp+", "cp++", "stdp",
                                                         "path", "st"),
                          seeds=(0, 1), stable_output=True)
    report = run_experiment(spec)
    assert all(r["status"] == "optimal" for r in report.rows)
    for seed in (0, 1):
        for K in (1, 2):
            vals = [r["obj_ip"] for r in report.rows if r["seed"] == seed and r["K"] == K]
            assert len(vals) == 6 and max(vals) - min(vals) < 1e-6
            inst = random_instance(generate_btree(4), seed=seed)
            assert abs(vals[0] - solve_dp(inst, K)[0]) < 1e-6
    aggs = report.aggregates()
    assert len(aggs) == 12


def test_capacity_planning_and_saghp_experiments():
    tp_spec = ExperimentSpec(problem="capacity_planning", tree_kind="btree",
                             tree_params={"T": 2}, K_values=(1,),
                             formulations=("cp+",), seeds=(7,), stable_output=True)
    tp_report = run_experiment(tp_spec)
    assert tp_report.rows[0]["status"] == "optimal"
    assert tp_report.rows[0]["obj_ip"] > 0

    sg_spec = ExperimentSpec(problem="saghp", tree_params={"T": 5},
                             problem_params={"n_flights": 2, "pattern": "VIV"},
                             K_values=(1,), formulations=("cp+",), seeds=(3,),
                             stable_output=True)
    sg_report = run_experiment(sg_spec)
    assert sg_report.rows[0]["status"] == "optimal"
    assert sg_report.rows[0]["tree"].startswith("btree:T=5") or "n=" in sg_report.rows[0]["tree"]


def test_vector_problems_reject_scalar_formulations():
    with pytest.raises(PolicyError):
        ExperimentSpec(problem="saghp", formulations=("stdp",))


def test_worker_pool_matches_sequential():
    seq = run_experiment(tiny_spec(seeds=(0, 1, 2, 3)))
    par = run_experiment(tiny_spec(seeds=(0, 1, 2, 3), workers=2))
    assert par.rows == seq.rows
    assert par.summary == seq.summary


def test_experiment_uses_external_solver_when_configured(tmp_path, monkeypatch):
    import sys
    import textwrap

    script = tmp_path / "bridge.py"
    calls = tmp_path / "calls.log"
    script.write_text(textwrap.dedent(f"""
        import sys
        from krevise.model import parse_mps
        from krevise.solver import solve_mip, solve_lp
        model = parse_mps(open(sys.argv[1]).read())
        # the ST cell's model carries only subtree cuts; CP+ cells carry rev: rows
        st = all(c.name.startswith("stcut") for c in model.constraints)
        with open({str(calls)!r}, "a") as log:
            log.write("st\\n" if st else "rev\\n")
        res = solve_mip(model) if model.integer_indices() else solve_lp(model)
        with open(sys.argv[2], "w") as fh:
            fh.write(f"# Objective value = {{res.objective}}\\n")
            for name, val in res.assignment.items():
                fh.write(f"{{name}} {{val:.12g}}\\n")
    """))
    baseline = run_experiment(tiny_spec(seeds=(0,), formulations=(CP_PLUS, ST)))
    monkeypatch.setenv("KREVISE_SOLVER_CMD", f"{sys.executable} {script} {{mps}} {{sol}}")
    routed = run_experiment(tiny_spec(seeds=(0,), formulations=(CP_PLUS, ST)))
    assert [row["formulation"] for row in routed.rows] == [CP_PLUS, ST]
    for got, want in zip(routed.rows, baseline.rows):
        assert got["status"] == "optimal"
        assert got["obj_ip"] == pytest.approx(want["obj_ip"])
        assert got["obj_lp"] == pytest.approx(want["obj_lp"])
    assert routed.rows[0]["bb_nodes"] == 0  # external node counts are not reported
    assert "st" in calls.read_text().split()  # the ST cell's cut loop reached the bridge
