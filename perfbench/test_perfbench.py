"""Self-tests of the benchmark: python3 -m pytest perfbench

Each workload runs at a tiny size; the tests check that every metric named
in BENCHMARK.json is reported with its unit, that a corrupted output is
counted as a failure, that the counts of a traced run repeat for one seed,
and that the benchmark refuses to run without krevise's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
import run  # noqa: E402

run.import_krevise()
import layers  # noqa: E402
import workloads  # noqa: E402


def _bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(HERE / "run.py"), *args]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=300)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _tiny(workload, trace, seed=1):
    return _result(_bench("--workload", workload, "--seed", str(seed), "--seconds", "0.3",
                          "--trace", str(trace), "--size", "tiny"))


def test_benchmark_json_lists_what_the_runner_reports():
    assert WORKLOADS == list(workloads.WORKLOADS) == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == layers.METRICS
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_end_to_end_metric(workload):
    res = _tiny(workload, trace=0)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_run_reports_every_per_layer_metric(workload):
    res = _tiny(workload, trace=1)
    assert res["correct"] and res["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    m = {k: v["value"] for k, v in res["metrics"].items()}
    parts = ["experiments.cell_self_s", "bench.self_s", "trace.self_s"]
    parts += [f"{layer}.self_s" for layer in layers.LAYERS]
    assert sum(m[p] for p in parts) == pytest.approx(m["trace.op_s"], rel=1e-9)


def _corrupt_hc(row):
    return {**row, "obj_ip": row["obj_ip"] + 1.0}


def _corrupt_base(row):
    return {**row, "obj_lp": row["obj_ip"] + 1e3}


def _corrupt_export(out):
    model, parsed, mps_len, lp_len = out
    parsed.constraints.pop()
    return model, parsed, mps_len, lp_len


CORRUPTIONS = {
    "hc-sweep": _corrupt_hc,
    "base-sweep": _corrupt_base,
    "check": lambda out: (not out) if isinstance(out, bool) else out,
    "export": _corrupt_export,
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_outputs_count_as_failures(workload):
    wl = workloads.WORKLOADS[workload]()
    honest = wl.run
    corrupted = []

    def run_corrupted(op):
        out = honest(op)
        bad = CORRUPTIONS[workload](out)
        if bad is not out:
            corrupted.append(op)
        return bad

    wl.run = run_corrupted
    _, attempted, failed, errors, _ = run.measure(wl, 1, 0.3, "tiny")
    assert corrupted
    assert failed == len(corrupted) <= attempted == len(errors)


def test_counts_repeat_for_one_seed():
    digests = []
    for seed in (3, 3):
        proc = _bench("--workload", "base-sweep", "--seed", str(seed), "--seconds", "0.3",
                      "--trace", "1", "--size", "tiny")
        _result(proc)
        digests.append(next(line.split()[-1] for line in proc.stdout.splitlines()
                            if "counts digest" in line))
    assert digests[0] == digests[1] != "e3b0c44298fc1c14"  # not the hash of no counts


def test_refuses_to_run_without_krevise_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "check", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], capture_output=True, text=True,
                          cwd=tmp_path, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
