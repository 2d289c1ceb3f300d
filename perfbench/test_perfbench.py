"""Tests of the benchmark itself: inputs, gate, metric names and short runs.

Run from the repository root: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gate  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import BoundGrid, CliMix, PlanCountGrid  # noqa: E402


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("cls", [PlanCountGrid, BoundGrid])
def test_in_process_inputs_repeat_for_a_seed(cls):
    a, b, other = cls(5), cls(5), cls(6)
    for k in range(12):
        assert a.item(k) == b.item(k)
    assert [a.item(k) for k in range(12)] != [other.item(k) for k in range(12)]


def test_cli_inputs_repeat_for_a_seed(tmp_path):
    def files(seed, name):
        d = tmp_path / name
        d.mkdir()
        CliMix(seed).setup(d)
        return {p.name: p.read_bytes() for p in sorted(d.iterdir())}

    first = files(5, "a")
    assert first == files(5, "b")
    assert first != files(6, "c")


@pytest.fixture(scope="module")
def plan_case():
    import qnetcap

    w = PlanCountGrid(5)
    w.qn = qnetcap
    text = w.item(3)
    result = w.run(text)
    w.check(3, text, result)
    return w, text, result


def test_gate_accepts_a_correct_plan(plan_case):
    w, text, result = plan_case
    stats = gate.check_plan(json.loads(text), json.loads(result[2]), w.EPSILON)
    assert stats["pairs_consumed"] + stats["pairs_idle"] == stats["bell_pairs"]


def _corrupt_plans(plan_doc):
    off_by_one = copy.deepcopy(plan_doc)
    off_by_one["m"] += 1
    yield off_by_one
    dropped = copy.deepcopy(plan_doc)
    dropped["paths"].pop()
    yield dropped
    reused = copy.deepcopy(plan_doc)
    reused["paths"][1]["bell_edges"][0] = reused["paths"][0]["bell_edges"][0]
    yield reused
    renamed = copy.deepcopy(plan_doc)
    bell = renamed["paths"][0]["bell_edges"][0]
    renamed["paths"][0]["bell_edges"][0] = bell.rpartition("#")[0] + "#99999"
    yield renamed
    rerouted = copy.deepcopy(plan_doc)
    rerouted["paths"][0]["nodes"][1] = rerouted["paths"][1]["nodes"][1] + "x"
    yield rerouted
    budget = copy.deepcopy(plan_doc)
    budget["error_budget"] *= 2
    yield budget


def test_gate_rejects_corrupted_plans(plan_case):
    w, text, result = plan_case
    plan_doc = json.loads(result[2])
    assert plan_doc["m"] >= 2
    for bad in _corrupt_plans(plan_doc):
        with pytest.raises(gate.GateError):
            gate.check_plan(json.loads(text), bad, w.EPSILON)


def test_gate_rejects_a_consistent_plan_one_path_short(plan_case):
    # a plan whose own bookkeeping adds up but that misses the min cut by one
    w, text, result = plan_case
    net, p, out = result
    doc = json.loads(out)
    dropped = doc["paths"].pop()
    doc["swap_schedules"].pop()
    doc["m"] -= 1
    for bell in dropped["bell_edges"]:
        doc["unused_pairs"][bell.rpartition("#")[0]] += 1
    gate.check_plan(json.loads(text), doc, w.EPSILON)
    with pytest.raises(gate.GateError, match="lower bound"):
        w.check(3, text, (net, p, json.dumps(doc)))


def test_gate_rejects_corrupted_bounds():
    import qnetcap

    w = BoundGrid(5)
    w.qn = qnetcap
    for k in range(3):  # one of each budget variant
        item = w.item(k)
        out = w.run(item)
        w.check(k, item, out)
        for key, factor in (("lower", 0.999), ("upper_esq", 1.001)):
            bad = json.loads(out)
            bad[key] *= factor
            with pytest.raises(gate.GateError):
                w.check(k, item, json.dumps(bad))
        bad = json.loads(out)
        bad["upper_witness"]["crossing"].pop()
        with pytest.raises(gate.GateError):
            w.check(k, item, json.dumps(bad))


def test_gate_rejects_wrong_swap_and_sweep_answers():
    chain = [0.9, 0.95]
    good = {"pass": True, "chain": chain, "trace_distance": 1.5 * (1 - 0.9 * 0.95),
            "budget": 1.5 * 0.1 + 1.5 * 0.05}
    gate.check_swap(good, chain)
    for key, value in (("pass", False), ("trace_distance", 0.2)):
        with pytest.raises(gate.GateError):
            gate.check_swap(dict(good, **{key: value}), chain)
    grid = [0.1, 0.2]
    csv = "eta,lower,upper_esq,ratio\r\n0.1,1,1.5,1.5\r\n0.2,1,1.5,1.5\r\n"
    assert gate.check_sweep(csv, grid) == 2
    with pytest.raises(gate.GateError):
        gate.check_sweep(csv.replace("1,1.5,1.5\r\n0.2", "1,2.5,2.5\r\n0.2"), grid)


def test_golden_values_hold_for_the_default_seed():
    golden = json.loads((HERE / "golden.json").read_text())
    assert golden["seed"] == workloads.GOLDEN_SEED == run.DEFAULT_SEED
    assert len(PlanCountGrid(workloads.GOLDEN_SEED).golden) == len(golden["plan-count-grid"]) > 0


def test_benchmark_json_names_match_what_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_short_run_has_no_failed_operations(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = run.END_TO_END_UNITS if trace == "0" else layers.PER_LAYER_UNITS
    assert set(result["metrics"]) == set(names)


def test_fails_without_the_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "bound-grid", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
