"""Tests of the benchmark itself: tiny runs of every workload, the gates, and the traced run."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import measure, run, workloads
from perfbench.workloads import WORKLOADS, check_cli, check_fan, check_surface

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
LAYERS = json.loads((ROOT / "perfbench" / "layers.json").read_text(encoding="utf-8"))


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def last_json(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_is_correct_and_prints_every_metric(name):
    result = last_json(run_bench("--workload", name, "--seed", "3", "--seconds", "0.5", "--trace", "0"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        measured = result["metrics"][metric["name"]]
        assert measured["unit"] == metric["unit"] and measured["value"] > 0


def test_traced_run_emits_every_layer_metric():
    # hopf_sweep is the cheapest to trace; a layer it never enters reads the
    # preflight's per-op amount, so no layer reads a constant zero.
    result = last_json(run_bench("--workload", "hopf_sweep", "--seed", "3", "--seconds", "0.6", "--trace", "1"))
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_floor_only_layers_are_the_documented_ones():
    done = subprocess.run([sys.executable, "-m", "perfbench.worker", "hopf_sweep", "4", "0.6", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    assert sorted(set(result["floor_only"]) & per_layer) == LAYERS["workloads"]["hopf_sweep"]["floor_only"]


def test_preflight_work_stays_out_of_the_workload_figures():
    floor = measure.per_op({"fans.apply.calls": 38, "fans.apply.self_s": 0.019, "cones": 19,
                            "classify.classify.calls": 19}, 19)
    own = measure.per_op({"classify.classify.calls": 500, "fans.apply.calls": 0}, 100)
    figures, floor_only = measure.layer_figures(floor, own)
    assert figures["classify.classify.calls"] == 5
    assert figures["fans.apply.calls"] == 2 and figures["fans.apply.self_s"] == 0.001
    assert figures["smoothing.apply_per_cone"] == 2
    assert "classify.classify.calls" not in floor_only
    assert {"fans.apply.calls", "fans.apply.self_s", "smoothing.apply_per_cone", "cli.bytes_out"} <= set(floor_only)


def test_same_seed_same_inputs():
    for cls in WORKLOADS.values():
        assert cls(5).deck() == cls(5).deck()
        assert cls(5).deck() != cls(6).deck()


def test_inputs_do_not_depend_on_the_hash_seed():
    code = "from perfbench.workloads import WORKLOADS; print([c(5).deck() for c in WORKLOADS.values()])"
    decks = {
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, check=True,
                       env={"PYTHONHASHSEED": hash_seed}).stdout
        for hash_seed in ("1", "2")
    }
    assert len(decks) == 1


def test_op_times_are_scaled_to_the_reference_speed():
    tally = measure.Tally(0, 0)
    tally.last_reference = 2 * measure.REFERENCE_S
    tally.add(0.3, None, 1)
    tally.reference(2 * measure.REFERENCE_S)  # the host ran at half the reference speed
    assert tally.sample == [0.15] and tally.raw_busy == 0.3


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "hopf_sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_predictions_name_real_metrics():
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    workload_names = {w["name"] for w in SPEC["workloads"]}
    assert set(LAYERS["workloads"]) == workload_names == set(WORKLOADS) == set(run.WORKLOAD_NAMES)
    for described in LAYERS["workloads"].values():
        assert set(described["floor_only"]) <= per_layer
    for prediction in LAYERS["predictions"]:
        assert set(prediction["moves"]) <= end_to_end
        assert {prediction["on"], *prediction["flat_on"]} <= workload_names
        for layer in prediction["layers"]:
            assert layer in per_layer or {f"{layer}.calls", f"{layer}.self_s"} <= per_layer, layer


# -- the gates report deliberately corrupted answers ----------------------------


@pytest.fixture(scope="module")
def bound():
    pytest.importorskip("kdl")
    made = {name: cls(11) for name, cls in WORKLOADS.items()}
    for workload in made.values():
        workload.bind()
    return made


def test_surface_gate_catches_corruption(bound):
    sweep = bound["hopf_sweep"]
    for item in sweep.deck():
        outcome = sweep.run(item)
        assert check_surface(item, outcome) is None
        if "payload" in outcome:
            wrong = dict(outcome, payload=dict(outcome["payload"], verdict="KodairaSurface(0)"))
            assert check_surface(item, wrong) is not None
            wrong = dict(outcome, payload=dict(outcome["payload"], degree=outcome["payload"]["degree"] + 1))
            assert check_surface(item, wrong) is not None
        else:
            assert check_surface(item, dict(outcome, error="ValueError")) is not None
    hopf = ("hopf", 12, 1, 7, 6, "a", None)
    outcome = sweep.run(hopf)
    assert check_surface(hopf, dict(outcome, oracle=not outcome["oracle"])) is not None


def test_fan_gate_catches_corruption(bound):
    fan = bound["fan_verify"]
    valid, planted = ("hopf", 4, 2, 3, None), ("hopf", 4, 2, 3, (0, 1))
    good = fan.run(valid)
    caught = fan.run(planted)
    assert fan.check(valid, good) is None and fan.check(planted, caught) is None
    assert check_fan(False, caught) is not None
    assert check_fan(True, good) is not None
    assert check_fan(True, dict(caught, failed=[[name, None] for name, _ in caught["failed"]])) is not None


def test_cli_gate_catches_corruption(bound):
    cli = bound["cli_mixed"]
    for item in workloads.CliMixed.fixed_items():
        outcome = cli.run(item)
        assert check_cli(item, outcome, {}) is None
        assert check_cli(item, dict(outcome, rc=outcome["rc"] + 1), {}) is not None
        seen = {}
        assert check_cli(item, outcome, seen) is None
        assert check_cli(item, dict(outcome, stdout=outcome["stdout"] + " "), seen) is not None
    item = workloads.CliMixed.fixed_items()[0]
    outcome = cli.run(item)
    doc = json.loads(outcome["stdout"])
    doc["schema"] = "kdl/0"
    assert check_cli(item, dict(outcome, stdout=json.dumps(doc)), {}) is not None
