"""Smoke tests of the benchmark itself: tiny runs, a wrong solver, the checkers."""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import compare  # noqa: E402
import harness  # noqa: E402
import treksep  # noqa: E402
from treksep import separation  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "0.5",
                "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    if trace and workload == "verify_gate":
        m = {k: v["value"] for k, v in result["metrics"].items()}
        criteria = sum(v for k, v in m.items() if k.startswith("verify."))
        assert abs(criteria - m["trace.untraced_wall_s"]) <= abs(m["trace.overhead_s"]) + 0.01


@pytest.mark.parametrize("workload", WORKLOADS)
def test_solver_returning_rank_plus_one_counts_as_failures(workload, monkeypatch):
    real = separation.min_t_separator

    def rank_plus_one(g, A, B):
        res = real(g, A, B)
        return separation.RankResult(res.rank + 1, res.certificate, res.flow_value + 1)

    monkeypatch.setattr(separation, "min_t_separator", rank_plus_one)
    out = harness.run(workload, harness.make_inputs(workload, seed=5, seconds=0.3))
    assert out.attempted >= 1 and out.failed >= 1


def test_separation_checker_agrees_with_library():
    rng = random.Random(7)
    verdicts = set()
    for _ in range(300):
        spec = harness.mixed_graph(rng, **harness._density_counts(rng.randint(2, 8), 0.4))
        g = treksep.parse_graph(spec.text())
        vertices = range(1, spec.n + 1)
        A, B = (frozenset(rng.sample(vertices, rng.randint(1, spec.n))) for _ in "AB")
        cl, cm, cr = (frozenset(v for v in vertices if rng.random() < 0.3) for _ in "LMR")
        expected = separation.is_t_separating(g, A, B, separation.SeparationTriple(cl, cm, cr))
        assert harness.trek_separated(spec, A, B, cl, cm, cr) == expected, spec.text()
        verdicts.add(expected)
    assert verdicts == {True, False}


def test_run_without_the_library_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0 and done.stdout == ""


def test_compare_classification():
    a = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    assert compare.classify(a, [x * 0.8 for x in a], "lower", 0.1) == "improved"
    assert compare.classify(a, [x * 1.2 for x in a], "lower", 0.1) == "worse"
    assert compare.classify(a, [x * 1.2 for x in a], "higher", 0.1) == "improved"
    assert compare.classify(a, list(a), "lower", 0.1) == "unchanged"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.classify(noisy, noisy[::-1], "lower", 0.1) == "unresolved"


def test_layer_map_names_real_metrics_and_workloads():
    layers = json.loads((HERE / "layers.json").read_text())["layers"]
    metrics = {m["name"] for m in SPEC["end_to_end"]}
    for layer in layers:
        for workload, moved in layer["moves"].items():
            assert workload in WORKLOADS and set(moved) <= metrics, layer["layer"]
        assert set(layer["unchanged"]) <= set(WORKLOADS), layer["layer"]
