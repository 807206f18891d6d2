"""``run.py --smoke`` end to end: every named metric is printed, none is silent.

The smoke run uses sizes / 10 and a two-second measured phase, so the
numbers mean nothing; what is checked is the contract -- the names and
units of ``BENCHMARK.json``, the last-line JSON object, oracle checks
passing, every wrapper firing on the workload that should exercise it.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import catalog  # noqa: E402

CONTRACT = catalog.contract()
WORKLOADS = [entry["name"] for entry in CONTRACT["workloads"]]


def smoke(tmp_path, workload, traced):
    out = tmp_path / "out.json"
    argv = CONTRACT["command"] + ["--smoke", "--workload", workload, "--json-out", str(out)]
    if traced:
        argv.append("--traced")
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout, json.loads(out.read_text())["runs"][0]


def test_contract_lists_the_catalog():
    assert CONTRACT["per_layer"] == catalog.PER_LAYER
    assert CONTRACT["paths"] == ["benchmarks/e2e"]
    assert {"setup_s"} <= {entry["name"] for entry in CONTRACT["end_to_end"]}
    assert set(catalog.MUST_FIRE) == set(WORKLOADS)
    named = {entry["name"] for entry in CONTRACT["per_layer"]}
    assert all(set(names) <= named for names in catalog.MUST_FIRE.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_smoke_prints_every_end_to_end_metric(tmp_path, workload):
    stdout, run = smoke(tmp_path, workload, traced=False)
    last = json.loads(stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    for entry in CONTRACT["end_to_end"]:
        cell = last["metrics"][entry["name"]]
        assert cell["unit"] == entry["unit"] and cell["value"] > 0
        assert any(
            line.split()[:2] == ["end_to_end", entry["name"]] and line.split()[-1] == entry["unit"]
            for line in stdout.splitlines()
        )
    assert set(last["metrics"]) == {entry["name"] for entry in CONTRACT["end_to_end"]}
    assert run["detailed"]["failed_ratio"]["value"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_prints_every_layer_metric(tmp_path, workload):
    stdout, run = smoke(tmp_path, workload, traced=True)
    last = json.loads(stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0
    assert run["silent"] == []
    assert set(last["metrics"]) == {entry["name"] for entry in CONTRACT["per_layer"]}
    for entry in CONTRACT["per_layer"]:
        cell = last["metrics"][entry["name"]]
        assert cell["unit"] == entry["unit"]
        assert isinstance(cell["value"], (int, float))
    for name in catalog.MUST_FIRE[workload]:
        assert last["metrics"][name]["value"] > 0, name


def test_an_empty_checkout_is_refused(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    target = tmp_path / "benchmarks" / "e2e"
    target.mkdir()
    for path in HERE.iterdir():
        if path.is_file():
            target.joinpath(path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(CONTRACT))
    argv = CONTRACT["command"] + ["--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert "correct" not in done.stdout
