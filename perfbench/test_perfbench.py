"""Self-tests of the benchmark: python -m pytest perfbench -q

Tiny runs of every workload; they take about a minute on two cores.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--seed", "0", *args]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=600)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_names_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])
    assert max(m["bound"] for m in SPEC["end_to_end"]) <= 0.25


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric(workload):
    out = last_json(bench("--workload", workload, "--seconds", "0.3", "--trace", "0"))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_perturbed_answer_is_counted_as_failed(workload):
    out = last_json(bench("--workload", workload, "--seconds", "0.3", "--trace", "0", "--perturb"))
    assert out["failed"] == 1 and not out["correct"]


def test_traced_run_reports_every_layer_metric():
    out = last_json(bench("--workload", "qubit-solve", "--seconds", "1", "--trace", "1"))
    assert out["correct"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert out["metrics"]["highdim.unsolved_frac"]["value"] == 0.25


def test_refuses_to_run_without_the_sources():
    # a directory holding only BENCHMARK.json and the benchmark's own files
    bare = os.path.join(HERE, "_work", f"bare-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("results", "_work", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = bench("--workload", WORKLOADS[0], "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_oracle_on_a_closed_form_case():
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import mixest
    import oracle

    zero, one = np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)
    # orthogonal pure states, uniform prior: the best mean squared error is 1/18
    assert oracle.personick_q(mixest.Prior.uniform(), zero, one) == pytest.approx(1 / 3 - 1 / 18, abs=1e-15)
    summary, records = mixest.run_simulation([zero, one], mixest.Prior.uniform(), mixest.validate_state(zero),
                                             mixest.validate_state(one), 50, 2**64 - 1, return_records=True)
    t1, t2 = oracle.outcome_traces([zero, one], zero, one)
    derived = oracle.trial_records(mixest.Prior.uniform(), t1, t2, [2 / 3, 1 / 3], 2**64 - 1, 50)
    assert [(r.true_lambda, r.outcome_index) for r in records] == [d[:2] for d in derived]
