"""Tests of the benchmark itself: contract, span wiring and exact counts.

    python3 -m pytest perfbench -q

The count tests run every workload's timed pass twice in this process, so the
whole file takes a couple of minutes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

import run

run.limit_blas_threads()
run.import_spanlab()

import spanlab  # noqa: E402
from spans import SETUP_TARGETS, TARGETS, Tracer, layer_metric_specs  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def traced_passes(workload_name: str, seed: int, count: int = 2):
    workload = WORKLOADS[workload_name](seed)
    with Tracer(SETUP_TARGETS) as setup_tracer:
        workload.setup()
    outcome = Outcome()
    tracers = []
    for _ in range(count):
        with Tracer(TARGETS) as tracer:
            result = workload.run_pass()
        workload.check(result, outcome)
        tracers.append(tracer)
    return outcome, tracers, setup_tracer


def exact_counts(tracer) -> dict:
    counts = {name: stat.calls for name, stat in tracer.stats.items()}
    for name, stat in tracer.stats.items():
        for key in ("builds", "basis_functions", "rank", "size"):
            if key in stat.extra:
                counts[f"{name}.{key}"] = stat.extra[key]
    counts["degrees"] = tuple(tracer.degrees)
    return counts


class WorkloadPassStub:
    run_s = deep_s = 1.0
    points = 1


def test_benchmark_json_matches_the_code():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    for entry in BENCHMARK["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200
    specs = [
        {"name": n, "unit": u, "better": b} for n, u, b in layer_metric_specs()
    ]
    assert BENCHMARK["per_layer"] == specs
    e2e = run.end_to_end([WorkloadPassStub()], [1.0])
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == [
        (name, item["unit"]) for name, item in e2e.items()
    ]
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    names = [m["name"] for m in metrics + BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]) for m in metrics)


def test_tracer_wraps_and_restores_every_binding():
    build, chol = spanlab.dirichlet.build_model, spanlab.linalg.pivoted_cholesky
    with Tracer(TARGETS):
        # the names lab and dirichlet look up, not only the defining modules
        assert spanlab.lab.build_model is not build
        assert spanlab.lab.build_model is spanlab.dirichlet.build_model is spanlab.build_model
        assert spanlab.dirichlet.pivoted_cholesky is not chol
    assert spanlab.lab.build_model is build and spanlab.build_model is build
    assert spanlab.dirichlet.pivoted_cholesky is chol


@pytest.mark.parametrize("workload_name", list(WORKLOADS))
def test_counts_repeat_and_spans_are_wired(workload_name):
    outcome, tracers, setup_tracer = traced_passes(workload_name, seed=1)
    assert outcome.failed == 0, outcome.errors
    first, second = (exact_counts(t) for t in tracers)
    assert first == second
    selfcheck = run.span_selfcheck(workload_name, tracers, setup_tracer)
    assert selfcheck == {"zero_calls": [], "forbidden_calls": [], "missing_targets": []}
    if workload_name == "dense-eccentric":
        assert "dirichlet.gram_diagonal" not in tracers[0].stats


def test_counts_repeat_on_a_second_seed():
    _, tracers, _ = traced_passes("dense-eccentric", seed=2)
    first, second = (exact_counts(t) for t in tracers)
    assert first == second
    assert first["degrees"] == (512,)
    assert first["dirichlet.build_model.builds"] == 2


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "model-scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
