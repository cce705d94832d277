"""Tests of the benchmark itself: tracer hygiene, trace fidelity, seeding.

They run single small cells in-process, so they stay fast enough for the
tier-1 suite.
"""

from __future__ import annotations

import gzip
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from spotbench import run as driver
from spotbench import workloads
from spotbench.tracing import LAYER_METRICS, SPANNED, Tracer, layer_metrics, run_parts

REPO = Path(__file__).resolve().parents[2]


def small_cells():
    """An OPT-6.7B paper-grid cell and the tiered-offload GPT-20B cell."""
    return [
        workloads.paper_grid_cell("OPT-6.7B", "AS", False, seed=4),
        workloads.tiered_cell(seed=20),
    ]


def traced_run(cells):
    tracer = Tracer()
    members = []
    with tracer.installed():
        outcomes = [
            workloads.run_cell(
                cell,
                on_setup=lambda: tracer.root("setup"),
                on_run=lambda: tracer.root("run"),
                members_out=members,
            )
            for cell in cells
        ]
    return tracer, members, outcomes


@pytest.fixture(scope="module")
def traced():
    return traced_run(small_cells())


def wrapped_attributes():
    attributes = {(cls, attr) for cls, attr, _ in SPANNED}
    tracer = Tracer()
    tracer.install()
    attributes.update((cls, attr) for cls, attr, _ in tracer._saved)
    tracer.uninstall()
    return {(cls, attr): cls.__dict__[attr] for cls, attr in attributes}


def test_wrappers_are_removed_after_a_traced_run(traced):
    before = wrapped_attributes()
    traced_run([workloads.paper_grid_cell("LLaMA-30B", "BS", False, seed=12)])
    after = {(cls, attr): cls.__dict__[attr] for cls, attr in before}
    assert after == before
    assert all(not hasattr(function, "__wrapped__") for function in after.values())


def test_traced_and_untraced_runs_make_the_same_decisions(traced):
    _, _, traced_outcomes = traced
    plain = [workloads.run_cell(cell) for cell in small_cells()]
    assert [o.digest for o in plain] == [o.digest for o in traced_outcomes]
    assert [o.completed for o in plain] == [o.completed for o in traced_outcomes]


def test_layer_self_times_add_up_to_the_traced_run_time(traced):
    tracer, members, outcomes = traced
    metrics = layer_metrics(tracer, members)
    parts = run_parts(metrics)
    assert "server.self_s" in parts and "sim.core_self_s" in parts
    assert math.isclose(sum(parts.values()), metrics["trace.run_s"], rel_tol=1e-9)
    assert metrics["trace.run_s"] <= sum(o.raw_run_s for o in outcomes)
    assert all(value >= -1e-9 for value in tracer.self_times())
    # The tiered cell moves bytes through both planner paths.
    assert metrics["planner.plan.calls"] > 0
    assert metrics["planner.derive_tiered_plan.calls"] > 0
    assert metrics["sim.events"] == sum(
        metrics[f"sim.events.{kind}"] for kind in tracer.events
    )


def test_every_layer_metric_is_reported(traced):
    tracer, members, _ = traced
    reported = set(layer_metrics(tracer, members))
    assert reported == {name for name, _ in LAYER_METRICS}


def test_spans_are_written_once_with_parents(traced, tmp_path):
    tracer, _, _ = traced
    path = tmp_path / "spans.csv.gz"
    tracer.write(path)
    with gzip.open(path, "rt") as rows:
        header = next(rows).strip().split(",")
        count = sum(1 for _ in rows)
    assert header == ["name", "start", "end", "parent", "tag"]
    assert count == len(tracer.start)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_a_seed_reproduces_its_inputs_and_another_seed_changes_them(workload):
    first = [(c.label, c.seed) for c in workloads.draw_cells(workload, 7, 0)]
    again = [(c.label, c.seed) for c in workloads.draw_cells(workload, 7, 0)]
    other_seed = [(c.label, c.seed) for c in workloads.draw_cells(workload, 8, 0)]
    other_draw = [(c.label, c.seed) for c in workloads.draw_cells(workload, 7, 1)]
    assert first == again
    assert first != other_seed
    assert first != other_draw
    assert len(first) == driver.DRAWS[workload][1]


def test_arrival_inputs_are_exact_functions_of_the_seed():
    seed = workloads.draw_cells("rate-ladder", 3, 0)[0].seed
    _, arrivals = workloads.ladder_scenario(1.0, seed)
    _, same = workloads.ladder_scenario(1.0, seed)
    _, other = workloads.ladder_scenario(1.0, seed + 1)
    duration = workloads.LADDER_DURATION
    assert arrivals.arrival_times(duration) == same.arrival_times(duration)
    assert arrivals.arrival_times(duration) != other.arrival_times(duration)
    count = len(arrivals.arrival_times(duration))
    expected = workloads.expected_count(arrivals, duration)
    assert abs(count - expected) <= workloads.COUNT_TOLERANCE * expected


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == driver.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == driver.layer_units()


def test_driver_refuses_to_run_without_the_program(tmp_path):
    copy = tmp_path / "benchmarks" / "spotbench"
    shutil.copytree(
        Path(driver.__file__).parent, copy, ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    done = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "churn", "--seed", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
