"""Self-test of the benchmark runner at a tiny size (a few hundred events,
one x).  Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_selftest.py

It checks that every metric named in BENCHMARK.json is emitted with its
unit, that the traced spans nest inside their parents, and that a missing
entry point is reported as absent rather than crashing.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import run
import tracer as tracing

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(run.SRC))


def _run(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=run.ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=True)
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_emitted(workload, trace):
    lines, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert isinstance(emitted["value"], (int, float)), m["name"]
        assert any(line.startswith(f"{m['name']} = ") for line in lines)
    # tiny samples cannot pass the statistical checks, but nothing else may fail
    assert not [line for line in lines if line.startswith("# failed:")
                and "fit" not in line and "acceptance" not in line]
    assert any(line.startswith("fail_ratio = ") for line in lines)


def _traced(tmp_path, name, *args):
    path = tmp_path / f"{name}.json"
    subprocess.run([sys.executable, str(run.CHILD), "--trace", str(path), "--trace-id", name,
                    *map(str, args)],
                   cwd=tmp_path, env=run.child_env(),
                   stdout=subprocess.DEVNULL, timeout=170, check=True)
    return tracing.load(path)


def _ancestors(trace, span):
    by_id = {s["id"]: s for s in trace["spans"]}
    names = []
    while span["parent"]:
        span = by_id[span["parent"]]
        names.append(span["name"])
    return names


def test_traced_spans_nest(tmp_path):
    sim = _traced(tmp_path, "simulate", "cli", "simulate", "--x", 0.776, "--events", 300,
                  "--threads", 2, "--seed", 5, "--out", tmp_path / "out")
    ana = _traced(tmp_path, "analyze", "cli", "analyze", tmp_path / "out" / "events.csv",
                  "--out", tmp_path / "out")
    scan = _traced(tmp_path, "scan", "cli", "scan", 0.776, "--events", 300, "--seed", 5,
                   "--out", tmp_path / "scan")
    for trace in (sim, ana, scan):
        assert tracing.nesting_errors(trace) == []
        assert trace["absent"] == []
    # pool-worker spans hang under the generate call that waits for them
    blocks = [s for s in sim["spans"] if s["name"] == "streams.uniform_pair_block"]
    assert blocks
    for s in blocks:
        assert _ancestors(sim, s)[:3] == ["montecarlo.generate_events", "montecarlo.generate",
                                          "cli.main"]
    main_thread = next(s["thread"] for s in sim["spans"] if s["name"] == "cli.main")
    assert all(s["thread"] != main_thread for s in blocks)
    assert any(s["name"] == "verification.reconstruct_joint" for s in scan["spans"])
    metrics = tracing.per_layer_metrics([sim, ana])
    assert metrics["streams.pairs"] > 300
    assert metrics["montecarlo.rejection_rounds"] >= 3
    assert metrics["montecarlo.event_file_bytes"] == (tmp_path / "out" / "events.csv").stat().st_size
    assert 0.0 < metrics["montecarlo.generate.self_s"] < metrics["streams.busy_s"] + 1.0


def test_nesting_check_reports_a_span_outside_its_parent():
    trace = {"spans": [
        {"id": 1, "parent": 0, "name": "cli.main", "start": 0.0, "end": 1.0},
        {"id": 2, "parent": 1, "name": "montecarlo.generate", "start": 0.5, "end": 1.5},
        {"id": 3, "parent": 9, "name": "streams.uniform_pair_block", "start": 0.6, "end": 0.7},
    ]}
    errors = tracing.nesting_errors(trace)
    assert len(errors) == 2
    assert "outside parent cli.main" in errors[0]
    assert "unknown parent 9" in errors[1]


def test_missing_entry_point_is_reported_absent():
    tracer = tracing.Tracer("absent")
    tracing.wrap_span(tracer, "bmixlhv.model.no_such_function", "model.none")
    tracing.wrap_count(tracer, "bmixlhv.no_such_module.quad", "none")
    assert tracer.absent == ["bmixlhv.model.no_such_function", "bmixlhv.no_such_module.quad"]
    trace = {"spans": [], "counters": {}, "absent": ["bmixlhv.model.rho_table"]}
    metrics = tracing.per_layer_metrics([trace])
    assert metrics["model.rho_table_s"] is None
    assert metrics["model.rho_eval_points"] is None
    assert metrics["streams.pairs"] == 0.0
