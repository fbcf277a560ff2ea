"""Fast self-test of the benchmark's own code (a few seconds, no timed runs).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import re
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import demosaick as dm  # noqa: E402
import demosaick.cli  # noqa: E402,F401
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_metric_names_follow_the_naming_rule():
    names = [n for n, _ in run.END_TO_END] + [n for n, _ in tracing.metric_names()]
    assert len(names) == len(set(names))
    for name, unit in list(run.END_TO_END) + tracing.metric_names():
        assert NAME.match(name), name
        assert UNIT.match(unit), unit


def test_benchmark_json_matches_the_code():
    doc = declared()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == tracing.metric_names()
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert 1 <= len(doc["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_same_seed_same_inputs(name):
    wl = workloads.make(dm, name)
    first, again, other = wl.make_inputs(3), wl.make_inputs(3), wl.make_inputs(4)
    assert len(first) == len(again)
    for a, b in zip(first, again):
        assert a.shape[0] == 3 and a.min() >= 0.0 and a.max() <= 1.0
        assert np.array_equal(a, b)
    assert not np.array_equal(first[0], other[0])


def test_result_schema_parses():
    units = dict(run.END_TO_END)
    metrics = {name: 1.5 for name in units}
    line = json.dumps(run.result_line(metrics, units, attempted=3, failed=0))
    parsed = json.loads(line)
    assert set(parsed) == {"correct", "attempted", "failed", "metrics"}
    assert parsed["correct"] is True and parsed["attempted"] == 3 and parsed["failed"] == 0
    assert set(parsed["metrics"]) == set(units)
    for name, m in parsed["metrics"].items():
        assert set(m) == {"value", "unit"} and m["unit"] == units[name]
        assert isinstance(m["value"], float)
    assert run.result_line(metrics, units, 3, 1)["correct"] is False


def test_tracer_changes_no_arithmetic_and_emits_every_metric():
    model = workloads.bench_model(dm, "tiny")
    mosaic = dm.mosaic(np.random.default_rng(0).random((3, 32, 32)))[None]
    target = np.random.default_rng(1).random((1, 3, 32, 32))
    original = dm.ops.conv2d

    def step():
        with dm.Tape() as tape:
            loss = dm.mixed_loss(model.forward(mosaic), target)
            dm.backward(loss, tape)
        return float(loss.data), model.leaf("cells.0.fuse.weight").grad.copy()

    plain = step()
    for leaf in model.leaves():
        leaf.zero_grad()
    tracer = tracing.Tracer()
    tracer.install(dm)
    try:
        assert dm.ops.conv2d is not original
        tracer.set_unit(1)
        traced = step()
    finally:
        tracer.uninstall()
    assert dm.ops.conv2d is original
    assert plain[0] == traced[0] and np.array_equal(plain[1], traced[1])
    metrics = tracer.per_layer([1])
    expected = {n for n, _ in tracing.metric_names() if not n.startswith("trace.")}
    assert set(metrics) == expected
    assert metrics["tensor.nodes"] > 0 and metrics["ops.conv2d.bwd_s"] > 0
    assert metrics["blocks.cells.0.fwd_s"] > 0 and metrics["losses.mixed_loss.nodes"] > 0
