"""Tests of the benchmark itself: smoke runs, span arithmetic, wrapper restore."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402


@pytest.mark.parametrize("name", sorted(run.SETUPS))
def test_tiny_run_of_each_workload_has_no_failures(name):
    record = run.run(name, seed=3, seconds=0.01, trace=False, tiny=True)
    assert record["attempted"] > 0
    assert record["failed"] == 0, record["problems"]
    assert record["digest"]["stable"]
    line = run.result_line(record)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_tiny_traced_run_reports_every_layer_metric():
    record = run.run("train_study", seed=3, seconds=0.01, trace=True, tiny=True)
    per_layer = record["per_layer"]
    assert record["failed"] == 0, record["problems"]
    assert per_layer["model.train.steps"] == 2 * 2 * 16
    assert per_layer["model.losses.drift_calls"] == 2 * 16
    assert per_layer["guidance.horizon_warnings"] == 0
    assert 0.9 < per_layer["trace.coverage"] <= 1.0
    assert per_layer["decoding.mean_candidates"] >= 1.0


def _hand_built_tree():
    rows = [
        # name, start, end, parent
        ("model.train", 0.0, 10.0, -1),
        ("model.one_shot.forward", 1.0, 3.0, 0),
        ("model.losses.total", 3.0, 4.0, 0),
        ("model.losses.drift", 3.2, 3.7, 2),
        ("decoding.decode", 11.0, 20.0, -1),
        ("model.one_shot.forward", 12.0, 15.0, 4),
        ("model.one_shot.forward", 12.5, 14.0, 5),
        ("decoding.sample", 16.0, 18.0, 4),
        ("guidance.columns", 16.5, 17.0, 7),
    ]
    names, starts, ends, parents = zip(*rows)
    return spans.SpanTree(names, starts, ends, parents)


def test_self_time_subtracts_spans_of_other_layers():
    tree = _hand_built_tree()
    assert tree.self_time(0) == pytest.approx(10.0 - 2.0 - 1.0)
    # drift is the losses layer's own time, so it stays in the total's self time
    assert tree.self_time(2) == pytest.approx(1.0)
    # the sample span is decoding's own time; the columns span under it is not
    assert tree.self_time(4) == pytest.approx(9.0 - 3.0 - 0.5)
    assert tree.total("model.one_shot.forward") == pytest.approx(2.0 + 3.0)
    assert tree.count("model.one_shot.forward") == 2
    assert tree.count("model.losses.total", inside="model.train") == 1
    assert tree.covered_s([(0.0, 20.0), (25.0, 30.0)]) == pytest.approx(19.0)


def test_overlapping_children_are_subtracted_once():
    names = ("model.train", "model.losses.total", "model.losses.total")
    tree = spans.SpanTree(names, (0.0, 1.0, 2.0), (10.0, 4.0, 5.0), (-1, 0, 0))
    assert tree.self_time(0) == pytest.approx(10.0 - 4.0)


def _attributes():
    return {
        (where, attr): getattr(importlib.import_module(where), attr, None)
        for _, home, attr, _, importers in spans.PATCHES
        for where in (home, *importers)
    }


def test_wrappers_cover_the_by_name_imports_and_are_removed_on_exit():
    before = _attributes()
    with spans.Patched(spans.Recorder()) as patched:
        during = _attributes()
        installed = len(patched.saved)
        assert not patched.missing
    wrapped = {key for key in before if during[key] is not before[key]}
    assert len(wrapped) == installed
    for key in (
        ("artrip.model.train", "train"),
        ("artrip.model.train", "total_loss_grad"),
        ("artrip.metrics", "decode_trip"),
        ("artrip.decoding", "forward_one_shot"),
        ("artrip.cli", "save_bundle"),
    ):
        assert key in wrapped
    after = _attributes()
    assert all(after[key] is before[key] for key in before)


def test_wrappers_are_removed_after_a_traced_run():
    before = _attributes()
    run.run("decode_mix", seed=4, seconds=0.01, trace=True, tiny=True)
    after = _attributes()
    assert all(after[key] is before[key] for key in before)
