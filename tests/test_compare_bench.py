"""``scripts/compare_bench.py`` pairs a parent's benchmark runs with a change's.

The runners are stubbed, so no benchmark runs here.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))

import compare_bench  # noqa: E402

END_TO_END = [{"name": "frame_ms_p50", "better": "lower", "bound": 0.12},
              {"name": "frames_per_s", "better": "higher", "bound": 0.12},
              {"name": "state_bytes", "better": "lower", "bound": 0.05}]


def stub_runner(side, calls, ms):
    """Runs whose frame time is ``ms[side](seed)``; the change's seed-3 run
    fails its checks."""
    def run(workload, seed, seconds):
        calls.append((side, workload, seed, seconds))
        value = ms[side](seed)
        result = {"correct": not (side == "change" and seed == 3),
                  "metrics": {"frame_ms_p50": {"value": value, "unit": "ms"},
                              "frames_per_s": {"value": 1e3 / value, "unit": "1/s"},
                              "state_bytes": {"value": 64.0, "unit": "B"}}}
        return {"env": {}}, result
    return run


def run(ms, seeds=(1, 2, 3, 4, 5), workloads=("a",)):
    calls = []
    runners = {side: stub_runner(side, calls, ms) for side in compare_bench.SIDES}
    doc = compare_bench.run_pairs(list(workloads), list(seeds), 2.5, runners)
    return calls, compare_bench.compare(doc, END_TO_END)


def test_pairs_alternate_which_side_runs_first():
    calls, _ = run({"parent": lambda s: 10.0, "change": lambda s: 9.0},
                   seeds=(1, 2, 3), workloads=("a", "b"))
    assert calls == [(side, w, s, 2.5) for w in "ab" for s, order in
                     ((1, ("parent", "change")), (2, ("change", "parent")),
                      (3, ("parent", "change"))) for side in order]


def test_medians_quartiles_and_pairs_won():
    # the change is faster in 4 of 5 pairs and ties in one
    _, out = run({"parent": lambda s: 20.0 + s,
                  "change": lambda s: 20.0 + s - (s != 5) * 2.0})
    row = out["a"]["metrics"]["frame_ms_p50"]
    assert row["parent"] == {"median": 23.0, "q1": 22.0, "q3": 24.0,
                             "values": [21.0, 22.0, 23.0, 24.0, 25.0]}
    assert row["change"]["median"] == 21.0
    assert (row["won"], row["tied"]) == (4, 1)
    assert row["rel_change"] == pytest.approx(-2 / 23)
    assert row["beyond_iqr"] is False     # a 2 ms gap against a 2 ms IQR
    assert row["worse"] is False
    # frames_per_s is better higher: the same pairs are won
    assert out["a"]["metrics"]["frames_per_s"]["won"] == 4
    same = out["a"]["metrics"]["state_bytes"]
    assert (same["won"], same["tied"], same["worse"]) == (0, 5, False)
    assert out["a"]["incorrect"] == {"parent": 0, "change": 1}


@pytest.mark.parametrize("factor, worse", [(1.11, False), (1.13, True)])
def test_worse_beyond_the_bound_is_flagged(factor, worse):
    _, out = run({"parent": lambda s: 100.0 + s, "change": lambda s: (100.0 + s) * factor})
    metrics = out["a"]["metrics"]
    assert metrics["frame_ms_p50"]["worse"] is worse
    assert metrics["frames_per_s"]["worse"] is False   # 1/1.13 is 11.5 % fewer
    assert metrics["frame_ms_p50"]["beyond_iqr"] is True
    assert metrics["frame_ms_p50"]["won"] == 0


def test_a_higher_is_better_metric_is_flagged_when_it_falls():
    _, out = run({"parent": lambda s: 10.0, "change": lambda s: 11.5})
    assert out["a"]["metrics"]["frames_per_s"]["worse"] is True   # 13 % fewer
    assert out["a"]["metrics"]["frame_ms_p50"]["worse"] is True   # 15 % slower


def test_report_names_every_metric_and_the_flag():
    _, out = run({"parent": lambda s: 10.0, "change": lambda s: 20.0})
    text = compare_bench.format_report(out, 5)
    assert "a: 5 pairs; runs failing their checks: parent 0, change 1" in text
    lines = {line.split()[0]: line for line in text.splitlines()[2:]}
    assert set(lines) == {"frame_ms_p50", "frames_per_s", "state_bytes"}
    assert "+100.00%" in lines["frame_ms_p50"] and "WORSE" in lines["frame_ms_p50"]
    assert "WORSE" not in lines["state_bytes"]


def test_no_seeds_rejected():
    with pytest.raises(ValueError, match="seed"):
        run({"parent": float, "change": float}, seeds=())


def test_main_runs_both_checkouts(monkeypatch, tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for root in (parent, change):
        root.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 7, "workloads": [{"name": "a"}, {"name": "b"}],
         "end_to_end": END_TO_END}))
    calls = []
    ms = {"parent": lambda s: 10.0, "change": lambda s: 9.0}
    stubs = {root: stub_runner(side, calls, ms)
             for side, root in (("parent", parent), ("change", change))}
    monkeypatch.setattr(compare_bench.record_bench, "run_bench",
                        lambda root, workload, seed, seconds, trace:
                        stubs[root](workload, seed, seconds))
    out = tmp_path / "pairs.json"
    assert compare_bench.main(["--parent", str(parent), "--change", str(change),
                               "--seeds", "1,2", "--workload", "b",
                               "--out", str(out)]) == 0
    assert calls == [("parent", "b", 1, 7), ("change", "b", 1, 7),
                     ("change", "b", 2, 7), ("parent", "b", 2, 7)]
    assert "b: 2 pairs" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["comparison"]["b"]["metrics"]["frame_ms_p50"]["won"] == 2
    assert list(doc["workloads"]) == ["b"]
    for bad in (["--workload", "nope"], ["--seconds", "2"]):   # the run length is not an option
        with pytest.raises(SystemExit):
            compare_bench.main(["--parent", str(parent), "--change", str(change),
                                "--seeds", "1", *bad])


def test_trace_compares_the_per_layer_metrics(monkeypatch, tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for root in (parent, change):
        root.mkdir()
    per_layer = [{"name": "attention.av_update_ms", "better": "lower"},
                 {"name": "gates.selected_share.v", "better": "lower"}]
    (change / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 7, "workloads": [{"name": "a"}],
         "end_to_end": END_TO_END, "per_layer": per_layer}))
    calls = []
    ms = {parent: 12.0, change: 9.0}

    def run_bench(root, workload, seed, seconds, trace):
        calls.append((root, trace))
        result = {"correct": True, "metrics": {
            "attention.av_update_ms": {"value": ms[root] * 100, "unit": "ms"},
            "gates.selected_share.v": {"value": 0.1, "unit": "1"}}}
        return {"env": {}}, result

    monkeypatch.setattr(compare_bench.record_bench, "run_bench", run_bench)
    out = tmp_path / "pairs.json"
    assert compare_bench.main(["--parent", str(parent), "--change", str(change),
                               "--seeds", "1,2,3", "--trace",
                               "--out", str(out)]) == 0
    assert calls == [(root, True) for root in
                     (parent, change, change, parent, parent, change)]
    lines = capsys.readouterr().out.splitlines()
    # the per-layer names set the metric column's width
    assert lines[2].startswith("  attention.av_update_ms ")
    assert not any("WORSE" in line for line in lines)
    doc = json.loads(out.read_text())
    assert doc["trace"] is True
    metrics = doc["comparison"]["a"]["metrics"]
    assert list(metrics) == ["attention.av_update_ms", "gates.selected_share.v"]
    assert metrics["attention.av_update_ms"]["won"] == 3
    assert metrics["attention.av_update_ms"]["rel_change"] == pytest.approx(-0.25)
    # a per-layer metric has no bound, so a rise is never flagged
    row = compare_bench.compare_metric([1.0], [3.0], "lower", math.inf)
    assert row["worse"] is False

