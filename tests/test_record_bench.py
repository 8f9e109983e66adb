"""``scripts/record_bench.py`` aggregates benchmark runs over seeds.

The runner is stubbed, so no benchmark runs here.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))

import record_bench  # noqa: E402


def stub_runner(calls):
    def run(workload, seed, seconds):
        calls.append((workload, seed, seconds))
        value = {"a": 10.0, "b": 20.0}[workload] + seed
        result = {"correct": seed != 3, "attempted": 5, "failed": int(seed == 3),
                  "metrics": {"frame_ms_p50": {"value": value, "unit": "ms"},
                              "state_bytes": {"value": 64.0, "unit": "B"}}}
        return {"env": {"nproc": seed}}, result
    return run


def test_medians_and_quartiles_per_workload_and_metric():
    calls = []
    doc = record_bench.record(["a", "b"], [1, 2, 3, 4, 5], 2.5, stub_runner(calls))
    # one run at a time, workload by workload, each seed once
    assert calls == [(w, s, 2.5) for w in "ab" for s in (1, 2, 3, 4, 5)]
    assert doc["seeds"] == [1, 2, 3, 4, 5] and doc["seconds"] == 2.5
    assert doc["env"] == {"nproc": 1}    # the first run's side report
    frame = doc["workloads"]["b"]["metrics"]["frame_ms_p50"]
    assert frame == {"unit": "ms", "median": 23.0, "q1": 22.0, "q3": 24.0,
                     "values": [21.0, 22.0, 23.0, 24.0, 25.0]}
    state = doc["workloads"]["a"]["metrics"]["state_bytes"]
    assert (state["median"], state["q1"], state["q3"]) == (64.0, 64.0, 64.0)
    assert doc["workloads"]["a"]["incorrect_seeds"] == [3]


def test_quartiles_interpolate_between_runs():
    doc = record_bench.record(["a"], [1, 2], 1.0, stub_runner([]))
    frame = doc["workloads"]["a"]["metrics"]["frame_ms_p50"]
    assert (frame["q1"], frame["median"], frame["q3"]) == (11.25, 11.5, 11.75)


def test_no_seeds_rejected():
    with pytest.raises(ValueError, match="seed"):
        record_bench.record(["a"], [], 1.0, stub_runner([]))


def test_a_run_without_a_result_raises(monkeypatch, tmp_path):
    class Done:
        returncode, stdout, stderr = 2, "", "no tokengate sources\n"

    monkeypatch.setattr(record_bench.subprocess, "run", lambda *a, **k: Done())
    with pytest.raises(RuntimeError, match="no result"):
        record_bench.run_bench(tmp_path, "a", 1, 1.0)


@pytest.mark.parametrize("trace, flag", [(False, "0"), (True, "1")])
def test_run_bench_passes_the_trace_flag(monkeypatch, tmp_path, trace, flag):
    seen = []

    class Done:
        returncode, stderr = 0, ""
        stdout = '{"report": {"env": {}}}\n{"correct": true, "metrics": {}}\n'

    def run(command, **kwargs):
        seen.append((command, kwargs["cwd"]))
        return Done()

    monkeypatch.setattr(record_bench.subprocess, "run", run)
    report, result = record_bench.run_bench(tmp_path, "a", 3, 1.5, trace)
    assert report == {"env": {}} and result["correct"] is True
    (command, cwd), = seen
    assert command[1:] == ["bench/run.py", "--workload", "a", "--seed", "3",
                           "--seconds", "1.5", "--trace", flag]
    assert cwd == tmp_path


def test_main_runs_at_the_benchmark_run_length(monkeypatch, tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(
        '{"run_seconds": 7, "workloads": [{"name": "a"}, {"name": "b"}]}')
    calls = []
    runner = stub_runner(calls)
    monkeypatch.setattr(record_bench, "run_bench",
                        lambda checkout, workload, seed, seconds:
                        runner(workload, seed, seconds))
    assert record_bench.main(["--label", "t", "--seeds", "1,2",
                              "--checkout", str(tmp_path),
                              "--out-dir", str(tmp_path)]) == 0
    assert calls == [(w, s, 7) for w in "ab" for s in (1, 2)]
    doc = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert doc["label"] == "t" and doc["seconds"] == 7
    with pytest.raises(SystemExit):    # the run length is not an option
        record_bench.main(["--label", "t", "--seeds", "1", "--seconds", "2"])
