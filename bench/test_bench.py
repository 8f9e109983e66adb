"""Tests of the benchmark itself, on tiny shapes of its three workloads.

    python -m pytest bench/ -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import core  # noqa: E402
import spans  # noqa: E402
import verify  # noqa: E402
from tokengate.block import Model  # noqa: E402
from tokengate.harness import run_pair  # noqa: E402
from tokengate.streams import StreamConfig, gen_stream  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "hires-sparse": dict(n=64, d=16, heads=2, schedule=(8,)),
    "vitb-tokenwise": dict(n=16, d=32, heads=4, schedule=(4,)),
    "drift-pool-budget": dict(n=64, d=16, heads=2,
                              schedule=(4,) * 3 + (8,) * 4 + (64,) * 3),
}


def tiny(name):
    return replace(core.WORKLOADS[name], **TINY[name])


@pytest.fixture(scope="module")
def outcomes():
    """Timed and traced runs of every tiny workload, seed 3."""
    return {(name, trace): core.run(tiny(name), seed=3, seconds=0.01, trace=trace)
            for name in TINY for trace in (False, True)}


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(core.WORKLOADS)


@pytest.mark.parametrize("mode", ["sparse_change", "drift"])
def test_load_generator_matches_library_stream(mode):
    cfg = StreamConfig(n=36, d=8, frames=15, mode=mode, rho=0.2, sigma=0.7,
                       eps=0.3, seed=11)
    frames = core.iter_frames(cfg)
    for want in gen_stream(cfg):
        np.testing.assert_array_equal(next(frames), want)


@pytest.mark.parametrize("name", list(TINY))
def test_smoke_prints_every_metric_with_its_unit(outcomes, name):
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        outcome = outcomes[(name, trace)]
        result = json.loads(json.dumps(outcome.result()))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] > core.MIN_STEADY_FRAMES
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want
        assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    metrics = outcomes[(name, False)].result()["metrics"]
    assert all(metrics[m["name"]]["value"] > 0 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", ["hires-sparse", "drift-pool-budget"])
def test_invariant_check_catches_a_perturbed_av_cache(name):
    w = tiny(name)
    model = Model(w.model_config(5))
    frames = core.iter_frames(w.stream_config(5))
    for _ in range(4):
        model.step(next(frames))
    assert verify.invariant_problems(*verify.invariant_deviation(model)) == []
    broken = copy.deepcopy(model)
    broken.blocks[1].attn.av[0, 3, 1] += 1e-4
    problems = verify.invariant_problems(*verify.invariant_deviation(broken))
    assert len(problems) == 1 and problems[0].startswith("av invariant")
    assert verify.invariant_problems(*verify.invariant_deviation(model)) == []


@pytest.mark.parametrize("name", list(TINY))
def test_timed_and_traced_runs_agree(outcomes, name):
    timed, traced = outcomes[(name, False)], outcomes[(name, True)]
    for key in ("rel_l2_error_mean", "rel_l2_error_max", "state_bytes"):
        assert timed.metrics[key] == traced.metrics[key]
    # the traced ledger counts exactly what the library's own harness counts
    w = tiny(name)
    last = traced.steady[-1]["t"]
    frames = core.iter_frames(w.stream_config(3))
    stack = np.stack([next(frames) for _ in range(last + 1)])
    budgets = [w.schedule[0]] + [w.schedule[(t - 1) % len(w.schedule)]
                                 for t in range(1, last + 1)]
    rows = run_pair(w.model_config(3), w.stream_config(3), schedule=budgets,
                    frames=stack).rows
    checked = 0
    for rec in traced.steady:
        assert rec["err"] == rows[rec["t"]]["rel_l2_error"]
        if rec["traced"]:
            ledger, row = rec["spans"]["ledger"], rows[rec["t"]]
            assert (ledger["macs_qk"], ledger["macs_av"], ledger["macs_token_wise"],
                    ledger["adds_overhead"], ledger["macs_total"]) == (
                row["macs_qk"], row["macs_av"], row["macs_tokenwise"],
                row["adds_overhead"], row["macs_total"])
            checked += 1
    assert checked >= core.TRACE_BLOCK
    assert traced.layers["costs.macs_qk"][0] == np.median(
        [rows[rec["t"]]["macs_qk"] for rec in traced.steady if rec["traced"]])


def _wrapped_attributes():
    return [(owner, attr, vars(owner)[attr])
            for owner, attr, _, _ in spans.STEP_TARGETS + spans.SETUP_TARGETS]


def test_spans_are_unwrapped_after_a_traced_run():
    before = _wrapped_attributes()
    core.run(tiny("drift-pool-budget"), seed=1, seconds=0.01, trace=True)
    assert all(vars(owner)[attr] is original for owner, attr, original in before)
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(spans.STEP_TARGETS):
            assert vars(before[0][0])[before[0][1]] is not before[0][2]
            raise RuntimeError("inside a traced frame")
    assert not tracer.active
    assert all(vars(owner)[attr] is original for owner, attr, original in before)


def test_self_time_excludes_child_spans():
    tracer = spans.Tracer()

    def inner():
        return 1

    def outer():
        return tracer.call("inner", inner, None, (), {}) + 1

    assert tracer.call("outer", outer, None, (), {}) == 2
    assert tracer.self_time["inner"] == tracer.total["inner"]
    assert tracer.self_time["outer"] == pytest.approx(
        tracer.total["outer"] - tracer.total["inner"])


def test_launcher_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "hires-sparse",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
