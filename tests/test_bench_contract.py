"""The benchmark under ``bench/`` reaches into the library by attribute name.

Its tracer wraps module functions and class methods, and its checks read
gate references and attention caches directly.  The default test run does
not collect ``bench/``, so these tests fail here when a change renames or
moves anything the benchmark relies on.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import spans  # noqa: E402
import verify  # noqa: E402
from tokengate.block import MODES, Model, ModelConfig  # noqa: E402
from tokengate.gates import Policy  # noqa: E402
from tokengate.streams import StreamConfig, gen_stream  # noqa: E402


def test_tracer_wraps_every_target_and_restores_it():
    targets = spans.STEP_TARGETS + spans.SETUP_TARGETS
    before = [vars(owner)[attr] for owner, attr, _, _ in targets]
    with spans.Tracer().installed(targets):
        pass
    assert [vars(owner)[attr] for owner, attr, _, _ in targets] == before


@pytest.mark.parametrize("mode", MODES)
def test_traced_steps_and_state_checks_run_in_every_mode(mode):
    # in "full", r = 8 of 16 takes both products whole with only some value
    # columns refreshed and r = 2 patches them; the last frame is full-budget
    n, schedule = 16, (4, 8, 2, 16)
    cfg = ModelConfig(blocks=1, n=n, d=8, heads=2, mode=mode,
                      pool_p=2 if mode == "spatial_pool" else 1, seed=1,
                      policy=Policy("top_r", r=4))
    model = Model(cfg)
    tracer = spans.Tracer()
    stream = gen_stream(StreamConfig(n=n, d=8, frames=len(schedule), seed=2))
    for r, frame in zip(schedule, stream):
        model.set_budget(r)
        with tracer.installed(spans.STEP_TARGETS):
            tokens, scores = model.step(frame)
        if mode in ("full", "spatial_pool"):
            deviation = verify.invariant_deviation(model)
            assert verify.invariant_problems(*deviation) == []
    assert tracer.total["block.step"] > 0
    exact, _ = model.baseline_frame(frame)
    problems, err = verify.frame_problems(model, n, tokens, scores, exact)
    assert problems == [] and err == 0.0
    assert verify.live_state_bytes(model)["gates"] > 0
    if mode in ("full", "spatial_pool"):
        assert tracer.counts["gates.tokens.v"] > 0
