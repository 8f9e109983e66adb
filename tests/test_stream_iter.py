"""``streams.iter_stream`` makes the frames of ``gen_stream`` one at a time."""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest

from tokengate.block import ModelConfig
from tokengate.checks import normalizer_run
from tokengate.gates import Policy
from tokengate.streams import STREAM_MODES, StreamConfig, gen_stream, iter_stream


@pytest.mark.parametrize("mode", STREAM_MODES)
def test_iter_stream_is_gen_stream_frame_for_frame_and_past_its_end(mode):
    cfg = StreamConfig(n=12, d=5, frames=6, mode=mode, rho=0.25, eps=0.1,
                       seed=31)
    longer = gen_stream(dataclasses.replace(cfg, frames=15))
    frames = list(itertools.islice(iter_stream(cfg), 15))
    assert len(frames) == 15
    np.testing.assert_array_equal(np.stack(frames), longer)
    np.testing.assert_array_equal(gen_stream(cfg), longer[:cfg.frames])
    # every frame is its own array, so a caller may keep or change it
    assert len({id(frame) for frame in frames}) == 15
    frames[0][:] = np.nan
    assert np.isfinite(frames[1]).all()


def test_normalizer_run_takes_a_lazy_stream():
    stream = StreamConfig(n=16, d=8, frames=12, seed=32)
    cfg = ModelConfig(blocks=1, n=16, d=8, heads=2, seed=33,
                      policy=Policy("top_r", r=4))
    schedule = [16, 4, 2, 16, 0, 4, 8, 1, 4, 16, 3, 4]
    lazy = itertools.islice(iter_stream(stream), stream.frames)
    assert (normalizer_run(cfg, lazy, schedule)
            == normalizer_run(cfg, gen_stream(stream), schedule))
