import math

import numpy as np
import pytest

from tokengate.streams import StreamConfig, gen_stream


def test_static_frames_identical():
    frames = gen_stream(StreamConfig(n=8, d=4, frames=5, mode="static", seed=0))
    for t in range(1, 5):
        np.testing.assert_array_equal(frames[t], frames[0])


def test_sparse_change_zero_rho_is_static_after_first():
    frames = gen_stream(StreamConfig(n=8, d=4, frames=5, mode="sparse_change",
                                     rho=0.0, seed=1))
    for t in range(1, 5):
        np.testing.assert_array_equal(frames[t], frames[0])


def test_sparse_change_exact_row_count():
    frames = gen_stream(StreamConfig(n=16, d=4, frames=6, mode="sparse_change",
                                     rho=0.25, sigma=1.0, seed=2))
    for t in range(1, 6):
        changed = np.any(frames[t] != frames[t - 1], axis=1).sum()
        assert changed == 4


def test_sparse_change_scale():
    frames = gen_stream(StreamConfig(n=64, d=32, frames=40,
                                     mode="sparse_change", rho=0.5, sigma=3.0,
                                     seed=3))
    redrawn = []
    for t in range(1, 40):
        mask = np.any(frames[t] != frames[t - 1], axis=1)
        redrawn.append(frames[t][mask])
    std = np.concatenate(redrawn).std()
    assert 2.7 < std < 3.3


def test_drift_moves_every_token_by_eps():
    eps = 0.25
    frames = gen_stream(StreamConfig(n=8, d=4, frames=5, mode="drift",
                                     eps=eps, seed=4))
    for t in range(1, 5):
        step_norms = np.linalg.norm(frames[t] - frames[t - 1], axis=1)
        np.testing.assert_allclose(step_norms, eps, rtol=1e-9)
    # direction is fixed: displacement accumulates linearly
    np.testing.assert_allclose(frames[4] - frames[0],
                               4 * (frames[1] - frames[0]), rtol=1e-9)


def test_mixed_combines_drift_and_redraw():
    cfg = StreamConfig(n=16, d=4, frames=6, mode="mixed", rho=0.25, sigma=1.0,
                       eps=0.05, seed=5)
    frames = gen_stream(cfg)
    for t in range(1, 6):
        diff_norms = np.linalg.norm(frames[t] - frames[t - 1], axis=1)
        # drifted rows moved by about eps, redrawn rows by much more
        assert (diff_norms > 1e-6).all()
        assert (diff_norms > 10 * cfg.eps).sum() >= 1


def test_deterministic_given_seed():
    cfg = StreamConfig(n=8, d=4, frames=4, mode="mixed", seed=6)
    np.testing.assert_array_equal(gen_stream(cfg), gen_stream(cfg))


def test_config_validation():
    with pytest.raises(ValueError):
        StreamConfig(mode="nope")
    with pytest.raises(ValueError):
        StreamConfig(rho=1.5)
    with pytest.raises(ValueError):
        StreamConfig(frames=0)
    with pytest.raises(ValueError):
        StreamConfig(sigma=-1.0)
    for field in ("sigma", "eps"):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match=field):
                StreamConfig(**{field: value})
    for field in ("rho", "sigma", "eps"):
        for value in ("0.5", True, None):
            with pytest.raises(ValueError, match=f"{field} must be a real number"):
                StreamConfig(**{field: value})
        StreamConfig(**{field: np.float32(0.5)})
        StreamConfig(**{field: 1})
    for field in ("n", "d"):
        with pytest.raises(ValueError, match=f"{field} must be at least 1"):
            StreamConfig(**{field: 0})
    for field in ("n", "d", "frames", "seed"):
        for value in (2.0, True):
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                StreamConfig(**{field: value})
