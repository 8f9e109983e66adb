"""Synthetic token streams with controllable temporal redundancy.

Modes:
  static         one random frame repeated
  sparse_change  each frame copies its predecessor, then redraws a fixed
                 fraction of token rows at a chosen noise scale
  drift          every token moves along a fixed per-token direction of a
                 chosen norm, frame after frame
  mixed          drift plus per-frame sparse redraws

All frames derive from the portable seeded generator, so a config pins the
whole stream bit-for-bit.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .kernels import check_integer, is_real
from .rng import SplitRng

STREAM_MODES = ("static", "sparse_change", "drift", "mixed")


@dataclass
class StreamConfig:
    n: int = 16
    d: int = 8
    frames: int = 8
    mode: str = "sparse_change"
    rho: float = 0.25
    sigma: float = 1.0
    eps: float = 0.1
    seed: int = 0

    def __post_init__(self):
        for name, minimum in (("n", 1), ("d", 1), ("frames", 1), ("seed", None)):
            check_integer(name, getattr(self, name), minimum)
        if self.mode not in STREAM_MODES:
            raise ValueError(f"unknown stream mode {self.mode!r}")
        for name in ("rho", "sigma", "eps"):
            if not is_real(getattr(self, name)):
                raise ValueError(f"{name} must be a real number, "
                                 f"got {getattr(self, name)!r}")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError("rho must lie in [0, 1]")
        for name in ("sigma", "eps"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative, "
                                 f"got {getattr(self, name)}")


def iter_stream(cfg: StreamConfig) -> Iterator[np.ndarray]:
    """Endless (n, d) frames of the configured stream, made one at a time, so
    a stream of any length takes the memory of one frame.  Each frame is a
    fresh array; ``cfg.frames`` only bounds ``gen_stream``."""
    rng = SplitRng(cfg.seed).substream(2)
    frame = rng.normal((cfg.n, cfg.d))
    drifts = cfg.mode in ("drift", "mixed")
    if drifts:
        directions = rng.normal((cfg.n, cfg.d))
        lengths = np.sqrt((directions ** 2).sum(axis=1, keepdims=True))
        lengths[lengths == 0] = 1.0
        directions *= cfg.eps / lengths
    redraws = int(np.ceil(cfg.rho * cfg.n)) if cfg.mode in ("sparse_change",
                                                            "mixed") else 0
    while True:
        yield frame
        frame = frame.copy()
        if drifts:
            frame += directions
        if redraws:
            rows = rng.choice_without_replacement(cfg.n, redraws)
            frame[rows] = rng.normal((redraws, cfg.d)) * cfg.sigma


def gen_stream(cfg: StreamConfig) -> np.ndarray:
    """(frames, n, d) array of the first ``cfg.frames`` frames of
    ``iter_stream(cfg)``."""
    return np.stack(list(itertools.islice(iter_stream(cfg), cfg.frames)))
