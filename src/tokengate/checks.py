"""Self-contained equivalence and invariant checks.

Backs the ``equiv`` command: each check returns (name, passed, detail) so
the caller can print one line per check and turn the conjunction into an
exit code.  The randomized sweeps here are the only copies: the acceptance
tests call them at larger instance counts.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable

import numpy as np

from .attention import (
    AttentionState,
    av_delta_update,
    head_split,
    pool_tokens,
    qk_sparse_update,
)
from .block import Model, ModelConfig
from .gates import DeltaGate, Gate, Policy, threshold_indices, top_r_indices
from .harness import relative_l2, run_pair
from .kernels import softmax_rows
from .rng import SplitRng
from .streams import StreamConfig, iter_stream

QK_TOL = 1e-9            # absolute, B against queries times keys
AV_TOL = 1e-7            # absolute, cached A V against the gate references' product
NORMALIZER_TOL = 1e-9    # relative, kept row sum against the sum from B
FULL_BUDGET_TOL = 1e-5   # relative L2, a frame where every gate takes all tokens


def check_full_budget_exactness(seed: int = 0) -> tuple[str, bool, str]:
    n = 16
    cfg = ModelConfig(blocks=3, n=n, d=8, heads=2, seed=seed,
                      policy=Policy("top_r", r=n))
    stream = StreamConfig(n=n, d=8, frames=6, mode="sparse_change",
                          rho=0.25, sigma=1.0, seed=seed)
    return _exact_run("full_budget_exactness", cfg, stream)


def _exact_run(name, cfg, stream) -> tuple[str, bool, str]:
    worst = max(run_pair(cfg, stream).column("rel_l2_error"))
    return (name, worst < FULL_BUDGET_TOL, f"worst rel err {worst:.2e}")


def qk_instances(count: int, seed: int):
    """Random ``(b, q, k, idx)``: ``b = q @ k.T`` from before the rows idx of
    q and k were redrawn; n from 2 to 32, from 0 to n rows changed."""
    rng = SplitRng(seed)
    for _ in range(count):
        n = 2 + int(rng.integers(1, 31)[0])
        dh = 1 + int(rng.integers(1, 8)[0])
        q, k = rng.normal((n, dh)), rng.normal((n, dh))
        b = q @ k.T
        m = int(rng.integers(1, n + 1)[0])
        idx = rng.choice_without_replacement(n, m)
        q[idx] = rng.normal((m, dh))
        k[idx] = rng.normal((m, dh))
        yield b, q, k, idx


def check_qk_invariant(instances: int = 100, seed: int = 0) -> tuple[str, bool, str]:
    """B after the update against queries times keys, and the old scores
    the update reads out (key-major, which the patched softmax takes)
    exactly equal to B's columns from before the call."""
    worst = 0.0
    read_out = True
    for b, q, k, idx in qk_instances(instances, seed):
        before = b[:, idx].T.copy()
        old = np.empty_like(before)
        qk_sparse_update(b, q, k, idx, idx, old=old)
        worst = max(worst, float(np.abs(b - q @ k.T).max()))
        read_out &= np.array_equal(old, before)
    return ("qk_sparse_update_invariant", worst <= QK_TOL and read_out,
            f"worst abs dev {worst:.2e}, old scores "
            + ("read out exactly" if read_out else "differ from B's"))


def random_attention(rng: SplitRng, n: int) -> np.ndarray:
    """A random row-softmaxed n x n attention matrix."""
    return softmax_rows(rng.normal((n, n)))


def check_av_invariant(instances: int = 80, seed: int = 1) -> tuple[str, bool, str]:
    """Five-step delta-update sequences on n from 2 to 16 tokens; each step
    draws a budget from 0 to n + 1, so empty and saturating picks occur."""
    rng = SplitRng(seed)
    worst = 0.0
    for _ in range(instances):
        n = 2 + int(rng.integers(1, 15)[0])
        dh = 1 + int(rng.integers(1, 8)[0])
        policy = Policy("top_r", r=n)
        a_gate = DeltaGate(n, n, policy)
        v_gate = DeltaGate(n, dh, policy)
        attn = random_attention(rng, n)
        _, u_v, _ = v_gate(rng.normal((n, dh)))
        a_gate.overwrite(attn.T, np.arange(n))
        av = attn @ u_v
        for _ in range(5):
            policy.r = int(rng.integers(1, n + 2)[0])
            attn = random_attention(rng, n)
            v_idx, u_v, v_delta = v_gate(rng.normal((n, dh)))
            av_delta_update(av, attn[:, v_idx], a_gate, v_idx, v_delta,
                            u_v[v_idx])
            worst = max(worst, float(np.abs(av - a_gate.u.T @ u_v).max()))
    return ("av_delta_update_invariant", worst <= AV_TOL, f"worst abs dev {worst:.2e}")


def check_policies(vectors: int = 200, seed: int = 2) -> tuple[str, bool, str]:
    """Both policies, and the gates that apply them, against brute-force
    oracles; half the vectors and their threshold are rounded to 0.1 to
    provoke ties, budgets run from 0 to n + 2.  A gate's second input is
    the norms along the first axis, about a quarter of them zero: a
    ``Gate`` must take the top_r picks among the nonzero norms only, and
    so must a ``DeltaGate`` below r = n; at r >= n it takes every token."""
    rng = SplitRng(seed)
    ok = True
    for _ in range(vectors):
        n = 1 + int(rng.integers(1, 48)[0])
        values = np.abs(rng.normal(n + 1))
        if int(rng.integers(1, 2)[0]):
            values = np.round(values, 1)
        norms, h = values[:n], float(values[n])
        norms[rng.integers(n, 4) == 0] = 0.0
        r = int(rng.integers(1, n + 3)[0])
        by_norm = sorted(range(n), key=lambda i: (-norms[i], i))
        changed = [i for i in by_norm if norms[i] > 0]
        above = [i for i in range(n) if norms[i] > h]
        ok &= top_r_indices(norms, r).tolist() == sorted(by_norm[:r])
        ok &= threshold_indices(norms, h).tolist() == above
        for policy, gate_want, delta_want in (
                (Policy("top_r", r=r), sorted(changed[:r]),
                 sorted(changed[:r]) if r < n else list(range(n))),
                (Policy("threshold", h=h), above, above)):
            for cls, want in ((Gate, gate_want), (DeltaGate, delta_want)):
                gate = cls(n, 2, policy)
                gate(np.zeros((n, 2)))
                # the norm of (x, 0) is x exactly, so the gate sees these norms
                ok &= gate(np.stack([norms, np.zeros(n)], axis=1))[0].tolist() == want
    return ("policy_oracle_agreement", bool(ok), f"{vectors} random vectors")


def state_deviation(attn: AttentionState) -> tuple[float, float, float]:
    """Worst gaps, over heads, of an incremental attention state from what
    it caches: B against scaled queries times (pooled) keys and the cached
    A V against the attention gates' reference times the value gate's, both
    absolute; kept softmax row sums against the sums from B at the rows'
    offsets, relative, infinite if an offset lies below a score."""
    qh = head_split(attn.q_buf.b, attn.heads)
    kh = head_split(pool_tokens(attn.k_buf.b, attn.grid, attn.pool), attn.heads)
    vh = head_split(attn.v_gate.u, attn.heads)
    a_ref = np.stack([gate.u.T for gate in attn.a_gates])
    qk = float(np.abs(attn.b - qh @ kh.transpose(0, 2, 1)).max())
    av = float(np.abs(attn.av - a_ref @ vh).max())
    shifted = attn.b - attn.row_offset[:, :, None]
    if (shifted > 0).any():
        return qk, av, math.inf
    exact = np.exp(shifted).sum(axis=2)
    return qk, av, float(np.max(np.abs(attn.row_sum - exact) / exact))


def state_within_bounds(deviation) -> bool:
    """Whether each value of ``state_deviation`` is within its bound."""
    return bool(np.all(np.less_equal(deviation, (QK_TOL, AV_TOL, NORMALIZER_TOL))))


def normalizer_run(model_cfg: ModelConfig, frames: Iterable[np.ndarray],
                   schedule=None) -> tuple[float, float, float, float]:
    """Step a model through frames, at budgets ``schedule`` (one per frame)
    if given; returns the worst ``state_deviation`` values (zeros in modes
    without incremental attention) and the worst relative error against
    the oracle of a frame whose budget covers every token.  ``frames`` is
    any iterable of (n, d) frames, read once in order, such as
    ``iter_stream`` cut to length, whose memory does not grow with the
    number of frames."""
    model = Model(model_cfg)
    worst = np.zeros(4)
    for t, frame in enumerate(frames):
        if schedule is not None:
            model.set_budget(int(schedule[t]))
        tokens, _ = model.step(frame)
        for blk in model.blocks:
            if blk.attn.mode == "full":
                worst[:3] = np.maximum(worst[:3], state_deviation(blk.attn))
        if model.policy.kind == "top_r" and model.policy.r >= model_cfg.n:
            exact, _ = model.baseline_frame(frame)
            worst[3] = max(worst[3], relative_l2(tokens, exact))
    return tuple(float(w) for w in worst)


def random_schedule(rng: SplitRng, n: int, frames: int) -> np.ndarray:
    """Per-frame budgets: a quarter r = N, an eighth r = 0, the rest small
    (1 to N/4), where the patched softmax is the cheaper path."""
    kind = rng.integers(frames, 8)
    small = 1 + rng.integers(frames, max(1, n // 4))
    return np.where(kind < 2, n, np.where(kind == 2, 0, small))


def check_softmax_normalizers(streams: int = 6,
                              seed: int = 4) -> tuple[str, bool, str]:
    """The live state (``state_deviation``) of full and spatial_pool models
    (pool 2 and 4) after every frame of a random budget schedule;
    full-budget frames must also match the oracle."""
    rng = SplitRng(seed)
    worst = np.zeros(4)
    for i in range(streams):
        pool = (1, 2, 4)[i % 3]
        n = 16 if pool == 1 else 64
        cfg = ModelConfig(blocks=2, n=n, d=8, heads=2, seed=seed + i,
                          mode="full" if pool == 1 else "spatial_pool",
                          pool_p=pool, policy=Policy("top_r", r=n))
        stream = StreamConfig(n=n, d=8, frames=24, mode="sparse_change",
                              rho=0.25, sigma=1.0, seed=seed + i)
        frames = itertools.islice(iter_stream(stream), stream.frames)
        worst = np.maximum(worst, normalizer_run(
            cfg, frames, random_schedule(rng, n, stream.frames)))
    qk, av, norm, full = worst
    passed = state_within_bounds((qk, av, norm)) and full < FULL_BUDGET_TOL
    return ("softmax_normalizers", bool(passed),
            f"worst qk dev {qk:.2e}, av dev {av:.2e}, row-sum rel dev "
            f"{norm:.2e}, full-budget rel err {full:.2e}")


def check_static_stability(seed: int = 3) -> tuple[str, bool, str]:
    cfg = ModelConfig(blocks=2, n=16, d=8, heads=2, seed=seed,
                      policy=Policy("top_r", r=2))
    stream = StreamConfig(n=16, d=8, frames=6, mode="static", seed=seed)
    return _exact_run("static_stream_stability", cfg, stream)


ALL_CHECKS = (
    check_full_budget_exactness,
    check_qk_invariant,
    check_av_invariant,
    check_policies,
    check_softmax_normalizers,
    check_static_stability,
)


def run_all_checks() -> list[tuple[str, bool, str]]:
    return [check() for check in ALL_CHECKS]
