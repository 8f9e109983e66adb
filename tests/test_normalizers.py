"""Per-row softmax normalizers of the incremental attention path.

The kept row sums must match the sums recomputed from the similarity
matrix against each row's offset, however the rows were updated: recomputed
as picked rows, patched at changed columns, rescaled online, resynced after
cancellation, or refreshed by a full softmax.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tokengate.attention import AttentionState, head_split, pool_tokens
from tokengate.block import Model, ModelConfig
from tokengate.checks import (
    FULL_BUDGET_TOL,
    NORMALIZER_TOL,
    normalizer_deviation,
    normalizer_run,
    random_schedule,
)
from tokengate.costs import CostLedger, count_block_eventful, patched_softmax_exps
from tokengate.gates import Policy
from tokengate.harness import relative_l2
from tokengate.rng import SplitRng
from tokengate.streams import StreamConfig, gen_stream


def _single_head_state(n=16):
    """Every query (1, 0); key 0 is (10, 0), the other keys (0, 0)."""
    state = AttentionState(n, 2, 1, Policy("top_r", r=1), ledger=CostLedger())
    q = np.tile([1.0, 0.0], (n, 1))
    k = np.zeros((n, 2))
    k[0] = [10.0, 0.0]
    v = SplitRng(30).normal((n, 2))
    state.step(np.arange(n), q, k, v)
    return state


def _step_token_zero(state, q0, k0):
    state.ledger.begin_frame()
    state.step(np.array([0]), np.array([q0]), np.array([k0]),
               SplitRng(31).normal((1, 2)))
    return state.ledger.end_frame()


def test_resync_when_the_dominant_column_is_replaced():
    state = _single_head_state()
    np.testing.assert_allclose(state.row_offset[0], 10.0 / np.sqrt(2.0))
    # column 0 held nearly all of every row's mass; now it holds almost none
    snap = _step_token_zero(state, [1.0, 0.0], [-10.0, 0.0])
    n = state.n
    assert state.resynced == n - 1
    assert normalizer_deviation(state) <= 1e-13
    np.testing.assert_allclose(state.row_offset[0], 0.0)
    assert snap["nonlinear_elems"] == (patched_softmax_exps(n, n, 1, 1, 1)
                                       + n * state.resynced)


def test_rescale_when_a_new_score_exceeds_the_offset():
    n = 16
    state = AttentionState(n, 2, 1, Policy("top_r", r=1), ledger=CostLedger())
    state.step(np.arange(n), np.tile([1.0, 0.0], (n, 1)), np.zeros((n, 2)),
               SplitRng(32).normal((n, 2)))
    np.testing.assert_array_equal(state.row_offset[0], 0.0)
    snap = _step_token_zero(state, [1.0, 0.0], [10.0, 0.0])
    # the rows kept 15 of 16 equal terms: rescaled online, not resynced
    assert state.resynced == 0
    np.testing.assert_allclose(state.row_offset[0], 10.0 / np.sqrt(2.0))
    np.testing.assert_allclose(state.row_sum[0], 1.0 + 15.0 * np.exp(-10.0 / np.sqrt(2.0)))
    assert normalizer_deviation(state) <= 1e-13
    assert snap["nonlinear_elems"] == patched_softmax_exps(n, n, 1, 1, 1)


def test_patched_attention_matches_the_softmax_of_b():
    state = _single_head_state()
    _step_token_zero(state, [0.5, 0.5], [3.0, -1.0])
    idx = state.a_gates[0].last_idx
    scaled = state.b[0] / np.sqrt(state.dh)
    e = np.exp(scaled - scaled.max(axis=1, keepdims=True))
    want = (e / e.sum(axis=1, keepdims=True))[:, idx]
    np.testing.assert_allclose(state.a_gates[0].u[idx].T, want, rtol=1e-13)


def test_long_small_stream_keeps_normalizers_and_full_budget_exact():
    n, frames = 16, 10_000
    cfg = ModelConfig(blocks=1, n=n, d=8, heads=2, seed=33,
                      policy=Policy("top_r", r=n))
    stream = StreamConfig(n=n, d=8, frames=frames, mode="sparse_change",
                          rho=0.25, sigma=1.0, seed=34)
    schedule = random_schedule(SplitRng(35), n, frames)
    assert (schedule == 0).any() and (schedule == n).any()
    worst, worst_full = normalizer_run(cfg, gen_stream(stream), schedule)
    assert worst <= NORMALIZER_TOL
    assert worst_full < FULL_BUDGET_TOL


@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from([(16, 1), (16, 2), (64, 2), (64, 4)]),
       schedule=st.lists(st.integers(0, 64), min_size=2, max_size=10),
       seed=st.integers(0, 2**16))
def test_normalizers_hold_under_any_schedule(shape, schedule, seed):
    n, pool = shape
    schedule = [min(r, n) for r in schedule]
    cfg = ModelConfig(blocks=1, n=n, d=8, heads=2, seed=seed,
                      mode="full" if pool == 1 else "spatial_pool",
                      pool_p=pool, policy=Policy("top_r", r=n))
    stream = StreamConfig(n=n, d=8, frames=len(schedule) + 1,
                          mode="sparse_change", rho=0.25, sigma=1.0, seed=seed)
    model = Model(cfg)
    for frame, r in zip(gen_stream(stream), [n, *schedule]):
        model.set_budget(r)
        tokens, _ = model.step(frame)
        assert normalizer_deviation(model.blocks[0].attn) <= NORMALIZER_TOL
        _assert_qk_and_av_invariants(model.blocks[0].attn)
        if r == n:
            exact, _ = model.baseline_frame(frame)
            assert relative_l2(tokens, exact) < FULL_BUDGET_TOL


def _assert_qk_and_av_invariants(attn):
    keys = pool_tokens(attn.k_buf.b, attn.grid, attn.pool)
    qh, kh = head_split(attn.q_buf.b, attn.heads), head_split(keys, attn.heads)
    vh = head_split(attn.v_gate.u, attn.heads)
    for h in range(attn.heads):
        np.testing.assert_allclose(attn.b[h], qh[h] @ kh[h].T, rtol=0, atol=1e-9)
        np.testing.assert_allclose(attn.av[h], attn.a_gates[h].u.T @ vh[h],
                                   rtol=0, atol=1e-7)


def test_ledger_is_closed_form_plus_resynced_rows():
    d, heads, ratio = 16, 2, 4
    for n in (8, 16, 32):
        for m in (0, 1, n // 4, n // 2, n):
            ledger = CostLedger()
            model = Model(ModelConfig(blocks=1, n=n, d=d, heads=heads, seed=36,
                                      policy=Policy("top_r", r=m)), ledger=ledger)
            rng = SplitRng(37)
            for _ in range(4):
                model.step(rng.normal((n, d)))
                snap = ledger.frames[-1]
                if snap["flush"]:
                    continue
                formula = count_block_eventful(n, m, d, heads, ratio, "full")
                resynced = model.blocks[0].attn.resynced
                assert snap["nonlinear_elems"] == formula.nonlinear_elems + n * resynced


def test_hires_shape_evaluates_at_most_half_the_exponentials():
    n, d, heads, r = 1024, 192, 3, 128
    ledger = CostLedger()
    model = Model(ModelConfig(blocks=1, n=n, d=d, heads=heads, seed=38,
                              policy=Policy("top_r", r=r)), ledger=ledger)
    stream = StreamConfig(n=n, d=d, frames=4, mode="sparse_change", rho=0.05,
                          sigma=1.0, seed=39)
    for frame in gen_stream(stream):
        model.step(frame)
    norm_and_gelu = 2 * n * d + r * 4 * d
    for snap in ledger.frames[1:]:
        assert snap["nonlinear_elems"] - norm_and_gelu <= heads * n * n // 2
    closed = count_block_eventful(n, r, d, heads).nonlinear_elems - norm_and_gelu
    assert closed <= heads * n * n // 2
