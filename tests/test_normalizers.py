"""Per-row softmax normalizers of the incremental attention path.

The kept row sums must match the sums recomputed from the similarity
matrix against each row's offset, however the rows were updated: recomputed
as picked rows, patched at changed columns, rescaled online, resynced after
cancellation, or refreshed by a full softmax.  Every live-state check goes
through ``checks.state_deviation``, which also holds the qk and av
invariants.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tokengate import attention
from tokengate.attention import AttentionState
from tokengate.block import Model, ModelConfig
from tokengate.checks import (
    FULL_BUDGET_TOL,
    normalizer_run,
    random_schedule,
    state_deviation,
    state_within_bounds,
)
from tokengate.costs import (
    CostLedger,
    count_block_baseline,
    count_block_eventful,
    frame_plan,
    patched_softmax_exps,
)
from tokengate.gates import Policy
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
    deviation = state_deviation(state)
    assert state_within_bounds(deviation) and deviation[2] <= 1e-13
    np.testing.assert_allclose(state.row_offset[0], 0.0)
    # the value column is the changed one: none is read from B
    assert snap["nonlinear_elems"] == (patched_softmax_exps(n, n, 1, 1)
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
    deviation = state_deviation(state)
    assert state_within_bounds(deviation) and deviation[2] <= 1e-13
    assert snap["nonlinear_elems"] == patched_softmax_exps(n, n, 1, 1)


def test_offset_below_a_score_is_out_of_bounds():
    state = _single_head_state()
    # row 3's largest scaled score is 10 / sqrt(2); put its offset under it
    state.row_offset[0, 3] = 10.0 / np.sqrt(2.0) - 1.0
    deviation = state_deviation(state)
    assert deviation[2] == math.inf
    assert state_within_bounds(deviation[:2] + (0.0,))
    assert not state_within_bounds(deviation)


def _changed_frame(rng, state, idx, still=()):
    """Fresh queries and keys at idx, fresh values except at the tokens
    ``still``, which keep theirs; returns the frame's ledger snapshot."""
    v_new = rng.normal((idx.size, state.d))
    keep = np.isin(idx, still)
    v_new[keep] = state.v_buf.b[idx[keep]]
    state.ledger.begin_frame()
    state.step(idx, rng.normal((idx.size, state.d)),
               rng.normal((idx.size, state.d)), v_new)
    return state.ledger.end_frame()


def test_patched_attention_matches_the_softmax_of_b(monkeypatch):
    """On a patched frame the value update is handed exactly the softmax of
    B at the value gate's columns, none of them exponentiated anew, whether
    they are the changed columns (top_r, also pool 2 under a budget above
    the changed cells) or fewer of them (threshold, a value left as it
    was).  A value column outside this frame's changed ones (it changed on
    an earlier frame, and a budget below the changed values left it over)
    has no exponentials in the patch, so that frame takes the softmax
    whole."""
    handed = []   # the attention columns the value update is given
    update = attention.av_delta_update
    whole = []
    full_softmax = AttentionState._full_softmax

    def spy(av, attn_now, a_gate, idx, *rest):
        handed.append((attn_now.copy(), idx))
        update(av, attn_now, a_gate, idx, *rest)

    monkeypatch.setattr(attention, "av_delta_update", spy)
    monkeypatch.setattr(AttentionState, "_full_softmax",
                        lambda self, h: whole.append(h) or full_softmax(self, h))
    rng = SplitRng(40)
    cases = []
    state = _single_head_state()
    cases.append((state, np.array([0]),
                  _step_token_zero(state, [0.5, 0.5], [3.0, -1.0])))
    for n, pool, policy, idx, still in (
            (16, 1, Policy("threshold", h=0.5), [0, 5, 9], [5]),
            (64, 2, Policy("top_r", r=3), [0], []),
            (64, 2, Policy("threshold", h=0.1), [0, 1, 20, 45], [20])):
        state = AttentionState(n, 4, 1, policy, pool=pool, ledger=CostLedger())
        state.step(np.arange(n), rng.normal((n, 4)), rng.normal((n, 4)),
                   rng.normal((n, 4)))
        idx = np.array(idx)
        cases.append((state, idx, _changed_frame(rng, state, idx, still)))
    state = AttentionState(16, 4, 1, Policy("top_r", r=1), ledger=CostLedger())
    state.step(np.arange(16), rng.normal((16, 4)), rng.normal((16, 4)),
               rng.normal((16, 4)))
    _changed_frame(rng, state, np.array([3, 8]))
    left = np.setdiff1d([3, 8], handed.pop()[1])
    whole.clear()
    cases.append((state, np.array([12]),
                  _changed_frame(rng, state, np.array([12]), [12])))
    assert len(handed) == len(cases)
    assert whole == [0]   # the value left over: that frame is taken whole
    for (state, rows, snap), (got, v_idx) in zip(cases, handed):
        n, n_kv = state.n, state.n_kv
        cols = attention.pool_index_set(rows, state.grid, state.pool)
        outside = np.setdiff1d(v_idx, cols).size
        patch, _ = frame_plan(n, n_kv, rows.size, cols.size, v_idx.size,
                              outside)
        assert patch == (outside == 0)
        shifted = state.b[0] - state.row_offset[0][:, None]
        want = np.exp(shifted)[:, v_idx] / state.row_sum[0][:, None]
        np.testing.assert_array_equal(got, want)
        if patch:
            assert snap["nonlinear_elems"] == (
                rows.size * n_kv + n * (2 * cols.size + 1)
                + n_kv * state.resynced)
        else:
            assert snap["nonlinear_elems"] == n * n_kv
    # the value gate's columns: the changed one; two of three; the changed
    # cell; two of the three changed cells, 0, 6, 10; the value left over
    assert [idx.tolist() for _, idx in handed] == [[0], [0, 9], [0], [0, 10],
                                                   left.tolist()]


def test_patch_decision_charges_every_value_column(monkeypatch):
    """The softmax is taken whole once patching, with every value column
    charged, would cost at least its N x N_kv exponentials, although the
    patch reads none of them from B when they are the changed columns."""
    n, m = 16, 4
    assert (patched_softmax_exps(n, n, m, m) < n * n
            <= patched_softmax_exps(n, n, m, m) + n * m)
    whole = []
    full_softmax = AttentionState._full_softmax
    monkeypatch.setattr(AttentionState, "_full_softmax",
                        lambda self, h: whole.append(h) or full_softmax(self, h))
    rng = SplitRng(41)
    state = AttentionState(n, 4, 1, Policy("top_r", r=m), ledger=CostLedger())
    state.step(np.arange(n), rng.normal((n, 4)), rng.normal((n, 4)),
               rng.normal((n, 4)))
    idx = np.array([1, 4, 7, 10])
    snap = _changed_frame(rng, state, idx)
    np.testing.assert_array_equal(state.v_gate.last_idx, idx)
    assert whole == [0, 0]   # the first frame, then this one
    assert snap["nonlinear_elems"] == n * n


def test_long_small_stream_keeps_normalizers_and_full_budget_exact():
    n, frames = 16, 10_000
    cfg = ModelConfig(blocks=1, n=n, d=8, heads=2, seed=33,
                      policy=Policy("top_r", r=n))
    stream = StreamConfig(n=n, d=8, frames=frames, mode="sparse_change",
                          rho=0.25, sigma=1.0, seed=34)
    schedule = random_schedule(SplitRng(35), n, frames)
    assert (schedule == 0).any() and (schedule == n).any()
    *deviation, worst_full = normalizer_run(cfg, gen_stream(stream), schedule)
    assert state_within_bounds(deviation)
    assert worst_full < FULL_BUDGET_TOL


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from([("full", 16, 1), ("tokenwise_only", 16, 1),
                             ("stgt", 16, 1), ("spatial_pool", 16, 2),
                             ("spatial_pool", 64, 2), ("spatial_pool", 64, 4)]),
       schedule=st.lists(st.integers(0, 64), min_size=2, max_size=10),
       h=st.none() | st.sampled_from([0.0, 0.1, 0.5, 2.0]),
       seed=st.integers(0, 2**16))
def test_normalizers_hold_under_any_schedule(case, schedule, h, seed):
    """A budget schedule, or a threshold policy (h drawn) without one: the
    live state holds in every frame, and a full-budget frame is exact in
    every mode.  A threshold frame is not asserted exact, not even at
    h = 0: the value gate refreshes A's columns only where V changed."""
    mode, n, pool = case
    if h is None:
        policy, budgets = Policy("top_r", r=n), [n, *(min(r, n) for r in schedule)]
    else:
        policy, budgets = Policy("threshold", h=h), None
    cfg = ModelConfig(blocks=1, n=n, d=8, heads=2, seed=seed, mode=mode,
                      pool_p=pool, policy=policy)
    stream = StreamConfig(n=n, d=8, frames=len(schedule) + 1,
                          mode="sparse_change", rho=0.25, sigma=1.0, seed=seed)
    *deviation, worst_full = normalizer_run(cfg, gen_stream(stream), budgets)
    assert state_within_bounds(deviation)
    assert worst_full < FULL_BUDGET_TOL


def test_ledger_is_closed_form_plus_resynced_rows():
    heads = 2
    for n, d in ((8, 16), (16, 16), (32, 16), (16, 8)):
        for m in range(n + 1):
            ledger = CostLedger()
            model = Model(ModelConfig(blocks=1, n=n, d=d, heads=heads, seed=36,
                                      policy=Policy("top_r", r=m)), ledger=ledger)
            rng = SplitRng(37)
            for t in range(4):
                model.step(rng.normal((n, d)))
                if t == 0:    # and the value gate's changes, its whole input
                    want = count_block_baseline(n, d, heads)
                    want["adds_overhead"] = n * d
                else:
                    want = count_block_eventful(n, m, d, heads)
                    want["nonlinear_elems"] += n * model.blocks[0].attn.resynced
                assert ledger.frames[-1] == want


def test_hires_shape_evaluates_at_most_half_the_exponentials():
    n, d, heads, r = 1024, 192, 3, 128
    ledger = CostLedger()
    model = Model(ModelConfig(blocks=1, n=n, d=d, heads=heads, seed=38,
                              policy=Policy("top_r", r=r)), ledger=ledger)
    stream = StreamConfig(n=n, d=d, frames=4, mode="sparse_change", rho=0.05,
                          sigma=1.0, seed=39)
    for t, frame in enumerate(gen_stream(stream)):
        model.step(frame)
        if t:    # each norm runs on its gate's picks, GELU on the MLP gate's
            picked = model.selected_counts()
            norm_and_gelu = (picked["selected_qkv"] + 5 * picked["selected_mlp"]) * d
            exps = ledger.frames[-1]["nonlinear_elems"] - norm_and_gelu
            assert exps <= heads * n * n // 2
    # the closed form charges both norms and GELU (ratio 4) r rows each
    closed = count_block_eventful(n, r, d, heads)["nonlinear_elems"] - 6 * r * d
    assert closed <= heads * n * n // 2
