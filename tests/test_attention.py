import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokengate import attention, checks
from tokengate.attention import (
    AttentionState,
    AttentionWeights,
    av_delta_update,
    head_merge,
    head_split,
    msa_baseline,
    pool_index_set,
    pool_tokens,
    qk_sparse_update,
)
from tokengate.block import Model, ModelConfig
from tokengate.checks import (
    qk_instances,
    random_attention,
    state_deviation,
    state_within_bounds,
)
from tokengate.costs import CostLedger, NullLedger
from tokengate.gates import DeltaGate, Policy
from tokengate.rng import SplitRng
from tokengate.streams import StreamConfig, gen_stream

from oracles import qk_sparse_update_nonoverlap


def msa_scalar_oracle(x, wq, wk, wv, wp, heads):
    """Self-attention evaluated scalar by scalar with python loops."""
    n, d = x.shape
    dh = d // heads
    q = [[sum(x[i][p] * wq[p][j] for p in range(d)) for j in range(d)]
         for i in range(n)]
    k = [[sum(x[i][p] * wk[p][j] for p in range(d)) for j in range(d)]
         for i in range(n)]
    v = [[sum(x[i][p] * wv[p][j] for p in range(d)) for j in range(d)]
         for i in range(n)]
    merged = [[0.0] * d for _ in range(n)]
    for h in range(heads):
        lo = h * dh
        for i in range(n):
            scores = []
            for j in range(n):
                s = sum(q[i][lo + p] * k[j][lo + p] for p in range(dh))
                scores.append(s / math.sqrt(dh))
            peak = max(scores)
            weights = [math.exp(s - peak) for s in scores]
            total = sum(weights)
            weights = [w / total for w in weights]
            for p in range(dh):
                merged[i][lo + p] = sum(weights[j] * v[j][lo + p]
                                        for j in range(n))
    out = [[sum(merged[i][p] * wp[p][j] for p in range(d)) for j in range(d)]
           for i in range(n)]
    return np.array(out)


def random_weights(rng, d, heads):
    def draw():
        return rng.normal((d, d)) * d ** -0.5

    return AttentionWeights(wq=draw(), wk=draw(), wv=draw(), wp=draw(),
                            heads=heads, bq=np.zeros(d), bk=np.zeros(d),
                            bv=np.zeros(d), bp=np.zeros(d))


class TestHeadSplitMerge:
    def test_single_head_identity(self):
        x = np.arange(12.0).reshape(3, 4)
        np.testing.assert_array_equal(head_split(x, 1)[0], x)

    def test_round_trip(self):
        x = SplitRng(0).normal((5, 8))
        np.testing.assert_array_equal(head_merge(head_split(x, 4)), x)

    def test_column_slicing_convention(self):
        x = np.arange(8.0).reshape(2, 4)
        parts = head_split(x, 2)
        np.testing.assert_array_equal(parts[0], x[:, :2])
        np.testing.assert_array_equal(parts[1], x[:, 2:])

    def test_divisibility(self):
        with pytest.raises(ValueError):
            head_split(np.zeros((2, 5)), 2)

    def test_split_is_a_view(self):
        x = np.arange(8.0).reshape(2, 4)
        assert np.shares_memory(head_split(x, 2), x)


class TestMsaBaseline:
    def test_single_token(self):
        rng = SplitRng(1)
        w = random_weights(rng, 4, 2)
        x = rng.normal((1, 4))
        expect = (x @ w.wv) @ w.wp  # attention weight of the lone token is 1
        np.testing.assert_allclose(msa_baseline(x, w), expect, atol=1e-12)

    def test_permutation_equivariance(self):
        rng = SplitRng(2)
        w = random_weights(rng, 4, 2)
        x = rng.normal((6, 4))
        perm = np.array([3, 0, 5, 1, 4, 2])
        np.testing.assert_allclose(msa_baseline(x[perm], w),
                                   msa_baseline(x, w)[perm], atol=1e-12)

    def test_against_scalar_oracle_small(self):
        rng = SplitRng(3)
        w = random_weights(rng, 2, 1)
        x = rng.normal((2, 2))
        np.testing.assert_allclose(
            msa_baseline(x, w),
            msa_scalar_oracle(x, w.wq, w.wk, w.wv, w.wp, 1), atol=1e-6)

    def test_against_scalar_oracle_multihead(self):
        rng = SplitRng(4)
        w = random_weights(rng, 4, 2)
        x = rng.normal((3, 4))
        np.testing.assert_allclose(
            msa_baseline(x, w),
            msa_scalar_oracle(x, w.wq, w.wk, w.wv, w.wp, 2), atol=1e-6)

    @pytest.mark.parametrize("dh", [4, 16, 64, 8, 32])
    def test_queries_scaled_once_before_the_product(self, dh):
        """The queries carry 1/sqrt(d_head) into Q K^T; scaling the product
        instead gives the same attention, bitwise where sqrt(d_head) is a
        power of two (the division commutes exactly with the product) and
        to rounding elsewhere."""
        rng = SplitRng(5)
        heads = 2
        w = random_weights(rng, heads * dh, heads)
        x = rng.normal((12, heads * dh))
        got = msa_baseline(x, w)
        want = head_merge(np.stack(list(_exact_heads(x, w)))) @ w.wp
        if dh in (4, 16, 64):
            np.testing.assert_array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


class TestQkSparseUpdate:
    def _instance(self, seed, n, dh):
        rng = SplitRng(seed)
        q, k = rng.normal((n, dh)), rng.normal((n, dh))
        b = q @ k.T
        return rng, q, k, b

    def test_full_update_degenerates(self):
        rng, q, k, b = self._instance(5, 4, 3)
        idx = np.arange(4)
        q[idx] = rng.normal((4, 3))
        k[idx] = rng.normal((4, 3))
        qk_sparse_update(b, q, k, idx, idx)
        np.testing.assert_allclose(b, q @ k.T, atol=1e-12)

    @pytest.mark.parametrize("rows", [[1.0], [0.5], np.array([False, True, False, False])],
                             ids=["integral-float", "fraction", "bool-mask"])
    def test_integer_indices_only(self, rows):
        _, q, k, b = self._instance(6, 4, 3)
        before = b.copy()
        with pytest.raises(ValueError, match="indices must be integers"):
            qk_sparse_update(b, q, k, rows, np.array([1]))
        np.testing.assert_array_equal(b, before)

    def test_empty_update_unchanged(self):
        _, q, k, b = self._instance(6, 4, 3)
        before = b.copy()
        qk_sparse_update(b, q, k, np.empty(0, int), np.empty(0, int))
        np.testing.assert_array_equal(b, before)

    def test_single_token_all_entries(self):
        rng, q, k, b = self._instance(7, 3, 2)
        idx = np.array([1])
        q[1] = rng.normal(2)
        k[1] = rng.normal(2)
        qk_sparse_update(b, q, k, idx, idx)
        np.testing.assert_allclose(b, q @ k.T, atol=1e-12)

    def test_row_and_column_sets_differ(self):
        # pooled keys: 8 queries against 3 keys, different changed sets
        rng = SplitRng(12)
        q, k = rng.normal((8, 4)), rng.normal((3, 4))
        b = q @ k.T
        rows, cols = np.array([1, 5, 6]), np.array([2])
        q[rows], k[cols] = rng.normal((3, 4)), rng.normal((1, 4))
        ledger = CostLedger()
        qk_sparse_update(b, q, k, rows, cols, ledger)
        np.testing.assert_allclose(b, q @ k.T, atol=1e-12)
        assert ledger.macs["qk"] == 3 * 3 * 4 + 8 * 1 * 4

    def test_bitwise_equals_the_fancy_index_update(self):
        # rows equal to cols, rows differing from cols (pooled keys), none
        rng = SplitRng(13)
        for n, n_kv, rows, cols in ((8, 8, [1, 4, 6], [1, 4, 6]),
                                    (8, 3, [1, 5, 6], [0, 2]),
                                    (8, 8, [], [])):
            q, k = rng.normal((n, 4)), rng.normal((n_kv, 4))
            b = q @ k.T
            rows, cols = np.array(rows, dtype=int), np.array(cols, dtype=int)
            q[rows], k[cols] = rng.normal((rows.size, 4)), rng.normal((cols.size, 4))
            want = b.copy()
            want[rows, :] = q[rows] @ k.T
            want[:, cols] = (k[cols] @ q.T).T
            new_rows, new_cols = qk_sparse_update(b, q, k, rows, cols)
            np.testing.assert_array_equal(b, want)
            np.testing.assert_array_equal(new_rows, want[rows])
            np.testing.assert_array_equal(new_cols, want[:, cols].T)

    @staticmethod
    def _fancy_reference(n, n_kv, rows, cols, seed):
        """An instance whose rows and cols changed, B before the update, and
        the B after it written through numpy's fancy indexing."""
        rng = SplitRng(seed)
        q, k = rng.normal((n, 4)), rng.normal((n_kv, 4))
        b = q @ k.T
        rows, cols = np.array(rows, dtype=int), np.array(cols, dtype=int)
        q[rows], k[cols] = rng.normal((rows.size, 4)), rng.normal((cols.size, 4))
        want = b.copy()
        want[rows, :] = q[rows] @ k.T
        want[:, cols] = (k[cols] @ q.T).T
        return q, k, b, rows, cols, want

    @pytest.mark.parametrize("rows, cols", [
        ([1, 4, 6], [1, 4, 6]),          # the same set, as without pooling
        ([0, 3, 9], [5, 100, 8191]),     # pooled keys: different sets
        ([2, 8], []),                    # no changed column
        ([], []),
    ], ids=["same", "pooled", "no-cols", "empty"])
    @pytest.mark.parametrize("with_old", [True, False], ids=["old", "no-old"])
    def test_blocked_pass_bitwise_equals_the_fancy_index_update(self, rows, cols,
                                                                 with_old):
        # at N_kv = 8192 a block holds 4 rows of B, so its 10 rows take three
        # blocks, the last one partial
        n, n_kv = 10, 8192
        assert attention.COLUMN_BLOCK_BYTES // (8 * n_kv) == 4
        q, k, b, rows, cols, want = self._fancy_reference(n, n_kv, rows, cols, 16)
        before = b.copy()
        old = np.full((cols.size, n), np.nan) if with_old else None
        new_rows, new_cols = qk_sparse_update(b, q, k, rows, cols, old=old)
        np.testing.assert_array_equal(b, want)
        np.testing.assert_array_equal(new_rows, want[rows])
        np.testing.assert_array_equal(new_cols, want[:, cols].T)
        if with_old:
            np.testing.assert_array_equal(old, before[:, cols].T)

    @pytest.mark.parametrize("shape", [(3, 10), (2, 9), (10, 2), (10,)])
    def test_wrongly_shaped_old_scores_rejected_before_b_changes(self, shape):
        q, k, b, rows, cols, _ = self._fancy_reference(10, 8192, [1], [7, 9], 17)
        before = b.copy()
        old = np.zeros(shape)
        with pytest.raises(ValueError, match="old scores must have shape"):
            qk_sparse_update(b, q, k, rows, cols, old=old)
        np.testing.assert_array_equal(b, before)
        assert not old.any()

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), n=st.integers(1, 12), n_kv=st.integers(1, 12),
           with_old=st.booleans())
    def test_any_blocking_equals_the_fancy_index_update(self, data, n, n_kv,
                                                        with_old):
        rows = data.draw(st.lists(st.integers(0, n - 1), unique=True), "rows")
        cols = data.draw(st.lists(st.integers(0, n_kv - 1), unique=True), "cols")
        block_rows = data.draw(st.integers(1, n + 1), "block_rows")
        rows, cols = sorted(rows), sorted(cols)
        q, k, b, rows, cols, want = self._fancy_reference(n, n_kv, rows, cols,
                                                          n * 13 + n_kv)
        before = b.copy()
        old = np.full((cols.size, n), np.nan) if with_old else None
        with mock.patch.object(attention, "COLUMN_BLOCK_BYTES",
                               block_rows * 8 * n_kv):
            new_rows, new_cols = qk_sparse_update(b, q, k, rows, cols, old=old)
        np.testing.assert_array_equal(b, want)
        np.testing.assert_array_equal(new_rows, want[rows])
        np.testing.assert_array_equal(new_cols, want[:, cols].T)
        if with_old:
            np.testing.assert_array_equal(old, before[:, cols].T)

    def test_overlap_block_holds_the_column_product(self):
        # should the two products round the overlap apart, B and the row
        # product handed back both hold the column product there
        class SkewedRows(NullLedger):
            def matmul(self, category, a, b):
                out = a @ b
                # the row product is the one taken against every key
                return out + 1.0 if np.shares_memory(b, k) else out

        _, q, k, b = self._instance(15, 8, 4)
        idx = np.array([1, 4, 6])
        new_rows, new_cols = qk_sparse_update(b, q, k, idx, idx, SkewedRows())
        np.testing.assert_array_equal(b[np.ix_(idx, idx)], new_cols[:, idx].T)
        np.testing.assert_array_equal(new_rows, b[idx])
        np.testing.assert_array_equal(new_cols, b[:, idx].T)

    def test_invariant_check_covers_the_old_scores(self, monkeypatch):
        # a read-out taken after the write holds the new scores, not the old
        assert checks.check_qk_invariant(20)[1]
        update = checks.qk_sparse_update

        def late_read_out(b, q, k, rows, cols, ledger=None, old=None):
            out = update(b, q, k, rows, cols, ledger, old)
            old[...] = b[:, cols].T
            return out

        monkeypatch.setattr(checks, "qk_sparse_update", late_read_out)
        _, passed, detail = checks.check_qk_invariant(20)
        assert not passed and "differ" in detail

    def test_rejects_a_matrix_that_is_not_c_contiguous(self):
        # a block of a non-contiguous B's rows is not one stretch of memory
        _, q, k, _ = self._instance(14, 6, 3)
        b = (k @ q.T).T
        before = b.copy()
        with pytest.raises(ValueError, match="C-contiguous"):
            qk_sparse_update(b, q, k, np.array([2]), np.array([2]))
        np.testing.assert_array_equal(b, before)

    def test_nonoverlap_equivalence(self):
        # the instances of acceptance criterion 2's invariant sweep
        for b1, q, k, idx in qk_instances(200, seed=2):
            b2 = b1.copy()
            qk_sparse_update(b1, q, k, idx, idx)
            qk_sparse_update_nonoverlap(b2, q, k, idx)
            assert np.abs(b1 - b2).max() < 1e-6

    def test_nonoverlap_degenerate_split(self):
        rng, q, k, b = self._instance(10, 4, 3)
        idx = np.arange(4)
        q_new, k_new = rng.normal((4, 3)), rng.normal((4, 3))
        q[idx], k[idx] = q_new, k_new
        qk_sparse_update_nonoverlap(b, q, k, idx)
        np.testing.assert_allclose(b, q_new @ k_new.T, atol=1e-12)

    def test_mac_counts(self):
        # standard variant costs 2*n*m*dh, the non-overlap one n*m*dh + (n-m)*m*dh
        n, m, dh = 8, 3, 4
        rng = SplitRng(11)
        q, k = rng.normal((n, dh)), rng.normal((n, dh))
        b = q @ k.T
        idx = rng.choice_without_replacement(n, m)
        led_a, led_b = CostLedger(), CostLedger()
        qk_sparse_update(b.copy(), q, k, idx, idx, led_a)
        qk_sparse_update_nonoverlap(b.copy(), q, k, idx, led_b)
        assert led_a.macs["qk"] == 2 * n * m * dh
        assert led_b.macs["qk"] == n * m * dh + (n - m) * m * dh
        assert led_b.macs["qk"] <= led_a.macs["qk"]


class TestAvDeltaUpdate:
    def test_worked_example(self):
        # identity attention over two tokens; then token 0's value row and
        # attention column change, and the cached product must land on the
        # direct product of the updated references
        policy = Policy("top_r", r=1)
        a_gate = DeltaGate(2, 2, policy)
        v_gate = DeltaGate(2, 2, policy)
        a_gate(np.eye(2).T)
        _, u_v, _ = v_gate(np.array([[1.0, 2.0], [3.0, 4.0]]))
        av = np.eye(2) @ u_v

        attn_now = np.array([[0.6, 0.0], [0.4, 1.0]])
        idx, u_v, v_changes = v_gate(np.array([[5.0, 6.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(idx, [0])
        av_delta_update(av, attn_now[:, idx], a_gate, idx, v_changes, u_v[idx])
        np.testing.assert_allclose(av, [[3.0, 3.6], [5.0, 6.4]], atol=1e-12)

    def test_fresh_gates_hold_the_invariant(self):
        # zero references: av = 0 = A_ref^T V_ref before any write, and
        # updates at a partial and then at every column keep it
        rng = SplitRng(14)
        policy = Policy("top_r", r=3)
        a_gate, v_gate = DeltaGate(3, 3, policy), DeltaGate(3, 2, policy)
        av = np.zeros((3, 2))
        np.testing.assert_array_equal(av, a_gate.u.T @ v_gate.u)
        for idx in (np.array([1]), np.arange(3)):
            attn = random_attention(rng, 3)
            v_changes = v_gate.forced(rng.normal((idx.size, 2)), idx)
            av_delta_update(av, attn[:, idx], a_gate, idx, v_changes,
                            v_gate.u[idx])
            np.testing.assert_allclose(av, a_gate.u.T @ v_gate.u, atol=1e-12)

    def test_counts_the_attention_changes(self):
        # |idx| * N subtractions for the attention changes, counted by the
        # attention gate into its ledger, next to the delta products' adds
        # that the update counts into the same ledger
        rng = SplitRng(15)
        n, dh = 4, 3
        ledger = CostLedger()
        a_gate = DeltaGate(n, n, Policy("top_r", r=2), ledger)
        v_gate = DeltaGate(n, dh, Policy())
        av = np.zeros((n, dh))
        idx = np.array([0, 2])
        v_changes = v_gate.forced(rng.normal((idx.size, dh)), idx)
        av_delta_update(av, random_attention(rng, n)[:, idx], a_gate, idx,
                        v_changes, v_gate.u[idx], ledger)
        assert ledger.adds == idx.size * n + v_changes.size + 2 * av.size

    def test_empty_selection_unchanged(self):
        rng = SplitRng(12)
        a_gate = DeltaGate(3, 3, Policy("top_r", r=3))
        attn = random_attention(rng, 3)
        a_gate(attn.T)
        v = rng.normal((3, 2))
        av = attn @ v
        before = av.copy()
        av_delta_update(av, attn[:, :0], a_gate, np.empty(0, int),
                        np.empty((0, 2)), np.empty((0, 2)))
        np.testing.assert_array_equal(av, before)

    def test_full_selection_is_fresh_product(self):
        rng = SplitRng(13)
        n, dh = 4, 3
        policy = Policy("top_r", r=n)
        a_gate = DeltaGate(n, n, policy)
        v_gate = DeltaGate(n, dh, policy)
        attn0 = random_attention(rng, n)
        a_gate(attn0.T)
        _, u_v, _ = v_gate(rng.normal((n, dh)))
        av = attn0 @ u_v
        attn1 = random_attention(rng, n)
        idx, u_v, v_changes = v_gate(rng.normal((n, dh)))
        av_delta_update(av, attn1[:, idx], a_gate, idx, v_changes, u_v[idx])
        np.testing.assert_allclose(av, attn1 @ u_v, atol=1e-10)


class TestPooling:
    def test_four_tokens_to_one(self):
        k = np.arange(8.0).reshape(4, 2)
        v = k + 10
        kp, vp = pool_tokens(k, 2, 2), pool_tokens(v, 2, 2)
        pidx = pool_index_set(np.array([0]), 2, 2)
        np.testing.assert_allclose(kp, k.mean(axis=0, keepdims=True))
        np.testing.assert_allclose(vp, v.mean(axis=0, keepdims=True))
        np.testing.assert_array_equal(pidx, [0])

    def test_pool_one_is_identity(self):
        x = SplitRng(15).normal((9, 3))
        assert pool_tokens(x, 3, 1) is x
        np.testing.assert_array_equal(pool_index_set(np.array([2, 5]), 3, 1),
                                      [2, 5])

    def test_constant_field(self):
        x = np.full((16, 3), 2.5)
        np.testing.assert_allclose(pool_tokens(x, 4, 2), np.full((4, 3), 2.5))

    def test_grid_geometry(self):
        # 4x4 grid pooled 2x2: token 6 sits at row 1, col 2 -> pooled cell 1
        np.testing.assert_array_equal(pool_index_set(np.array([6]), 4, 2), [1])
        np.testing.assert_array_equal(pool_index_set(np.array([12]), 4, 2), [2])
        mean_block = pool_tokens(np.arange(16.0).reshape(16, 1), 4, 2)
        np.testing.assert_allclose(mean_block[:, 0], [2.5, 4.5, 10.5, 12.5])

    def test_errors(self):
        with pytest.raises(ValueError, match="pool size must divide the grid side"):
            pool_tokens(np.zeros((9, 2)), 3, 2)
        with pytest.raises(ValueError, match="pool size must divide the grid side"):
            pool_index_set(np.array([0]), 3, 2)
        with pytest.raises(ValueError):
            pool_tokens(np.zeros((8, 2)), 3, 3)  # token count not grid**2
        with pytest.raises(ValueError):
            AttentionState(16, 4, 2, Policy(), pool=0)  # pool factor below 1


class TestAttentionState:
    def _drive(self, mode, pool, steps, r, seed):
        rng = SplitRng(seed)
        n, d, heads = 16, 8, 2
        policy = Policy("top_r", r=r)
        state = AttentionState(n, d, heads, policy, mode=mode, pool=pool)
        w = random_weights(rng, d, heads)
        x = rng.normal((n, d))
        for t in range(steps):
            if t == 0:
                idx = np.arange(n)
            else:
                idx = rng.choice_without_replacement(n, min(r, n))
                x[idx] = rng.normal((idx.size, d))
            state.step(idx, x[idx] @ w.wq, x[idx] @ w.wk, x[idx] @ w.wv)
        return state

    @pytest.mark.parametrize("pool", [1, 2])
    def test_fresh_state_holds_its_invariants(self, pool):
        state = AttentionState(16, 8, 2, Policy("top_r", r=4), pool=pool)
        assert state_within_bounds(state_deviation(state))

    def test_qk_and_av_invariants_unpooled(self):
        state = self._drive("full", 1, 6, r=5, seed=16)
        assert state_within_bounds(state_deviation(state))

    def test_qk_and_av_invariants_pooled(self):
        state = self._drive("full", 2, 6, r=5, seed=17)
        assert state_within_bounds(state_deviation(state))

    def test_full_budget_matches_exact_attention(self):
        rng = SplitRng(18)
        n, d, heads = 9, 6, 3
        w = random_weights(rng, d, heads)
        state = AttentionState(n, d, heads, Policy("top_r", r=n), mode="full")
        x = rng.normal((n, d))
        for t in range(4):
            if t:
                x = rng.normal((n, d))
            idx = np.arange(n)
            got = state.step(idx, x @ w.wq, x @ w.wk, x @ w.wv)
            want = head_merge(np.stack([
                part for part in _exact_heads(x, w)]))
            assert np.abs(got - want).max() < 1e-10

    @pytest.mark.parametrize("mode, pool", [("full", 1), ("spatial_pool", 2)])
    @pytest.mark.parametrize("policy", [Policy("top_r", r=4),
                                        Policy("threshold", h=0.3)],
                             ids=["top_r", "threshold"])
    def test_patched_frames_hand_the_attention_gates_contiguous_rows(
            self, monkeypatch, mode, pool, policy):
        # the patch builds A's changed columns key-major, the layout of the
        # attention gates' references, so they are written row by row
        n, d, heads, frames = 64, 8, 2, 6
        forced = DeltaGate.forced
        full_softmax = AttentionState._full_softmax
        calls = []     # (width, C-contiguous) of every forced write
        whole = []

        def spy_forced(gate, rows, idx):
            calls.append((gate.u.shape[1], rows.flags.c_contiguous))
            return forced(gate, rows, idx)

        monkeypatch.setattr(DeltaGate, "forced", spy_forced)
        monkeypatch.setattr(AttentionState, "_full_softmax",
                            lambda self, h: whole.append(h) or full_softmax(self, h))
        model = Model(ModelConfig(blocks=1, n=n, d=d, heads=heads, mode=mode,
                                  pool_p=pool, seed=20, policy=policy))
        stream = StreamConfig(n=n, d=d, frames=frames, mode="sparse_change",
                              rho=0.05, sigma=1.0, seed=21)
        for t, frame in enumerate(gen_stream(stream)):
            model.step(frame)
            if t == 0:     # the first frame takes every token, whole
                assert whole == [0, 1]
                whole.clear()
                calls.clear()
        assert whole == []
        assert all(contiguous for _, contiguous in calls)
        # every head's attention gate on every later frame, besides the
        # value gate's own picks
        assert sum(width == n for width, _ in calls) == heads * (frames - 1)

    @pytest.mark.parametrize("mode, pool", [("full", 1), ("spatial_pool", 2)])
    def test_similarity_patched_only_with_the_softmax(self, monkeypatch, mode,
                                                      pool):
        """B goes through ``qk_sparse_update`` on exactly the heads whose
        softmax is patched; on every other frame it holds the oracle's
        product of the buffers, bitwise."""
        n, d, heads = 64, 8, 2
        update, patch = attention.qk_sparse_update, AttentionState._patched_softmax
        patched_b, patched_softmax = [], []

        def spy_update(*args):
            patched_b.append(args[0].ctypes.data)    # the head's B
            return update(*args)

        def spy_patch(state, h, *args):
            patched_softmax.append(state.b[h].ctypes.data)
            return patch(state, h, *args)

        monkeypatch.setattr(attention, "qk_sparse_update", spy_update)
        monkeypatch.setattr(AttentionState, "_patched_softmax", spy_patch)
        model = Model(ModelConfig(blocks=1, n=n, d=d, heads=heads, mode=mode,
                                  pool_p=pool, seed=22,
                                  policy=Policy("top_r", r=n)))
        attn = model.blocks[0].attn
        # every token drifts; 4r + 1 < n patches at pool 1, and 20 and 40
        # take B whole although its patch alone is below its MAC parity
        schedule = [n, 2, 12, 20, 40, 2, n]
        stream = StreamConfig(n=n, d=d, frames=len(schedule), mode="drift",
                              eps=0.1, seed=23)
        whole_frames = []
        for r, frame in zip(schedule, gen_stream(stream)):
            patched_b.clear()
            patched_softmax.clear()
            model.set_budget(r)
            model.step(frame)
            assert patched_b == patched_softmax
            if patched_b:
                assert len(patched_b) == heads
                continue
            whole_frames.append(r)
            qh = head_split(attn.q_buf.b, heads)
            kh = head_split(pool_tokens(attn.k_buf.b, attn.grid, attn.pool), heads)
            for h in range(heads):
                np.testing.assert_array_equal(attn.b[h], qh[h] @ kh[h].T)
        if pool == 1:
            assert whole_frames == [n, 20, 40, n]
        assert n in whole_frames and 2 not in whole_frames

    def test_attention_rows_sum_to_one(self):
        from tokengate.kernels import softmax_rows
        state = self._drive("full", 1, 4, r=4, seed=19)
        for h in range(state.heads):
            attn = softmax_rows(state.b[h])
            np.testing.assert_allclose(attn.sum(axis=1), 1.0, atol=1e-6)


def _exact_heads(x, w):
    """Per-head softmax(Q K^T / sqrt(d_head)) V, the scale applied to the
    product."""
    from tokengate.kernels import softmax_rows

    q, k, v = x @ w.wq, x @ w.wk, x @ w.wv
    qh, kh, vh = (head_split(t, w.heads) for t in (q, k, v))
    dh = q.shape[1] // w.heads
    for h in range(w.heads):
        yield softmax_rows(qh[h] @ kh[h].T / np.sqrt(dh)) @ vh[h]


class TestPooledBaseline:
    def test_reduces_to_plain_when_pool_is_one(self):
        rng = SplitRng(20)
        w = random_weights(rng, 4, 2)
        x = rng.normal((4, 4))
        np.testing.assert_array_equal(msa_baseline(x, w, pool=1),
                                      msa_baseline(x, w))

    def test_pooled_scores_have_reduced_key_axis(self):
        rng = SplitRng(21)
        w = random_weights(rng, 4, 2)
        x = rng.normal((16, 4))
        ledger = CostLedger()
        msa_baseline(x, w, ledger, 2)
        # qk cost: per head 16 queries x 4 pooled keys x dh=2 -> 2 heads = 256
        assert ledger.macs["qk"] == 16 * 4 * 2 * 2
