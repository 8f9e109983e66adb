import numpy as np
import pytest

from tokengate import block as block_module
from tokengate.attention import (
    AttentionWeights,
    msa_baseline,
    pool_index_set,
    pool_tokens,
)
from tokengate.block import (
    MODES,
    GatedBlock,
    Model,
    ModelConfig,
    BlockWeights,
    block_baseline,
    init_model_weights,
)
from tokengate.checks import state_deviation, state_within_bounds
from tokengate.costs import MLP_RATIO, CostLedger
from tokengate.gates import Policy
from tokengate.kernels import gelu, layer_norm
from tokengate.rng import SplitRng
from tokengate.streams import StreamConfig, gen_stream


def mlp(x, w1, b1, w2, b2):
    """Reference two-layer perceptron: gelu(x w1 + b1) w2 + b2."""
    return gelu(x @ w1 + b1) @ w2 + b2


def rel_err(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def make_weights(seed, d=8, heads=2):
    cfg = ModelConfig(blocks=1, n=16, d=d, heads=heads, seed=seed)
    return init_model_weights(cfg).blocks[0]


def zero_weights(d=4, heads=2):
    hidden = MLP_RATIO * d
    attn = AttentionWeights(wq=np.zeros((d, d)), wk=np.zeros((d, d)),
                            wv=np.zeros((d, d)), wp=np.zeros((d, d)),
                            heads=heads, bq=np.zeros(d), bk=np.zeros(d),
                            bv=np.zeros(d), bp=np.zeros(d))
    return BlockWeights(attn=attn, w1=np.zeros((d, hidden)),
                        b1=np.zeros(hidden), w2=np.zeros((hidden, d)),
                        b2=np.zeros(d), ln1_gamma=np.ones(d),
                        ln1_beta=np.zeros(d), ln2_gamma=np.ones(d),
                        ln2_beta=np.zeros(d))


class TestBlockBaseline:
    def test_zero_weights_identity(self):
        x = SplitRng(0).normal((5, 4))
        np.testing.assert_allclose(block_baseline(x, zero_weights()), x,
                                   atol=1e-12)

    def test_composition_oracle(self):
        w = make_weights(1)
        x = SplitRng(2).normal((16, 8))
        xn = layer_norm(x, w.ln1_gamma, w.ln1_beta)
        y = msa_baseline(xn, w.attn) + x
        yn = layer_norm(y, w.ln2_gamma, w.ln2_beta)
        z = mlp(yn, w.w1, w.b1, w.w2, w.b2) + y
        np.testing.assert_allclose(block_baseline(x, w), z, atol=1e-6)

    def test_statelessness(self):
        w = make_weights(3)
        frames = SplitRng(4).normal((3, 16, 8))
        separate = [block_baseline(f, w) for f in frames]
        again = [block_baseline(f, w) for f in frames]
        for a, b in zip(separate, again):
            np.testing.assert_array_equal(a, b)


class TestGatedBlock:
    def _stream(self, seed, frames=5, n=16, d=8):
        return gen_stream(StreamConfig(n=n, d=d, frames=frames,
                                       mode="sparse_change", rho=0.25,
                                       sigma=1.0, seed=seed))

    @pytest.mark.parametrize("mode", ["full", "tokenwise_only", "stgt"])
    def test_full_budget_matches_baseline(self, mode):
        w = make_weights(5)
        block = GatedBlock(w, 16, Policy("top_r", r=16), mode=mode)
        for frame in self._stream(6):
            got = block.step(frame)
            assert rel_err(got, block_baseline(frame, w)) < 1e-5

    def test_static_stream_freezes_output(self):
        w = make_weights(7)
        block = GatedBlock(w, 16, Policy("top_r", r=3))
        frame = SplitRng(8).normal((16, 8))
        first = block.step(frame)
        for _ in range(4):
            out = block.step(frame)
            assert rel_err(out, first) < 1e-5

    def test_error_shrinks_with_budget(self):
        # 20-seed average of final-output error, r=4 versus r=12
        means = {}
        for r in (4, 12):
            errs = []
            for seed in range(20):
                w = make_weights(100 + seed)
                block = GatedBlock(w, 16, Policy("top_r", r=r))
                for frame in self._stream(200 + seed, frames=8):
                    got = block.step(frame)
                    errs.append(rel_err(got, block_baseline(frame, w)))
            means[r] = np.mean(errs)
        assert means[12] <= means[4]

    def test_budget_saturation_selects_all(self):
        # at r = N a gate takes every token that differs from its reference:
        # the qkv gate the redrawn and earlier skipped ones, the later gates
        # every token, since attention mixes the changes into all of them
        w = make_weights(9)
        block = GatedBlock(w, 16, Policy("top_r", r=2))
        stream = self._stream(10, frames=3)
        block.step(stream[0])
        block.step(stream[1])
        block.policy.set_budget(16)
        before = block.gate_qkv.u.copy()
        block.step(stream[2])
        changed = np.flatnonzero((stream[2] != before).any(axis=1))
        assert 4 < changed.size < 16
        np.testing.assert_array_equal(block.gate_qkv.last_idx, changed)
        np.testing.assert_array_equal(block.gate_qkv.u, stream[2])
        assert block.selected_counts() == {
            "selected_qkv": changed.size, "selected_p": 16, "selected_mlp": 16}

    def test_budget_zero_freezes(self):
        w = make_weights(11)
        block = GatedBlock(w, 16, Policy("top_r", r=4))
        stream = self._stream(12, frames=4)
        out1 = block.step(stream[0])
        block.policy.set_budget(0)
        out2 = block.step(stream[1])
        out3 = block.step(stream[2])
        assert block.selected_counts()["selected_qkv"] == 0
        # downstream state is frozen, so the residual path carries the only change
        np.testing.assert_allclose(out3 - stream[2], out2 - stream[1],
                                   atol=1e-12)

    def test_schedule_full_throttle_full(self):
        # the qkv gate takes min(r, changed) after the first frame: r = 2 of
        # the 4 redrawn tokens, then at r = N every token whose block input
        # differs from its reference; the MLP gate sees every token change
        w = make_weights(13)
        n = 16
        block = GatedBlock(w, n, Policy("top_r", r=n))
        stream = self._stream(14, frames=3)
        counts, changed = [], [n]
        for t, (frame, r) in enumerate(zip(stream, [n, 2, n])):
            if t > 0:
                changed.append(int((frame != block.gate_qkv.u).any(axis=1).sum()))
            block.policy.set_budget(r)
            block.step(frame)
            counts.append(block.selected_counts())
        assert changed[1] == 4 and changed[2] > 2
        assert [c["selected_qkv"] for c in counts] == [n, 2, changed[2]]
        assert [c["selected_mlp"] for c in counts] == [n, 2, n]

    def test_layer_norms_see_only_the_picked_rows(self, monkeypatch):
        # below r = N each norm runs on its gate's picks, and row for row it
        # gives what the norm of the whole residual stream gives there
        w = make_weights(33)
        block = GatedBlock(w, 16, Policy("top_r", r=3))
        stream = self._stream(34, frames=3)
        for frame in stream[:2]:
            block.step(frame)
        calls = []

        def recording_norm(x, gamma, beta):
            out = layer_norm(x, gamma, beta)
            calls.append((x.copy(), gamma, out))
            return out

        monkeypatch.setattr(block_module, "layer_norm", recording_norm)
        frame = stream[2]
        block.step(frame)
        (x1, g1, n1), (x2, g2, n2) = calls
        assert g1 is w.ln1_gamma and g2 is w.ln2_gamma
        idx, idx_m = block.gate_qkv.last_idx, block.gate_mlp.last_idx
        assert 0 < idx.size <= 3 and idx_m.size == 3
        np.testing.assert_array_equal(x1, frame[idx])
        np.testing.assert_array_equal(
            n1, layer_norm(frame, w.ln1_gamma, w.ln1_beta)[idx])
        y = block.p_buf.b + frame    # the MLP residual, as the step forms it
        np.testing.assert_array_equal(x2, y[idx_m])
        np.testing.assert_array_equal(
            n2, layer_norm(y, w.ln2_gamma, w.ln2_beta)[idx_m])

    def test_tokenwise_savings_accounting(self):
        # after the first frame the qkv gate takes the 4 tokens redrawn per
        # frame, below r = 5; attention moves every token of the later gates
        w = make_weights(15)
        block = GatedBlock(w, 16, Policy("top_r", r=5))
        for t, frame in enumerate(self._stream(16, frames=4)):
            block.step(frame)
            expected = dict.fromkeys(("selected_qkv", "selected_p",
                                      "selected_mlp"), 16 if t == 0 else 5)
            if t:
                expected["selected_qkv"] = 4
            assert block.selected_counts() == expected

    def test_negative_budget_rejected(self):
        w = make_weights(17)
        block = GatedBlock(w, 16, Policy("top_r", r=4))
        with pytest.raises(ValueError):
            block.policy.set_budget(-1)

    def test_spatial_pool_full_budget_matches_pooled_oracle(self):
        w = make_weights(18)
        block = GatedBlock(w, 16, Policy("top_r", r=16), mode="spatial_pool",
                           pool_p=2)
        for frame in self._stream(19):
            got = block.step(frame)
            want = block_baseline(frame, w, pool_p=2)
            assert rel_err(got, want) < 1e-5


class TestModel:
    def test_no_blocks_head_of_embedded_mean(self):
        cfg = ModelConfig(blocks=0, n=8, d=4, heads=2, seed=20)
        model = Model(cfg)
        frame = SplitRng(21).normal((8, 4))
        tokens, scores = model.step(frame)
        np.testing.assert_array_equal(tokens, frame + model.weights.pos_embed)
        np.testing.assert_allclose(
            scores, tokens.mean(axis=0) @ model.weights.head_w, atol=1e-12)

    def test_full_budget_end_to_end(self):
        cfg = ModelConfig(blocks=3, n=16, d=8, heads=2, seed=22,
                          policy=Policy("top_r", r=16))
        model = Model(cfg)
        for frame in gen_stream(StreamConfig(n=16, d=8, frames=5, seed=23)):
            tokens, scores = model.step(frame)
            exact_tokens, exact_scores = model.baseline_frame(frame)
            assert rel_err(tokens, exact_tokens) < 1e-5
            assert rel_err(scores, exact_scores) < 1e-5

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n, d", [(16, 8), (64, 16)])
    def test_full_budget_frames_are_bitwise_exact(self, mode, n, d):
        # every gate takes all tokens on an r = N frame, so the step runs the
        # oracle's products on the same operands, mid-stream ones included
        schedule = [n, 4, n, 1, 0, n]
        cfg = ModelConfig(blocks=2, n=n, d=d, heads=2, seed=27, mode=mode,
                          pool_p=2 if mode == "spatial_pool" else 1)
        model = Model(cfg)
        stream = StreamConfig(n=n, d=d, frames=len(schedule), mode="drift",
                              eps=0.1, seed=28)
        for r, frame in zip(schedule, gen_stream(stream)):
            model.set_budget(r)
            tokens, scores = model.step(frame)
            if r == n:
                exact_tokens, exact_scores = model.baseline_frame(frame)
                assert np.array_equal(tokens, exact_tokens)
                assert np.array_equal(scores, exact_scores)

    @pytest.mark.parametrize("mode", MODES)
    def test_full_budget_frames_on_a_sparse_stream(self, mode):
        # unchanged tokens keep buffer rows computed in smaller batches, whose
        # products round differently; stgt gates fill the budget, so there
        # an r = N frame still runs the oracle's operands
        n, d = 64, 16
        schedule = [n, 4, n, 1, 0, n]
        cfg = ModelConfig(blocks=2, n=n, d=d, heads=2, seed=27, mode=mode,
                          pool_p=2 if mode == "spatial_pool" else 1)
        model = Model(cfg)
        stream = StreamConfig(n=n, d=d, frames=len(schedule),
                              mode="sparse_change", rho=0.1, seed=28)
        for r, frame in zip(schedule, gen_stream(stream)):
            model.set_budget(r)
            tokens, scores = model.step(frame)
            if r == n:
                exact_tokens, exact_scores = model.baseline_frame(frame)
                assert rel_err(tokens, exact_tokens) < 1e-12
                assert rel_err(scores, exact_scores) < 1e-12
                if mode == "stgt":
                    assert np.array_equal(tokens, exact_tokens)

    def test_argmax_agreement_improves_with_budget(self):
        agreement = {}
        for r in (2, 8):
            hits = total = 0
            for seed in range(20):
                cfg = ModelConfig(blocks=1, n=16, d=8, heads=2, seed=seed,
                                  policy=Policy("top_r", r=r))
                model = Model(cfg)
                stream = gen_stream(StreamConfig(
                    n=16, d=8, frames=20, mode="sparse_change", rho=0.25,
                    sigma=1.0, seed=300 + seed))
                for frame in stream:
                    _, scores = model.step(frame)
                    _, exact = model.baseline_frame(frame)
                    hits += np.argmax(scores) == np.argmax(exact)
                    total += 1
            agreement[r] = hits / total
        assert agreement[8] >= agreement[2]

    def test_mode_consistency_at_full_budget(self):
        frames = gen_stream(StreamConfig(n=16, d=8, frames=4, seed=24))
        outputs = {}
        for mode in ("full", "tokenwise_only"):
            cfg = ModelConfig(blocks=2, n=16, d=8, heads=2, seed=25, mode=mode,
                              policy=Policy("top_r", r=16))
            model = Model(cfg)
            outputs[mode] = [model.step(f)[0] for f in frames]
        for a, b in zip(outputs["full"], outputs["tokenwise_only"]):
            assert rel_err(a, b) < 1e-10

    @pytest.mark.parametrize("mode, pool", [
        ("full", 2), ("tokenwise_only", 4), ("stgt", 2), ("spatial_pool", 1)])
    def test_pool_factor_the_mode_would_ignore_rejected(self, mode, pool):
        with pytest.raises(ValueError, match="pool_p"):
            ModelConfig(n=16, mode=mode, pool_p=pool)
        with pytest.raises(ValueError, match="pool_p"):
            GatedBlock(make_weights(26), 16, Policy("top_r", r=4), mode=mode,
                       pool_p=pool)

    @pytest.mark.parametrize("field, value", [
        ("blocks", -1), ("n", 0), ("d", 0), ("heads", 0)])
    def test_empty_or_negative_shape_rejected(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} "):
            ModelConfig(**{field: value})

    @pytest.mark.parametrize("policy", ["top_r", None, {"kind": "top_r", "r": 4}])
    def test_policy_that_is_not_a_policy_rejected(self, policy):
        with pytest.raises(ValueError, match="^policy must be a Policy"):
            ModelConfig(policy=policy)

    def test_num_classes_is_fixed(self):
        assert ModelConfig().num_classes == 10
        with pytest.raises(TypeError, match="num_classes"):
            ModelConfig(num_classes=3)

    def test_mlp_ratio_is_fixed_at_four(self):
        assert MLP_RATIO == 4
        assert init_model_weights(ModelConfig(d=8)).blocks[0].w1.shape == (8, 32)
        with pytest.raises(TypeError, match="mlp_ratio"):
            ModelConfig(mlp_ratio=4)

    def test_frame_shape_validated(self):
        model = Model(ModelConfig(blocks=1, n=8, d=4, heads=2, seed=26))
        with pytest.raises(ValueError):
            model.step(np.zeros((4, 4)))

    def test_nested_list_frame_matches_array_frame(self):
        cfg = ModelConfig(blocks=2, n=16, d=8, heads=2, seed=29)
        frames = gen_stream(StreamConfig(n=16, d=8, frames=4, seed=30))
        from_arrays, from_lists = Model(cfg), Model(cfg)
        for frame in frames:
            tokens, logits = from_arrays.step(frame)
            tokens_l, logits_l = from_lists.step(frame.tolist())
            np.testing.assert_array_equal(tokens_l, tokens)
            np.testing.assert_array_equal(logits_l, logits)
        np.testing.assert_array_equal(from_lists.baseline_frame(frame.tolist())[0],
                                      from_arrays.baseline_frame(frame)[0])

    @pytest.mark.parametrize("bad", [[[0.0] * 4] * 7 + [[0.0] * 3],
                                     [["x"] * 4] * 8],
                             ids=["ragged", "non-numeric"])
    def test_malformed_frame_rejected_without_touching_state(self, bad):
        cfg = ModelConfig(blocks=1, n=8, d=4, heads=2, seed=31)
        ledger = CostLedger()
        model = Model(cfg, ledger=ledger)
        model.step(SplitRng(32).normal((8, 4)))
        blk = model.blocks[0]
        stores = (blk.gate_qkv.u, blk.gate_p.u, blk.gate_mlp.u, blk.p_buf.b,
                  blk.mlp_buf.b, blk.attn.b, blk.attn.av, blk.attn.v_gate.u)
        before = [store.copy() for store in stores]
        macs = dict(ledger.macs)
        with pytest.raises(ValueError, match="frame must be an array of numbers"):
            model.step(bad)
        assert ledger.macs == macs and len(ledger.frames) == 1
        for store, kept in zip(stores, before):
            np.testing.assert_array_equal(store, kept)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_frame_rejected_without_touching_state(self, bad):
        n = 16
        cfg = ModelConfig(blocks=2, n=n, d=8, heads=2, seed=27,
                          policy=Policy("top_r", r=n))
        frames = gen_stream(StreamConfig(n=n, d=8, frames=10, seed=28))
        frames[1, 3, 2] = bad
        ledger = CostLedger()
        model = Model(cfg, ledger=ledger)
        model.step(frames[0])
        macs = dict(ledger.macs)
        for run in (model.step, model.baseline_frame):
            with pytest.raises(ValueError, match="non-finite"):
                run(frames[1])
        assert ledger.macs == macs and len(ledger.frames) == 1
        for frame in frames[2:]:
            tokens, _ = model.step(frame)
            exact, _ = model.baseline_frame(frame)
            assert rel_err(tokens, exact) < 1e-5


def _value_gate_frames(mode, policy, rho, seed):
    """Step a 2-block model of 64 tokens under policy over a sparse_change
    stream; after each frame but the first, yield each block with the
    value gate's and the qkv gate's references and the pooled values
    before the frame."""
    n = 64
    cfg = ModelConfig(blocks=2, n=n, d=8, heads=2, seed=seed, mode=mode,
                      pool_p=2 if mode == "spatial_pool" else 1,
                      policy=policy)
    model = Model(cfg)
    stream = StreamConfig(n=n, d=8, frames=8, mode="sparse_change", rho=rho,
                          seed=seed + 1)
    for t, frame in enumerate(gen_stream(stream)):
        before = [(blk.attn.v_gate.u.copy(), blk.gate_qkv.u.copy(),
                   _pooled_values(blk.attn)) for blk in model.blocks]
        model.step(frame)
        if t:
            for blk, refs in zip(model.blocks, before):
                yield blk, *refs


def _pooled_values(attn):
    return pool_tokens(attn.v_buf.b, attn.grid, attn.pool).copy()


def _change_norms(gate, before, idx):
    return np.linalg.norm(gate.u[idx] - before[idx], axis=1)


class TestValueGate:
    @pytest.mark.parametrize("mode, policy", [
        ("full", Policy("top_r", r=8)),
        ("spatial_pool", Policy("top_r", r=8)),
        ("full", Policy("threshold", h=0.3)),
        ("spatial_pool", Policy("threshold", h=0.3)),
    ], ids=["full", "spatial_pool", "full-threshold", "spatial_pool-threshold"])
    def test_takes_only_changed_columns_below_a_full_budget(self, mode, policy):
        # every pick is a column whose value changed on the frame, among the
        # frame's changed columns; under top_r no changed column is left
        # over, so the value gate's reference is the pooled value buffer
        # after every frame, while a threshold leaves changes below h over
        picks = left_over = 0
        for blk, v_ref, _, v_before in _value_gate_frames(mode, policy,
                                                          rho=0.1, seed=40):
            attn = blk.attn
            idx = attn.v_gate.last_idx
            assert (_change_norms(attn.v_gate, v_ref, idx) > 0).all()
            v_now = _pooled_values(attn)
            assert (np.linalg.norm(v_now[idx] - v_before[idx], axis=1) > 0).all()
            cols = pool_index_set(blk.gate_qkv.last_idx, attn.grid, attn.pool)
            assert np.isin(idx, cols).all()
            left_over += (attn.v_gate.u != v_now).any(axis=1).sum()
            picks += idx.size
        assert picks > 0
        assert (left_over == 0) == (policy.kind == "top_r")

    def test_takes_every_column_at_a_budget_of_every_pooled_column(self):
        # N_kv = 16 <= r = 20 < N = 64: the value gate takes every column,
        # unchanged ones too, while the qkv gate skips unchanged tokens
        unchanged_columns = skipped_tokens = 0
        for blk, v_ref, qkv_ref, _ in _value_gate_frames(
                "spatial_pool", Policy("top_r", r=20), rho=0.1, seed=42):
            attn = blk.attn
            idx = attn.v_gate.last_idx
            np.testing.assert_array_equal(idx, np.arange(attn.n_kv))
            unchanged_columns += (_change_norms(attn.v_gate, v_ref, idx) == 0).sum()
            rows = blk.gate_qkv.last_idx
            assert (_change_norms(blk.gate_qkv, qkv_ref, rows) > 0).all()
            skipped_tokens += 20 - rows.size
            assert state_within_bounds(state_deviation(attn))
        assert unchanged_columns > 0 and skipped_tokens > 0

