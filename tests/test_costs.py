import itertools

import numpy as np
import pytest

from oracles import run_instrumented_block
from tokengate.attention import AttentionState
from tokengate.block import (
    GatedBlock,
    Model,
    ModelConfig,
    block_baseline,
    init_model_weights,
)
from tokengate.costs import (
    CostLedger,
    NullLedger,
    cost_record,
    count_block_baseline,
    count_block_eventful,
    frame_plan,
    memory_report,
    patched_softmax_exps,
)
from tokengate.gates import Buffer, Gate, Policy
from tokengate.rng import SplitRng
from tokengate.streams import StreamConfig, gen_stream


class TestBaselineFormula:
    def test_unit_case(self):
        # token-wise 3 + 1 + 2 * 4, one MAC each for qk and av
        assert count_block_baseline(1, 1, 1)["macs_total"] == 14

    def test_quadratic_growth(self):
        small = count_block_baseline(8, 16, 2)["macs_total"]
        double = count_block_baseline(16, 16, 2)["macs_total"]
        assert double > 2 * small

    def test_matches_instrumented_baseline(self):
        n, d, heads = 8, 4, 2
        cfg = ModelConfig(blocks=1, n=n, d=d, heads=heads, seed=41)
        weights = init_model_weights(cfg)
        ledger = CostLedger()
        ledger.begin_frame()
        block_baseline(SplitRng(42).normal((n, d)), weights.blocks[0],
                       ledger=ledger)
        snap = ledger.end_frame()
        assert snap == count_block_baseline(n, d, heads)

    def test_head_divisibility(self):
        with pytest.raises(ValueError):
            count_block_baseline(4, 6, 4)


class TestEventfulFormula:
    def test_paper_scale_qk_update(self):
        cost = count_block_eventful(4096, 768, 768, 12)
        assert cost["macs_qk"] == 2 * 4096 * 768 * 768 == 4_831_838_208
        assert count_block_baseline(4096, 768, 12)["macs_qk"] == 12_884_901_888

    def test_full_budget_products_at_oracle_cost(self):
        n, d = 32, 16
        cost = count_block_eventful(n, n, d, 2)
        base = count_block_baseline(n, d, 2)
        assert cost["macs_qk"] == cost["macs_av"] == base["macs_qk"] == n * n * d

    @pytest.mark.parametrize("n", [8, 9, 16])
    def test_delta_adds_only_while_patching_pays(self, n):
        d, heads = 16, 2
        for m in range(n + 1):
            # the four gates' error subtractions, the value gate's changes
            gates_only = 4 * n * d + m * d
            adds = count_block_eventful(n, m, d, heads)["adds_overhead"]
            if 0 < 2 * m < n:     # forced-gate changes and delta-product adds
                assert adds == gates_only + heads * m * n + 2 * n * d + m * d
            else:                 # 2m = n is the tie: products taken whole
                assert adds == gates_only, (n, m)

    @pytest.mark.parametrize("n", [8, 9, 16, 17])
    def test_similarity_whole_once_the_softmax_patch_reaches_parity(self, n):
        d = 16
        for m in range(1, n + 1):
            qk = count_block_eventful(n, m, d, 2)["macs_qk"]
            assert qk == (2 * n * m * d if 4 * m + 1 < n else n * n * d), (n, m)

    def test_ledger_takes_the_similarity_whole_below_half(self):
        # (n - 1) / 4 <= m < n / 2: B's patch alone is below its MAC parity,
        # the softmax's is not, so both are taken whole
        n, m, d, heads = 16, 4, 16, 2
        ledger, block = run_instrumented_block(n, d, heads, "full", r=m)
        want = count_block_eventful(n, m, d, heads)
        assert want["macs_qk"] == n * n * d > 2 * n * m * d
        assert want["macs_av"] == 2 * n * m * d
        assert block.attn.resynced == 0
        assert ledger.frames[-1] == want

    def test_crossover_at_half(self):
        for n in (8, 16, 32, 64):
            base = count_block_baseline(n, 16, 2)
            base_products = base["macs_qk"] + base["macs_av"]
            for m in range(n + 1):
                ev = count_block_eventful(n, m, 16, 2)
                saves = (ev["macs_qk"] + ev["macs_av"]) < base_products
                assert saves == (m < n / 2), (n, m)

    def test_tokenwise_mode_keeps_full_products(self):
        cost = count_block_eventful(16, 4, 8, 2, mode="tokenwise_only")
        assert cost["macs_qk"] == cost["macs_av"] == 16 * 16 * 8
        assert (cost["macs_token_wise"]
                == count_block_eventful(16, 4, 8, 2)["macs_token_wise"])

    def test_m_bounds(self):
        with pytest.raises(ValueError):
            count_block_eventful(8, 9, 16, 2)

    def test_no_closed_form_for_pooled(self):
        with pytest.raises(ValueError):
            count_block_eventful(16, 4, 8, 2, mode="spatial_pool")


def _plan_grid():
    """Every frame geometry of up to 8 queries, keys and value columns."""
    for n, n_kv, rows, cols, values in itertools.product(
            range(1, 9), range(1, 9), range(9), range(9), range(1, 9)):
        if n_kv <= n and rows <= n and cols <= n_kv and values <= n_kv:
            yield n, n_kv, rows, cols, values


class TestFramePlan:
    def test_softmax_taken_whole_at_parity(self):
        # 2 * 8 + 16 * (2 * 2 + 1) + 16 * 2 = 128 = n * n_kv: every query,
        # the changed ones included, pays the patch
        assert patched_softmax_exps(16, 8, 2, 2) + 16 * 2 == 16 * 8
        assert frame_plan(16, 8, 2, 2, 2, 0) == (False, False)
        assert frame_plan(16, 8, 2, 2, 1, 0) == (True, False)

    def test_similarity_below_its_parity_taken_whole_with_the_softmax(self):
        # B's patch alone costs 3 * 4 + 8 * 2 = 28 < 32 MACs per head width,
        # the softmax's 3 * 4 + 8 * (2 * 2 + 1) = 52 >= 32 exponentials
        assert 3 * 4 + 8 * 2 < 8 * 4 <= patched_softmax_exps(8, 4, 3, 2)
        assert frame_plan(8, 4, 3, 2, 0, 0) == (False, False)
        # at B's parity, 4 * 4 + 8 * 2 = 32
        assert frame_plan(8, 4, 4, 2, 0, 0) == (False, False)

    def test_attention_value_taken_whole_at_half_the_columns(self):
        assert frame_plan(8, 4, 2, 2, 2, 0)[1]
        assert not frame_plan(8, 4, 1, 1, 1, 0)[1]

    def test_similarity_patched_only_below_its_parity(self):
        """B is patched only with the softmax, and then below its MAC
        parity; some frames below that parity take both whole."""
        moved = 0
        for n, n_kv, rows, cols, values in _plan_grid():
            below = rows * n_kv + n * cols < n * n_kv
            for outside in range(max(0, values - cols), values + 1):
                geometry = (n, n_kv, rows, cols, values, outside)
                patch, _ = frame_plan(*geometry)
                assert below or not patch, geometry
                moved += below and not patch
        assert moved > 0

    def test_a_patched_frame_never_takes_the_attention_value_product_whole(self):
        """At most cols of the values lie among the changed columns, so a
        patch, which needs outside = 0, has values <= cols, and its
        n(2 cols + 1) exponentials pass n n_kv once 2 values >= n_kv."""
        patched = 0
        for n, n_kv, rows, cols, values in _plan_grid():
            for outside in range(max(0, values - cols), values + 1):
                geometry = (n, n_kv, rows, cols, values, outside)
                patch, whole_av = frame_plan(*geometry)
                assert not (patch and whole_av), geometry
                patched += patch
        assert patched > 0

    def test_a_value_column_outside_the_changed_ones_never_patches(self):
        patched = 0
        for n, n_kv, rows, cols, values in _plan_grid():
            for outside in range(max(1, values - cols), values + 1):
                assert not frame_plan(n, n_kv, rows, cols, values, outside)[0]
            if values <= cols:
                patched += frame_plan(n, n_kv, rows, cols, values, 0)[0]
        assert patched > 0

    @pytest.mark.parametrize("cols, values, outside",
                             [(0, 1, 0), (2, 4, 1), (2, 1, 2)],
                             ids=["values-beyond-the-changed", "too-few-outside",
                                  "more-outside-than-values"])
    def test_a_geometry_that_cannot_occur_is_rejected(self, cols, values,
                                                      outside):
        with pytest.raises(ValueError, match="cannot occur"):
            frame_plan(8, 8, 2, cols, values, outside)


def test_end_frame_needs_begin_frame():
    with pytest.raises(RuntimeError, match="end_frame without begin_frame"):
        CostLedger().end_frame()
    ledger = NullLedger()
    assert ledger.end_frame() is None
    assert ledger.frames == []


class TestInstrumentedAgreement:
    # the full mode's ledger is checked against the closed form by
    # test_normalizers.py::test_ledger_is_closed_form_plus_resynced_rows

    @pytest.mark.parametrize("mode", ["tokenwise_only", "stgt"])
    def test_other_modes_ledger_equals_formula(self, mode):
        n, m, d, heads = 16, 4, 8, 2
        ledger, _ = run_instrumented_block(n, d, heads, mode, m)
        formula = count_block_eventful(n, m, d, heads, mode)
        assert ledger.frames[-1] == formula

    def test_first_frame_ledgered_separately(self):
        # the first frame pays the exact block's work and no gate overhead
        # but the value gate's changes, its whole input; the steady-state
        # totals are every later frame
        for mode in ("full", "tokenwise_only", "stgt"):
            for n, d in ((16, 16), (9, 6), (32, 8)):
                ledger, _ = run_instrumented_block(n, d, 2, mode, n // 4)
                first = count_block_baseline(n, d, 2)
                if mode == "full":
                    first["adds_overhead"] = n * d
                assert ledger.frames[0] == first
                steady = ledger.steady_state_totals()
                assert steady == {key: sum(snap[key] for snap in ledger.frames[1:])
                                  for key in steady}

    def test_ledger_monotone_and_disjoint(self):
        ledger, _ = run_instrumented_block(16, 16, 2, "full", 4, frames=5)
        running = 0
        for snap in ledger.frames:
            assert snap["macs_total"] >= 0
            parts = (snap["macs_token_wise"] + snap["macs_qk"] + snap["macs_av"]
                     + snap["macs_gate_overhead"])
            assert parts == snap["macs_total"]
            running += snap["macs_total"]
        assert running == sum(ledger.macs.values())

    @pytest.mark.parametrize("mode, pool", [("full", 1), ("spatial_pool", 2)])
    def test_model_without_a_ledger_counts_the_same_products(self, mode, pool):
        # a model built without a ledger runs the product path the ledger
        # tests count; it only keeps no per-frame records
        cfg = ModelConfig(blocks=2, n=16, d=8, heads=2, mode=mode, pool_p=pool,
                          seed=5, policy=Policy("top_r", r=4))
        frames = gen_stream(StreamConfig(n=16, d=8, frames=6, rho=0.25, seed=6))
        plain, counted = Model(cfg), Model(cfg, ledger=CostLedger())
        for frame in frames:
            for got, want in zip(plain.step(frame), counted.step(frame)):
                np.testing.assert_array_equal(got, want)
        null = plain.ledger
        assert null.frames == []
        snaps = counted.ledger.frames
        assert cost_record(*null.macs.values(), null.adds, null.nonlinear_elems) == {
            key: sum(snap[key] for snap in snaps) for key in snaps[0]}


class TestMemoryReport:
    def test_token_state_bytes(self):
        report = memory_report(4096, 768, 12, 4)
        assert report["token_gate_reference"] == 12_582_912

    def test_attention_state_bytes(self):
        report = memory_report(4096, 768, 12, 4)
        assert report["similarity_buffer"] == 805_306_368
        assert report["attention_gate_reference"] == 805_306_368

    def test_half_precision_halves_everything(self):
        full = memory_report(64, 32, 4, 4)
        half = memory_report(64, 32, 4, 2)
        for key, value in full.items():
            assert half[key] * 2 == value

    def test_positive_sizes(self):
        with pytest.raises(ValueError):
            memory_report(0, 8, 2)

    def test_no_closed_form_for_pooled(self):
        with pytest.raises(ValueError, match="no closed-form cost"):
            memory_report(16, 8, 2, mode="spatial_pool")

    @pytest.mark.parametrize("mode", ["full", "tokenwise_only", "stgt"])
    def test_block_total_is_a_built_block_at_eight_bytes(self, mode):
        n, d, heads = 64, 16, 4
        model = Model(ModelConfig(blocks=1, n=n, d=d, heads=heads, mode=mode,
                                  policy=Policy("top_r", r=8)))
        model.step(SplitRng(43).normal((n, d)))
        report = memory_report(n, d, heads, 8, mode)
        assert report["block_total"] == _persistent_nbytes(model.blocks[0])


def _persistent_nbytes(obj) -> int:
    """Bytes of every array a block's gates, buffers and attention state
    hold, its weights and each gate's last picks aside."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, list):
        return sum(map(_persistent_nbytes, obj))
    if isinstance(obj, (GatedBlock, AttentionState, Gate, Buffer)):
        return sum(_persistent_nbytes(value) for key, value in vars(obj).items()
                   if key not in ("w", "last_idx"))
    return 0
