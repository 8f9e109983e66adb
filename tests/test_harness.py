import csv
import tracemalloc

import numpy as np
import pytest

from tokengate import harness
from tokengate.block import ModelConfig
from tokengate.costs import CostLedger
from tokengate.gates import Policy
from tokengate.harness import (
    CSV_COLUMNS,
    SWEEP_COLUMNS,
    RunReport,
    cosine_similarity,
    measure_walltime,
    relative_l2,
    run_pair,
    sweep_budget,
    write_run_csv,
    write_summary_json,
    write_sweep_csv,
)
from tokengate.streams import StreamConfig, gen_stream


def small_model(r=4, mode="full", seed=50, blocks=2):
    return ModelConfig(blocks=blocks, n=16, d=8, heads=2, seed=seed, mode=mode,
                       policy=Policy("top_r", r=r))


def small_stream(seed=51, frames=6, mode="sparse_change"):
    return StreamConfig(n=16, d=8, frames=frames, mode=mode, rho=0.25,
                        sigma=1.0, seed=seed)


class TestMetrics:
    def test_relative_l2(self):
        assert relative_l2(np.ones(4), np.ones(4)) == 0.0
        assert relative_l2(np.zeros(3), np.array([3.0, 0.0, 4.0])) == 1.0
        # against an all-zero oracle the error is the approximation's norm
        assert relative_l2(np.array([3.0, 4.0]), np.zeros(2)) == 5.0

    def test_cosine(self):
        assert cosine_similarity(np.ones(4), np.ones(4)) == pytest.approx(1.0)
        assert cosine_similarity(np.array([1.0, 0.0]),
                                 np.array([0.0, 1.0])) == pytest.approx(0.0)
        assert cosine_similarity(np.zeros(3), np.zeros(3)) == 1.0
        assert cosine_similarity(np.zeros(3), np.ones(3)) == 0.0
        assert cosine_similarity(np.ones(3), np.zeros(3)) == 0.0


class TestRunPair:
    def test_full_budget_all_frames_exact(self):
        report = run_pair(small_model(r=16), small_stream())
        assert all(err < 1e-5 for err in report.column("rel_l2_error"))
        assert all(match == 1 for match in report.column("argmax_match"))

    def test_first_frame_error_zero(self):
        # the first frame takes every token whatever the policy, so it runs
        # the oracle's operations exactly
        policies = (Policy("top_r", r=2), Policy("top_r", r=0),
                    Policy("threshold", h=0.3))
        for mode in ("full", "tokenwise_only", "stgt", "spatial_pool"):
            pool = 2 if mode == "spatial_pool" else 1
            for policy in policies:
                cfg = ModelConfig(blocks=2, n=16, d=8, heads=2, seed=50,
                                  mode=mode, pool_p=pool, policy=policy)
                report = run_pair(cfg, small_stream())
                assert report.rows[0]["rel_l2_error"] == 0.0, (mode, policy)

    def test_static_stream_stays_exact(self):
        report = run_pair(small_model(r=3), small_stream(mode="static"))
        assert all(err < 1e-5 for err in report.column("rel_l2_error"))

    def test_selected_counts_follow_budget(self):
        # a gate takes min(r, changed) tokens: on a drift stream every token
        # changes; on the sparse one block 0's qkv gate sees the 4 tokens
        # redrawn per frame, and attention moves every later gate's input
        for mode, qkv in (("drift", 5 * 2), ("sparse_change", 4 + 5)):
            report = run_pair(small_model(r=5, blocks=2), small_stream(mode=mode))
            for row in report.rows[1:]:
                assert row["selected_qkv"] == qkv  # summed over blocks
                assert row["selected_p"] == 5 * 2
                assert row["selected_mlp"] == 5 * 2

    def test_schedule_applies_per_frame(self):
        schedule = [16, 4, 8]
        for mode, qkv in (("drift", [16, 4, 8, 8, 8]),
                          ("sparse_change", [16, 4, 4, 4, 4])):
            report = run_pair(small_model(r=16, blocks=1),
                              small_stream(frames=5, mode=mode),
                              schedule=schedule)
            assert report.column("r_effective") == [16, 4, 8, 8, 8]
            assert report.column("selected_qkv") == qkv
            assert report.column("selected_mlp") == [16, 4, 8, 8, 8]

    def test_deterministic_reports(self):
        first = run_pair(small_model(), small_stream())
        second = run_pair(small_model(), small_stream())
        for row in first.rows + second.rows:
            del row["exact_ms"], row["wall_ms"]
        assert first.rows == second.rows
        assert first.summary() == second.summary()

    def test_threshold_policy_marks_r_effective(self):
        cfg = ModelConfig(blocks=1, n=16, d=8, heads=2, seed=52,
                          policy=Policy("threshold", h=1.0))
        report = run_pair(cfg, small_stream())
        assert report.column("r_effective") == [-1] * 6

    def test_schedule_under_threshold_policy_rejected(self):
        cfg = ModelConfig(blocks=1, n=16, d=8, heads=2, seed=52,
                          policy=Policy("threshold", h=0.3))
        with pytest.raises(ValueError):
            run_pair(cfg, small_stream(), schedule=[2])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            run_pair(small_model(), StreamConfig(n=8, d=8, frames=2))

    def test_one_frame_stream_rejected(self):
        # the summary covers the frames after the first; one frame leaves
        # nothing to summarize
        one = small_stream(frames=1)
        with pytest.raises(ValueError, match="2 frames"):
            run_pair(small_model(), one)
        with pytest.raises(ValueError, match="2 frames"):
            run_pair(small_model(), small_stream(), frames=gen_stream(one))
        with pytest.raises(ValueError, match="2 frames"):
            sweep_budget(small_model(), one, [4])

    def test_nested_list_frames_match_array_frames(self):
        frames = gen_stream(small_stream())
        as_array = run_pair(small_model(), small_stream(), frames=frames)
        as_lists = run_pair(small_model(), small_stream(),
                            frames=frames.tolist())
        for a, b in zip(as_array.rows, as_lists.rows):
            assert {**a, "exact_ms": 0, "wall_ms": 0} == {**b, "exact_ms": 0,
                                                          "wall_ms": 0}
        assert as_array.gated_ledger.frames == as_lists.gated_ledger.frames

    def test_ragged_frames_rejected(self):
        frames = gen_stream(small_stream()).tolist()
        frames[2] = frames[2][:-1]
        with pytest.raises(ValueError):
            run_pair(small_model(), small_stream(), frames=frames)

    def test_savings_reported(self):
        report = run_pair(small_model(r=2), small_stream())
        assert report.summary()["savings_ratio"] > 1.0
        full = run_pair(small_model(r=16), small_stream(mode="drift"))
        # overlap penalty when every token changes
        assert full.summary()["savings_ratio"] < 1.0
        # the sparse stream's unchanged tokens are skipped even at r = N
        full = run_pair(small_model(r=16), small_stream())
        assert full.summary()["savings_ratio"] == pytest.approx(1.0407, rel=1e-4)

    def test_measured_baseline_macs_match_formula(self):
        from tokengate.costs import count_block_baseline

        cfg = small_model(r=4, blocks=2)
        report = run_pair(cfg, small_stream(frames=6))
        per_frame = count_block_baseline(cfg.n, cfg.d,
                                         cfg.heads)["macs_total"] * cfg.blocks
        # all but the first frame
        assert report.summary()["baseline_macs_total"] == per_frame * 5

    def test_rows_keep_both_clocks(self, tmp_path):
        report = run_pair(small_model(), small_stream())
        for key in ("exact_ms", "wall_ms"):
            assert all(isinstance(ms, float) and ms > 0
                       for ms in report.column(key)), key
        path = tmp_path / "run.csv"
        write_run_csv(report, path)
        with open(path) as fh:
            header, *rows = list(csv.reader(fh))
        assert header == CSV_COLUMNS
        assert all(len(row) == len(CSV_COLUMNS) for row in rows)

    def test_memory_does_not_grow_with_frames(self):
        # generated frames are stepped one at a time, so 200 frames (26 MB
        # stacked at this shape) take about the peak memory of 20
        def peak(frames):
            tracemalloc.start()
            try:
                run_pair(ModelConfig(blocks=1, n=256, d=64, heads=2, seed=55),
                         StreamConfig(n=256, d=64, frames=frames, seed=56))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(200) - peak(20) < 2 * 2**20


class TestSweep:
    def test_rows_sorted_and_monotone_macs(self):
        rows = sweep_budget(small_model(), small_stream(), [8, 2, 16, 4])
        assert [row["r"] for row in rows] == [2, 4, 8, 16]
        macs = [row["steady_macs_total"] for row in rows]
        assert all(a < b for a, b in zip(macs, macs[1:]))

    def test_single_full_budget_row(self):
        rows = sweep_budget(small_model(), small_stream(mode="drift"), [16])
        assert rows[0]["mean_rel_l2_error"] < 1e-5
        assert rows[0]["savings_ratio"] < 1.0  # every token changes
        rows = sweep_budget(small_model(), small_stream(), [16])
        assert rows[0]["mean_rel_l2_error"] < 1e-5
        assert rows[0]["savings_ratio"] == pytest.approx(1.0407, rel=1e-4)

    def test_error_trend_over_seeds(self):
        lows, highs = [], []
        for seed in range(20):
            rows = sweep_budget(small_model(seed=seed),
                                small_stream(seed=700 + seed, frames=10),
                                [4, 12])
            lows.append(rows[0]["mean_rel_l2_error"])
            highs.append(rows[1]["mean_rel_l2_error"])
        assert np.mean(highs) <= np.mean(lows)

    def test_repeated_budget_runs_once(self):
        rows = sweep_budget(small_model(), small_stream(), [4, 4, 2])
        assert [row["r"] for row in rows] == [2, 4]
        assert rows == sweep_budget(small_model(), small_stream(), [2, 4])

    def test_empty_budget_list_rejected(self):
        with pytest.raises(ValueError):
            sweep_budget(small_model(), small_stream(), [])


class TestWalltime:
    def test_reports_all_variants(self):
        table = measure_walltime(small_model(), small_stream(frames=3),
                                 repetitions=3)
        assert set(table) == {"baseline", "full", "tokenwise_only"}
        assert all(ms > 0 for ms in table.values())

    def test_minimum_repetitions(self):
        with pytest.raises(ValueError):
            measure_walltime(small_model(), small_stream(), repetitions=2)

    def test_one_frame_stream_rejected(self):
        # the first frame is never timed, so one frame leaves nothing to time
        with pytest.raises(ValueError, match="frames"):
            measure_walltime(small_model(), small_stream(frames=1),
                             repetitions=3)

    def test_oracle_matches_the_unpooled_variants(self, monkeypatch):
        from tokengate import block

        baseline, frame = block.block_baseline, block.Model.baseline_frame
        caller, seen = [None], set()

        def framing(model, *args, **kwargs):
            caller[0] = model.cfg.mode
            return frame(model, *args, **kwargs)

        def recording(x, w, pool_p=1, ledger=None):
            seen.add((caller[0], pool_p))
            return baseline(x, w, pool_p, ledger)

        monkeypatch.setattr(block.Model, "baseline_frame", framing)
        monkeypatch.setattr(block, "block_baseline", recording)
        cfg = ModelConfig(blocks=1, n=16, d=8, heads=2, mode="spatial_pool",
                          pool_p=2, policy=Policy("top_r", r=4))
        table = measure_walltime(cfg, small_stream(frames=2), repetitions=3)
        assert set(table) == {"baseline", "baseline_pooled", "full",
                              "tokenwise_only", "spatial_pool"}
        assert seen == {("full", 1), ("tokenwise_only", 1), ("spatial_pool", 2)}

    def test_configured_lossy_mode_is_timed(self):
        cfg = small_model(mode="stgt")
        table = measure_walltime(cfg, small_stream(frames=3), repetitions=3)
        assert set(table) == {"baseline", "full", "tokenwise_only", "stgt"}

    def _timing_config(self, r=16):
        # heavy enough per frame that scheduler jitter is a small fraction
        model = ModelConfig(blocks=2, n=128, d=64, heads=2, seed=53,
                            policy=Policy("top_r", r=r))
        stream = StreamConfig(n=128, d=64, frames=5, mode="sparse_change",
                              rho=0.1, sigma=1.0, seed=54)
        return model, stream

    def test_baseline_timing_is_budget_independent(self):
        model, stream = self._timing_config(r=16)
        low = measure_walltime(model, stream, repetitions=5)["baseline"]
        model_hi, _ = self._timing_config(r=128)
        high = measure_walltime(model_hi, stream, repetitions=5)["baseline"]
        assert max(low, high) / min(low, high) < 1.2

    def test_medians_reproducible(self):
        model, stream = self._timing_config()
        first = measure_walltime(model, stream, repetitions=5)
        second = measure_walltime(model, stream, repetitions=5)
        for variant in first:
            ratio = max(first[variant], second[variant]) / \
                min(first[variant], second[variant])
            assert ratio < 1.2, (variant, first[variant], second[variant])


class TestMediansFromRuns:
    def test_medians_of_the_rows_after_the_first(self, monkeypatch):
        # call k reports exact ms 10k, 10k + 1 and gated ms 100k, 100k + 1
        # after a first frame that would move every median were it counted
        calls = []

        def known_run_pair(model_cfg, stream_cfg):
            calls.append((model_cfg.mode, model_cfg.pool_p))
            k = len(calls)
            rows = [{"exact_ms": 1e6, "wall_ms": 1e6}] + [
                {"exact_ms": 10.0 * k + t, "wall_ms": 100.0 * k + t}
                for t in range(2)]
            return RunReport(rows, CostLedger(), CostLedger())

        monkeypatch.setattr(harness, "run_pair", known_run_pair)
        cfg = ModelConfig(blocks=1, n=16, d=8, heads=2, mode="spatial_pool",
                          pool_p=2, policy=Policy("top_r", r=4))
        table = measure_walltime(cfg, small_stream(), repetitions=3)
        order = [("full", 1), ("tokenwise_only", 1), ("spatial_pool", 2)]
        assert calls == order + order[::-1] + order
        # full runs in calls 1, 6, 7; tokenwise_only in 2, 5, 8; the pooled
        # variant and its oracle in 3, 4, 9
        assert table == {"baseline": 55.5, "baseline_pooled": 40.5,
                         "full": 600.5, "tokenwise_only": 500.5,
                         "spatial_pool": 400.5}


class TestWriters:
    def test_run_csv_columns(self, tmp_path):
        report = run_pair(small_model(), small_stream())
        path = tmp_path / "run.csv"
        write_run_csv(report, path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == CSV_COLUMNS
        assert len(rows) == 6
        assert int(rows[0]["selected_qkv"]) == 32  # the first frame selects everything
        # the count columns are the gated ledger's per-frame records
        for row, snap in zip(rows, report.gated_ledger.frames, strict=True):
            assert {key: int(row[key]) for key in CSV_COLUMNS[5:11]} == {
                "macs_total": snap["macs_total"], "macs_qk": snap["macs_qk"],
                "macs_av": snap["macs_av"], "macs_tokenwise": snap["macs_token_wise"],
                "adds_overhead": snap["adds_overhead"],
                "nonlinear_elems": snap["nonlinear_elems"]}

    def test_sweep_csv(self, tmp_path):
        rows = sweep_budget(small_model(), small_stream(), [2, 8])
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, path)
        with open(path) as fh:
            read = list(csv.DictReader(fh))
        assert [int(row["r"]) for row in read] == [2, 8]

    def test_sweep_csv_rejects_a_key_outside_its_columns(self, tmp_path):
        row = dict.fromkeys(SWEEP_COLUMNS, 1)
        with pytest.raises(ValueError, match="fieldnames"):
            write_sweep_csv([{**row, "savings": 2}], tmp_path / "sweep.csv")

    def test_summary_json(self, tmp_path):
        import json

        report = run_pair(small_model(), small_stream())
        path = tmp_path / "summary.json"
        write_summary_json(report, path)
        doc = json.loads(path.read_text())
        assert doc["frames"] == 6
        assert "savings_ratio" in doc
