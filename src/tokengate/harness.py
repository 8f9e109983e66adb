"""Paired exact-vs-gated execution, budget sweeps, timing, and reports.

Every run drives the stateless exact model and a stateful gated model over
the same frames and records, per frame, the selection sizes, operation
counts, output error, and the wall time of both sides.  Reports are
deterministic given the config seeds, wall-time columns aside.
"""

from __future__ import annotations

import csv
import itertools
import json
import time
from dataclasses import dataclass, replace

import numpy as np

from .block import Model, ModelConfig
from .costs import CostLedger
from .gates import Policy
from .kernels import check_integer
from .streams import StreamConfig, iter_stream

CSV_COLUMNS = [
    "frame", "r_effective", "selected_qkv", "selected_p", "selected_mlp",
    "macs_total", "macs_qk", "macs_av", "macs_tokenwise", "adds_overhead",
    "nonlinear_elems", "rel_l2_error", "cosine", "argmax_match", "wall_ms",
]
SWEEP_COLUMNS = ["r", "mean_rel_l2_error", "steady_macs_total", "savings_ratio"]


def relative_l2(approx: np.ndarray, exact: np.ndarray) -> float:
    scale = np.linalg.norm(exact)
    if scale == 0:
        return float(np.linalg.norm(approx))
    return float(np.linalg.norm(approx - exact) / scale)


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    a, b = a.ravel(), b.ravel()
    denom = np.linalg.norm(a) * np.linalg.norm(b)
    if denom == 0:
        return 1.0 if np.array_equal(a, b) else 0.0
    return float(a @ b / denom)


@dataclass
class RunReport:
    """One paired run: its per-frame rows, each with the oracle's and the
    gated step's ms (``exact_ms``, ``wall_ms``), and the cost ledgers of
    the gated model and of the exact oracle.  The summary derives from
    these three; it covers the frames after the first."""

    rows: list[dict]
    gated_ledger: CostLedger
    oracle_ledger: CostLedger

    def column(self, name: str) -> list:
        return [row[name] for row in self.rows]

    def summary(self) -> dict:
        gated = self.gated_ledger.steady_state_totals()["macs_total"]
        oracle = self.oracle_ledger.steady_state_totals()["macs_total"]
        return {
            "frames": len(self.rows),
            "mean_rel_l2_error": float(np.mean(self.column("rel_l2_error")[1:])),
            "mean_cosine": float(np.mean(self.column("cosine")[1:])),
            "argmax_agreement": float(np.mean(self.column("argmax_match")[1:])),
            "steady_macs_total": gated,
            "baseline_macs_total": oracle,
            "savings_ratio": oracle / gated if gated and oracle else 0.0,
        }


def check_stream_length(frames: int):
    """Raise ValueError below 2 frames: a run's summary covers the frames
    after the first."""
    if frames < 2:
        raise ValueError(f"a stream needs at least 2 frames, got {frames}: "
                         f"the summary covers the frames after the first")


def run_pair(model_cfg: ModelConfig, stream_cfg: StreamConfig,
             schedule: list[int] | None = None,
             frames: np.ndarray | list | None = None) -> RunReport:
    """Run the exact oracle and the gated model over one stream.

    Per frame: apply the budget schedule, time the oracle into the oracle
    ledger (``exact_ms``), then time the gated step (``wall_ms``).
    ``schedule`` holds per-frame budget overrides; a short schedule keeps
    its last value for the remaining frames.  A schedule needs a ``top_r``
    policy: under a threshold policy it raises ValueError.  The stream
    config's frames are made one at a time, so a run of any length holds
    one frame.  Precomputed ``frames`` (an array or nested lists of
    numbers, as ``Model.step`` takes) override them (fixture import) and
    are checked whole before any model is built.  The summary covers the
    frames after the first, so a stream of fewer than 2 frames raises
    ValueError.
    """
    if frames is None:
        count, shape = stream_cfg.frames, (stream_cfg.n, stream_cfg.d)
        frames = itertools.islice(iter_stream(stream_cfg), count)
    else:
        frames = np.asarray(frames, dtype=np.float64)
        count, shape = len(frames), frames.shape[1:]
    check_stream_length(count)
    if shape != (model_cfg.n, model_cfg.d):
        raise ValueError("stream and model disagree on token shape")
    # freeing 4 MB raises glibc's trim threshold, so the oracle's freed
    # temporaries stay on the heap rather than being faulted in every call
    np.empty(1 << 19)
    report = RunReport([], CostLedger(), CostLedger())
    model = Model(model_cfg, ledger=report.gated_ledger)
    oracle_ledger = report.oracle_ledger
    for t, frame in enumerate(frames):
        if schedule:
            model.set_budget(schedule[min(t, len(schedule) - 1)])
        oracle_ledger.begin_frame()
        start = time.perf_counter()
        exact_tokens, exact_scores = model.baseline_frame(frame, oracle_ledger)
        exact_ms = (time.perf_counter() - start) * 1e3
        oracle_ledger.end_frame()
        start = time.perf_counter()
        tokens, scores = model.step(frame)
        wall_ms = (time.perf_counter() - start) * 1e3
        snap = report.gated_ledger.frames[-1]
        report.rows.append({
            "frame": t,
            "r_effective": model.policy.r if model.policy.kind == "top_r" else -1,
            **model.selected_counts(),
            "macs_total": snap["macs_total"],
            "macs_qk": snap["macs_qk"],
            "macs_av": snap["macs_av"],
            "macs_tokenwise": snap["macs_token_wise"],
            "adds_overhead": snap["adds_overhead"],
            "nonlinear_elems": snap["nonlinear_elems"],
            "rel_l2_error": relative_l2(tokens, exact_tokens),
            "cosine": cosine_similarity(tokens, exact_tokens),
            "argmax_match": int(np.argmax(scores) == np.argmax(exact_scores)),
            "exact_ms": exact_ms,
            "wall_ms": wall_ms,
        })
    return report


def sweep_budget(model_cfg: ModelConfig, stream_cfg: StreamConfig,
                 r_values: list[int]) -> list[dict]:
    """One fresh paired run per distinct budget; rows sorted by budget, each
    the budget and three numbers of its run's summary (``SWEEP_COLUMNS``)."""
    if not r_values:
        raise ValueError("need at least one budget value")
    rows = []
    for r in sorted(set(r_values)):
        summary = run_pair(replace(model_cfg, policy=Policy("top_r", r=r)),
                           stream_cfg).summary()
        rows.append({"r": r, **{key: summary[key] for key in SWEEP_COLUMNS[1:]}})
    return rows


def measure_walltime(model_cfg: ModelConfig, stream_cfg: StreamConfig,
                     repetitions: int = 5) -> dict:
    """Median per-frame ms of "baseline" (the exact oracle) and the unpooled
    "full" and "tokenwise_only" variants at the configured budget, plus the
    configured mode when it is neither.

    Each variant is paired with the oracle it matches: a "spatial_pool"
    config keeps its pool factor and is paired with the pooled oracle,
    reported as "baseline_pooled"; the other variants run unpooled.  Each
    repetition runs one ``run_pair`` per gated variant, in alternating
    order, and the medians pool its rows' ``exact_ms`` (for the oracle)
    and ``wall_ms`` (for the variant).  The first frame sets up the gated
    state and is not counted, so the stream needs at least 2 frames;
    ``repetitions`` is an integer of at least 3.
    """
    check_integer("repetitions", repetitions, 3)
    variants = ["full", "tokenwise_only"]
    if model_cfg.mode not in variants:
        variants.append(model_cfg.mode)
    oracles = ["baseline"]
    if model_cfg.mode == "spatial_pool":
        oracles.append("baseline_pooled")
    times = {name: [] for name in oracles + variants}
    for rep in range(repetitions):
        for mode in variants if rep % 2 == 0 else variants[::-1]:
            pool = model_cfg.pool_p if mode == "spatial_pool" else 1
            report = run_pair(replace(model_cfg, mode=mode, pool_p=pool),
                              stream_cfg)
            oracle = "baseline_pooled" if pool > 1 else "baseline"
            times[oracle] += report.column("exact_ms")[1:]
            times[mode] += report.column("wall_ms")[1:]
    return {name: float(np.median(ms)) for name, ms in times.items()}


def _write_csv(rows: list[dict], columns: list[str], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)


def write_run_csv(report: RunReport, path) -> None:
    _write_csv([{key: row[key] for key in CSV_COLUMNS} for row in report.rows],
               CSV_COLUMNS, path)


def write_sweep_csv(rows: list[dict], path) -> None:
    _write_csv(rows, SWEEP_COLUMNS, path)


def write_summary_json(report: RunReport, path) -> None:
    with open(path, "w") as fh:
        json.dump(report.summary(), fh, indent=2)
        fh.write("\n")
