"""Workloads, load generator, calibration kernel and the timed loop.

One process drives one stream per run in a closed loop: a frame is
generated only after the previous one has been stepped and checked.  For
every frame it times, in this order, the calibration kernel, the exact
oracle ``Model.baseline_frame`` and the gated ``Model.step``; every time is
rescaled by ``NOMINAL_CALIBRATION_MS`` over that frame's calibration time,
which cancels most of the machine's drift in speed between and within runs.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

import spans
import verify
from tokengate.block import Model, ModelConfig
from tokengate.gates import Policy
from tokengate.rng import SplitRng
from tokengate.streams import StreamConfig

# Typical calibration-kernel time on the reference machine (2-core x86-64
# VM, numpy 2.4.6 with OpenBLAS 0.3.31, one BLAS thread); normalized times
# read as milliseconds on that machine.
NOMINAL_CALIBRATION_MS = 7.0
CALIBRATION_PASSES = 2
MIN_STEADY_FRAMES = 100     # so that >= 10 samples lie beyond the p90
MAX_LOOP_SECONDS = 120.0    # on a slow machine, stop short of the frame floor
SETUP_REPEATS = 3
INVARIANT_EVERY = 10        # steady frames between qk/av invariant checks
TAIL_FRAMES = 2             # full-budget frames after the loop when no phase has r >= N
TRACE_BLOCK = 10            # traced and untraced frames alternate in blocks of this size


@dataclass(frozen=True)
class Workload:
    """One model shape and stream; ``schedule`` is the budget r of each frame
    of a repeating cycle (one entry for a fixed budget).  Why each workload
    was chosen is written in ``BENCHMARK.json`` and ``README.md``."""

    name: str
    n: int
    d: int
    heads: int
    mode: str
    schedule: tuple
    stream: str
    pool_p: int = 1
    rho: float = 0.0
    sigma: float = 1.0
    eps: float = 0.0

    def model_config(self, seed: int) -> ModelConfig:
        return ModelConfig(blocks=2, n=self.n, d=self.d, heads=self.heads,
                           mode=self.mode, pool_p=self.pool_p, seed=seed,
                           policy=Policy("top_r", r=self.schedule[0]))

    def stream_config(self, seed: int) -> StreamConfig:
        return StreamConfig(n=self.n, d=self.d, frames=1, mode=self.stream,
                            rho=self.rho, sigma=self.sigma, eps=self.eps,
                            seed=seed)

    @property
    def warmup(self) -> int:
        """Frames after the flush left out of every metric: whole cycles, >= 2."""
        cycle = len(self.schedule)
        return cycle * math.ceil(2 / cycle)


WORKLOADS = {w.name: w for w in (
    Workload("hires-sparse", n=1024, d=192, heads=3, mode="full",
             schedule=(128,), stream="sparse_change", rho=0.05, sigma=1.0),
    Workload("vitb-tokenwise", n=196, d=768, heads=12, mode="tokenwise_only",
             schedule=(32,), stream="sparse_change", rho=0.1, sigma=1.0),
    Workload("drift-pool-budget", n=576, d=128, heads=4, mode="spatial_pool",
             pool_p=2, schedule=(72,) * 3 + (144,) * 4 + (576,) * 3,
             stream="drift", eps=0.05),
)}


def iter_frames(cfg: StreamConfig):
    """Endless frames of the stream ``tokengate.gen_stream(cfg)`` describes,
    bit for bit, made one at a time so memory stays flat however long the
    run.  Supports the ``sparse_change`` and ``drift`` modes."""
    if cfg.mode not in ("sparse_change", "drift"):
        raise ValueError(f"unsupported stream mode {cfg.mode!r}")
    rng = SplitRng(cfg.seed).substream(2)
    frame = rng.normal((cfg.n, cfg.d))
    if cfg.mode == "drift":
        directions = rng.normal((cfg.n, cfg.d))
        lengths = np.sqrt((directions ** 2).sum(axis=1, keepdims=True))
        lengths[lengths == 0] = 1.0
        directions *= cfg.eps / lengths
    redraws = int(np.ceil(cfg.rho * cfg.n)) if cfg.mode == "sparse_change" else 0
    while True:
        yield frame
        frame = frame.copy()
        if cfg.mode == "drift":
            frame += directions
        if redraws:
            rows = rng.choice_without_replacement(cfg.n, redraws)
            frame[rows] = rng.normal((redraws, cfg.d)) * cfg.sigma


class Calibration:
    """Fixed pure-numpy work, calling no library code, whose time tracks the
    machine's current speed.  It mixes the kinds of work a gated step does:
    a BLAS product, a row softmax, strided copies, fancy indexing and a
    streaming copy over about 12 MB, more than a per-core cache, so that
    it feels contention for the shared cache and memory as the workloads
    do; then many calls on small arrays, whose time is mostly interpreter
    and dispatch overhead, as in the gates and the smaller workloads."""

    def __init__(self):
        rng = np.random.default_rng(1234)
        self.a = rng.standard_normal((256, 192))
        self.b = rng.standard_normal((192, 192))
        self.s = rng.standard_normal((192, 1024))
        self.t = rng.standard_normal((1024, 192))
        self.rows = np.sort(rng.choice(1024, 128, replace=False))
        self.out = np.zeros((1024, 192))
        self.big = rng.standard_normal((1024, 1024))
        self.big_out = np.zeros((1024, 1024))
        self.small = rng.standard_normal((48, 48))
        self.norms = rng.standard_normal(576)

    def __call__(self) -> float:
        """Milliseconds of the fastest of a few passes: the first pass also
        pays for reloading what the previous frame evicted, which says more
        about that frame than about the machine."""
        return min(self._pass() for _ in range(CALIBRATION_PASSES))

    def _pass(self) -> float:
        start = time.perf_counter()
        p = self.a @ self.b
        e = np.exp(self.s - self.s.max(axis=1, keepdims=True))
        e /= e.sum(axis=1, keepdims=True)
        self.out[:] = self.t.T.reshape(1024, 192)
        self.out[:, ::2] = self.t[:, 1::2]
        self.out[self.rows] += self.t[self.rows] + p[:128]
        np.copyto(self.big_out, self.big)
        self.big_out.sum()
        for _ in range(40):
            x = self.small @ self.small
            y = np.exp(x[:8] - x[:8].max(axis=1, keepdims=True))
            y /= y.sum(axis=1, keepdims=True)
            top = np.argsort(-self.norms, kind="stable")[:32]
            top.sort()
            np.sqrt(np.einsum("ij,ij->i", x, x))
        return (time.perf_counter() - start) * 1e3


@dataclass
class Outcome:
    """Everything one run measured; ``result`` picks what is printed."""

    traced: bool
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)    # end-to-end, name -> (value, unit)
    layers: dict = field(default_factory=dict)     # per layer, name -> (value, unit)
    report: dict = field(default_factory=dict)     # raw ms, environment, counts
    steady: list = field(default_factory=list)     # per-frame records

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def result(self) -> dict:
        chosen = self.layers if self.traced else self.metrics
        return {"correct": self.correct, "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()}}


class _Checks:
    def __init__(self, outcome: Outcome):
        self.outcome = outcome
        self.worst = dict.fromkeys(
            ("full_budget_rel_l2", "qk_rel_dev", "av_rel_dev"), 0.0)

    def frame(self, label, model, r, tokens, scores, exact_tokens, invariants=False):
        problems, err = verify.frame_problems(model, r, tokens, scores, exact_tokens)
        if r >= model.cfg.n:
            self._worst("full_budget_rel_l2", err)
        if invariants:
            qk_dev, av_dev = verify.invariant_deviation(model)
            self._worst("qk_rel_dev", qk_dev)
            self._worst("av_rel_dev", av_dev)
            problems += verify.invariant_problems(qk_dev, av_dev)
        self.outcome.attempted += 1
        if problems:
            self.outcome.failed += 1
            self.outcome.problems += [f"{label}: {p}" for p in problems]
        return err

    def _worst(self, key, value):
        self.worst[key] = max(self.worst[key], value)


def run(w: Workload, seed: int, seconds: float, trace: bool = False) -> Outcome:
    """Set up, warm up, measure for ``seconds`` (at least MIN_STEADY_FRAMES
    steady frames, whole budget cycles), verify, and summarize."""
    out = Outcome(trace)
    checks = _Checks(out)
    calib = Calibration()
    for _ in range(3):
        calib()
    tracer = spans.Tracer() if trace else None
    incremental = w.mode in ("full", "spatial_pool")
    cycle = len(w.schedule)
    frames = iter_frames(w.stream_config(seed))
    frame0 = next(frames)
    cfg = w.model_config(seed)

    # set-up: construction plus the flush step, on fresh models
    setup = {"setup_s": [], "raw_setup_s": [], "flush_s": [], "init_s": []}
    model = None
    for _ in range(SETUP_REPEATS):
        model = None
        gc.collect()
        cal_before = calib()
        start = time.perf_counter()
        with tracer.installed(spans.SETUP_TARGETS) if trace else nullcontext():
            model = Model(cfg, ledger=spans.TimingLedger(tracer) if trace else None)
        built = time.perf_counter()
        tokens, scores = model.step(frame0)
        done = time.perf_counter()
        scale = 2 * NOMINAL_CALIBRATION_MS / (cal_before + calib())
        setup["setup_s"].append((done - start) * scale)
        setup["raw_setup_s"].append(done - start)
        setup["flush_s"].append((done - built) * scale)
        if trace:
            setup["init_s"].append(tracer.total["rng.init_weights"] * scale)
            tracer.reset()
    exact_tokens, _ = model.baseline_frame(frame0)
    checks.frame("flush", model, cfg.n, tokens, scores, exact_tokens)

    def step_frame(t, traced):
        gen_start = time.perf_counter()
        frame = next(frames)
        gen_s = time.perf_counter() - gen_start
        r = w.schedule[(t - 1) % cycle]
        model.set_budget(r)
        cal = [calib()]
        start = time.perf_counter()
        exact_tokens, _ = model.baseline_frame(frame)
        exact_ms = (time.perf_counter() - start) * 1e3
        cal.append(calib())
        with tracer.installed(spans.STEP_TARGETS) if traced else nullcontext():
            start = time.perf_counter()
            tokens, scores = model.step(frame)
            gated_ms = (time.perf_counter() - start) * 1e3
        cal.append(calib())
        # each timed call is normalized by the calibrations on either side of it
        rec = {"t": t, "r": r, "cal_ms": cal, "exact_ms": exact_ms,
               "gated_ms": gated_ms, "gen_s": gen_s, "traced": traced,
               "exact_scale": 2 * NOMINAL_CALIBRATION_MS / (cal[0] + cal[1]),
               "scale": 2 * NOMINAL_CALIBRATION_MS / (cal[1] + cal[2])}
        return rec, tokens, scores, exact_tokens

    gc.collect()
    gc.disable()
    try:
        t = 0
        for _ in range(w.warmup):
            t += 1
            rec, tokens, scores, exact_tokens = step_frame(t, False)
            checks.frame(f"frame {t}", model, rec["r"], tokens, scores, exact_tokens)
        loop_start = time.perf_counter()
        while True:
            t += 1
            k = len(out.steady)
            traced = trace and (k // TRACE_BLOCK) % 2 == 1
            if traced:
                tracer.reset()
            rec, tokens, scores, exact_tokens = step_frame(t, traced)
            if traced:
                rec["spans"] = _frame_spans(tracer, model)
            rec["err"] = checks.frame(
                f"frame {t}", model, rec["r"], tokens, scores, exact_tokens,
                invariants=incremental and k % INVARIANT_EVERY == INVARIANT_EVERY - 1)
            out.steady.append(rec)
            elapsed = time.perf_counter() - loop_start
            if (k + 1) % cycle == 0 and (
                    (k + 1 >= MIN_STEADY_FRAMES and elapsed >= seconds)
                    or elapsed >= MAX_LOOP_SECONDS):
                break
    finally:
        gc.enable()
    loop_s = time.perf_counter() - loop_start
    state = verify.live_state_bytes(model)

    # full-budget verification when the measured cycle never reaches r = N
    if max(w.schedule) < w.n:
        model.set_budget(w.n)
        for _ in range(TAIL_FRAMES):
            t += 1
            frame = next(frames)
            exact_tokens, _ = model.baseline_frame(frame)
            tokens, scores = model.step(frame)
            checks.frame(f"full-budget frame {t}", model, w.n, tokens, scores,
                         exact_tokens, invariants=incremental)

    _summarize(out, w, setup, state, checks, loop_s)
    return out


def _frame_spans(tracer: spans.Tracer, model) -> dict:
    tokens = len(model.blocks) * model.cfg.n
    counts = dict(tracer.counts)
    shares = {key[len("selected_"):]: picked / tokens
              for key, picked in model.selected_counts().items()}
    shares["v"] = _ratio(counts.get("gates.selected.v", 0),
                         counts.get("gates.tokens.v", 0))
    return {"total": dict(tracer.total), "self": dict(tracer.self_time),
            "counts": counts, "shares": shares,
            "ledger": dict(model.ledger.frames[-1])}


def _summarize(out, w, setup, state, checks, loop_s):
    steady = out.steady
    gated_raw = np.array([rec["gated_ms"] for rec in steady])
    exact_raw = np.array([rec["exact_ms"] for rec in steady])
    gated = gated_raw * np.array([rec["scale"] for rec in steady])
    exact = exact_raw * np.array([rec["exact_scale"] for rec in steady])
    errors = [rec["err"] for rec in steady[:MIN_STEADY_FRAMES]]
    ms, one = "ms", "1"
    out.metrics = {
        "frame_ms_p50": (float(np.median(gated)), ms),
        "frame_ms_p90": (float(np.percentile(gated, 90)), ms),
        "frames_per_s": (len(gated) / float(gated.sum() / 1e3), "1/s"),
        "exact_frame_ms_p50": (float(np.median(exact)), ms),
        "speedup_p50": (float(np.median(exact_raw / gated_raw)), one),
        "setup_s": (statistics.median(setup["setup_s"]), "s"),
        "rel_l2_error_mean": (float(np.mean(errors)), one),
        "rel_l2_error_max": (float(np.max(errors)), one),
        "state_bytes": (state["attention"] + state["gates"], "B"),
        "ok_frame_share": ((out.attempted - out.failed) / out.attempted, one),
    }
    cal = np.array([rec["cal_ms"] for rec in steady]).ravel()
    out.report = {
        "workload": w.name,
        "steady_frames": len(steady),
        "warmup_frames": w.warmup,
        "error_frames": len(errors),
        "loop_s": loop_s,
        "raw": {
            "frame_ms_p50": float(np.median(gated_raw)),
            "frame_ms_p90": float(np.percentile(gated_raw, 90)),
            "exact_frame_ms_p50": float(np.median(exact_raw)),
            "setup_s": statistics.median(setup["raw_setup_s"]),
        },
        "calibration_ms": {"nominal": NOMINAL_CALIBRATION_MS,
                           "p10": float(np.percentile(cal, 10)),
                           "p50": float(np.median(cal)),
                           "p90": float(np.percentile(cal, 90))},
        "worst": checks.worst,
        "problems": out.problems[:20],
        "env": _environment(),
    }
    if out.traced:
        out.layers = _layer_metrics(steady, setup, state)


def _layer_metrics(steady, setup, state) -> dict:
    """Median over traced steady frames of each per-frame span sum, normalized."""
    traced = [rec for rec in steady if rec["traced"]]
    untraced = [rec for rec in steady if not rec["traced"]]

    def med(per_frame, records=traced):
        return float(np.median([per_frame(rec) for rec in records]))

    def span_ms(name, part="total"):
        return med(lambda rec: rec["spans"][part].get(name, 0.0) * rec["scale"] * 1e3)

    def count(name):
        return med(lambda rec: rec["spans"]["counts"].get(name, 0))

    def ledger(key):
        return med(lambda rec: rec["spans"]["ledger"][key])

    def useful_share(rec):
        counts = rec["spans"]["counts"]
        return _ratio(counts.get("attention.useful_elems", 0),
                      counts.get("kernels.softmax_elems", 0))

    def token_wise_rate(rec):
        seconds = rec["spans"]["total"].get("costs.token_wise", 0.0) * rec["scale"]
        return _ratio(rec["spans"]["ledger"]["macs_token_wise"], seconds)

    def step_ms(rec):
        return rec["gated_ms"] * rec["scale"]

    ms, cnt, one = "ms", "count", "1"
    layers = {
        "kernels.softmax_ms": (span_ms("kernels.softmax"), ms),
        "kernels.softmax_elems": (count("kernels.softmax_elems"), cnt),
        "attention.softmax_useful_share": (med(useful_share), one),
        "attention.step_ms": (span_ms("attention.step"), ms),
        "attention.self_ms": (span_ms("attention.step", "self"), ms),
        "attention.av_update_ms": (span_ms("attention.av_update"), ms),
        "gates.forced_ms": (span_ms("gates.forced"), ms),
        "costs.qk_ms": (span_ms("costs.qk"), ms),
        "costs.av_ms": (span_ms("costs.av"), ms),
        "costs.macs_qk": (ledger("macs_qk"), cnt),
        "costs.macs_av": (ledger("macs_av"), cnt),
        "costs.token_wise_ms": (span_ms("costs.token_wise"), ms),
        "costs.macs_token_wise": (ledger("macs_token_wise"), cnt),
        "costs.token_wise_macs_per_s": (med(token_wise_rate), "MAC/s"),
        "kernels.gelu_ms": (span_ms("kernels.gelu"), ms),
        "kernels.layer_norm_ms": (span_ms("kernels.layer_norm"), ms),
        "gates.gate_ms": (span_ms("gates.gate"), ms),
        "gates.buffer_ms": (span_ms("gates.buffer"), ms),
        "gates.select_ms": (span_ms("gates.select"), ms),
        "gates.delta_gate_ms": (span_ms("gates.delta_gate"), ms),
        "costs.macs_gate_overhead": (ledger("macs_gate_overhead"), cnt),
        "costs.adds_overhead": (ledger("adds_overhead"), cnt),
        "block.step_ms": (span_ms("block.step"), ms),
        "block.self_ms": (span_ms("block.step", "self"), ms),
        "rng.init_weights_s": (statistics.median(setup["init_s"]), "s"),
        "setup.flush_s": (statistics.median(setup["flush_s"]), "s"),
        "state_bytes.attention": (state["attention"], "B"),
        "state_bytes.gates": (state["gates"], "B"),
        "streams.gen_s": (med(lambda rec: rec["gen_s"] * rec["scale"], steady), "s"),
        "trace.overhead_ms": (med(step_ms) - med(step_ms, untraced), ms),
    }
    for key in ("qkv", "p", "mlp", "v"):
        layers[f"gates.selected_share.{key}"] = (
            med(lambda rec: rec["spans"]["shares"][key]), one)
    return layers


def _ratio(numer, denom) -> float:
    return float(numer) / float(denom) if denom else 0.0


def _environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "thread_env": {var: val for var, val in sorted(os.environ.items())
                       if var.endswith("_NUM_THREADS")},
        "numpy": np.__version__,
        "blas": blas,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
