"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are fixed here and must not be loosened.
"""

import time

import numpy as np

from oracles import run_instrumented_block
from tokengate.block import GatedBlock, ModelConfig, init_model_weights
from tokengate.checks import (
    check_av_invariant,
    check_policies,
    check_qk_invariant,
    state_deviation,
    state_within_bounds,
)
from tokengate.costs import (
    count_block_baseline,
    count_block_eventful,
    memory_report,
)
from tokengate.gates import Policy
from tokengate.harness import measure_walltime, run_pair, sweep_budget
from tokengate.streams import StreamConfig, gen_stream


def report(name, passed, detail):
    print(f"\n[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def test_criterion_01_full_budget_exactness():
    started = time.perf_counter()
    cfg = ModelConfig(blocks=3, n=16, d=8, heads=2, seed=0,
                      policy=Policy("top_r", r=16))
    stream = StreamConfig(n=16, d=8, frames=8, mode="sparse_change", rho=0.25,
                          sigma=1.0, seed=1)
    rep = run_pair(cfg, stream)
    worst = max(rep.column("rel_l2_error"))
    elapsed = time.perf_counter() - started
    report("criterion 1: full-budget exactness",
           worst < 1e-5 and elapsed < 1.0,
           f"worst per-frame rel err {worst:.2e}, runtime {elapsed:.2f}s")


def test_criterion_02_qk_invariant_random_instances():
    _, passed, detail = check_qk_invariant(200, seed=2)
    report("criterion 2: QK invariant (200 instances)", passed, detail)


def test_criterion_03_av_delta_exactness():
    _, passed, detail = check_av_invariant(200, seed=3)
    report("criterion 3: AV delta exactness (200 x 5-step sequences)",
           passed, detail)


def test_criterion_04_cost_formula_agreement():
    d, heads = 16, 2
    details = []
    for n in (8, 16, 32):
        base = count_block_baseline(n, d, heads)
        base_products = base["macs_qk"] + base["macs_av"]
        for m in (0, n // 4, n // 2, n):
            ledger, block = run_instrumented_block(n, d, heads, "full", m,
                                                   seed=4)
            formula = count_block_eventful(n, m, d, heads, "full")
            crossover = ((formula["macs_qk"] + formula["macs_av"] < base_products)
                         == (m < n / 2))
            # rows whose patched softmax sum was resynced pay n exponentials
            formula["nonlinear_elems"] += n * block.attn.resynced
            if ledger.frames[-1] != formula or not crossover:
                details.append(f"n={n} m={m}")
    report("criterion 4: ledger equals closed form + crossover at N/2",
           not details, "exact match of every count for all (N, M)"
           if not details else "mismatch at " + ", ".join(details))


def test_criterion_05_memory_arithmetic():
    token = memory_report(4096, 768, 12, 4)["token_gate_reference"]
    attn = memory_report(4096, 768, 12, 4)["similarity_buffer"]
    report("criterion 5: state-memory arithmetic",
           token == 12_582_912 and attn == 805_306_368,
           f"token state {token} bytes, attention buffer {attn} bytes")


def test_criterion_06_policy_correctness():
    _, passed, detail = check_policies(1000, seed=6)
    report("criterion 6: policy correctness (1000 vectors, both policies)",
           passed, f"exact set equality with brute-force oracles, {detail}")


def test_criterion_07_tradeoff_monotonicity():
    started = time.perf_counter()
    means = {}
    for r in (4, 12):
        errors = []
        for seed in range(20):
            cfg = ModelConfig(blocks=2, n=16, d=8, heads=2, seed=100 + seed,
                              policy=Policy("top_r", r=r))
            stream = StreamConfig(n=16, d=8, frames=20, mode="sparse_change",
                                  rho=0.1, sigma=1.0, seed=200 + seed)
            errors.append(run_pair(cfg, stream).summary()["mean_rel_l2_error"])
        means[r] = float(np.mean(errors))
    rows = sweep_budget(
        ModelConfig(blocks=2, n=16, d=8, heads=2, seed=7),
        StreamConfig(n=16, d=8, frames=10, mode="sparse_change", rho=0.1,
                     sigma=1.0, seed=8),
        [2, 4, 8, 12, 16])
    macs = [row["steady_macs_total"] for row in rows]
    strictly_up = all(a < b for a, b in zip(macs, macs[1:]))
    elapsed = time.perf_counter() - started
    report("criterion 7: tradeoff monotonicity",
           means[12] <= means[4] and strictly_up and elapsed < 10.0,
           f"mean err r=12 {means[12]:.3f} <= r=4 {means[4]:.3f}, "
           f"MACs strictly increasing, runtime {elapsed:.1f}s")


def test_criterion_08_drift_robustness_vs_lossy_gating():
    n = 16
    finals = {"full": [], "stgt": []}
    for seed in range(20):
        stream = StreamConfig(n=n, d=8, frames=50, mode="drift", eps=0.05,
                              seed=300 + seed)
        for mode in ("full", "stgt"):
            cfg = ModelConfig(blocks=2, n=n, d=8, heads=2, seed=400 + seed,
                              mode=mode, policy=Policy("top_r", r=n // 8))
            rep = run_pair(cfg, stream)
            finals[mode].append(rep.column("rel_l2_error")[-1])
    ref, lossy = np.mean(finals["full"]), np.mean(finals["stgt"])
    report("criterion 8: reference gating beats lossy gating under drift",
           ref < lossy, f"final-frame err {ref:.3f} (reference) "
                        f"vs {lossy:.3f} (lossy), 20-seed mean")


def test_criterion_09_spatial_pool_mode():
    n = 16
    cfg = ModelConfig(blocks=2, n=n, d=8, heads=2, seed=9, mode="spatial_pool",
                      pool_p=2, policy=Policy("top_r", r=n))
    stream = StreamConfig(n=n, d=8, frames=6, mode="sparse_change", rho=0.25,
                          sigma=1.0, seed=10)
    rep = run_pair(cfg, stream)
    worst_exact = max(rep.column("rel_l2_error"))

    # invariants on the pooled shapes at r < N
    weights = init_model_weights(cfg)
    block = GatedBlock(weights.blocks[0], n, Policy("top_r", r=3),
                       mode="spatial_pool", pool_p=2)
    worst = np.zeros(3)
    for frame in gen_stream(stream):
        block.step(frame)
        worst = np.maximum(worst, state_deviation(block.attn))
    report("criterion 9: spatial-pool mode",
           worst_exact < 1e-5 and state_within_bounds(worst),
           f"pooled-oracle err {worst_exact:.2e}, QK dev {worst[0]:.2e}, "
           f"AV dev {worst[1]:.2e}, row-sum rel dev {worst[2]:.2e}")


def test_criterion_10_walltime_proof_of_concept():
    cfg = ModelConfig(blocks=4, n=256, d=128, heads=4, seed=11,
                      policy=Policy("top_r", r=256 // 8))
    stream = StreamConfig(n=256, d=128, frames=6, mode="sparse_change",
                          rho=0.1, sigma=1.0, seed=12)
    table = measure_walltime(cfg, stream, repetitions=3)
    report("criterion 10: wall-time proof of concept",
           table["full"] <= table["baseline"],
           f"median gated {table['full']:.1f} ms <= "
           f"baseline {table['baseline']:.1f} ms per frame")
