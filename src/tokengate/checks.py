"""Self-contained equivalence and invariant checks.

Backs the ``equiv`` command: each check returns (name, passed, detail) so
the caller can print one line per check and turn the conjunction into an
exit code.  The pytest suite covers the same ground more thoroughly; these
are the fast library-level sanity gates.
"""

from __future__ import annotations

import numpy as np

from .attention import av_delta_update, qk_sparse_update
from .block import ModelConfig
from .gates import DeltaGate, Policy, threshold_indices, top_r_indices
from .harness import run_pair
from .rng import SplitRng
from .streams import StreamConfig


def check_full_budget_exactness(seed: int = 0) -> tuple[str, bool, str]:
    n = 16
    cfg = ModelConfig(blocks=3, n=n, d=8, heads=2, seed=seed,
                      policy=Policy("top_r", r=n))
    stream = StreamConfig(n=n, d=8, frames=6, mode="sparse_change",
                          rho=0.25, sigma=1.0, seed=seed)
    report = run_pair(cfg, stream)
    worst = max(report.column("rel_l2_error"))
    return ("full_budget_exactness", worst < 1e-5, f"worst rel err {worst:.2e}")


def check_qk_invariant(instances: int = 50, seed: int = 0) -> tuple[str, bool, str]:
    rng = SplitRng(seed)
    worst = 0.0
    for i in range(instances):
        n = 2 + int(rng.integers(1, 31)[0])
        dh = 1 + int(rng.integers(1, 8)[0])
        q = rng.normal((n, dh))
        k = rng.normal((n, dh))
        b = q @ k.T
        m = int(rng.integers(1, n + 1)[0])
        idx = rng.choice_without_replacement(n, m)
        q[idx] = rng.normal((m, dh))
        k[idx] = rng.normal((m, dh))
        qk_sparse_update(b, q, k, q[idx], k[idx], idx, idx)
        worst = max(worst, float(np.abs(b - q @ k.T).max()))
    return ("qk_sparse_update_invariant", worst < 1e-6, f"worst abs dev {worst:.2e}")


def check_av_invariant(instances: int = 50, seed: int = 1) -> tuple[str, bool, str]:
    rng = SplitRng(seed)
    worst = 0.0
    for i in range(instances):
        n = 2 + int(rng.integers(1, 15)[0])
        dh = 1 + int(rng.integers(1, 8)[0])
        policy = Policy("top_r", r=n)
        a_gate = DeltaGate(n, n, policy)
        v_gate = DeltaGate(n, dh, policy)
        attn = _random_attention(rng, n)
        _, u_v, _ = v_gate(rng.normal((n, dh)))
        a_gate.forced(attn.T, np.arange(n))
        av = attn @ u_v
        for _ in range(5):
            policy.r = int(rng.integers(1, n + 1)[0])
            attn = _random_attention(rng, n)
            v_idx, u_v, v_delta = v_gate(rng.normal((n, dh)))
            av_delta_update(av, attn, a_gate, v_idx, v_delta, u_v[v_idx])
            expect = a_gate.u.T @ u_v
            worst = max(worst, float(np.abs(av - expect).max()))
    return ("av_delta_update_invariant", worst < 1e-6, f"worst abs dev {worst:.2e}")


def _random_attention(rng, n):
    raw = rng.normal((n, n))
    e = np.exp(raw - raw.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def check_policies(vectors: int = 200, seed: int = 2) -> tuple[str, bool, str]:
    rng = SplitRng(seed)
    ok = True
    for _ in range(vectors):
        n = 1 + int(rng.integers(1, 32)[0])
        norms = np.abs(rng.normal(n))
        r = int(rng.integers(1, n + 2)[0])
        expect = sorted(sorted(range(n), key=lambda i: (-norms[i], i))[:min(r, n)])
        ok &= list(top_r_indices(norms, r)) == expect
        h = float(np.abs(rng.normal(1)[0]))
        ok &= list(threshold_indices(norms, h)) == [i for i in range(n)
                                                    if norms[i] > h]
    return ("policy_oracle_agreement", bool(ok), f"{vectors} random vectors")


def check_static_stability(seed: int = 3) -> tuple[str, bool, str]:
    cfg = ModelConfig(blocks=2, n=16, d=8, heads=2, seed=seed,
                      policy=Policy("top_r", r=2))
    stream = StreamConfig(n=16, d=8, frames=6, mode="static", seed=seed)
    report = run_pair(cfg, stream)
    worst = max(report.column("rel_l2_error"))
    return ("static_stream_stability", worst < 1e-5, f"worst rel err {worst:.2e}")


ALL_CHECKS = (
    check_full_budget_exactness,
    check_qk_invariant,
    check_av_invariant,
    check_policies,
    check_static_stability,
)


def run_all_checks() -> list[tuple[str, bool, str]]:
    return [check() for check in ALL_CHECKS]
