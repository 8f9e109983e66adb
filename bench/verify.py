"""Correctness checks and live-state accounting, run outside every timed span.

``frame_problems`` checks one gated frame against the exact oracle;
``invariant_deviation`` checks the incremental attention state against
products recomputed from the buffers; ``live_state_bytes`` sums the arrays a
model keeps between frames.
"""

from __future__ import annotations

import numpy as np

from tokengate.attention import AttentionWeights, head_split, pool_tokens
from tokengate.block import BlockWeights
from tokengate.costs import CostLedger
from tokengate.gates import Buffer, Gate, Policy, StgtGate
from tokengate.harness import relative_l2

FULL_BUDGET_TOL = 1e-5   # relative L2 error of a frame where every gate takes all tokens
QK_TOL = 1e-9            # B is recomputed row/column-wise, so only product rounding
AV_TOL = 1e-7            # av accumulates deltas, so rounding grows with stream length

_NOT_STATE = (BlockWeights, AttentionWeights, CostLedger, Policy)
_GATE_STATE = (Gate, StgtGate, Buffer)


def frame_problems(model, r: int, tokens, scores,
                   exact_tokens) -> tuple[list[str], float]:
    """Problems found in one gated frame, and its relative L2 error."""
    cfg = model.cfg
    problems = []
    if tokens.shape != (cfg.n, cfg.d) or scores.shape != (cfg.num_classes,):
        problems.append(f"output shapes {tokens.shape}, {scores.shape}")
    if not (np.isfinite(tokens).all() and np.isfinite(scores).all()):
        problems.append("non-finite output")
    err = relative_l2(tokens, exact_tokens)
    if r >= cfg.n and not err < FULL_BUDGET_TOL:
        problems.append(f"full-budget frame off the oracle by {err:.3e}")
    return problems, err


def invariant_deviation(model) -> tuple[float, float]:
    """Worst relative deviation of the qk and av caches over blocks and heads.

    qk: ``attn.b[h]`` against the q buffer times the (pooled) k buffer
    transposed.  av: ``attn.av[h]`` against the attention gate's reference
    transposed times the value gate's reference, for that head.
    """
    qk_dev = av_dev = 0.0
    for blk in model.blocks:
        attn = blk.attn
        keys = attn.k_buf.b
        if attn.pool > 1:
            keys = pool_tokens(keys, attn.grid, attn.pool)
        qh = head_split(attn.q_buf.b, attn.heads)
        kh = head_split(keys, attn.heads)
        vh = head_split(attn.v_gate.u, attn.heads)
        for h in range(attn.heads):
            qk_dev = max(qk_dev, _rel_dev(attn.b[h], qh[h] @ kh[h].T))
            av_dev = max(av_dev, _rel_dev(attn.av[h], attn.a_gates[h].u.T @ vh[h]))
    return qk_dev, av_dev


def invariant_problems(qk_dev: float, av_dev: float) -> list[str]:
    problems = []
    if not qk_dev <= QK_TOL:
        problems.append(f"qk invariant off by {qk_dev:.3e}")
    if not av_dev <= AV_TOL:
        problems.append(f"av invariant off by {av_dev:.3e}")
    return problems


def _rel_dev(got, want) -> float:
    return float(np.abs(got - want).max() / max(1.0, float(np.abs(want).max())))


def live_state_bytes(model) -> dict:
    """Bytes of every ndarray reachable from the model's blocks, weights aside.

    Arrays held by a gate or buffer count as ``gates``; the rest (the
    similarity matrices and attention-value caches) as ``attention``.  A
    view counts as its base array, and each base array counts once.
    """
    totals = {"attention": 0, "gates": 0}
    seen = set()

    def walk(obj, kind):
        if id(obj) in seen:
            return
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            if id(obj) not in seen:
                seen.add(id(obj))
                totals[kind] += obj.nbytes
            return
        seen.add(id(obj))
        if isinstance(obj, (list, tuple)):
            children = obj
        elif isinstance(obj, dict):
            children = obj.values()
        elif hasattr(obj, "__dict__") and not isinstance(obj, _NOT_STATE):
            children = vars(obj).values()
            if isinstance(obj, _GATE_STATE):
                kind = "gates"
        else:
            return
        for child in children:
            walk(child, kind)

    for blk in model.blocks:
        walk(blk, "attention")
    return totals
