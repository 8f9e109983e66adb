"""Reference implementations that the library's updates are compared against."""

from __future__ import annotations

import numpy as np

from tokengate.block import GatedBlock, ModelConfig, init_model_weights
from tokengate.costs import CostLedger, NullLedger
from tokengate.gates import Policy
from tokengate.kernels import as_index_set
from tokengate.rng import SplitRng


def run_instrumented_block(n, d, heads, mode, r, frames=3, seed=40):
    """Step one gated block over ``frames`` random frames into a fresh
    ledger: weights from config seed ``seed``, frames from
    ``SplitRng(seed + 1)``.  Returns (ledger, block)."""
    cfg = ModelConfig(blocks=1, n=n, d=d, heads=heads, seed=seed, mode="full")
    weights = init_model_weights(cfg)
    ledger = CostLedger()
    block = GatedBlock(weights.blocks[0], n, Policy("top_r", r=r), mode=mode,
                       ledger=ledger)
    rng = SplitRng(seed + 1)
    for _ in range(frames):
        ledger.begin_frame()
        block.step(rng.normal((n, d)))
        ledger.end_frame()
    return ledger, block


def complement_indices(idx, n: int) -> np.ndarray:
    """Ascending indices of [0, n) not present in idx."""
    keep = np.ones(n, dtype=bool)
    keep[idx] = False
    return np.flatnonzero(keep).astype(np.int64)


def qk_sparse_update_nonoverlap(b_matrix, q_buf, k_buf, idx,
                                ledger=None) -> None:
    """Same result as ``qk_sparse_update(b_matrix, q_buf, k_buf, idx, idx)``
    with the overlap block computed once.

    The column pass multiplies only the query rows *outside* idx and
    scatters through both axes, cutting that pass from n*m*dh MACs down to
    (n-m)*m*dh.
    """
    ledger = ledger or NullLedger()
    if b_matrix.shape != (q_buf.shape[0], k_buf.shape[0]):
        raise ValueError("similarity shape must be (queries, keys)")
    idx = as_index_set(idx, b_matrix.shape[0])
    if idx.size == 0:
        return
    b_matrix[idx, :] = ledger.matmul("qk", q_buf[idx], k_buf.T)
    rest = complement_indices(idx, q_buf.shape[0])
    b_matrix[np.ix_(rest, idx)] = ledger.matmul("qk", q_buf[rest], k_buf[idx].T)
