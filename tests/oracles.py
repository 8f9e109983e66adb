"""Reference implementations that the library's updates are compared against."""

from __future__ import annotations

import numpy as np

from tokengate.costs import NullLedger
from tokengate.kernels import as_index_set


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
