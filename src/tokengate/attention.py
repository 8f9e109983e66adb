"""Multi-headed self-attention: exact, incrementally updated, and pooled.

The incremental path maintains four persistent pieces per head across a
token stream:

  * ``B`` — the query-key similarity matrix.  When only ``m`` tokens
    changed, the rows at those indices are recomputed against the full key
    buffer and the columns at those indices against the full query buffer,
    key-major (changed keys x queries), in one cache-sized pass over B that
    also reads out the old scores there (``qk_sparse_update``).
  * per-row softmax normalizers: an offset at or above every score of the
    row, and the sum of the row's exponentials taken against it, so that
    A = exp(B - offset) / sum.  Every row has its sum
    patched at the changed key columns at once, along the key axis: the
    old exponentials are subtracted, the new ones added, and the sum is
    rescaled online when a new score rises above its offset.  Rows whose
    query changed then overwrite that from the fresh row product, and a
    row whose sum cancellation leaves at or below ``RESYNC_FRACTION`` of
    its value before the patch is recomputed from ``B``.
  * an attention-side delta gate whose tokens are the *columns* of the
    row-softmaxed matrix, forced to select the same indices as the value
    gate (the columns whose value changed, or at a budget of every column
    all of them) so the delta products stay aligned.  On the patched path
    A is only formed at those columns, out of the exponentials the patch
    has taken at the changed ones, as contiguous rows (columns x queries):
    the layout of the gate's reference, which stores A transposed.
  * ``av`` — the cached attention-weighted value sum, advanced by the
    identity  new = old + A_now dV + dA (V_now - dV)  with every factor cut
    down to the selected columns/rows.

Each piece falls back to the oracle's computation on a frame where
``costs.frame_plan`` says so: ``B`` and the softmax are patched or taken
whole together, a whole ``B`` being the oracle's ``Q K^T`` and its softmax
the oracle's ``kernels.exp_rows``, and a whole attention-value product
overwrites the attention gate's reference at the value gate's columns
without computing changes.  A frame where every gate takes every token,
the first one included, thus runs the oracle's operations on its
operands.  The queries carry 1 / sqrt(d_head) into ``B``, so no score is
scaled again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import CostLedger, NullLedger, frame_plan
from .gates import Buffer, DeltaGate, Policy
from .kernels import (
    IndexSet,
    TokenMatrix,
    as_index_set,
    check_heads,
    check_integer,
    exp_rows,
    softmax_rows,
)


@dataclass
class AttentionWeights:
    """Projection weights and biases for one attention operator; d must split
    over heads."""

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wp: np.ndarray
    heads: int
    bq: np.ndarray
    bk: np.ndarray
    bv: np.ndarray
    bp: np.ndarray

    def __post_init__(self):
        d = self.wq.shape[0]
        for name in ("wq", "wk", "wv", "wp"):
            if getattr(self, name).shape != (d, d):
                raise ValueError(f"{name} must be square of width {d}")
        check_heads(d, self.heads)

    @property
    def width(self) -> int:
        return self.wq.shape[0]


def head_split(x: TokenMatrix, heads: int) -> np.ndarray:
    """(n, d) -> (heads, n, d // heads), a view of x that callers must not
    write to: head h is the contiguous column slice h * dh : (h + 1) * dh."""
    n, d = x.shape
    check_heads(d, heads)
    return x.reshape(n, heads, d // heads).transpose(1, 0, 2)


def head_merge(per_head: np.ndarray) -> TokenMatrix:
    """Inverse of head_split: (heads, n, dh) -> (n, heads * dh)."""
    heads, n, dh = per_head.shape
    return np.ascontiguousarray(per_head.transpose(1, 0, 2).reshape(n, heads * dh))


def _project(x, w, b, ledger):
    return ledger.matmul("token_wise", x, w) + b


def _attend_heads(q, k, v, heads, ledger):
    """Per-head softmax(q k^T) v of queries already scaled by 1/sqrt(d_head)."""
    qh, kh, vh = head_split(q, heads), head_split(k, heads), head_split(v, heads)
    out = np.empty(qh.shape)
    for h in range(heads):
        attn = softmax_rows(ledger.matmul("qk", qh[h], kh[h].T))
        ledger.count_nonlinear(attn.size)
        out[h] = ledger.matmul("av", attn, vh[h])
    return out


def msa_baseline(x_norm: TokenMatrix, w: AttentionWeights,
                 ledger: CostLedger | None = None, pool: int = 1) -> TokenMatrix:
    """Exact multi-headed self-attention of pre-normalized tokens.

    A pool factor above 1 mean-pools keys and values on the token grid
    before attending (see ``pool_tokens``); 1 leaves them as they are.
    """
    ledger = ledger or NullLedger()
    grid = _pool_grid(x_norm.shape[0], pool)
    q = _project(x_norm, w.wq, w.bq, ledger)
    q /= np.sqrt(w.width // w.heads)
    k = pool_tokens(_project(x_norm, w.wk, w.bk, ledger), grid, pool)
    v = pool_tokens(_project(x_norm, w.wv, w.bv, ledger), grid, pool)
    merged = head_merge(_attend_heads(q, k, v, w.heads, ledger))
    return _project(merged, w.wp, w.bp, ledger)


# Bytes of B's rows per block of qk_sparse_update's column pass, so that a
# block's cache lines are still in cache when its old scores have been read
# and its new ones are written: 32 rows at N_kv = 1024.  Reading 128 columns
# of a 1024 x 1024 B out key-major and writing them from a key-major source
# took 1.71, 1.52, 1.50, 1.80 and 2.55 ms in blocks of 16, 32, 64, 128 and
# 256 rows (1 BLAS thread, minimum of 41 interleaved rounds over 12
# matrices): 32 and 64 rows tie.  Query-major, through one N x |cols| flat
# index, it took 3.29 ms.
COLUMN_BLOCK_BYTES = 256 * 1024


def qk_sparse_update(b_matrix: TokenMatrix, q_buf: TokenMatrix, k_buf: TokenMatrix,
                     rows: IndexSet, cols: IndexSet,
                     ledger: CostLedger | None = None,
                     old: TokenMatrix | None = None) -> tuple[TokenMatrix, TokenMatrix]:
    """Patch the similarity matrix in place after queries ``rows`` and keys
    ``cols`` changed.

    ``q_buf``/``k_buf`` hold every query and key, the fresh ones included.
    Rows are recomputed against all keys and columns against all queries,
    key-major: the column product is ``k_buf[cols] @ q_buf.T``.  The overlap
    block is computed in both products, which keeps the update at two plain
    dense products, and B holds the column product's values there.  The
    columns are written in blocks of ``COLUMN_BLOCK_BYTES`` of B's rows, one
    pass over B, so B must be C-contiguous: each block is then one stretch
    of memory.  Given ``old`` (cols x queries), each block's scores at
    ``cols`` are copied into it just before the block is written, so it
    ends up holding B's columns, transposed, as they were before the call.
    Without pooling ``rows`` and ``cols`` are the same index set.  Returns
    the row product (rows x keys) and the column product (cols x queries):
    the values B now holds at ``rows`` and, transposed, at ``cols``.
    """
    ledger = ledger or NullLedger()
    if b_matrix.shape != (q_buf.shape[0], k_buf.shape[0]):
        raise ValueError("similarity shape must be (queries, keys)")
    if not b_matrix.flags.c_contiguous:
        raise ValueError("similarity matrix must be C-contiguous")
    n, n_kv = b_matrix.shape
    rows = as_index_set(rows, n)
    cols = as_index_set(cols, n_kv)
    if old is not None and old.shape != (cols.size, n):
        raise ValueError(f"old scores must have shape {(cols.size, n)}, "
                         f"got {old.shape}")
    new_rows = ledger.matmul("qk", q_buf[rows], k_buf.T)
    new_cols = ledger.matmul("qk", k_buf[cols], q_buf.T)
    new_rows[:, cols] = new_cols[:, rows].T
    step = max(1, COLUMN_BLOCK_BYTES // (b_matrix.itemsize * n_kv))
    for start in range(0, n, step):
        block = b_matrix[start:start + step]
        if old is not None:
            old[:, start:start + step] = block[:, cols].T
        block[:, cols] = new_cols[:, start:start + step].T
    b_matrix[rows] = new_rows
    return new_rows, new_cols


def av_delta_update(av: TokenMatrix, attn_now: TokenMatrix, a_gate: DeltaGate,
                    idx: IndexSet, v_delta: TokenMatrix, v_now: TokenMatrix,
                    ledger: CostLedger | None = None) -> None:
    """Advance the cached attention-value product by the aligned delta identity.

    ``idx`` is the value gate's selection, which the attention-side gate is
    forced to reuse; ``attn_now`` holds the current row-softmaxed attention
    at those columns only (queries x |idx|), whose transpose the gate
    writes as its rows: a patched frame hands over the transposed view of
    contiguous rows, so they are written as they are.  ``v_delta`` and
    ``v_now`` are the gathered value changes and updated values at idx.
    After the call ``av`` equals (gate reference A) @ (gate reference V) up
    to float rounding, whatever was selected.  The gate counts the attention
    changes into its own ledger; ``ledger`` counts the delta products.
    """
    ledger = ledger or NullLedger()
    idx = as_index_set(idx, a_gate.n)
    a_changes = a_gate.forced(attn_now.T, idx)
    if idx.size == 0:
        return
    term = ledger.matmul("av", attn_now, v_delta)
    term += ledger.matmul("av", a_changes.T, v_now - v_delta)
    av += term
    ledger.count_adds(v_delta.size)   # v_now - v_delta
    ledger.count_adds(2 * av.size)    # summing the terms, accumulating into av


def _pool_grid(n: int, pool: int) -> int:
    """Side of the square grid of n tokens that pooling needs; 0 for pool 1.

    Raises ValueError unless the pool factor is an integer of at least 1
    and, above 1, n tokens form a square grid whose side it divides."""
    check_integer("pool", pool, 1)
    if pool == 1:
        return 0
    side = int(round(np.sqrt(n)))
    if side * side != n:
        raise ValueError(f"{n} tokens do not form a square grid")
    if side % pool:
        raise ValueError("pool size must divide the grid side")
    return side


def pool_tokens(x: TokenMatrix, grid: int, pool: int) -> TokenMatrix:
    """Mean-pool a row-major (grid x grid) token field down by pool x pool.

    Pool 1 is the identity and returns x itself; any other pool must pass
    ``_pool_grid`` on the grid's tokens.
    """
    if pool == 1:
        return x
    _pool_grid(grid * grid, pool)
    n, d = x.shape
    if n != grid * grid:
        raise ValueError("token count must equal grid * grid")
    g = grid // pool
    tiles = x.reshape(g, pool, g, pool, d)
    return tiles.mean(axis=(1, 3)).reshape(g * g, d)


def pool_index_set(idx: IndexSet, grid: int, pool: int) -> IndexSet:
    """Pooled positions whose patch intersects idx (max-pool of the mask).

    Pool 1 is the identity and returns idx itself; any other pool must pass
    ``_pool_grid`` on the grid's tokens.
    """
    if pool == 1:
        return idx
    idx = as_index_set(idx, grid * grid)
    _pool_grid(grid * grid, pool)
    g = grid // pool
    pooled = (idx // grid // pool) * g + (idx % grid) // pool
    return np.unique(pooled)


# A patched row sum that cancellation leaves at or below this fraction of
# its value before the patch is recomputed from B: a patch adds rounding of
# about eps times the old sum, so the kept part is accurate to eps over it.
RESYNC_FRACTION = 0.25


class AttentionState:
    """Persistent attention machinery for one token stream.

    Owns the query/key/value buffers.  In "full" mode the per-head
    similarity matrices, softmax row normalizers, attention-side gates,
    value gate, and cached products are maintained incrementally;
    ``resynced`` counts the rows whose patched sum was recomputed on the
    last step.  In "tokenwise_only" mode both products are recomputed from
    the buffers each step.  A pool factor above 1 shrinks the key/value
    axis on the grid before any of this.
    """

    def __init__(self, n: int, d: int, heads: int, policy: Policy,
                 mode: str = "full", pool: int = 1,
                 ledger: CostLedger | None = None):
        check_integer("n", n, 1)
        check_integer("d", d, 1)
        check_heads(d, heads)
        if mode not in ("full", "tokenwise_only"):
            raise ValueError(f"unknown attention mode {mode!r}")
        self.n, self.d, self.heads = n, d, heads
        self.dh = d // heads
        self.mode = mode
        self.pool = pool
        self.grid = _pool_grid(n, pool)
        self.n_kv = n // (pool * pool)
        self.ledger = ledger or NullLedger()
        self.q_buf = Buffer(n, d)
        self.k_buf = Buffer(n, d)
        self.v_buf = Buffer(n, d)
        if mode == "full":
            self.b = np.zeros((heads, n, self.n_kv))
            self.row_offset = np.zeros((heads, n))
            # the exponential sum of a zero row of B at offset 0
            self.row_sum = np.full((heads, n), float(self.n_kv))
            self.av = np.zeros((heads, n, self.dh))
            self.a_gates = [DeltaGate(self.n_kv, n, policy, self.ledger)
                            for _ in range(heads)]
            self.v_gate = DeltaGate(self.n_kv, d, policy, self.ledger)
        self.resynced = 0

    def step(self, idx: IndexSet, q_new: TokenMatrix, k_new: TokenMatrix,
             v_new: TokenMatrix) -> TokenMatrix:
        """Fold in freshly projected rows at idx, the queries scaled by
        1 / sqrt(d_head); return the weighted values."""
        q = self.q_buf(idx, q_new / np.sqrt(self.dh))
        k = pool_tokens(self.k_buf(idx, k_new), self.grid, self.pool)
        v = pool_tokens(self.v_buf(idx, v_new), self.grid, self.pool)
        if self.mode == "tokenwise_only":
            return head_merge(_attend_heads(q, k, v, self.heads, self.ledger))
        return self._advance(q, k, v, idx,
                             pool_index_set(idx, self.grid, self.pool))

    def _advance(self, q, k_kv, v_kv, rows, cols):
        n, n_kv = self.n, self.n_kv
        qh, kh = head_split(q, self.heads), head_split(k_kv, self.heads)
        v_idx, u_v, v_changes = self.v_gate(v_kv)
        outside = np.setdiff1d(v_idx, cols, assume_unique=True).size
        patch, whole_av = frame_plan(n, n_kv, rows.size, cols.size,
                                     v_idx.size, outside)
        every_v = v_idx.size == n_kv
        vh, vh_delta = head_split(u_v, self.heads), head_split(v_changes, self.heads)
        # B's scores at the changed columns before the update, key-major, for
        # the patch
        old = np.empty((cols.size, n)) if patch else None
        self.resynced = 0
        for h in range(self.heads):
            if patch:
                new_rows, new_cols = qk_sparse_update(self.b[h], qh[h], kh[h],
                                                      rows, cols, self.ledger, old)
                # the attention gate's contiguous rows, handed over as the
                # queries x columns view the value update takes
                attn_v = self._patched_softmax(h, rows, new_rows, old, cols,
                                               new_cols, v_idx).T
            else:
                self.b[h] = self.ledger.matmul("qk", qh[h], kh[h].T)
                attn_v = self._full_softmax(h)
                if not every_v:
                    attn_v = attn_v[:, v_idx]
            if not whole_av:
                av_delta_update(self.av[h], attn_v, self.a_gates[h], v_idx,
                                vh_delta[h], vh[h][v_idx], self.ledger)
                continue
            gate = self.a_gates[h]
            gate.overwrite(attn_v.T, v_idx)
            # A itself when it is the whole reference: the oracle's product
            a_ref = attn_v if every_v else gate.u.T
            self.av[h] = self.ledger.matmul("av", a_ref, vh[h])
        return head_merge(self.av)

    def _full_softmax(self, h):
        """Softmax of every row of head h, all its rows recomputed."""
        attn = self._recompute_rows(h, slice(None), self.b[h])
        attn /= self.row_sum[h][:, None]
        return attn

    def _patched_softmax(self, h, rows, new_rows, old, cols, new_cols, v_idx):
        """Bring head h's normalizers up to date after B changed at query
        rows ``rows``, now holding ``new_rows``, and at key columns ``cols``,
        where every query held ``old`` and now holds ``new_cols``, both
        key-major (|cols| x queries).  Returns the attention at the value
        gate's columns v_idx in the same layout, |v_idx| contiguous rows:
        they lie among ``cols`` and so reuse the exponentials of the patch,
        the row recompute and the resync (see the module docstring)."""
        offset, total = self.row_offset[h], self.row_sum[h]
        # new_cols becomes every query's exponentials at cols against its offset
        if cols.size:
            old -= offset
            kept = total - self._exp(old).sum(axis=0)
            synced = kept > RESYNC_FRACTION * total
            synced[rows] = True          # recomputed whole below
            new_offset = np.maximum(offset, new_cols.max(axis=0))
            new_cols -= new_offset
            total[:] = (kept * self._exp(offset - new_offset)
                        + self._exp(new_cols).sum(axis=0))
            offset[:] = new_offset
            stale = np.flatnonzero(~synced)
            self.resynced += stale.size
            new_cols[:, stale] = self._recompute_rows(
                h, stale, self.b[h][stale])[:, cols].T
        new_cols[:, rows] = self._recompute_rows(h, rows, new_rows)[:, cols].T
        exps = new_cols
        if v_idx.size < cols.size:
            exps = new_cols[np.searchsorted(cols, v_idx)]
        exps /= total
        return exps

    def _recompute_rows(self, h, rows, scores):
        """Normalizers of head h's rows from their scores (B's values at
        those rows, left as they are), N_kv counted exponentials a row by
        ``exp_rows``; returns the rows' exponentials, a new array."""
        x = np.empty_like(scores)
        self.ledger.count_nonlinear(x.size)
        self.row_offset[h, rows], self.row_sum[h, rows] = exp_rows(scores, x)
        return x

    def _exp(self, x):
        """Exponentiate a temporary in place, counting every element."""
        self.ledger.count_nonlinear(x.size)
        return np.exp(x, out=x)
