"""Token gates, buffers, and selection policies.

A gate holds one reference row per token (the value the token had when it
was last recomputed) and on every step selects the tokens whose current
input has drifted furthest from that reference.  A buffer holds the most
recent downstream result for every token and patches in fresh rows as they
arrive.  Together they let the rest of the pipeline run on the selected
subset only.

Every gate and buffer holds an (n x width) zero store from construction
(``_zero_store``, which checks both sizes), and ``_write_rows`` is the one
rule that writes its rows.  A gate's first call selects every token against
the zero reference, so the reference takes the input and the change is the
input.  After it, a plain ``Gate`` never selects a token whose difference
from its reference has norm 0, as that token's buffered output was computed
from the same input: a ``top_r`` gate takes the min(r, changed) tokens of
largest error.  ``DeltaGate`` keeps such tokens when the policy picks
every token, and ``StgtGate`` fills its budget with them (see their
docstrings).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import CostLedger, NullLedger
from .kernels import (
    IndexSet,
    TokenMatrix,
    as_index_set,
    check_integer,
    full_index_set,
    is_real,
    row_l2_norms,
)


@dataclass
class Policy:
    """Token selection rule: fixed budget ("top_r") or error cutoff ("threshold").

    One Policy instance is shared by all gates of a block so that a budget
    change takes effect everywhere at once.
    """

    kind: str = "top_r"
    r: int = 0
    h: float = 0.0

    def __post_init__(self):
        if self.kind not in ("top_r", "threshold"):
            raise ValueError(f"unknown policy kind {self.kind!r}")
        check_integer("budget r", self.r, 0)
        if not (is_real(self.h) and self.h >= 0):
            raise ValueError(f"h must be a nonnegative number, got {self.h!r}")

    def set_budget(self, r: int):
        """Retarget every gate sharing this policy at budget r from the next
        frame on; only a top_r policy has a budget."""
        if self.kind != "top_r":
            raise ValueError(f"a {self.kind} policy has no budget to set")
        check_integer("budget r", r, 0)
        self.r = r

    def select(self, norms: np.ndarray) -> IndexSet:
        if self.kind == "top_r":
            return top_r_indices(norms, self.r)
        return threshold_indices(norms, self.h)


def top_r_indices(norms: np.ndarray, r: int) -> IndexSet:
    """Ascending indices of the min(r, n) largest norms; ties favor lower index."""
    check_integer("budget r", r, 0)
    norms = np.asarray(norms, dtype=np.float64)
    # stable sort on -norms keeps equal-norm candidates in index order
    picked = np.argsort(-norms, kind="stable")[:r].astype(np.int64)
    picked.sort()
    return picked


def threshold_indices(norms: np.ndarray, h: float) -> IndexSet:
    """Ascending indices where the norm strictly exceeds h."""
    if not h >= 0:    # a NaN threshold would select nothing, forever
        raise ValueError(f"h must be nonnegative, got {h!r}")
    norms = np.asarray(norms, dtype=np.float64)
    return np.flatnonzero(norms > h).astype(np.int64)


def _zero_store(n: int, width: int) -> TokenMatrix:
    """The (n x width) zero store of a gate reference or a buffer; raises
    ValueError unless both sizes are integers of at least 1."""
    check_integer("n", n, 1)
    check_integer("width", width, 1)
    return np.zeros((n, width))


# Store columns per block when ``_write_rows`` copies a source that is not
# C-contiguous, such as the transposed A of the whole attention-value path,
# so that each block's source and destination stay in cache: six 1024 x
# 1024 transposed writes took 12.7 ms this way against 30.6 ms in one fancy
# write each.  Blocks of 64 columns made drift-pool-budget's r = N step
# (144 x 576 references) 1.5 % slower than one fancy write; 128 did not.
WRITE_BLOCK_COLUMNS = 128


def _write_rows(store: TokenMatrix, idx: IndexSet, rows: TokenMatrix):
    """The write rule of a per-token store (a gate reference or a buffer):
    set the tokens idx of the (n x width) store to ``rows`` (|idx| x width),
    in place, so the store keeps its memory.  A source that is not
    C-contiguous is written in blocks of ``WRITE_BLOCK_COLUMNS`` columns."""
    n, width = store.shape
    idx = as_index_set(idx, n)
    rows = np.asarray(rows, dtype=np.float64)
    if rows.shape != (idx.size, width):
        raise ValueError(f"expected rows of shape {(idx.size, width)}, "
                         f"got {rows.shape}")
    step = width if rows.flags.c_contiguous else WRITE_BLOCK_COLUMNS
    for start in range(0, width, step):
        store[idx, start:start + step] = rows[:, start:start + step]


class Gate:
    """Reference-comparing token gate.

    Selected tokens have their reference overwritten with the current input;
    unselected references are left untouched, so their error keeps
    accumulating until the policy picks them.  The first call compares
    against a zero reference and selects every token.  Later calls select
    only among the tokens whose difference has a nonzero norm, so a
    ``top_r`` gate takes min(r, changed) tokens; a norm that underflows to
    0 leaves its token's error accumulating like any unpicked one.
    Subclasses change what a call returns (DeltaGate) or how the reference
    is refreshed (StgtGate), and with it which unchanged picks they keep
    (``_drops_unchanged``); the check and selection are shared, and so is
    counting the gate's own cost into the ledger.
    """

    def __init__(self, n: int, width: int, policy: Policy,
                 ledger: CostLedger | None = None):
        self.n = n
        self.policy = policy
        self.ledger = ledger or NullLedger()
        self.u = _zero_store(n, width)
        self.last_idx: IndexSet | None = None

    def _select(self, c: TokenMatrix) -> tuple[TokenMatrix, IndexSet]:
        """Validate c and pick the tokens to refresh; returns (c, idx).

        The first call takes every token against a zero reference at no
        cost.  Later calls take idx from the policy applied to the per-token
        norm of the difference c - u, at one subtraction and one squared-norm
        MAC per element, and the picks of norm 0 are dropped where
        ``_drops_unchanged`` says so.  The difference is not kept.
        """
        c = np.asarray(c, dtype=np.float64)
        if c.shape != self.u.shape:
            raise ValueError(f"expected input of shape {self.u.shape}, "
                             f"got {c.shape}")
        if self.last_idx is None:
            idx = full_index_set(self.n)
        else:
            norms = row_l2_norms(c - self.u)
            idx = self.policy.select(norms)
            if self._drops_unchanged(idx):
                idx = idx[norms[idx] > 0]
            self.ledger.count_adds(c.size)
            self.ledger.count_macs("gate_overhead", c.size)
        self.last_idx = idx
        return c, idx

    def _drops_unchanged(self, idx: IndexSet) -> bool:
        """Whether a call drops the picks idx of norm 0; fixed per class."""
        return True

    def _refresh(self, c: TokenMatrix, idx: IndexSet, picked: TokenMatrix):
        """Reference-update rule: overwrite the selected rows only."""
        _write_rows(self.u, idx, picked)

    def __call__(self, c: TokenMatrix) -> tuple[IndexSet, TokenMatrix]:
        c, idx = self._select(c)
        picked = c[idx]
        self._refresh(c, idx, picked)
        return idx, picked


class DeltaGate(Gate):
    """Gate variant that reports the change amounts instead of raw tokens.

    Returns the full updated reference plus the gathered per-token change
    (current minus previous reference) at the selected indices: exactly the
    pieces an incremental product update needs.  The first call's previous
    reference is zero, so its change equals the input.  It drops its
    unchanged picks like a plain Gate unless the policy picks every
    token: in attention its picks also choose the attention gate's
    columns to refresh, and A changes where V did not, so a full budget
    refreshes all of A, while below it A's columns whose V did not change
    stay stale like any unpicked column.
    """

    def _drops_unchanged(self, idx):
        return idx.size < self.n

    def __call__(self, c: TokenMatrix) -> tuple[IndexSet, TokenMatrix, TokenMatrix]:
        c, idx = self._select(c)
        return idx, self.u, self.forced(c[idx], idx)

    def forced(self, rows: TokenMatrix, idx: IndexSet) -> TokenMatrix:
        """``overwrite`` that also returns the changes (rows minus the
        reference they replace), counting one subtraction each into the
        gate's ledger; the only rule that turns a write into changes."""
        idx = as_index_set(idx, self.n)
        old = self.u[idx]
        self.overwrite(rows, idx)
        self.ledger.count_adds(old.size)
        return np.subtract(rows, old, out=old)

    def overwrite(self, rows: TokenMatrix, idx: IndexSet):
        """Skip the policy and set exactly the externally chosen tokens idx
        to ``rows``, their new values gathered (|idx| x width)."""
        _write_rows(self.u, idx, rows)


class StgtGate(Gate):
    """Lossy previous-frame gate, reconstructing the prior method's behavior.

    Compares against the previous frame's input instead of a per-token
    reference and then overwrites the whole comparison tensor, so changes on
    unselected tokens are forgotten rather than accumulated.  Under gradual
    drift the per-frame error never grows, and tokens the policy keeps
    skipping go permanently stale.  A token equal to its previous-frame
    value may still be stale in the buffer, so this gate fills its budget
    with such tokens too.  Kept as a comparison baseline; the
    original method's exact internals are not public, so this is a
    reconstruction of its gating logic, not a reimplementation.
    """

    def _drops_unchanged(self, idx):
        return False

    def _refresh(self, c, idx, picked):
        _write_rows(self.u, full_index_set(self.n), c)


class Buffer:
    """Dense holder of the most recent known value of every token."""

    def __init__(self, n: int, width: int):
        self.b = _zero_store(n, width)

    def __call__(self, idx: IndexSet, tokens: TokenMatrix) -> TokenMatrix:
        _write_rows(self.b, idx, tokens)
        return self.b
