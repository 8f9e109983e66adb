"""Transformer blocks and the toy stacked model.

``block_baseline`` is the exact, stateless two-residual block.  GatedBlock
is the temporal-redundancy-aware counterpart: gate-buffer pairs wrap every
contiguous run of token-wise work (the query/key/value transform, the
output projection, the MLP), and the attention products are maintained by
AttentionState.  Layer norm is token-wise too, so the qkv and MLP gates sit
on the residual stream in front of their norms: each norm runs on the picked
rows only, and a gate's error (what a threshold h is compared with) is the
change of a token's residual before normalization.  The buffers sit before
both residual additions so each skip sees a full token tensor.

Modes:
  full            gated token-wise ops plus incremental attention products
  tokenwise_only  gated token-wise ops, products recomputed from buffers
  stgt            like tokenwise_only but with the lossy previous-frame gates
  spatial_pool    full machinery with mean-pooled keys/values on the grid

The toy model stacks blocks behind an additive position embedding and ends
with token mean-pooling plus one linear classification head.  Nothing is
trained; weights are drawn from a seeded portable generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from .attention import (
    AttentionState,
    AttentionWeights,
    _pool_grid,
    _project,
    msa_baseline,
)
from .costs import MLP_RATIO, CostLedger, NullLedger
from .gates import Buffer, Gate, Policy, StgtGate
from .kernels import TokenMatrix, check_heads, check_integer, gelu, layer_norm
from .rng import SplitRng

MODES = ("full", "tokenwise_only", "stgt", "spatial_pool")


@dataclass
class BlockWeights:
    """All parameters of one block."""

    attn: AttentionWeights
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    ln1_gamma: np.ndarray
    ln1_beta: np.ndarray
    ln2_gamma: np.ndarray
    ln2_beta: np.ndarray

    @property
    def width(self) -> int:
        return self.attn.width


def _check_mode(mode: str, pool_p: int):
    """Reject an unknown mode, and a pool factor the mode would not apply."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "spatial_pool" and pool_p < 2:
        raise ValueError("spatial_pool mode needs pool_p >= 2")
    if mode != "spatial_pool" and pool_p != 1:
        raise ValueError(f"{mode} mode does not pool; pool_p must be 1")


@dataclass
class ModelConfig:
    """Shape, policy, and mode of the toy stacked model.  Its linear head
    has ``num_classes`` outputs and each MLP ``MLP_RATIO * d`` hidden
    units, the same for every config."""

    blocks: int = 2
    n: int = 16
    d: int = 8
    heads: int = 2
    mode: str = "full"
    pool_p: int = 1
    seed: int = 0
    policy: Policy = field(default_factory=lambda: Policy("top_r", r=4))
    num_classes: ClassVar[int] = 10

    def __post_init__(self):
        for name, minimum in (("blocks", 0), ("n", 1), ("d", 1),
                              ("pool_p", 1), ("seed", None)):
            check_integer(name, getattr(self, name), minimum)
        check_heads(self.d, self.heads)
        _check_mode(self.mode, self.pool_p)
        _pool_grid(self.n, self.pool_p)
        if not isinstance(self.policy, Policy):
            raise ValueError(f"policy must be a Policy, got {self.policy!r}")


def _mlp_forward(tokens, w, ledger):
    hidden = ledger.matmul("token_wise", tokens, w.w1) + w.b1
    hidden = gelu(hidden)
    ledger.count_nonlinear(hidden.size)
    return ledger.matmul("token_wise", hidden, w.w2) + w.b2


def block_baseline(x: TokenMatrix, w: BlockWeights, pool_p: int = 1,
                   ledger: CostLedger | None = None) -> TokenMatrix:
    """Exact stateless block: attention residual, then MLP residual."""
    ledger = ledger or NullLedger()
    xn = layer_norm(x, w.ln1_gamma, w.ln1_beta)
    ledger.count_nonlinear(xn.size)
    y = msa_baseline(xn, w.attn, ledger, pool_p) + x
    yn = layer_norm(y, w.ln2_gamma, w.ln2_beta)
    ledger.count_nonlinear(yn.size)
    return _mlp_forward(yn, w, ledger) + y


class GatedBlock:
    """Stateful temporal-redundancy-aware block for one token stream."""

    def __init__(self, weights: BlockWeights, n: int, policy: Policy,
                 mode: str = "full", pool_p: int = 1,
                 ledger: CostLedger | None = None):
        _check_mode(mode, pool_p)
        d = weights.width
        self.w = weights
        self.policy = policy
        self.ledger = ledger or NullLedger()
        gate_cls = StgtGate if mode == "stgt" else Gate
        self.gate_qkv = gate_cls(n, d, policy, self.ledger)
        self.gate_p = gate_cls(n, d, policy, self.ledger)
        self.gate_mlp = gate_cls(n, d, policy, self.ledger)
        self.p_buf = Buffer(n, d)
        self.mlp_buf = Buffer(n, d)
        attn_mode = "full" if mode in ("full", "spatial_pool") else "tokenwise_only"
        self.attn = AttentionState(
            n, d, weights.attn.heads, policy, mode=attn_mode, pool=pool_p,
            ledger=self.ledger)

    def selected_counts(self) -> dict:
        """Tokens processed by each gated operator on the most recent frame."""
        return {
            "selected_qkv": int(self.gate_qkv.last_idx.size),
            "selected_p": int(self.gate_p.last_idx.size),
            "selected_mlp": int(self.gate_mlp.last_idx.size),
        }

    def step(self, x: TokenMatrix) -> TokenMatrix:
        w, a, ledger = self.w, self.w.attn, self.ledger
        idx, picked = self.gate_qkv(x)
        xn = layer_norm(picked, w.ln1_gamma, w.ln1_beta)
        ledger.count_nonlinear(xn.size)
        y_att = self.attn.step(idx, _project(xn, a.wq, a.bq, ledger),
                               _project(xn, a.wk, a.bk, ledger),
                               _project(xn, a.wv, a.bv, ledger))

        idx_p, picked_p = self.gate_p(y_att)
        proj = _project(picked_p, a.wp, a.bp, ledger)
        y = self.p_buf(idx_p, proj) + x

        idx_m, picked_m = self.gate_mlp(y)
        yn = layer_norm(picked_m, w.ln2_gamma, w.ln2_beta)
        ledger.count_nonlinear(yn.size)
        mlp_out = _mlp_forward(yn, w, ledger)
        return self.mlp_buf(idx_m, mlp_out) + y


@dataclass
class ModelWeights:
    pos_embed: np.ndarray
    blocks: list[BlockWeights]
    head_w: np.ndarray
    head_b: np.ndarray


def init_model_weights(cfg: ModelConfig) -> ModelWeights:
    """Seeded random weights at standard scales (1/sqrt(fan_in))."""
    rng = SplitRng(cfg.seed).substream(1)
    d, hidden = cfg.d, MLP_RATIO * cfg.d
    scale = d ** -0.5

    def mat(rows, cols, s):
        return rng.normal((rows, cols)) * s

    blocks = []
    for _ in range(cfg.blocks):
        attn = AttentionWeights(
            wq=mat(d, d, scale), wk=mat(d, d, scale), wv=mat(d, d, scale),
            wp=mat(d, d, scale), heads=cfg.heads,
            bq=np.zeros(d), bk=np.zeros(d), bv=np.zeros(d), bp=np.zeros(d))
        blocks.append(BlockWeights(
            attn=attn,
            w1=mat(d, hidden, scale), b1=np.zeros(hidden),
            w2=mat(hidden, d, hidden ** -0.5), b2=np.zeros(d),
            ln1_gamma=np.ones(d), ln1_beta=np.zeros(d),
            ln2_gamma=np.ones(d), ln2_beta=np.zeros(d)))
    return ModelWeights(
        pos_embed=rng.normal((cfg.n, cfg.d)) * 0.02,
        blocks=blocks,
        head_w=mat(d, cfg.num_classes, scale),
        head_b=np.zeros(cfg.num_classes))


class Model:
    """Stack of blocks + mean pool + linear head, in exact or gated form.

    ``baseline_frame`` is stateless and serves as the oracle;``step``
    advances the gated state.  One Model instance serves one stream.
    """

    def __init__(self, cfg: ModelConfig, ledger: CostLedger | None = None):
        self.cfg = cfg
        self.weights = init_model_weights(cfg)
        self.ledger = ledger or NullLedger()
        # one budget policy object shared by every gate of every block,
        # copied from the config so separate model instances stay decoupled
        self.policy = replace(cfg.policy)
        self.blocks = [
            GatedBlock(bw, cfg.n, self.policy, mode=cfg.mode,
                       pool_p=cfg.pool_p, ledger=self.ledger)
            for bw in self.weights.blocks
        ]

    def set_budget(self, r: int):
        """Point every gate of every block at budget r from the next frame on;
        raises ValueError under a threshold policy."""
        self.policy.set_budget(r)

    def embed(self, frame: TokenMatrix) -> TokenMatrix:
        """Add the position embedding to a frame of n x d numbers (an array
        or nested lists); raises ValueError on any other frame."""
        try:
            frame = np.asarray(frame, dtype=np.float64)
        except (TypeError, ValueError) as err:
            raise ValueError(f"frame must be an array of numbers: {err}") from None
        if frame.shape != (self.cfg.n, self.cfg.d):
            raise ValueError(f"expected frame of shape {(self.cfg.n, self.cfg.d)}, "
                             f"got {frame.shape}")
        if not np.isfinite(frame).all():
            raise ValueError("frame has non-finite entries")
        return frame + self.weights.pos_embed

    def head(self, tokens: TokenMatrix) -> np.ndarray:
        pooled = tokens.mean(axis=0)
        return pooled @ self.weights.head_w + self.weights.head_b

    def baseline_frame(self, frame: TokenMatrix,
                       ledger: CostLedger | None = None) -> tuple[TokenMatrix, np.ndarray]:
        """Exact stateless forward pass; the oracle for every gated mode.

        It pools with the config's pool factor: pooling is part of the
        architecture, not of the approximation, so the oracle shares it."""
        ledger = ledger or NullLedger()
        tokens = self.embed(frame)
        for bw in self.weights.blocks:
            tokens = block_baseline(tokens, bw, pool_p=self.cfg.pool_p,
                                    ledger=ledger)
        return tokens, self.head(tokens)

    def step(self, frame: TokenMatrix) -> tuple[TokenMatrix, np.ndarray]:
        """Gated stateful forward pass for the next frame of the stream."""
        tokens = self.embed(frame)    # rejects a bad frame before any state changes
        self.ledger.begin_frame()
        for block in self.blocks:
            tokens = block.step(tokens)
        self.ledger.end_frame()
        return tokens, self.head(tokens)

    def selected_counts(self) -> dict:
        """Summed per-gate selection sizes over blocks for the latest frame."""
        totals = {"selected_qkv": 0, "selected_p": 0, "selected_mlp": 0}
        for block in self.blocks:
            for key, val in block.selected_counts().items():
                totals[key] += val
        return totals
