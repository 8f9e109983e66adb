"""Temporal-redundancy-aware transformer inference on token streams.

Consecutive frames of a token stream differ in few tokens.  This library
recomputes only those tokens: reference-comparing gates decide which tokens
changed enough to matter, token-wise operators run on the selected subset,
and the self-attention products are patched incrementally (row/column
scatter for the similarity matrix, an aligned delta identity for the
attention-value product).  A runtime budget caps how many tokens each gate
may pass.

Also included: an exact oracle model, a multiply-accumulate cost model with
closed-form validators, a state-memory report, synthetic stream generators,
and a paired-execution harness with CSV/JSON reporting.
"""

from .attention import (
    AttentionState,
    AttentionWeights,
    av_delta_update,
    head_merge,
    head_split,
    msa_baseline,
    pool_index_set,
    pool_tokens,
    qk_sparse_update,
)
from .block import (
    BlockWeights,
    GatedBlock,
    Model,
    ModelConfig,
    ModelWeights,
    block_baseline,
    init_model_weights,
)
from .costs import (
    CostLedger,
    NullLedger,
    count_block_baseline,
    count_block_eventful,
    cost_record,
    memory_report,
)
from .gates import (
    Buffer,
    DeltaGate,
    Gate,
    Policy,
    StgtGate,
    threshold_indices,
    top_r_indices,
)
from .harness import (
    RunReport,
    measure_walltime,
    run_pair,
    sweep_budget,
    write_run_csv,
    write_summary_json,
    write_sweep_csv,
)
from .kernels import gelu, layer_norm, row_l2_norms, softmax_rows
from .rng import SplitRng
from .streams import StreamConfig, gen_stream, iter_stream

__version__ = "0.1.0"
