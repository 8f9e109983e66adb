"""Operation counting and state-memory accounting.

A multiply-accumulate is one operation: a matrix product (m, k) x (k, n)
costs m*k*n MACs.  Counted MAC categories:

  token_wise     query/key/value transforms, output projection, MLP
  qk             query-key similarity products (incremental or from scratch)
  av             attention-value products (incremental or from scratch)
  gate_overhead  squared-norm evaluation inside selection policies

The incremental path of "full" mode takes each product whole or patches
it by the rules of ``frame_plan``, so per block it never pays more than the
exact block's N*N*D for either product.

Gate error subtractions, the delta gates' change subtractions and the
extra additions of the incremental attention-value update are tracked
separately as plain adds.  Nonlinear work is counted apart from the MACs
as ``nonlinear_elems``: the elements through layer norm and GELU (in a
gated block, only the rows their gates pick), plus the exponentials the
softmax evaluates (every score of a full softmax, or those of
``patched_softmax_exps``).

A stream's first frame, which fills every state tensor, is counted like
any other; steady-state totals start after it.
"""

from __future__ import annotations

from .kernels import check_heads, check_integer

MAC_CATEGORIES = ("token_wise", "qk", "av", "gate_overhead")
MLP_RATIO = 4    # every MLP's hidden width over the token width, as in ViT


def cost_record(token_wise: int, qk: int, av: int, gate_overhead: int = 0,
                adds: int = 0, nonlinear: int = 0) -> dict:
    """One set of operation counts.  Ledger snapshots, their steady-state
    sums and the closed forms are all such records, so a closed form is
    checked against a snapshot by one comparison."""
    return {"macs_token_wise": token_wise, "macs_qk": qk, "macs_av": av,
            "macs_gate_overhead": gate_overhead,
            "macs_total": token_wise + qk + av + gate_overhead,
            "adds_overhead": adds, "nonlinear_elems": nonlinear}


class CostLedger:
    """Accumulates MACs and adds, with one cost record per frame.  A ledger
    serves one stream, as a ``Model`` does."""

    def __init__(self):
        self.macs = dict.fromkeys(MAC_CATEGORIES, 0)
        self.adds = 0
        self.nonlinear_elems = 0
        self.frames: list[dict] = []
        self._frame_start = None

    def _running(self) -> dict:
        return cost_record(*self.macs.values(), self.adds, self.nonlinear_elems)

    def begin_frame(self):
        self._frame_start = self._running()

    def end_frame(self):
        if self._frame_start is None:
            raise RuntimeError("end_frame without begin_frame")
        now = self._running()
        snap = {key: now[key] - self._frame_start[key] for key in now}
        self.frames.append(snap)
        self._frame_start = None
        return snap

    def count_macs(self, category: str, count: int):
        self.macs[category] += int(count)

    def matmul(self, category: str, a, b):
        """Record and perform a product; the accumulate step is free."""
        self.macs[category] += a.shape[0] * a.shape[1] * b.shape[1]
        return a @ b

    def count_adds(self, count: int):
        self.adds += int(count)

    def count_nonlinear(self, elems: int):
        self.nonlinear_elems += int(elems)

    def steady_state_totals(self) -> dict:
        """Summed cost record over every frame after the first."""
        total = cost_record(0, 0, 0)
        for snap in self.frames[1:]:
            for key in total:
                total[key] += snap[key]
        return total


class NullLedger(CostLedger):
    """Counts like ``CostLedger`` but keeps no per-frame records."""

    def begin_frame(self):
        pass

    def end_frame(self):
        pass


def _norm_and_gelu_elems(m: int, d: int) -> int:
    """Two layer norms and GELU over the m rows their gates pick."""
    return 2 * m * d + m * MLP_RATIO * d


def patched_softmax_exps(n: int, n_kv: int, rows: int, cols: int) -> int:
    """Exponentials one head's patched softmax evaluates, resyncs aside.

    ``rows`` changed queries are recomputed against all n_kv keys; when
    ``cols`` key columns changed, every one of the n queries, the changed
    ones included, pays its old and new scores there and one rescale
    factor, since the patch runs over all queries at once along the key
    axis before the changed rows overwrite theirs.  A resynced row adds
    n_kv more.
    """
    patched = n * (2 * cols + 1) if cols else 0
    return rows * n_kv + patched


def frame_plan(n: int, n_kv: int, rows: int, cols: int, values: int,
               outside: int) -> tuple[bool, bool]:
    """The whole-or-patch rules of one frame of incremental attention.

    ``rows`` of n queries and ``cols`` of n_kv key columns changed; the
    value gate picked ``values`` columns, ``outside`` of them unchanged, so
    ``outside <= values <= cols + outside`` or ValueError is raised.
    Each rule takes a piece whole, as the oracle does, where patching would
    cost at least as many MACs or exponentials.  B and the softmax are
    decided together, from a clock measurement: a whole softmax reads every
    score of B again, so patching B before it saved MACs but not time.  At
    drift-pool-budget's shape, eight heads' ``qk_sparse_update`` took 1.6
    and 2.5 ms for 72 and 144 changed queries (60 and 100 pooled keys)
    against 1.0 ms for their whole products, and taking B whole on its
    r = 72 and 144 frames cut the workload's ``frame_ms_p50`` by 5.8 %
    (1 BLAS thread).  Returns, in order:

      patch     B and the softmax patched when ``outside`` is 0 and
                ``patched_softmax_exps`` + n*values < n*n_kv; the value
                columns are charged as if read from B, so the decision
                does not move with the overlap.  B's patch is then below
                its MAC parity too, rows*n_kv + n*cols < n*n_kv per head
                width, since the patch takes at least as many exponentials.
                Otherwise B is recomputed whole, as the oracle's product,
                and the softmax taken whole, which also refreshes every
                row's normalizers.
      whole_av  the attention-value product whole when 2*values >= n_kv;
                otherwise it is advanced by the delta identity.
    """
    if not outside <= values <= cols + outside:
        raise ValueError(f"a frame of {values} value columns, {outside} of "
                         f"them outside the {cols} changed ones, cannot occur")
    patch = (outside == 0
             and patched_softmax_exps(n, n_kv, rows, cols) + n * values < n * n_kv)
    whole_av = 2 * values >= n_kv
    return patch, whole_av


def _check_sizes(n: int, d: int, h: int, **more):
    """Raise ValueError unless n, d, h and every size in ``more`` are
    integers of at least 1 and width d splits over the h heads."""
    for name, size in dict(n=n, d=d, **more).items():
        check_integer(name, size, 1)
    check_heads(d, h)


def _check_closed_form(mode: str):
    """Raise ValueError unless mode is "full", "tokenwise_only" or "stgt"."""
    if mode not in ("full", "tokenwise_only", "stgt"):
        raise ValueError(f"no closed-form cost for mode {mode!r}")


def count_block_baseline(n: int, d: int, h: int) -> dict:
    """MACs for one exact block frame: qkv + similarity + weighting + proj + MLP."""
    _check_sizes(n, d, h)
    token_wise = 3 * n * d * d + n * d * d + 2 * MLP_RATIO * n * d * d
    return cost_record(token_wise, n * n * d, n * n * d,
                       nonlinear=_norm_and_gelu_elems(n, d) + h * n * n)


def count_block_eventful(n: int, m: int, d: int, h: int,
                         mode: str = "full") -> dict:
    """MACs and adds for one steady-state gated block frame with m tokens selected.

    Every gate is charged exactly m picks.  A token-wise gate, and below a
    full budget the value gate, takes fewer when fewer than m tokens
    changed; this then bounds the ledger's MACs, not its adds.

    In "full" mode M rows, M columns and M value columns, all among the
    changed ones, go through ``frame_plan``: a patched product costs 2NMD
    (row/column scatter, aligned delta identity) and a whole one the exact
    block's N*N*D.  B is patched only with the softmax, so for M > 0 its
    product is whole from 4M + 1 >= N on, where the softmax's patch reaches
    parity; a patched attention-value product pays the forced
    gates' changes and the delta products' adds.  The value gate's M*D
    change subtractions are paid on every frame.  Rows resynced on the
    frame add N exponentials each, which no closed form predicts.  In
    "tokenwise_only" and "stgt" modes both products are recomputed from the
    buffered tensors, so only token-wise work scales with m.  There is no
    closed form for "spatial_pool": the number of refreshed pooled columns
    depends on where the selected tokens sit on the grid, so pooled runs are
    costed by instrumentation only.
    """
    _check_sizes(n, d, h)
    _check_closed_form(mode)
    check_integer("m", m, 0)
    if m > n:
        raise ValueError(f"m must be at most n = {n}, got {m}")
    token_wise = 3 * m * d * d + m * d * d + 2 * MLP_RATIO * m * d * d
    if mode == "full":
        patch, whole_av = frame_plan(n, n, m, m, m, 0)
        qk = 2 * n * m * d if patch else n * n * d
        av = n * n * d if whole_av else 2 * n * m * d
        gate_norms = 4 * n * d            # qkv, value, projection, MLP gates
        adds = 4 * n * d + m * d          # their error subtractions and
                                          # the value gate's changes
        if m and not whole_av:            # av by the delta identity:
            adds += h * m * n             # the forced gates' changes,
            adds += 2 * n * d + m * d     # the delta products' extra adds
        exps = patched_softmax_exps(n, n, m, m) if patch else n * n
    else:
        qk = av = n * n * d
        gate_norms = 3 * n * d            # qkv, projection, MLP gates
        adds = 3 * n * d
        exps = n * n
    return cost_record(token_wise, qk, av, gate_norms, adds,
                       _norm_and_gelu_elems(m, d) + h * exps)


def memory_report(n: int, d: int, h: int, bytes_per_element: int = 4,
                  mode: str = "full") -> dict:
    """Bytes of persistent state of one block at pool factor 1, tensor by
    tensor, in a mode with a closed form, as ``count_block_eventful``.
    Every mode keeps three token gates' references and five buffers;
    "full" adds the similarity matrix, the softmax normalizers, the
    attention and value gates' references and the attention-value cache.
    The library stores float64, so its own state is the report at 8 bytes
    per element, not the default 4."""
    _check_sizes(n, d, h, bytes_per_element=bytes_per_element)
    _check_closed_form(mode)
    token = n * d * bytes_per_element
    report = dict.fromkeys(
        ("token_gate_reference", "query_buffer", "key_buffer", "value_buffer",
         "projection_gate_reference", "projection_buffer",
         "mlp_gate_reference", "mlp_buffer"), token)
    if mode == "full":
        attn = n * n * h * bytes_per_element
        rows = n * h * bytes_per_element
        report.update(similarity_buffer=attn, softmax_row_offsets=rows,
                      softmax_row_sums=rows, attention_gate_reference=attn,
                      value_gate_reference=token, attention_value_cache=token)
    report["block_total"] = sum(report.values())
    return report
