"""Operation counting: closed forms, the N/2 crossover, and memory.

The incremental attention updates cost 2NMD each, against N^2 D from
scratch, so the products only get cheaper once fewer than half the tokens
update; from M = N/2 on each product is taken from scratch, so they never
cost more than the exact block's.  The query-key product is patched only
together with the softmax, which reaches its own parity first, so it is
taken from scratch already from 4M + 1 >= N on (M = 8 here).  Token-wise
work always scales with M.  The closed forms are not estimates: an
instrumented run of the gated block reproduces them to the exact integer.
"""

from tokengate import (
    CostLedger,
    GatedBlock,
    ModelConfig,
    Policy,
    count_block_baseline,
    count_block_eventful,
    init_model_weights,
    memory_report,
)
from tokengate.rng import SplitRng

n, d, heads = 32, 16, 2
base = count_block_baseline(n, d, heads)
print(f"exact block, N={n} D={d}: {base['macs_total']} MACs per frame")

print("\nupdated tokens M -> gated MACs (crossover in the products at N/2):")
for m in (0, 4, 8, 12, 16, 20, 32):
    gated = count_block_eventful(n, m, d, heads)
    products = gated["macs_qk"] + gated["macs_av"]
    products_cheaper = products < base["macs_qk"] + base["macs_av"]
    print(f"  M={m:2d}: total {gated['macs_total']:7d}  "
          f"savings x{base['macs_total'] / gated['macs_total']:5.2f}  "
          f"products cheaper: {products_cheaper}")

# instrumented run == closed form, every count integer for integer
m = 8
ledger = CostLedger()
weights = init_model_weights(ModelConfig(blocks=1, n=n, d=d, heads=heads,
                                         seed=1))
block = GatedBlock(weights.blocks[0], n, Policy("top_r", r=m), ledger=ledger)
rng = SplitRng(2)
for _ in range(3):
    ledger.begin_frame()
    block.step(rng.normal((n, d)))
    ledger.end_frame()
snap = ledger.frames[-1]
formula = count_block_eventful(n, m, d, heads)
# each softmax row resynced after cancellation adds N exponentials
formula["nonlinear_elems"] += n * block.attn.resynced
print(f"\ninstrumented steady-state frame: {snap['macs_total']} MACs, "
      f"closed form {formula['macs_total']} -> "
      f"{'match' if snap == formula else 'MISMATCH'}"
      f" on all {len(formula)} counts")

# state memory at a large-model scale
report = memory_report(4096, 768, 12, bytes_per_element=4)
print(f"\nstate memory at N=4096, D=768, H=12 (4-byte elements):")
print(f"  one token gate/buffer: {report['token_gate_reference'] / 1e6:.1f} MB")
print(f"  similarity buffer:     {report['similarity_buffer'] / 1e6:.0f} MB")
print(f"  whole block:           {report['block_total'] / 1e6:.0f} MB")
