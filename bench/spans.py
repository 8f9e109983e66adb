"""Per-layer spans recorded from outside the library.

The traced run swaps chosen module attributes and class methods of
``tokengate`` for thin wrappers that record a nested span around each call,
and passes a ``CostLedger`` subclass that times every product per MAC
category.  Nothing under ``src/`` is edited: the wrappers are installed
only while a traced frame runs and the originals are put back afterwards.

A span's self time is its duration minus the time of the spans it
encloses.  Totals are kept per frame; the caller reads and resets them.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager

from tokengate import attention, block, gates
from tokengate.costs import CostLedger


def _softmax_elems(tracer, args, kwargs, result):
    tracer.count("kernels.softmax_elems", result.size)


def _av_update_reads(tracer, args, kwargs, result):
    bound = _AV_UPDATE_SIG.bind(*args, **kwargs).arguments
    rows = bound["attn_now"].shape[0]
    tracer.count("attention.useful_elems", rows * len(bound["idx"]))


def _value_gate_picks(tracer, args, kwargs, result):
    tracer.count("gates.selected.v", len(result[0]))
    tracer.count("gates.tokens.v", args[0].n)


_AV_UPDATE_SIG = inspect.signature(attention.av_delta_update)

# (owner, attribute, span name, probe run on each call's result)
STEP_TARGETS = (
    (attention, "softmax_rows", "kernels.softmax", _softmax_elems),
    (attention, "av_delta_update", "attention.av_update", _av_update_reads),
    (block, "layer_norm", "kernels.layer_norm", None),
    (block, "gelu", "kernels.gelu", None),
    (block.GatedBlock, "step", "block.step", None),
    (attention.AttentionState, "step", "attention.step", None),
    (gates.Gate, "__call__", "gates.gate", None),
    (gates.DeltaGate, "__call__", "gates.delta_gate", _value_gate_picks),
    (gates.DeltaGate, "forced", "gates.forced", None),
    (gates.Buffer, "__call__", "gates.buffer", None),
    (gates.Policy, "select", "gates.select", None),
)
SETUP_TARGETS = (
    (block, "init_model_weights", "rng.init_weights", None),
)


class Tracer:
    """Nested span timer with per-frame totals, self times and counters."""

    def __init__(self):
        self.active = False
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []            # [name, start, time covered by children]

    def reset(self):
        self.total.clear()
        self.self_time.clear()
        self.counts.clear()

    def count(self, name: str, amount: int):
        self.counts[name] += int(amount)

    def inside(self, name: str) -> bool:
        return any(entry[0] == name for entry in self._stack)

    def call(self, name, fn, probe, args, kwargs):
        entry = [name, time.perf_counter(), 0.0]
        self._stack.append(entry)
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - entry[1]
            self._stack.pop()
            self.total[name] += elapsed
            self.self_time[name] += elapsed - entry[2]
            if self._stack:
                self._stack[-1][2] += elapsed
        if probe is not None:
            probe(self, args, kwargs, result)
        return result

    @contextmanager
    def installed(self, targets):
        """Wrap every target for the duration of the block, then restore it."""
        saved = []
        try:
            for owner, attr, name, probe in targets:
                original = vars(owner).get(attr)
                if original is None:
                    raise AttributeError(f"{owner.__name__} has no own {attr!r}")
                setattr(owner, attr, self._wrap(name, original, probe))
                saved.append((owner, attr, original))
            self.active = True
            yield self
        finally:
            self.active = False
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _wrap(self, name, fn, probe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, probe, args, kwargs)
        return traced


class TimingLedger(CostLedger):
    """Counts like ``CostLedger``; while the tracer is active it also times
    each product as a ``costs.<category>`` span."""

    def __init__(self, tracer: Tracer):
        super().__init__()
        self.tracer = tracer

    def matmul(self, category, a, b):
        tracer = self.tracer
        if not tracer.active:
            return super().matmul(category, a, b)
        if category == "av" and not tracer.inside("attention.av_update"):
            # a product from scratch reads every attention element
            tracer.count("attention.useful_elems", a.size)
        return tracer.call("costs." + category, super().matmul, None,
                           (category, a, b), {})
