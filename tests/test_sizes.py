"""Every entry point that takes a size rejects a non-integer, a bool, a value
below the size's minimum and a width that does not split over the heads,
with a ValueError naming the field or the heads rule.  Other malformed
inputs are rejected with an error that says what is wrong."""

import io
import json
import zipfile

import numpy as np
import pytest

from tokengate.archive import load_tensors
from tokengate.attention import (
    AttentionState,
    AttentionWeights,
    head_split,
    qk_sparse_update,
)
from tokengate.block import ModelConfig
from tokengate.costs import count_block_baseline, count_block_eventful, memory_report
from tokengate.gates import Buffer, DeltaGate, Gate, Policy, StgtGate
from tokengate.harness import measure_walltime
from tokengate.rng import SplitRng
from tokengate.streams import StreamConfig


def _attention_weights(d=8, heads=2):
    w, b = np.zeros((d, d)), np.zeros(d)
    return AttentionWeights(w, w, w, w, heads, b, b, b, b)


# entry point -> (call taking sizes by name, each size's minimum or None);
# a size left out takes a valid default
ENTRY_POINTS = {
    "ModelConfig": (
        lambda **sizes: ModelConfig(**sizes),
        {"blocks": 0, "n": 1, "d": 1, "heads": 1, "pool_p": 1, "seed": None}),
    "StreamConfig": (
        lambda **sizes: StreamConfig(**sizes),
        {"n": 1, "d": 1, "frames": 1, "seed": None}),
    "AttentionWeights": (_attention_weights, {"heads": 1}),
    "head_split": (
        lambda d=8, heads=2: head_split(np.zeros((4, d)), heads),
        {"heads": 1}),
    "AttentionState": (
        lambda n=16, d=8, heads=2, pool=1: AttentionState(n, d, heads, Policy(),
                                                          pool=pool),
        {"n": 1, "d": 1, "heads": 1, "pool": 1}),
    "count_block_baseline": (
        lambda n=16, d=8, heads=2: count_block_baseline(n, d, heads),
        {"n": 1, "d": 1, "heads": 1}),
    "count_block_eventful": (
        lambda n=16, m=4, d=8, heads=2: count_block_eventful(n, m, d, heads),
        {"n": 1, "m": 0, "d": 1, "heads": 1}),
    **{cls.__name__: (
        lambda n=16, width=8, cls=cls: cls(n, width, Policy("top_r", r=2)),
        {"n": 1, "width": 1}) for cls in (Gate, DeltaGate, StgtGate)},
    "Buffer": (lambda n=16, width=8: Buffer(n, width), {"n": 1, "width": 1}),
    "memory_report": (
        lambda n=16, d=8, heads=2, bytes_per_element=4: memory_report(
            n, d, heads, bytes_per_element),
        {"n": 1, "d": 1, "heads": 1, "bytes_per_element": 1}),
    "SplitRng.next_uint64": (lambda n=4: SplitRng(1).next_uint64(n), {"n": 0}),
    "SplitRng.integers": (
        lambda n=4, bound=3: SplitRng(1).integers(n, bound),
        {"n": 0, "bound": 1}),
    "SplitRng.choice_without_replacement": (
        lambda n=5, k=2: SplitRng(1).choice_without_replacement(n, k),
        {"n": 2, "k": 0}),
    "SplitRng.normal": (lambda shape=3: SplitRng(1).normal(shape), {"shape": 0}),
    "measure_walltime": (
        lambda repetitions=3: measure_walltime(ModelConfig(), StreamConfig(),
                                               repetitions),
        {"repetitions": 3}),
}

BAD_SIZES = [
    pytest.param(entry, field, value, f"{field} must be an integer",
                 id=f"{entry}-{field}-{label}")
    for entry, (_, minimums) in ENTRY_POINTS.items()
    for field in minimums
    for value, label in ((16.5, "fraction"), (True, "bool"))
] + [
    pytest.param(entry, field, minimum - 1, f"{field} must be at least {minimum}",
                 id=f"{entry}-{field}-below")
    for entry, (_, minimums) in ENTRY_POINTS.items()
    for field, minimum in minimums.items() if minimum is not None
]


@pytest.mark.parametrize("entry, field, value, message", BAD_SIZES)
def test_bad_size_rejected_naming_its_field(entry, field, value, message):
    call, _ = ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=f"^{message}"):
        call(**{field: value})


@pytest.mark.parametrize("entry", [entry for entry, (_, minimums)
                                   in ENTRY_POINTS.items() if "heads" in minimums])
def test_width_that_does_not_split_over_heads_rejected(entry):
    call, _ = ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match="width must divide evenly across heads"):
        call(d=5, heads=2)


def _archive_of_version(version):
    """An in-memory tensor archive whose manifest has ``version``."""
    raw = io.BytesIO()
    with zipfile.ZipFile(raw, "w") as zf:
        zf.writestr("manifest.json", json.dumps({"format_version": version,
                                                 "tensors": []}))
    return raw


# malformed input -> (call, error type, message)
BAD_INPUTS = {
    "Policy-kind": (lambda: Policy("top_k", r=2), ValueError,
                    "unknown policy kind 'top_k'"),
    "ModelConfig-mode": (lambda: ModelConfig(mode="sparse"), ValueError,
                         "unknown mode 'sparse'"),
    "AttentionState-mode": (
        lambda: AttentionState(16, 8, 2, Policy(), mode="stgt"), ValueError,
        "unknown attention mode 'stgt'"),
    "AttentionWeights-non-square": (
        lambda: AttentionWeights(*[np.zeros((8, 8))] * 2, np.zeros((8, 4)),
                                 np.zeros((8, 8)), 2, *[np.zeros(8)] * 4),
        ValueError, "wv must be square of width 8"),
    "qk_sparse_update-shape": (
        lambda: qk_sparse_update(np.zeros((4, 3)), np.zeros((4, 2)),
                                 np.zeros((4, 2)), np.array([0]), np.array([0])),
        ValueError, "similarity shape must be"),
    "load_tensors-version": (lambda: load_tensors(_archive_of_version(2)),
                             ValueError, "unsupported archive format version"),
}


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_malformed_input_rejected(case):
    call, error, message = BAD_INPUTS[case]
    with pytest.raises(error, match=f"^{message}"):
        call()
