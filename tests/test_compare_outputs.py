"""``scripts/compare_outputs.py`` hashes a fixed grid of runs in two checkouts."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from tokengate.block import Model

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))

import compare_outputs  # noqa: E402


def test_own_checkout_matches_itself(capsys, monkeypatch):
    # two cases suffice to check the subprocess wiring: the hashing itself
    # is checked in-process below
    cases = compare_outputs.CASES[:2]
    monkeypatch.setattr(compare_outputs, "CASES", cases)
    assert compare_outputs.main(["--parent", str(ROOT)]) == 0
    assert capsys.readouterr().out == "2 cases: outputs differ in 0, counts in 0\n"
    assert compare_outputs.grid_digests(ROOT) == {
        compare_outputs.case_name(*case): list(compare_outputs.case_digests(*case))
        for case in cases}


def test_one_ulp_in_one_output_changes_the_digest(monkeypatch):
    case = compare_outputs.CASES[0]
    outputs, counts = compare_outputs.case_digests(*case)
    step, calls = Model.step, []

    def nudged(model, frame):
        # the last frame's first token moves by one ulp; the state does not
        tokens, scores = step(model, frame)
        calls.append(None)
        if len(calls) == compare_outputs.FRAMES:
            tokens = tokens.copy()
            tokens[0, 0] = np.nextafter(tokens[0, 0], np.inf)
        return tokens, scores

    monkeypatch.setattr(Model, "step", nudged)
    nudged_outputs, nudged_counts = compare_outputs.case_digests(*case)
    assert len(calls) == compare_outputs.FRAMES
    assert nudged_outputs != outputs and nudged_counts == counts
