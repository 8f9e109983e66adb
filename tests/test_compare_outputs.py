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
    assert capsys.readouterr().out == (
        "2 cases: outputs differ in 0, oracle in 0, counts in 0\n")
    assert compare_outputs.grid_digests(ROOT) == {
        compare_outputs.case_name(*case): list(compare_outputs.case_digests(*case))
        for case in cases}


def _nudge_last_frame(monkeypatch, method: str) -> list:
    """Move the first token of ``Model.<method>``'s output on the last frame
    of a case by one ulp; the state does not move.  Returns the calls."""
    original, calls = getattr(Model, method), []

    def nudged(model, frame):
        tokens, scores = original(model, frame)
        calls.append(None)
        if len(calls) == compare_outputs.FRAMES:
            tokens = tokens.copy()
            tokens[0, 0] = np.nextafter(tokens[0, 0], np.inf)
        return tokens, scores

    monkeypatch.setattr(Model, method, nudged)
    return calls


def test_one_ulp_in_one_output_changes_the_digest(monkeypatch):
    case = compare_outputs.CASES[0]
    outputs, counts, oracle = compare_outputs.case_digests(*case)
    calls = [_nudge_last_frame(monkeypatch, method)
             for method in ("step", "baseline_frame")]
    nudged_outputs, nudged_counts, nudged_oracle = compare_outputs.case_digests(*case)
    assert [len(c) for c in calls] == [compare_outputs.FRAMES] * 2
    assert nudged_outputs != outputs and nudged_oracle != oracle
    assert nudged_counts == counts


def test_one_ulp_in_the_oracle_moves_the_oracle_digest_alone(monkeypatch):
    case = compare_outputs.CASES[0]
    outputs, counts, oracle = compare_outputs.case_digests(*case)
    _nudge_last_frame(monkeypatch, "baseline_frame")
    nudged = compare_outputs.case_digests(*case)
    assert nudged[:2] == (outputs, counts) and nudged[2] != oracle
