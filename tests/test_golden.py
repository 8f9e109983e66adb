"""Golden runs: per-frame results of every mode, pinned by a recorded fixture.

Each case is one paired run at fixed seeds.  The fixture holds its
``run_pair`` rows without the two timing columns, plus the per-frame
``CostLedger`` cost records of the gated model and of the exact oracle.
Integer fields must match exactly, float fields to 1e-12 relative, so a
refactor that is meant to keep behaviour proves it here.

To record the fixture again (only for a deliberate change of behaviour):

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

from tokengate.block import MODES, ModelConfig
from tokengate.gates import Policy
from tokengate.harness import run_pair
from tokengate.streams import StreamConfig

FIXTURE = Path(__file__).with_name("golden_runs.json")
REL_TOL = 1e-12
N, D, HEADS = 16, 8, 2
# full budget, small budgets and an empty one, back to full mid-stream
SCHEDULE = [N, 4, 1, 0, N, 2, 6, N, 3, 5]


def _case(mode, stream, policy=None):
    model = ModelConfig(blocks=2, n=N, d=D, heads=HEADS, mode=mode,
                        pool_p=2 if mode == "spatial_pool" else 1, seed=5,
                        policy=policy or Policy("top_r", r=SCHEDULE[0]))
    frames = StreamConfig(n=N, d=D, frames=len(SCHEDULE), mode=stream,
                          rho=0.25, sigma=1.0, eps=0.1, seed=6)
    return model, frames, None if policy else SCHEDULE


CASES = {f"{mode}-{stream}": _case(mode, stream)
         for mode in MODES for stream in ("sparse_change", "drift")}
CASES["full-drift-threshold"] = _case("full", "drift",
                                      Policy("threshold", h=0.3))


def golden_run(model_cfg, stream_cfg, schedule) -> dict:
    """Rows of ``run_pair`` and the ledger snapshots of both models."""
    report = run_pair(model_cfg, stream_cfg, schedule=schedule)
    rows = [{key: value for key, value in row.items()
             if key not in ("exact_ms", "wall_ms")} for row in report.rows]
    return {"rows": rows, "gated_ledger": report.gated_ledger.frames,
            "oracle_ledger": report.oracle_ledger.frames}


def _mismatches(got, want, where=""):
    if isinstance(want, dict):
        if set(got) != set(want):
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [m for key in want
                for m in _mismatches(got[key], want[key], f"{where}.{key}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in _mismatches(g, w, f"{where}[{i}]")]
    if isinstance(want, float):
        ok = isinstance(got, float) and math.isclose(got, want, rel_tol=REL_TOL,
                                                     abs_tol=0.0)
    else:
        ok = type(got) is type(want) and got == want
    return [] if ok else [f"{where}: {got!r} != {want!r}"]


@pytest.fixture(scope="module")
def recorded():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(recorded):
    assert sorted(recorded) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_run_matches_fixture(recorded, name):
    got = json.loads(json.dumps(golden_run(*CASES[name])))
    problems = _mismatches(got, recorded[name], name)
    assert not problems, "\n".join(problems[:20])


if __name__ == "__main__":
    doc = {name: golden_run(*case) for name, case in sorted(CASES.items())}
    FIXTURE.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {len(doc)} cases to {FIXTURE}", file=sys.stderr)
