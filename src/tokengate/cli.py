"""Command line interface.

Subcommands:
  run     one paired exact-vs-gated run -> per-frame CSV + JSON summary
  sweep   budget sweep -> CSV of (budget, error, MACs, savings)
  equiv   equivalence/invariant self-checks -> pass/fail exit code
  count   closed-form operation counts and state-memory report
  time    median per-frame wall times for the exact and gated variants

Configs are one JSON document:

  {
    "model":  {"blocks": 2, "N": 16, "D": 8, "H": 2, "mode": "full",
               "pool_p": 1, "seed": 0},
    "stream": {"mode": "sparse_change", "rho": 0.25, "sigma": 1.0,
               "eps": 0.1, "frames": 8, "seed": 0},
    "policy": {"kind": "top_r", "r": 4},
    "schedule": [16, 4, 4, 16]
  }

"schedule" (optional) lists per-frame budget overrides; a short list keeps
its last value for the remaining frames.
"""

from __future__ import annotations

import argparse
import json
import sys

from .archive import export_stream, import_stream
from .block import ModelConfig
from .checks import run_all_checks
from .costs import count_block_baseline, count_block_eventful, memory_report
from .gates import Policy
from .harness import (
    check_stream_length,
    measure_walltime,
    run_pair,
    sweep_budget,
    write_run_csv,
    write_summary_json,
    write_sweep_csv,
)
from .kernels import check_integer
from .streams import StreamConfig, gen_stream


# keys each config section accepts; "schedule" is a plain list
_SECTION_KEYS = {
    "model": {"blocks", "N", "D", "H", "mode", "pool_p", "seed"},
    "stream": {"mode", "rho", "sigma", "eps", "frames", "seed"},
    "policy": {"kind", "r", "h"},
}
# config keys whose ModelConfig field has another name
_MODEL_FIELDS = {"N": "n", "D": "d", "H": "heads"}


def _check_sections(doc):
    """Reject a document or section that is not a JSON object, and unknown keys."""
    if not isinstance(doc, dict):
        raise ValueError(f"a config must be a JSON object, got {doc!r}")
    for key in doc:
        if key not in _SECTION_KEYS and key != "schedule":
            raise ValueError(f"unknown config key {key!r}")
    for section, allowed in _SECTION_KEYS.items():
        body = doc.get(section, {})
        if not isinstance(body, dict):
            raise ValueError(f"config section {section!r} must be a JSON "
                             f"object, got {body!r}")
        for key in body:
            if key not in allowed:
                raise ValueError(f"unknown key {key!r} in config section "
                                 f"{section!r}")


def load_config(path) -> tuple[ModelConfig, StreamConfig, list[int] | None]:
    """Parse a config document; a missing key takes the default of the
    config class it feeds.  A document or section that is not a JSON
    object, unknown keys, a schedule that is not a list of
    nonnegative integers and a schedule under a policy without a budget
    raise ValueError.  The stream's length is checked where its frames are
    made, since ``run --load-stream`` takes them from an archive instead."""
    with open(path) as fh:
        doc = json.load(fh)
    _check_sections(doc)
    policy = Policy(**doc.get("policy", {}))
    schedule = doc.get("schedule", [])
    if not isinstance(schedule, list):
        raise ValueError(f"schedule must be a list of nonnegative integers, "
                         f"got {schedule!r}")
    for r in schedule:
        check_integer("schedule entry", r, 0)
    if schedule and policy.kind != "top_r":
        raise ValueError(f"a schedule sets budgets, which a {policy.kind} "
                         f"policy does not have")
    model = {_MODEL_FIELDS.get(key, key): value
             for key, value in doc.get("model", {}).items()}
    model_cfg = ModelConfig(**model, policy=policy)
    stream_cfg = StreamConfig(n=model_cfg.n, d=model_cfg.d,
                              **doc.get("stream", {}))
    return model_cfg, stream_cfg, doc.get("schedule")


def _cmd_run(args) -> int:
    model_cfg, stream_cfg, schedule = load_config(args.config)
    frames = None
    if args.load_stream:
        frames = import_stream(args.load_stream)
    elif args.save_stream:
        check_stream_length(stream_cfg.frames)   # before the archive is written
        export_stream(args.save_stream, gen_stream(stream_cfg))
        # run on the round-tripped frames so results match any later
        # consumer of the fixture (the archive stores 32-bit floats)
        frames = import_stream(args.save_stream)
    report = run_pair(model_cfg, stream_cfg, schedule=schedule, frames=frames)
    if args.out_csv:
        write_run_csv(report, args.out_csv)
    if args.out_json:
        write_summary_json(report, args.out_json)
    print(json.dumps(report.summary(), indent=2))
    return 0


def _cmd_sweep(args) -> int:
    model_cfg, stream_cfg, _ = load_config(args.config)
    r_values = [int(tok) for tok in args.r_values.split(",") if tok.strip()]
    rows = sweep_budget(model_cfg, stream_cfg, r_values)
    if args.out_csv:
        write_sweep_csv(rows, args.out_csv)
    for row in rows:
        print(f"r={row['r']:>5d}  err={row['mean_rel_l2_error']:.3e}  "
              f"macs={row['steady_macs_total']:>12d}  "
              f"savings={row['savings_ratio']:.3f}")
    return 0


def _cmd_equiv(args) -> int:
    failures = 0
    for name, passed, detail in run_all_checks():
        print(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")
        failures += not passed
    return 1 if failures else 0


def _cmd_count(args) -> int:
    base = count_block_baseline(args.n, args.d, args.heads)
    gated = count_block_eventful(args.n, args.m, args.d, args.heads, args.mode)
    doc = {
        "baseline": base,
        "memory": memory_report(args.n, args.d, args.heads,
                                args.bytes_per_element, args.mode),
        "gated": gated,
        "savings_ratio": base["macs_total"] / gated["macs_total"],
    }
    print(json.dumps(doc, indent=2))
    return 0


def _cmd_time(args) -> int:
    model_cfg, stream_cfg, _ = load_config(args.config)
    table = measure_walltime(model_cfg, stream_cfg, repetitions=args.reps)
    for variant, ms in table.items():
        print(f"{variant:>15s}  {ms:8.3f} ms/frame")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tokengate",
        description="Temporal-redundancy-aware transformer inference toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="one paired run -> CSV + JSON summary")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out-csv")
    p_run.add_argument("--out-json")
    fixture = p_run.add_mutually_exclusive_group()
    fixture.add_argument("--save-stream", help="export the frames as a tensor archive")
    fixture.add_argument("--load-stream", help="run on frames from a tensor archive")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="budget sweep -> CSV")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--r-values", required=True,
                         help="comma-separated budgets, e.g. 2,4,8,16")
    p_sweep.add_argument("--out-csv")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_equiv = sub.add_parser("equiv", help="invariant self-checks, exit 0/1")
    p_equiv.set_defaults(func=_cmd_equiv)

    p_count = sub.add_parser("count", help="closed-form cost and memory report")
    p_count.add_argument("--n", type=int, required=True)
    p_count.add_argument("--m", type=int, default=0)
    p_count.add_argument("--d", type=int, required=True)
    p_count.add_argument("--heads", type=int, required=True)
    p_count.add_argument("--mode", default="full",
                         choices=["full", "tokenwise_only", "stgt"])
    p_count.add_argument("--bytes-per-element", type=int, default=4,
                         choices=[2, 4, 8])
    p_count.set_defaults(func=_cmd_count)

    p_time = sub.add_parser("time", help="median per-frame wall times")
    p_time.add_argument("--config", required=True)
    p_time.add_argument("--reps", type=int, default=5)
    p_time.set_defaults(func=_cmd_time)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
