import csv
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from tokengate import cli
from tokengate.block import ModelConfig
from tokengate.cli import load_config, main
from tokengate.costs import count_block_baseline, count_block_eventful
from tokengate.gates import Policy
from tokengate.harness import CSV_COLUMNS
from tokengate.streams import StreamConfig

CONFIG = {
    "model": {"blocks": 2, "N": 16, "D": 8, "H": 2, "mode": "full",
              "pool_p": 1, "seed": 3},
    "stream": {"mode": "sparse_change", "rho": 0.25, "sigma": 1.0,
               "eps": 0.1, "frames": 5, "seed": 4},
    "policy": {"kind": "top_r", "r": 4},
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(CONFIG))
    return str(path)


@pytest.mark.parametrize("doc, key", [
    ({"model": {"n": 64}}, "n"),
    ({"modle": {}}, "modle"),
    ({"stream": {"frame": 3}}, "frame"),
    ({"policy": {"kind": "top_r", "R": 4}}, "R"),
    ({"model": {"mlp_ratio": 4}}, "mlp_ratio"),
])
def test_load_config_rejects_unknown_keys(tmp_path, doc, key):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=repr(key)):
        load_config(str(path))


@pytest.mark.parametrize("doc, match", [
    ([], "a config must be a JSON object"),
    ({"policy": "top_r"}, "section 'policy' must be a JSON object"),
    ({"stream": None}, "section 'stream' must be a JSON object"),
    ({"model": [16]}, "section 'model' must be a JSON object"),
], ids=["list-document", "string-policy", "null-stream", "list-model"])
def test_non_object_config_rejected_before_any_output(tmp_path, doc, match):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    archive = tmp_path / "stream.zip"
    with pytest.raises(ValueError, match=match):
        main(["run", "--config", str(path), "--save-stream", str(archive)])
    assert not archive.exists()


def test_missing_keys_take_the_config_class_defaults(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("{}")
    model_cfg, stream_cfg, schedule = load_config(str(path))
    assert model_cfg == ModelConfig(policy=Policy())
    assert stream_cfg == StreamConfig(n=model_cfg.n, d=model_cfg.d)
    assert schedule is None


def test_pool_factor_outside_spatial_pool_rejected(tmp_path):
    doc = dict(CONFIG, model=dict(CONFIG["model"], pool_p=2))
    path = tmp_path / "pooled.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="pool_p"):
        load_config(str(path))


def test_run_writes_csv_and_summary(config_path, tmp_path, capsys):
    out_csv = str(tmp_path / "run.csv")
    out_json = str(tmp_path / "summary.json")
    code = main(["run", "--config", config_path, "--out-csv", out_csv,
                 "--out-json", out_json])
    assert code == 0
    with open(out_csv) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    assert rows[0]["frame"] == "0"
    assert list(rows[0]) == CSV_COLUMNS
    assert CSV_COLUMNS.index("nonlinear_elems") == CSV_COLUMNS.index("adds_overhead") + 1
    # two blocks: the first frame pays the exact block's nonlinear work, a
    # steady frame at least the closed form's (resynced rows pay more)
    exact = count_block_baseline(16, 8, 2)["nonlinear_elems"]
    steady = count_block_eventful(16, 4, 8, 2)["nonlinear_elems"]
    assert int(rows[0]["nonlinear_elems"]) == 2 * exact
    assert all(int(row["nonlinear_elems"]) >= 2 * steady for row in rows[1:])
    summary = json.loads(open(out_json).read())
    assert summary["frames"] == 5
    printed = json.loads(capsys.readouterr().out)
    assert printed == summary


def test_run_with_schedule(config_path, tmp_path):
    doc = dict(CONFIG)
    doc["schedule"] = [16, 2]
    path = tmp_path / "sched.json"
    path.write_text(json.dumps(doc))
    out_csv = str(tmp_path / "run.csv")
    assert main(["run", "--config", str(path), "--out-csv", out_csv]) == 0
    with open(out_csv) as fh:
        rows = list(csv.DictReader(fh))
    assert [row["r_effective"] for row in rows] == ["16", "2", "2", "2", "2"]


def test_schedule_under_threshold_policy_rejected_before_any_output(tmp_path):
    doc = dict(CONFIG, policy={"kind": "threshold", "h": 0.3}, schedule=[2])
    path = tmp_path / "threshold.json"
    path.write_text(json.dumps(doc))
    archive = tmp_path / "stream.zip"
    with pytest.raises(ValueError, match="schedule"):
        main(["run", "--config", str(path), "--save-stream", str(archive)])
    assert not archive.exists()


@pytest.mark.parametrize("schedule", [[4, -1], [4, 2.5], 3, [4, True], None],
                         ids=["negative", "fraction", "scalar", "bool", "null"])
def test_bad_schedule_rejected_before_any_output(tmp_path, schedule):
    doc = dict(CONFIG, schedule=schedule)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    archive = tmp_path / "stream.zip"
    with pytest.raises(ValueError, match="schedule"):
        main(["run", "--config", str(path), "--save-stream", str(archive)])
    assert not archive.exists()


@pytest.mark.parametrize("stream, match", [
    ({"mode": "drift", "eps": float("inf")}, "finite and nonnegative"),
    ({"sigma": float("nan")}, "finite and nonnegative"),
    ({"frames": 1}, "at least 2 frames"),
    ({"frames": 2.5}, "frames must be an integer"),
    ({"rho": "0.5"}, "rho must be a real number"),
    ({"sigma": True}, "sigma must be a real number"),
], ids=["infinite-eps", "nan-sigma", "one-frame", "fractional-frames",
        "string-rho", "bool-sigma"])
def test_bad_stream_rejected_before_any_output(tmp_path, stream, match):
    doc = dict(CONFIG, stream=dict(CONFIG["stream"], **stream))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    archive = tmp_path / "stream.zip"
    with pytest.raises(ValueError, match=match):
        main(["run", "--config", str(path), "--save-stream", str(archive)])
    assert not archive.exists()


@pytest.mark.parametrize("policy", [{"kind": "threshold", "h": "x"},
                                    {"kind": "threshold", "h": True},
                                    {"kind": "top_r", "r": 4, "h": "x"}],
                         ids=["string-h", "bool-h", "string-h-under-top_r"])
def test_bad_policy_rejected_before_any_output(tmp_path, policy):
    doc = dict(CONFIG, policy=policy)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    archive = tmp_path / "stream.zip"
    with pytest.raises(ValueError, match="h must be a nonnegative number"):
        main(["run", "--config", str(path), "--save-stream", str(archive)])
    assert not archive.exists()


@pytest.mark.parametrize("model, match", [
    ({"H": 2.0}, "heads must be an integer"),
    ({"seed": 1.5}, "seed must be an integer"),
    ({"blocks": True}, "blocks must be an integer"),
    ({"mode": "spatial_pool", "pool_p": 2.5}, "pool_p must be an integer"),
    ({"mode": "spatial_pool", "N": 15, "pool_p": 2}, "square grid"),
    ({"mode": "spatial_pool", "N": 16, "pool_p": 3}, "divide the grid side"),
], ids=["float-heads", "float-seed", "bool-blocks", "float-pool",
        "no-square-grid", "pool-not-dividing-grid"])
def test_bad_model_rejected_before_any_output(tmp_path, model, match):
    doc = dict(CONFIG, model=dict(CONFIG["model"], **model))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    archive = tmp_path / "stream.zip"
    with pytest.raises(ValueError, match=match):
        main(["run", "--config", str(path), "--save-stream", str(archive)])
    assert not archive.exists()


@pytest.mark.parametrize("field", ["n", "d", "heads"])
def test_count_rejects_sizes_below_one(field):
    sizes = {"n": 4, "d": 8, "heads": 2, field: 0}
    named = f"{field} must be at least 1"
    with pytest.raises(ValueError, match=named):
        main(["count", "--m=0",
              *(f"--{k.replace('_', '-')}={v}" for k, v in sizes.items())])
    with pytest.raises(ValueError, match=named):
        count_block_eventful(sizes["n"], 0, sizes["d"], sizes["heads"])


@pytest.mark.parametrize("option, message", [
    (["--mlp-ratio", "4"], "unrecognized arguments: --mlp-ratio 4"),
    (["--mode", "none"], "argument --mode: invalid choice: 'none'"),
], ids=["mlp-ratio", "mode-none"])
def test_count_rejects_options_it_does_not_have(option, message, capsys):
    with pytest.raises(SystemExit) as raised:
        main(["count", "--n", "4", "--d", "8", "--heads", "2", *option])
    assert raised.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: tokengate") and message in err


def test_documented_configs_load(tmp_path, capsys):
    # the example config of the README and of the cli module docstring
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    docs = {"README": re.search(r"```json\n(.*?)```", readme, re.S)[1],
            "cli": re.search(r"\n(  \{\n.*?\n  \})\n", cli.__doc__, re.S)[1]}
    assert json.loads(docs["README"]) == json.loads(docs["cli"])
    for name, text in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        load_config(str(path))
    assert main(["run", "--config", str(tmp_path / "README.json")]) == 0
    assert json.loads(capsys.readouterr().out)["frames"] == 8


def test_run_stream_round_trip(config_path, tmp_path):
    archive = str(tmp_path / "stream.zip")
    out_a = str(tmp_path / "a.json")
    out_b = str(tmp_path / "b.json")
    assert main(["run", "--config", config_path, "--save-stream", archive,
                 "--out-json", out_a]) == 0
    assert main(["run", "--config", config_path, "--load-stream", archive,
                 "--out-json", out_b]) == 0
    assert json.loads(open(out_a).read()) == json.loads(open(out_b).read())


def test_load_stream_ignores_the_stream_section_s_length(config_path,
                                                          tmp_path, capsys):
    # the archive's 5 frames are run; the stream section's 1 frame is unused
    archive = str(tmp_path / "stream.zip")
    assert main(["run", "--config", config_path, "--save-stream", archive]) == 0
    saved = json.loads(capsys.readouterr().out)
    path = tmp_path / "one-frame.json"
    path.write_text(json.dumps(dict(CONFIG, stream=dict(CONFIG["stream"],
                                                        frames=1))))
    assert main(["run", "--config", str(path), "--load-stream", archive]) == 0
    assert json.loads(capsys.readouterr().out) == saved


@pytest.mark.parametrize("command", [["sweep", "--r-values", "2"],
                                     ["time", "--reps", "3"]])
def test_one_generated_frame_is_refused_before_any_output(tmp_path, capsys,
                                                          command):
    path = tmp_path / "one-frame.json"
    path.write_text(json.dumps(dict(CONFIG, stream=dict(CONFIG["stream"],
                                                        frames=1))))
    with pytest.raises(ValueError, match="at least 2 frames, got 1"):
        main([command[0], "--config", str(path), *command[1:]])
    assert capsys.readouterr().out == ""


def test_save_and_load_stream_are_exclusive(config_path, tmp_path, capsys):
    # one run either exports its frames or imports a fixture, never both
    archive = str(tmp_path / "a.zip")
    assert main(["run", "--config", config_path, "--save-stream", archive]) == 0
    capsys.readouterr()
    saved = tmp_path / "b.zip"
    with pytest.raises(SystemExit):
        main(["run", "--config", config_path, "--load-stream", archive,
              "--save-stream", str(saved)])
    assert not saved.exists()
    assert capsys.readouterr().out == ""


def test_sweep_csv(config_path, tmp_path):
    out_csv = str(tmp_path / "sweep.csv")
    code = main(["sweep", "--config", config_path, "--r-values", "2,8,16",
                 "--out-csv", out_csv])
    assert code == 0
    with open(out_csv) as fh:
        rows = list(csv.DictReader(fh))
    assert [row["r"] for row in rows] == ["2", "8", "16"]
    assert float(rows[-1]["mean_rel_l2_error"]) < 1e-5


def test_equiv_exit_code(capsys):
    assert main(["equiv"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_count_reports_formulas(capsys):
    code = main(["count", "--n", "4096", "--m", "768", "--d", "768",
                 "--heads", "12"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["gated"]["macs_qk"] == 4_831_838_208
    assert doc["memory"]["token_gate_reference"] == 12_582_912
    assert doc["memory"]["similarity_buffer"] == 805_306_368


def test_count_memory_at_the_library_element_size(capsys):
    args = ["count", "--n", "64", "--d", "16", "--heads", "4"]
    assert main(args) == 0
    four = json.loads(capsys.readouterr().out)["memory"]
    assert main(args + ["--bytes-per-element", "8"]) == 0
    eight = json.loads(capsys.readouterr().out)["memory"]
    assert eight == {key: 2 * value for key, value in four.items()}


def test_count_memory_of_the_mode_asked_about(capsys):
    args = ["count", "--n", "64", "--m", "8", "--d", "16", "--heads", "4",
            "--bytes-per-element", "8"]
    assert main(args) == 0
    assert json.loads(capsys.readouterr().out)["memory"]["block_total"] == 348_160
    for mode in ("tokenwise_only", "stgt"):
        assert main(args + ["--mode", mode]) == 0
        memory = json.loads(capsys.readouterr().out)["memory"]
        # three token gates' references and five buffers of 64 x 16
        assert memory["block_total"] == 8 * 64 * 16 * 8 == 65_536


def test_time_table(config_path, capsys):
    code = main(["time", "--config", config_path, "--reps", "3"])
    assert code == 0
    out = capsys.readouterr().out
    for variant in ("baseline", "full", "tokenwise_only"):
        assert variant in out
    # the table holds raw wall times: no calibration scales them
    lines = out.splitlines()
    assert all(line.endswith(" ms/frame") for line in lines)
    assert not any("normalized" in line for line in lines)


def test_module_entry_point(config_path):
    proc = subprocess.run(
        [sys.executable, "-m", "tokengate", "count", "--n", "8", "--d", "8",
         "--heads", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["baseline"]["macs_total"] > 0
