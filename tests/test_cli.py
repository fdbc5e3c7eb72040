"""Command-line interface: argument handling, exit codes, determinism,
and output artifacts."""
import dataclasses
import errno
import json
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from lkareid import cli, verify
from lkareid import tensor as T
from lkareid.cli import main, resolve_train_config
from lkareid.evaluation import ManifestError, load_manifest
from lkareid.model import ModelConfig, build_model, load_checkpoint, save_checkpoint
from lkareid.training import SyntheticDatasetSpec, TrainConfig

from conftest import rewrite_config_snapshot


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# inspect


def test_inspect_21_3_256(capsys):
    code, out, _ = run_cli(capsys, "inspect", "--K", "21", "--d", "3", "--C", "256", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["dw_kernel"] == 5
    assert doc["dd_kernel"] == 7
    assert doc["dilation"] == 3
    assert doc["receptive_field"] == 23
    assert doc["params_decomposed"] == 84480
    assert doc["params_full_conv"] == 28901376


def test_inspect_512_kernel_rule(capsys):
    code, out, _ = run_cli(capsys, "inspect", "--C", "512", "--json")
    assert code == 0
    assert json.loads(out)["conv1d_kernel"] == 5


def test_inspect_trivial_decomposition(capsys):
    code, out, _ = run_cli(capsys, "inspect", "--K", "1", "--d", "1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["dw_kernel"] == doc["dd_kernel"] == doc["receptive_field"] == 1


def test_inspect_text_report(capsys):
    code, out, err = run_cli(capsys, "inspect", "--K", "21", "--d", "3", "--C", "256")
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "K=21 d=3 C=256  (32x32 input)",
        "  depthwise kernel        5x5",
        "  dilated depthwise       7x7, dilation 3",
        "  receptive field         23",
        "  params decomposed       84,480",
        "  params depthwise+1x1    178,432",  # 256 * 21 * 21 + 256 * 256
        "  params full KxK conv    28,901,376",
        "  LKA block FLOPs         442,236,928",
        "  conv1d kernel for C     5",
    ]


def test_inspect_invalid_kernel(capsys):
    code, _, err = run_cli(capsys, "inspect", "--K", "4", "--d", "1")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("argv", [
    [],
    ["inspect", "--K", "abc"],
    ["inspect", "--gamma", "2"],
    ["gradcheck", "--scope", "everything"],
    ["train"],
    ["eval", "--query", "q.jsonl"],
])
def test_usage_error_exits_1(capsys, argv):
    """argparse's own exit code 2 is the documented code of a numerical
    failure, so a usage error is reported as the validation failure it is."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == "" and "error: " in err


@pytest.mark.parametrize("argv", [["--help"], ["train", "--help"]])
def test_help_exits_0(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.startswith("usage: lkareid")


# ---------------------------------------------------------------------------
# gradcheck


def test_gradcheck_lka_scope(capsys):
    code, out, _ = run_cli(capsys, "gradcheck", "--scope", "lka")
    assert code == 0
    assert "lka" in out and "pass" in out


def test_gradcheck_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "gradcheck", "--scope", "losses", "--seed", "7")
    _, out2, _ = run_cli(capsys, "gradcheck", "--scope", "losses", "--seed", "7")
    assert out1 == out2


def test_gradcheck_corrupt_negative_control(capsys, monkeypatch):
    cfg, hw, param_shapes, forward = verify._BLOCKS["hca"]

    def off_by_one_percent(x, params, cfg):
        # the real block, then an identity whose backward scales by 1.01
        y = forward(x, params, cfg)

        def _bw(g):
            T._accum(y, 1.01 * g)

        return T._node(y.data.copy(), [y], "bad_scale", _bw)

    monkeypatch.setitem(verify._BLOCKS, "hca", (cfg, hw, param_shapes, off_by_one_percent))
    code, _, err = run_cli(capsys, "gradcheck", "--scope", "hca")
    assert code == 2
    assert "FAILED in block hca" in err


def test_gradcheck_json_summary(capsys):
    code, out, err = run_cli(capsys, "gradcheck", "--scope", "losses", "--json")
    assert code == 0 and err == ""
    *rows, last = out.splitlines()
    doc = json.loads(last)
    assert doc["pass"] is True
    assert sorted(doc["results"]) == ["cross_entropy", "triplet"]
    assert all(0.0 <= value <= verify.TOLERANCE for value in doc["results"].values())
    assert [row.split()[0] for row in rows] == ["cross_entropy", "triplet"]
    assert all(row.endswith("pass") for row in rows)


@pytest.mark.parametrize("argv, seed", [
    (["gradcheck", "--seed", "-3"], -3),
    (["train", "--seed", "-1"], -1),
    (["train", "--set", "seed=-1"], -1),
], ids=["gradcheck", "train", "train-set"])
def test_negative_seed_error_names_the_seed(capsys, tmp_path, argv, seed):
    out_dir = tmp_path / "run"
    if argv[0] == "train":
        argv = [*argv, "--out", str(out_dir)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"error: seed must be >= 0, got {seed}\n"
    assert not out_dir.exists()


# ---------------------------------------------------------------------------
# train


def _fast_train_args(out_dir, *extra):
    return [
        "train", "--out", str(out_dir),
        "--set", "steps=2", "--set", "num_identities=4", "--set", "images_per_identity=8",
        "--set", "p=2", "--set", "k=2", "--set", "image_size=16",
        "--set", "stem_widths=4", "--set", "feature_dim=8", "--set", "blocks_per_branch=1",
        "--set", "lka_kernel=5", "--set", "hca_local_grid=2",
        *extra,
    ]


def test_train_writes_artifacts(capsys, tmp_path):
    out_dir = tmp_path / "run"
    code, _, _ = run_cli(capsys, *_fast_train_args(out_dir))
    assert code == 0
    assert (out_dir / "config.json").exists()
    assert (out_dir / "checkpoint.lkar").exists()
    log = (out_dir / "log.jsonl").read_text().splitlines()
    assert len(log) == 2
    record = json.loads(log[0])
    assert {"step", "total", "ce_l1", "ce_h1", "tri_l2", "tri_h2"} <= set(record)


def test_train_zero_lr_checkpoint_equals_init(capsys, tmp_path):
    out_dir = tmp_path / "run"
    code, _, _ = run_cli(capsys, *_fast_train_args(out_dir, "--set", "lr=0", "--set", "momentum=0"))
    assert code == 0
    from lkareid.cli import _configs_from_resolved
    from lkareid.model import build_model

    resolved = json.loads((out_dir / "config.json").read_text())
    model_cfg, train_cfg, _ = _configs_from_resolved(resolved)
    init = build_model(model_cfg, train_cfg.seed)
    trained = load_checkpoint(out_dir / "checkpoint.lkar")
    for name in init.params:
        np.testing.assert_array_equal(init.params[name].data, trained.params[name].data)


def test_train_same_seed_identical_logs(capsys, tmp_path):
    run_cli(capsys, *_fast_train_args(tmp_path / "a", "--seed", "3"))
    run_cli(capsys, *_fast_train_args(tmp_path / "b", "--seed", "3"))
    assert (tmp_path / "a/log.jsonl").read_text() == (tmp_path / "b/log.jsonl").read_text()


def test_train_rerun_from_written_config(capsys, tmp_path):
    run_cli(capsys, *_fast_train_args(tmp_path / "a"))
    resolved = json.loads((tmp_path / "a/config.json").read_text())
    cfg_file = tmp_path / "resolved.cfg"
    cfg_file.write_text("\n".join(f"{k}={v}" for k, v in resolved.items()) + "\n")
    code, _, _ = run_cli(capsys, "train", "--out", str(tmp_path / "b"), "--config", str(cfg_file))
    assert code == 0
    assert (tmp_path / "a/log.jsonl").read_text() == (tmp_path / "b/log.jsonl").read_text()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_train_divergence_streams_log_and_exits_2(capsys, tmp_path):
    out_dir = tmp_path / "run"
    code, _, err = run_cli(capsys, *_fast_train_args(out_dir, "--set", "lr=1e30"))
    assert code == 2
    assert "Traceback" not in err
    records = [json.loads(line) for line in (out_dir / "log.jsonl").read_text().splitlines()]
    assert [r["step"] for r in records] == [0, 1]
    assert {"total", "ce_l1", "ce_h1", "tri_l2", "tri_h2"} <= set(records[0])
    assert records[1] == {"step": 1, "status": "diverged", "error": "non-finite values produced by conv2d"}
    # the checkpoint holds the parameters of the last finished step
    code, _, _ = run_cli(capsys, *_fast_train_args(tmp_path / "one", "--set", "lr=1e30", "--set", "steps=1"))
    assert code == 0
    kept, one_step = load_checkpoint(out_dir / "checkpoint.lkar"), load_checkpoint(tmp_path / "one/checkpoint.lkar")
    assert list(kept.params) == list(one_step.params)
    assert all(kept.params[n].data.tobytes() == one_step.params[n].data.tobytes() for n in kept.params)
    # numpy's overflow warnings stay out of the report, even as errors
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run_cli(capsys, *_fast_train_args(tmp_path / "strict", "--set", "lr=1e30"))
    assert code == 2
    assert err == "numerical failure: non-finite values produced by conv2d\n"


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_train_overflowing_update_keeps_initial_checkpoint(capsys, tmp_path):
    # lr * gradient overflows float32, so step 0's update is rejected whole
    out_dir = tmp_path / "run"
    code, _, err = run_cli(capsys, *_fast_train_args(out_dir, "--set", "lr=1e39"))
    assert code == 2
    assert err.startswith("numerical failure: non-finite update of parameter ") and "Traceback" not in err
    records = [json.loads(line) for line in (out_dir / "log.jsonl").read_text().splitlines()]
    assert [(r["step"], r["status"]) for r in records] == [(0, "diverged")]
    from lkareid.cli import _configs_from_resolved

    model_cfg, train_cfg, _ = _configs_from_resolved(json.loads((out_dir / "config.json").read_text()))
    init = build_model(model_cfg, train_cfg.seed)
    kept = load_checkpoint(out_dir / "checkpoint.lkar")
    assert list(kept.params) == list(init.params)
    assert all(kept.params[n].data.tobytes() == init.params[n].data.tobytes() for n in init.params)


def test_train_rejected_config_writes_no_config_json(capsys, tmp_path):
    out_dir = tmp_path / "run"
    code, _, err = run_cli(capsys, "train", "--out", str(out_dir), "--set", "steps=-2")
    assert code == 1
    assert err.startswith("error: ")
    assert not (out_dir / "config.json").exists()


@pytest.mark.parametrize("setting", [
    "num_cameras=0", "images_per_identity=0", "image_size=0", "hca_local_grid=0", "lka_kernel=4",
    "lr=nan", "momentum=inf", "margin=-inf", "grad_clip_norm=nan",
    "lr=-0.1", "momentum=1", "momentum=-0.5", "margin=-0.3",
    # P=1 leaves the triplet loss one identity; P=5 and num_identities=1 ask
    # for more identities per batch than the 4 (or 1) of the training split;
    # the HCA grid of 9 exceeds the 8x8 branch map, and a grid of 2 the 1x1
    # map of 2x2 images
    "p=1", "p=5", "num_identities=1", "hca_local_grid=9", "image_size=2",
    "feature_dim=0", "blocks_per_branch=0",
])
def test_train_invalid_setting_exits_1_before_writing(capsys, tmp_path, setting):
    out_dir = tmp_path / "run"
    code, out, err = run_cli(capsys, *_fast_train_args(out_dir, "--set", setting))
    assert code == 1
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert not out_dir.exists()


def test_train_one_pixel_image_error_names_image_size(capsys, tmp_path):
    out_dir = tmp_path / "run"
    code, out, err = run_cli(capsys, "train", "--out", str(out_dir), "--set", "steps=1", "--set", "image_size=1")
    assert code == 1 and out == ""
    assert err == "error: image_size must be >= 2, got 1\n"
    assert not out_dir.exists()


# the default config.json, as measured before the defaults moved into the
# config dataclasses
DEFAULT_CONFIG_JSON = """{
  "attention_enabled": true,
  "blocks_per_branch": 3,
  "feature_dim": 128,
  "grad_clip_norm": 5.0,
  "hca_local_grid": 5,
  "image_size": 48,
  "images_per_identity": 8,
  "k": 4,
  "lka_dilation": 2,
  "lka_kernel": 7,
  "lr": 0.01,
  "margin": 0.3,
  "metadata_embeddings_enabled": false,
  "momentum": 0.9,
  "num_cameras": 4,
  "num_identities": 16,
  "optimizer": "sgd",
  "p": 4,
  "seed": 0,
  "stem_widths": "16,32,64",
  "steps": 400
}
"""


def test_train_default_config_json_golden(capsys, tmp_path, monkeypatch):
    def stop(*args, **kwargs):
        raise ValueError("stopped before training")

    # config.json is written before training starts
    monkeypatch.setattr(cli, "fit", stop)
    code, _, _ = run_cli(capsys, "train", "--out", str(tmp_path / "run"))
    assert code == 1
    assert (tmp_path / "run/config.json").read_text() == DEFAULT_CONFIG_JSON


def test_default_keys_build_the_default_configs():
    assert cli._configs_from_resolved(resolve_train_config()) == (
        ModelConfig(num_identities=16), TrainConfig(), SyntheticDatasetSpec(),
    )


def test_every_config_field_is_a_train_key():
    """lkareid train is the one way to configure a run, so a config field
    that no key sets would be reachable only from code."""
    set_by_keys = {(cls, name) for fields in cli._TRAIN_KEYS.values() for cls, name in fields}
    every_field = {
        (cls, f.name) for cls in (ModelConfig, TrainConfig, SyntheticDatasetSpec)
        for f in dataclasses.fields(cls)
    }
    assert every_field - set_by_keys == set()


@pytest.mark.parametrize("where", ["--set", "file"])
@pytest.mark.parametrize("setting", ["steps=1.5", "stem_widths=16,,32", "lr=fast", "attention_enabled=maybe"])
def test_train_unparsable_setting_names_key_and_source(capsys, tmp_path, where, setting):
    out_dir = tmp_path / "run"
    if where == "file":
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(f"# comment\n{setting}\n")
        argv, source = ["--config", str(cfg_file)], f"{cfg_file}:2: "
    else:
        argv, source = ["--set", setting], "--set: "
    code, out, err = run_cli(capsys, "train", "--out", str(out_dir), *argv)
    key, value = setting.split("=", 1)
    assert code == 1
    assert out == "" and err.count("\n") == 1
    assert err.startswith(f"error: {source}config key {key}={value!r}: ")
    assert not out_dir.exists()


def test_train_non_utf8_config_file_names_itself(capsys, tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_bytes(b"\xff\xfesteps=1\n")
    out_dir = tmp_path / "run"
    code, out, err = run_cli(capsys, "train", "--out", str(out_dir), "--config", str(cfg_file))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {cfg_file}: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out_dir.exists()


def test_train_config_line_without_equals_names_file_and_line(capsys, tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("# comment\nsteps=1\nlr 0.1\n", encoding="utf-8")
    out_dir = tmp_path / "run"
    code, out, err = run_cli(capsys, "train", "--out", str(out_dir), "--config", str(cfg_file))
    assert code == 1 and out == ""
    assert err == f"error: {cfg_file}:3: expected key=value\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("message", ["Unable to allocate 373. TiB for an array", ""], ids=["numpy", "bare"])
@pytest.mark.parametrize("builder", ["build_model", "synth_generate"])
def test_train_out_of_memory_exits_1_before_writing(capsys, tmp_path, monkeypatch, builder, message):
    def out_of_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, builder, out_of_memory)
    out_dir = tmp_path / "run"
    code, out, err = run_cli(capsys, *_fast_train_args(out_dir))
    assert code == 1 and out == ""
    assert err == (f"error: out of memory: {message}\n" if message else "error: out of memory\n")
    assert "Traceback" not in err
    assert not out_dir.exists()


def test_train_rejects_unknown_key(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "train", "--out", str(tmp_path / "x"), "--set", "warp_speed=9"
    )
    assert code == 1
    assert "unknown config key" in err


def test_resolve_train_config_layering(tmp_path):
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text("# comment\nsteps=7\nlr=0.5\n")
    resolved = resolve_train_config(str(cfg_file), ["lr=0.25"])
    assert resolved["steps"] == 7
    assert resolved["lr"] == 0.25  # CLI override wins
    with pytest.raises(ValueError):
        resolve_train_config(str(cfg_file), ["nope"])


# ---------------------------------------------------------------------------
# eval


def _write_feature_manifests(tmp_path):
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(4, 6))
    q_path, g_path = tmp_path / "q.jsonl", tmp_path / "g.jsonl"
    q_path.write_text("\n".join(
        json.dumps({"path": f"q{i}", "feature": feats[i].tolist(), "vehicle_id": i, "camera_id": 0})
        for i in range(4)
    ) + "\n")
    g_path.write_text("\n".join(
        json.dumps({"path": f"g{i}", "feature": feats[i].tolist(), "vehicle_id": i, "camera_id": 1})
        for i in range(4)
    ) + "\n")
    return q_path, g_path


def test_eval_feature_manifests(capsys, tmp_path):
    q_path, g_path = _write_feature_manifests(tmp_path)
    report_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "eval", "--query", str(q_path), "--gallery", str(g_path),
        "--out", str(report_path), "--max-rank", "4",
    )
    assert code == 0
    doc = json.loads(report_path.read_text())
    assert doc["mAP"] == pytest.approx(1.0)
    assert doc["format_version"] == 1


@pytest.mark.parametrize("max_rank", ["0", "-3"])
def test_eval_max_rank_below_1_exits_1(capsys, tmp_path, max_rank):
    q_path, g_path = _write_feature_manifests(tmp_path)
    report_path = tmp_path / "report.json"
    code, _, err = run_cli(
        capsys, "eval", "--query", str(q_path), "--gallery", str(g_path),
        "--out", str(report_path), "--max-rank", max_rank,
    )
    assert code == 1
    assert "max_rank must be >= 1" in err
    assert not report_path.exists()


def _fail_replace(src, dst):
    raise OSError(errno.EXDEV, "Invalid cross-device link")


def test_failed_report_write_keeps_previous_report(capsys, tmp_path, monkeypatch):
    q_path, g_path = _write_feature_manifests(tmp_path)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    report_path = out_dir / "report.json"
    report_path.write_text("previous report\n")
    monkeypatch.setattr(os, "replace", _fail_replace)
    code, _, err = run_cli(
        capsys, "eval", "--query", str(q_path), "--gallery", str(g_path), "--out", str(report_path)
    )
    assert code == 1
    assert "Invalid cross-device link" in err
    assert report_path.read_text() == "previous report\n"
    assert [p.name for p in out_dir.iterdir()] == ["report.json"]


def test_failed_config_write_keeps_previous_config(capsys, tmp_path, monkeypatch):
    out_dir = tmp_path / "run"
    out_dir.mkdir()
    (out_dir / "config.json").write_text("previous config\n")
    monkeypatch.setattr(os, "replace", _fail_replace)
    code, _, err = run_cli(capsys, *_fast_train_args(out_dir))
    assert code == 1
    assert "Invalid cross-device link" in err
    assert (out_dir / "config.json").read_text() == "previous config\n"
    assert [p.name for p in out_dir.iterdir()] == ["config.json"]


def test_eval_deterministic_output(capsys, tmp_path):
    q_path, g_path = _write_feature_manifests(tmp_path)
    _, out1, _ = run_cli(capsys, "eval", "--query", str(q_path), "--gallery", str(g_path))
    _, out2, _ = run_cli(capsys, "eval", "--query", str(q_path), "--gallery", str(g_path))
    assert out1 == out2


def test_eval_empty_query_manifest(capsys, tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    _, g_path = _write_feature_manifests(tmp_path)
    code, _, err = run_cli(capsys, "eval", "--query", str(empty), "--gallery", str(g_path))
    assert code == 1
    assert "error" in err


def test_eval_float_vehicle_id_exits_1(capsys, tmp_path):
    _, g_path = _write_feature_manifests(tmp_path)
    q_path = tmp_path / "bad.jsonl"
    q_path.write_text(json.dumps({"feature": [1.0] * 6, "vehicle_id": 3.7, "camera_id": 0}) + "\n")
    code, _, err = run_cli(capsys, "eval", "--query", str(q_path), "--gallery", str(g_path))
    assert code == 1
    assert "vehicle_id" in err and "Traceback" not in err


def test_eval_object_feature_exits_1_with_one_error_line(capsys, tmp_path):
    _, g_path = _write_feature_manifests(tmp_path)
    q_path = tmp_path / "bad.jsonl"
    q_path.write_text(json.dumps({"feature": {"x": 1}, "vehicle_id": 3, "camera_id": 0}) + "\n")
    code, _, err = run_cli(capsys, "eval", "--query", str(q_path), "--gallery", str(g_path))
    assert code == 1
    assert err.splitlines() == [err.strip()]
    assert err.startswith(f"error: {q_path}:1: ") and "Traceback" not in err


def test_eval_without_features_names_the_manifest(capsys, tmp_path):
    q_path, _ = _write_feature_manifests(tmp_path)
    g_path = tmp_path / "paths.jsonl"
    g_path.write_text(json.dumps({"path": "0002_c002_1.jpg"}) + "\n")
    code, out, err = run_cli(capsys, "eval", "--query", str(q_path), "--gallery", str(g_path))
    assert code == 1 and out == ""
    assert err == "error: gallery manifest has samples without precomputed features\n"


def test_eval_feature_dims_differ_gives_both_dims(capsys, tmp_path):
    q_path, _ = _write_feature_manifests(tmp_path)
    g_path = tmp_path / "g4.jsonl"
    g_path.write_text(json.dumps({"feature": [1.0] * 4, "vehicle_id": 0, "camera_id": 1}) + "\n")
    code, out, err = run_cli(capsys, "eval", "--query", str(q_path), "--gallery", str(g_path))
    assert code == 1 and out == ""
    assert err == "error: query and gallery feature dims differ: 6 and 4\n"


def test_eval_deeply_nested_line_exits_1_without_crashing(tmp_path):
    # in a child process, so a decoder that overflows the C stack fails
    # this test instead of killing the test run
    path = tmp_path / "deep.jsonl"
    deep = '{"x": ' + "[" * 200000 + "]" * 200000 + "}"
    path.write_text(json.dumps({"feature": [1.0, 0.0], "vehicle_id": 1, "camera_id": 0}) + "\n" + deep + "\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "lkareid.cli", "eval", "--query", str(path), "--gallery", str(path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert f"{path}:2:" in proc.stderr and "Traceback" not in proc.stderr


# three feature records that `lkareid eval` scores against themselves
_FUZZ_MANIFEST = "".join(
    json.dumps({"path": f"m{i}.npy", "feature": feature, "vehicle_id": vid, "camera_id": cam}) + "\n"
    for i, (feature, vid, cam) in enumerate([([0.6, 0.8], 0, 0), ([0.8, 0.6], 0, 1), ([1.0, 0.0], 1, 1)])
).encode()

_EDITS = st.lists(
    st.tuples(
        st.sampled_from(["flip", "delete", "truncate"]),
        st.integers(0, len(_FUZZ_MANIFEST)),
        st.integers(1, 255),
    ),
    min_size=1, max_size=4,
)


def _edit(blob, edits):
    """Apply byte flips (xor), deletions of up to 8 bytes and truncations."""
    out = bytearray(blob)
    for kind, pos, arg in edits:
        pos %= max(len(out), 1)
        if kind == "flip" and out:
            out[pos] ^= arg
        elif kind == "delete":
            del out[pos : pos + 1 + arg % 8]
        else:
            del out[pos:]
    return bytes(out)


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=_EDITS)
def test_mutated_manifest_loads_or_is_manifest_error(capsys, tmp_path, edits):
    path = tmp_path / "mutant.jsonl"
    path.write_bytes(_edit(_FUZZ_MANIFEST, edits))
    try:
        load_manifest(path, split="query")
    except ManifestError:
        pass
    code, _, err = run_cli(capsys, "eval", "--query", str(path), "--gallery", str(path))
    assert code in (0, 1) and "Traceback" not in err


def test_eval_with_checkpoint(capsys, tmp_path):
    out_dir = tmp_path / "run"
    run_cli(capsys, *_fast_train_args(out_dir))
    # npy image manifests at the trained model's input size
    rng = np.random.default_rng(1)
    records_q, records_g = [], []
    for i in range(3):
        img = rng.uniform(0.0, 1.0, (3, 16, 16)).astype(np.float32)
        for records, cam, tag in ((records_q, 0, "q"), (records_g, 1, "g")):
            p = tmp_path / f"{tag}{i}.npy"
            np.save(p, img if cam == 0 else np.clip(img + 0.01, 0.0, 1.0))
            records.append({"path": str(p), "vehicle_id": i, "camera_id": cam})
    q_path, g_path = tmp_path / "q.jsonl", tmp_path / "g.jsonl"
    q_path.write_text("\n".join(json.dumps(r) for r in records_q) + "\n")
    g_path.write_text("\n".join(json.dumps(r) for r in records_g) + "\n")
    code, out, _ = run_cli(
        capsys, "eval", "--query", str(q_path), "--gallery", str(g_path),
        "--checkpoint", str(out_dir / "checkpoint.lkar"), "--max-rank", "3",
    )
    assert code == 0
    doc = json.loads(out)
    assert 0.0 <= doc["mAP"] <= 1.0


def _eval_model():
    """The small model the eval-checkpoint tests run on 3x16x16 images."""
    return build_model(ModelConfig(num_identities=4, stem_widths=(4,), feature_dim=8, hca_local_grid=2), 0)


def test_eval_checkpoint_with_nan_weight_exits_1(capsys, tmp_path):
    state = _eval_model()
    state.params["stem.0.weight"].data[0, 0, 0, 0] = np.nan
    ckpt = tmp_path / "m.lkar"
    save_checkpoint(state, ckpt)
    image = tmp_path / "a.npy"
    np.save(image, np.full((3, 16, 16), 0.5, dtype=np.float32))
    manifest = tmp_path / "m.jsonl"
    manifest.write_text(json.dumps({"path": str(image), "vehicle_id": 0, "camera_id": 0}) + "\n")
    code, _, err = run_cli(
        capsys, "eval", "--query", str(manifest), "--gallery", str(manifest), "--checkpoint", str(ckpt),
    )
    assert code == 1
    assert "stem.0.weight" in err and "Traceback" not in err


def test_eval_checkpoint_with_nan_pixel_exits_1(capsys, tmp_path):
    ckpt = tmp_path / "m.lkar"
    save_checkpoint(_eval_model(), ckpt)
    pixels = np.random.default_rng(0).uniform(0.0, 1.0, (3, 16, 16)).astype(np.float32)
    pixels[1, 2, 3] = np.nan
    image = tmp_path / "a.npy"
    np.save(image, pixels)
    manifest = tmp_path / "m.jsonl"
    manifest.write_text(json.dumps({"path": str(image), "vehicle_id": 0, "camera_id": 0}) + "\n")
    code, out, err = run_cli(
        capsys, "eval", "--query", str(manifest), "--gallery", str(manifest), "--checkpoint", str(ckpt),
    )
    assert code == 1
    assert out == "" and err == f"error: {image}: image has non-finite pixel values\n"


def _write_bad_image(path, kind):
    good = np.zeros((3, 16, 16), dtype=np.float32)
    if kind == "empty":
        path.write_bytes(b"")
    elif kind == "structured":
        np.save(path, np.zeros((3, 16, 16), dtype=[("a", "f4"), ("b", "i4")]))
    elif kind == "complex":
        np.save(path, good.astype(np.complex64))
    elif kind == "datetime":
        np.save(path, np.zeros((3, 16, 16), dtype="datetime64[s]"))
    elif kind == "object":
        np.save(path, np.array([None] * 3, dtype=object), allow_pickle=True)
    elif kind == "truncated":
        np.save(path, good)
        path.write_bytes(path.read_bytes()[:-100])
    else:  # an .npz archive under an .npy name
        with open(path, "wb") as f:
            np.savez(f, image=good)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", ["empty", "structured", "complex", "datetime", "object", "truncated", "npz"])
def test_eval_checkpoint_with_bad_image_file_exits_1(capsys, tmp_path, kind):
    ckpt = tmp_path / "m.lkar"
    save_checkpoint(_eval_model(), ckpt)
    image = tmp_path / "bad.npy"
    _write_bad_image(image, kind)
    manifest = tmp_path / "m.jsonl"
    manifest.write_text(json.dumps({"path": str(image), "vehicle_id": 0, "camera_id": 0}) + "\n")
    code, out, err = run_cli(
        capsys, "eval", "--query", str(manifest), "--gallery", str(manifest), "--checkpoint", str(ckpt),
    )
    assert code == 1 and out == ""
    assert err.startswith(f"error: {image}: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_eval_checkpoint_checks_every_path_before_loading_images(capsys, tmp_path):
    """A gallery path that is not .npy fails before any query image is loaded."""
    ckpt = tmp_path / "m.lkar"
    save_checkpoint(_eval_model(), ckpt)
    image = tmp_path / "bad.npy"
    _write_bad_image(image, "empty")
    query, gallery = tmp_path / "q.jsonl", tmp_path / "g.jsonl"
    query.write_text(json.dumps({"path": str(image), "vehicle_id": 0, "camera_id": 0}) + "\n")
    gallery.write_text(json.dumps({"path": "late.png", "vehicle_id": 0, "camera_id": 1}) + "\n")
    code, out, err = run_cli(capsys, "eval", "--query", str(query), "--gallery", str(gallery), "--checkpoint", str(ckpt))
    assert code == 1 and out == ""
    assert err == "error: model evaluation needs a .npy image path, got 'late.png'\n"


def test_eval_checkpoint_zero_feature_row_exits_2(capsys, tmp_path):
    """A freshly built model maps a uniform image to a zero feature row,
    which cannot be L2-normalized: a numerical failure."""
    ckpt = tmp_path / "m.lkar"
    save_checkpoint(_eval_model(), ckpt)
    image = tmp_path / "a.npy"
    np.save(image, np.full((3, 16, 16), 0.5, dtype=np.float32))
    manifest = tmp_path / "m.jsonl"
    manifest.write_text(json.dumps({"path": str(image), "vehicle_id": 0, "camera_id": 0}) + "\n")
    code, out, err = run_cli(
        capsys, "eval", "--query", str(manifest), "--gallery", str(manifest), "--checkpoint", str(ckpt),
    )
    assert code == 2
    assert out == ""
    assert err == "numerical failure: l2_normalize: zero-norm slice\n"


def _eval_images(capsys, tmp_path, shapes, gallery_shapes=None):
    """`lkareid eval --checkpoint` on a query manifest of random images of
    the given shapes, against a gallery manifest of random images of
    `gallery_shapes`, or against itself; (exit code, stderr)."""
    ckpt = tmp_path / "m.lkar"
    save_checkpoint(_eval_model(), ckpt)
    rng = np.random.default_rng(0)

    def manifest(tag, image_shapes):
        records = []
        for i, shape in enumerate(image_shapes):
            image = tmp_path / f"{tag}{i}.npy"
            np.save(image, rng.uniform(0.0, 1.0, shape).astype(np.float32))
            records.append({"path": str(image), "vehicle_id": i % 3, "camera_id": i % 2})
        path = tmp_path / f"{tag}m.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        return path

    query = manifest("", shapes)
    gallery = manifest("g", gallery_shapes) if gallery_shapes else query
    code, _, err = run_cli(
        capsys, "eval", "--query", str(query), "--gallery", str(gallery), "--checkpoint", str(ckpt),
    )
    return code, err


def test_eval_checkpoint_images_of_two_shapes_exit_1(capsys, tmp_path):
    """Images load one batch of 32 at a time; a shape change in a later
    batch is still rejected, as it is within one batch."""
    code, err = _eval_images(capsys, tmp_path, [(3, 16, 16)] * 32 + [(3, 20, 16)])
    assert code == 1
    assert "shape" in err and "Traceback" not in err
    assert f"{tmp_path / '32.npy'}:" in err


def test_eval_checkpoint_images_of_two_shapes_in_one_batch_exit_1(capsys, tmp_path):
    code, err = _eval_images(capsys, tmp_path, [(3, 16, 16), (3, 20, 20)])
    assert code == 1
    assert err == (
        f"error: {tmp_path / '1.npy'}: image of shape (3, 20, 20), "
        "but the manifest's first image has shape (3, 16, 16)\n"
    )


def test_eval_checkpoint_gallery_images_must_have_the_query_shape(capsys, tmp_path):
    code, err = _eval_images(capsys, tmp_path, [(3, 16, 16)] * 4, [(3, 24, 24)] * 4)
    assert code == 1
    assert err == (
        f"error: {tmp_path / 'g0.npy'}: image of shape (3, 24, 24), "
        "but the query manifest's first image has shape (3, 16, 16)\n"
    )


def test_eval_checkpoint_with_two_dimensional_image_exits_1(capsys, tmp_path):
    code, err = _eval_images(capsys, tmp_path, [(16, 16)])
    assert code == 1
    assert err == f"error: {tmp_path / '0.npy'}: image of shape (16, 16), expected (3, H, W)\n"


def test_eval_checkpoint_with_bad_config_exits_1(capsys, tmp_path):
    from lkareid.model import ModelConfig, build_model, save_checkpoint

    ckpt = tmp_path / "m.lkar"
    save_checkpoint(build_model(ModelConfig(num_identities=4, stem_widths=(4,), feature_dim=8), 0), ckpt)
    rewrite_config_snapshot(ckpt, lambda d: d.pop("stem_widths"))
    manifest = tmp_path / "m.jsonl"
    manifest.write_text(json.dumps({"path": "a.npy", "vehicle_id": 0, "camera_id": 0}) + "\n")
    code, _, err = run_cli(
        capsys, "eval", "--query", str(manifest), "--gallery", str(manifest), "--checkpoint", str(ckpt),
    )
    assert code == 1
    assert "stem_widths" in err and "Traceback" not in err


def test_eval_skips_blank_manifest_lines(capsys, tmp_path):
    q_path, g_path = _write_feature_manifests(tmp_path)
    _, expected, _ = run_cli(capsys, "eval", "--query", str(q_path), "--gallery", str(g_path))
    spaced = tmp_path / "spaced.jsonl"
    spaced.write_text("\n   \n" + "\n\n".join(q_path.read_text().splitlines()) + "\n\t\n")
    code, out, err = run_cli(capsys, "eval", "--query", str(spaced), "--gallery", str(g_path))
    assert code == 0 and err == ""
    assert out == expected


@pytest.mark.parametrize("line, problem", [
    ("[1, 2]", "record must be a JSON object"),
    ("7", "record must be a JSON object"),
    ('{"vehicle_id": 0, "camera_id": 0}', "record needs 'path' or 'feature'"),
], ids=["array", "number", "no-path-or-feature"])
def test_eval_bad_record_names_file_line_and_problem(capsys, tmp_path, line, problem):
    _, g_path = _write_feature_manifests(tmp_path)
    q_path = tmp_path / "bad.jsonl"
    q_path.write_text("\n" + line + "\n")
    code, out, err = run_cli(capsys, "eval", "--query", str(q_path), "--gallery", str(g_path))
    assert code == 1 and out == ""
    assert err == f"error: {q_path}:2: {problem}\n"


def test_eval_checkpoint_config_snapshot_not_an_object_exits_1(capsys, tmp_path):
    ckpt = tmp_path / "m.lkar"
    save_checkpoint(_eval_model(), ckpt)
    blob = ckpt.read_bytes()
    (cfg_len,) = struct.unpack("<I", blob[6:10])
    ckpt.write_bytes(blob[:6] + struct.pack("<I", 3) + b"[1]" + blob[10 + cfg_len :])
    manifest = tmp_path / "m.jsonl"
    manifest.write_text(json.dumps({"path": "a.npy", "vehicle_id": 0, "camera_id": 0}) + "\n")
    code, out, err = run_cli(
        capsys, "eval", "--query", str(manifest), "--gallery", str(manifest), "--checkpoint", str(ckpt),
    )
    assert code == 1 and out == ""
    assert err == "error: config snapshot is not a JSON object\n"


def test_eval_checkpoint_with_one_channel_images_exits_1(capsys, tmp_path):
    ckpt = tmp_path / "m.lkar"
    save_checkpoint(_eval_model(), ckpt)
    image = tmp_path / "gray.npy"
    np.save(image, np.random.default_rng(0).uniform(0.0, 1.0, (1, 16, 16)).astype(np.float32))
    manifest = tmp_path / "m.jsonl"
    manifest.write_text(json.dumps({"path": str(image), "vehicle_id": 0, "camera_id": 0}) + "\n")
    code, out, err = run_cli(
        capsys, "eval", "--query", str(manifest), "--gallery", str(manifest), "--checkpoint", str(ckpt),
    )
    assert code == 1 and out == ""
    assert err == f"error: {image}: image of shape (1, 16, 16), expected (3, H, W)\n"
