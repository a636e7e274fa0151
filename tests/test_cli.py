"""CLI surface: exit codes, idempotence, and the fixture-to-report pipeline."""

import importlib
import json

import numpy as np
import pytest

from synret.cli import main
from synret.tensor_store import read_tensor


@pytest.fixture()
def fixture_dir(tmp_path):
    out = tmp_path / "fx"
    rc = main(["gen-fixtures", "--seed", "3", "--pairs", "4", "--tokens", "5",
               "--frames", "3", "--patches", "4", "--dim", "8", "--out", str(out)])
    assert rc == 0
    return out


@pytest.fixture()
def config_path(tmp_path):
    cfg = {"d": 8, "max_frames": 3, "seed": 3, "batch_size": 2, "steps": 5, "lr": 1e-3}
    p = tmp_path / "train.json"
    p.write_text(json.dumps(cfg))
    return p


@pytest.fixture()
def checkpoint(fixture_dir, config_path, tmp_path):
    ckpt = tmp_path / "ckpt"
    rc = main(["train", "--manifest", str(fixture_dir / "manifest.json"),
               "--config", str(config_path), "--out", str(ckpt)])
    assert rc == 0
    return ckpt


def test_dump_config_is_json():
    import io
    import sys
    # --dump-config writes the full defaults and exits 0
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        assert main(["--dump-config"]) == 0
    finally:
        sys.stdout = old
    cfg = json.loads(buf.getvalue())
    assert cfg["lambda_frame"] == 2 and cfg["lambda_patch"] == 4
    assert cfg["tau"] == 4.0 and cfg["lr"] == 1e-4 and cfg["d"] == 512


_DEFAULTS = """{
  "adam_eps": 1e-08,
  "batch_size": 4,
  "beta1": 0.9,
  "beta2": 0.999,
  "d": 512,
  "empty_layer_policy": "zero",
  "heads": 8,
  "lambda_frame": 2,
  "lambda_patch": 4,
  "literal_patch_norm": false,
  "lr": 0.0001,
  "max_frames": 12,
  "seed": 0,
  "steps": 200,
  "stop_loss": null,
  "tau": 4.0,
  "tau_dsl": 100.0,
  "threads": 1
}
"""


def test_dump_config_bytes_are_pinned_and_load_back(capsys):
    from synret.config import RunConfig, config_from_dict, dump_config

    capsys.readouterr()
    assert main(["--dump-config"]) == 0
    assert capsys.readouterr().out == _DEFAULTS
    assert config_from_dict(json.loads(dump_config(RunConfig()))) == RunConfig()


def test_usage_error_exit_1(capsys):
    assert main(["not-a-command"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_main_hands_freed_memory_back_after_every_command(capsys, monkeypatch):
    cli = importlib.import_module("synret.cli")
    trims = []
    monkeypatch.setattr(cli, "_malloc_trim", trims.append)
    assert main(["--dump-config"]) == 0
    assert main(["not-a-command"]) == 1
    assert trims == [0, 0]


def test_data_error_exit_2_dimension_mismatch(fixture_dir, tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"d": 16, "max_frames": 3, "batch_size": 2, "steps": 1}))
    rc = main(["train", "--manifest", str(fixture_dir / "manifest.json"),
               "--config", str(cfg), "--out", str(tmp_path / "c")])
    assert rc == 2
    assert "dimension mismatch" in capsys.readouterr().err


def test_score_with_mismatched_checkpoint_exit_2(fixture_dir, config_path, tmp_path, capsys):
    # checkpoint trained at d=16 against a d=8 manifest
    wide = tmp_path / "fx16"
    assert main(["gen-fixtures", "--seed", "1", "--pairs", "2", "--tokens", "4",
                 "--frames", "3", "--patches", "4", "--dim", "16", "--out", str(wide)]) == 0
    cfg16 = tmp_path / "t16.json"
    cfg16.write_text(json.dumps({"d": 16, "max_frames": 3, "batch_size": 2, "steps": 1}))
    ckpt16 = tmp_path / "ckpt16"
    assert main(["train", "--manifest", str(wide / "manifest.json"),
                 "--config", str(cfg16), "--out", str(ckpt16)]) == 0
    rc = main(["score", "--manifest", str(fixture_dir / "manifest.json"),
               "--params", str(ckpt16), "--out", str(tmp_path / "s.shet")])
    assert rc == 2
    assert "dimension mismatch" in capsys.readouterr().err


def test_video_longer_than_max_frames_names_its_pair(fixture_dir, tmp_path, capsys):
    long = tmp_path / "fx6"
    assert main(["gen-fixtures", "--seed", "3", "--pairs", "2", "--tokens", "5",
                 "--frames", "6", "--patches", "4", "--dim", "8", "--out", str(long)]) == 0
    cfg = tmp_path / "t4.json"
    cfg.write_text(json.dumps({"d": 8, "max_frames": 4, "steps": 0}))
    ckpt = tmp_path / "ckpt4"
    assert main(["train", "--manifest", str(fixture_dir / "manifest.json"),
                 "--config", str(cfg), "--out", str(ckpt)]) == 0
    capsys.readouterr()
    report = tmp_path / "report.json"
    rc = main(["eval", "--manifest", str(long / "manifest.json"), "--params", str(ckpt),
               "--report", str(report)])
    assert rc == 2
    assert capsys.readouterr().err == "synret: data error: pair0000: 6 frames exceed max_frames=4\n"
    assert not report.exists()


def test_numerical_error_exit_3(fixture_dir, checkpoint, config_path, tmp_path, capsys):
    # corrupt one feature payload with NaN: loading must fail with exit 3
    import struct

    victim = fixture_dir / "pair0001.frames.shet"
    raw = bytearray(victim.read_bytes())
    raw[-4:] = struct.pack("<f", float("nan"))
    victim.write_bytes(bytes(raw))
    rc = main(["score", "--manifest", str(fixture_dir / "manifest.json"),
               "--params", str(checkpoint), "--out", str(tmp_path / "s.shet"),
               "--config", str(config_path)])
    assert rc == 3
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "score", "fuse"])
def test_non_finite_payload_in_the_last_pair_leaves_the_output_as_it_was(tmp_path, capsys,
                                                                         command):
    """Patch payloads are read chunk by chunk, after every header is checked:
    a bad one in the last pair, past the first encode chunk, still fails
    before any output is touched."""
    import struct

    from synret.pipeline import ENCODE_CHUNK

    fx, ckpt, out = tmp_path / "fx", tmp_path / "ckpt", tmp_path / "old"
    n = ENCODE_CHUNK + 1
    assert main(["gen-fixtures", "--seed", "3", "--pairs", str(n), "--tokens", "5",
                 "--frames", "3", "--patches", "4", "--dim", "8", "--out", str(fx)]) == 0
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"d": 8, "max_frames": 3, "steps": 0}))
    argv = ["--manifest", str(fx / "manifest.json"), "--config", str(cfg)]
    assert main(["train", *argv, "--out", str(ckpt)]) == 0
    flag, target = {"eval": ("--report", out / "report.json"),
                    "score": ("--out", out / "s.shet"), "fuse": ("--out", out / "fused")}[command]
    argv = [command, *argv, "--params", str(ckpt), flag, str(target)]
    out.mkdir()
    assert main(argv) == 0
    before = {f: f.read_bytes() for f in sorted(out.rglob("*")) if f.is_file()}
    victim = fx / f"pair{n - 1:04d}.patches.shet"
    raw = bytearray(victim.read_bytes())
    raw[-4:] = struct.pack("<f", float("inf"))
    victim.write_bytes(bytes(raw))
    capsys.readouterr()
    assert main(argv) == 3
    assert capsys.readouterr().err == f"synret: numerical error: {victim}: non-finite values in payload\n"
    assert {f: f.read_bytes() for f in sorted(out.rglob("*")) if f.is_file()} == before


@pytest.mark.filterwarnings("error")
def test_parameters_beyond_float32_are_one_line_exit_3(tmp_path, capsys):
    """One step at lr 1e39 leaves finite float64 parameters that overflow
    float32 in the checkpoint: no numpy warning, one line of error."""
    fx = tmp_path / "fx"
    assert main(["gen-fixtures", "--seed", "1", "--pairs", "8", "--out", str(fx)]) == 0
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"d": 16, "max_frames": 4, "seed": 1, "batch_size": 8,
                               "steps": 1, "lr": 1e39}))
    capsys.readouterr()
    assert main(["train", "--manifest", str(fx / "manifest.json"), "--config", str(cfg),
                 "--out", str(tmp_path / "ckpt")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("synret: numerical error: refusing to write non-finite tensor")
    assert len(err.splitlines()) == 1


@pytest.fixture(scope="module")
def desk_manifest(tmp_path_factory):
    """The README walkthrough's fixture: 8 pairs at d=16."""
    fx = tmp_path_factory.mktemp("desk")
    assert main(["gen-fixtures", "--seed", "1", "--pairs", "8", "--out", str(fx)]) == 0
    return str(fx / "manifest.json")


def _desk_train(manifest, tmp_path, out, **overrides):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"d": 16, "max_frames": 4, "seed": 1, "batch_size": 8,
                               "steps": 1, "lr": 1e-3, **overrides}))
    return main(["train", "--manifest", manifest, "--config", str(cfg), "--out", str(out)])


def _snapshot(directory):
    return {f.name: f.read_bytes() for f in sorted(directory.iterdir())}


@pytest.mark.parametrize("key,value", [
    ("beta1", 1.0), ("beta1", 1.5), ("beta1", -3), ("beta2", 1.0), ("beta2", 2.0),
    ("adam_eps", 0), ("adam_eps", -1),
])
def test_adam_hyperparameter_out_of_range_is_usage_error(desk_manifest, tmp_path, capsys,
                                                         key, value):
    """Caught when the config loads: at 1, beta1 or beta2 would divide by zero
    at step 1, and the other values would train on without a word."""
    ckpt = tmp_path / "ckpt"
    capsys.readouterr()
    assert _desk_train(desk_manifest, tmp_path, ckpt, steps=20, **{key: value}) == 1
    err = capsys.readouterr().err
    assert err.startswith("synret: usage error: ") and key in err
    assert len(err.splitlines()) == 1
    assert not ckpt.exists()


@pytest.mark.parametrize("steps", [2, 3])
def test_floating_point_fault_in_train_is_one_line_exit_3(desk_manifest, tmp_path, capsys,
                                                         steps):
    """At lr 1e38 the second step overflows inside the forward pass: one
    line naming the command and the step, and --out keeps the checkpoint
    it held."""
    ckpt = tmp_path / "ckpt"
    assert _desk_train(desk_manifest, tmp_path, ckpt) == 0
    before = _snapshot(ckpt)
    capsys.readouterr()
    assert _desk_train(desk_manifest, tmp_path, ckpt, steps=steps, lr=1e38) == 3
    err = capsys.readouterr().err
    assert err.startswith("synret: numerical error: train: floating-point error: overflow")
    assert err.endswith(" at step 2\n") and len(err.splitlines()) == 1
    assert _snapshot(ckpt) == before


def test_floating_point_fault_in_eval_is_one_line_exit_3(desk_manifest, tmp_path, capsys):
    """One step at lr 1e38 leaves parameters that float32 holds but that
    overflow in the next forward pass."""
    ckpt, report = tmp_path / "ckpt", tmp_path / "report.json"
    assert _desk_train(desk_manifest, tmp_path, ckpt, lr=1e38) == 0
    capsys.readouterr()
    assert main(["eval", "--manifest", desk_manifest, "--params", str(ckpt),
                 "--report", str(report)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("synret: numerical error: eval: floating-point error: overflow")
    assert len(err.splitlines()) == 1
    assert not report.exists()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_token_position_out_of_range_is_one_line_exit_2(desk_manifest, tmp_path, capsys,
                                                        monkeypatch, command):
    """Node features are gathered when a caption is first encoded; a token
    position past the caption's rows still fails there with the same
    message. No file can carry one, since loading checks the token count
    against the text rows, so the caption index is altered after loading."""
    import dataclasses

    import synret.dataset

    ckpt, report = tmp_path / "ckpt", tmp_path / "report.json"
    if command == "eval":
        assert _desk_train(desk_manifest, tmp_path, ckpt) == 0
    index_hierarchy = synret.dataset.index_hierarchy
    monkeypatch.setattr(synret.dataset, "index_hierarchy", lambda h: dataclasses.replace(
        index_hierarchy(h), mu4=index_hierarchy(h).mu4 + [7]))
    capsys.readouterr()
    if command == "train":
        assert _desk_train(desk_manifest, tmp_path, ckpt) == 2
    else:
        assert main(["eval", "--manifest", desk_manifest, "--params", str(ckpt),
                     "--report", str(report)]) == 2
    assert capsys.readouterr().err == (
        "synret: data error: token position 7 out of range (caption has 6 tokens)\n")
    assert not report.exists() and (command == "eval" or not (ckpt / "meta.json").exists())


def test_build_hierarchy_matches_golden(golden_dir, tmp_path):
    out = tmp_path / "h.json"
    rc = main(["build-hierarchy", str(golden_dir / "simple.conllu"), "-o", str(out)])
    assert rc == 0
    assert out.read_bytes() == (golden_dir / "simple.hierarchy.json").read_bytes()


def test_gen_fixtures_idempotent(tmp_path):
    args = ["gen-fixtures", "--seed", "9", "--pairs", "2", "--tokens", "4",
            "--frames", "3", "--patches", "4", "--dim", "8"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    for f in sorted(a.iterdir()):
        assert f.read_bytes() == (b / f.name).read_bytes()


def test_gen_fixtures_failing_part_way_leaves_no_manifest(tmp_path, capsys):
    # an old manifest over a mix of old and new pair files would load as data
    out = tmp_path / "fx"
    args = ["gen-fixtures", "--pairs", "2", "--tokens", "4", "--frames", "3",
            "--patches", "4", "--dim", "8", "--out", str(out)]
    assert main(args + ["--seed", "1"]) == 0
    blocked = out / "pair0001.frames.shet"
    blocked.unlink()
    blocked.mkdir()
    capsys.readouterr()
    assert main(args + ["--seed", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"synret: usage error: cannot write {blocked}")
    assert len(err.splitlines()) == 1
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("flag", ["--pairs", "--tokens", "--frames", "--patches", "--dim"])
def test_gen_fixtures_count_below_one_is_usage_error(tmp_path, capsys, flag, value):
    args = {"--pairs": "2", "--tokens": "4", "--frames": "3", "--patches": "4", "--dim": "8"}
    args[flag] = value
    out = tmp_path / "fx"
    argv = ["gen-fixtures", "--seed", "9", "--out", str(out)]
    assert main(argv + [item for pair in args.items() for item in pair]) == 1
    assert capsys.readouterr().err == f"synret: usage error: {flag} must be >= 1, got {value}\n"
    assert not out.exists()


def test_train_score_eval_pipeline(fixture_dir, checkpoint, config_path, tmp_path):
    manifest = str(fixture_dir / "manifest.json")
    scores = tmp_path / "scores.shet"
    assert main(["score", "--manifest", manifest, "--params", str(checkpoint),
                 "--out", str(scores), "--config", str(config_path)]) == 0
    s = read_tensor(scores)
    assert s.shape == (4, 4)
    sidecar = json.loads((tmp_path / "scores.shet.json").read_text())
    assert sidecar["rows"] == [f"pair{i:04d}" for i in range(4)]
    assert sidecar["dsl"] is False

    report = tmp_path / "report.json"
    assert main(["eval", "--manifest", manifest, "--params", str(checkpoint),
                 "--report", str(report), "--config", str(config_path)]) == 0
    rep = json.loads(report.read_text())
    assert set(rep) >= {"t2v", "v2t", "rsum", "pairs"}
    assert rep["pairs"] == 4

    assert (checkpoint / "loss.csv").read_text().startswith("step,loss\n1,")


def test_score_threads_match(fixture_dir, checkpoint, config_path, tmp_path):
    manifest = str(fixture_dir / "manifest.json")
    s1, s4 = tmp_path / "s1.shet", tmp_path / "s4.shet"
    assert main(["score", "--manifest", manifest, "--params", str(checkpoint),
                 "--out", str(s1), "--config", str(config_path), "--threads", "1"]) == 0
    assert main(["score", "--manifest", manifest, "--params", str(checkpoint),
                 "--out", str(s4), "--config", str(config_path), "--threads", "4"]) == 0
    assert s1.read_bytes() == s4.read_bytes()


def test_score_dsl_flag(fixture_dir, checkpoint, config_path, tmp_path):
    manifest = str(fixture_dir / "manifest.json")
    plain, dsl = tmp_path / "p.shet", tmp_path / "d.shet"
    assert main(["score", "--manifest", manifest, "--params", str(checkpoint),
                 "--out", str(plain), "--config", str(config_path)]) == 0
    assert main(["score", "--manifest", manifest, "--params", str(checkpoint),
                 "--out", str(dsl), "--config", str(config_path), "--dsl"]) == 0
    sp = read_tensor(plain).astype(np.float64)
    sd = read_tensor(dsl).astype(np.float64)
    assert not np.allclose(sp, sd)
    sidecar = json.loads((tmp_path / "d.shet.json").read_text())
    assert sidecar["dsl"] is True and sidecar["dsl_direction"] == "t2v"


@pytest.mark.parametrize("command", ["eval", "score"])
def test_dsl_prior_overflow_is_one_line_exit_3(fixture_dir, checkpoint, tmp_path, capsys,
                                               command):
    """At a tau_dsl that overflows the prior, both commands fail the same way,
    with no numpy warning and no output: eval used to write a report of
    R@1 100 from a NaN matrix."""
    cfg = tmp_path / "dsl.json"
    cfg.write_text(json.dumps({"d": 8, "max_frames": 3, "tau_dsl": 1e308}))
    out = tmp_path / "out"
    flag = "--report" if command == "eval" else "--out"
    capsys.readouterr()
    assert main([command, "--manifest", str(fixture_dir / "manifest.json"), "--params",
                 str(checkpoint), "--config", str(cfg), "--dsl", flag, str(out)]) == 3
    err = capsys.readouterr().err
    assert err == ("synret: numerical error: score matrix contains non-finite values "
                   "under the DSL prior at tau_dsl=1e+308\n")
    assert not out.exists()


@pytest.mark.parametrize("version", [True, 1.0])
def test_checkpoint_version_must_be_the_int(fixture_dir, checkpoint, config_path, tmp_path,
                                            capsys, version):
    """`True == 1 == 1.0` in Python, so only an int, never a bool, is the version."""
    meta_path = checkpoint / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["format_version"] = version
    meta_path.write_text(json.dumps(meta))
    report = tmp_path / "report.json"
    capsys.readouterr()
    assert main(["eval", "--manifest", str(fixture_dir / "manifest.json"), "--params",
                 str(checkpoint), "--config", str(config_path), "--report", str(report)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "unsupported checkpoint version" in err
    assert not report.exists()


def test_fuse_writes_tensors_and_index(fixture_dir, checkpoint, config_path, tmp_path):
    out = tmp_path / "feats"
    assert main(["fuse", "--manifest", str(fixture_dir / "manifest.json"),
                 "--params", str(checkpoint), "--out", str(out),
                 "--config", str(config_path)]) == 0
    index = json.loads((out / "index.json").read_text())
    assert set(index) == {f"pair{i:04d}" for i in range(4)}
    entry = index["pair0000"]
    for name, fname in entry["tensors"].items():
        assert (out / fname).exists(), name
    g = read_tensor(out / entry["tensors"]["g"])
    assert g.shape == (3, 8)
    assert all(len(sel) == 2 for sel in entry["frame_selection"])  # lambda_frame=2, N_v=3


def test_eval_idempotent(fixture_dir, checkpoint, config_path, tmp_path):
    manifest = str(fixture_dir / "manifest.json")
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for r in (r1, r2):
        assert main(["eval", "--manifest", manifest, "--params", str(checkpoint),
                     "--report", str(r), "--config", str(config_path)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_train_deterministic_checkpoints(fixture_dir, config_path, tmp_path):
    manifest = str(fixture_dir / "manifest.json")
    a, b = tmp_path / "ca", tmp_path / "cb"
    for out in (a, b):
        assert main(["train", "--manifest", manifest, "--config", str(config_path),
                     "--out", str(out)]) == 0
    for f in sorted(a.iterdir()):
        assert f.read_bytes() == (b / f.name).read_bytes(), f.name


def test_threads_zero_is_usage_error(tmp_path, capsys):
    rc = main(["score", "--manifest", str(tmp_path / "m.json"), "--params", str(tmp_path),
               "--out", str(tmp_path / "s.shet"), "--threads", "0"])
    assert rc == 1
    assert "threads must be >= 1" in capsys.readouterr().err


def test_train_zero_steps_writes_initial_checkpoint(fixture_dir, tmp_path, capsys):
    from synret.params import init_params, save_checkpoint

    cfg = tmp_path / "zero.json"
    cfg.write_text(json.dumps({"d": 8, "max_frames": 3, "seed": 3, "batch_size": 2, "steps": 0}))
    ckpt = tmp_path / "ckpt0"
    capsys.readouterr()
    assert main(["train", "--manifest", str(fixture_dir / "manifest.json"),
                 "--config", str(cfg), "--out", str(ckpt)]) == 0
    out = capsys.readouterr()
    assert out.err == "" and len(out.out.splitlines()) == 1
    assert (ckpt / "loss.csv").read_text() == "step,loss\n"
    ref = tmp_path / "ref"
    save_checkpoint(init_params(3, 8, max_frames=3), ref, seed=3)
    written = sorted(f.name for f in ckpt.iterdir() if f.name != "loss.csv")
    assert written == sorted(f.name for f in ref.iterdir())
    for name in written:
        assert (ckpt / name).read_bytes() == (ref / name).read_bytes(), name


def test_selfcheck_passes(capsys):
    assert main(["selfcheck"]) == 0
    lines = capsys.readouterr().out.splitlines()
    checks = lines[:-1]
    assert checks and all(line.startswith("ok ") for line in checks)
    assert any("score-kernel" in line for line in checks)
    assert lines[-1] == f"selfcheck: {len(checks)}/{len(checks)} checks passed"


@pytest.mark.parametrize("override", [
    '"d": "8"',                     # int is not str
    '"d": 8.0',                     # a float is not an int
    '"literal_patch_norm": 1',      # int is not bool
    '"steps": true',                # bool is not int
    '"lr": 1e309',                  # JSON overflow reads as inf
    '"stop_loss": "0.01"',          # str is not float
    pytest.param('"lr": 1' + "0" * 400, id="lr-int-beyond-float-range"),
])
def test_config_value_of_wrong_type_is_usage_error(fixture_dir, tmp_path, capsys, override):
    path = tmp_path / "bad.json"
    # the JSON reader keeps the last of duplicate keys
    path.write_text('{"d": 8, "max_frames": 3, "seed": 3, "batch_size": 2, "steps": 2, '
                    + override + "}")
    ckpt = tmp_path / "ckpt"
    capsys.readouterr()
    assert main(["train", "--manifest", str(fixture_dir / "manifest.json"),
                 "--config", str(path), "--out", str(ckpt)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("synret: usage error: config key") and len(err.splitlines()) == 1
    assert not ckpt.exists()


def test_config_float_fields_take_ints_and_null():
    from synret.config import config_from_dict

    cfg = config_from_dict({"tau": 4, "lr": 1, "stop_loss": None})
    assert cfg.tau == 4 and cfg.lr == 1 and cfg.stop_loss is None


def test_fuse_rejects_unsafe_and_duplicate_pair_ids(fixture_dir, checkpoint, tmp_path, capsys):
    manifest = fixture_dir / "manifest.json"
    records = json.loads(manifest.read_text())
    out = tmp_path / "nested" / "fused"
    for ids, message in ((["../escape"] + [r["pair_id"] for r in records[1:]], "not a safe"),
                         ([records[0]["pair_id"]] * len(records), "duplicate pair_id")):
        for rec, pair_id in zip(records, ids):
            rec["pair_id"] = pair_id
        manifest.write_text(json.dumps(records))
        capsys.readouterr()
        assert main(["fuse", "--manifest", str(manifest), "--params", str(checkpoint),
                     "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
    assert not (tmp_path / "nested").exists()


def test_missing_tensor_file_is_data_error(fixture_dir, checkpoint, tmp_path, capsys):
    manifest = str(fixture_dir / "manifest.json")
    report = tmp_path / "r.json"
    (fixture_dir / "pair0000.frames.shet").unlink()
    capsys.readouterr()
    assert main(["eval", "--manifest", manifest, "--params", str(checkpoint),
                 "--report", str(report)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("synret: data error: cannot read ") and len(err.splitlines()) == 1
    assert "pair0000.frames.shet" in err
    assert not report.exists()


def test_checkpoint_missing_tensor_is_data_error(fixture_dir, checkpoint, tmp_path, capsys):
    (checkpoint / "mlp1.w1.shet").unlink()
    capsys.readouterr()
    assert main(["score", "--manifest", str(fixture_dir / "manifest.json"),
                 "--params", str(checkpoint), "--out", str(tmp_path / "s.shet")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("synret: data error: cannot read ") and len(err.splitlines()) == 1
    assert "mlp1.w1.shet" in err


@pytest.mark.parametrize("target,code,start", [
    ("build-hierarchy", 2, "synret: data error: conllu: not UTF-8 ("),
    ("config", 1, "synret: usage error: cannot read config "),
    ("manifest", 2, "synret: data error: cannot read manifest "),
    ("caption", 2, "synret: data error: pair0001: {fx}/pair0001.conllu: conllu: not UTF-8 ("),
    ("meta.json", 2, "synret: data error: cannot read checkpoint metadata "),
])
def test_input_not_utf8_is_one_line(fixture_dir, checkpoint, tmp_path, capsys, target, code,
                                    start):
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff\xfe")
    manifest, report = fixture_dir / "manifest.json", tmp_path / "r.json"
    argv = ["eval", "--manifest", str(manifest), "--params", str(checkpoint),
            "--report", str(report)]
    if target == "build-hierarchy":
        argv = ["build-hierarchy", str(bad)]
    elif target == "config":
        argv += ["--config", str(bad)]
    else:
        path = {"manifest": manifest, "caption": fixture_dir / "pair0001.conllu",
                "meta.json": checkpoint / "meta.json"}[target]
        path.write_bytes(bad.read_bytes())
    capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(start.format(fx=fixture_dir)) and len(err.splitlines()) == 1, err
    assert not report.exists()


def test_malformed_caption_error_names_pair_and_file(fixture_dir, checkpoint, tmp_path, capsys):
    caption = fixture_dir / "pair0001.conllu"
    caption.write_text("1\tdog\n")
    capsys.readouterr()
    assert main(["eval", "--manifest", str(fixture_dir / "manifest.json"),
                 "--params", str(checkpoint), "--report", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err == (
        f"synret: data error: pair0001: {caption}: "
        "conllu line 1: expected 10 tab-separated fields, got 2\n")


def test_second_sentence_is_one_warning_line_per_caption(fixture_dir, checkpoint, tmp_path,
                                                         capsys):
    """The extra sentence is ignored, so the report is unchanged; each caption
    with one says so in one line, on every run in the process."""
    argv = ["eval", "--manifest", str(fixture_dir / "manifest.json"),
            "--params", str(checkpoint), "--report", str(tmp_path / "r.json")]
    assert main(argv) == 0
    want = (tmp_path / "r.json").read_bytes()
    captions = [fixture_dir / "pair0000.conllu", fixture_dir / "pair0002.conllu"]
    for caption in captions:
        caption.write_text(caption.read_text() + "\n" + caption.read_text())
    for _ in range(2):
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().err == "".join(
            f"synret: warning: {c.stem}: {c}: conllu input has multiple sentences; "
            "only the first is used\n" for c in captions)
        assert (tmp_path / "r.json").read_bytes() == want


@pytest.mark.parametrize("command", ["eval", "score", "fuse"])
def test_unwritable_output_is_usage_error(fixture_dir, checkpoint, config_path, tmp_path,
                                          capsys, command):
    regular_file = tmp_path / "file"
    regular_file.write_text("keep\n")
    target = {"eval": ["--report", str(tmp_path / "nodir" / "x.json")],
              "score": ["--out", str(tmp_path / "nodir" / "x.shet")],
              "fuse": ["--out", str(regular_file)]}[command]
    capsys.readouterr()
    assert main([command, "--manifest", str(fixture_dir / "manifest.json"),
                 "--params", str(checkpoint), "--config", str(config_path)] + target) == 1
    err = capsys.readouterr().err
    assert err.startswith("synret: usage error: cannot write ") and len(err.splitlines()) == 1
    assert regular_file.read_text() == "keep\n"
    assert not (tmp_path / "nodir").exists()


@pytest.mark.parametrize("heads", [0, -8])
def test_heads_below_one_is_usage_error(fixture_dir, tmp_path, capsys, heads):
    path = tmp_path / "heads.json"
    path.write_text(json.dumps({"d": 8, "max_frames": 3, "batch_size": 2, "steps": 2,
                                "heads": heads}))
    ckpt = tmp_path / "ckpt"
    capsys.readouterr()
    assert main(["train", "--manifest", str(fixture_dir / "manifest.json"),
                 "--config", str(path), "--out", str(ckpt)]) == 1
    assert capsys.readouterr().err == "synret: usage error: heads must be >= 1\n"
    assert not ckpt.exists()


@pytest.mark.parametrize("command", ["eval", "score"])
def test_output_failing_part_way_leaves_old_file(fixture_dir, checkpoint, config_path, tmp_path,
                                                 capsys, fail_writes, command):
    out = tmp_path / "old"
    out.mkdir()
    target = out / ("report.json" if command == "eval" else "s.shet")
    flag = "--report" if command == "eval" else "--out"
    argv = [command, "--manifest", str(fixture_dir / "manifest.json"), "--params",
            str(checkpoint), "--config", str(config_path), flag, str(target)]
    assert main(argv) == 0
    before = {f.name: f.read_bytes() for f in out.iterdir()}
    fail_writes()
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"synret: usage error: cannot write {target}: ")
    assert len(err.splitlines()) == 1
    assert {f.name: f.read_bytes() for f in out.iterdir()} == before


def _one_line_write_error(capsys, path):
    err = capsys.readouterr().err
    assert err.startswith(f"synret: usage error: cannot write {path}") and len(err.splitlines()) == 1


@pytest.mark.parametrize("after", [0, 5])
def test_fuse_failing_part_way_leaves_no_index(fixture_dir, checkpoint, config_path, tmp_path,
                                               capsys, fail_writes, after):
    out = tmp_path / "fused"
    argv = ["fuse", "--manifest", str(fixture_dir / "manifest.json"), "--params",
            str(checkpoint), "--config", str(config_path), "--out", str(out)]
    assert main(argv) == 0
    fail_writes(after=after)
    capsys.readouterr()
    assert main(argv) == 1
    _one_line_write_error(capsys, out)
    assert not (out / "index.json").exists()


def test_score_whose_sidecar_fails_leaves_no_sidecar(fixture_dir, checkpoint, config_path,
                                                     tmp_path, capsys, fail_writes):
    target = tmp_path / "s.shet"
    argv = ["score", "--manifest", str(fixture_dir / "manifest.json"), "--params",
            str(checkpoint), "--config", str(config_path), "--out", str(target)]
    assert main(argv + ["--dsl"]) == 0
    fail_writes(after=1)  # the plain matrix lands, its sidecar does not
    capsys.readouterr()
    assert main(argv) == 1
    _one_line_write_error(capsys, f"{target}.json")
    assert target.exists() and not (tmp_path / "s.shet.json").exists()


@pytest.mark.parametrize("checkpoint_lands", [False, True])
def test_train_failing_part_way_leaves_no_loss_log(fixture_dir, config_path, tmp_path, capsys,
                                                   fail_writes, checkpoint_lands):
    out = tmp_path / "ckpt"
    argv = ["train", "--manifest", str(fixture_dir / "manifest.json"),
            "--config", str(config_path), "--out", str(out)]
    assert main(argv) == 0
    n_checkpoint_files = sum(1 for f in out.iterdir() if f.name != "loss.csv")
    fail_writes(after=n_checkpoint_files if checkpoint_lands else 0)
    capsys.readouterr()
    assert main(argv) == 1
    _one_line_write_error(capsys, out)
    assert (out / "meta.json").exists() == checkpoint_lands
    assert not (out / "loss.csv").exists()


def test_train_checks_out_before_the_first_step(fixture_dir, config_path, tmp_path, capsys,
                                                monkeypatch):
    train_module = importlib.import_module("synret.train")
    steps = []
    step = train_module.loss_and_backward
    monkeypatch.setattr(train_module, "loss_and_backward",
                        lambda *args: steps.append(1) or step(*args))
    afile = tmp_path / "afile"
    afile.write_text("keep\n")
    capsys.readouterr()
    assert main(["train", "--manifest", str(fixture_dir / "manifest.json"),
                 "--config", str(config_path), "--out", str(afile / "ckpt")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("synret: usage error: cannot write ") and len(err.splitlines()) == 1
    assert steps == []
    assert afile.read_text() == "keep\n"


def _manifest_with_last_pair(tmp_path, **last):
    """20 pairs: 19 of a d=8, 3-frame fixture, then one generated with the
    `gen-fixtures` flags in `last` (say frames="6") and renamed pair0019, so
    that `fuse` encodes a whole chunk before it reaches the last."""
    def gen(name, pairs, frames="3", dim="8"):
        fx = tmp_path / name
        assert main(["gen-fixtures", "--seed", "3", "--pairs", str(pairs), "--tokens", "5",
                     "--frames", frames, "--patches", "4", "--dim", dim, "--out", str(fx)]) == 0
        return [{key: value if key == "pair_id" else f"{name}/{value}"
                 for key, value in record.items()}
                for record in json.loads((fx / "manifest.json").read_text())]

    records = gen("fx19", 19) + gen("last", 1, **last)
    records[-1]["pair_id"] = "pair0019"
    manifest = tmp_path / "misfit.json"
    manifest.write_text(json.dumps(records))
    return str(manifest)


@pytest.mark.parametrize("existing", [False, True])
def test_fuse_on_a_manifest_that_does_not_fit_writes_nothing(fixture_dir, tmp_path, capsys,
                                                             existing):
    """The fit check runs before the first chunk is encoded: a new --out is
    not made, and an old one keeps its index and tensors byte for byte."""
    cfg, ckpt, out = tmp_path / "t4.json", tmp_path / "ckpt4", tmp_path / "feats"
    cfg.write_text(json.dumps({"d": 8, "max_frames": 4, "steps": 0}))
    assert main(["train", "--manifest", str(fixture_dir / "manifest.json"),
                 "--config", str(cfg), "--out", str(ckpt)]) == 0
    if existing:
        assert main(["fuse", "--manifest", str(fixture_dir / "manifest.json"),
                     "--params", str(ckpt), "--out", str(out)]) == 0
        before = _snapshot(out)
    manifest = _manifest_with_last_pair(tmp_path, frames="6")
    capsys.readouterr()
    assert main(["fuse", "--manifest", manifest, "--params", str(ckpt), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "synret: data error: pair0019: 6 frames exceed max_frames=4\n"
    if existing:
        assert _snapshot(out) == before
    else:
        assert not out.exists()


@pytest.mark.parametrize("last,message", [
    ({"frames": "6"}, "pair0019: 6 frames exceed max_frames=4"),
    ({"dim": "16"}, "pair0019: dimension mismatch (features d=16, model d=8)"),
])
def test_train_on_a_manifest_that_does_not_fit_stops_before_step_1(tmp_path, capsys,
                                                                   monkeypatch, last, message):
    train_module = importlib.import_module("synret.train")
    steps = []
    step = train_module.loss_and_backward
    monkeypatch.setattr(train_module, "loss_and_backward",
                        lambda *args: steps.append(1) or step(*args))
    manifest = _manifest_with_last_pair(tmp_path, **last)
    cfg, out = tmp_path / "c.json", tmp_path / "ckpt"
    cfg.write_text(json.dumps({"d": 8, "max_frames": 4, "seed": 3, "batch_size": 2,
                               "steps": 5}))
    capsys.readouterr()
    assert main(["train", "--manifest", manifest, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"synret: data error: {message}\n"
    assert steps == [] and not out.exists()


@pytest.mark.parametrize("existing", [False, True])
@pytest.mark.parametrize("overrides,code", [({"batch_size": 9}, 2), ({"steps": 2, "lr": 1e38}, 3)])
def test_train_failing_after_the_out_check_leaves_out_as_it_was(desk_manifest, tmp_path, capsys,
                                                                existing, overrides, code):
    """More pairs per batch than the manifest has, or a step that diverges:
    the directories made to check --out are gone again, and an old
    checkpoint is untouched."""
    out = tmp_path / "new" / "ckpt"
    if existing:
        assert _desk_train(desk_manifest, tmp_path, out) == 0
        before = _snapshot(out)
    assert _desk_train(desk_manifest, tmp_path, out, **overrides) == code
    if existing:
        assert _snapshot(out) == before
    else:
        assert not (tmp_path / "new").exists()


def test_fuse_failing_before_its_first_write_makes_no_out(desk_manifest, tmp_path, capsys):
    ckpt, out = tmp_path / "ckpt", tmp_path / "feats"
    assert _desk_train(desk_manifest, tmp_path, ckpt, lr=1e38) == 0
    capsys.readouterr()
    assert main(["fuse", "--manifest", desk_manifest, "--params", str(ckpt),
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("synret: numerical error: fuse: floating-point error: overflow")
    assert len(err.splitlines()) == 1 and not out.exists()


def test_fuse_across_encode_chunks_matches_per_pair_encoding(tmp_path):
    from synret.config import RunConfig
    from synret.dataset import load_bundles
    from synret.params import load_checkpoint
    from synret.pipeline import ENCODE_CHUNK, text_forward, video_forward
    from synret.reference import pair_forward

    fx, ckpt, out = tmp_path / "fx", tmp_path / "ckpt", tmp_path / "fused"
    assert main(["gen-fixtures", "--seed", "5", "--pairs", str(ENCODE_CHUNK + 5),
                 "--tokens", "7", "--frames", "5", "--patches", "6", "--dim", "8",
                 "--out", str(fx)]) == 0
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"d": 8, "max_frames": 5, "seed": 4, "batch_size": 2,
                               "steps": 0}))
    manifest = str(fx / "manifest.json")
    assert main(["train", "--manifest", manifest, "--config", str(cfg), "--out", str(ckpt)]) == 0
    assert main(["fuse", "--manifest", manifest, "--params", str(ckpt), "--out", str(out)]) == 0
    index = json.loads((out / "index.json").read_text())
    params, run = load_checkpoint(ckpt), RunConfig(d=8, max_frames=5)
    bundles = load_bundles(manifest)
    assert sorted(index) == [b.pair_id for b in bundles]
    for b in bundles:
        tc, tape = text_forward([b], params)
        vid = video_forward([b], params)[0][0]
        pf = pair_forward(tc, vid, run)
        want = {"e1": tc.e1[0], "e2": tc.e2, "e3": tc.e3, "e3p": tape.e3p, "f3p": tape.f3p,
                "ev1": pf.ev1, "g": vid.g, "ev2": pf.ev2, "ev3": pf.ev3}
        entry = index[b.pair_id]
        assert sorted(entry["tensors"]) == sorted(want)
        for name, value in want.items():
            got = read_tensor(out / entry["tensors"][name])
            ulp = np.spacing(np.abs(value).astype(np.float32))
            assert got.shape == value.shape and (np.abs(got - value) <= ulp).all(), name
        assert entry["frame_selection"] == [sel.tolist() for sel in pf.psi2]
        assert entry["patch_selection"] == [[sel.tolist() for sel in per_entity]
                                            for per_entity in pf.psi3]
